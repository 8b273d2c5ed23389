"""Loaded by benchmark child processes through PYTHONPATH.

At exit it names, on stderr, the file the child imported ``negprob``
from, so the benchmark can check that every child ran the tree under
test.  It imports nothing and changes nothing else.
"""

import atexit
import sys


def _report() -> None:
    module = sys.modules.get("negprob")
    sys.stderr.write(
        f"negprob-bench-provenance: {getattr(module, '__file__', None)}\n"
    )


atexit.register(_report)
