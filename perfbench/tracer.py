"""Spans around the package's public functions, recorded from outside.

The tracer replaces each traced function in every ``negprob`` module
namespace that binds it (``negprob.solver.rank_nullity``,
``negprob.cli.minimize_l1``, ...) with a wrapper that records one span per
call, and puts the originals back on exit.  Spans stay in memory as
``[name, start_ns, end_ns, parent_index, op_id]`` until the run writes
them out.  Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# function name -> layer span name
TRACED = {
    "run": "cli.run",
    "scenario_from_data": "cli.parse",
    "mach_zehnder_case": "scenarios.build",
    "mz_counterfactual": "scenarios.build",
    "mz_counterfactual_detuned": "scenarios.build",
    "bell_box": "scenarios.build",
    "tsirelson_box": "scenarios.build",
    "leggett_garg_chain": "scenarios.build",
    "family_system": "contextuality.family_system",
    "detect_bias": "contextuality.detect_bias",
    "cylinder": "measure.cylinder",
    "assemble": "solver.assemble",
    "rank_nullity": "solver.rank_nullity",
    "minimize_l1": "solver.minimize_l1",
    "feasible_proper": "solver.feasible_proper",
}

# functions whose defining module is the one named
HOME = {
    "run": "negprob.cli",
    "scenario_from_data": "negprob.cli",
    "family_system": "negprob.contextuality",
    "detect_bias": "negprob.contextuality",
    "cylinder": "negprob.measure",
    "assemble": "negprob.solver",
    "rank_nullity": "negprob.solver",
    "minimize_l1": "negprob.solver",
    "feasible_proper": "negprob.solver",
}


class Tracer:
    """Records nested spans; used as a context manager around a pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.solves: list[tuple] = []  # (system, result) of minimize_l1
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self.bindings: list[str] = []  # "module.function" names wrapped
        self.op_scale: dict = {}  # op id -> factor to reference speed

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), 0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int, name: str) -> list:
        self._op = op_id
        return self.begin(name)

    def _wrap(self, fn, name: str):
        tracer = self
        keep = fn.__name__ == "minimize_l1"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(record)
            if keep:
                tracer.solves.append((args[0], result))
            return result

        return traced

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals = {}
        for attr in TRACED:
            home = sys.modules.get(HOME.get(attr, "negprob.scenarios"))
            if home is not None and hasattr(home, attr):
                originals[attr] = getattr(home, attr)
        wrappers = {
            attr: self._wrap(fn, TRACED[attr]) for attr, fn in originals.items()
        }
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "negprob" and not mod_name.startswith("negprob."):
                continue
            for attr, fn in originals.items():
                if module.__dict__.get(attr) is fn:
                    self._patched.append((module, attr, fn))
                    self.bindings.append(f"{mod_name}.{attr}")
                    setattr(module, attr, wrappers[attr])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- analysis -------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_totals_ms(self, op_filter=None) -> dict[str, float]:
        """Summed self time per span name at reference speed, in ms.

        Each span is scaled by its operation's factor in ``op_scale``;
        ``op_filter`` keeps the ops it returns true for.
        """
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times_ns()):
            if op_filter is None or op_filter(span[4]):
                totals[span[0]] += own / 1e6 * self.op_scale.get(span[4], 1.0)
        return dict(totals)

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent, op = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
