"""Test-session settings shared by every test module."""

import sys

# the tests import the package from src/; cached bytecode there would make
# a later benchmark of the same tree read differently from a clean one
sys.dont_write_bytecode = True
