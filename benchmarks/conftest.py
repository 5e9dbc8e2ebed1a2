"""Benchmark harness: every module-level ``Figure`` in ``test_*.py`` is a test.

Each benchmark regenerates one of the paper's tables or figures on the
simulated testbed and saves it under ``benchmarks/out/`` (see
``benchlib``).  The collected item is named after the figure's output,
so ``-k fig16`` selects Figure 16.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from benchlib import QUICK, Figure, run_figure  # noqa: E402 (path set up above)


def pytest_pycollect_makeitem(collector, name, obj):
    if not isinstance(obj, Figure):
        return None

    def test():
        if QUICK and obj.quick is None:
            pytest.skip("no quick grid")
        run_figure(obj)

    return pytest.Function.from_parent(collector, name=obj.name, callobj=test)
