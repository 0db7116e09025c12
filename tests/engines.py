"""The two ends of ``solver.solve_from``'s engine choice, for tests, and the
one place they set its threshold, ``solver._DP_MIN_N``. At ``LEX_ONLY`` no
graph is large enough, so the lex engine answers every problem; at
``DP_FIRST`` every graph is, so the layout DP answers every problem it
models and accepts."""

import contextlib
import math
import time
from unittest import mock

from kalliance import solver

LEX_ONLY = math.inf
DP_FIRST = 0


@contextlib.contextmanager
def dp_threshold(n):
    """Within the block, ``solver.solve_from`` asks the layout DP from graph
    order ``n`` on."""
    with mock.patch.object(solver, "_DP_MIN_N", n):
        yield


def routed_solve(g, target, k, threshold, floor=1):
    """``solver.solve_from`` from size ``floor`` with the DP from graph order
    ``threshold`` on."""
    posed = solver.problem(g, target, k)
    with dp_threshold(threshold):
        return solver.solve_from(g, target, k, posed, floor, time.perf_counter())


def lex_solve(g, target, k, floor=1):
    """The lex engine alone from size ``floor``."""
    return routed_solve(g, target, k, LEX_ONLY, floor)
