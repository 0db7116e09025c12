"""The two ends of ``solver.solve_from``'s engine choice, for tests, and the
one place they set its threshold, ``solver._DP_MIN_N``. At ``LEX_ONLY`` no
graph is large enough, so the lex engine answers every problem; at
``DP_FIRST`` every graph is, so the layout DP answers every problem it
models and accepts. ``dp_witness`` asks the DP alone, also on the problems
the engine choice never hands it."""

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


def dp_witness(g, target, k=None):
    """The layout DP's lex-least witness of ``target`` at k on g, as a
    bitmask (0 when none exists). The DP must accept the problem: a decline
    fails here instead of reading as a mismatch."""
    bits = solver._layout_value(g, solver.problem(g, target, k))
    assert bits is not None, f"the layout DP declines {target} k={k} on {g.edges}"
    return bits
