"""The two ends of ``solver.solve_from``'s engine choice, for tests: with no
node cap it never hands a problem to the layout DP, and with the cap at 0
the DP answers every problem it models and accepts."""

import math
import time
from unittest import mock

from kalliance import solver


def capped_solve(g, target, k, cap, floor=1):
    """``solver.solve_from`` from size ``floor`` with the node cap at ``cap``."""
    posed = solver.problem(g, target, k)
    with mock.patch.object(solver, "_LEX_NODE_CAP", cap):
        return solver.solve_from(g, target, k, posed, floor, time.perf_counter())


def lex_solve(g, target, k, floor=1):
    """The lex engine alone from size ``floor``: no node cap."""
    return capped_solve(g, target, k, math.inf, floor)
