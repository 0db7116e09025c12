"""Exact minimum-cardinality solvers for the alliance and domination
parameters, plus an independent brute-force oracle.

``solve`` answers each problem with one of two exact engines that share no
code; both give the lexicographically least minimum-cardinality set. The lex
engine (``_Search``) scans cardinalities upward, visits the subsets of each
in lexicographic order and stops at the first feasible one. A dynamic
program over a linear layout (``_layout_value``) answers instead on
dominating, not connected problems where some member needs two or more
inside neighbours, unless the layout is too wide for it.
What a feasible set must meet is one ``problem``: whether it must dominate,
whether it must be connected, and how many inside neighbours each member
needs. Every row of the parameter table, ``alliances.PARAMETERS``, is posed
that way; total domination is the dominating problem in which each member
needs one. The oracle shares no search code with ``solve``: it walks every
nonempty subset, as a sum of single-bit masks drawn by
``itertools.combinations``, and asks ``alliances.meets``, the one definition
of each demand, whether the subset meets its row's.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import asdict, dataclass
from operator import itemgetter

from .alliances import PARAMETERS, Parameter, VertexSet, lookup_parameter, meets
from .graphs import Graph

STATUS_FOUND = "found"
STATUS_NONE = "none_exists"

DEFAULT_MAX_N = 24
MAX_N_ENV_VAR = "ALLIANCE_MAX_N"
ORACLE_MAX_N = 20


class ResourceLimitError(RuntimeError):
    """Instance exceeds the configured size cap for exponential search."""


@dataclass(frozen=True)
class SearchStats:
    """Search effort, counted the same way on every machine.

    ``subsets`` counts the complete sets the lex engine tested. ``prunes``
    counts the partial sets it cut, plus the siblings a tail rule skips from
    the one it fired on. A solve the layout DP answers runs no lex search and
    counts neither.
    """

    subsets: int
    prunes: int
    seconds: float


@dataclass(frozen=True)
class SolveResult:
    parameter: str
    k: int | None
    status: str
    value: int | None
    witness: VertexSet | None
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.status == STATUS_FOUND

    def witness_members(self) -> tuple[int, ...] | None:
        return None if self.witness is None else self.witness.members

    def to_json_dict(self) -> dict:
        out: dict = {"parameter": self.parameter}
        if self.k is not None:
            out["k"] = self.k
        out["status"] = self.status
        if self.found:
            out["value"] = self.value
            out["witness"] = list(self.witness.members)
        out["stats"] = asdict(self.stats)
        return out


def _validate_parameter(parameter: str, k: int | None) -> Parameter:
    row = lookup_parameter(parameter)
    if row.takes_k and k is None:
        raise ValueError(f"parameter {parameter!r} requires k")
    if not row.takes_k and k is not None:
        raise ValueError(f"parameter {parameter!r} does not take k")
    return row


def k_range(g: Graph) -> range:
    """The degree range of k, ``-max_degree..max_degree``. Below it every
    dominating set is a global defensive k-alliance; above it there is no
    defensive k-alliance at all."""
    d = g.max_degree
    return range(-d, d + 1)


def cells(g: Graph) -> list[tuple[str, int | None]]:
    """Every cell ``(parameter, k)`` of ``g``, in the order the corpus and
    ``oracle-check`` walk them: at each k of ``k_range(g)`` every row that
    takes k, then the rows without k, with k None."""
    k_rows = [name for name, row in PARAMETERS.items() if row.takes_k]
    return [(name, k) for k in k_range(g) for name in k_rows] + [
        (name, None) for name, row in PARAMETERS.items() if not row.takes_k
    ]


def requirements(g: Graph, k: int) -> tuple[int, ...]:
    """Inside-degree each member of a defensive k-alliance needs,
    ``ceil((deg v + k) / 2)``, clipped at 0.

    k reaches the search only through this vector, and every rule treats a
    requirement of 0 or less as none, so two k with equal vectors pose the
    same problem: same value, same lex-least witness.
    """
    # From a list: ``tuple`` of a generator regrows its buffer, and that
    # churn raised the peak RSS of a default-corpus certify by about 0.5 MB.
    return tuple([max(0, (d + k + 1) // 2) for d in g.degrees])


def problem(g: Graph, parameter: str, k: int | None = None) -> tuple[bool, bool, tuple[int, ...]]:
    """What a solve of ``parameter`` poses: ``(dominating, connected, req)``,
    where every member ``v`` needs ``req[v]`` neighbours inside the set.

    A defensive row takes ``requirements(g, k)``. gamma is the dominating
    problem with ``req = 0``; gamma_t the one with ``req = 1``, since a
    member then needs an inside neighbour and a non-member has one by
    domination. Equal problems have the same value and lex-least witness.
    """
    row = _validate_parameter(parameter, k)
    req = requirements(g, k) if row.defensive else (int(row.total),) * g.n
    return row.dominating or row.total, row.connected, req


def _resolve_cap(max_n: int | None) -> int:
    if max_n is not None:
        return max_n
    env = os.environ.get(MAX_N_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_MAX_N


class _Search:
    """Fixed-cardinality lexicographic subset search with sound pruning.

    It searches one ``problem``: ``(dominating, connected, req)``. A node is
    a chosen prefix ``mask`` whose members are all below ``pos``;
    ``need`` more vertices are still to come from ``pos..n-1``. A member
    ``w`` serves ``serve[w] = N(w) | ({w} if req[w] == 0)``, and ``cover`` is
    the union of the members' ``serve``; closed domination is
    ``cover | mask``. Every child is tested before it is entered, and it is
    cut when ``_prune`` proves that no completion is feasible. Each rule
    below is sound on its own, so cutting never skips a feasible set and the
    first hit of a size stays the lex-least one:

    - dominating, served cover and counting: on a dominating problem every
      vertex ends served. A vertex with ``req = 0`` is dominated; a member
      with ``req >= 1`` has an inside neighbour; a non-member is dominated
      by a neighbour. So a vertex outside ``cover`` and outside the ``serve``
      of every vertex still available is a cut, and ``need`` slots serve at
      most ``need`` times the largest suffix ``|serve[w]| = deg w +
      [req[w] = 0]`` new vertices. ``req`` does not decrease as the degree
      grows, so that largest ``|serve[w]|`` is the largest suffix degree
      unless every suffix vertex has ``req = 0``: on gamma, gamma_t and any
      regular graph the count is the closed count or the open one it
      replaces;
    - connected, counting: order a connected completion ``S = mask | A``
      breadth-first in ``G[S]`` from its lowest member, so that each vertex
      after the first has an earlier neighbour; each added vertex is then
      already dominated, as is that neighbour, so it newly dominates at most
      ``deg w - 1`` vertices. Members of different components of ``G[mask]``
      are never adjacent, so the first member ``x`` of each of the other
      ``C - 1`` components is entered from an added vertex ``q``, and
      ``N[q]`` holds ``x`` as a third vertex already dominated. The ``need``
      added vertices therefore newly dominate at most ``need`` times the
      largest suffix ``deg w - 1``, less ``C - 1``, of the vertices outside
      ``cover | mask``;
    - connected, reachability: a connected completion lies inside
      ``mask`` plus the suffix, so every member must be reachable from the
      lowest one through those vertices. One walk (``_components``) checks
      this and counts ``C``; the plain count above, which is ``C = 1``,
      runs first because it needs no walk;
    - defensive, per member: a member ``v`` short of its required
      inside-degree ``req[v]`` gains at most one per added vertex, and only
      from neighbours in the suffix. A deficit ``d`` is met only if ``v``'s
      ``d``-th largest neighbour, ``fill_by[v][d]``, is still available;
      ``_prune`` reads the rule that way and keeps the smallest such fill
      position of the node's deficient members. The children of an entered
      node stop there: an older member ``u`` with deficit ``d`` is left short
      by child ``w`` iff ``d > |N(u) & [w, n)|``, a count that only shrinks
      as ``w`` grows, so once one child past the fill position fails, every
      later sibling fails too. The skipped children count as prunes, as a
      tail rule's do; leaf children are still each tested, so that both
      counters keep their meaning;
    - defensive, total deficit: an added vertex ``w`` raises the
      inside-degree of at most ``deg w`` members, so ``need`` slots fill a
      total deficit of at most ``need`` times the largest suffix degree;
    - defensive and dominating, joint counting: in a completion ``mask | A``
      each unit of the members' total deficit needs an edge from ``A`` to a
      deficient member, and each vertex outside ``cover | mask`` is in ``A``
      or an outside neighbour of a vertex of ``A``. An added ``w`` with ``m``
      member neighbours keeps at least ``max(m, req[w])`` neighbours inside,
      so it meets at most ``c(w) = |N(w) & deficient| + [w undominated] +
      min(|N(w) & undominated|, deg w - max(m, req[w]))`` of both demands.
      The count form compares deficit plus undominated with ``need`` times
      the largest suffix ``|serve[w]|``, which bounds every ``c(w)``; the
      sum form with the sum of the ``need`` largest ``c(w)`` over the
      suffix.

    The defensive and joint rules run on a dominating problem only when some
    ``req[v] >= 2``, and on a non-dominating one (``a_k``) when some
    ``req[v] >= 1``. Below that they are implied: at ``req[v] <= 1`` a
    member's deficit is 1 exactly when it is unserved, which the served
    rules already decide.

    The same call is the leaf test: a complete set is a child with
    ``need = 0``, and it is feasible exactly when no rule fires. With no
    slots left every counting rule reads "demand > 0". The served count
    fires iff some vertex is unserved, which on a dominating problem
    decides domination, and the inside-neighbour demand too at max
    ``req <= 1``; ``defensive_member`` fires on any deficit; and on a
    connected problem, which is always dominating, ``connected_reach`` or
    ``connected_count`` (``0 > 1 - C``) fires iff ``G[mask]`` has more than
    one component. On a feasible set every deficit and the undominated count
    are 0, so no other rule fires; the sum form is skipped at ``need = 0``,
    where the count form already decides.
    """

    RULES = (
        "dominating_cover", "dominating_count", "connected_count", "connected_reach",
        "defensive_member", "defensive_total", "joint_count", "joint_sum",
    )

    def __init__(self, g: Graph, problem: tuple[bool, bool, tuple[int, ...]]):
        n = g.n
        self.n = n
        self.adj = adj = g.adjacency
        self.needs_dom, self.needs_conn, req = problem
        self.req = req
        most = max(req, default=0)
        self.needs_def = most >= 2 if self.needs_dom else most >= 1
        self.full = (1 << n) - 1
        self.serve = serve = [a | ((r == 0) << w) for w, (a, r) in enumerate(zip(adj, req))]
        deg = g.degrees
        suffix_all = [0] * (n + 1)
        suffix_serve = [0] * (n + 1)
        suffix_deg = [0] * (n + 1)  # largest degree among w >= pos
        serve_slots = [0] * (n + 1)  # largest |serve[w]| among w >= pos
        for w in range(n - 1, -1, -1):
            suffix_all[w] = suffix_all[w + 1] | (1 << w)
            suffix_serve[w] = suffix_serve[w + 1] | serve[w]
            suffix_deg[w] = max(suffix_deg[w + 1], deg[w])
            serve_slots[w] = max(serve_slots[w + 1], serve[w].bit_count())
        self.suffix_all = suffix_all
        self.suffix_serve = suffix_serve
        self.suffix_deg = suffix_deg
        self.serve_slots = serve_slots
        if self.needs_def and self.needs_dom:  # read by the joint sum form only
            self.joint_items = [(1 << w, adj[w], deg[w], req[w]) for w in range(n)]
        # fill_by[v][d]: the d-th largest neighbour of v, or -1 when v has
        # fewer than d; a deficit never exceeds req[v], so d stops there.
        self.fill_by = fill_by = []
        if self.needs_def:
            for a, r in zip(adj, req):
                row = [-1]
                for _ in range(r):
                    top = a.bit_length() - 1
                    row.append(top)
                    if a:
                        a ^= 1 << top
                fill_by.append(row)
        self.fill = n  # smallest fill position of the last node _prune passed

    def run(self, size: int) -> tuple[int | None, int, int]:
        """Lex-least feasible subset of the given size (as a bitmask) plus
        (subsets examined, prune events)."""
        counters = [0, 0]  # subsets examined, prune events
        hit = self._extend(0, 0, 0, self.n - size + 1, size, counters)
        return hit, counters[0], counters[1]

    def _extend(self, mask, cover, start, stop, need, counters):
        """Visit the children ``start <= v < stop`` of a node that still
        needs ``need`` vertices, in lex order; return the first hit."""
        serve = self.serve
        need -= 1
        child_stop = self.n - need + 1
        for v in range(start, stop):
            child = mask | (1 << v)
            child_cover = cover | serve[v]
            rule = self._prune(child, child_cover, v + 1, need)
            # A child fails the cover rule exactly when ``cover`` and the
            # ``serve`` of ``v..n-1`` miss a vertex, so every later sibling
            # fails it too.
            if rule == "dominating_cover":
                counters[1] += stop - v
                break
            if need == 0:
                counters[0] += 1
                if rule is None:
                    return child
            elif rule is not None:
                counters[1] += 1
            else:
                end = child_stop
                if need > 1 and self.fill < end:  # children past the fill position fail
                    end = self.fill + 1
                hit = self._extend(child, child_cover, v + 1, end, need, counters)
                if hit is not None:
                    return hit
                counters[1] += child_stop - end
        return None

    def _prune(self, mask, cover, pos, need) -> str | None:
        """Name of a rule proving that no ``need`` vertices from
        ``pos..n-1`` complete ``mask``, or None."""
        if self.needs_dom:
            full = self.full
            if (cover | self.suffix_serve[pos]) != full:
                return "dominating_cover"
            if (full ^ cover).bit_count() > need * self.serve_slots[pos]:
                return "dominating_count"
            short = full ^ (cover | mask)
            undominated = short.bit_count()
            if self.needs_conn and undominated > need * (self.suffix_deg[pos] - 1):
                return "connected_count"
        if self.needs_def:
            adj = self.adj
            req = self.req
            fill_by = self.fill_by
            fill = self.n
            total = 0
            deficient = 0
            m = mask
            while m:  # newest member first: it is the likeliest to fail
                v = m.bit_length() - 1
                b = 1 << v
                m ^= b
                deficit = req[v] - (adj[v] & mask).bit_count()
                if deficit > 0:
                    f = fill_by[v][deficit]
                    if deficit > need or f < pos:
                        return "defensive_member"
                    if f < fill:
                        fill = f
                    total += deficit
                    deficient |= b
            self.fill = fill
            if total > need * self.suffix_deg[pos]:
                return "defensive_total"
            if self.needs_dom:
                demand = total + undominated
                if demand > need * self.serve_slots[pos]:
                    return "joint_count"
                if need and demand > self._joint_capacity(mask, deficient, short, pos, need):
                    return "joint_sum"
        if self.needs_conn:
            components = self._components(mask, self.suffix_all[pos])
            if not components:
                return "connected_reach"
            if self.needs_dom and undominated > need * (self.suffix_deg[pos] - 1) - components + 1:
                return "connected_count"
        return None

    def _joint_capacity(self, mask, deficient, short, pos, need) -> int:
        """Sum of the ``need`` largest ``c(w)`` over ``w >= pos``: the most
        deficit plus domination that ``need`` added vertices can meet."""
        caps = []
        for b, a, d, r in self.joint_items[pos:]:
            t = (a & short).bit_count()
            if b & short:  # no member next to w: nothing inside, no deficit
                outside = d - r
                c = 1 + (t if t < outside else outside)
            else:
                inside = (a & mask).bit_count()
                outside = d - (inside if inside > r else r)
                c = (a & deficient).bit_count() + (t if t < outside else outside)
            caps.append(c)
        caps.sort()
        return sum(caps[-need:])

    def _components(self, mask: int, outside: int) -> int:
        """Number of components of ``G[mask]`` when every member is reachable
        from the lowest one through ``mask | outside``, else 0."""
        adj = self.adj
        reached = frontier = count = 0
        todo = mask & -mask  # reached members whose component is not closed
        while todo or frontier:
            grown = 0
            while todo:
                comp = step = todo & -todo
                while step:
                    near = 0
                    while step:
                        b = step & -step
                        step ^= b
                        near |= adj[b.bit_length() - 1]
                    grown |= near
                    step = near & mask & ~comp
                    comp |= step
                count += 1
                reached |= comp
                if mask & reached == mask:
                    return count
                todo &= ~comp
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grown |= adj[b.bit_length() - 1]
            frontier = grown & outside & ~reached
            reached |= frontier
            todo = grown & mask & ~reached
        return 0


_LAYOUT_STARTS = 4
# The layout DP runs only when its layout bounds the states of every step by
# this, which caps its memory. A cubic graph at k = 0 has at most 4 codes
# per frontier vertex, so layouts up to 10 wide pass: every seeded
# random_cubic tried up to n = 50. Dense graphs fail (the complete graph
# from n = 11 at k = 0), and there the lex engine scans from size 1.
_LAYOUT_MAX_STATES = 1 << 20


def _layout(g: Graph, req: tuple[int, ...]) -> tuple[list[int], int]:
    """A vertex order for the layout DP, and a bound on the states it keeps
    in any one step.

    The frontier after a step is the placed vertices with a neighbour not
    yet placed. A frontier vertex with ``p`` placed and ``l`` unplaced
    neighbours has at most ``1 + [p > 0]`` out codes and the in codes
    ``2 + c`` with ``max(0, req - l) <= c <= min(req, p)``, so a step keeps
    at most the product of those counts over its frontier. From each of a
    few fixed starts the order places next the vertex that grows the
    frontier least, then the one with the most placed neighbours, then the
    lowest; the order whose largest bound is smallest wins, then the one
    with the smallest summed bound, then the earlier start.
    """
    n = g.n
    adj = g.adjacency
    deg = g.degrees
    best = None
    for first in range(0, n, max(1, -(-n // _LAYOUT_STARTS))):
        left = list(deg)  # neighbours not yet placed, per vertex
        placed = frontier = ones = 0  # ones: frontier vertices with one left
        order = []
        peak = total = 0
        v = first
        while True:
            b = 1 << v
            placed |= b
            order.append(v)
            frontier |= b
            m = adj[v] | b
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if u != v:
                    left[u] -= 1
                if not left[u]:
                    frontier &= ~(1 << u)
                    ones &= ~(1 << u)
                elif left[u] == 1 and frontier >> u & 1:
                    ones |= 1 << u
            bound = 1
            m = frontier
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                p, r = deg[u] - left[u], req[u]
                bound *= 1 + (p > 0) + max(0, min(r, p) - max(0, r - left[u]) + 1)
            peak = max(peak, bound)
            total += bound
            if len(order) == n:
                break
            v = min(
                (((adj[w] & ~placed) != 0) - (adj[w] & ones).bit_count(),
                 -(adj[w] & placed).bit_count(), w)
                for w in range(n) if not placed >> w & 1
            )[2]
        if best is None or (peak, total) < best[0]:
            best = (peak, total), order
    return ([], 1) if best is None else (best[1], best[0][0])


def _codes_at(positions: list[int]):
    """A function from a frontier state to the tuple of its codes at
    ``positions``."""
    if len(positions) == 1:
        i = positions[0]
        return lambda state: (state[i],)
    return itemgetter(*positions) if positions else lambda state: ()


def _layout_value(g: Graph, posed: tuple[bool, bool, tuple[int, ...]]) -> int | None:
    """Lex-least optimum of a dominating, not connected problem, as a
    bitmask, or 0 when no feasible set exists, by dynamic programming over
    ``_layout``. When the layout cannot bound every step by
    ``_LAYOUT_MAX_STATES`` states, it runs nothing and returns None.

    It shares no code with ``_Search``. Each vertex of the frontier has a
    code: 0 out and undominated, 1 out and dominated, ``2 + c`` in with ``c``
    inside neighbours placed so far, clipped at ``req``. A member whose count
    plus its unplaced neighbours falls below ``req`` is dropped at once, and
    a vertex leaves the frontier once all its neighbours are placed, never
    while undominated or short of ``req``. Placing ``v`` in keeps ``c`` plus
    the unplaced count of each member neighbour, so only placing it out can
    strand one. What placing ``v`` does to a state depends only on the codes
    of ``v``'s placed neighbours, so each step tabulates it once per such
    code tuple.

    Each state keeps the least ``size << n | (full ^ rev)`` of the sets
    reaching it, ``rev`` having bit ``n - 1 - v`` for each member ``v``: the
    least size, then the largest ``rev``, the set holding the lowest vertex
    where two differ, which is the lex-least. Placing ``v`` in adds a fixed
    amount, so each state's best set extends a best set of the step before.
    """
    dominating, connected, req = posed
    if not dominating or connected:
        raise ValueError("the layout DP solves dominating, not connected problems only")
    order, most = _layout(g, req)
    if most > _LAYOUT_MAX_STATES:
        return None
    n = g.n
    full = (1 << n) - 1
    adj = g.adjacency
    left = list(g.degrees)  # neighbours not yet placed, per vertex
    frontier: list[int] = []
    states = {(): full}
    for v in order:
        step = (1 << n) - (1 << (n - 1 - v))  # placing v in: one more member, v's bit of rev
        near = [u for u in frontier if adj[v] >> u & 1]
        for u in near:
            left[u] -= 1
        left[v] -= len(near)
        r = req[v]
        stays = left[v] > 0
        kept = [j for j, u in enumerate(near) if left[u]]
        far = [i for i, u in enumerate(frontier) if left[u] and not adj[v] >> u & 1]
        far_codes = _codes_at(far)
        near_codes = _codes_at([i for i, u in enumerate(frontier) if adj[v] >> u & 1])
        moves: dict[tuple[int, ...], tuple] = {}  # near codes -> (tail out, tail in)
        placed: dict[tuple[int, ...], int] = {}
        for state, value in states.items():
            codes = near_codes(state)
            move = moves.get(codes)
            if move is None:
                inside = sum(c >= 2 for c in codes)
                # Out: no member neighbour may fall short for good, and no
                # undominated vertex may leave.
                fits = stays or inside
                for u, c in zip(near, codes):
                    if (c >= 2 and c - 2 + left[u] < req[u]) or (c == 0 and not left[u]):
                        fits = False
                tail_out = None
                if fits:
                    tail_out = tuple([codes[j] for j in kept])
                    if stays:
                        tail_out += (int(inside > 0),)
                have = min(inside, r)
                tail_in = None
                if have + left[v] >= r:
                    tail_in = tuple(
                        [1 if codes[j] < 2 else min(codes[j] + 1, 2 + req[near[j]]) for j in kept]
                    ) + ((2 + have,) if stays else ())
                move = moves[codes] = tail_out, tail_in
            head = far_codes(state)
            tail_out, tail_in = move
            if tail_out is not None:
                key = head + tail_out
                if placed.get(key, value + 1) > value:
                    placed[key] = value
            if tail_in is not None:
                key = head + tail_in
                grown = value + step
                if placed.get(key, grown + 1) > grown:
                    placed[key] = grown
        frontier = [frontier[i] for i in far] + [near[j] for j in kept] + ([v] if stays else [])
        states = placed
    rev = full ^ (states[()] & full) if () in states else 0  # bit n - 1 - v is v's
    return int(format(rev, f"0{n}b")[::-1], 2)


def _solve_from(
    g: Graph,
    parameter: str,
    k: int | None,
    posed: tuple[bool, bool, tuple[int, ...]],
    floor: int,
    candidates: tuple[int, ...] = (),
) -> SolveResult:
    """Lex-least optimum of ``posed`` among the sizes ``floor..n``, after a
    leaf test of each candidate bitmask of size ``floor``.

    ``solve`` passes floor 1 and no candidates. The corpus passes what a
    solved relaxation P' of the same graph gives: a problem whose every
    feasible set is P'-feasible (a lower ``req`` per vertex, or a demand
    dropped) has a value of at least P''s value s', so the search may start
    at s'. And when P''s lex-least witness W' passes this problem's leaf
    test, (s', W') is the exact value and lex-least witness: every feasible
    set of size s' is P'-feasible, so none comes before W' in the lex order
    in which both searches visit the sets of a size. A candidate that passes
    costs no node.
    """
    start = time.perf_counter()
    search = _Search(g, posed)
    for bits in candidates:
        cover = 0
        m = bits
        while m:
            b = m & -m
            m ^= b
            cover |= search.serve[b.bit_length() - 1]
        # The leaf test of ``_Search``; with no slot left its verdict does
        # not depend on ``pos``.
        if search._prune(bits, cover, g.n, 0) is None:
            return _result(g, parameter, k, bits, 0, 0, start)
    hit, subsets, prunes = None, 0, 0
    for size in range(floor, g.n + 1):
        hit, s, p = search.run(size)
        subsets += s
        prunes += p
        if hit is not None:
            break
    return _result(g, parameter, k, hit, subsets, prunes, start)


def _result(g, parameter, k, bits, subsets, prunes, start) -> SolveResult:
    """The result whose witness is the bitmask ``bits``, or ``none_exists``
    when ``bits`` is None or 0; its seconds run from ``start``."""
    stats = SearchStats(subsets, prunes, time.perf_counter() - start)
    if not bits:
        return SolveResult(parameter, k, STATUS_NONE, None, None, stats)
    return SolveResult(parameter, k, STATUS_FOUND, bits.bit_count(), VertexSet(g, bits), stats)


def solve(
    g: Graph,
    parameter: str,
    k: int | None = None,
    *,
    max_n: int | None = None,
) -> SolveResult:
    """Exact optimum for one parameter; ``none_exists`` is a result, not an
    error.

    The result depends only on the graph and ``problem(g, parameter, k)``,
    and one engine gives it. A dominating, not connected problem with some
    ``req[v] >= 2`` (gamma_k_a once k is high enough) goes to the layout DP,
    and no lex search is built; ``tests/test_layout_dp.py`` compares its
    answers with the lex engine from size 1 and with the oracle. Every other
    problem, and one whose layout is too wide for the DP, goes to the lex
    engine from size 1. The bound catalogue is checked against the result
    (``corpus``), never used by it.
    """
    posed = problem(g, parameter, k)
    cap = _resolve_cap(max_n)
    if g.n > cap:
        raise ResourceLimitError(
            f"order {g.n} exceeds the search cap {cap}; raise {MAX_N_ENV_VAR} "
            "or pass max_n to override"
        )
    dominating, connected, req = posed
    if dominating and not connected and max(req, default=0) >= 2:
        start = time.perf_counter()
        bits = _layout_value(g, posed)
        if bits is not None:
            return _result(g, parameter, k, bits, 0, 0, start)
    return _solve_from(g, parameter, k, posed, 1)


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------

def brute_force_oracle(g: Graph, parameter: str, k: int | None = None) -> SolveResult:
    """Unpruned cardinality-then-lex enumeration of all nonempty subsets."""
    row = _validate_parameter(parameter, k)
    if g.n > ORACLE_MAX_N:
        raise ResourceLimitError(f"oracle is capped at n <= {ORACLE_MAX_N}")
    start = time.perf_counter()
    k_eff = k if k is not None else 0
    demands = row.demands
    examined = 0
    singletons = [1 << v for v in range(g.n)]
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(singletons, size):
            examined += 1
            mask = sum(combo)
            if meets(g, mask, k_eff, demands):
                return SolveResult(
                    parameter, k, STATUS_FOUND, size, VertexSet(g, mask),
                    SearchStats(examined, 0, time.perf_counter() - start),
                )
    stats = SearchStats(examined, 0, time.perf_counter() - start)
    return SolveResult(parameter, k, STATUS_NONE, None, None, stats)

