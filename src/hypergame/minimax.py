"""Exhaustive game values for small graphs.

moves_to_mark answers: from this position, how many moves does the tester
need to force the next marking, against the worst system? Computed directly
from the game rules by bounded-horizon search, with no reference to ranks,
so it can serve as an optimality check for the min-rank strategy.

A finite value never exceeds the number of marked states (optimal play
strictly shrinks the value each move, and non-marking moves stay on marked
states), so the horizon is safe at |marked| + 1.
"""

from __future__ import annotations

import functools

from .model import ModelDecl
from .ranks import UNREACHABLE

MAX_SOLVE_VERTICES = 8


class TooLargeError(Exception):
    pass


def _moves_to_mark(decl, marked, current, horizon, edges_at) -> float:
    """Fewest moves, up to `horizon`, in which the tester forces a marking
    from `current` against every system, playing at each marked u only the
    edges `edges_at(u)`; UNREACHABLE when it cannot within the horizon.
    Raises TooLargeError on a declaration of over MAX_SOLVE_VERTICES
    vertices, whose search would be too deep."""
    if len(decl.vertices) > MAX_SOLVE_VERTICES:
        raise TooLargeError(
            f"exhaustive solver capped at {MAX_SOLVE_VERTICES} vertices")
    # Each call recurses on k - 1 only, so the search is a DAG and caching
    # it is exact.
    @functools.cache
    def within(u, k):
        # Can the tester force a marking within <= k moves from u?
        return k > 0 and any(all(t not in marked or within(t, k - 1) for t in e.tail)
                             for e in edges_at(u))

    for k in range(1, horizon + 1):
        if within(current, k):
            return k
    return UNREACHABLE


def minimax_moves_to_mark(decl: ModelDecl, marked, current) -> float:
    """Exact game value: min over tester strategies of the max over system
    strategies of moves until the next marking; UNREACHABLE if the system
    can avoid marking forever."""
    marked = frozenset(marked)
    by_head = decl.by_head
    return _moves_to_mark(decl, marked, current, len(marked) + 1,
                          lambda u: by_head.get(u, ()) if u in marked else ())


def strategy_moves_to_mark(decl: ModelDecl, marked, current, choose) -> float:
    """Worst case over system strategies when the tester is pinned to
    `choose(position) -> edge`; same horizon logic as the minimax value."""
    by_id = decl.edge_map()

    def chosen(u):
        eid = choose(u)
        return () if eid is None else (by_id[eid],)  # None: the tester is stuck

    return _moves_to_mark(decl, frozenset(marked), current, len(decl.vertices) + 1,
                          chosen)
