import random

import pytest

from hypergame.engine import GameState
from hypergame.minimax import (TooLargeError, minimax_moves_to_mark,
                               strategy_moves_to_mark)
from hypergame.model import Edge, ModelDecl
from hypergame.providers import gen_chain
from hypergame.ranks import UNREACHABLE

from conftest import oracle_ranks, random_decl


def test_g1_start_value_one(g1):
    assert minimax_moves_to_mark(g1, {"s0"}, "s0") == 1


def test_g1_after_s1_unbounded(g1):
    assert minimax_moves_to_mark(g1, {"s0", "s1"}, "s1") == UNREACHABLE


def test_g2_start_value_one(g2):
    assert minimax_moves_to_mark(g2, {"s0"}, "s0") == 1


def test_g3_unbounded_at_start(g3):
    assert minimax_moves_to_mark(g3, {"s0"}, "s0") == UNREACHABLE


def test_size_guard():
    vs = tuple(f"v{i}" for i in range(9))
    decl = ModelDecl(initial="v0", vertices=vs,
                     edges=(Edge("e", "v0", ("v1",)),))
    with pytest.raises(TooLargeError):
        minimax_moves_to_mark(decl, {"v0"}, "v0")


@pytest.mark.parametrize("length", [9, 200])
def test_strategy_size_guard(length):
    # The cap is the minimax one; without it a 200-state chain overflows
    # the recursion of the search.
    decl = gen_chain(length)
    marked = set(decl.vertices[:-1])
    with pytest.raises(TooLargeError):
        strategy_moves_to_mark(decl, marked, decl.initial,
                               {e.head: e.id for e in decl.edges}.get)


def test_strategy_value_follows_the_chooser():
    # From s0, c marks s2 at once; a goes through marked s1 first. The
    # pinned tester gets what its chooser plays, not the minimax value.
    decl = ModelDecl(initial="s0", vertices=("s0", "s1", "s2"),
                     edges=(Edge("a", "s0", ("s1",)), Edge("b", "s1", ("s2",)),
                            Edge("c", "s0", ("s2",))))
    marked = {"s0", "s1"}
    assert minimax_moves_to_mark(decl, marked, "s0") == 1
    assert strategy_moves_to_mark(decl, marked, "s0", {"s0": "c"}.get) == 1
    assert strategy_moves_to_mark(decl, marked, "s0", {"s0": "a", "s1": "b"}.get) == 2
    # No edge chosen at s1: the tester is stuck there.
    assert strategy_moves_to_mark(decl, marked, "s0", {"s0": "a"}.get) == UNREACHABLE


def min_rank_chooser(decl, marked):
    """tester_choose recomputed from exact oracle ranks for a fixed position."""
    vr, er = oracle_ranks(decl.vertices, decl.edges, marked, include_dead=False)

    def choose(u):
        best_id, best = None, UNREACHABLE
        for e in sorted(decl.edges, key=lambda e: e.id):
            if e.head == u and e.head in marked and er[e.id] < best:
                best, best_id = er[e.id], e.id
        return best_id

    return choose, vr


def reachable_positions(decl, start_marked, current, limit=4000):
    """All (current, marked) positions reachable when the tester plays the
    min-rank strategy and the system answers arbitrarily."""
    seen = set()
    work = [(current, frozenset(start_marked))]
    while work and len(seen) < limit:
        cur, marked = work.pop()
        if (cur, marked) in seen:
            continue
        seen.add((cur, marked))
        choose, vr = min_rank_chooser(decl, marked)
        if vr[cur] == UNREACHABLE:
            continue
        eid = choose(cur)
        e = decl.by_id[eid]
        for t in e.tail:
            work.append((t, marked | {t}))
    return seen


def assert_strategy_optimal(decl):
    for cur, marked in reachable_positions(decl, {decl.initial}, decl.initial):
        choose, vr = min_rank_chooser(decl, marked)
        value = minimax_moves_to_mark(decl, marked, cur)
        attained = strategy_moves_to_mark(decl, marked, cur, choose)
        assert attained == value, (decl, marked, cur, attained, value)
        if value != UNREACHABLE:
            assert value == vr[cur] - 1  # the rank is exactly the game value + 1


def test_strategy_matches_minimax_on_fixtures(g1, g2, g3):
    for decl in (g1, g2, g3):
        assert_strategy_optimal(decl)


def test_strategy_matches_minimax_random_small():
    rng = random.Random(17)
    for _ in range(60):
        decl = random_decl(rng, max_vertices=5, max_edges=8)
        assert_strategy_optimal(decl)


def assert_session_starts_optimal(decl, backend):
    """At the start, the session's own tester picks min_rank_chooser's edge,
    or stops where the game value is unbounded; `hypergame solve` relies on
    this."""
    marked = {decl.initial}
    gs = GameState(decl, backend=backend)
    if minimax_moves_to_mark(decl, marked, decl.initial) == UNREACHABLE:
        assert gs.is_terminal()
    else:
        choose, _ = min_rank_chooser(decl, marked)
        assert gs.tester_choose() == choose(decl.initial)


def test_session_start_on_fixtures(g1, g2, g3, backend):
    for decl in (g1, g2, g3):
        assert_session_starts_optimal(decl, backend)


def test_session_start_random_small(backend):
    rng = random.Random(17)
    for _ in range(60):
        decl = random_decl(rng, max_vertices=5, max_edges=8)
        assert_session_starts_optimal(decl, backend)
