import random

from hypergame.ranks import UNREACHABLE

from conftest import oracle_for_decl, oracle_ranks, random_decl


def test_g1_start(g1):
    vr, er = oracle_for_decl(g1)
    assert vr == {"s0": 2, "s1": 1, "s2": 1}
    assert er == {"a": 1, "b": 2, "c": 2}


def test_g1_after_marking_s1(g1):
    vr, er = oracle_for_decl(g1, marked={"s0", "s1"})
    assert vr["s2"] == 1
    assert vr["s0"] == vr["s1"] == UNREACHABLE
    assert er["a"] == er["b"] == UNREACHABLE


def test_g3_minimal_solution_excludes_the_loop(g3):
    vr, er = oracle_for_decl(g3)
    assert vr == {"s0": UNREACHABLE, "s1": 1}
    assert er["f"] == UNREACHABLE


def test_g2_chain(g2):
    vr, er = oracle_for_decl(g2)
    assert vr == {"s0": 2, "s1": 1, "s2": 1}
    assert er == {"e1": 1, "e2": 1}
    vr, er = oracle_for_decl(g2, marked={"s0", "s1"})
    assert (vr["s1"], vr["s0"]) == (2, 3)


def test_no_base_case_means_all_unreachable(g2):
    # every vertex marked: no marker edges remain, nothing is reachable
    vr, er = oracle_for_decl(g2, marked={"s0", "s1", "s2"})
    assert all(r == UNREACHABLE for r in vr.values())
    assert all(r == UNREACHABLE for r in er.values())


def test_dead_edge_neutrality_random():
    # dead edges never change vertex ranks while their heads are unmarked
    rng = random.Random(3)
    for _ in range(60):
        decl = random_decl(rng)
        marked = {decl.initial}
        extra = [v for v in decl.vertices if v != decl.initial]
        rng.shuffle(extra)
        marked.update(extra[: rng.randint(0, len(extra))])
        with_dead, _ = oracle_ranks(decl.vertices, decl.edges, marked, include_dead=True)
        without, _ = oracle_ranks(decl.vertices, decl.edges, marked, include_dead=False)
        assert with_dead == without


def test_unmarked_vertices_pin_rank_one():
    rng = random.Random(4)
    for _ in range(40):
        decl = random_decl(rng)
        vr, _ = oracle_for_decl(decl)
        for v in decl.vertices:
            if v != decl.initial:
                assert vr[v] == 1
