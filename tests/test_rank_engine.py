"""The lazy engine against the naive oracle, on both backends."""

import random

import pytest

from hypergame.adversaries import Avoider, RandomFair
from hypergame.engine import format_stats, format_trace, run_session
from hypergame.providers import DeclProvider, gen_random_bounded_degree
from hypergame.ranks import RankTable, UNREACHABLE, compute_ranks, get_engine_class
from hypergame.ranks.pure import PureRankEngine
from hypergame.ranks.oracle import oracle_ranks

from conftest import edges_by_head, lost_base_decl, random_decl, require_compiled


def make_table(decl, backend, lazy=False):
    by_head = edges_by_head(decl)
    known = () if lazy else sorted(decl.vertices)
    return RankTable(decl.initial, by_head.get(decl.initial, []),
                     known_vertices=known, backend=backend), by_head


class TestBatch:
    def test_g1_full_matches_oracle(self, g1, backend):
        t = compute_ranks(g1, backend=backend)
        vr, er = oracle_ranks(g1.vertices, g1.edges, {"s0"}, include_dead=False)
        for v in g1.vertices:
            assert t.vertex_rank(v) == vr[v]
        assert t.edge_rank("a") == er["a"]

    def test_g1_threshold_one(self, g1, backend):
        t = compute_ranks(g1, threshold=1, backend=backend)
        assert t.vertex_rank("s1") == 1 and t.vertex_settled("s1")
        assert t.vertex_rank("s2") == 1 and t.vertex_settled("s2")
        assert not t.vertex_settled("s0")  # true rank 2 beyond the threshold
        assert t.settled_frontier() == 1
        assert t.vertex_rank("s0") <= 2  # lower bound

    def test_no_base_case(self, backend):
        from hypergame.model import Edge, ModelDecl
        decl = ModelDecl(initial="s0", vertices=("s0", "s1"),
                         edges=(Edge("a", "s0", ("s1",)), Edge("b", "s1", ("s0",))))
        t, by_head = make_table(decl, backend)
        t.apply_marking("s1", by_head["s1"])
        # every vertex marked: nothing reachable
        for v in decl.vertices:
            assert t.ensure_settled(v) == UNREACHABLE


class TestEnsureSettled:
    def test_g1_initial(self, g1, backend):
        t, _ = make_table(g1, backend)
        assert t.ensure_settled("s0") == 2

    def test_g1_after_marking_s1(self, g1, backend):
        t, by_head = make_table(g1, backend)
        t.apply_marking("s1", by_head["s1"])
        assert t.ensure_settled("s1") == UNREACHABLE
        assert t.ensure_settled("s2") == 1

    def test_g2_marking_promotes_dead_edges(self, g2, backend):
        t, by_head = make_table(g2, backend)
        t.apply_marking("s1", by_head["s1"])
        assert t.ensure_settled("s1") == 2  # via e2 whose tail s2 has rank 1

    def test_repeat_call_is_free(self, g1, backend):
        t, _ = make_table(g1, backend)
        assert t.ensure_settled("s0") == 2
        before = t.snapshot_work().relaxations
        assert t.ensure_settled("s0") == 2
        assert t.snapshot_work().relaxations == before

    def test_marking_sink_gives_unreachable(self, g2, backend):
        t, by_head = make_table(g2, backend)
        t.apply_marking("s1", by_head["s1"])
        t.apply_marking("s2", [])  # sink: no edges of its own
        assert t.ensure_settled("s2") == UNREACHABLE


class TestMarkingErrors:
    def test_already_marked(self, g1, backend):
        t, by_head = make_table(g1, backend)
        t.apply_marking("s1", by_head["s1"])
        with pytest.raises(ValueError, match="already marked"):
            t.apply_marking("s1", [])

    def test_initial_cannot_be_marked(self, g1, backend):
        t, _ = make_table(g1, backend)
        with pytest.raises(ValueError, match="already marked"):
            t.apply_marking("s0", [])

    def test_wrong_head_rejected(self, g1, backend):
        t, by_head = make_table(g1, backend)
        with pytest.raises(ValueError, match="head"):
            t.apply_marking("s1", by_head["s2"])

    def test_pure_rank_decrease_is_checked(self):
        # A stored rank above its recomputed value breaks the engine's
        # invariant; the pure core raises as the compiled core does, also
        # under `python -O`.
        eng = PureRankEngine()
        h, t = eng.add_vertex(), eng.add_vertex()
        eng.set_initial(h)
        eng.add_initial_edges(h, [(t,)])
        assert eng.ensure(h) == 2
        eng.vstored[h] = 5
        eng.vdirty[h] = True
        eng.heap.append((5, h))
        with pytest.raises(AssertionError, match="nondecreasing"):
            eng.ensure(h)


class TestWorkStats:
    def test_fresh_table_counters(self, g1, backend):
        t, _ = make_table(g1, backend)
        w = t.snapshot_work()
        assert w.relaxations == 0 and w.queue_ops == 0 and w.markings_E == 0
        # marker edges (2 unmarked vertices) + edge a (head + 2 tails)
        assert w.live_size_H_prime == 2 + 3

    def test_g2_session_counts_two_markings(self, g2, backend):
        t, by_head = make_table(g2, backend)
        t.apply_marking("s1", by_head["s1"])
        t.apply_marking("s2", [])
        assert t.snapshot_work().markings_E == 2

    def test_counters_nondecreasing(self, g1, backend):
        t, by_head = make_table(g1, backend)
        seen = [t.snapshot_work()]
        t.ensure_settled("s0")
        seen.append(t.snapshot_work())
        t.apply_marking("s2", by_head["s2"])
        t.ensure_settled("s2")
        seen.append(t.snapshot_work())
        for a, b in zip(seen, seen[1:]):
            assert b.relaxations >= a.relaxations
            assert b.queue_ops >= a.queue_ops
            assert b.live_size_H_prime >= a.live_size_H_prime
            assert b.markings_E >= a.markings_E


def drive_and_check(decl, backend, rng, ensure_each_step=True, order=None):
    """Mark in random order, or in `order` when given; after every marking
    the settled table must agree with the oracle on every vertex and every
    live edge, stored values must never exceed oracle values, and exact
    ranks must never decrease. Returns the table."""
    t, by_head = make_table(decl, backend)
    marked = {decl.initial}
    last_exact = {}
    if order is None:
        order = [v for v in decl.vertices if v != decl.initial]
        rng.shuffle(order)
    else:
        order = order[::-1]  # popped from the end
    while True:
        vr, er = oracle_ranks(decl.vertices, decl.edges, marked, include_dead=False)
        # lower-bound property before settling
        for v in decl.vertices:
            assert t.vertex_rank(v) <= vr[v]
        if ensure_each_step:
            for v in decl.vertices:
                got = t.ensure_settled(v)
                assert got == vr[v], (v, got, vr[v], marked)
                prev = last_exact.get(v)
                if prev is not None:
                    assert got >= prev  # monotone across markings
                last_exact[v] = got
            for e in decl.edges:
                if e.head in marked:
                    assert t.edge_settled(e.id)
                    assert t.edge_rank(e.id) == er[e.id]
        if not order:
            return t
        v = order.pop()
        t.apply_marking(v, by_head.get(v, []))
        marked.add(v)


def test_oracle_equivalence_random(backend):
    rng = random.Random(11)
    for _ in range(120):
        decl = random_decl(rng)
        drive_and_check(decl, backend, rng)


def test_unreachable_flush_matches_oracle(backend):
    # The lost-base family overruns the default work budget, so the engine
    # takes the unreachable-flush path; ranks must still match the oracle
    # after every marking.
    rng = random.Random(31)
    for _ in range(10):
        decl, order = lost_base_decl(rng)
        t = drive_and_check(decl, backend, rng, order=order)
        assert t.snapshot_work().flushes >= 1


def test_backends_agree_exactly(request):
    require_compiled(request.config)
    rng = random.Random(23)
    cases = [(random_decl(rng), None) for _ in range(40)]
    cases += [lost_base_decl(rng) for _ in range(5)]
    for decl, order in cases:
        if order is None:
            order = [v for v in decl.vertices if v != decl.initial]
            rng.shuffle(order)
        results = []
        for backend in ("pure", "compiled"):
            t, by_head = make_table(decl, backend)
            trace = []
            for v in order:
                t.apply_marking(v, by_head.get(v, []))
                trace.append(tuple(t.ensure_settled(u) for u in decl.vertices))
            results.append((trace, t.snapshot_work()))
        assert results[0] == results[1]
    assert results[0][1].flushes >= 1  # the last case is a lost-base model

    # Whole sessions: traces and stats byte for byte, and every counter.
    models = [random_decl(rng) for _ in range(60)]
    models += [gen_random_bounded_degree(1024, 3, 2, seed) for seed in (1, 2)]
    for decl in models:
        for lazy in (False, True):
            for adversary in (lambda: RandomFair(7), Avoider):
                runs = []
                for backend in ("pure", "compiled"):
                    source = DeclProvider(decl) if lazy else decl
                    transcript, stats = run_session(source, adversary(), seed=3,
                                                    backend=backend)
                    runs.append((format_trace(transcript), format_stats(stats), stats.work))
                assert runs[0] == runs[1]


def test_index_out_of_range(backend):
    # Every method that takes a vertex or edge index rejects one past the
    # end, and a negative one, with IndexError on both backends, tail
    # indices included.
    cls = get_engine_class(backend)

    def fresh():
        eng = cls()
        h, t = eng.add_vertex(), eng.add_vertex()
        eng.set_initial(h)
        eng.add_initial_edges(h, [(t,)])
        return eng  # 2 vertices, 1 edge

    for bad_v, bad_e in ((2, 1), (-1, -1)):
        calls = [
            lambda e: e.ensure(bad_v), lambda e: e.vertex_value(bad_v),
            lambda e: e.vertex_exact(bad_v), lambda e: e.set_initial(bad_v),
            lambda e: e.mark(bad_v, [()]), lambda e: e.mark(1, [(0, bad_v)]),
            lambda e: e.add_initial_edges(bad_v, [()]),
            lambda e: e.add_initial_edges(0, [(bad_v,)]),
            lambda e: e.edge_value(bad_e), lambda e: e.edge_exact(bad_e),
        ]
        for call in calls:
            with pytest.raises(IndexError):
                call(fresh())
    # A marking rejected for a bad tail index changes nothing: the engine
    # then takes the same marking as one that never saw the bad call.
    eng, ref = fresh(), fresh()
    with pytest.raises(IndexError):
        eng.mark(1, [(0, 2)])
    assert eng.mark(1, [(0,)]) == ref.mark(1, [(0,)]) == [1]

    def state(e):
        return (e.ensure(0), e.ensure(1), e.edge_value(1), e.markings,
                e.live_size, e.queue_ops, e.relaxations)

    assert state(eng) == state(ref)
    eng = fresh()
    eng.mark(1, [])
    for marked in (0, 1):
        with pytest.raises(ValueError, match="already marked"):
            eng.mark(marked, [])
        with pytest.raises(ValueError, match="already marked"):
            eng.set_initial(marked)
