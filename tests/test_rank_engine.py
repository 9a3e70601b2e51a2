"""The lazy engine against the naive oracle, on both backends."""

import random

import pytest

from hypergame.adversaries import Avoider, RandomFair
from hypergame.engine import format_stats, format_trace, run_session
from hypergame.providers import DeclProvider, gen_random_bounded_degree
from hypergame.ranks import RankTable, UNREACHABLE, get_engine_class
from hypergame.ranks.pure import PureRankEngine
from hypergame.ranks.oracle import oracle_ranks

from conftest import (edges_by_head, lost_base_decl, random_decl, require_compiled,
                      snapshot_ranks)


def make_table(decl, backend, lazy=False):
    by_head = edges_by_head(decl)
    known = () if lazy else sorted(decl.vertices)
    return RankTable(decl.initial, by_head.get(decl.initial, []),
                     known_vertices=known, backend=backend), by_head


class TestBatch:
    def test_g1_full_matches_oracle(self, g1, backend):
        t, _ = make_table(g1, backend)
        vr, er = oracle_ranks(g1.vertices, g1.edges, {"s0"}, include_dead=False)
        for v in g1.vertices:
            assert t.ensure_settled(v) == vr[v]
        _, edges = snapshot_ranks(t)
        assert edges["a"] == (er["a"], True)

    def test_g1_threshold_one(self, g1, backend):
        # A fresh table has drained nothing: s0 waits in the queue at its
        # stored value 1, so only values up to 1 are certified.
        t, _ = make_table(g1, backend)
        vertices, _ = snapshot_ranks(t)
        assert vertices["s1"] == vertices["s2"] == (1, True)
        rank, exact = vertices["s0"]
        assert not exact and rank <= 2  # a lower bound of its true rank 2
        assert t.ensure_settled("s0") == 2
        vertices, edges = snapshot_ranks(t)
        assert all(exact for _, exact in vertices.values())
        assert edges["a"] == (1, True)

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

    def test_rejected_marking_adds_no_vertex(self, g1, backend):
        # Edge a1 is valid and names a new vertex, edge c has the wrong
        # head: the lazy table learns nothing from the rejected call.
        from hypergame.model import Edge
        t, by_head = make_table(g1, backend, lazy=True)
        before = (list(t.vid), t.eng.unmarked, t.eng.live_size)
        with pytest.raises(ValueError, match="head"):
            t.apply_marking("s1", [Edge("a1", "s1", ("n1",))] + by_head["s2"])
        assert (list(t.vid), t.eng.unmarked, t.eng.live_size) == before
        t.apply_marking("s1", by_head["s1"])
        assert t.ensure_settled("s1") == UNREACHABLE

    def test_eager_table_only_looks_up_tails(self, g1, backend):
        # An eager table knows every vertex: a tail outside them is an
        # error, not a new vertex, and the rejected call changes nothing.
        from hypergame.model import Edge
        t, by_head = make_table(g1, backend)
        before = (list(t.vid), t.eng.unmarked, t.eng.live_size)
        with pytest.raises(KeyError, match="n1"):
            t.apply_marking("s1", [Edge("a1", "s1", ("n1",))])
        assert (list(t.vid), t.eng.unmarked, t.eng.live_size) == before
        t.apply_marking("s1", by_head["s1"])
        assert t.ensure_settled("s1") == UNREACHABLE

    def test_pure_rank_decrease_is_checked(self):
        # A stored rank above its recomputed value breaks the engine's
        # invariant; the pure core raises as the compiled core does, also
        # under `python -O`.
        eng = PureRankEngine()
        h, t = eng.add_vertex(), eng.add_vertex()
        eng.set_initial(h, [(t,)])
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
    live edge, stored values must never exceed oracle values, values the
    snapshot shows as exact must equal them, and exact ranks must never
    decrease. Returns the table."""
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
        # lower-bound property before settling; exact values are the oracle's
        vertices, edges = snapshot_ranks(t)
        for v in decl.vertices:
            rank, exact = vertices[v]
            assert rank == vr[v] if exact else rank <= vr[v], (v, rank, vr[v])
        for e, (rank, exact) in edges.items():
            assert rank == er[e] if exact else rank <= er[e], (e, rank, er[e])
        if ensure_each_step:
            for v in decl.vertices:
                got = t.ensure_settled(v)
                assert got == vr[v], (v, got, vr[v], marked)
                prev = last_exact.get(v)
                if prev is not None:
                    assert got >= prev  # monotone across markings
                last_exact[v] = got
            _, edges = snapshot_ranks(t)
            for e in decl.edges:
                if e.head in marked:
                    assert edges[e.id] == (er[e.id], True)
            # The tester's query: the lowest-id edge of least rank at v.
            for v in marked:
                least = min(((er[e.id], e.id) for e in by_head.get(v, [])),
                            default=(UNREACHABLE, None))
                assert t.min_rank_edge(v) == least[::-1], (v, least)
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

    def blank():
        eng = cls()
        for _ in range(2):
            eng.add_vertex()
        return eng  # 2 vertices, none marked

    def fresh():
        eng = blank()
        eng.set_initial(0, [(1,)])
        return eng  # 2 vertices, 1 edge

    for bad_v, bad_e in ((2, 1), (-1, -1)):
        calls = [
            lambda e: e.ensure(bad_v),
            lambda e: e.mark(bad_v, [()]), lambda e: e.mark(1, [(0, bad_v)]),
            lambda e: e.edge_value(bad_e),
        ]
        for call in calls:
            with pytest.raises(IndexError):
                call(fresh())
        for call in (lambda e: e.set_initial(bad_v, []),
                     lambda e: e.set_initial(0, [(1,), (bad_v,)])):
            with pytest.raises(IndexError):
                call(blank())

    def state(e):
        return (e.ensure(0), e.ensure(1), e.edge_value(0), e.markings,
                e.live_size, e.queue_ops, e.relaxations, e.snapshot())

    # A call rejected for a bad tail index changes nothing: the engine then
    # takes the same call as one that never saw the bad one.
    eng = blank()
    with pytest.raises(IndexError):
        eng.set_initial(0, [(1,), (2,)])
    assert eng.set_initial(0, [(1,)]) is None
    assert state(eng) == state(fresh())
    eng, ref = fresh(), fresh()
    with pytest.raises(IndexError):
        eng.mark(1, [(0, 2)])
    assert eng.mark(1, [(0,)]) is ref.mark(1, [(0,)]) is None
    assert state(eng) == state(ref)
    eng = fresh()
    eng.mark(1, [])
    for marked in (0, 1):
        with pytest.raises(ValueError, match="already marked"):
            eng.mark(marked, [])
        with pytest.raises(ValueError, match="already marked"):
            eng.set_initial(marked, [])


ENGINE_API = {"add_vertex", "set_initial", "mark", "ensure", "edge_value", "snapshot"}
ENGINE_COUNTERS = {"unmarked", "relaxations", "queue_ops", "live_size",
                   "markings", "max_rank", "flushes"}


def test_engine_api_is_the_session_api(request):
    # Both backends expose exactly the methods sessions use plus snapshot(),
    # and the same read-only counters.
    require_compiled(request.config)
    for cls in (PureRankEngine, get_engine_class("compiled")):
        public = {name for name in dir(cls) if not name.startswith("_")}
        assert {name for name in public if callable(getattr(cls, name))} == ENGINE_API
        eng = cls()
        assert all(type(getattr(eng, name)) is int for name in ENGINE_COUNTERS)


def test_snapshot_copies_and_counts_nothing(backend):
    cls = get_engine_class(backend)
    eng = cls()
    h, t = eng.add_vertex(), eng.add_vertex()
    eng.set_initial(h, [(t,), (h, t)])
    # Set-up counts no work and no marking.
    assert (eng.relaxations, eng.queue_ops, eng.flushes, eng.markings) == (0, 0, 0, 0)
    counters = [getattr(eng, name) for name in sorted(ENGINE_COUNTERS)]
    snap = eng.snapshot()
    assert snap == {"vstored": [1, 1], "vdirty": [True, False],
                    "vmarked": [True, False], "estored": [1, 1]}
    snap["vstored"][0] = 9  # a copy: the engine does not see it
    assert eng.snapshot()["vstored"] == [1, 1]
    assert [getattr(eng, name) for name in sorted(ENGINE_COUNTERS)] == counters
    assert eng.ensure(h) == 2
