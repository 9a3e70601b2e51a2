"""The lazy engine against the naive oracle, on both backends."""

import heapq
import random

import pytest

import hypergame.engine
import hypergame.ranks
import hypergame.ranks.pure as pure
from hypergame.adversaries import Avoider, RandomFair
from hypergame.engine import GameState, format_stats, format_trace, run_session
from hypergame.model import Edge, ModelDecl
from hypergame.providers import DeclProvider, gen_random_bounded_degree
from hypergame.ranks import RankTable, UNREACHABLE, WorkStats, get_engine_class
from hypergame.ranks.pure import UNREACH_INT, PureRankEngine

from conftest import (lost_base_decl, oracle_ranks, random_decl, require_compiled,
                     snapshot_ranks)


def make_table(decl, backend, lazy=False):
    return RankTable(DeclProvider(decl) if lazy else decl, backend=backend)


class TestBatch:
    def test_g1_full_matches_oracle(self, g1, backend):
        t = make_table(g1, backend)
        vr, er = oracle_ranks(g1.vertices, g1.edges, {"s0"}, include_dead=False)
        for v in g1.vertices:
            assert t.ensure_settled(v)[0] == vr[v]
        _, edges = snapshot_ranks(t)
        assert edges["a"] == (er["a"], True)

    def test_g1_threshold_one(self, g1, backend):
        # A fresh table has drained nothing: s0 waits in the queue at its
        # stored value 1, so only values up to 1 are certified.
        t = make_table(g1, backend)
        vertices, _ = snapshot_ranks(t)
        assert vertices["s1"] == vertices["s2"] == (1, True)
        rank, exact = vertices["s0"]
        assert not exact and rank <= 2  # a lower bound of its true rank 2
        assert t.ensure_settled("s0")[0] == 2
        vertices, edges = snapshot_ranks(t)
        assert all(exact for _, exact in vertices.values())
        assert edges["a"] == (1, True)

    def test_no_base_case(self, backend):
        decl = ModelDecl(initial="s0", vertices=("s0", "s1"),
                         edges=(Edge("a", "s0", ("s1",)), Edge("b", "s1", ("s0",))))
        t = make_table(decl, backend)
        t.apply_marking("s1")
        # every vertex marked: nothing reachable
        for v in decl.vertices:
            assert t.ensure_settled(v)[0] == UNREACHABLE


class TestEnsureSettled:
    def test_g1_initial(self, g1, backend):
        t = make_table(g1, backend)
        assert t.ensure_settled("s0")[0] == 2

    def test_g1_after_marking_s1(self, g1, backend):
        t = make_table(g1, backend)
        t.apply_marking("s1")
        assert t.ensure_settled("s1")[0] == UNREACHABLE
        assert t.ensure_settled("s2")[0] == 1

    def test_g2_marking_promotes_dead_edges(self, g2, backend):
        t = make_table(g2, backend)
        t.apply_marking("s1")
        assert t.ensure_settled("s1")[0] == 2  # via e2 whose tail s2 has rank 1

    def test_repeat_call_is_free(self, g1, backend):
        t = make_table(g1, backend)
        assert t.ensure_settled("s0")[0] == 2
        before = WorkStats.of(t.eng).relaxations
        assert t.ensure_settled("s0")[0] == 2
        assert WorkStats.of(t.eng).relaxations == before

    def test_marking_sink_gives_unreachable(self, g2, backend):
        t = make_table(g2, backend)
        t.apply_marking("s1")
        t.apply_marking("s2")  # sink: no edges of its own
        assert t.ensure_settled("s2")[0] == UNREACHABLE


class TestMarkingErrors:
    def test_already_marked(self, g1, backend):
        t = make_table(g1, backend)
        t.apply_marking("s1")
        with pytest.raises(ValueError, match="already marked"):
            t.apply_marking("s1")

    def test_initial_cannot_be_marked(self, g1, backend):
        t = make_table(g1, backend)
        with pytest.raises(ValueError, match="already marked"):
            t.apply_marking("s0")

    def test_rejected_marking_adds_no_vertex(self, g1, g2, backend):
        # An already-marked vertex and one the table has not met are both
        # rejected, eager and lazy, and a rejected call changes nothing. A
        # lazy table has not met s2 of G2 until s1's edge names it.
        for lazy in (False, True):
            cases = [(g1, "s0", "already marked"), (g1, "zz", "is not in the table")]
            cases += [(g2, "s2", "is not in the table")] * lazy
            for decl, v, why in cases:
                t = make_table(decl, backend, lazy=lazy)
                before = (dict(t.vid), t.eng.unmarked, t.eng.live_size)
                with pytest.raises(ValueError, match=f"^vertex {v} {why}$"):
                    t.apply_marking(v)
                assert (dict(t.vid), t.eng.unmarked, t.eng.live_size) == before
                t.apply_marking("s1")
                assert t.ensure_settled("s1")[0] == (UNREACHABLE if decl is g1 else 2)

    def test_pure_rank_decrease_is_checked(self):
        # A stored rank above its recomputed value breaks the engine's
        # invariant; the pure core raises as the compiled core does, also
        # under `python -O`.
        eng = PureRankEngine()
        h, t = eng.add_vertex(), eng.add_vertex()
        eng.mark(h, [(t,)])
        assert eng.ensure(h) == (2, 0)
        eng.vstored[h] = 5
        eng.vdirty[h] = True
        eng.heap.append((5, h))
        with pytest.raises(AssertionError, match="nondecreasing"):
            eng.ensure(h)


class OwnFair(RandomFair):
    """A RandomFair with a `respond` of its own, which `run_session` plays
    through the Python loop, and so through a `RankTable`, on either
    backend."""

    def respond(self, gs, eid):
        return super().respond(gs, eid)


class OwnAvoider(Avoider):
    """The Avoider, played through the Python loop as `OwnFair` is."""

    def respond(self, gs, eid):
        return super().respond(gs, eid)


def test_table_keeps_each_marked_vertex_edges(backend, monkeypatch):
    # The table takes a vertex's edges from the declaration once, when it
    # marks the vertex: the initial vertex first, then each newly marked
    # answer in move order. perfbench's ranks.table.mark calls count these.
    # The adversaries override `respond`, so each session is a `GameState`,
    # a table of its own: the compiled loop builds none.
    tables = []

    class Recorded(GameState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(hypergame.engine, "GameState", Recorded)
    rng = random.Random(5)
    models = [random_decl(rng) for _ in range(20)]
    models.append(gen_random_bounded_degree(256, 3, 2, 1))
    for decl in models:
        for lazy in (False, True):
            for adversary in (OwnFair(3), OwnAvoider()):
                source = DeclProvider(decl) if lazy else decl
                transcript, _ = run_session(source, adversary, backend=backend)
                [table] = tables
                tables.clear()
                marked = [m.response for m in transcript if m.newly_marked]
                assert list(table.out) == [decl.initial] + marked
                assert all(edges == decl.by_head.get(v, ()) for v, edges in table.out.items())
    # A rejected marking changes neither the edges nor the ids.
    decl = models[-1]
    t = RankTable(DeclProvider(decl), backend=backend)
    before = (dict(t.out), dict(t.vid))
    for v in (decl.initial, next(v for v in decl.vertices if v not in t.vid)):
        with pytest.raises(ValueError):
            t.apply_marking(v)
        assert (dict(t.out), dict(t.vid)) == before


class TestWorkStats:
    def test_fresh_table_counters(self, g1, backend):
        t = make_table(g1, backend)
        w = WorkStats.of(t.eng)
        assert w.relaxations == 0 and w.queue_ops == 0 and len(t.marked) == 1
        # marker edges (2 unmarked vertices) + edge a (head + 2 tails)
        assert w.live_size_H_prime == 2 + 3

    def test_g2_session_counts_two_markings(self, g2, backend):
        t = make_table(g2, backend)
        t.apply_marking("s1")
        t.apply_marking("s2")
        assert len(t.marked) == 3  # the initial vertex, then two markings

    def test_counters_nondecreasing(self, g1, backend):
        t = make_table(g1, backend)
        seen = [(WorkStats.of(t.eng), len(t.marked))]
        t.ensure_settled("s0")
        seen.append((WorkStats.of(t.eng), len(t.marked)))
        t.apply_marking("s2")
        t.ensure_settled("s2")
        seen.append((WorkStats.of(t.eng), len(t.marked)))
        for (a, marked_a), (b, marked_b) in zip(seen, seen[1:]):
            assert b.relaxations >= a.relaxations
            assert b.queue_ops >= a.queue_ops
            assert b.live_size_H_prime >= a.live_size_H_prime
            assert marked_b >= marked_a


def drive_and_check(decl, backend, rng, ensure_each_step=True, order=None):
    """Mark in random order, or in `order` when given; after every marking
    the settled table must agree with the oracle on every vertex and every
    live edge, stored values must never exceed oracle values, values the
    snapshot shows as exact must equal them, and exact ranks must never
    decrease. Returns the table."""
    t = make_table(decl, backend)
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
                got, _ = t.ensure_settled(v)
                assert got == vr[v], (v, got, vr[v], marked)
                prev = last_exact.get(v)
                if prev is not None:
                    assert got >= prev  # monotone across markings
                last_exact[v] = got
            _, edges = snapshot_ranks(t)
            for e in decl.edges:
                if e.head in marked:
                    assert edges[e.id] == (er[e.id], True)
            # The tester's query: the lowest-id edge of least rank at v, none
            # when v is unreachable.
            for v in marked:
                least = min(((er[e.id], e.id) for e in decl.by_head.get(v, ())),
                            default=(UNREACHABLE, None))
                rank, edge = t.ensure_settled(v)
                assert rank - 1 == least[0], (v, rank, least)
                want = None if rank == UNREACHABLE else least[1]
                assert (edge.id if edge else None) == want, (v, edge, least)
        if not order:
            return t
        v = order.pop()
        t.apply_marking(v)
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
        assert WorkStats.of(t.eng).flushes >= 1


def test_finite_ranks_stay_within_marked_plus_one(backend):
    # A finite rank r passes r - 1 distinct marked vertices on its way down
    # least-rank edges, so r <= |marked| + 1. The engines cap recomputes
    # there: no stored finite value, and no returned rank, exceeds it.
    rng = random.Random(17)
    for _ in range(150):
        decl = random_decl(rng)
        table = make_table(decl, backend, lazy=rng.random() < 0.5)
        order = [v for v in decl.vertices if v != decl.initial]
        rng.shuffle(order)
        for v in order:
            if v not in table.vid:
                continue  # a lazy table has not met it
            table.apply_marking(v)
            eng = table.eng
            cap = len(eng.snapshot()["vstored"]) - eng.unmarked + 1
            for u in rng.sample(sorted(table.vid), rng.randint(0, len(table.vid))):
                rank, _ = table.ensure_settled(u)
                assert rank == UNREACHABLE or rank <= cap
            snap = eng.snapshot()
            assert all(s <= cap for s in snap["vstored"] + snap["estored"] if s != UNREACH_INT)


def test_flush_fires_once_the_call_has_spent_its_budget(backend):
    # ensure flushes at its first check (one after each queue step) at which
    # the work, relaxations + queue ops, done since the call's start or its
    # last flush reaches live_size + n + 64. The pure engine is watched at
    # every check; the compiled one must keep its counters after every call.
    rng = random.Random(37)
    flushes = 0
    for _ in range(6):
        decl, order = lost_base_decl(rng)
        tables = [make_table(decl, b) for b in dict.fromkeys(("pure", backend))]
        pure = tables[0].eng
        watch_rare_branches(pure)  # each flush checked against `well_founded`
        segment = {}  # the current segment's start and budget, and its checks

        def work():
            return pure.relaxations + pure.queue_ops

        def step(real=pure._step):
            real()
            segment["checks"].append(work() - segment["start"])

        def flush(real=pure._flush_unreachable):
            checks, budget = segment["checks"], segment["budget"]
            assert checks[-1] >= budget > max(checks[:-1], default=0)
            real()
            segment.update(start=work(), checks=[])

        pure._step, pure._flush_unreachable = step, flush
        for v in order:
            for t in tables:
                t.apply_marking(v)
            for u in decl.vertices:
                segment.update(start=work(), checks=[],
                               budget=pure.live_size + len(pure.vstored) + 64)
                got = [(t.ensure_settled(u), WorkStats.of(t.eng)) for t in tables]
                assert got == got[:1] * len(got)
        flushes += pure.flushes
    assert flushes >= 6


def ring_chain_decl(rings, length, chain):
    """`lost_base_decl`'s rings, each of `length` states, plus a chain that
    keeps s0 reachable once the rings lose the base `c`.

    s0 enters ring 0 at r00_1, its state of highest rank, and also starts
    the chain s0 -> p0 -> ... -> p{chain-1} -> u. The spare states `z` and
    `u` are never marked. Returns the declaration and its ring states, then
    its chain states.
    """
    edges = []
    ring_states = []
    for i in range(rings):
        ring = [f"r{i:02d}_{j}" for j in range(length)]
        for j, v in enumerate(ring):
            edges.append(Edge(f"e{i:02d}_{j}", v, (ring[(j + 1) % length],)))
        edges.append(Edge(f"e{i:02d}_c", ring[0], ("c",)))
        ring_states += ring
    edges.append(Edge("e_s0", "s0", ("r00_1",)))
    path = ["s0", *(f"p{i}" for i in range(chain)), "u"]
    edges += [Edge(f"e_{t}", h, (t,)) for h, t in zip(path, path[1:])]
    states = ring_states + path[1:-1]
    decl = ModelDecl(initial="s0", vertices=("s0", "c", "z", "u", *states), edges=tuple(edges))
    return decl, states


def well_founded(eng):
    """The vertices of a pure engine that have a finite rank: the unmarked
    ones, and every head of a live edge whose tail holds only such vertices.
    A plain fixpoint over the live edges, apart from the engine's counter
    pass."""
    tails = [[] for _ in eng.estored]
    for v, edges in enumerate(eng.tail_edges):
        for e in edges:
            tails[e].append(v)
    good = {v for v, marked in enumerate(eng.vmarked) if not marked}
    grew = True
    while grew:
        grew = False
        for e, h in enumerate(eng.ehead):
            if h not in good and all(t in good for t in tails[e]):
                good.add(h)
                grew = True
    return good


def watch_rare_branches(eng):
    """Count, on a pure engine, the stale queue entries `_step` pops and the
    clean heads that an unreachable flush puts back into the queue. The
    flush must finalize exactly the vertices outside `well_founded`, and
    each head its `_raise_edge` calls re-dirty must be inside it."""
    seen = {"stale pops": 0, "re-dirtied": 0}
    flushing = {}  # during a flush: "good", the well-founded vertices

    def step(real=eng._step):
        key, y = eng.heap[0]
        seen["stale pops"] += not eng.vdirty[y] or key != eng.vstored[y]
        real()

    def flush(real=eng._flush_unreachable):
        flushing["good"] = good = well_founded(eng)
        real()
        del flushing["good"]
        assert {v for v, s in enumerate(eng.vstored) if s != UNREACH_INT} == good

    def raise_edge(e, value, real=eng._raise_edge):
        d = eng.ehead[e]
        clean = not eng.vdirty[d]
        real(e, value)
        if "good" in flushing and clean and eng.vdirty[d]:
            assert d in flushing["good"], d
            seen["re-dirtied"] += 1

    eng._step, eng._flush_unreachable, eng._raise_edge = step, flush, raise_edge
    return seen


def stale_pop_plan():
    # Rings lose their base while only s0 is queried: the rank creep runs
    # into a flush, and the flushed vertices' entries stay in the queue
    # until `_step` pops them while the queried vertex is dirty.
    decl, order = ring_chain_decl(4, 3, 8)
    random.Random(0).shuffle(order)
    return decl, [(v, ["s0"]) for v in order] + [("c", [])]


def re_dirty_plan():
    # Marking c leaves the rings without support. The flush makes e_s0
    # unreachable while it still holds s0's least value, so s0, clean and
    # reachable through the chain, goes back into the queue.
    decl, order = ring_chain_decl(48, 10, 12)
    return decl, [(v, []) for v in order[:-1]] + [(order[-1], None), ("c", ["r00_0"])]


@pytest.mark.parametrize("plan, branch", [(stale_pop_plan, "stale pops"),
                                          (re_dirty_plan, "re-dirtied")],
                         ids=["stale-pop", "re-dirty"])
def test_rare_engine_branches_match_the_oracle(plan, branch, backend):
    # Each plan marks a vertex, then settles the listed vertices (None:
    # every vertex, in id order), on an eager table per backend; at the
    # end every vertex is settled.
    decl, steps = plan()
    tables = [make_table(decl, b) for b in dict.fromkeys(("pure", backend))]
    seen = watch_rare_branches(tables[0].eng)
    every = list(tables[0].vid)
    marked = {decl.initial}

    def settle(queries):
        vr, er = oracle_ranks(decl.vertices, decl.edges, marked, include_dead=False)
        for u in queries:
            got = [t.ensure_settled(u) for t in tables]
            assert got == got[:1] * len(got)
            rank, edge = got[0]
            assert rank == vr[u], (u, rank, vr[u])
            assert edge is None or er[edge.id] == rank - 1

    for v, queries in steps:
        for t in tables:
            t.apply_marking(v)
        marked.add(v)
        settle(every if queries is None else queries)
    settle(every)
    assert seen[branch] >= 1
    assert len({repr((WorkStats.of(t.eng), t.eng.snapshot())) for t in tables}) == 1


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
            t = make_table(decl, backend)
            trace = []
            for v in order:
                t.apply_marking(v)
                ranks = []
                for u in decl.vertices:
                    ranks.append(t.ensure_settled(u))
                    # Only marked vertices are ever dirty, which `mark` relies on.
                    snap = t.eng.snapshot()
                    assert not any(d and not m for d, m in zip(snap["vdirty"], snap["vmarked"]))
                trace.append(tuple(ranks))
            results.append((trace, WorkStats.of(t.eng)))
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
    # Every method that takes a vertex index rejects one past the end, and
    # a negative one, with IndexError on both backends, tail indices
    # included.
    cls = get_engine_class(backend)

    def blank():
        eng = cls()
        for _ in range(2):
            eng.add_vertex()
        return eng  # 2 vertices, none marked

    def fresh():
        eng = blank()
        eng.mark(0, [(1,)])
        return eng  # 2 vertices, 1 edge, the initial vertex 0 marked

    for bad_v in (2, -1):
        calls = [
            lambda e: e.ensure(bad_v),
            lambda e: e.mark(bad_v, [()]), lambda e: e.mark(1, [(0, bad_v)]),
        ]
        for call in calls:
            with pytest.raises(IndexError):
                call(fresh())
        for call in (lambda e: e.mark(bad_v, []),
                     lambda e: e.mark(0, [(1,), (bad_v,)])):
            with pytest.raises(IndexError):
                call(blank())

    def state(e):
        return (e.ensure(0), e.ensure(1), e.unmarked,
                e.live_size, e.queue_ops, e.relaxations, e.snapshot())

    # A call rejected for a bad tail index changes nothing: the engine then
    # takes the same call as one that never saw the bad one. After a
    # rejected first mark, the next mark is still the set-up one, which
    # marks one vertex and counts no queue op.
    eng = blank()
    with pytest.raises(IndexError):
        eng.mark(0, [(1,), (2,)])
    assert eng.mark(0, [(1,)]) is None
    assert (eng.unmarked, eng.queue_ops) == (1, 0)
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


def test_ensure_returns_the_least_edge_position(backend):
    # ensure(v) returns v's rank and the position, among v's out-edges, of
    # the first one of rank - 1; -1 for an unmarked vertex, a marked sink
    # and every vertex once all are marked.
    eng = get_engine_class(backend)()
    s0, s1, s2 = (eng.add_vertex() for _ in range(3))
    eng.mark(s0, [(s1, s0), (s1,), (s2,)])  # edge ranks 2, 1, 1
    assert eng.ensure(s0) == (2, 1)
    assert eng.ensure(s1) == (1, -1)  # unmarked
    eng.mark(s2, [])
    assert eng.ensure(s2) == (UNREACH_INT, -1)  # a marked sink
    assert eng.ensure(s0) == (2, 1)
    eng.mark(s1, [(s0,)])
    assert eng.unmarked == 0
    assert [eng.ensure(v) for v in (s0, s1, s2)] == [(UNREACH_INT, -1)] * 3
    assert eng.max_rank == 2


ENGINE_API = {"add_vertex", "mark", "ensure", "snapshot"}
# The compiled move loop's entry point, which only the compiled engine has.
COMPILED_SESSION_API = {"compile_model", "play"}
ENGINE_COUNTERS = {"unmarked", "relaxations", "queue_ops", "live_size",
                   "max_rank", "flushes"}


def test_engine_api_is_the_session_api(request):
    # Both backends expose exactly the methods sessions use plus snapshot(),
    # and the same read-only counters; the compiled one also plays sessions.
    require_compiled(request.config)
    for cls, api in ((PureRankEngine, ENGINE_API),
                     (get_engine_class("compiled"), ENGINE_API | COMPILED_SESSION_API)):
        public = {name for name in dir(cls) if not name.startswith("_")}
        assert {name for name in public if callable(getattr(cls, name))} == api
        eng = cls()
        assert all(type(getattr(eng, name)) is int for name in ENGINE_COUNTERS)


@pytest.mark.parametrize("built", [False, True], ids=["not-built", "built"])
def test_backend_names(built, g1, request, monkeypatch):
    # None, "auto", "pure" and "compiled" are the backends; a misspelt name
    # raises rather than running the pure engine.
    if built:
        require_compiled(request.config)
    else:
        monkeypatch.setattr(hypergame.ranks, "CompiledRankEngine", None)
    compiled = hypergame.ranks.CompiledRankEngine
    assert get_engine_class("pure") is PureRankEngine
    assert get_engine_class(None) is get_engine_class("auto") is (compiled or PureRankEngine)
    if built:
        assert get_engine_class("compiled") is compiled
    else:
        with pytest.raises(RuntimeError, match="not built"):
            get_engine_class("compiled")
    for bad in ("Compiled", "compield", "cython"):
        for call in (lambda: get_engine_class(bad), lambda: RankTable(g1, backend=bad),
                     lambda: run_session(g1, RandomFair(0), backend=bad)):
            with pytest.raises(ValueError, match=f"^unknown backend '{bad}': expected None, "
                                                 "'auto', 'pure' or 'compiled'$"):
                call()


def test_snapshot_copies_and_counts_nothing(backend):
    cls = get_engine_class(backend)
    eng = cls()
    h, t = eng.add_vertex(), eng.add_vertex()
    eng.mark(h, [(t,), (h, t)])
    # Set-up counts no work.
    assert (eng.relaxations, eng.queue_ops, eng.flushes) == (0, 0, 0)
    counters = [getattr(eng, name) for name in sorted(ENGINE_COUNTERS)]
    snap = eng.snapshot()
    assert snap == {"vstored": [1, 1], "vdirty": [True, False],
                    "vmarked": [True, False], "estored": [1, 1]}
    snap["vstored"][0] = 9  # a copy: the engine does not see it
    assert eng.snapshot()["vstored"] == [1, 1]
    assert [getattr(eng, name) for name in sorted(ENGINE_COUNTERS)] == counters
    assert eng.ensure(h) == (2, 0)


def on_both(engines, call):
    """call(engine) on the pure and the compiled engine: equal results and
    equal counters. Returns the result."""
    out = [call(eng) for eng in engines]
    assert out[0] == out[1]
    assert ([getattr(engines[0], c) for c in sorted(ENGINE_COUNTERS)]
            == [getattr(engines[1], c) for c in sorted(ENGINE_COUNTERS)])
    return out[0]


def test_bucket_queue_keeps_the_heap_order(request):
    # The compiled core's bucket queue pops (key, vertex) entries in the
    # order of the pure engine's heap, keeps stale entries, and counts the
    # same queue ops. Each case below is confirmed on the pure heap; after
    # every step both backends return the same (rank, k) pairs and
    # counters. A repeated (key, vertex) entry cannot be made through the
    # protocol: a vertex is pushed only while it has no entry.
    require_compiled(request.config)
    engines = (PureRankEngine(), get_engine_class("compiled")())
    heap = engines[0].heap

    # A chain 0 -> 1 -> 2 -> 3; three entries share key 1 and pop in vertex
    # order. The drain for vertex 2 leaves the least key at 3.
    for _ in range(5):
        on_both(engines, lambda e: e.add_vertex())
    for v in range(3):
        on_both(engines, lambda e: e.mark(v, [(v + 1,)]))
    assert sorted(heap) == [(1, 0), (1, 1), (1, 2)]
    assert on_both(engines, lambda e: e.ensure(2)) == (2, 0)
    assert sorted(heap) == [(3, 0), (3, 1)]
    # A mark pushes key 1, below the least key in the queue.
    on_both(engines, lambda e: e.mark(3, [(4,)]))
    assert min(heap) == (1, 3)
    assert [on_both(engines, lambda e: e.ensure(v)) for v in range(5)] == [
        (5, 0), (4, 0), (3, 0), (2, 0), (1, -1)]

    # A lost base beside a chain of 40 states: draining to the chain's top
    # overruns the work budget while the lost region creeps, so that
    # ensure call flushes, which leaves stale entries, and then drains on.
    decl, order = lost_base_decl(random.Random(31))
    chain = [f"p{i:02d}" for i in range(40)] + ["z"]
    decl = ModelDecl(decl.initial, decl.vertices + tuple(chain[:-1]),
                     decl.edges + tuple(Edge(v, v, (w,)) for v, w in zip(chain, chain[1:])))
    order = chain[:-1] + order
    tables = [make_table(decl, backend) for backend in ("pure", "compiled")]
    engines = tuple(t.eng for t in tables)
    pure = engines[0]
    flushes = []  # (queue ops, stale entries) after each flush
    real_flush = pure._flush_unreachable

    def flush():
        real_flush()
        stale = sum(1 for k, v in pure.heap if not pure.vdirty[v] or k != pure.vstored[v])
        flushes.append((pure.queue_ops, stale))

    pure._flush_unreachable = flush
    vid = tables[0].vid
    mid_drain = False
    for v in order:
        tails = [[vid[t] for t in e.tail] for e in decl.by_head.get(v, ())]
        on_both(engines, lambda e: e.mark(vid[v], tails))
        for u in decl.vertices:
            seen = len(flushes)
            on_both(engines, lambda e: e.ensure(vid[u]))
            mid_drain |= len(flushes) > seen and pure.queue_ops > flushes[-1][0]
    assert mid_drain
    assert any(stale for _, stale in flushes)


class BucketWatch:
    """The compiled core's bucket queue, replayed from a pure engine's queue
    calls: its cursor, and each key's entry count and whether that bucket is
    sorted. Every push appends and clears the sorted flag. Counts the pushes
    below the cursor, the pushes into the partly drained sorted bucket at
    the cursor, and the sorts of a bucket that was sorted before and was
    then pushed into while it held entries."""

    def __init__(self, eng, monkeypatch):
        self.buckets = {}  # key: [entries, sorted, pushed into while sorted]
        self.cursor = 0
        self.seen = {"below the cursor": 0, "into the sorted cursor bucket": 0,
                     "sorted again": 0}
        for key, _ in eng.heap:
            self.push(key)
        peek = eng._peek

        def push(heap, item):
            self.push(item[0])
            heapq.heappush(heap, item)

        def pop(heap):
            self.top()
            self.buckets[self.cursor][0] -= 1
            return heapq.heappop(heap)

        def peek_top():
            key = peek()
            if eng.heap:  # the compiled peek reads the top of a queue it leaves
                self.top()
            return key

        monkeypatch.setattr(pure, "heappush", push)
        monkeypatch.setattr(pure, "heappop", pop)
        eng._peek = peek_top

    def push(self, key):
        b = self.buckets.setdefault(key, [0, False, False])
        self.seen["below the cursor"] += key < self.cursor
        self.seen["into the sorted cursor bucket"] += b[1] and b[0] > 0 and key == self.cursor
        b[2] = b[2] or (b[1] and b[0] > 0)
        b[1] = False
        self.cursor = min(self.cursor, key)
        b[0] += 1

    def top(self):
        while self.buckets.get(self.cursor, [0])[0] == 0:
            self.cursor += 1
        b = self.buckets[self.cursor]
        if not b[1]:
            self.seen["sorted again"] += b[2]
            b[1:] = [True, False]


def test_bucket_queue_branches_match_the_oracle(backend, monkeypatch):
    # Random models marked in random order, with a few vertices settled
    # after each marking, so that a mark pushes into the partly drained
    # bucket that a settled query left sorted at the cursor, which must be
    # sorted again, or below the cursor, and a drain then pushes into a
    # sorted bucket above it. Each settled rank is checked against the
    # oracle, and the backends give equal results, counters and snapshots.
    seen = {}
    rng = random.Random(27)
    for _ in range(30):
        decl = random_decl(rng)
        tables = [make_table(decl, b) for b in dict.fromkeys(("pure", backend))]
        watch = BucketWatch(tables[0].eng, monkeypatch)
        order = [v for v in decl.vertices if v != decl.initial]
        rng.shuffle(order)
        marked = {decl.initial}
        for v in order:
            for t in tables:
                t.apply_marking(v)
            marked.add(v)
            vr, er = oracle_ranks(decl.vertices, decl.edges, marked, include_dead=False)
            for u in rng.sample(decl.vertices, rng.randint(0, 2)):
                got = [t.ensure_settled(u) for t in tables]
                assert got == got[:1] * len(got)
                rank, edge = got[0]
                assert rank == vr[u], (u, rank, vr[u])
                assert edge is None or er[edge.id] == rank - 1
        assert len({repr((WorkStats.of(t.eng), t.eng.snapshot())) for t in tables}) == 1
        for branch, count in watch.seen.items():
            seen[branch] = seen.get(branch, 0) + count
    assert all(seen.values()), seen
