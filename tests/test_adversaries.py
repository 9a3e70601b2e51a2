import random
from collections import Counter

import pytest

from hypergame.adversaries import (AdversaryConfigError, Avoider, RandomFair,
                                   Scripted, ScriptError, SubsetSystem,
                                   make_adversary, parse_allowed_file)
from hypergame.engine import GameState, format_stats, format_trace, run_session
from hypergame.model import parse_model
from hypergame.providers import DeclProvider, gen_random_bounded_degree
from hypergame.ranks import UNREACHABLE

from conftest import gen_strongly_connected, incident_ids, oracle_ranks, random_decl


class TestRandomFair:
    def test_deterministic_sequence(self, g1):
        def draws(seed):
            adv = RandomFair(seed)
            gs = GameState(g1)
            return [adv.respond(gs, "a") for _ in range(12)]

        assert draws(7) == draws(7)
        assert set(draws(7)) <= {"s1", "s2"}

    def test_singleton_tail_ignores_rng(self, g2):
        gs = GameState(g2)
        assert RandomFair(1).respond(gs, "e1") == "s1"
        assert RandomFair(2).respond(gs, "e1") == "s1"

    def test_empirical_fairness(self, g1):
        adv = RandomFair(123)
        gs = GameState(g1)
        counts = Counter(adv.respond(gs, "a") for _ in range(10_000))
        for v in ("s1", "s2"):
            assert 0.45 <= counts[v] / 10_000 <= 0.55


class ReferenceAvoider:
    """The Avoider's choice rules on ranks from a fresh `oracle_ranks`
    fixpoint over the session's known vertices and live edges."""

    def respond(self, gs, eid):
        tail = sorted(gs.edge(eid).tail)
        vrank, _ = oracle_ranks(gs.table.vid,
                                gs.table.live_edge_objects(), gs.marked,
                                include_dead=False)
        unreachable = [t for t in tail if vrank[t] == UNREACHABLE]
        if unreachable:
            return unreachable[0]
        marked = [t for t in tail if t in gs.marked]
        if marked:
            return max(marked, key=vrank.__getitem__)  # first max: smallest id
        return tail[0]


def _avoider_models():
    rng = random.Random(17)
    for _ in range(120):
        yield random_decl(rng)
    for seed in range(3):
        yield gen_random_bounded_degree(64, 3, 2, seed)
        yield gen_strongly_connected(24, extra_degree=1, fanout=2, seed=seed)


def _session(decl, adversary, lazy, backend):
    source = DeclProvider(decl) if lazy else decl
    return run_session(source, adversary, max_moves=5000, seed=1, backend=backend)


class TestAvoiderMatchesReference:
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_sessions_identical(self, lazy, backend):
        unreachable = 0
        for decl in _avoider_models():
            got = _session(decl, Avoider(), lazy, backend)
            want = _session(decl, ReferenceAvoider(), lazy, backend)
            assert format_trace(got[0]) == format_trace(want[0])
            assert format_stats(got[1]) == format_stats(want[1])
            unreachable += got[1].terminated == "unreachable"
        assert unreachable > 20

    def test_respond_on_every_live_edge_at_random_positions(self, backend):
        # Positions reached by random legal moves, not by the tester, and
        # lookups on edges the tester would not choose: the table has to
        # drain past its frontier, and some answers are unreachable.
        rng = random.Random(5)
        answers = unreachable = drained = 0
        for _ in range(150):
            decl = random_decl(rng)
            gs = GameState(decl, backend=backend)
            for _ in range(rng.randint(0, 10)):
                choices = incident_ids(gs.table, gs.current)
                if not choices:
                    break
                eid = rng.choice(choices)
                gs.apply_response(eid, rng.choice(gs.edge(eid).tail))
            ref = ReferenceAvoider()
            for eid in [e.id for e in gs.table.live_edge_objects()]:
                want = ref.respond(gs, eid)
                before = gs.table.snapshot_work().work
                assert Avoider().respond(gs, eid) == want
                drained += gs.table.snapshot_work().work > before
                answers += 1
                unreachable += gs.table.ensure_settled(want)[0] == UNREACHABLE
        assert answers > 300 and unreachable > 30 and drained > 10

    def test_reused_instance_plays_like_fresh(self):
        adv = Avoider()
        for decl in _avoider_models():
            for lazy in (False, True):
                got = _session(decl, adv, lazy, None)
                want = _session(decl, Avoider(), lazy, None)
                assert format_trace(got[0]) == format_trace(want[0])

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_lookups_add_no_engine_work(self, lazy, backend):
        # Replaying the Avoider's answers from a script, which reads no
        # ranks, must cost the engine exactly as much.
        for decl in _avoider_models():
            transcript, stats = _session(decl, Avoider(), lazy, backend)
            replay = Scripted([m.response for m in transcript])
            transcript2, stats2 = _session(decl, replay, lazy, backend)
            assert format_trace(transcript2) == format_trace(transcript)
            assert stats2.work == stats.work


class TestAvoider:
    def test_g1_start_marking_unavoidable_takes_id_order(self, g1):
        gs = GameState(g1)
        assert Avoider().respond(gs, "a") == "s1"

    def test_prefers_unreachable_tail(self, g1):
        gs = GameState(g1)
        gs.apply_response("a", "s1")  # now s1 itself is unreachable
        assert Avoider().respond(gs, "b") == "s0"  # s0 unreachable too: only tail
        vr, _ = oracle_ranks(g1.vertices, g1.edges, gs.marked, include_dead=False)
        assert vr["s0"] == UNREACHABLE

    def test_unreachable_over_high_rank(self):
        # edge x: h -> {dead, far}: dead is unreachable, far has a high rank
        decl = parse_model(
            "initial h\n"
            "edge x h -> dead far\n"
            "edge back dead -> dead2\n"     # dead2 -> nothing: dead blocks
            "edge loop dead2 -> dead\n"
            "edge f1 far -> u1\n"
        )
        gs = GameState(decl)
        gs.apply_response("x", "dead")
        gs.apply_response("back", "dead2")
        vr, _ = oracle_ranks(decl.vertices, gs.table.live_edge_objects(),
                             gs.marked, include_dead=False)
        assert vr["dead"] == UNREACHABLE and vr["far"] == 1
        assert Avoider().respond(gs, "x") == "dead"

    def test_max_rank_fallback(self):
        # All tails marked and reachable: stall with the highest rank.
        decl = parse_model(
            "initial h\n"
            "edge x h -> a b\n"
            "edge ra a -> u1\n"
            "edge rb b -> m1\n"
            "edge rm m1 -> u2\n"
        )
        gs = GameState(decl)
        gs.apply_response("x", "a")
        gs.apply_response("ra", "u1")  # marks u1 (sink; session would stop here)
        # Build the position where a and b are both marked:
        gs2 = GameState(decl)
        gs2.apply_response("x", "a")
        gs2 = _mark_via(gs2, decl)
        vr, _ = oracle_ranks(decl.vertices, gs2.table.live_edge_objects(),
                             gs2.marked, include_dead=False)
        adv = Avoider()
        if vr["a"] != UNREACHABLE and vr["b"] != UNREACHABLE:
            want = "a" if vr["a"] > vr["b"] else "b"
            assert adv.respond(gs2, "x") == want

    def test_blocking_property_random(self):
        # whenever the current state is unreachable, the avoider's answer to
        # any live incident edge is again unreachable
        rng = random.Random(31)
        checked = 0
        for i in range(80):
            decl = random_decl(rng, max_vertices=8, max_edges=12)
            transcript, stats = run_session(decl, Avoider(), max_moves=100, seed=i)
            if stats.terminated != "unreachable":
                continue
            gs = GameState(decl)
            for mv in transcript:
                gs.apply_response(mv.edge, mv.response)
            vr, _ = oracle_ranks(decl.vertices, gs.table.live_edge_objects(),
                                 gs.marked, include_dead=False)
            assert vr[gs.current] == UNREACHABLE
            adv = Avoider()
            for eid in incident_ids(gs.table, gs.current):
                answer = adv.respond(gs, eid)
                assert vr[answer] == UNREACHABLE
                checked += 1
        assert checked > 10


def _mark_via(gs, decl):
    """Drive gs with a fair adversary until b is marked or the session ends."""
    adv = RandomFair(0)
    while not gs.is_terminal() and gs.table.eng.unmarked and "b" not in gs.marked:
        eid = gs.tester_choose()
        gs.apply_response(eid, adv.respond(gs, eid))
    return gs


class TestSubset:
    def test_restriction_reproduces_blocked_fixture(self, g1):
        adv = SubsetSystem({"a": ["s1"], "b": ["s0"], "c": ["s0"]}, seed=1)
        _, stats = run_session(g1, adv, seed=1)
        assert stats.terminated == "unreachable"
        assert stats.states_marked == 2

    def test_full_tail_equals_random(self, g1):
        full = {e.id: list(e.tail) for e in g1.edges}
        a = run_session(g1, SubsetSystem(full, seed=5), seed=5)
        b = run_session(g1, RandomFair(5), seed=5)
        assert format_trace(a[0]) == format_trace(b[0])

    def test_single_allowed_always_taken(self, g1):
        gs = GameState(g1)
        adv = SubsetSystem({"a": ["s2"]}, seed=9)
        assert adv.respond(gs, "a") == "s2"

    def test_missing_edge_is_config_error(self, g1):
        gs = GameState(g1)
        with pytest.raises(AdversaryConfigError, match="no allowed set"):
            SubsetSystem({"b": ["s0"]}, seed=0).respond(gs, "a")

    def test_non_tail_vertex_rejected(self, g1):
        gs = GameState(g1)
        with pytest.raises(AdversaryConfigError, match="non-tail"):
            SubsetSystem({"a": ["s0"]}, seed=0).respond(gs, "a")

    def test_equals_random_on_restricted_model(self, g1):
        # a session against the subset system equals one against the fair
        # system on the model whose tails are the allowed sets
        allowed = {"a": ["s1"], "b": ["s0"], "c": ["s0"]}
        restricted = parse_model(
            "model G1\ninitial s0\nedge a s0 -> s1\nedge b s1 -> s0\nedge c s2 -> s0\n")
        a = run_session(g1, SubsetSystem(allowed, seed=3), seed=3)
        b = run_session(restricted, RandomFair(3), seed=3)
        assert format_trace(a[0]) == format_trace(b[0])

    def test_parse_allowed_file(self):
        allowed = parse_allowed_file("# cfg\nedge a: s1 s2\nedge b: s0\n")
        assert allowed == {"a": ["s1", "s2"], "b": ["s0"]}
        with pytest.raises(AdversaryConfigError):
            parse_allowed_file("edge a\n")


class TestScripted:
    def test_replay(self, g1):
        gs = GameState(g1)
        adv = Scripted(["s2"])
        assert adv.respond(gs, "a") == "s2"

    def test_illegal_entry(self, g1):
        gs = GameState(g1)
        with pytest.raises(ScriptError, match="not in tail"):
            Scripted(["s0"]).respond(gs, "a")

    def test_exhausted(self, g1):
        gs = GameState(g1)
        adv = Scripted([])
        with pytest.raises(ScriptError, match="exhausted"):
            adv.respond(gs, "a")


def test_make_adversary_dispatch():
    assert isinstance(make_adversary("random", seed=1), RandomFair)
    assert isinstance(make_adversary("avoider"), Avoider)
    assert isinstance(make_adversary("subset", allowed={"a": ["x"]}), SubsetSystem)
    assert isinstance(make_adversary("script", script=["x"]), Scripted)
    with pytest.raises(AdversaryConfigError):
        make_adversary("nope")


def test_fair_completeness_on_strongly_connected_models():
    # with a fair system and every state forceably reachable, sessions reach
    # full coverage within the budget
    ok = 0
    for i in range(12):
        decl = gen_strongly_connected(12, extra_degree=1, fanout=2, seed=i)
        _, stats = run_session(decl, RandomFair(100 + i),
                               max_moves=50 * len(decl.vertices), seed=i)
        if stats.terminated == "all_marked":
            ok += 1
    assert ok == 12
