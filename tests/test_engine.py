import dataclasses
import random

import pytest

from hypergame.adversaries import Avoider, RandomFair, Scripted
from hypergame.engine import (ALL_MARKED, MOVE_CAP, UNREACHABLE_REASON,
                              AdversaryProtocolError, GameState, MoveRecord,
                              SessionError, format_trace, run_session)
from hypergame.model import parse_model
from hypergame.providers import DeclProvider
from hypergame.ranks import UNREACHABLE

from conftest import incident_ids, oracle_ranks, random_decl, snapshot_ranks

# A model that reaches a position with incident edge ranks {3, 1, 1}:
# script [m, m2, s0] walks the m-chain and resets, after which p has rank 3
# while q and r are both rank 1.
TIE_TEXT = """\
initial s0
edge p s0 -> m
edge pm m -> m2
edge pm2 m2 -> u3
edge q s0 -> u1
edge r s0 -> u2
edge z m2 -> s0
"""


class TestStart:
    def test_g1(self, g1):
        gs = GameState(g1)
        assert gs.current == "s0"
        assert gs.stats().coverage == 1
        assert gs.rank == 2
        assert not gs.is_terminal()
        # Only the initial vertex's edge is live; b and c stay dead until
        # their heads are marked, and s1, s2 hold rank 1 by their markers.
        assert incident_ids(gs, "s0") == ["a"]
        assert [e.id for e in gs.live_edge_objects()] == ["a"]
        assert gs.ensure_settled("s1") == gs.ensure_settled("s2") == (1, None)

    def test_single_vertex_model(self):
        gs = GameState(parse_model("initial s0\n"))
        assert gs.is_terminal()
        assert gs.stats().coverage == 1

    def test_g3_terminal_at_start(self, g3):
        gs = GameState(g3)
        assert gs.is_terminal()
        assert gs.stats().coverage == 1


class TestTesterChoose:
    def test_only_edge(self, g1):
        gs = GameState(g1)
        assert gs.tester_choose() == "a"

    def test_after_marking_chain(self, g2):
        gs = GameState(g2)
        gs.apply_response("e1", "s1")
        assert gs.current == "s1"
        assert gs.tester_choose() == "e2"

    def test_min_rank_tie_broken_by_edge_id(self):
        gs = GameState(parse_model(TIE_TEXT))
        assert gs.tester_choose() == "p"  # three rank-1 edges: p < q < r
        gs.apply_response("p", "m")
        assert gs.tester_choose() == "pm"
        gs.apply_response("pm", "m2")
        gs.apply_response("z", "s0")  # legal non-strategy move back home
        _, edges = snapshot_ranks(gs)
        ranks = {e: edges[e][0] for e in ("p", "q", "r")}
        assert ranks == {"p": 3, "q": 1, "r": 1}
        assert gs.tester_choose() == "q"  # ties {q, r} at rank 1 break by id

    def test_terminal_raises(self, g3):
        gs = GameState(g3)
        with pytest.raises(SessionError, match="terminal"):
            gs.tester_choose()

    def test_rank_invariant_is_checked(self, g1):
        # The engine finds the tester's edge where it settles the rank, and
        # raises explicitly, which `python -O` keeps, when no edge at the
        # state has rank(state) - 1.
        gs = GameState(g1, backend="pure")
        assert (gs.rank, gs.least.id) == (2, "a")
        gs.eng.estored[0] = 5  # edge a, rank 1, now reads 5
        with pytest.raises(AssertionError, match="no out-edge of vertex 0 has rank 1"):
            gs.ensure_settled("s0")


class TestApplyResponse:
    def test_g1_marks_and_blocks(self, g1):
        gs = GameState(g1)
        gs.apply_response("a", "s1")
        assert gs.stats().coverage == 2
        assert gs.current == "s1"
        assert gs.is_terminal()

    def test_g2_full_play(self, g2):
        gs = GameState(g2)
        gs.apply_response("e1", "s1")
        gs.apply_response("e2", "s2")
        assert gs.stats().coverage == 3
        assert gs.eng.unmarked == 0
        assert gs.is_terminal()

    def test_revisit_decreases_rank_without_marking(self):
        gs = GameState(parse_model(TIE_TEXT))
        for eid, v in [("p", "m"), ("pm", "m2"), ("z", "s0"), ("p", "m")]:
            gs.apply_response(eid, v)
        # current m has rank 3; the strategy edge leads to marked m2 (rank 2)
        cov = gs.stats().coverage
        assert gs.rank == 3
        assert gs.tester_choose() == "pm"
        gs.apply_response("pm", "m2")
        assert gs.stats().coverage == cov
        assert gs.rank == 2

    def test_illegal_response_rejected(self, g1):
        gs = GameState(g1)
        with pytest.raises(AdversaryProtocolError,
                           match=r"^adversary answered 's0' to a, legal: \['s1', 's2'\]$"):
            gs.apply_response("a", "s0")

    def test_edge_not_incident_rejected(self, g1):
        gs = GameState(g1)
        gs.apply_response("a", "s1")
        with pytest.raises(SessionError, match="not incident"):
            gs.apply_response("a", "s2")

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_declared_edges_off_the_current_vertex(self, lazy, g1):
        # At s1, edge a is live at the marked s0 and edge c is declared but
        # not yet live (s2 is unmarked): neither is incident, and only the
        # live one is an edge of the session.
        gs = GameState(DeclProvider(g1) if lazy else g1)
        gs.apply_response("a", "s1")
        for eid, v in (("a", "s2"), ("c", "s0"), ("zz", "s0")):
            with pytest.raises(SessionError, match=f"^edge {eid} is not incident on s1$"):
                gs.apply_response(eid, v)
        assert gs.edge("a").tail == ("s1", "s2")
        for eid in ("c", "zz"):
            with pytest.raises(KeyError, match=eid):
                gs.edge(eid)
        assert (gs.current, len(gs.transcript)) == ("s1", 1)


class TestRunSession:
    def test_g1_avoider_blocks_at_two(self, g1):
        transcript, stats = run_session(g1, Avoider(), seed=1)
        assert stats.terminated == UNREACHABLE_REASON
        assert stats.states_marked == 2
        assert stats.moves == 1

    def test_g2_any_adversary_full(self, g2):
        for adv in (RandomFair(0), Avoider(), Scripted(["s1", "s2"])):
            transcript, stats = run_session(g2, adv)
            assert stats.terminated == ALL_MARKED
            assert stats.states_marked == 3
            assert stats.moves == 2

    def test_g1_scripted_s2_blocks_immediately(self, g1):
        # After s2 is marked the system owns the s0<->s2 cycle and never has
        # to yield s1, so the session correctly stops after one move.
        transcript, stats = run_session(g1, Scripted(["s2"]), seed=1)
        assert stats.terminated == UNREACHABLE_REASON
        assert stats.states_marked == 2
        assert stats.moves == 1
        vr, _ = oracle_ranks(g1.vertices, g1.edges, {"s0", "s2"}, include_dead=False)
        assert vr["s2"] == UNREACHABLE

    def test_move_cap(self, g2):
        _, stats = run_session(g2, RandomFair(0), max_moves=1)
        assert stats.terminated == MOVE_CAP
        assert stats.moves == 1
        assert stats.states_marked == 2

    def test_illegal_adversary_response_aborts(self, g1):
        class Liar:
            def respond(self, gs, eid):
                return "s0"

        with pytest.raises(AdversaryProtocolError):
            run_session(g1, Liar())

    def test_interior_total_eager_counts_edges_never_live(self):
        # Edge c's head is never reached: an eager session still counts its
        # interiors (and s2, s3) among the states to cover; a lazy one never
        # meets them.
        decl = parse_model("initial s0\nedge a s0 -> s1\n"
                           "edge c s2 -> s3 virtual interior i1 i2\n")
        _, eager = run_session(decl, RandomFair(0))
        _, lazy = run_session(DeclProvider(decl), RandomFair(0))
        assert (eager.interior_total, lazy.interior_total) == (2, 0)
        assert (eager.terminated, lazy.terminated) == (UNREACHABLE_REASON, ALL_MARKED)

    def test_single_vertex_terminates_all_marked(self):
        _, stats = run_session(parse_model("initial s0\n"), RandomFair(0))
        assert stats.terminated == ALL_MARKED
        assert stats.states_marked == 1


class TestMoveRecord:
    def test_slotted(self):
        rec = MoveRecord(3, "s0", "a", "s1", True, 2)
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.note = "x"

    def test_replace_makes_a_changed_copy(self):
        rec = MoveRecord(3, "s0", "a", "s1", True, 2)
        other = dataclasses.replace(rec, response="s2", newly_marked=False)
        assert other == MoveRecord(3, "s0", "a", "s2", False, 2)
        assert rec == MoveRecord(3, "s0", "a", "s1", True, 2)

    def test_line(self, g1):
        assert MoveRecord(3, "s0", "a", "s1", True, 2).line() == "3\ts0\ta\ts1\t1\t2"
        assert MoveRecord(1, "s1", "b", "s0", False, -1).line() == "1\ts1\tb\ts0\t0\t-1"
        transcript, _ = run_session(g1, Scripted(["s1"]))
        assert format_trace(transcript) == "1\ts0\ta\ts1\t1\t2\n"


class TestDeterminism:
    def test_same_seed_same_trace(self, g1):
        a = run_session(g1, RandomFair(9), seed=9)
        b = run_session(g1, RandomFair(9), seed=9)
        assert format_trace(a[0]) == format_trace(b[0])
        assert a[1].to_json() == b[1].to_json()

    def test_random_models_replayable(self):
        rng = random.Random(5)
        for i in range(20):
            decl = random_decl(rng, max_vertices=8, max_edges=12)
            a = run_session(decl, RandomFair(i), max_moves=200, seed=i)
            b = run_session(decl, RandomFair(i), max_moves=200, seed=i)
            assert format_trace(a[0]) == format_trace(b[0])


class TestStats:
    def test_progress_dichotomy_in_transcript(self):
        rng = random.Random(6)
        for i in range(25):
            decl = random_decl(rng, max_vertices=9, max_edges=14)
            transcript, stats = run_session(decl, RandomFair(i), max_moves=300)
            for mv in transcript:
                assert mv.newly_marked or True  # structure check below
            # every non-marking move strictly decreases the rank
            for prev, cur in zip(transcript, transcript[1:]):
                if not prev.newly_marked:
                    assert cur.rank_before < prev.rank_before

    def test_session_stats_fields(self, g2):
        _, stats = run_session(g2, RandomFair(0), seed=0)
        d = stats.to_json()
        assert d["states_total"] == 3
        assert d["states_marked"] == 3
        assert d["moves"] == 2
        assert d["terminated"] == ALL_MARKED
        assert d["max_rank_R"] == 2
        assert d["seed"] == 0
        assert stats.work.markings_E == 2
