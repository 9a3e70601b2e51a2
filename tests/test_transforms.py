import random

import pytest

from hypergame.adversaries import Avoider, RandomFair
from hypergame.engine import GameState, run_session
from hypergame.model import Edge, ModelDecl, parse_model, serialize_model
from hypergame.ranks import UNREACHABLE
from hypergame.transforms import (apply_transforms, branch_coverage_transform,
                                  break_self_loops, compress_chains,
                                  edge_coverage_transform)

from conftest import oracle_for_decl, random_decl


class TestBreakSelfLoops:
    def test_g3_structure(self, g3):
        out, report = break_self_loops(g3)
        kinds = {(e.id, e.head, e.tail) for e in out.edges}
        assert kinds == {
            ("f", "s0", ("s0.L.f",)),        # the failure case, now observable
            ("f.L.ok", "s0", ("s1",)),        # the edge as if failure were impossible
            ("f.L.ret", "s0.L.f", ("s0",)),   # failure returns without a state change
        }
        assert report.added_vertices == ["s0.L.f"]
        assert report.rewritten_edges == ["f"]
        assert "s0.L.f" in out.virtual_vertices
        assert not any(e.head in e.tail for e in out.edges)

    def test_g3_ranks_become_finite(self, g3):
        out, _ = break_self_loops(g3)
        vr, er = oracle_for_decl(out)
        assert vr == {"s0": 2, "s0.L.f": 1, "s1": 1}
        assert er["f"] == 1 and er["f.L.ok"] == 1

    def test_g3_fully_coverable_after_transform(self, g3):
        out, _ = break_self_loops(g3)
        for adv in (Avoider(), RandomFair(4)):
            _, stats = run_session(out, adv)
            assert stats.terminated == "all_marked"
            assert stats.states_marked == 3

    def test_no_self_loops_identity(self, g1):
        out, report = break_self_loops(g1)
        assert out == g1
        assert report.rewritten_edges == []

    def test_pure_self_loop_tail_becomes_virtual_vertex(self):
        decl = parse_model("initial s0\nedge e s0 -> s0\n")
        out, _ = break_self_loops(decl)
        e = out.by_id["e"]
        assert e.tail == ("s0.L.e",)
        assert out.by_id["e.L.ret"].tail == ("s0",)
        assert "e.L.ok" not in out.by_id

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(40):
            decl = random_decl(rng)
            once, _ = break_self_loops(decl)
            twice, rep = break_self_loops(once)
            assert twice == once
            assert rep.rewritten_edges == []

    def test_usability_property(self):
        # after the rewrite, an edge unusable only because head was in tail
        # is usable whenever its other tail members are reachable
        rng = random.Random(9)
        for _ in range(40):
            decl = random_decl(rng)
            out, report = break_self_loops(decl)
            if not report.rewritten_edges:
                continue
            vr, er = oracle_for_decl(out)
            for eid in report.rewritten_edges:
                ok = out.by_id.get(f"{eid}.L.ok")
                if ok is not None and all(vr[t] != UNREACHABLE for t in ok.tail):
                    assert er[ok.id] != UNREACHABLE


class TestEdgeCoverage:
    def test_g2_structure_and_session(self, g2):
        out, report = edge_coverage_transform(g2)
        assert len(out.vertices) == 5 and len(out.edges) == 4
        assert sorted(report.added_vertices) == ["e1.E", "e2.E"]
        _, stats = run_session(out, RandomFair(0))
        assert stats.terminated == "all_marked"
        assert stats.moves == 4
        assert stats.virtual_marked == 2  # both waypoints marked = both edges covered

    def test_empty_edge_set_identity(self):
        decl = parse_model("initial s0\n")
        out, report = edge_coverage_transform(decl)
        assert out == decl and report.rewritten_edges == []

    def test_waypoint_marks_iff_edge_fired(self, g1):
        out, _ = edge_coverage_transform(g1)
        transcript, stats = run_session(out, RandomFair(2), max_moves=100, seed=2)
        fired = {mv.edge for mv in transcript}
        # a.E marked exactly when the rewritten edge a fired
        gs_marked = set()
        gs = GameState(out)
        for mv in transcript:
            gs.apply_response(mv.edge, mv.response)
        assert ("a.E" in gs.marked) == ("a" in fired)

    def test_coverage_correspondence_replay(self):
        rng = random.Random(10)
        for i in range(20):
            decl = random_decl(rng, max_vertices=6, max_edges=8,
                               allow_self_loops=False)
            out, report = edge_coverage_transform(decl)
            if not decl.edges:
                continue
            transcript, _ = run_session(out, RandomFair(i), max_moves=150, seed=i)
            gs = GameState(out)
            for mv in transcript:
                gs.apply_response(mv.edge, mv.response)
            fired_original_edges = {mv.edge for mv in transcript
                                    if mv.edge in decl.by_id}
            marked_waypoints = {v for v in gs.marked if v.endswith(".E")}
            assert marked_waypoints == {f"{e}.E" for e in fired_original_edges}


class TestBranchCoverage:
    def test_g1_edge_a_outcomes(self, g1):
        out, report = branch_coverage_transform(g1)
        a = out.by_id["a"]
        assert a.tail == ("a.B.s1", "a.B.s2")
        assert out.by_id["a.B2.s1"].tail == ("s1",)

    def test_singleton_tail_matches_edge_transform_semantics(self, g2):
        out, _ = branch_coverage_transform(g2)
        e1 = out.by_id["e1"]
        assert e1.tail == ("e1.B.s1",)
        assert out.by_id["e1.B2.s1"].tail == ("s1",)

    def test_avoider_leaves_one_outcome_unmarked(self, g1):
        out, _ = branch_coverage_transform(g1)
        _, stats = run_session(out, Avoider())
        assert stats.terminated == "unreachable"
        gs = GameState(out)
        transcript, _ = run_session(out, Avoider())
        for mv in transcript:
            gs.apply_response(mv.edge, mv.response)
        outcomes = {"a.B.s1", "a.B.s2"}
        assert len(outcomes & gs.marked) == 1


class TestCompressChains:
    def test_g2_compresses_to_one_edge(self, g2):
        out, report = compress_chains(g2)
        assert [(e.id, e.head, e.tail, e.interior) for e in out.edges] == [
            ("e1.C", "s0", ("s2",), ("s1",))]
        assert out.vertices == ("s0", "s2")
        assert report.interior_map == {"e1.C": ["s1"]}

    def test_g2_session_one_move_full_coverage(self, g2):
        out, _ = compress_chains(g2)
        _, stats = run_session(out, RandomFair(0))
        assert stats.moves == 1
        assert stats.terminated == "all_marked"
        assert stats.coverage == 3  # s0, s2 and the interior s1

    def test_g1_unchanged(self, g1):
        out, report = compress_chains(g1)
        assert out == g1 and report.interior_map == {}

    def test_cycle_back_to_head_not_compressed(self):
        decl = parse_model("initial s0\nedge a s0 -> s1\nedge b s1 -> s0\n")
        out, report = compress_chains(decl)
        assert out == decl and report.interior_map == {}

    def test_ring_nothing_enters_not_compressed(self):
        # a, b and c each have one singleton in-edge and one singleton
        # out-edge, but every one's predecessor is in the ring too, so no
        # chain starts there.
        decl = parse_model("initial s0\nedge c1 a -> b\nedge c2 b -> c\nedge c3 c -> a\n")
        out, report = compress_chains(decl)
        assert out == decl and report.interior_map == {} and report.rewritten_edges == []

    def test_path_into_a_ring_stops_at_its_entry(self):
        # r1 has two in-edges, from p and from r3, so the chain from p ends
        # there; the walk from r2 comes back to its head r1 and is left alone.
        decl = parse_model("initial s0\nedge a s0 -> p\nedge b p -> r1\n"
                           "edge c1 r1 -> r2\nedge c2 r2 -> r3\nedge c3 r3 -> r1\n")
        out, report = compress_chains(decl)
        assert [(e.id, e.head, e.tail, e.interior) for e in out.edges] == [
            ("a.C", "s0", ("r1",), ("p",)), ("c1", "r1", ("r2",), ()),
            ("c2", "r2", ("r3",), ()), ("c3", "r3", ("r1",), ())]
        assert report.rewritten_edges == ["a", "b"]
        assert report.interior_map == {"a.C": ["p"]}
        assert sorted(out.vertices) == ["r1", "r2", "r3", "s0"]

    def test_coverage_preserved_and_rank_not_worse(self):
        # On models where revisiting a long prepared path is forced, the
        # compressed session keeps coverage (counting interiors) and strictly
        # lowers the peak session rank.
        for k in (4, 6, 9):
            decl = _prep_chain_with_two_leaves(k)
            plain = run_session(decl, RandomFair(1), max_moves=500, seed=1)[1]
            compressed_decl, report = compress_chains(decl)
            assert report.interior_map
            comp = run_session(compressed_decl, RandomFair(1), max_moves=500, seed=1)[1]
            assert comp.coverage == plain.coverage
            assert comp.max_rank_R < plain.max_rank_R
            assert plain.max_rank_R >= k  # revisiting the chain costs its length


def _prep_chain_with_two_leaves(k):
    """init -> c1 -> ... -> ck (singleton chain) -> two leaves, each resetting
    to init: after the first leaf the tester must re-walk the chain. The
    leaves carry unusable self-loops so only the preparatory chain is
    compressible."""
    vs = ["init"] + [f"c{i:02d}" for i in range(1, k + 1)] + ["la", "lb"]
    edges = [Edge("d00", "init", ("c01",))]
    for i in range(1, k):
        edges.append(Edge(f"d{i:02d}", f"c{i:02d}", (f"c{i+1:02d}",)))
    edges.append(Edge("fa", f"c{k:02d}", ("la",)))
    edges.append(Edge("fb", f"c{k:02d}", ("lb",)))
    edges.append(Edge("ra", "la", ("init",)))
    edges.append(Edge("rb", "lb", ("init",)))
    edges.append(Edge("ga", "la", ("la",)))
    edges.append(Edge("gb", "lb", ("lb",)))
    return ModelDecl(initial="init", vertices=tuple(sorted(vs)),
                     edges=tuple(sorted(edges, key=lambda e: e.id)))


class TestComposition:
    def test_fixed_order(self, g3):
        out, report = apply_transforms(g3, ["compress-chains", "break-self-loops"])
        # break-self-loops ran first regardless of the requested order
        assert "f" in report.rewritten_edges
        assert not any(e.head in e.tail for e in out.edges)

    def test_coverage_kinds_exclusive(self, g1):
        with pytest.raises(ValueError, match="mutually exclusive"):
            apply_transforms(g1, ["edge-coverage", "branch-coverage"])

    def test_unknown_name(self, g1):
        with pytest.raises(ValueError, match="unknown transform"):
            apply_transforms(g1, ["nope"])

    def test_transformed_model_round_trips(self, g3):
        from hypergame.model import parse_model as pm, serialize_model as sm
        out, _ = apply_transforms(g3, ["break-self-loops", "edge-coverage"])
        assert pm(sm(out)) == out

    def test_compressed_away_virtual_vertices_leave_the_model(self):
        # compress-chains folds the waypoints a.E, b.E and d.E that
        # edge-coverage added; they leave the virtual set too.
        from hypergame.model import parse_model as pm, serialize_model as sm
        decl = pm("initial s0\nedge a s0 -> s1\nedge b s1 -> s2\n"
                  "edge c s2 -> s0 s3\nedge d s3 -> s0\n")
        out, _ = apply_transforms(decl, ["edge-coverage", "compress-chains"])
        assert out.vertices == ("c.E", "s0", "s3")
        assert out.virtual_vertices == {"c.E"}
        assert pm(sm(out)) == out


@pytest.mark.parametrize("name,text,edge,fresh", [
    ("edge-coverage",
     "initial s0\nedge e s0 -> e.E s1\nedge f e.E -> s0\nedge g s1 -> s0\n", "e", "e.E.2"),
    ("break-self-loops", "initial s0\nvertex s0.L.e\nedge e s0 -> s0 s1\n", "e", "s0.L.e.2"),
], ids=["edge-coverage", "break-self-loops"])
def test_fresh_ids_skip_taken_names(name, text, edge, fresh):
    # The dotted candidate for the vertex that `edge` now leads to names a
    # vertex already, so the new vertex takes the first free numeric suffix.
    decl = parse_model(text)
    out, report = apply_transforms(decl, [name])
    assert fresh in report.added_vertices and fresh not in decl.vertex_set
    assert out.by_id[edge].tail == (fresh,)
    assert parse_model(serialize_model(out)) == out
