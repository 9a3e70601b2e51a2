import random

import pytest

from hypergame.adversaries import Avoider, RandomFair
from hypergame.engine import GameState, format_trace, run_session
from hypergame.model import ModelError, parse_model
from hypergame.providers import DeclProvider, gen_chain, gen_random_bounded_degree
from hypergame.transforms import branch_coverage_transform

from conftest import gen_strongly_connected, random_decl


class TestDeclProvider:
    def test_expand_initial(self, g1):
        p = DeclProvider(g1)
        assert [e.id for e in p.expand("s0")] == ["a"]

    def test_one_provider_serves_many_sessions(self, g1):
        # Providers keep no per-session state: a reused one plays every
        # session as a fresh one does.
        for make in (lambda: DeclProvider(g1), lambda: DeclProvider(g1, lazy=False)):
            shared = make()
            for seed in range(3):
                again = run_session(shared, RandomFair(seed), seed=seed)
                fresh = run_session(make(), RandomFair(seed), seed=seed)
                assert format_trace(again[0]) == format_trace(fresh[0])
                assert again[1] == fresh[1]

    def test_lazy_session_grows_states_total(self, g2):
        gs = GameState(DeclProvider(g2))
        assert gs.states_total() == 2  # s0 and the tail of e1; s2 not yet seen
        gs.apply_response("e1", "s1")
        assert gs.states_total() == 3
        assert gs.stats().lazy is True

    def test_invalid_declaration_rejected_eager_and_lazy(self):
        # Eager and lazy sessions both play a ModelDecl, which rejects an
        # undeclared vertex when it is built: no provider or session can
        # meet an invalid one.
        with pytest.raises(ModelError, match=r"^UnknownVertex\(zz\): tail of edge a$"):
            parse_model("initial s0\nedge a s0 -> zz\n", strict_vertices=True)


class TestGenerators:
    def test_random_deterministic(self):
        a = gen_random_bounded_degree(100, 2, 2, seed=7)
        b = gen_random_bounded_degree(100, 2, 2, seed=7)
        assert a == b
        c = gen_random_bounded_degree(100, 2, 2, seed=8)
        assert c != a

    def test_degree_and_fanout_bounds(self):
        decl = gen_random_bounded_degree(40, 3, 2, seed=1)
        by_head = {}
        for e in decl.edges:
            by_head.setdefault(e.head, []).append(e)
            assert len(e.tail) == 2
            assert e.head not in e.tail
        assert all(len(es) == 3 for es in by_head.values())
        assert len(decl.edges) == 40 * 3

    def test_single_state_gives_empty_model(self):
        decl = gen_random_bounded_degree(1, 1, 1, seed=0)
        assert decl.edges == ()
        assert len(decl.vertices) == 1

    def test_fanout_too_large(self):
        with pytest.raises(ValueError, match="fanout"):
            gen_random_bounded_degree(3, 1, 3, seed=0)

    def test_chain_shape(self, g2):
        decl = gen_chain(3)
        assert len(decl.vertices) == 3
        assert [len(e.tail) for e in decl.edges] == [1, 1]
        # equal to the chain fixture modulo ids
        assert [(e.head, e.tail) for e in decl.edges] == [
            ("s0", ("s1",)), ("s1", ("s2",))]

    def test_strongly_connected_ring_present(self):
        decl = gen_strongly_connected(8, 1, 2, seed=2)
        ring = [e for e in decl.edges if e.id.startswith("ring")]
        assert len(ring) == 8
        assert all(len(e.tail) == 1 for e in ring)


class TestLazyEagerEquivalence:
    def test_fixture_traces_identical(self, g1, g2):
        for decl in (g1, g2):
            for seed in range(5):
                lazy = run_session(DeclProvider(decl), RandomFair(seed), seed=seed)
                eager = run_session(decl, RandomFair(seed), seed=seed)
                assert format_trace(lazy[0]) == format_trace(eager[0])
                assert lazy[1].terminated == eager[1].terminated

    def test_random_models_avoider_and_fair(self):
        rng = random.Random(13)
        for i in range(25):
            decl = random_decl(rng, max_vertices=9, max_edges=14)
            for adv_cls, seed in ((RandomFair, i), (Avoider, None)):
                adv_a = adv_cls(seed) if seed is not None else adv_cls()
                adv_b = adv_cls(seed) if seed is not None else adv_cls()
                lazy = run_session(DeclProvider(decl), adv_a, max_moves=200)
                eager = run_session(decl, adv_b, max_moves=200)
                assert format_trace(lazy[0]) == format_trace(eager[0])
                assert lazy[1].states_marked == eager[1].states_marked
                # The lazy run cannot know about vertices no live edge ever
                # referenced: where the eager run reports them blocking full
                # coverage, the lazy one reports full coverage of the known
                # space. Everything else must agree exactly.
                if lazy[1].terminated != eager[1].terminated:
                    assert lazy[1].terminated == "all_marked"
                    assert eager[1].terminated == "unreachable"
                    assert lazy[1].states_total < eager[1].states_total

    def test_branch_coverage_virtual_counts_agree(self):
        # The lazy session counts the transform's virtual waypoints as the
        # eager one does.
        for seed in range(3):
            decl, _ = branch_coverage_transform(
                gen_random_bounded_degree(64, 3, 2, seed=seed))
            lazy = run_session(DeclProvider(decl), RandomFair(seed), seed=seed)
            eager = run_session(decl, RandomFair(seed), seed=seed)
            assert format_trace(lazy[0]) == format_trace(eager[0])
            assert lazy[1].virtual_marked == eager[1].virtual_marked > 0
            assert lazy[1].real_marked == eager[1].real_marked
