"""The two copies of `run_session`'s move loop: the Python loop, which is
the reference, and the compiled core's, which plays the built-in
adversaries on the compiled engine. conftest's `_loops_agree` plays every
compiled session through both loops and compares them; these tests pick
the loop and reach the endings, caps and model features on which both must
agree."""

import copy
import math
import pickle
import random

import pytest

import hypergame.engine
import hypergame.ranks.table
from hypergame import (DeclProvider, Edge, apply_transforms, gen_random_bounded_degree,
                       parse_model, serialize_model)
from hypergame.adversaries import Avoider, RandomFair, Scripted, SubsetSystem
from hypergame.cli import main
from hypergame.engine import (ALL_MARKED, MOVE_CAP, UNREACHABLE_REASON, SessionError,
                              run_session)

from conftest import gen_strongly_connected, lost_base_decl, random_decl, require_compiled


@pytest.fixture
def compiled_sessions(request, monkeypatch):
    """The sources of the sessions the compiled loop plays, in order; skips
    without a C++ compiler."""
    require_compiled(request.config)
    sources = []
    play = hypergame.engine.play_compiled

    def spy(source, *args):
        sources.append(source)
        return play(source, *args)

    monkeypatch.setattr(hypergame.engine, "play_compiled", spy)
    return sources


class CountingFair(RandomFair):
    """A RandomFair whose own `respond` counts its calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def respond(self, gs, eid):
        self.calls += 1
        return super().respond(gs, eid)


class InheritingFair(RandomFair):
    """A RandomFair subclass that keeps `RandomFair.respond`."""


@pytest.fixture
def model():
    return gen_strongly_connected(30, 2, 2, seed=3)


# -- which loop runs ------------------------------------------------------------


@pytest.mark.parametrize("adversary", [lambda: RandomFair(4), lambda: InheritingFair(4), Avoider],
                         ids=["RandomFair", "subclass", "Avoider"])
def test_built_in_responses_take_the_compiled_loop(adversary, model, compiled_sessions):
    for source in (model, DeclProvider(model)):
        _, stats = run_session(source, adversary())
        assert stats.moves > 0
        assert compiled_sessions.pop() is source


def test_subclass_override_takes_the_python_loop(model, compiled_sessions):
    adversary = CountingFair(4)
    transcript, stats = run_session(model, adversary)
    assert compiled_sessions == []
    assert adversary.calls == stats.moves > 0
    # It answers as RandomFair does, so the transcripts agree.
    assert run_session(model, RandomFair(4)) == (transcript, stats)


def test_patched_class_respond_takes_the_python_loop(model, compiled_sessions, monkeypatch):
    calls = []
    respond = RandomFair.respond

    def patched(self, gs, eid):
        calls.append(eid)
        return respond(self, gs, eid)

    monkeypatch.setattr(RandomFair, "respond", patched)
    _, stats = run_session(model, RandomFair(4))
    assert compiled_sessions == []
    assert len(calls) == stats.moves > 0


def test_instance_respond_takes_the_python_loop(model, compiled_sessions):
    adversary = RandomFair(4)
    calls = []
    adversary.respond = lambda gs, eid: calls.append(eid) or RandomFair.respond(adversary, gs, eid)
    _, stats = run_session(model, adversary)
    assert compiled_sessions == []
    assert len(calls) == stats.moves > 0


def test_other_adversaries_take_the_python_loop(g1, g2, compiled_sessions):
    script = Scripted(["s1", "s2"])
    _, stats = run_session(g2, script)
    assert (script.pos, stats.terminated) == (2, ALL_MARKED)
    subset = SubsetSystem({"a": ["s2"], "b": ["s0"], "c": ["s0"]})
    transcript, _ = run_session(g1, subset)
    assert [m.response for m in transcript] == ["s2"]
    assert compiled_sessions == []


def test_pure_backend_takes_the_python_loop(model, compiled_sessions):
    _, stats = run_session(model, RandomFair(4), backend="pure")
    assert stats.moves > 0 and compiled_sessions == []


def test_engine_subclass_takes_the_python_loop(model, compiled_sessions, monkeypatch):
    calls = []
    base = hypergame.ranks.CompiledRankEngine

    class Counting(base):
        def ensure(self, v):
            calls.append(v)
            return super().ensure(v)

    monkeypatch.setattr(hypergame.ranks.table, "get_engine_class", lambda backend=None: Counting)
    _, stats = run_session(model, Avoider())
    assert compiled_sessions == []
    assert len(calls) > stats.moves > 0


# -- what both loops agree on ---------------------------------------------------


def test_move_cap(model, compiled_sessions):
    _, full = run_session(model, RandomFair(5))
    assert full.moves > 20
    for cap in (1, 2, 7, 7.5, full.moves - 1, full.moves, 2**80, float("inf")):
        transcript, stats = run_session(model, RandomFair(5), max_moves=cap)
        assert stats.moves == len(transcript) == math.ceil(min(cap, full.moves))
        assert stats.terminated == (MOVE_CAP if cap < full.moves else full.terminated)
    assert len(compiled_sessions) == 9


@pytest.mark.parametrize("cap", [float("nan"), 0, 0.5, -1, float("-inf")])
def test_a_cap_below_one_is_refused_on_either_loop(cap, backend):
    # Refused before a loop is chosen: the Python loop used to play on past
    # a NaN cap, and the compiled one to fail converting it to an int.
    decl = gen_random_bounded_degree(64, 3, 2, 1)
    for adversary in (RandomFair(1), Avoider()):
        with pytest.raises(SessionError, match="^max_moves must be >= 1$"):
            run_session(decl, adversary, max_moves=cap, backend=backend)


def test_cli_move_cap_exit_4(tmp_path, capsys, compiled_sessions):
    path = tmp_path / "model.hg"
    path.write_text(serialize_model(gen_strongly_connected(12, 1, 2, seed=1)))
    outputs = []
    for backend in ("pure", "compiled"):
        argv = ["run", str(path), "--seed", "2", "--max-moves", "3", "--backend", backend,
                "--trace", str(tmp_path / f"{backend}.trace"),
                "--stats", str(tmp_path / f"{backend}.json")]
        assert main(argv) == 4
        outputs.append((capsys.readouterr(), (tmp_path / f"{backend}.trace").read_text(),
                        (tmp_path / f"{backend}.json").read_text()))
    assert outputs[0] == outputs[1]
    assert '"terminated": "move_cap"' in outputs[1][2]
    assert len(compiled_sessions) == 1


def test_endings_on_random_models(compiled_sessions):
    rng = random.Random(21)
    endings = set()
    for i in range(150):
        decl = random_decl(rng)
        for source in (decl, DeclProvider(decl)):
            for adversary in (RandomFair(i), Avoider()):
                endings.add(run_session(source, adversary)[1].terminated)
    assert endings == {ALL_MARKED, UNREACHABLE_REASON}
    assert len(compiled_sessions) == 600


def linked_lost_base_decl(rng):
    """`lost_base_decl`'s rings, chained so that the tester walks through
    every ring, marks the base `c` last and goes back to s0 from it: then
    the whole region has lost its support, and the spare `z` is unmarked,
    so an eager session's last query creeps through the region and
    flushes."""
    decl, _ = lost_base_decl(rng)
    rings = sorted({e.head.split("_")[0] for e in decl.edges if e.head.startswith("r")})
    links = [Edge(f"e{a[1:]}_b", f"{a}_0", (f"{b}_0",)) for a, b in zip(rings, rings[1:])]
    return decl.with_edges([*decl.edges, *links, Edge("e_c", "c", ("s0",))])


def test_lost_base_sessions_flush(compiled_sessions):
    rng = random.Random(22)
    for i in range(6):
        decl = linked_lost_base_decl(rng)
        for adversary in (RandomFair(i), Avoider()):
            _, eager = run_session(decl, adversary)
            assert (eager.terminated, eager.work.flushes) == (UNREACHABLE_REASON, 1)
            assert eager.states_marked == eager.states_total - 1  # all but z
            # Lazy play never meets z: every state it knows ends marked.
            _, lazy = run_session(DeclProvider(decl), adversary)
            assert (lazy.terminated, lazy.work.flushes) == (ALL_MARKED, 0)
    assert len(compiled_sessions) == 24


def test_tail_out_of_order_is_sorted_before_the_draw(compiled_sessions):
    # RandomFair draws from the tail sorted by name, whatever its order in
    # the text: the first answer is choice(["b", "c"]) of the seed's rng.
    decl = parse_model("initial a\nedge e a -> c b\n")
    assert decl.edges[0].tail == ("c", "b")
    answers = set()
    for seed in range(20):
        transcript, stats = run_session(decl, RandomFair(seed))
        assert [m.response for m in transcript] == [random.Random(seed).choice(["b", "c"])]
        assert stats.terminated == UNREACHABLE_REASON
        answers.add(transcript[0].response)
    assert answers == {"b", "c"}
    # Random models with every tail reversed.
    rng = random.Random(23)
    for i in range(100):
        decl = random_decl(rng)
        decl = decl.with_edges([Edge(e.id, e.head, e.tail[::-1]) for e in decl.edges])
        for source in (decl, DeclProvider(decl)):
            run_session(source, RandomFair(i))
            run_session(source, Avoider())
    assert len(compiled_sessions) == 20 + 400


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_interiors_and_virtual_vertices(lazy, compiled_sessions):
    rng = random.Random(24)
    covered = virtual = 0
    for i in range(120):
        decl, _ = apply_transforms(random_decl(rng), ["branch-coverage", "compress-chains"])
        source = DeclProvider(decl) if lazy else decl
        for adversary in (RandomFair(i), Avoider()):
            _, stats = run_session(source, adversary)
            assert stats.interior_covered <= stats.interior_total
            covered += stats.interior_covered > 0
            virtual += stats.virtual_marked > 0
    assert covered > 20 and virtual > 100
    assert len(compiled_sessions) == 240


def test_repeat_builds_the_integer_model_once(tmp_path, capsys, compiled_sessions,
                                              monkeypatch):
    path = tmp_path / "model.hg"
    path.write_text(serialize_model(gen_strongly_connected(20, 2, 2, seed=4)))
    models = []
    compiled_model = hypergame.engine.compiled_model

    def spy(decl):
        models.append(compiled_model(decl))
        return models[-1]

    monkeypatch.setattr(hypergame.engine, "compiled_model", spy)
    outputs = []
    for backend in ("pure", "compiled"):
        argv = ["run", str(path), "--lazy", "--repeat", "3", "--seed", "5",
                "--backend", backend, "--stats", str(tmp_path / f"{backend}.json")]
        assert main(argv) == 0
        outputs.append((capsys.readouterr(), (tmp_path / f"{backend}.json").read_text()))
    assert outputs[0] == outputs[1]
    assert len(compiled_sessions) == 3
    assert all(source is compiled_sessions[0] for source in compiled_sessions)
    assert len(models) == 3 and all(m is models[0] for m in models)


def test_play_needs_a_fresh_engine(g1, request):
    require_compiled(request.config)
    eng = hypergame.ranks.CompiledRankEngine()
    model = hypergame.engine.compiled_model(g1)
    assert hypergame.engine.compiled_model(g1) is model
    eng.play(model, hypergame.engine.MoveRecord, 10, False, None)
    with pytest.raises(ValueError, match="fresh engine"):
        eng.play(model, hypergame.engine.MoveRecord, 10, False, None)


def test_played_declaration_copies_and_pickles(model, compiled_sessions):
    # The integer model cached on a declaration is not part of its state.
    want = run_session(model, RandomFair(6))
    for copied in (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert copied == model and "compiled_model" not in vars(copied)
        assert run_session(copied, RandomFair(6)) == want
    assert len(compiled_sessions) == 4
