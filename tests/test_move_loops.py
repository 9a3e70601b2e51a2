"""The two copies of `run_session`'s move loop: the Python loop, which is
the reference, and the compiled core's, which plays the built-in
adversaries on the compiled engine. conftest's `_loops_agree` plays every
compiled session through both loops and compares them; these tests pick
the loop and reach the endings, caps and model features on which both must
agree."""

import copy
import dataclasses
import functools
import gc
import math
import pickle
import random

import pytest

import hypergame.engine
import hypergame.ranks.table
from hypergame import (DeclProvider, Edge, ModelDecl, apply_transforms,
                       gen_random_bounded_degree, parse_model, serialize_model)
from hypergame.adversaries import Avoider, RandomFair, Scripted, SubsetSystem
from hypergame.cli import main
from hypergame.engine import (ALL_MARKED, MOVE_CAP, UNREACHABLE_REASON, MoveRecord,
                              SessionError, run_session)

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


class OwnRandom(random.Random):
    """A `random.Random` subclass that overrides nothing."""


def own_rng_fair(seed):
    adversary = RandomFair()
    adversary.rng = OwnRandom(seed)
    return adversary


def patched_choice_fair(seed):
    adversary = RandomFair(seed)
    adversary.rng.choice = lambda seq: random.Random.choice(adversary.rng, seq)
    return adversary


@pytest.mark.parametrize("adversary, compiled", [
    (lambda: RandomFair(4), True), (lambda: InheritingFair(4), True), (Avoider, True),
    (lambda: own_rng_fair(4), False), (lambda: patched_choice_fair(4), False),
], ids=["RandomFair", "subclass", "Avoider", "rng-subclass", "rng-patched-choice"])
def test_built_in_responses_take_the_compiled_loop(adversary, compiled, model, compiled_sessions):
    # The compiled loop draws as random.Random.choice does, through
    # getrandbits; an rng of another class, or one whose own choice is
    # patched, takes the Python loop, which draws the same answers.
    for source in (model, DeclProvider(model)):
        got = run_session(source, adversary())
        assert got[1].moves > 0
        assert compiled_sessions == ([source] if compiled else [])
        if not compiled:  # RandomFair's answers all the same
            assert got == run_session(source, RandomFair(4))
        compiled_sessions.clear()


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


def wide_tails_decl(rng, n=12):
    """A model whose every state has one edge of each tail width 2..9, ids
    shuffled so that ties between the tester's edges fall on every width."""
    vs = [f"v{i:02d}" for i in range(n)]
    heads_widths = [(v, w) for v in vs for w in range(2, 10)]
    ids = rng.sample(range(len(heads_widths)), len(heads_widths))
    edges = [Edge(f"e{i:02d}", v, tuple(rng.sample([u for u in vs if u != v], w)))
             for i, (v, w) in zip(ids, heads_widths)]
    return ModelDecl(initial=vs[0], vertices=tuple(vs), edges=tuple(edges))


def test_draws_from_every_tail_width_match_random_choice(compiled_sessions):
    # Widths 2..9 have bit lengths 2..4, and every width that is not a power
    # of two makes getrandbits reject some results and draw again. Both
    # loops must leave the rng in the same state (see _loops_agree), and
    # each answer is the one random.Random.choice gives on the sorted tail.
    rng = random.Random(25)
    widths = set()
    for i in range(12):
        decl = wide_tails_decl(rng)
        for source in (decl, DeclProvider(decl)):
            transcript, _ = run_session(source, RandomFair(i))
            shadow = random.Random(i)
            for m in transcript:
                tail = sorted(decl.by_id[m.edge].tail)
                widths.add(len(tail))
                assert m.response == shadow.choice(tail)
    assert widths == set(range(2, 10))
    assert len(compiled_sessions) == 24


def test_records_made_in_the_compiled_loop_are_move_records(model, compiled_sessions):
    transcript, _ = run_session(model, RandomFair(8))
    assert len(compiled_sessions) == 1 and len(transcript) > 20
    reference = RandomFair(8)
    reference.respond = functools.partial(RandomFair.respond, reference)
    assert transcript == run_session(model, reference)[0]  # the Python loop's
    for m in transcript:
        assert type(m) is MoveRecord and gc.is_tracked(m)
        assert dataclasses.replace(m) == m and dataclasses.replace(m, index=0) != m
        assert pickle.loads(pickle.dumps(m)) == m
    assert pickle.loads(pickle.dumps(transcript)) == transcript
    gc.collect()
    assert [m.index for m in transcript] == list(range(1, len(transcript) + 1))


class LookalikeRecord:
    """MoveRecord's field names and size, with slots of other names."""
    __slots__ = ("a", "b", "c", "d", "e", "f")
    __dataclass_fields__ = dict.fromkeys(f.name for f in dataclasses.fields(MoveRecord))


def test_play_takes_only_the_six_slot_record_layout(g1, request):
    require_compiled(request.config)
    model = hypergame.engine.compiled_model(g1)
    names = [f.name for f in dataclasses.fields(MoveRecord)]

    class Derived(MoveRecord):
        __slots__ = ()

    for record in (dataclasses.make_dataclass("R", names[::-1], slots=True),
                   dataclasses.make_dataclass("R", names + ["note"], slots=True),
                   dataclasses.make_dataclass("R", names), Derived, tuple):
        with pytest.raises(TypeError, match="^play\\(\\): \\w+ is not a slotted dataclass of "
                                            "exactly the fields index, source, edge, response, "
                                            "newly_marked, rank_before$"):
            hypergame.ranks.CompiledRankEngine().play(model, record, 10, False, None)
    with pytest.raises(TypeError, match="^play\\(\\) takes the MoveRecord class$"):
        hypergame.ranks.CompiledRankEngine().play(model, lambda *fields: fields, 10, False, None)
    with pytest.raises(TypeError, match="^play\\(\\): LookalikeRecord.index is not a slot$"):
        hypergame.ranks.CompiledRankEngine().play(model, LookalikeRecord, 10, False, None)
    # A class of the same layout plays.
    same = dataclasses.make_dataclass("Same", names, slots=True)
    records = hypergame.ranks.CompiledRankEngine().play(model, same, 10, False, None)[0]
    assert records and all(type(m) is same for m in records)


def test_play_refuses_a_draw_below_zero(g1, request):
    # g1's first edge has a tail of width 2, so the session draws once.
    require_compiled(request.config)
    model = hypergame.engine.compiled_model(g1)
    with pytest.raises(ValueError, match="^getrandbits\\(\\) answered -1$"):
        hypergame.ranks.CompiledRankEngine().play(model, MoveRecord, 10, False, lambda k: -1)
    with pytest.raises(ZeroDivisionError):
        hypergame.ranks.CompiledRankEngine().play(model, MoveRecord, 10, False, lambda k: 1 / 0)


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
