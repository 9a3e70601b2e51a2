"""The testing game: session state, the min-rank tester strategy, system
responses, termination detection, and transcript/stats emission.

A session plays one `ModelDecl`, eagerly, or lazily when it comes wrapped
in a `DeclProvider`. Its `GameState` is a `RankTable` over the declaration,
which holds ranks, dense ids and each marked vertex's edges, taken from
`by_head` by the table alone; the game state adds only the position. It
looks a stimulated edge up in the declaration's `by_id` index. One
`ensure_settled` call per move gives the new state's rank and the edge the
tester will stimulate there.

A session stops in exactly one of three ways: every known state is marked,
the current state is unreachable (the system can avoid all further
coverage), or the move budget ran out.

`run_session` has two copies of the move loop. The Python loop, over a
`GameState`, is the reference, and it plays every session but one kind: on
an engine of exactly the compiled class, against an adversary whose
`respond` is `RandomFair.respond` or `Avoider.respond` as `adversaries.py`
defines them, the compiled core plays the whole session (`play_compiled`).
It keeps the Python loop's order of engine calls, ids and rng draws, so
both give the same transcript, stats and adversary state. An overriding
or patched `respond`, any other adversary, the pure engine and an engine
subclass take the Python loop.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from . import ranks
from .adversaries import Avoider, RandomFair
from .providers import DeclProvider
from .ranks import UNREACHABLE, RankTable
from .ranks import table as rank_table
from .ranks.table import WorkStats

ALL_MARKED = "all_marked"
UNREACHABLE_REASON = "unreachable"
MOVE_CAP = "move_cap"
# The endings by the number the compiled loop gives them.
ENDINGS = (ALL_MARKED, UNREACHABLE_REASON, MOVE_CAP)
# The responses the compiled loop plays, as defined, each with whether it
# draws from the adversary's rng.
COMPILED_RESPONSES = {RandomFair.respond: True, Avoider.respond: False}


class SessionError(Exception):
    pass


class AdversaryProtocolError(SessionError):
    """The simulated system returned an illegal response."""


@dataclass(slots=True)
class MoveRecord:
    """One move of a transcript. Records are slotted, not frozen: a frozen
    dataclass's `__init__` sets each field through `object.__setattr__`,
    about 1.8 µs per record against 0.5 µs (Python 3.11). Nothing assigns
    to a record or hashes one; `dataclasses.replace` makes a changed
    copy."""

    index: int
    source: str
    edge: str
    response: str
    newly_marked: bool
    rank_before: int

    def line(self) -> str:
        nm = "1" if self.newly_marked else "0"
        return f"{self.index}\t{self.source}\t{self.edge}\t{self.response}\t{nm}\t{self.rank_before}"


@dataclass
class SessionStats:
    states_total: int = 0
    states_marked: int = 0
    virtual_marked: int = 0
    interior_total: int = 0
    interior_covered: int = 0
    moves: int = 0
    work: WorkStats = field(default_factory=WorkStats)
    terminated: str | None = None
    lazy: bool = False
    seed: int | None = None

    @property
    def coverage(self) -> int:
        return self.states_marked + self.interior_covered

    @property
    def real_marked(self) -> int:
        return self.states_marked - self.virtual_marked

    @property
    def max_rank_R(self) -> int:
        return self.work.max_rank_R

    def to_json(self) -> dict:
        w = self.work
        return {
            "states_total": self.states_total,
            "states_marked": self.states_marked,
            "real_marked": self.real_marked,
            "virtual_marked": self.virtual_marked,
            "interior_total": self.interior_total,
            "interior_covered": self.interior_covered,
            "coverage": self.coverage,
            "moves": self.moves,
            "max_rank_R": self.max_rank_R,
            "live_size_H_prime": w.live_size_H_prime,
            "relaxations": w.relaxations,
            "queue_ops": w.queue_ops,
            "terminated": self.terminated,
            "lazy": self.lazy,
            "seed": self.seed,
        }


class GameState(RankTable):
    """One testing-game position: the rank table of the session's
    declaration, plus the current state, the transcript, the covered
    interiors, the ending, and the current state's rank and least edge."""

    def __init__(self, source, backend=None):
        """The starting position: the initial vertex marked and current, its
        edges live, its rank settled. source: a declaration, which is played
        eagerly, or a `DeclProvider`, whose declaration is played lazily;
        the table tells them apart."""
        super().__init__(source, backend=backend)
        self.by_id = self.decl.by_id  # read per move; cheaper than the cached property
        self.current = self.decl.initial
        self.transcript: list[MoveRecord] = []
        self.interior_covered: set[str] = set()
        self.terminated: str | None = None
        # The current state's rank and least-rank edge; set per move.
        self.rank, self.least = self.ensure_settled(self.current)

    # -- accessors -----------------------------------------------------------

    def states_total(self) -> int:
        return len(self.vid)

    def edge(self, eid: str):
        """The live edge `eid`: one whose head is marked. KeyError if there
        is none."""
        e = self.by_id[eid]
        if e.head not in self.out:
            raise KeyError(eid)
        return e

    def is_terminal(self) -> bool:
        return self.rank == UNREACHABLE

    # -- moves ----------------------------------------------------------------

    def tester_choose(self) -> str:
        """The strategy: a minimal-rank live edge at the current state, ties
        broken by edge id. Its rank is rank(current) - 1 by definition; the
        rank engine checks that it is."""
        if self.rank == UNREACHABLE:
            raise SessionError("tester_choose on a terminal state")
        return self.least.id

    def apply_response(self, eid: str, v: str) -> None:
        """Advance: the system answered `v` to stimulus `eid`. Marks v if
        unmarked (promoting its edges) and credits compressed interiors.
        Raises AdversaryProtocolError if v is not in the tail of `eid`."""
        e = self.by_id.get(eid)
        if e is None or e.head != self.current:
            raise SessionError(f"edge {eid} is not incident on {self.current}")
        if v not in e.tail:
            raise AdversaryProtocolError(
                f"adversary answered {v!r} to {eid}, legal: {sorted(e.tail)}")
        newly = v not in self.out
        rank_before = self.rank
        transcript = self.transcript
        transcript.append(MoveRecord(len(transcript) + 1, self.current, eid, v, newly,
                                     rank_before if rank_before != UNREACHABLE else -1))
        if newly:
            self.apply_marking(v)
        if e.interior:
            self.interior_covered.update(e.interior)
        self.current = v
        self.rank, self.least = self.ensure_settled(v)

    # -- reporting -------------------------------------------------------------

    def interior_total(self) -> int:
        # An eager session's live edges are a subset of its declaration's.
        edges = self.live_edge_objects() if self.lazy else self.decl.edges
        return len({i for e in edges for i in e.interior})

    def stats(self, seed=None) -> SessionStats:
        return SessionStats(
            states_total=self.states_total(),
            states_marked=len(self.marked),
            virtual_marked=len(self.marked & self.decl.virtual_vertices),
            interior_total=self.interior_total(),
            interior_covered=len(self.interior_covered),
            moves=len(self.transcript),
            work=WorkStats.of(self.eng),
            terminated=self.terminated,
            lazy=self.lazy,
            seed=seed,
        )


def run_session(source, adversary, max_moves: int = 1_000_000, seed=None,
                backend=None) -> tuple[list[MoveRecord], SessionStats]:
    """Play tester vs adversary to termination (or the move cap).

    Deterministic given the model, the adversary and its seed. Returns the
    full move log and the session statistics.
    """
    if not max_moves >= 1:  # NaN included, before either loop is chosen
        raise SessionError("max_moves must be >= 1")
    # The compiled loop, when the call the Python loop would make to the
    # adversary is a built-in response, bound to this adversary.
    respond = adversary.respond
    draws = COMPILED_RESPONSES.get(getattr(respond, "__func__", None))
    if (draws is not None and respond.__self__ is adversary
            and rank_table.get_engine_class(backend) is ranks.CompiledRankEngine):
        return play_compiled(source, adversary, draws, max_moves, seed)
    gs = GameState(source, backend=backend)
    eng, transcript = gs.eng, gs.transcript
    while True:
        # The table interns every vertex it knows into the engine. The
        # current state is always marked, so it has no tester's edge exactly
        # when it is terminal: its rank is unreachable.
        if not eng.unmarked:
            gs.terminated = ALL_MARKED
            break
        if gs.least is None:
            gs.terminated = UNREACHABLE_REASON
            break
        if len(transcript) >= max_moves:
            gs.terminated = MOVE_CAP
            break
        eid = gs.tester_choose()
        gs.apply_response(eid, respond(gs, eid))
    return transcript, gs.stats(seed=seed)


def compiled_model(decl):
    """`decl` on integers, for the compiled loop: built by the compiled core
    on the first session that needs it and cached on the declaration, as
    `by_head` is."""
    model = decl.__dict__.get("compiled_model")
    if model is None:
        model = decl.__dict__["compiled_model"] = ranks.CompiledRankEngine.compile_model(decl)
    return model


def play_compiled(source, adversary, draws, max_moves, seed):
    """`run_session` in the compiled core, for an adversary whose `respond`
    is a built-in one: `RandomFair`'s, which `draws` through its rng's
    `choice`, or the `Avoider`'s."""
    lazy = isinstance(source, DeclProvider)
    decl = source.decl if lazy else source
    eng = ranks.CompiledRankEngine()
    # The cap as an int the compiled loop takes: no count of moves reaches
    # sys.maxsize, and an int count reaches x when it reaches ceil(x).
    cap = math.ceil(min(max_moves, sys.maxsize))
    transcript, ending, states, virtual_marked, interior_total, interior_covered = eng.play(
        compiled_model(decl), MoveRecord, cap, lazy, adversary.rng.choice if draws else None)
    return transcript, SessionStats(
        states_total=states, states_marked=states - eng.unmarked,
        virtual_marked=virtual_marked, interior_total=interior_total,
        interior_covered=interior_covered, moves=len(transcript),
        work=WorkStats.of(eng), terminated=ENDINGS[ending], lazy=lazy, seed=seed)


def format_trace(transcript) -> str:
    return "".join(m.line() + "\n" for m in transcript)


def format_stats(stats: SessionStats) -> str:
    return json.dumps(stats.to_json(), indent=2, sort_keys=True) + "\n"
