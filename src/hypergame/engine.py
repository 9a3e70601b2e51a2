"""The testing game: session state, the min-rank tester strategy, system
responses, termination detection, and transcript/stats emission.

A session plays one `ModelDecl`, eagerly or, through a `DeclProvider`,
lazily. It looks edges up in the declaration's `by_id` index; its
`RankTable` holds ranks, dense ids and each marked vertex's edges, and
copies nothing else of the declaration.

A session stops in exactly one of three ways: every known state is marked,
the current state is unreachable (the system can avoid all further
coverage), or the move budget ran out.
"""

from __future__ import annotations

import json
from collections.abc import Set
from dataclasses import dataclass, field

from .model import ModelDecl
from .providers import DeclProvider
from .ranks import UNREACHABLE, RankTable
from .ranks.table import WorkStats

ALL_MARKED = "all_marked"
UNREACHABLE_REASON = "unreachable"
MOVE_CAP = "move_cap"


class SessionError(Exception):
    pass


class AdversaryProtocolError(SessionError):
    """The simulated system returned an illegal response."""


@dataclass(frozen=True)
class MoveRecord:
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
    max_rank_R: int = 0
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


class GameState:
    """One testing-game position with its rank table and statistics."""

    def __init__(self, source, backend=None):
        """The starting position: the initial vertex marked and current, its
        edges live, its rank settled. source: a declaration, which is played
        eagerly, or a `DeclProvider`, which chooses lazy or eager play."""
        if isinstance(source, ModelDecl):
            source = DeclProvider(source, lazy=False)
        self.source = source
        self.decl = decl = source.decl
        self.by_id = decl.by_id  # read per move; cheaper than the cached property
        self.lazy = source.lazy
        known = () if self.lazy else decl.vertices
        self.table = RankTable(decl.initial, source.expand(decl.initial),
                               known_vertices=known, backend=backend)
        self.current = decl.initial
        self.moves = 0
        self.transcript: list[MoveRecord] = []
        self.interior_covered: set[str] = set()
        self.terminated: str | None = None
        self.rank = self.table.ensure_settled(self.current)  # of current; set per move

    # -- accessors -----------------------------------------------------------

    @property
    def marked(self) -> Set[str]:
        return self.table.marked

    @property
    def coverage(self) -> int:
        return len(self.marked) + len(self.interior_covered)

    def states_total(self) -> int:
        return self.table.vertex_count()

    def all_marked(self) -> bool:
        return len(self.marked) == self.table.vertex_count()

    def edge(self, eid: str):
        """The live edge `eid`: one whose head is marked. KeyError if there
        is none."""
        e = self.by_id[eid]
        if e.head not in self.table.marked:
            raise KeyError(eid)
        return e

    def is_terminal(self) -> bool:
        return self.rank == UNREACHABLE

    # -- moves ----------------------------------------------------------------

    def tester_choose(self) -> str:
        """The strategy: a minimal-rank live edge at the current state, ties
        broken by edge id. Its rank is rank(current) - 1 by definition."""
        r = self.rank
        if r == UNREACHABLE:
            raise SessionError("tester_choose on a terminal state")
        eid, er = self.table.min_rank_edge(self.current)
        if er != r - 1:
            raise SessionError(f"min edge rank at {self.current} is {er}, "
                               f"expected rank(current) - 1 = {r - 1}")
        return eid

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
        rank_before = self.rank
        newly = v not in self.marked
        self.moves += 1
        self.transcript.append(
            MoveRecord(self.moves, self.current, eid, v, newly,
                       int(rank_before) if rank_before != UNREACHABLE else -1)
        )
        if newly:
            self.table.apply_marking(v, self.source.expand(v))
        for i in e.interior:
            self.interior_covered.add(i)
        self.current = v
        self.rank = self.table.ensure_settled(v)

    # -- reporting -------------------------------------------------------------

    def interior_total(self) -> int:
        # An eager session's live edges are a subset of its declaration's.
        edges = self.table.live_edge_objects() if self.lazy else self.decl.edges
        return len({i for e in edges for i in e.interior})

    def stats(self, seed=None) -> SessionStats:
        w = self.table.snapshot_work()
        return SessionStats(
            states_total=self.states_total(),
            states_marked=len(self.marked),
            virtual_marked=len(self.marked & self.decl.virtual_vertices),
            interior_total=self.interior_total(),
            interior_covered=len(self.interior_covered),
            moves=self.moves,
            max_rank_R=w.max_rank_R,
            work=w,
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
    if max_moves < 1:
        raise SessionError("max_moves must be >= 1")
    gs = GameState(source, backend=backend)
    while True:
        if gs.all_marked():
            gs.terminated = ALL_MARKED
            break
        if gs.is_terminal():
            gs.terminated = UNREACHABLE_REASON
            break
        if gs.moves >= max_moves:
            gs.terminated = MOVE_CAP
            break
        eid = gs.tester_choose()
        gs.apply_response(eid, adversary.respond(gs, eid))
    return gs.transcript, gs.stats(seed=seed)


def format_trace(transcript) -> str:
    return "".join(m.line() + "\n" for m in transcript)


def format_stats(stats: SessionStats) -> str:
    return json.dumps(stats.to_json(), indent=2, sort_keys=True) + "\n"
