"""Session-facing rank table: string ids, work accounting, lazy settlement.

Wraps a dense-index engine backend (pure Python or the compiled core) and
owns the vertex ids. A vertex's out-edges go to the engine in one `mark`
call when it is marked, in id order as `ModelDecl.by_head` holds them. The
table keeps, per marked vertex, those edges in that order, so the position
the engine's `ensure` returns for the tester's edge indexes them; it copies
nothing else of the declaration. One table is bound to one session and is
mutated single-threaded.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

from ..model import Edge
from .oracle import UNREACHABLE
from . import get_engine_class
from .pure import UNREACH_INT


@dataclass
class WorkStats:
    relaxations: int = 0
    queue_ops: int = 0
    live_size_H_prime: int = 0
    markings_E: int = 0
    max_rank_R: int = 0
    flushes: int = 0  # unreachable sweeps; not in SessionStats.to_json

    @property
    def work(self) -> int:
        return self.relaxations + self.queue_ops


class RankTable:
    """Vertex/edge ranks for one session, maintained decrementally."""

    def __init__(self, initial: str, initial_edges, known_vertices=(), backend=None):
        """initial_edges: the edges incident on the initial vertex (live from
        the start). known_vertices pre-interns the full vertex set for eager
        sessions, whose tails are then only looked up; lazy sessions leave it
        empty and grow on demand.
        """
        engine_cls = get_engine_class(backend)
        self.eng = engine_cls()
        self.vid: dict[str, int] = {}  # in id order
        # Each marked vertex's out-edges, in the order the engine has them;
        # its keys, a live view, are the marked vertices.
        self.out: dict[str, tuple[Edge, ...]] = {}
        self.marked: Set[str] = self.out.keys()

        self._lazy = not known_vertices
        self._intern_vertex(initial)
        for v in known_vertices:
            self._intern_vertex(v)
        self.apply_marking(initial, initial_edges)  # the engine's first mark: set-up

    # -- ids ----------------------------------------------------------------

    def _intern_vertex(self, name: str) -> int:
        v = self.vid.get(name)
        if v is None:
            v = self.eng.add_vertex()
            self.vid[name] = v
        return v

    def vertex_count(self) -> int:
        return len(self.vid)

    def live_edge_objects(self) -> list[Edge]:
        """Every live edge, in dense id order."""
        return [e for edges in self.out.values() for e in edges]

    # -- mutations ------------------------------------------------------------

    def apply_marking(self, v: str, new_edges) -> None:
        """Mark v, promoting its edges, given in id order as
        `ModelDecl.by_head` holds them, to live. Lazy sessions meet new
        vertices here, as v and in the new tails; an eager table rejects a
        vertex it was not given. A rejected call changes nothing."""
        if v in self.out:
            raise ValueError(f"vertex {v} already marked")
        edges = tuple(new_edges)
        for e in edges:
            if e.head != v:
                raise ValueError(f"edge {e.id} has head {e.head}, expected {v}")
        vid = self.vid
        if self._lazy:
            head = self._intern_vertex(v)
            get = vid.get
            add = self.eng.add_vertex
            tails = []
            for e in edges:
                ids = []
                for t in e.tail:
                    i = get(t)
                    if i is None:
                        i = vid[t] = add()
                    ids.append(i)
                tails.append(ids)
        else:
            head = vid.get(v)
            if head is None:
                raise ValueError(f"vertex {v} is not in the table")
            tails = [[vid[t] for t in e.tail] for e in edges]
        self.eng.mark(head, tails)
        self.out[v] = edges

    # -- queries --------------------------------------------------------------

    def ensure_settled(self, v: str) -> tuple[float, Edge | None]:
        """v's exact rank and the tester's edge there: the lowest-id live
        edge of least rank, which is rank - 1. The edge is None when v is
        unmarked or unreachable."""
        r, k = self.eng.ensure(self.vid[v])
        if k >= 0:
            return r, self.out[v][k]
        return (UNREACHABLE if r >= UNREACH_INT else r), None

    def snapshot_work(self) -> WorkStats:
        e = self.eng
        return WorkStats(
            relaxations=e.relaxations,
            queue_ops=e.queue_ops,
            live_size_H_prime=e.live_size,
            markings_E=e.markings,
            max_rank_R=e.max_rank,
            flushes=e.flushes,
        )
