"""Session-facing rank table: string ids, work accounting, lazy settlement.

Wraps a dense-index engine backend (pure Python or the compiled core) and
owns the id interning. The table numbers edges itself, 0, 1, 2, ... in the
order it hands them to the engine, which numbers them the same way. A
vertex's out-edges go to the engine in one call when it is marked, sorted
by name, so they are one range of dense ids. One table is bound to one
session and is mutated single-threaded.
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


def _out(value: int) -> float:
    return UNREACHABLE if value >= UNREACH_INT else value


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
        self.vid: dict[str, int] = {}
        self.vertex_names: list[str] = []
        self.edge_names: list[str] = []  # by dense edge id
        self.edges: dict[str, Edge] = {}
        # Each marked vertex's out-edges, as a range of dense edge ids; its
        # keys, a live view, are the marked vertices.
        self.out_ids: dict[str, range] = {}
        self.marked: Set[str] = self.out_ids.keys()

        self._lazy = not known_vertices
        self._intern_vertex(initial)
        for v in known_vertices:
            self._intern_vertex(v)
        self._register_edges(initial, initial_edges, self.eng.set_initial)

    # -- ids ----------------------------------------------------------------

    def _intern_vertex(self, name: str) -> int:
        v = self.vid.get(name)
        if v is None:
            v = self.eng.add_vertex()
            self.vid[name] = v
            self.vertex_names.append(name)
        return v

    def vertex_count(self) -> int:
        return len(self.vertex_names)

    def live_edge_objects(self) -> list[Edge]:
        return [self.edges[name] for name in self.edge_names]

    # -- mutations ------------------------------------------------------------

    def _register_edges(self, head: str, new_edges, engine_mark):
        """Mark head through `engine_mark` (the engine's `mark`, or
        `set_initial` for the initial vertex), handing it head's edges in
        name order; they take the next dense edge ids."""
        edges = sorted(new_edges, key=lambda e: e.id)
        for e in edges:  # before interning, so that a rejected call adds nothing
            if e.head != head:
                raise ValueError(f"edge {e.id} has head {e.head}, expected {head}")
            if e.id in self.edges:
                raise ValueError(f"edge {e.id} already live")
        if self._lazy:
            intern = self._intern_vertex
            tails = [[intern(t) for t in e.tail] for e in edges]
        else:
            vid = self.vid
            tails = [[vid[t] for t in e.tail] for e in edges]
        engine_mark(self.vid[head], tails)
        first = len(self.edge_names)
        self.out_ids[head] = range(first, first + len(edges))
        for e in edges:
            self.edge_names.append(e.id)
            self.edges[e.id] = e

    def apply_marking(self, v: str, new_edges) -> None:
        """Mark v, promoting its edges to live. Lazy sessions meet new
        vertices here, in the new tails."""
        if v in self.marked:
            raise ValueError(f"vertex {v} already marked")
        self._intern_vertex(v)
        self._register_edges(v, new_edges, self.eng.mark)

    # -- queries --------------------------------------------------------------

    def ensure_settled(self, v: str) -> float:
        return _out(self.eng.ensure(self.vid[v]))

    def min_rank_edge(self, v: str) -> tuple[str | None, float]:
        """The lowest-id live edge of least stored rank at the marked vertex
        v, and that rank; (None, UNREACHABLE) when v has no edge."""
        ids = self.out_ids[v]
        if not ids:
            return None, UNREACHABLE
        e = min(ids, key=self.eng.edge_value)
        return self.edge_names[e], _out(self.eng.edge_value(e))

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
