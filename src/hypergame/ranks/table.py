"""Session-facing rank table: string ids, work accounting, lazy settlement.

Wraps a dense-index engine backend (pure Python or the compiled core) and
owns the id interning. One table is bound to one session and is mutated
single-threaded.
"""

from __future__ import annotations

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
        sessions; lazy sessions leave it empty and grow on demand.
        """
        engine_cls = get_engine_class(backend)
        self.eng = engine_cls()
        self.vid: dict[str, int] = {}
        self.vertex_names: list[str] = []
        self.eid: dict[str, int] = {}
        self.edge_names: list[str] = []
        self.edges: dict[str, Edge] = {}
        self.by_head: dict[str, list[str]] = {}
        self.marked: set[str] = set()
        self.initial = initial

        self._intern_vertex(initial)
        for v in known_vertices:
            self._intern_vertex(v)
        self._register_edges(initial, initial_edges, self.eng.set_initial)
        self.marked.add(initial)
        self.eng.reset_work()

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

    def incident_ids(self, v: str) -> list[str]:
        """Live edge ids with head v, in id order (they arrive sorted,
        all at once, when v is marked)."""
        return self.by_head.get(v, [])

    # -- mutations ------------------------------------------------------------

    def _register_edges(self, head: str, new_edges, engine_mark):
        """Hand head's edges to `engine_mark` (the engine's `mark`, or
        `set_initial` for the initial vertex) in id order."""
        new_vertices = []
        tail_lists = []
        edges = sorted(new_edges, key=lambda e: e.id)
        for e in edges:
            if e.head != head:
                raise ValueError(f"edge {e.id} has head {e.head}, expected {head}")
            if e.id in self.eid:
                raise ValueError(f"edge {e.id} already live")
            tails = []
            for t in e.tail:
                if t not in self.vid:
                    new_vertices.append(t)
                tails.append(self._intern_vertex(t))
            tail_lists.append(tuple(tails))
        dense = engine_mark(self.vid[head], tail_lists)
        for e, d in zip(edges, dense):
            if d != len(self.edge_names):
                raise RuntimeError(f"engine gave edge {e.id} id {d}, "
                                   f"expected {len(self.edge_names)}")
            self.eid[e.id] = d
            self.edge_names.append(e.id)
            self.edges[e.id] = e
        self.by_head.setdefault(head, []).extend(e.id for e in edges)
        return new_vertices

    def apply_marking(self, v: str, new_edges) -> list[str]:
        """Mark v, promoting its edges to live. Returns vertices first seen
        in the new tails (lazy sessions grow here)."""
        if v == self.initial or v in self.marked:
            raise ValueError(f"vertex {v} already marked")
        self._intern_vertex(v)
        new_vertices = self._register_edges(v, new_edges, self.eng.mark)
        self.marked.add(v)
        return new_vertices

    # -- queries --------------------------------------------------------------

    def ensure_settled(self, v: str) -> float:
        return _out(self.eng.ensure(self.vid[v]))

    def edge_rank(self, eid: str) -> float:
        return _out(self.eng.edge_value(self.eid[eid]))

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

    @property
    def backend(self) -> str:
        return self.eng.backend

