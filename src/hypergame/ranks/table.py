"""Session-facing rank table: string ids, work accounting, lazy settlement.

Wraps a dense-index engine backend (pure Python or the compiled core) and
owns the vertex ids. Edges are numbered 0, 1, 2, ... in the order they go to
the engine, which numbers them the same way. A vertex's out-edges go to the
engine in one call when it is marked, in id order as `ModelDecl.by_head`
holds them, so they are one range of dense ids. The table keeps, per marked
vertex, that range and the edges themselves; it copies nothing else of the
declaration. One table is bound to one session and is
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
        self.vid: dict[str, int] = {}  # in id order
        # Each marked vertex's range of dense edge ids and its out-edges, in
        # the same order; its keys, a live view, are the marked vertices.
        self.out: dict[str, tuple[range, tuple[Edge, ...]]] = {}
        self.marked: Set[str] = self.out.keys()
        self._edge_count = 0

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
        return v

    def vertex_count(self) -> int:
        return len(self.vid)

    def live_edge_objects(self) -> list[Edge]:
        """Every live edge, in dense id order."""
        return [e for _, edges in self.out.values() for e in edges]

    # -- mutations ------------------------------------------------------------

    def _register_edges(self, head: str, edges, engine_mark):
        """Mark head through `engine_mark` (the engine's `mark`, or
        `set_initial` for the initial vertex), handing it head's edges in id
        order, as `ModelDecl.by_head` holds them; they take the next dense
        edge ids."""
        edges = tuple(edges)
        for e in edges:  # before interning, so that a rejected call adds nothing
            if e.head != head:
                raise ValueError(f"edge {e.id} has head {e.head}, expected {head}")
        if self._lazy:
            intern = self._intern_vertex
            tails = [[intern(t) for t in e.tail] for e in edges]
        else:
            vid = self.vid
            tails = [[vid[t] for t in e.tail] for e in edges]
        engine_mark(self.vid[head], tails)
        first = self._edge_count
        self._edge_count += len(edges)
        self.out[head] = (range(first, self._edge_count), edges)

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
        ids, edges = self.out[v]
        if not edges:
            return None, UNREACHABLE
        value = self.eng.edge_value
        e = min(ids, key=value)
        return edges[e - ids.start].id, _out(value(e))

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
