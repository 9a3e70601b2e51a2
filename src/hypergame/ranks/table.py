"""Session-facing rank table: string ids, work accounting, lazy settlement.

Wraps a dense-index engine backend (pure Python or the compiled core) and
owns the vertex ids. The table plays one declaration, eagerly, or lazily
when it comes wrapped in a `DeclProvider`: it is the only reader of the
declaration's edges in the Python move loop of `engine.run_session`, and
the compiled loop keeps its ids. Marking a vertex makes exactly that
vertex's declared edges live, so the table takes them from
`ModelDecl.by_head`, in id order, and hands them to the engine in one
`mark` call. It keeps, per marked vertex, those edges in that order, so the
position the engine's `ensure` returns for the tester's edge indexes them;
it copies nothing else of the declaration. A session's `engine.GameState`
is a table that also holds the game position; `hypergame rank` uses a bare
table. A table is mutated single-threaded.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

from ..model import Edge
from ..providers import DeclProvider
from . import get_engine_class
from .pure import UNREACH_INT, UNREACHABLE


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

    @classmethod
    def of(cls, e) -> WorkStats:
        """Engine e's counters."""
        return cls(e.relaxations, e.queue_ops, e.live_size, e.markings, e.max_rank, e.flushes)


class RankTable:
    """Vertex/edge ranks for one session's declaration, maintained
    decrementally over the edges its markings have promoted."""

    def __init__(self, source, backend=None):
        """source: a `ModelDecl`, played eagerly, or a `DeclProvider`, whose
        declaration is played lazily. Intern the initial vertex, then, when
        eager, every declared vertex in sorted order; mark the initial
        vertex. A lazy table meets the other vertices as tails of the edges
        it promotes."""
        self.eng = get_engine_class(backend)()
        self.lazy = lazy = isinstance(source, DeclProvider)
        self.decl = decl = source.decl if lazy else source
        known = (decl.initial,) if lazy else (decl.initial, *decl.vertices)
        # Dense ids, in id order.
        self.vid: dict[str, int] = {v: self.eng.add_vertex() for v in dict.fromkeys(known)}
        # Each marked vertex's out-edges, in the order the engine has them;
        # its keys, a live view, are the marked vertices.
        self.out: dict[str, tuple[Edge, ...]] = {}
        self.marked: Set[str] = self.out.keys()
        self.apply_marking(decl.initial)  # the engine's first mark: set-up

    # -- ids ----------------------------------------------------------------

    def live_edge_objects(self) -> list[Edge]:
        """Every live edge, in dense id order."""
        return [e for edges in self.out.values() for e in edges]

    # -- mutations ------------------------------------------------------------

    def apply_marking(self, v: str) -> None:
        """Mark v, promoting its declared edges to live and interning the
        tail vertices the table has not met. ValueError, and no change, if v
        is already marked or not met yet: a session marks only the current
        state's answer, a tail of a live edge."""
        if v in self.out:
            raise ValueError(f"vertex {v} already marked")
        vid = self.vid
        get = vid.get
        head = get(v)
        if head is None:
            raise ValueError(f"vertex {v} is not in the table")
        edges = self.decl.by_head.get(v, ())
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
