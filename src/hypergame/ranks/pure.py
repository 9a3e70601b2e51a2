"""Pure-Python lazy rank engine.

Maintains vertex/edge ranks under the two game mutations (remove a marker
edge, promote the newly marked vertex's edges) without ever paying for rank
updates beyond the rank actually queried.

Core idea: stored values are lower bounds that only grow. Dirty vertices sit
in a priority queue keyed by their stored value, and the queue is drained in
increasing key order only as far as a query needs. Draining pops a vertex,
recomputes it from its incident live edges, and either certifies the stored
value (recompute equal) or bumps it and notifies exactly the edges whose
maximum it carried, whose heads join the queue at their own stored values.
Anything whose true rank lies beyond the drained frontier is left stale; the
invariant is that every wrong stored value has a dirty witness queued at a
key no larger than it, so values at or below the frontier are always exact.

Edge ranks are maintained eagerly as max-over-tail stored values (an O(1)
update per tail bump); a vertex recompute is 1 + min over its edges. Finite
ranks never exceed the vertex count, so a recompute past that cap proves
unreachability, which is final: edges are only ever added at the vertex
being marked, so lost support never comes back.

Cyclic regions that lose their last well-founded support would otherwise be
detected by ranks creeping up one level per pop, which is quadratic. When a
drain exceeds a live-size work budget, the engine instead recomputes the
reachable (well-founded) set from the unmarked bases in one counter pass
and finalizes everything outside it as unreachable; the sweep is paid for
by the drain work that triggered it, so the total stays within the budget.
"""

from __future__ import annotations

from heapq import heappop, heappush

UNREACH_INT = 1 << 62


class PureRankEngine:
    """Dense-index rank engine; the RankTable wrapper owns string ids."""

    backend = "pure"

    def __init__(self):
        self.vstored: list[int] = []
        self.vdirty: list[bool] = []
        self.vmarked: list[bool] = []
        self.out_edges: list[list[int]] = []   # live edges with head v
        self.tail_edges: list[list[int]] = []  # live edges with v in tail
        self.estored: list[int] = []
        self.ehead: list[int] = []
        self.etail_count: list[int] = []
        self.heap: list[tuple[int, int]] = []
        self.unmarked = 0
        self.relaxations = 0
        self.queue_ops = 0
        self.live_size = 0
        self.markings = 0
        self.max_rank = 0
        self.flushes = 0

    @property
    def all_unreachable(self):
        # No unmarked vertex means no empty-tail base: nothing is reachable.
        # Lazy growth can only add unmarked vertices inside the marking call
        # itself, so once this holds at a query it holds forever.
        return self.unmarked == 0

    # -- construction ------------------------------------------------------

    def add_vertex(self) -> int:
        v = len(self.vstored)
        self.vstored.append(1)  # marker edge support
        self.vdirty.append(False)
        self.vmarked.append(False)
        self.out_edges.append([])
        self.tail_edges.append([])
        self.unmarked += 1
        self.live_size += 1  # the marker edge itself
        return v

    def set_initial(self, v: int) -> None:
        self._vertex(v)
        if self.vmarked[v]:
            raise ValueError("vertex already marked")
        self.vmarked[v] = True
        self.unmarked -= 1
        self.live_size -= 1
        self.vdirty[v] = True
        self._push(self.vstored[v], v)

    def reset_work(self) -> None:
        """Zero the work counters after construction; live size is kept."""
        self.relaxations = 0
        self.queue_ops = 0
        self.flushes = 0

    # -- mutations ---------------------------------------------------------

    def mark(self, v: int, tail_lists) -> list[int]:
        """Mark v: drop its marker edge and promote its own edges to live.

        tail_lists is a sequence of tail-vertex index tuples; returns the
        dense edge ids assigned. Must not be the initial vertex or already
        marked. Checks every index before it changes anything.
        """
        self._vertex(v)
        if self.vmarked[v]:
            raise ValueError("vertex already marked")
        eids = self._register(v, tail_lists)
        self.vmarked[v] = True
        self.unmarked -= 1
        self.markings += 1
        # Losing the marker edge invalidates v; its old value stays as a
        # lower bound and the queue drains it on demand.
        if not self.vdirty[v]:
            self.vdirty[v] = True
            self._push(self.vstored[v], v)
        return eids

    def add_initial_edges(self, v: int, tail_lists) -> list[int]:
        self._vertex(v)
        return self._register(v, tail_lists)

    def _register(self, v, tail_lists):
        tail_lists = [tuple(tails) for tails in tail_lists]
        for tails in tail_lists:
            for t in tails:
                self._vertex(t)
        out = self.out_edges[v]
        eids = []
        for tails in tail_lists:
            e = len(self.estored)
            best = 1
            for t in tails:
                s = self.vstored[t]
                if s > best:
                    best = s
                self.tail_edges[t].append(e)
            self.estored.append(best)
            self.ehead.append(v)
            self.etail_count.append(len(tails))
            out.append(e)
            self.live_size += 1 + len(tails)
            eids.append(e)
        return eids

    # -- queries -----------------------------------------------------------

    def ensure(self, v: int) -> int:
        """Drain until v's rank is certified exact; returns it (UNREACH_INT
        when unreachable). Repeat calls without mutations do no relaxation.
        """
        self._vertex(v)
        if self.all_unreachable:
            return UNREACH_INT
        pops = 0
        budget = self.live_size + len(self.vstored) + 64
        while True:
            if not self.vdirty[v]:
                s = self.vstored[v]
                if s == UNREACH_INT:
                    break
                mk = self._peek()
                if mk is None or mk >= s:
                    break
            self._step()
            pops += 1
            if pops >= budget:
                self._flush_unreachable()
                pops = 0
        r = self.vstored[v]
        if r != UNREACH_INT and r > self.max_rank:
            self.max_rank = r
        return r

    def drain(self, threshold: int) -> None:
        """Process every pending item whose key is <= threshold."""
        if self.all_unreachable:
            return
        pops = 0
        budget = self.live_size + len(self.vstored) + 64
        while True:
            mk = self._peek()
            if mk is None or mk > threshold:
                return
            self._step()
            pops += 1
            if pops >= budget:
                self._flush_unreachable()
                pops = 0

    def frontier(self) -> int:
        """Largest rank value below which every stored value is exact."""
        if self.all_unreachable:
            return UNREACH_INT
        mk = self._peek()
        return UNREACH_INT if mk is None else mk - 1

    def vertex_value(self, v: int) -> int:
        self._vertex(v)
        if self.all_unreachable:
            return UNREACH_INT
        return self.vstored[v]

    def vertex_exact(self, v: int) -> bool:
        self._vertex(v)
        if self.all_unreachable:
            return True
        if self.vdirty[v]:
            return False
        s = self.vstored[v]
        if s == UNREACH_INT:
            return True
        mk = self._peek()
        return mk is None or mk >= s

    def edge_value(self, e: int) -> int:
        self._edge(e)
        if self.all_unreachable:
            return UNREACH_INT
        return self.estored[e]

    def edge_exact(self, e: int) -> bool:
        self._edge(e)
        if self.all_unreachable:
            return True
        s = self.estored[e]
        if s == UNREACH_INT:
            return True
        mk = self._peek()
        return mk is None or mk > s

    # -- internals ---------------------------------------------------------

    # Python lists would take a negative index from the end; the compiled
    # core has no wraparound, so both reject any index outside 0..n-1.
    def _vertex(self, v):
        if not 0 <= v < len(self.vstored):
            raise IndexError(f"vertex index {v} out of range")

    def _edge(self, e):
        if not 0 <= e < len(self.estored):
            raise IndexError(f"edge index {e} out of range")

    def _push(self, key, v):
        self.queue_ops += 1
        heappush(self.heap, (key, v))

    def _peek(self):
        heap = self.heap
        while heap:
            key, v = heap[0]
            if self.vdirty[v] and key == self.vstored[v]:
                return key
            heappop(heap)  # stale entry
            self.queue_ops += 1
        return None

    def _step(self):
        key, y = heappop(self.heap)
        self.queue_ops += 1
        if not self.vdirty[y] or key != self.vstored[y]:
            return
        self.relaxations += 1
        cap = len(self.vstored)
        best = UNREACH_INT
        for e in self.out_edges[y]:
            s = self.estored[e]
            if s < best:
                best = s
        c = best + 1 if best != UNREACH_INT else UNREACH_INT
        if c > cap:
            c = UNREACH_INT
        if c == key:
            self.vdirty[y] = False
            return
        if c < key:
            raise AssertionError("stored ranks are nondecreasing")
        self.vstored[y] = c
        if c == UNREACH_INT:
            self.vdirty[y] = False  # unreachability is final
        else:
            self._push(c, y)
        # Notify edges whose maximum y carried; their heads re-enter the
        # queue at their own stored values.
        for e in self.tail_edges[y]:
            old = self.estored[e]
            if c > old:
                self.estored[e] = c
                self.relaxations += 1
                d = self.ehead[e]
                if not self.vdirty[d] and self.vstored[d] == old + 1:
                    self.vdirty[d] = True
                    self._push(self.vstored[d], d)

    def _flush_unreachable(self):
        """Recompute the well-founded reachable set (counter pass from the
        unmarked bases over live edges) and finalize everything outside it,
        purging rank-creep from the queue."""
        self.flushes += 1
        n = len(self.vstored)
        good = [not m for m in self.vmarked]
        cnt = list(self.etail_count)
        stack = [v for v in range(n) if good[v]]
        self.relaxations += n
        while stack:
            v = stack.pop()
            for e in self.tail_edges[v]:
                cnt[e] -= 1
                self.relaxations += 1
                if cnt[e] == 0:
                    h = self.ehead[e]
                    if not good[h]:
                        good[h] = True
                        stack.append(h)
        self.relaxations += len(self.estored)
        for v in range(n):
            if not good[v] and self.vstored[v] != UNREACH_INT:
                self.vstored[v] = UNREACH_INT
                self.vdirty[v] = False
        for e in range(len(self.estored)):
            old = self.estored[e]
            if cnt[e] > 0 and old != UNREACH_INT:
                self.estored[e] = UNREACH_INT
                d = self.ehead[e]
                if good[d] and not self.vdirty[d] and self.vstored[d] == old + 1:
                    self.vdirty[d] = True
                    self._push(self.vstored[d], d)
