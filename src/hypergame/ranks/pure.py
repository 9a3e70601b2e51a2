"""Pure-Python lazy rank engine.

Maintains vertex/edge ranks under the two game mutations (remove a marker
edge, promote the newly marked vertex's edges) without ever paying for rank
updates beyond the rank actually queried.

Core idea: stored values are lower bounds that only grow. Dirty vertices sit
in a priority queue keyed by their stored value, and the queue is drained in
increasing key order only as far as a query needs. Draining pops a vertex,
recomputes it from its incident live edges, and either certifies the stored
value (recompute equal) or bumps it and raises the edges whose maximum it
now carries. Raising an edge (`_raise_edge`, also the unreachable flush's one
way to change an edge) puts its head back into the queue, at the head's own
stored value, only when the edge's old value carried it.
Anything whose true rank lies beyond the drained frontier is left stale; the
invariant is that every wrong stored value has a dirty witness queued at a
key no larger than it, so values at or below the frontier are always exact.

Edge ranks are maintained eagerly as max-over-tail stored values (an O(1)
update per tail bump); a vertex recompute is 1 + min over its edges. A
finite rank r is at most |marked| + 1: from a vertex of rank r, least-rank
edges lead down one rank per step, and every vertex of rank 2 or more on
the way is marked, so the walk meets r - 1 distinct marked vertices. A
recompute past that cap therefore proves unreachability, which is final:
edges are only ever added at the vertex being marked, so lost support never
comes back, and the cap only grows.

Cyclic regions that lose their last well-founded support would otherwise be
detected by ranks creeping up one level per pop, which is quadratic. Each
`ensure` call has a budget of live_size + n + 64 work units, a unit being
one relaxation or one queue op. That is about what one counter pass costs
in the same units: n for the bases, at most live_size for the live edges
and their tail entries. Once the work the call has done since its start or
its last flush reaches the budget, the engine recomputes the reachable
(well-founded) set from the unmarked bases in one counter pass (Dowling and
Gallier, 1984) and finalizes everything outside it as unreachable. The
sweep thus costs about as much as the drain that paid for it, so a flushing
call does at most about twice the work of its drains: creep while creeping
is the cheaper choice, sweep once creeping has cost as much as a sweep.

The paper bounds a session's total work, relaxations plus queue ops, by
E + R*H'. E is the number of marked states, the initial vertex included
(`SessionStats.states_marked`, which `hypergame bench` takes as E), R the
largest rank queried (`max_rank`) and H' the live size (`live_size`).
"""

from __future__ import annotations

from heapq import heappop, heappush

# The rank of a vertex from which the system can keep the tester off every
# unmarked vertex: UNREACH_INT inside the engines, UNREACHABLE above them.
UNREACHABLE = float("inf")
UNREACH_INT = 1 << 62


class PureRankEngine:
    """Dense-index rank engine; the RankTable wrapper owns string ids.

    The engine protocol, which the compiled engine (`_native.cpp`) implements
    with the same results and counters, has four methods:

    - `add_vertex() -> int`: a new unmarked vertex, ids 0, 1, 2, ...;
    - `mark(v, tail_lists)`: mark v and register its out-edges. The first
      call on an engine (no vertex marked yet) marks the initial vertex:
      that is set-up, so it counts no work, and its marker edge leaves the
      live size;
    - `ensure(v) -> (rank, k)`: drain until v's rank is exact, and return
      it with the tester's edge: the position k, within v's out-edges, of
      the first one of rank `rank - 1` (-1 when v is unmarked or its rank
      is unreachable). A finite rank with no such edge breaks the engine's
      invariant and raises AssertionError;
    - `snapshot() -> dict`: plain copies of `vstored`, `vdirty`, `vmarked`
      (by vertex id) and `estored` (by edge id), for tests; it changes no
      counter.

    Read-only counters: `unmarked`, `relaxations`, `queue_ops`, `live_size`,
    `max_rank` and `flushes`; `backend` names the backend.

    The compiled engine also has a session entry point, with no pure twin:
    `compile_model(decl, Edge)` gives a declaration on integers, and `play`
    plays a whole session of `engine.run_session` on a fresh engine for the
    built-in adversaries, through the same `mark` and `ensure` internals.
    The Python loop of `run_session`, over the four methods above, is its
    reference, and plays every other session on either backend.

    `tail_lists` holds one sequence of tail-vertex ids per edge. Edge ids
    are handed out 0, 1, 2, ... in call order. A vertex's out-edges all
    arrive in one `mark` call, which rejects an already-marked vertex
    (ValueError), so they are one id range, `efirst[v]` up to
    `efirst[v] + ecount[v]`, and k counts from its start. Every method
    checks each index it is given (IndexError) before it changes anything.
    Ranks are ints, and UNREACH_INT stands for "unreachable".

    The queue pops its entries (key, vertex) in increasing pair order, as
    heapq orders the tuples here. Stale entries (the vertex is clean, or
    its stored value moved) and repeated ones stay in it until popped, and
    every push and pop counts one queue op. The compiled core's bucket
    queue, which sorts each key's entries once, when it reaches that key,
    keeps that order and those entries, so the counters agree.

    Tests derive exactness from a snapshot. Every dirty vertex has a live
    queue entry at its stored value, so the queue minimum is the smallest
    stored value of a dirty vertex (none: no bound). A clean vertex is exact
    when its value is unreachable or at most that minimum, an edge when its
    value is unreachable or below it; once `unmarked` is 0, every value is
    unreachable.
    """

    backend = "pure"

    def __init__(self):
        self.vstored: list[int] = []
        self.vdirty: list[bool] = []
        self.vmarked: list[bool] = []
        # The out-edges of v are the ids efirst[v] .. efirst[v] + ecount[v] - 1.
        self.efirst: list[int] = []
        self.ecount: list[int] = []
        self.tail_edges: list[list[int]] = []  # live edges with v in tail
        self.estored: list[int] = []
        self.ehead: list[int] = []
        self.etail_count: list[int] = []
        self.heap: list[tuple[int, int]] = []
        self.unmarked = 0
        self.relaxations = 0
        self.queue_ops = 0
        self.live_size = 0
        self.max_rank = 0
        self.flushes = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self) -> int:
        v = len(self.vstored)
        self.vstored.append(1)  # marker edge support
        self.vdirty.append(False)
        self.vmarked.append(False)
        self.efirst.append(0)
        self.ecount.append(0)
        self.tail_edges.append([])
        self.unmarked += 1
        self.live_size += 1  # the marker edge itself
        return v

    # -- mutations ---------------------------------------------------------

    def mark(self, v: int, tail_lists) -> None:
        """Mark v: drop its marker edge and promote its own edges to live.
        On an engine with no vertex marked yet, v is the initial vertex."""
        self._vertex(v)
        if self.vmarked[v]:
            raise ValueError("vertex already marked")
        tail_lists = [tuple(tails) for tails in tail_lists]
        for tails in tail_lists:
            for t in tails:
                self._vertex(t)
        initial = self.unmarked == len(self.vstored)
        self.vmarked[v] = True
        self.unmarked -= 1
        # Losing the marker edge invalidates v; its old value stays as a
        # lower bound and the queue drains it on demand. v is clean: only
        # marked vertices are ever dirty.
        self.vdirty[v] = True
        if initial:
            self.live_size -= 1
            heappush(self.heap, (self.vstored[v], v))
        else:
            self._push(self.vstored[v], v)
        self.efirst[v] = len(self.estored)
        self.ecount[v] = len(tail_lists)
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
            self.live_size += 1 + len(tails)

    # -- queries -----------------------------------------------------------

    def ensure(self, v: int) -> tuple[int, int]:
        """Drain until v's rank is certified exact; returns it (UNREACH_INT
        when unreachable) and the position among v's out-edges of the first
        one of rank `rank - 1`, or -1. Repeat calls without mutations do no
        relaxation.

        After each queue step, once the work done since the call's start or
        its last flush reaches live_size + n + 64, the call flushes: the
        counter pass it then pays for costs about that budget, so the call
        spends at most about twice its drain work.
        """
        self._vertex(v)
        # No unmarked vertex means no empty-tail base: nothing is reachable.
        # Lazy growth adds unmarked vertices only inside a marking call, so
        # once this holds at a query it holds forever.
        if self.unmarked == 0:
            return UNREACH_INT, -1
        budget = self.live_size + len(self.vstored) + 64
        paid = self.relaxations + self.queue_ops
        while True:
            if not self.vdirty[v]:
                s = self.vstored[v]
                if s == UNREACH_INT:
                    break
                mk = self._peek()
                if mk is None or mk >= s:
                    break
            self._step()
            if self.relaxations + self.queue_ops - paid >= budget:
                self._flush_unreachable()
                paid = self.relaxations + self.queue_ops
        r = self.vstored[v]
        if r == UNREACH_INT:
            return r, -1
        if r > self.max_rank:
            self.max_rank = r
        if not self.vmarked[v]:
            return r, -1
        # An exact finite rank r is 1 + the least out-edge value, and those
        # values lie below the frontier, so they are exact too.
        first = self.efirst[v]
        for k, value in enumerate(self.estored[first:first + self.ecount[v]]):
            if value == r - 1:
                return r, k
        raise AssertionError(f"no out-edge of vertex {v} has rank {r - 1}")

    def snapshot(self) -> dict:
        """Plain copies of the stored vertex values, dirty and marked flags
        and stored edge values; changes no counter and leaves the queue."""
        return {"vstored": list(self.vstored), "vdirty": list(self.vdirty),
                "vmarked": list(self.vmarked), "estored": list(self.estored)}

    # -- internals ---------------------------------------------------------

    # Python lists would take a negative index from the end; the compiled
    # core has no wraparound, so both reject any index outside 0..n-1.
    def _vertex(self, v):
        if not 0 <= v < len(self.vstored):
            raise IndexError(f"vertex index {v} out of range")

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
        cap = len(self.vstored) - self.unmarked + 1
        first = self.efirst[y]
        best = min(self.estored[first:first + self.ecount[y]], default=UNREACH_INT)
        c = best + 1
        if c > cap:  # UNREACH_INT + 1 is past it too
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
        for e in self.tail_edges[y]:
            if c > self.estored[e]:  # y now carries e's maximum
                self._raise_edge(e, c)
                self.relaxations += 1

    def _raise_edge(self, e, value):
        """Raise edge e's stored value to `value`; a clean head whose value
        the old edge value carried (head = old + 1) goes back into the queue."""
        d = self.ehead[e]
        old = self.estored[e]
        self.estored[e] = value
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
        # A head outside the good set is UNREACH_INT by now, which no finite
        # old + 1 equals, so only good heads are re-dirtied.
        for e in range(len(self.estored)):
            if cnt[e] > 0 and self.estored[e] != UNREACH_INT:
                self._raise_edge(e, UNREACH_INT)
