"""Naive round-based rank fixpoint.

This is the reference implementation the incremental engine is checked
against: start everything unreachable and iterate

    edge rank   = max over tail vertex ranks (0 if the tail is empty)
    vertex rank = 1 + min over incident edge ranks

until nothing changes. Unmarked vertices carry an implicit empty-tail
marker edge, which is the base case of the fixpoint. No attention is paid
to performance.
"""

from __future__ import annotations

UNREACHABLE = float("inf")


def oracle_ranks(vertices, edges, marked, include_dead=True):
    """Exact ranks for a graph position.

    vertices: iterable of vertex ids; edges: iterable of Edge (or anything
    with .id/.head/.tail); marked: the set of marked vertices. Edges whose
    head is unmarked are "dead"; with include_dead they still receive ranks
    (they never affect vertex ranks, since an unmarked head keeps rank 1
    through its marker edge). Returns (vertex ranks, edge ranks) dicts.
    """
    vertices = list(vertices)
    marked = set(marked)
    live = [e for e in edges if e.head in marked]
    dead = [e for e in edges if e.head not in marked]
    considered = live + dead if include_dead else live

    vrank = {v: UNREACHABLE for v in vertices}
    erank = {e.id: UNREACHABLE for e in considered}
    for v in vertices:
        if v not in marked:
            vrank[v] = 1  # marker edge of rank 0

    incident = {v: [] for v in vertices}
    for e in live:
        incident[e.head].append(e)

    for _ in range(len(vertices) + len(considered) + 2):
        changed = False
        for e in considered:
            r = 0
            for t in e.tail:
                tr = vrank[t]
                if tr > r:
                    r = tr
            if r < erank[e.id]:
                erank[e.id] = r
                changed = True
        for v in vertices:
            if v in marked:
                best = UNREACHABLE
                for e in incident[v]:
                    er = erank[e.id]
                    if er < best:
                        best = er
                r = 1 + best if best is not UNREACHABLE else UNREACHABLE
                if r < vrank[v]:
                    vrank[v] = r
                    changed = True
        if not changed:
            return vrank, erank
    raise AssertionError("rank fixpoint did not converge")


def oracle_for_decl(decl, marked=None, include_dead=True):
    """Convenience wrapper over a ModelDecl; marked defaults to {initial}."""
    if marked is None:
        marked = {decl.initial}
    return oracle_ranks(decl.vertices, decl.edges, marked, include_dead)
