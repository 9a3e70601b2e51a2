"""Model-to-model rewrites: self-loop breaking, edge/branch coverage
reductions to state coverage, and chain compression.

All four are pure functions decl -> (decl', report). Fresh ids are derived
from the rewritten construct with dotted suffixes and checked against every
existing id, so they can be serialized and re-parsed like any other id.
When several rewrites are requested they compose in a fixed order:
break-self-loops, then a coverage transform, then compress-chains. The two
coverage transforms name their waypoints and share one rewrite, `_waypoints`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain

from . import model
from .model import Edge, ModelDecl, VIRTUAL


@dataclass
class TransformReport:
    added_vertices: list[str] = field(default_factory=list)
    added_edges: list[str] = field(default_factory=list)
    rewritten_edges: list[str] = field(default_factory=list)
    interior_map: dict[str, list[str]] = field(default_factory=dict)

    def merge(self, other: "TransformReport") -> None:
        self.added_vertices.extend(other.added_vertices)
        self.added_edges.extend(other.added_edges)
        self.rewritten_edges.extend(other.rewritten_edges)
        self.interior_map.update(other.interior_map)

    def to_json(self) -> dict:
        return asdict(self)


class _Fresh:
    """Deterministic fresh-id generation: dotted candidate, then numeric
    suffixes until it collides with nothing."""

    def __init__(self, decl: ModelDecl):
        self.used = set(decl.vertices)
        self.used.update(e.id for e in decl.edges)

    def take(self, candidate: str) -> str:
        name = candidate
        i = 2
        while name in self.used:
            name = f"{candidate}.{i}"
            i += 1
        self.used.add(name)
        return name


def break_self_loops(decl: ModelDecl) -> tuple[ModelDecl, TransformReport]:
    """Make edges with head in tail usable.

    An edge e: h -> T with h in T is split into a failure edge (same id,
    h -> {v_e}) plus, when T has other members, a success edge h -> T - {h};
    a return edge v_e -> {h} closes the loop. The success edge behaves as if
    the failure were impossible, and marking v_e records that the failing
    case was hit. The failure edge keeps the original id so that, at equal
    rank, the tester tries the failure case before committing to the
    success path (both lead to unmarked states initially).
    """
    report = TransformReport()
    fresh = _Fresh(decl)
    edges = []
    for e in decl.edges:
        if e.head not in e.tail:
            edges.append(e)
            continue
        v_e = fresh.take(f"{e.head}.L.{e.id}")
        report.added_vertices.append(v_e)
        report.rewritten_edges.append(e.id)
        rest = tuple(t for t in e.tail if t != e.head)
        if rest:
            ok_id = fresh.take(f"{e.id}.L.ok")
            edges.append(Edge(ok_id, e.head, rest, kind=VIRTUAL, label=e.label))
            report.added_edges.append(ok_id)
        edges.append(Edge(e.id, e.head, (v_e,), kind=e.kind, label=e.label,
                          interior=e.interior))
        ret_id = fresh.take(f"{e.id}.L.ret")
        edges.append(Edge(ret_id, v_e, (e.head,), kind=VIRTUAL))
        report.added_edges.append(ret_id)
    if not report.rewritten_edges:
        return decl, report
    return decl.with_edges(edges, added_virtual=report.added_vertices), report


def edge_coverage_transform(decl: ModelDecl) -> tuple[ModelDecl, TransformReport]:
    """State coverage of the inserted waypoint vertices equals edge coverage
    of the input: each edge e: h -> T becomes h -> {w_e} -> T."""
    report = TransformReport()
    take = _Fresh(decl).take
    for e in decl.edges:
        report.added_vertices.append(take(f"{e.id}.E"))
        report.added_edges.append(take(f"{e.id}.E2"))
    return _waypoints(decl, report, [(w,) for w in report.added_vertices],
                      [e.tail for e in decl.edges])


def branch_coverage_transform(decl: ModelDecl) -> tuple[ModelDecl, TransformReport]:
    """One waypoint per (edge, outcome): marking w_{e,t} means outcome t of
    stimulus e was observed at least once. The system still picks the
    outcome, now among the waypoints."""
    report = TransformReport()
    take = _Fresh(decl).take
    ws, out_tails, tails = report.added_vertices, [], []
    for e in decl.edges:
        first = len(ws)
        for t in sorted(e.tail):
            ws.append(take(f"{e.id}.B.{t}"))
            report.added_edges.append(take(f"{e.id}.B2.{t}"))
            out_tails.append((t,))
        tails.append(tuple(ws[first:]))
    return _waypoints(decl, report, tails, out_tails)


def _waypoints(decl, report, tails, out_tails):
    """The coverage rewrite, once `report` names the waypoints and their
    out-edges: each edge of `decl` keeps its id, head, kind, label and
    interior and takes the matching one of `tails`, its waypoints, as its
    tail; waypoint `report.added_vertices[i]` heads the virtual edge
    `report.added_edges[i]` into `out_tails[i]`. A model with no edges is
    returned as it is."""
    edges = decl.edges
    if not edges:
        return decl, report
    report.rewritten_edges = [e.id for e in edges]
    ws = report.added_vertices
    new = model.build_edges(report.rewritten_edges, [e.head for e in edges], tails,
                            [e.kind for e in edges], [e.label for e in edges],
                            [e.interior for e in edges])
    new += model.build_edges(report.added_edges, ws, out_tails, [VIRTUAL] * len(ws))
    return decl.with_edges(new, added_virtual=ws), report


def compress_chains(decl: ModelDecl) -> tuple[ModelDecl, TransformReport]:
    """Collapse maximal singleton-tail chains h -> v1 -> ... -> t (interiors
    non-initial, degree exactly one on both sides, length >= 2 edges) into a
    single edge h -> {t} that remembers the interiors; they are credited as
    covered whenever the edge fires. Chains closing a loop (t == h) are left
    alone, since the compressed edge would be a self-loop."""
    in_tail: dict[str, list[Edge]] = {v: [] for v in decl.vertices}
    for e in decl.edges:
        for t in e.tail:
            in_tail[t].append(e)

    def interior_ok(v):
        out = decl.by_head.get(v, ())
        return (
            v != decl.initial
            and len(out) == 1
            and len(in_tail[v]) == 1
            and len(in_tail[v][0].tail) == 1
            and len(out[0].tail) == 1
            and not in_tail[v][0].interior
            and not out[0].interior
        )

    interiors = {v for v in decl.vertices if interior_ok(v)}
    report = TransformReport()
    if not interiors:
        return decl, report

    fresh = _Fresh(decl)
    new_edges: list[Edge] = []
    # Walk each maximal chain from its head (the unique predecessor of the
    # first interior that is not itself an interior).
    for v in sorted(interiors):
        pred = in_tail[v][0]
        if pred.head in interiors:
            continue  # not the first interior of its chain
        chain_vertices = []
        chain_edges = [pred]
        cur = v
        # The walk meets no vertex twice, so it ends at a vertex that is no
        # interior, and only `cur == pred.head` closes a loop: an interior
        # has exactly one in-edge and v's comes from pred.head, which is no
        # interior, so the walk cannot enter a ring of interiors.
        while cur in interiors:
            chain_vertices.append(cur)
            nxt = decl.by_head[cur][0]
            chain_edges.append(nxt)
            cur = nxt.tail[0]
        if cur == pred.head:
            continue
        eid = fresh.take(f"{chain_edges[0].id}.C")
        new_edges.append(Edge(eid, pred.head, (cur,), kind=VIRTUAL,
                              interior=tuple(chain_vertices)))
        report.added_edges.append(eid)
        report.rewritten_edges.extend(e.id for e in chain_edges)
        report.interior_map[eid] = chain_vertices
    if not new_edges:
        return decl, report
    removed = set(report.rewritten_edges)
    edges = [e for e in decl.edges if e.id not in removed] + new_edges
    dropped = chain.from_iterable(report.interior_map.values())
    return decl.with_edges(edges, drop_vertices=dropped), report


_TRANSFORMS = {  # in composition order
    "break-self-loops": break_self_loops,
    "edge-coverage": edge_coverage_transform,
    "branch-coverage": branch_coverage_transform,
    "compress-chains": compress_chains,
}


def apply_transforms(decl: ModelDecl, names) -> tuple[ModelDecl, TransformReport]:
    """Apply the named rewrites in the fixed composition order."""
    names = list(names)
    unknown = [n for n in names if n not in _TRANSFORMS]
    if unknown:
        raise ValueError(f"unknown transform(s): {', '.join(unknown)}")
    if "edge-coverage" in names and "branch-coverage" in names:
        raise ValueError("edge-coverage and branch-coverage are mutually exclusive")
    report = TransformReport()
    for name, transform in _TRANSFORMS.items():
        if name in names:
            decl, r = transform(decl)
            report.merge(r)
    return decl, report
