"""Hypergraph model: declarations and the line-oriented file format.

A declaration holds only real and virtual edges. The empty-tail marker edge
that every unmarked vertex carries in the game is implicit: it exists only
in the rank engine and the rank oracle, never in a declaration.

A `ModelDecl` is sorted and validated when it is built, so every
declaration that exists can be played.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter

REAL = "real"
VIRTUAL = "virtual"

_ID_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
_IDS_RE = re.compile(r"[A-Za-z0-9_.-]+(?: [A-Za-z0-9_.-]+)*\Z")  # space-joined ids
_LABEL_RE = re.compile(r'label\s+"((?:[^"\\]|\\.)*)"')


class ModelError(Exception):
    """Invalid model text or declaration."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Edge:
    """One hyperedge: a stimulus deliverable at `head`, leading into `tail`.

    `interior` lists vertices folded away by chain compression; they are
    credited as covered whenever the edge fires in a session.
    """

    id: str
    head: str
    tail: tuple[str, ...]
    kind: str = REAL
    label: str = ""
    interior: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (REAL, VIRTUAL):
            raise ModelError(f"edge {self.id}: kind {self.kind!r} is neither "
                             f"{REAL!r} nor {VIRTUAL!r}")
        if not self.tail:
            raise ModelError(f"edge {self.id}: empty tail on {self.kind} edge")
        if len(set(self.tail)) != len(self.tail):
            raise ModelError(f"edge {self.id}: duplicate tail vertex")


@dataclass(frozen=True)
class ModelDecl:
    """A valid model: vertex set, initial vertex, and its real/virtual edges.

    Building one stores `vertices` sorted and `edges` sorted by id (each
    edge's tail keeps its given order), then raises ModelError, naming every
    violation, unless the initial vertex and every head and tail are
    declared and no vertex or edge id repeats.
    """

    initial: str
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    name: str = ""
    virtual_vertices: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=attrgetter("id"))))
        vset = self.vertex_set()
        problems = []
        if self.initial not in vset:
            problems.append(f"UnknownVertex({self.initial}): initial vertex not declared")
        if len(vset) != len(self.vertices):  # sorted, so a repeat follows its first use
            problems.extend(f"DuplicateVertex({v})"
                            for prev, v in zip(self.vertices, self.vertices[1:]) if v == prev)
        prev = None
        for e in self.edges:
            if e.id == prev:  # sorted, so a repeated id follows its first use
                problems.append(f"DuplicateEdgeId({e.id})")
            prev = e.id
            if e.head not in vset:
                problems.append(f"UnknownVertex({e.head}): head of edge {e.id}")
            if not vset.issuperset(e.tail):
                problems.extend(f"UnknownVertex({t}): tail of edge {e.id}"
                                for t in e.tail if t not in vset)
        if problems:
            raise ModelError("; ".join(problems))

    def vertex_set(self):
        return frozenset(self.vertices)

    @cached_property
    def by_head(self) -> dict[str, tuple[Edge, ...]]:
        """Each head's edges in id order; built on first use."""
        out: dict[str, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.head, []).append(e)
        return {h: tuple(es) for h, es in out.items()}

    @cached_property
    def by_id(self) -> dict[str, Edge]:
        """Each edge by its id; built on first use."""
        return {e.id: e for e in self.edges}

    def with_edges(self, edges, added_virtual=(), drop_vertices=()):
        """This model with `edges` as its edges, `added_virtual` as new
        virtual vertices and `drop_vertices` removed."""
        drop = set(drop_vertices)
        verts = {v for v in self.vertices if v not in drop}
        verts.update(added_virtual)  # kept even when also listed in drop
        return replace(
            self,
            vertices=tuple(verts),
            edges=tuple(edges),
            virtual_vertices=self.virtual_vertices | frozenset(added_virtual),
        )


def _check_id(token, line):
    if not _ID_RE.match(token):
        raise ModelError(f"bad identifier {token!r}", line)
    return token


def _cut_comment(raw):
    """`raw` without its comment, which starts at the first `#` that is not
    inside the quotes of the line's label."""
    cut = raw.index("#")
    m = _LABEL_RE.search(raw)
    if m and m.start() < cut < m.end():
        cut = raw.find("#", m.end())
        if cut < 0:
            return raw
    return raw[:cut]


def parse_model(text: str, strict_vertices: bool = False) -> ModelDecl:
    """Parse the line-oriented model format.

    By default vertices may be introduced implicitly by appearing in an edge
    line; with `strict_vertices` only declared vertices enter the vertex set,
    and an undeclared reference is an error.
    """
    name = ""
    initial = None
    declared: list[str] = []
    virtual_vertices: set[str] = set()
    edges: list[Edge] = []
    edge_ids: set[str] = set()
    implicit: list[str] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = _cut_comment(line)
        fields = line.split()
        if not fields:
            continue
        kw = fields[0]
        if kw == "edge":
            e = _parse_edge_line(line, fields, lineno, edge_ids)
            edges.append(e)
            implicit.append(e.head)
            implicit.extend(e.tail)
            # interiors are not graph vertices; they only enter coverage
        elif kw == "model":
            if len(fields) != 2:
                raise ModelError("expected: model <name>", lineno)
            if name:
                raise ModelError("duplicate model line", lineno)
            name = _check_id(fields[1], lineno)
        elif kw == "initial":
            if len(fields) != 2:
                raise ModelError("expected: initial <vertex>", lineno)
            if initial is not None:
                raise ModelError("duplicate initial line", lineno)
            initial = _check_id(fields[1], lineno)
            implicit.append(initial)
        elif kw == "vertex":
            if len(fields) == 3 and fields[2] == "virtual":
                virtual_vertices.add(fields[1])
            elif len(fields) != 2:
                raise ModelError("expected: vertex <id> [virtual]", lineno)
            declared.append(_check_id(fields[1], lineno))
        else:
            raise ModelError(f"unknown keyword {kw!r}", lineno)

    if initial is None:
        raise ModelError("missing initial line")

    vertices = set(declared)
    vertices.add(initial)
    if not strict_vertices:
        vertices.update(implicit)
    return ModelDecl(
        initial=initial,
        vertices=tuple(vertices),
        edges=tuple(edges),
        name=name,
        virtual_vertices=frozenset(virtual_vertices),
    )


def _parse_edge_line(line, fields, lineno, edge_ids):
    # edge <id> <head> -> <t1> ... [label "<text>"] [virtual] [interior <v1> ...]
    label = ""
    if '"' in line:  # a label needs a quote
        m = _LABEL_RE.search(line)
        if m:
            label = m.group(1).replace('\\"', '"').replace("\\\\", "\\")
            fields = (line[: m.start()] + line[m.end() :]).split()
    if len(fields) < 4 or fields[3] != "->":
        raise ModelError("expected: edge <id> <head> -> <tails...>", lineno)
    eid = fields[1]
    head = fields[2]
    tail = fields[4:]
    kind = REAL
    interior = []
    if "virtual" in tail:
        tail.remove("virtual")
        kind = VIRTUAL
    if "interior" in tail:
        i = tail.index("interior")
        interior = tail[i + 1 :]
        del tail[i:]
    # One match checks every token. Only when it fails are they checked one
    # by one, to name the first bad token: the id, then the head, interior
    # and tail, with the repeated-id check after the id.
    ok = _IDS_RE.match(" ".join([eid, head, *interior, *tail]))
    if not ok:
        _check_id(eid, lineno)
    if eid in edge_ids:
        raise ModelError(f"duplicate edge id {eid!r}", lineno)
    edge_ids.add(eid)
    if not ok:
        for token in (head, *interior, *tail):
            _check_id(token, lineno)
    try:
        return Edge(eid, head, tuple(tail), kind, label, tuple(interior))
    except ModelError as exc:
        raise ModelError(str(exc), lineno) from None


def serialize_model(decl: ModelDecl) -> str:
    """Emit the model in canonical form: sorted ids, one construct per line.

    Tails are written sorted, and `parse_model` keeps a file's tail order, so
    parse_model(serialize_model(d)) == d exactly when every tail of d is
    sorted.
    """
    out = []
    if decl.name:
        out.append(f"model {decl.name}")
    out.append(f"initial {decl.initial}")
    for v in decl.vertices:
        out.append(f"vertex {v} virtual" if v in decl.virtual_vertices else f"vertex {v}")
    for e in decl.edges:
        parts = [f"edge {e.id} {e.head} ->"]
        parts.extend(sorted(e.tail))
        if e.label:
            escaped = e.label.replace("\\", "\\\\").replace('"', '\\"')
            parts.append(f'label "{escaped}"')
        if e.kind == VIRTUAL:
            parts.append("virtual")
        if e.interior:
            parts.append("interior")
            parts.extend(e.interior)
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def build_game_graph(decl: ModelDecl) -> ModelDecl:
    """Return `decl`: a ModelDecl is validated when it is built. Kept because
    the session benchmark under `perfbench/` calls and traces it."""
    return decl
