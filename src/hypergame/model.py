"""Hypergraph model: declarations and the line-oriented file format.

A declaration holds only real and virtual edges. The empty-tail marker edge
that every unmarked vertex carries in the game is implicit: it exists only
in the rank engine, never in a declaration.

A `ModelDecl` is sorted and validated when it is built, so every
declaration that exists can be played.

`parse_model` reads a text in four steps:

1. scan: one pass over the text, by the compiled scanner (`_native.cpp`)
   when it was built and the text is ASCII with lines broken by \n only,
   else by the pure `scan_plain`;
2. columns: the scan gives the vertex lines' names and the id, head and tail
   of each plain edge line, from which `make_edges` builds the edges;
3. other lines: every other non-blank line (the initial and model lines,
   labels, comments, keyword options) goes through the per-line code;
4. on error: on any ModelError, the same per-line reader reads every line
   of the text, so the error names the first faulty line, as it always
   has. A repeated edge id is one: `ModelDecl` raises it.

Two edge kernels carry the per-edge work of a parse and of the coverage
transforms, each a pure function here with a compiled twin in `_native.cpp`
that is used when the extension was built (`compiled_make_edges`,
`compiled_check_edges`, else None):

- `make_edges` builds edges from columns. The compiled copy fills each
  edge's slots without calling `Edge`, after making `Edge`'s checks; an
  edge that fails one, or that it does not take, it builds with `Edge`.
  `build_edges`, which parses and transforms call, picks the copy.
- `check_edges` sorts a declaration's edges by id and tells whether they
  pass `ModelDecl`'s per-edge checks. Only when they do not does the Python
  loop, `_edge_problems`, run to name every problem.

This module is the one place that imports the compiled extension,
`hypergame._native`. Its `PROTOCOL` is the one check made of it. The
extension keeps no state: each kernel takes `Edge` as its first argument
and checks its layout on every call, so a changed `Edge` raises TypeError
at the first call. `ranks` takes its `CompiledRankEngine` from `_native`
here, which is None when the package runs pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from itertools import chain, repeat
from operator import attrgetter

REAL = "real"
VIRTUAL = "virtual"
INTERIOR = "interior"

_ID = r"[A-Za-z0-9_.-]+"  # an identifier; `_native.cpp` keeps its own table
_ID_RE = re.compile(_ID + r"\Z")
_LABEL_RE = re.compile(r'label\s+"((?:[^"\\]|\\.)*)"')
# A plain edge or vertex line: single spaces and identifiers only, so no
# comment, label, tab or keyword option. An edge whose tail names `virtual`
# or `interior` still needs the per-line parser.
_PLAIN_LINE_RE = re.compile(rf"edge ({_ID}) ({_ID}) -> ({_ID}(?: {_ID})*)|vertex ({_ID})")


# The version of `_native.cpp`'s interface the package speaks. An extension
# of another version, such as one an older in-place build left in src/, is
# not used: the whole package runs pure, as when nothing was built.
NATIVE_PROTOCOL = 6

try:
    from . import _native
except ImportError:  # extension not built
    _native = None
if getattr(_native, "PROTOCOL", None) != NATIVE_PROTOCOL:
    _native = None


class ModelError(Exception):
    """Invalid model text or declaration."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(slots=True)
class Edge:
    """One hyperedge: a stimulus deliverable at `head`, leading into `tail`.

    `interior` lists vertices folded away by chain compression; they are
    credited as covered whenever the edge fires in a session.

    Edges are slotted, not frozen: a frozen dataclass's `__init__` sets each
    field through `object.__setattr__`, 1.4-2.0 µs per edge against 0.6-0.7
    µs (Python 3.11), and a slotted edge has no `__dict__`, which saves 48
    bytes per edge (`tracemalloc`). `parse_model` builds one per edge line.
    Neither an edge nor a `ModelDecl` is therefore hashable. Nothing assigns
    to an edge or hashes one; `dataclasses.replace` makes a changed copy.

    The compiled `make_edges` fills these six slots itself and repeats the
    checks of `__post_init__`, so a change to either is made in `_native.cpp`
    too; a change to the fields makes the first call of a kernel raise
    TypeError.
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
        tail = self.tail
        n = len(tail)
        if not n:
            raise ModelError(f"edge {self.id}: empty tail on {self.kind} edge")
        # Most tails hold one or two vertices; only longer ones need a set.
        if n == 2 and tail[0] == tail[1] or n > 2 and len(set(tail)) != n:
            raise ModelError(f"edge {self.id}: duplicate tail vertex")
        # A line break would end the label's line in the model text.
        if self.label and self.label.splitlines() != [self.label]:
            raise ModelError(f"edge {self.id}: line break in label")


@dataclass(frozen=True)
class ModelDecl:
    """A valid model: vertex set, initial vertex, and its real/virtual edges.

    Building one stores `vertices` sorted and `edges` sorted by id (each
    edge's tail keeps its given order), then raises ModelError, naming every
    violation, unless the initial vertex, every virtual vertex and every
    head and tail are declared, no vertex or edge id repeats, and no
    keyword name stands where `parse_model` would read it as the keyword:
    a vertex named `interior`, or a tail or interior vertex named `virtual`
    except as the last tail vertex of a virtual edge, which the parser
    reads after the keyword. Whether each name is an identifier is not
    checked here, where every parse would pay for it: `serialize_model`
    raises on a name that its text cannot carry.

    A declaration is frozen but not hashable, because its edges are not
    (see `Edge`); nothing hashes one.
    """

    initial: str
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    name: str = ""
    virtual_vertices: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        vset = self.vertex_set
        checked = compiled_check_edges(self.edges, vset) if compiled_check_edges else None
        edges, edges_ok = checked or check_edges(self.edges, vset)
        object.__setattr__(self, "edges", edges)
        problems = []
        if self.initial not in vset:
            problems.append(f"UnknownVertex({self.initial}): initial vertex not declared")
        problems.extend(f"UnknownVertex({v}): virtual vertex not declared"
                        for v in sorted(self.virtual_vertices - vset))
        if len(vset) != len(self.vertices):  # sorted, so a repeat follows its first use
            problems.extend(f"DuplicateVertex({v})"
                            for prev, v in zip(self.vertices, self.vertices[1:]) if v == prev)
        if INTERIOR in vset:
            problems.append(f"ReservedVertex({INTERIOR})")
        if not edges_ok:
            problems.extend(_edge_problems(edges, vset))
        if problems:
            raise ModelError("; ".join(problems))

    def __getstate__(self):
        """The fields alone: a copy or an unpickled declaration builds its
        indexes, and the compiled loop's integer copy, again on use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        """The vertices as a set; built once, when the declaration is."""
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
            virtual_vertices=(self.virtual_vertices - drop) | frozenset(added_virtual),
        )


def make_edges(ids, heads, tails, kinds=None, labels=None, interiors=None):
    """`[Edge(ids[i], heads[i], tails[i], kinds[i], labels[i], interiors[i]) ...]`
    over columns of one length (else ValueError); a column given as None
    gives every edge that field's default. The first edge that `Edge`
    rejects raises, as `Edge` does. `compiled_make_edges` is the compiled
    twin: it takes the same columns, positionally."""
    n = len(ids)
    if any(c is not None and len(c) != n for c in (heads, tails, kinds, labels, interiors)):
        raise ValueError("make_edges() columns differ in length")
    return list(map(Edge, ids, heads, tails,
                    repeat(REAL) if kinds is None else kinds,
                    repeat("") if labels is None else labels,
                    repeat(()) if interiors is None else interiors))


def check_edges(edges, vertex_set):
    """`(sorted edges, ok)`: `edges` as a tuple stably sorted by id, and
    whether `_edge_problems` finds no problem in them. `compiled_check_edges`
    is the compiled twin; it gives None for input it does not take: anything
    but a tuple or list of `Edge`s whose names are str and whose tail and
    interior are tuples of str."""
    edges = tuple(sorted(edges, key=attrgetter("id")))
    return edges, next(_edge_problems(edges, vertex_set), None) is None


def _edge_problems(edges, vset):
    """The per-edge problems of a declaration with vertex set `vset` and
    `edges`, sorted by id, in `ModelDecl`'s order."""
    virtual_named = VIRTUAL in vset
    prev = None
    for e in edges:
        if e.id == prev:  # sorted, so a repeated id follows its first use
            yield f"DuplicateEdgeId({e.id})"
        prev = e.id
        if e.head not in vset:
            yield f"UnknownVertex({e.head}): head of edge {e.id}"
        if not vset.issuperset(e.tail):
            yield from (f"UnknownVertex({t}): tail of edge {e.id}"
                        for t in e.tail if t not in vset)
        if virtual_named and VIRTUAL in e.tail and (e.kind != VIRTUAL
                                                    or e.tail[-1] != VIRTUAL):
            yield f"ReservedVertex({VIRTUAL}): tail of edge {e.id}"
        if e.interior and e.kind == REAL and VIRTUAL in e.interior:
            yield f"ReservedVertex({VIRTUAL}): interior of edge {e.id}"


compiled_scan_plain = _native.scan_plain if _native else None
compiled_make_edges = partial(_native.make_edges, Edge) if _native else None
compiled_check_edges = partial(_native.check_edges, Edge) if _native else None


def build_edges(*columns):
    """`make_edges(*columns)`, by its compiled twin when it is built."""
    return (compiled_make_edges or make_edges)(*columns)


def _check_id(token, line=None):
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


def scan_plain(text: str):
    """The lines of `text` as columns: `(vertices, ids, heads, tails, others)`.

    `vertices` holds the name of each `vertex <id>` line. `ids`, `heads` and
    `tails` hold the id, head and tail tuple of each plain
    `edge <id> <head> -> <t1> ... <tk>` line whose tail holds no `virtual`
    or `interior` token. Plain means single spaces and identifiers only, so
    no comment, label, tab or keyword option. `others` holds
    `(line number, line)` for every other non-blank line; lines are those of
    `str.splitlines`. The compiled scanner in `_native.cpp` keeps this
    contract on the texts it takes.
    """
    vertices, ids, heads, tails, others = [], [], [], [], []
    plain_line = _PLAIN_LINE_RE.fullmatch
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = plain_line(line)
        if m:
            eid, head, tail, vertex = m.groups()
            if vertex:
                vertices.append(vertex)
                continue
            tail = tuple(tail.split(" "))
            if VIRTUAL not in tail and INTERIOR not in tail:
                ids.append(eid)
                heads.append(head)
                tails.append(tail)
                continue
        if line and not line.isspace():
            others.append((lineno, line))
    return vertices, ids, heads, tails, others


def parse_model(text: str, strict_vertices: bool = False) -> ModelDecl:
    """Parse the line-oriented model format.

    By default vertices may be introduced implicitly by appearing in an edge
    line; with `strict_vertices` only declared vertices enter the vertex set,
    and an undeclared reference is an error.
    """
    columns = compiled_scan_plain(text) if compiled_scan_plain else None
    try:
        return _read(columns or scan_plain(text), strict_vertices)
    except ModelError:
        return _parse_lines(text, strict_vertices)


def _parse_lines(text, strict_vertices):
    """`parse_model` one line at a time, so the first fault raises with its
    line number: `_Reader.read` reads every line."""
    return _read(([], [], [], [], enumerate(text.splitlines(), start=1)), strict_vertices)


def _read(columns, strict_vertices):
    """The declaration of `columns`, as `scan_plain` gives them: the plain
    edges are built by one `build_edges` call, and `_Reader.read` reads the
    other lines. An id repeated by two edge lines makes ModelDecl raise,
    if the reader does not, so the reread names the second line."""
    vertices, ids, heads, tails, others = columns
    edges = build_edges(ids, heads, tails)
    reader = _Reader(vertices, edges, heads)
    for lineno, line in others:
        reader.read(lineno, line)
    return reader.decl(strict_vertices, tails)


class _Reader:
    """What the lines read so far declare. `implicit` lists the vertices
    named by edges and the initial line, not yet the vertex set;
    `edge_ids` the ids of the edge lines it has read."""

    __slots__ = ("name", "initial", "declared", "virtual_vertices", "edges", "edge_ids",
                 "implicit")

    def __init__(self, declared, edges, implicit):
        self.name = ""
        self.initial = None
        self.declared = declared
        self.virtual_vertices = set()
        self.edges = edges
        self.edge_ids = set()
        self.implicit = implicit

    def read(self, lineno, line):
        """Read line `lineno`, any line of the format."""
        if "#" in line:
            line = _cut_comment(line)
        fields = line.split()
        if not fields:
            return
        kw = fields[0]
        if kw == "edge":
            e = _parse_edge_line(line, fields, lineno, self.edge_ids)
            self.edges.append(e)
            self.implicit.append(e.head)
            self.implicit.extend(e.tail)
            # interiors are not graph vertices; they only enter coverage
        elif kw == "model":
            if len(fields) != 2:
                raise ModelError("expected: model <name>", lineno)
            if self.name:
                raise ModelError("duplicate model line", lineno)
            self.name = _check_id(fields[1], lineno)
        elif kw == "initial":
            if len(fields) != 2:
                raise ModelError("expected: initial <vertex>", lineno)
            if self.initial is not None:
                raise ModelError("duplicate initial line", lineno)
            self.initial = _check_id(fields[1], lineno)
            self.implicit.append(self.initial)
        elif kw == "vertex":
            if len(fields) == 3 and fields[2] == "virtual":
                self.virtual_vertices.add(fields[1])
            elif len(fields) != 2:
                raise ModelError("expected: vertex <id> [virtual]", lineno)
            self.declared.append(_check_id(fields[1], lineno))
        else:
            raise ModelError(f"unknown keyword {kw!r}", lineno)

    def decl(self, strict_vertices, tails):
        """The declaration read; `tails` are more tails whose vertices are
        implicit."""
        if self.initial is None:
            raise ModelError("missing initial line")
        vertices = set(self.declared)
        vertices.add(self.initial)
        if not strict_vertices:
            vertices.update(self.implicit)
            vertices.update(chain.from_iterable(tails))
        return ModelDecl(
            initial=self.initial,
            vertices=tuple(vertices),
            edges=tuple(self.edges),
            name=self.name,
            virtual_vertices=frozenset(self.virtual_vertices),
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
    # The first fault raises, in the order the pinned messages follow: a bad
    # id, a repeated id, then a bad head, interior or tail.
    eid = _check_id(fields[1], lineno)
    if eid in edge_ids:
        raise ModelError(f"duplicate edge id {eid!r}", lineno)
    edge_ids.add(eid)
    head = fields[2]
    tail = fields[4:]
    kind = REAL
    interior = []
    if VIRTUAL in tail:
        tail.remove(VIRTUAL)
        kind = VIRTUAL
    if INTERIOR in tail:
        i = tail.index(INTERIOR)
        interior = tail[i + 1 :]
        del tail[i:]
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
    sorted. Raises ModelError("bad identifier ...") for the first name, in
    text order, that is not an identifier: the model name, the initial
    vertex, the vertices, then each edge's id and interiors. Its text would
    not parse.
    """
    names = chain((decl.name,) if decl.name else (), (decl.initial,), decl.vertices,
                  chain.from_iterable((e.id, *e.interior) for e in decl.edges))
    for name in names:
        _check_id(name)
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
            parts.append(VIRTUAL)
        if e.interior:
            parts.append(INTERIOR)
            parts.extend(e.interior)
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def build_game_graph(decl: ModelDecl) -> ModelDecl:
    """Return `decl`: a ModelDecl is validated when it is built. Kept because
    the session benchmark under `perfbench/` calls and traces it."""
    return decl
