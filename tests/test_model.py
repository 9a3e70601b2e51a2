import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hypergame import model
from hypergame.model import (Edge, ModelDecl, ModelError, build_game_graph,
                             parse_model, serialize_model)
from hypergame.providers import gen_random_bounded_degree

from conftest import G1_TEXT, LINE_BREAKS, random_decl


class TestParse:
    def test_g1(self, g1):
        assert g1.initial == "s0"
        assert g1.vertices == ("s0", "s1", "s2")
        assert [e.id for e in g1.edges] == ["a", "b", "c"]
        assert g1.by_id["a"].tail == ("s1", "s2")

    def test_empty_tail_rejected(self):
        with pytest.raises(ModelError, match="^line 2: edge e: empty tail on real edge$"):
            parse_model("initial s0\nedge e s0 ->\n")
        with pytest.raises(ModelError, match="^line 2: edge b: empty tail on virtual edge$"):
            parse_model("initial s0\nedge b s0 -> virtual\n")

    def test_missing_initial(self):
        with pytest.raises(ModelError, match="missing initial"):
            parse_model("edge e s0 -> s1\n")

    def test_duplicate_edge_id(self):
        with pytest.raises(ModelError, match="duplicate edge id"):
            parse_model("initial s0\nedge a s0 -> s1\nedge a s0 -> s2\n")

    def test_duplicate_tail_vertex(self):
        with pytest.raises(ModelError, match="^line 2: edge a: duplicate tail vertex$"):
            parse_model("initial s0\nedge a s0 -> s1 s1\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ModelError, match="line 3"):
            parse_model("initial s0\nedge a s0 -> s1\nwhat is this\n")

    def test_bad_identifier(self):
        with pytest.raises(ModelError, match="bad identifier"):
            parse_model("initial s~0\n")

    def test_comments_and_blanks(self):
        decl = parse_model("# top\n\ninitial s0  # trailing\nedge a s0 -> s1\n")
        assert decl.initial == "s0"
        assert len(decl.edges) == 1

    def test_label_round_trip(self):
        decl = parse_model('initial s0\nedge a s0 -> s1 label "do \\"x\\""\n')
        assert decl.by_id["a"].label == 'do "x"'
        assert parse_model(serialize_model(decl)) == decl

    def test_hash_inside_label_is_text(self):
        decl = parse_model('initial s0\nedge a s0 -> s1 label "x#y"\n'
                           'edge b s1 -> s0 label "#1" virtual # label "z"\n'
                           'edge c s1 -> s0 # label "z#"\n')
        assert [(e.label, e.kind) for e in decl.edges] == \
            [("x#y", "real"), ("#1", "virtual"), ("", "real")]
        assert parse_model(serialize_model(decl)) == decl

    def test_implicit_vertices_default(self):
        decl = parse_model("initial s0\nedge a s0 -> s1 s2\n")
        assert decl.vertices == ("s0", "s1", "s2")

    def test_strict_vertices_rejects_unknowns(self):
        with pytest.raises(ModelError, match=r"^UnknownVertex\(zz\): tail of edge a$"):
            parse_model("initial s0\nedge a s0 -> zz\n", strict_vertices=True)


def _outcome(text, strict):
    try:
        return parse_model(text, strict_vertices=strict)
    except ModelError as exc:
        return str(exc)


def _off_fast_path(line, rng):
    """`line` in a form that reads the same but misses the plain-line
    pattern: a doubled space, a tab or a trailing comment."""
    i = rng.choice([i for i, c in enumerate(line) if c == " "])
    return rng.choice([line[:i] + "  " + line[i + 1:], line[:i] + "\t" + line[i + 1:],
                       line + " # c"])


@pytest.fixture
def edge_line_calls(monkeypatch):
    """The lines that parse_model hands to its per-line edge parser."""
    calls = []
    real = model._parse_edge_line

    def counting(line, *args):
        calls.append(line)
        return real(line, *args)

    monkeypatch.setattr(model, "_parse_edge_line", counting)
    return calls


class TestPlainLines:
    # parse_model reads a plain edge or vertex line with one pattern match;
    # every other line goes through the per-line parser, and so does every
    # line of a text that does not parse.
    def test_other_forms_parse_the_same(self, edge_line_calls):
        rng = random.Random(14)
        for _ in range(150):
            lines = serialize_model(random_decl(rng)).splitlines()
            if rng.random() < 0.5:  # an undeclared vertex, which strict parsing rejects
                vertex_lines = [i for i, line in enumerate(lines) if line.startswith("vertex ")]
                del lines[rng.choice(vertex_lines)]
            plain = "\n".join(lines) + "\n"
            other = "\n".join(_off_fast_path(line, rng) if line.startswith(("edge ", "vertex "))
                              else line for line in lines) + "\n"
            for strict in (False, True):
                del edge_line_calls[:]
                expected = _outcome(plain, strict)
                if isinstance(expected, str):  # the error path reads every line
                    assert _outcome(other, strict) == expected
                    continue
                assert edge_line_calls == []
                assert _outcome(other, strict) == expected
                assert len(edge_line_calls) == len(expected.edges)

    def test_plain_lines_raise_the_same_messages(self):
        with pytest.raises(ModelError, match="^line 3: duplicate edge id 'a'$"):
            parse_model("initial s0\nedge a s0 -> s1\nedge a s0 -> s2\n")
        with pytest.raises(ModelError, match="^line 2: edge a: duplicate tail vertex$"):
            parse_model("initial s0\nedge a s0 -> s1 s1\n")

    @pytest.mark.parametrize("labelled_first", [False, True], ids=["plain-first",
                                                                    "labelled-first"])
    def test_id_repeated_by_a_plain_and_a_labelled_line(self, scanner, labelled_first):
        # The two lines take different readers, and ModelDecl finds the
        # repeat; the reread names the second line.
        lines = ["edge a s0 -> s1", 'edge a s1 -> s0 label "x"']
        if labelled_first:
            lines.reverse()
        text = "initial s0\nvertex s1\n" + "\n".join(lines) + "\n"
        with pytest.raises(ModelError, match="^line 4: duplicate edge id 'a'$"):
            parse_model(text)

    def test_per_line_parser_reads_every_line(self, monkeypatch):
        # The error path's reference grammar is `_Reader.read` alone: it
        # matches none of the scanners' patterns, plain lines included.
        lines = []
        real = model._Reader.read

        def counting(reader, lineno, line):
            lines.append((lineno, line))
            return real(reader, lineno, line)

        monkeypatch.setattr(model._Reader, "read", counting)
        text = "model m\ninitial s0\n\nvertex s1\nedge a s0 -> s1\nedge b s1 -> s0 s2\n"
        decl = model._parse_lines(text, False)
        assert lines == list(enumerate(text.splitlines(), start=1))
        assert decl == parse_model(text)

    def test_generated_models_take_the_pattern(self, edge_line_calls):
        # Fails if an edit to the pattern sends plain lines to the slow path.
        decl = gen_random_bounded_degree(256, 3, 2, 1)
        assert parse_model(serialize_model(decl)) == decl
        assert edge_line_calls == []

    @pytest.mark.parametrize("line", ['edge a s0 -> s1 label "x"', "edge a s0 -> s1 virtual",
                                      "edge a s0 -> s1 interior s2"])
    def test_options_take_the_per_line_parser(self, edge_line_calls, line):
        parse_model(f"initial s0\n{line}\n")
        assert edge_line_calls == [line]


@pytest.mark.parametrize("fault", ["repeated-id", "repeated-tail"])
def test_faulty_last_line_of_a_large_text(scanner, fault):
    # The error path reads the whole text again, one line at a time.
    decl = gen_random_bounded_degree(4096, 3, 2, 17)
    text = serialize_model(decl)
    lineno = text.count("\n") + 1
    eid, (v0, v1) = decl.edges[-1].id, decl.vertices[:2]
    if fault == "repeated-id":
        line, message = f"edge {eid} {v0} -> {v1}", f"duplicate edge id {eid!r}"
    else:
        line, message = f"edge {eid}x {v0} -> {v1} {v1}", f"edge {eid}x: duplicate tail vertex"
    with pytest.raises(ModelError) as exc:
        parse_model(f"{text}{line}\n")
    assert str(exc.value) == f"line {lineno}: {message}"


class TestEdge:
    def test_slotted_and_unhashable(self):
        e = Edge("a", "s0", ("s1",))
        assert not hasattr(e, "__dict__")
        with pytest.raises(AttributeError):
            e.note = "x"
        with pytest.raises(TypeError):
            hash(e)
        with pytest.raises(TypeError):
            hash(parse_model("initial s0\nedge a s0 -> s1\n"))

    def test_replace_makes_a_changed_copy(self):
        e = Edge("a", "s0", ("s1",))
        assert dataclasses.replace(e, kind="virtual") == Edge("a", "s0", ("s1",), "virtual")
        assert e.kind == "real"

    def test_messages(self):
        with pytest.raises(ModelError, match="^edge a: kind 'marker' is neither 'real' nor 'virtual'$"):
            Edge("a", "s0", ("s1",), kind="marker")
        with pytest.raises(ModelError, match="^edge a: empty tail on virtual edge$"):
            Edge("a", "s0", (), kind="virtual")
        with pytest.raises(ModelError, match="^edge a: duplicate tail vertex$"):
            Edge("a", "s0", ("s1", "s2", "s1"))

    @pytest.mark.parametrize("brk", ["\n", *LINE_BREAKS], ids=ascii)
    def test_line_break_in_label_rejected(self, brk):
        # serialize_model writes a label raw, so a line break would end its line.
        with pytest.raises(ModelError, match="^edge a: line break in label$"):
            Edge("a", "s0", ("s1",), label=f"x{brk}y")
        assert Edge("a", "s0", ("s1",), label="x\ty\x1fz \u00e9").label == "x\ty\x1fz \u00e9"

    def test_repr(self):
        assert repr(Edge("a", "s0", ("s1", "s2"), "virtual", "hit", ("s3",))) == \
            "Edge(id='a', head='s0', tail=('s1', 's2'), kind='virtual', label='hit', " \
            "interior=('s3',))"


# Edges that Edge builds, with the fields the compiled make_edges takes
# and some it leaves to Edge: a list tail, a non-str vertex, a str subclass
# as kind, a long tail, a label with a tab or a non-ASCII letter.
class _Kind(str):
    pass


GOOD_EDGES = [
    ("a", "s0", ("s1",), "real", "", ()),
    ("b", "s0", ("s1", "s2"), "virtual", "hit", ("s3", "virtual")),
    ("c", "s1", ["s2", "s0"], "real", "", ()),
    ("d", "s1", (7,), _Kind("real"), "x\ty", ()),
    ("e", "s2", tuple(f"v{i}" for i in range(40)), "virtual", "\u00e9", ["i"]),
    (3, "s2", ("s0", 1), "real", "say \"hi\"", ()),
]
BAD_EDGES = [
    ("a", "s0", ("s1",), "marker", "", ()),
    ("a", "s0", (), "virtual", "", ()),
    ("a", "s0", ("s1", "".join(["s", "1"])), "real", "", ()),
    ("a", "s0", ("s1", "s2", "s1"), "real", "", ()),
    ("a", "s0", tuple(f"v{i % 39}" for i in range(40)), "real", "", ()),
    *[("a", "s0", ("s1",), "real", f"x{brk}y", ()) for brk in ("\n", *LINE_BREAKS)],
]


def _columns(rows):
    return [list(column) for column in zip(*rows)]


class TestEdgeKernels:
    """`make_edges` and `check_edges` on the builder each test pins: the
    pure functions, or their compiled twins."""

    def test_make_edges_builds_what_edge_builds(self, builder):
        edges = model.make_edges(*_columns(GOOD_EDGES))
        made = (model.compiled_make_edges or model.make_edges)(*_columns(GOOD_EDGES))
        assert made == edges == [Edge(*row) for row in GOOD_EDGES]
        assert repr(made) == repr(edges)
        assert all(type(e) is Edge for e in made)

    def test_make_edges_defaults(self, builder):
        make = model.compiled_make_edges or model.make_edges
        ids, heads, tails, kinds, labels, interiors = _columns(GOOD_EDGES[:2])
        assert make(ids, heads, tails) == [Edge(*row[:3]) for row in GOOD_EDGES[:2]]
        assert make(ids, heads, tails, None, labels, None) == \
            [Edge(i, h, t, label=la) for i, h, t, la in zip(ids, heads, tails, labels)]
        assert make([], [], []) == []

    @pytest.mark.parametrize("bad", range(len(BAD_EDGES)))
    def test_make_edges_raises_the_first_edges_error(self, builder, bad):
        make = model.compiled_make_edges or model.make_edges
        with pytest.raises(ModelError) as expected:
            Edge(*BAD_EDGES[bad])
        rows = [GOOD_EDGES[0], ("z", *BAD_EDGES[bad][1:]), BAD_EDGES[bad], GOOD_EDGES[1]]
        with pytest.raises(ModelError) as exc:
            make(*_columns(rows))
        assert str(exc.value) == str(expected.value).replace("edge a:", "edge z:")

    def test_make_edges_columns_differ_in_length(self, builder):
        make = model.compiled_make_edges or model.make_edges
        with pytest.raises(ValueError, match="^make_edges\\(\\) columns differ in length$"):
            make(["a", "b"], ["s0", "s0"], [("s1",)])
        with pytest.raises(ValueError, match="^make_edges\\(\\) columns differ in length$"):
            make(["a"], ["s0"], [("s1",)], ["real", "real"])

    @pytest.mark.parametrize("rows, vertices, ok", [
        ([("b", "s0", ("s1",)), ("a", "s1", ("s0",)), ("c", "s0", ("s0", "s1"))], "s0 s1", True),
        ([("a", "s0", ("s1",))], "s0", False),  # undeclared tail vertex
        ([("a", "s2", ("s1",))], "s0 s1", False),  # undeclared head
        ([("a", "s0", ("s1",)), ("a", "s1", ("s0",))], "s0 s1", False),  # repeated id
        ([("a", "s0", ("virtual",), "virtual")], "s0 virtual", True),
        ([("a", "s0", ("virtual",))], "s0 virtual", False),
        ([("a", "s0", ("virtual", "s0"), "virtual")], "s0 virtual", False),
        ([("a", "s0", ("s0",), "real", "", ("virtual",))], "s0", False),
        ([("a", "s0", ("s0",), "virtual", "", ("virtual",))], "s0", True),
    ])
    def test_check_edges(self, builder, rows, vertices, ok):
        edges = [Edge(*row) for row in rows]
        vset = frozenset(vertices.split())
        check = model.compiled_check_edges or model.check_edges
        for given in (edges, tuple(edges), edges[::-1]):
            out, verdict = check(given, vset)
            by_id = sorted(given, key=lambda e: e.id)  # stable, so repeats keep their order
            assert type(out) is tuple and all(a is b for a, b in zip(out, by_id, strict=True))
            assert verdict == ok

    @pytest.mark.parametrize("builder", ["compiled"], indirect=True)
    def test_compiled_check_edges_declines_what_it_does_not_take(self, builder):
        vset = frozenset(["s0", "s1", 7])
        for edges in [(Edge("a", "s0", ["s1"]),), (Edge(3, "s0", ("s1",)),),
                      (Edge("a", "s0", (7,)),), (Edge("a", "s0", ("s1",), interior=["s1"]),),
                      (Edge("a", "s0", ("s1",), kind=_Kind("real")),),
                      iter([Edge("a", "s0", ("s1",))]), (None,)]:
            assert model.compiled_check_edges(edges, vset) is None
        assert model.compiled_check_edges((Edge("a", "s0", ("s1",)),), {"s0", "s1"})[1]
        assert model.compiled_check_edges((Edge("a", "s0", ("s1",)),), ["s0", "s1"]) is None

    @pytest.mark.parametrize("builder", ["compiled"], indirect=True)
    def test_the_kernels_check_the_layout(self, builder):
        native = sys.modules["hypergame._native"]
        fields = [f.name for f in dataclasses.fields(Edge)]
        decl = ModelDecl(initial="s0", vertices=("s0", "s1"), edges=(Edge("a", "s0", ("s1",)),))
        kernels = {
            "make_edges": lambda cls: native.make_edges(cls, ["a"], ["s0"], [("s1",)]),
            "check_edges": lambda cls: native.check_edges(cls, (), {"s0"}),
            "compile_model": lambda cls: native.CompiledRankEngine.compile_model(decl, cls),
        }
        # Edge's field names and size, but slots of other names.
        lookalike = type("Lookalike", (), {"__slots__": tuple("abcdef"),
                                           "__dataclass_fields__": dict.fromkeys(fields)})
        for name, kernel in kernels.items():
            for cls in (dataclasses.make_dataclass("E", fields[::-1], slots=True),
                        dataclasses.make_dataclass("E", fields + ["note"], slots=True),
                        dataclasses.make_dataclass("E", fields),
                        int):
                with pytest.raises(TypeError, match=f"^{name}\\(\\): \\w+ is not a slotted "):
                    kernel(cls)
            with pytest.raises(TypeError, match=f"^{name}\\(\\): Lookalike.id is not a slot$"):
                kernel(lookalike)
        # A class of Edge's layout is built as Edge is, as play() builds a
        # record class of MoveRecord's layout; passed that class,
        # check_edges declines Edge's own instances.
        other = dataclasses.make_dataclass("Other", fields, slots=True)
        made = native.make_edges(other, ["a"], ["s0"], [("s1",)])
        assert [type(e) for e in made] == [other]
        assert dataclasses.astuple(made[0]) == dataclasses.astuple(Edge("a", "s0", ("s1",)))
        assert native.check_edges(other, made, {"s0", "s1"}) == ((made[0],), True)
        assert native.check_edges(other, (Edge("a", "s0", ("s1",)),), {"s0", "s1"}) is None
        assert native.make_edges(Edge, ["a"], ["s0"], [("s1",)]) == [Edge("a", "s0", ("s1",))]


class TestValidate:
    """A declaration sorts and validates itself when it is built."""

    def test_g1_valid(self, g1):
        assert build_game_graph(g1) is g1

    def test_sorted_when_built(self):
        decl = ModelDecl(initial="s0", vertices=("s2", "s0", "s1"),
                         edges=(Edge("c", "s2", ("s0",)), Edge("a", "s0", ("s2", "s1")),
                                Edge("b", "s0", ("s1",))))
        assert decl.vertices == ("s0", "s1", "s2")
        assert [e.id for e in decl.edges] == ["a", "b", "c"]
        assert decl.by_id["a"].tail == ("s2", "s1")  # tails keep their order
        assert decl == ModelDecl(initial="s0", vertices=("s0", "s1", "s2"),
                                 edges=tuple(sorted(decl.edges, key=lambda e: e.id)))

    def test_by_head_in_id_order(self):
        decl = ModelDecl(initial="s0", vertices=("s0", "s1"),
                         edges=(Edge("z", "s0", ("s1",)), Edge("b", "s1", ("s0",)),
                                Edge("a", "s0", ("s0", "s1"))))
        assert {h: [e.id for e in es] for h, es in decl.by_head.items()} == \
            {"s0": ["a", "z"], "s1": ["b"]}
        assert decl.by_head is decl.by_head  # built once

    def test_edge_kind_is_real_or_virtual(self):
        # Marker edges are implicit in the engine and the oracle; a
        # declaration cannot hold one, nor any other kind.
        for kind in ("trivial", "marker", ""):
            with pytest.raises(ModelError, match="neither"):
                Edge("x", "s0", ("s1",), kind=kind)
        assert Edge("x", "s0", ("s1",), kind="virtual").kind == "virtual"

    def test_duplicate_tail_vertex(self):
        # Tails of one or two vertices are checked without a set; every
        # length gives the same message.
        for tail in (("s1", "s1"), ("s1", "s2", "s1"), ("s2", "s1", "s3", "s3")):
            with pytest.raises(ModelError, match="^edge x: duplicate tail vertex$"):
                Edge("x", "s0", tail)
        for tail in (("s1",), ("s1", "s2"), ("s2", "s1", "s3")):
            assert Edge("x", "s0", tail).tail == tail

    def test_reserved_vertex_names(self):
        # A name that the format reads as a keyword is rejected wherever
        # serialize_model would write it where parse_model reads the
        # keyword: a vertex `interior`, and `virtual` in a tail or interior
        # other than as a virtual edge's last tail vertex.
        with pytest.raises(ModelError, match=r"^ReservedVertex\(interior\)$"):
            ModelDecl(initial="s0", vertices=("s0", "interior"),
                      edges=(Edge("a", "s0", ("interior",)),))
        with pytest.raises(ModelError) as exc:
            ModelDecl(initial="s0", vertices=("s0", "virtual", "w"),
                      edges=(Edge("a", "s0", ("virtual",)),
                             Edge("b", "s0", ("virtual", "w"), kind="virtual"),
                             Edge("c", "s0", ("s0",), interior=("virtual",))))
        assert str(exc.value) == ("ReservedVertex(virtual): tail of edge a; "
                                  "ReservedVertex(virtual): tail of edge b; "
                                  "ReservedVertex(virtual): interior of edge c")
        with pytest.raises(ModelError, match=r"^line 2: edge a: empty tail on virtual edge$"):
            parse_model("initial s0\nedge a s0 -> virtual\n")
        with pytest.raises(ModelError, match=r"^ReservedVertex\(interior\)$"):
            parse_model("initial s0\nvertex interior\n")
        # These round-trip, so they stay valid.
        decl = ModelDecl(initial="virtual", vertices=("s0", "virtual", "w"),
                         edges=(Edge("a", "virtual", ("w", "virtual"), kind="virtual",
                                     interior=("virtual", "interior")),
                                Edge("b", "s0", ("s0",), interior=("interior",))))
        assert serialize_model(decl).splitlines()[-2] == (
            "edge a virtual -> virtual w virtual interior virtual interior")
        assert parse_model(serialize_model(decl)) == decl

    def test_duplicate_edge_ids_reported(self):
        with pytest.raises(ModelError, match=r"^DuplicateEdgeId\(a\)$"):
            ModelDecl(initial="s0", vertices=("s0", "s1"),
                      edges=(Edge("a", "s0", ("s1",)), Edge("a", "s0", ("s0",))))

    def test_duplicate_vertex_reported(self):
        with pytest.raises(ModelError, match=r"^DuplicateVertex\(s1\)$"):
            ModelDecl(initial="s0", vertices=("s1", "s0", "s1"),
                      edges=(Edge("a", "s0", ("s1",)),))
        with pytest.raises(ModelError) as exc:
            ModelDecl(initial="s9", vertices=("s1", "s0", "s1", "s1"),
                      edges=(Edge("a", "s0", ("zz",)),))
        assert str(exc.value) == (
            "UnknownVertex(s9): initial vertex not declared; "
            "DuplicateVertex(s1); DuplicateVertex(s1); UnknownVertex(zz): tail of edge a")

    def test_unknown_virtual_vertex(self):
        with pytest.raises(ModelError) as exc:
            ModelDecl(initial="s0", vertices=("s0",), edges=(Edge("a", "s0", ("zz",)),),
                      virtual_vertices=frozenset({"zz", "s0", "yy"}))
        assert str(exc.value) == (
            "UnknownVertex(yy): virtual vertex not declared; "
            "UnknownVertex(zz): virtual vertex not declared; "
            "UnknownVertex(zz): tail of edge a")

    def test_unknown_head(self):
        with pytest.raises(ModelError, match=r"^UnknownVertex\(zz\): head of edge a$"):
            ModelDecl(initial="s0", vertices=("s0",), edges=(Edge("a", "zz", ("s0",)),))

    def test_every_violation_named_in_id_order(self):
        with pytest.raises(ModelError) as exc:
            ModelDecl(initial="s9", vertices=("s0",),
                      edges=(Edge("b", "s0", ("x", "s0", "y")), Edge("a", "h", ("s0",)),
                             Edge("b", "s0", ("s0",)), Edge("b", "s0", ("s0",))))
        assert str(exc.value) == (
            "UnknownVertex(s9): initial vertex not declared; "
            "UnknownVertex(h): head of edge a; "
            "UnknownVertex(x): tail of edge b; UnknownVertex(y): tail of edge b; "
            "DuplicateEdgeId(b); DuplicateEdgeId(b)")


class TestGameGraph:
    def test_with_edges_vertex_set(self, g1):
        # Only edge b (s1 -> s0) is kept, so s2 may go; s1 stays.
        out = g1.with_edges([g1.by_id["b"]], added_virtual=["x", "s1", "x"],
                            drop_vertices=["s1", "s2"])
        assert out.vertices == ("s0", "s1", "x")  # added wins over drop
        assert out.virtual_vertices == {"s1", "x"}
        assert out.vertex_set == {"s0", "s1", "x"}
        assert out.vertex_set is out.vertex_set  # built once
        assert g1.vertex_set == {"s0", "s1", "s2"}

    def test_with_edges_drops_virtual_vertices(self, g1):
        # A dropped virtual vertex leaves the virtual set with the vertex set.
        virt = g1.with_edges(g1.edges, added_virtual=["x", "y"])
        out = virt.with_edges(virt.edges, drop_vertices=["x"])
        assert out.vertices == ("s0", "s1", "s2", "y")
        assert out.virtual_vertices == {"y"}

    def test_with_edges_validates(self, g1):
        with pytest.raises(ModelError, match=r"^UnknownVertex\(s2\): tail of edge a; "
                                             r"UnknownVertex\(s2\): head of edge c$"):
            g1.with_edges(g1.edges, drop_vertices=["s2"])

    def test_build_rejects_invalid(self):
        with pytest.raises(ModelError, match=r"^UnknownVertex\(zz\): tail of edge a$"):
            ModelDecl(initial="s0", vertices=("s0",), edges=(Edge("a", "s0", ("zz",)),))



# Every valid identifier can name a vertex or an interior, the format's
# keywords included. A keyword is drawn about one time in eight: `virtual`
# and `interior` make a declaration invalid in most places.
KEYWORDS = ["virtual", "interior", "label", "edge", "vertex", "initial", "model"]


@st.composite
def identifiers(draw):
    keyword = draw(st.sampled_from([None] * 49 + KEYWORDS))
    return keyword or draw(st.from_regex(r"[A-Za-z0-9_.-]{1,3}", fullmatch=True))


LINE_BREAK_LABEL = "two\nlines"
# Names that are not identifiers: a ModelDecl takes them, and
# serialize_model rejects the first.
BAD_NAMES = ["s 1", "s~", "s\u00e9", ""]


@st.composite
def decl_parts(draw, bad_names=False):
    # With `bad_names`, one draw in four may hold bad names.
    bad_names = bad_names and draw(st.sampled_from([True, False, False, False]))

    def name(good):
        """`good`, or in a draw that may hold bad names one time in ten a
        bad name."""
        bad = draw(st.sampled_from([None] * 36 + BAD_NAMES)) if bad_names else None
        return good if bad is None else bad

    drawn = draw(st.lists(identifiers(), min_size=1, max_size=6, unique=True))
    vs = tuple(dict.fromkeys(name(v) for v in drawn))
    m = draw(st.integers(min_value=0, max_value=8))
    edges = []
    for j in range(m):
        head = draw(st.sampled_from(vs))
        size = draw(st.integers(min_value=1, max_value=len(vs)))
        tail = tuple(sorted(draw(st.permutations(vs))[:size]))
        # A label with a line break, one time in thirty, makes the draw invalid.
        label = draw(st.sampled_from(["", "hit", 'say "hi"', "a\\b", "x#y", 'say "#1"'] * 5
                                     + [LINE_BREAK_LABEL]))
        kind = draw(st.sampled_from(["real", "virtual"]))
        interior = tuple(name(v) for v in draw(st.lists(identifiers(), max_size=2)))
        edges.append((name(f"e{j}"), head, tail, kind, label, interior))
    return {"initial": vs[0], "vertices": vs, "edges": tuple(edges),
            "name": name(draw(st.sampled_from(["", "m1"]))),
            "virtual_vertices": frozenset(draw(st.lists(st.sampled_from(vs))))}


def _make(parts):
    return ModelDecl(**{**parts, "edges": tuple(Edge(*e) for e in parts["edges"])})


def _build(parts):
    try:
        return _make(parts)
    except ModelError:
        return None


def decls():
    return decl_parts().map(_build).filter(lambda d: d is not None)


@settings(max_examples=300, deadline=None)
@given(decl_parts(bad_names=True))
def test_serialize_parse_round_trip(parts):
    # Every declaration that can be built comes back from its text, unless
    # it holds a bad name; a draw is invalid only for a line break in a
    # label, a keyword name or a bad edge id drawn twice.
    decl = _build(parts)
    if decl is None:
        with pytest.raises(ModelError) as exc:
            _make(parts)
        broken = [e[0] for e in parts["edges"] if e[4] == LINE_BREAK_LABEL]
        ids = [e[0] for e in parts["edges"]]
        repeated = {f"DuplicateEdgeId({i})" for i in ids if ids.count(i) > 1}
        if broken:
            assert str(exc.value) == f"edge {broken[0]}: line break in label"
        else:
            assert all(p.startswith("ReservedVertex(") or p in repeated
                       for p in str(exc.value).split("; "))
        return
    # The names in the order the text would hold them.
    names = [decl.name] * bool(decl.name) + [decl.initial, *decl.vertices]
    for e in decl.edges:
        names += [e.id, *e.interior]
    bad = [n for n in names if n in BAD_NAMES]
    if bad:
        with pytest.raises(ModelError) as exc:
            serialize_model(decl)
        assert str(exc.value) == f"bad identifier {bad[0]!r}"
        return
    assert parse_model(serialize_model(decl)) == decl


@settings(max_examples=50, deadline=None)
@given(decls())
def test_serialization_is_canonical(decl):
    # bit-equal construction for equal declarations
    assert serialize_model(decl) == serialize_model(parse_model(serialize_model(decl)))


def test_round_trip_keeps_virtual_and_interior():
    decl = ModelDecl(
        initial="s0", vertices=("s0", "s2"),
        edges=(Edge("c", "s0", ("s2",), kind="virtual", interior=("s1a", "s1b")),),
        virtual_vertices=frozenset({"s2"}),
    )
    back = parse_model(serialize_model(decl))
    assert back == decl
    assert back.by_id["c"].interior == ("s1a", "s1b")


def test_g1_round_trip_exact():
    decl = parse_model(G1_TEXT)
    assert parse_model(serialize_model(decl)) == decl


def test_round_trip_sorts_an_unsorted_tail():
    # serialize writes tails sorted and parse keeps the file's order, so a
    # declaration with an unsorted tail comes back with that tail sorted.
    decl = parse_model("initial s0\nedge a s0 -> s2 s1\n")
    assert decl.edges[0].tail == ("s2", "s1")
    assert serialize_model(decl) == ("initial s0\nvertex s0\nvertex s1\nvertex s2\n"
                                     "edge a s0 -> s1 s2\n")
    back = parse_model(serialize_model(decl))
    assert back != decl
    assert back.edges[0].tail == ("s1", "s2")


# The per-line parser, which parse_model takes only for a text that does
# not parse.
_PARSE_LINES = model._parse_lines


def _per_line(text, strict=False):
    """The outcome of the per-line parser alone: the declaration's repr, or
    the error."""
    try:
        return repr(_PARSE_LINES(text, strict))
    except ModelError as exc:
        return str(exc)


@pytest.fixture
def parsed(monkeypatch):
    """`parse_model`'s outcome as `_per_line` gives it; checks that the
    per-line parser ran exactly when the text does not parse."""
    texts = []

    def parse_lines(text, strict):
        texts.append(text)
        return _PARSE_LINES(text, strict)

    monkeypatch.setattr(model, "_parse_lines", parse_lines)

    def outcome(text, strict=False):
        del texts[:]
        try:
            out = repr(parse_model(text, strict_vertices=strict))
        except ModelError as exc:
            out = str(exc)
        assert texts == ([] if out.startswith("ModelDecl(") else [text])
        return out
    return outcome


LINES = ["model m", "initial s0", "vertex s0", "edge a s0 -> s1 s2",
         'edge b s1 -> s0 label "x"', "edge c s2 -> s0"]


class TestLineBoundaries:
    """Texts are split into lines as by str.splitlines, on both scanners."""

    @pytest.mark.parametrize("sep", LINE_BREAKS, ids=ascii)
    def test_separator(self, scanner, parsed, sep):
        text = sep.join(LINES) + sep
        assert parsed(text) == parsed("\n".join(LINES) + "\n") == _per_line(text)
        bad = sep.join(LINES[:2] + ["edge d s0 -> s~"] + LINES[2:])
        assert parsed(bad) == "line 3: bad identifier 's~'" == _per_line(bad)
        mixed = "initial s0\n" + sep + "edge d s0 -> s~\n"  # two breaks: a blank line
        assert parsed(mixed) == "line 3: bad identifier 's~'" == _per_line(mixed)

    def test_no_final_newline(self, scanner, parsed):
        text = "\n".join(LINES)
        assert parsed(text) == parsed(text + "\n") == _per_line(text)
        assert parsed("initial s0\nedge a s0 -> s~") == "line 2: bad identifier 's~'"
        assert parsed("") == parsed("\n\n") == "missing initial line"

    @pytest.mark.parametrize("blanks", [["", " ", "\t", "\x1f", " \t\x1f "],
                                        ["", "\u00a0", "\u3000 ", "\x1f"]], ids=["ascii", "unicode"])
    def test_blank_and_whitespace_only_lines(self, scanner, parsed, blanks):
        text = "\n".join(line for pair in zip(blanks * 2, LINES) for line in pair)
        assert parsed(text) == parsed("\n".join(LINES)) == _per_line(text)
        bad = "\n".join(blanks + ["initial s0", "edge a s0 -> s1 s1"])
        message = f"line {len(blanks) + 2}: edge a: duplicate tail vertex"
        assert parsed(bad) == message == _per_line(bad)

    def test_non_ascii_label(self, scanner, parsed):
        text = 'initial s0\nedge a s0 -> s1 label "caf\u00e9 \u2013 \u00fc"\nedge b s1 -> s0\n'
        assert parse_model(text).by_id["a"].label == "caf\u00e9 \u2013 \u00fc"
        assert parsed(text) == _per_line(text)
        commented = "# caf\u00e9\n" + text
        assert parsed(commented) == parsed(text) == _per_line(commented)

    def test_non_ascii_identifier(self, scanner, parsed):
        text = "initial s0\nedge a s0 -> s1\nedge b s1 -> s\u00e9\n"
        assert parsed(text) == "line 3: bad identifier 's\u00e9'" == _per_line(text)
        assert parsed("initial s\u00e90\n") == "line 1: bad identifier 's\u00e90'"


# Random texts from the format's tokens: valid lines and lines that break
# one rule, joined by every line boundary.
_IDS = ["s0", "s1", "s2", "s3", "virtual", "interior", "a.b", "x-1"]
_BAD = ["s~", "s\u00e9", "->", '"x"', '"x#y"', "label", "#", "#c", '"', "\u00a0"]
_SPACES = [" "] * 3 + ["  ", "\t", "\x1f", "\u3000"]
_NEWLINES = ["\n"] * 8 + ["\n\n", "\n \t\n"]


def _random_line(rng):
    ids = rng.sample(_IDS, rng.randint(1, 3))
    form = rng.randrange(7)
    if form == 0:
        tokens = ["initial", rng.choice(_IDS[:4])]
    elif form == 1:
        tokens = ["model", "m"]
    elif form == 2:
        tokens = ["vertex", rng.choice(_IDS)] + ["virtual"] * (rng.random() < 0.3)
    else:
        tokens = ["edge", rng.choice("abcdefghijkl"), rng.choice(_IDS[:4]), "->", *ids]
        if rng.random() < 0.2:
            tokens += ["label", rng.choice(['"hit"', '"a b"', '"x#y"', '"\u00e9"'])]
        if rng.random() < 0.15:
            tokens.append("virtual")
        if rng.random() < 0.15:
            tokens += ["interior", *rng.sample(_IDS, rng.randint(0, 2))]
    if rng.random() < 0.15:
        tokens[rng.randrange(len(tokens))] = rng.choice(_BAD)
    if rng.random() < 0.1:
        tokens.append("# " + rng.choice(_IDS + _BAD))
    line = tokens[0]
    for token in tokens[1:]:
        line += (rng.choice(_SPACES) if rng.random() < 0.2 else " ") + token
    return line


def _random_text(rng):
    lines = [_random_line(rng) for _ in range(rng.randint(0, 8))]
    if rng.random() < 0.8:
        lines.insert(rng.randint(0, len(lines)), "initial s0")
    breaks = _NEWLINES if rng.random() < 0.6 else _NEWLINES + list(LINE_BREAKS)
    text = "".join(line + rng.choice(breaks) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


def test_random_texts_match_the_per_line_parser(scanner, parsed):
    rng = random.Random(15)
    valid = 0
    for _ in range(600):
        text = _random_text(rng)
        strict = rng.random() < 0.3
        outcome = parsed(text, strict)
        assert outcome == _per_line(text, strict), text
        valid += outcome.startswith("ModelDecl(")
    assert valid >= 100  # enough of the texts parse
