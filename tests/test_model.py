import pytest
from hypothesis import given, settings, strategies as st

from hypergame.model import (Edge, ModelDecl, ModelError, build_game_graph,
                             parse_model, serialize_model)

from conftest import G1_TEXT


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

    def test_with_edges_validates(self, g1):
        with pytest.raises(ModelError, match=r"^UnknownVertex\(s2\): tail of edge a; "
                                             r"UnknownVertex\(s2\): head of edge c$"):
            g1.with_edges(g1.edges, drop_vertices=["s2"])

    def test_build_rejects_invalid(self):
        with pytest.raises(ModelError, match=r"^UnknownVertex\(zz\): tail of edge a$"):
            ModelDecl(initial="s0", vertices=("s0",), edges=(Edge("a", "s0", ("zz",)),))



@st.composite
def decls(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    vs = tuple(f"v{i}" for i in range(n))
    m = draw(st.integers(min_value=0, max_value=8))
    edges = []
    for j in range(m):
        head = draw(st.sampled_from(vs))
        size = draw(st.integers(min_value=1, max_value=n))
        tail = tuple(sorted(draw(st.permutations(vs))[:size]))
        label = draw(st.sampled_from(["", "hit", 'say "hi"', "a\\b", "x#y", 'say "#1"']))
        edges.append(Edge(f"e{j}", head, tail, label=label))
    name = draw(st.sampled_from(["", "m1"]))
    return ModelDecl(initial=vs[0], vertices=vs, edges=tuple(edges), name=name)


@settings(max_examples=150, deadline=None)
@given(decls())
def test_serialize_parse_round_trip(decl):
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
