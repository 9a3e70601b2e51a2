import copy
import functools
import importlib.machinery
import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

# The tests run the extension pytest_configure builds from this checkout,
# or none: never one left in src/ by an earlier in-place build.
sys.modules["hypergame._native"] = None
import hypergame.engine  # noqa: E402
import hypergame.model  # noqa: E402
import hypergame.ranks  # noqa: E402
from hypergame.model import Edge, ModelDecl, parse_model  # noqa: E402
from hypergame.ranks import UNREACHABLE  # noqa: E402
from hypergame.ranks.pure import UNREACH_INT, PureRankEngine  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NO_COMPILER = "no C++ compiler"
# None once the compiled backend is registered; else why it is not.
_COMPILED_MISSING = pytest.StashKey[str | None]()
# The extension module built, or None when none was.
BUILT = pytest.StashKey[object]()


def _have_compiler() -> bool:
    # setup.py compiles .cpp files with CC and links them with CXX.
    for var in ("CC", "CXX"):
        cmd = shlex.split(os.environ.get(var) or sysconfig.get_config_var(var) or "")
        if not cmd or shutil.which(cmd[0]) is None:
            return False
    return True


def _build_compiled(tmp: Path, config) -> str | None:
    """Build the C++ extension from this checkout's sources into `tmp` with
    setup.py, register its rank engine as hypergame.ranks.CompiledRankEngine,
    its move loop, checked by `_loops_agree`, as
    hypergame.engine.play_compiled, the line scanner, checked by
    `_scanners_agree`, as hypergame.model.compiled_scan_plain, and the edge
    kernels, each given Edge as its first argument, as model.py gives it,
    and checked by `_builders_agree`, as hypergame.model.compiled_make_edges
    and compiled_check_edges. Returns None on success, else the reason the
    compiled backend is missing."""
    config.stash[BUILT] = None
    if not _have_compiler():
        return NO_COMPILER
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp / "lib"),
         "--build-temp", str(tmp / "obj")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    built = [p for suffix in importlib.machinery.EXTENSION_SUFFIXES
             for p in (tmp / "lib" / "hypergame").glob("_native" + suffix)]
    if proc.returncode != 0 or not built:
        return f"building the C++ extension failed:\n{proc.stdout}{proc.stderr}"
    spec = importlib.util.spec_from_file_location("hypergame._native", built[0])
    native = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(native)
    config.stash[BUILT] = sys.modules[spec.name] = native
    hypergame.ranks.CompiledRankEngine = native.CompiledRankEngine
    hypergame.engine.play_compiled = _loops_agree(hypergame.engine.play_compiled)
    hypergame.model.compiled_scan_plain = _scanners_agree(native.scan_plain)
    (hypergame.model.compiled_make_edges,
     hypergame.model.compiled_check_edges) = _builders_agree(
        functools.partial(native.make_edges, Edge), functools.partial(native.check_edges, Edge))
    return None


# The line boundaries of str.splitlines other than \n.
LINE_BREAKS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _scanners_agree(compiled):
    """`compiled`, which also runs the pure scanner and asserts that both
    give the same columns, or, where the compiled one gives None, that the
    text is not ASCII or holds a line boundary other than \\n. So every
    parse in a test that does not pin a scanner runs both."""
    def scan_plain(text):
        columns = compiled(text)
        if columns is None:
            assert not text.isascii() or any(b in text for b in LINE_BREAKS)
        else:
            assert columns == hypergame.model.scan_plain(text)
        return columns
    return scan_plain


def _builders_agree(make_edges, check_edges):
    """The compiled edge kernels, each of which also runs its pure twin and
    asserts the same result: equal edges with equal reprs, or the same
    error, from `make_edges`; the same edge objects in the same order and
    the same verdict from `check_edges`, which may give None only for
    input it does not take. So every parse, transform and declaration in a
    test that does not pin a builder runs both."""
    def make(*columns):
        try:
            edges = make_edges(*columns)
        except Exception as exc:
            with pytest.raises(type(exc)) as pure:
                hypergame.model.make_edges(*columns)
            assert str(pure.value) == str(exc)
            raise
        pure = hypergame.model.make_edges(*columns)
        assert edges == pure and repr(edges) == repr(pure)
        assert all(type(e) is Edge for e in edges)
        return edges

    def check(edges, vertex_set):
        checked = check_edges(edges, vertex_set)
        if checked is None:
            assert not (type(edges) in (tuple, list) and all(map(_plain_edge, edges)))
        else:
            pure = hypergame.model.check_edges(edges, vertex_set)
            assert checked[1] == pure[1] and len(checked[0]) == len(pure[0])
            assert all(a is b for a, b in zip(checked[0], pure[0]))
        return checked
    return make, check


def _loops_agree(play_compiled):
    """`play_compiled`, which also plays each session through the Python
    loop of `run_session`, on the compiled engine, against a copy of the
    adversary taken before the session, and asserts that both loops give
    the same transcript, the same stats (every `WorkStats` field, `flushes`
    included) and the same adversary state after it. So
    every session a test plays on the compiled loop runs both loops."""
    def play(source, adversary, draws, max_moves, seed):
        reference = copy.deepcopy(adversary)
        # respond as an instance attribute: run_session takes the Python loop.
        reference.respond = functools.partial(adversary.respond.__func__, reference)
        want = hypergame.engine.run_session(source, reference, max_moves, seed,
                                            backend="compiled")
        got = play_compiled(source, adversary, draws, max_moves, seed)
        assert hypergame.engine.format_trace(got[0]) == hypergame.engine.format_trace(want[0])
        assert hypergame.engine.format_stats(got[1]) == hypergame.engine.format_stats(want[1])
        assert got == want
        del reference.respond
        assert adversary_state(adversary) == adversary_state(reference)
        return got
    return play


def adversary_state(adversary):
    """What an adversary holds, with its rng's state for the rng."""
    return {k: v.getstate() if k == "rng" else v for k, v in vars(adversary).items()}


def _plain_edge(e):
    """Whether `check_edges`'s compiled twin takes edge `e`."""
    def names(t):
        return type(t) is tuple and len(t) <= 32 and all(type(v) is str for v in t)
    return (type(e) is Edge and type(e.id) is type(e.head) is type(e.kind) is str
            and names(e.tail) and names(e.interior))


@pytest.hookimpl(trylast=True)  # after the tmpdir plugin set up its factory
def pytest_configure(config):
    tmp = config._tmp_path_factory.mktemp("rank-core")
    config.stash[_COMPILED_MISSING] = _build_compiled(tmp, config)


def require_compiled(config) -> None:
    """Skip when no compiler can build the compiled backend; fail when the
    build itself failed."""
    missing = config.stash[_COMPILED_MISSING]
    if missing == NO_COMPILER:
        pytest.skip(NO_COMPILER)
    if missing is not None:
        pytest.fail(missing, pytrace=False)


G1_TEXT = """\
model G1
initial s0
edge a s0 -> s1 s2
edge b s1 -> s0
edge c s2 -> s0
"""

G2_TEXT = """\
model G2
initial s0
edge e1 s0 -> s1
edge e2 s1 -> s2
"""

G3_TEXT = """\
model G3
initial s0
edge f s0 -> s0 s1
"""


@pytest.fixture
def g1():
    return parse_model(G1_TEXT)


@pytest.fixture
def g2():
    return parse_model(G2_TEXT)


@pytest.fixture
def g3():
    return parse_model(G3_TEXT)


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    if request.param == "compiled":
        require_compiled(request.config)
    return request.param


@pytest.fixture(params=["pure", "compiled"])
def scanner(request, monkeypatch):
    """The line scanner `parse_model` uses in this test: the pure one, or
    the compiled one, which skips without a C++ compiler."""
    if request.param == "compiled":
        require_compiled(request.config)
    else:
        monkeypatch.setattr(hypergame.model, "compiled_scan_plain", None)
    return request.param


@pytest.fixture(params=["pure", "compiled"])
def builder(request, monkeypatch):
    """The edge kernels this test builds and checks edges with: the pure
    ones, or the compiled ones as built, not checked against the pure ones;
    the compiled ones skip without a C++ compiler."""
    built = None
    if request.param == "compiled":
        require_compiled(request.config)
        built = request.config.stash[BUILT]
    monkeypatch.setattr(hypergame.model, "compiled_make_edges",
                        built and functools.partial(built.make_edges, Edge))
    monkeypatch.setattr(hypergame.model, "compiled_check_edges",
                        built and functools.partial(built.check_edges, Edge))
    return request.param


def snapshot_ranks(table):
    """Stored ranks of a RankTable's vertices and live edges, each with
    whether it is exact, from the engine's snapshot() alone.

    Returns ({vertex: (rank, exact)}, {edge id: (rank, exact)}). The queue
    minimum is the smallest stored value of a dirty vertex; a clean vertex
    is exact at or below it, an edge below it, and either one once it is
    unreachable. With no unmarked vertex left, everything is unreachable.
    """
    eng = table.eng
    snap = eng.snapshot()
    if eng.unmarked == 0:
        return ({v: (UNREACHABLE, True) for v in table.vid},
                {e.id: (UNREACHABLE, True) for e in table.live_edge_objects()})
    dirty = [s for s, d in zip(snap["vstored"], snap["vdirty"]) if d]
    qmin = min(dirty, default=UNREACH_INT)
    if isinstance(eng, PureRankEngine):
        # Every dirty vertex has a live queue entry at its stored value.
        live = [k for k, v in eng.heap if eng.vdirty[v] and k == eng.vstored[v]]
        assert min(live, default=UNREACH_INT) == qmin

    def rank(value):
        return UNREACHABLE if value == UNREACH_INT else value

    vertices = {}
    for name, v in table.vid.items():
        s = snap["vstored"][v]
        exact = not snap["vdirty"][v] and (s == UNREACH_INT or s <= qmin)
        vertices[name] = (rank(s), exact)
    edges = {}
    for e, edge in enumerate(table.live_edge_objects()):
        s = snap["estored"][e]
        edges[edge.id] = (rank(s), s == UNREACH_INT or s < qmin)
    return vertices, edges


def incident_ids(table, v):
    """The live edges with head v, in id order: v's range of dense ids."""
    return [e.id for e in table.live_edge_objects() if e.head == v]


def random_decl(rng: random.Random, max_vertices=12, max_edges=20,
                allow_self_loops=True) -> ModelDecl:
    """Small random hypergraph for property tests; fanouts 1..3, self-loops
    included unless disabled."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i:02d}" for i in range(n)]
    edges = []
    for j in range(rng.randint(0, max_edges)):
        head = rng.choice(vs)
        pool = vs if allow_self_loops else [v for v in vs if v != head]
        if not pool:
            continue
        fanout = rng.randint(1, min(3, len(pool)))
        tail = tuple(sorted(rng.sample(pool, fanout)))
        edges.append(Edge(f"e{j:02d}", head, tail))
    return ModelDecl(initial=vs[0], vertices=tuple(vs), edges=tuple(edges))


def lost_base_decl(rng: random.Random, cycles=12):
    """A cyclic region that loses its last unmarked base, with the marking
    order that makes it do so.

    Each of `cycles` rings of 2..4 states has one state with an edge to the
    base `c`; s0 reaches the first ring. The order marks every ring state,
    then `c`, whose marking leaves the whole region without support, then a
    spare state `z` (kept unmarked until last so that queries still drain).
    The region's ranks then creep up one ring length per queue pop towards
    the cap of |marked| + 1, here the vertex count as only `z` is unmarked.
    That takes more work than the engine's budget, so the engine finalizes
    the region with an unreachable flush.
    """
    edges = []
    ring_states = []
    for i in range(cycles):
        ring = [f"r{i:02d}_{j}" for j in range(rng.randint(2, 4))]
        for j, v in enumerate(ring):
            edges.append(Edge(f"e{i:02d}_{j}", v, (ring[(j + 1) % len(ring)],)))
        edges.append(Edge(f"e{i:02d}_c", ring[0], ("c",)))
        ring_states += ring
    edges.append(Edge("e_s0", "s0", ("r00_0",)))
    order = list(ring_states)
    rng.shuffle(order)
    order += ["c", "z"]
    decl = ModelDecl(initial="s0", vertices=tuple(["s0", "c", "z"] + ring_states),
                     edges=tuple(edges))
    return decl, order


# The reference the engines are checked against: a naive round-based rank
# fixpoint. Start everything unreachable and iterate
#
#     edge rank   = max over tail vertex ranks (0 if the tail is empty)
#     vertex rank = 1 + min over incident edge ranks
#
# until nothing changes. Unmarked vertices carry an implicit empty-tail
# marker edge, which is the base case of the fixpoint. No attention is paid
# to performance.
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
    """`oracle_ranks` over a ModelDecl; marked defaults to {initial}."""
    if marked is None:
        marked = {decl.initial}
    return oracle_ranks(decl.vertices, decl.edges, marked, include_dead)


def gen_strongly_connected(n: int, extra_degree: int, fanout: int, seed: int) -> ModelDecl:
    """A ring of singleton edges (so every state stays forceably reachable)
    plus `extra_degree` random fanout edges per state. Used by fairness and
    completeness tests, which need models that cannot dead-end."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if fanout > n - 1:
        raise ValueError("fanout too large")
    rng = random.Random(seed)
    width = len(str(n - 1))
    vertices = [f"s{i:0{width}d}" for i in range(n)]
    edges = [
        Edge(f"ring{i:0{width}d}", vertices[i], (vertices[(i + 1) % n],))
        for i in range(n)
    ]
    for i, head in enumerate(vertices):
        others = vertices[:i] + vertices[i + 1 :]
        for j in range(extra_degree):
            tail = tuple(sorted(rng.sample(others, fanout)))
            edges.append(Edge(f"x{i:0{width}d}.{j}", head, tail))
    return ModelDecl(initial=vertices[0], vertices=tuple(vertices), edges=tuple(edges))
