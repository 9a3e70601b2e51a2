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

import hypergame.ranks
from hypergame.model import Edge, ModelDecl, parse_model
from hypergame.ranks import UNREACHABLE, oracle_ranks
from hypergame.ranks.pure import UNREACH_INT, PureRankEngine

ROOT = Path(__file__).resolve().parent.parent
NO_COMPILER = "no C++ compiler"
# None once the compiled backend is registered; else why it is not.
_COMPILED_MISSING = pytest.StashKey[str | None]()


def _have_compiler() -> bool:
    # setup.py compiles .cpp files with CC and links them with CXX.
    for var in ("CC", "CXX"):
        cmd = shlex.split(os.environ.get(var) or sysconfig.get_config_var(var) or "")
        if not cmd or shutil.which(cmd[0]) is None:
            return False
    return True


def _build_compiled(tmp: Path) -> str | None:
    """Build the C++ rank core from this checkout's sources into `tmp` with
    setup.py and register it as hypergame.ranks.CompiledRankEngine. Returns
    None on success, else the reason the compiled backend is missing."""
    if not _have_compiler():
        return NO_COMPILER
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp / "lib"),
         "--build-temp", str(tmp / "obj")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    built = [p for suffix in importlib.machinery.EXTENSION_SUFFIXES
             for p in (tmp / "lib" / "hypergame" / "ranks").glob("_core" + suffix)]
    if proc.returncode != 0 or not built:
        return f"building the C++ rank core failed:\n{proc.stdout}{proc.stderr}"
    spec = importlib.util.spec_from_file_location("hypergame.ranks._core", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[spec.name] = module
    hypergame.ranks.CompiledRankEngine = module.CompiledRankEngine
    return None


@pytest.hookimpl(trylast=True)  # after the tmpdir plugin set up its factory
def pytest_configure(config):
    tmp = config._tmp_path_factory.mktemp("rank-core")
    config.stash[_COMPILED_MISSING] = _build_compiled(tmp)


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


def edges_by_head(decl):
    out = {}
    for e in decl.edges:
        out.setdefault(e.head, []).append(e)
    return {h: sorted(es, key=lambda e: e.id) for h, es in out.items()}


def lost_base_decl(rng: random.Random, cycles=12):
    """A cyclic region that loses its last unmarked base, with the marking
    order that makes it do so.

    Each of `cycles` rings of 2..4 states has one state with an edge to the
    base `c`; s0 reaches the first ring. The order marks every ring state,
    then `c`, whose marking leaves the whole region without support, then a
    spare state `z` (kept unmarked until last so that queries still drain).
    The region's ranks then creep up one ring length per queue pop towards
    the vertex-count cap, which takes more pops than the engine's work
    budget, so the engine finalizes the region with an unreachable flush.
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
