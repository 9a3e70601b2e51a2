"""State-space providers and model generators for benchmarks.

A provider answers two questions: where does the session start, and which
edges leave a vertex. The engine asks the latter exactly once per vertex,
when the vertex is marked (or at session start for the initial vertex).
Providers hold no per-session state, so one provider may serve many
sessions.

`GameState` reads this protocol from every provider:

- `initial`: the starting vertex;
- `lazy`: False when the whole state space is known up front;
- `virtual_vertices`: the vertices that count as virtual in the stats;
- `expand(v)`: the edges with head `v`, in any order.

An eager provider (`lazy` False) also has `decl`, the declaration from
which the session takes its known vertices and interiors. A declaration is
valid once built (see `model`), so a provider checks nothing itself.
"""

from __future__ import annotations

import random

from .model import Edge, ModelDecl


class DeclProvider:
    """Provider backed by a declaration. Edges are handed out, from the
    declaration's `by_head` index, only when their head is marked. A lazy
    provider lets the session discover states as live tails name them,
    exactly as with a generated state space; an eager one (`lazy=False`)
    gives the session every declared vertex and interior from the start."""

    def __init__(self, decl: ModelDecl, lazy: bool = True):
        self.decl = decl
        self.lazy = lazy
        self.virtual_vertices = decl.virtual_vertices

    @property
    def initial(self) -> str:
        return self.decl.initial

    def expand(self, v: str) -> tuple[Edge, ...]:
        return self.decl.by_head.get(v, ())


class CounterMachineProvider:
    """States 0..n with a single increment edge between neighbours; exists to
    exercise truly generated (never materialized) state spaces."""

    lazy = True
    virtual_vertices = frozenset()

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n

    @property
    def initial(self) -> str:
        return "0"

    def expand(self, v: str) -> list[Edge]:
        i = int(v)
        if i >= self.n:
            return []
        return [Edge(f"inc{i}", str(i), (str(i + 1),))]


def _pad(i: int, width: int) -> str:
    return f"{i:0{width}d}"


def check_random_params(n: int, out_degree: int, fanout: int) -> None:
    """Raise ValueError unless `gen_random_bounded_degree` takes these."""
    if n < 1 or out_degree < 1 or fanout < 1:
        raise ValueError("n, out_degree and fanout must be >= 1")
    if n > 1 and fanout > n - 1:
        raise ValueError(f"fanout {fanout} too large for {n} states (needs distinct tail)")


def gen_random_bounded_degree(n: int, out_degree: int, fanout: int, seed: int) -> ModelDecl:
    """Random model: n states, `out_degree` edges per state, each tail a set
    of `fanout` distinct states drawn uniformly excluding the head (so no
    self-loops). Deterministic in the seed; connectivity is not guaranteed.
    """
    check_random_params(n, out_degree, fanout)
    width = max(1, len(str(n - 1)))
    vertices = [f"s{_pad(i, width)}" for i in range(n)]
    if n == 1:
        return ModelDecl(initial=vertices[0], vertices=tuple(vertices), edges=())
    rng = random.Random(seed)
    ewidth = max(1, len(str(out_degree - 1)))
    indices = range(n)
    edges = []
    for i, head in enumerate(vertices):
        for j in range(out_degree):
            while True:
                picks = rng.sample(indices, fanout)
                if i not in picks:
                    break
            tail = tuple(vertices[p] for p in sorted(picks))
            edges.append(Edge(f"e{_pad(i, width)}.{_pad(j, ewidth)}", head, tail))
    return ModelDecl(initial=vertices[0], vertices=tuple(vertices), edges=tuple(edges))


def gen_chain(length: int) -> ModelDecl:
    """A straight chain of `length` states (length - 1 singleton edges)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    width = max(1, len(str(length - 1)))
    vertices = [f"s{_pad(i, width)}" for i in range(length)]
    edges = tuple(
        Edge(f"e{_pad(i, width)}", vertices[i - 1], (vertices[i],))
        for i in range(1, length)
    )
    return ModelDecl(initial=vertices[0], vertices=tuple(vertices), edges=edges)


def gen_strongly_connected(n: int, extra_degree: int, fanout: int, seed: int) -> ModelDecl:
    """A ring of singleton edges (so every state stays forceably reachable)
    plus `extra_degree` random fanout edges per state. Used by fairness and
    completeness tests, which need models that cannot dead-end."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if fanout > n - 1:
        raise ValueError("fanout too large")
    rng = random.Random(seed)
    width = max(1, len(str(n - 1)))
    vertices = [f"s{_pad(i, width)}" for i in range(n)]
    edges = [
        Edge(f"ring{_pad(i, width)}", vertices[i], (vertices[(i + 1) % n],))
        for i in range(n)
    ]
    for i, head in enumerate(vertices):
        others = vertices[:i] + vertices[i + 1 :]
        for j in range(extra_degree):
            tail = tuple(sorted(rng.sample(others, fanout)))
            edges.append(Edge(f"x{_pad(i, width)}.{j}", head, tail))
    return ModelDecl(initial=vertices[0], vertices=tuple(vertices), edges=tuple(edges))
