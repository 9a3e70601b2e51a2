"""How a session plays a declaration, and model generators for benchmarks.

A session plays a `ModelDecl`, which is valid once built (see `model`). A
`DeclProvider` wraps one to choose lazy or eager play. The session's
`RankTable` is its one caller: it asks for a vertex's edges when it marks
the vertex, the initial vertex at session start. A provider holds no
per-session state, so one provider may serve many sessions.
"""

from __future__ import annotations

import random

from .model import Edge, ModelDecl


class DeclProvider:
    """A declaration and how to play it. `expand(v)` hands out v's edges,
    from the declaration's `by_head` index, in id order; the rank table calls
    it once per marking. A lazy provider lets the session discover states as
    live tails name them; an eager one (`lazy=False`) gives the session every
    declared vertex and interior from the start."""

    def __init__(self, decl: ModelDecl, lazy: bool = True):
        self.decl = decl
        self.lazy = lazy

    def expand(self, v: str) -> tuple[Edge, ...]:
        return self.decl.by_head.get(v, ())


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
