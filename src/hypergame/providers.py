"""How a session plays a declaration, and model generators for benchmarks.

A session plays a `ModelDecl`, which is valid once built (see `model`):
eagerly when given the declaration itself, lazily when given it wrapped in a
`DeclProvider`. The session's `RankTable`, or the compiled move loop, tells
the two apart. A provider holds no per-session state, so one provider may
serve many sessions.
"""

from __future__ import annotations

import random

from .model import Edge, ModelDecl


class DeclProvider:
    """A declaration played lazily: the session discovers states as the
    tails of the edges it promotes name them, where eager play knows every
    declared vertex from the start."""

    def __init__(self, decl: ModelDecl):
        self.decl = decl


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
