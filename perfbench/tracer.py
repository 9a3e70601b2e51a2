"""Outside-in layer trace: wraps public callables of the package for the
length of a `with` block and accumulates, per span name, call counts, total
time and self time (total minus the time of wrapped calls made inside it).

Nothing in the package changes; the wrappers are installed with `setattr` on
the module or class that owns each callable and removed on exit.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        calls, total, self_time, children = self.calls, self.total, self.self_time, self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - inner
                if children:
                    children[-1] += dt

        return traced

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False


def _find(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


def trace_package(hg, tracer: Tracer) -> Tracer:
    """Install the tracer's spans at the layer boundaries of the `hypergame`
    package; use the result as a context manager, which removes them again.
    A boundary the package no longer has is reported on stderr and left out,
    so its metrics read 0."""
    adversaries = sys.modules["hypergame.adversaries"]
    engine = sys.modules["hypergame.engine"]
    ranks_table = sys.modules["hypergame.ranks.table"]
    spans = [
        (hg, "parse_model", "model.parse"),
        (hg, "build_game_graph", "model.validate"),
        (hg, "apply_transforms", "transforms.apply"),
        (hg, "run_session", "engine.run_session"),
        # run_session validates an eager declaration again, through the
        # name the engine module imported.
        (engine, "build_game_graph", "engine.validate"),
        (hg.GameState, "tester_choose", "engine.tester_choose"),
        (hg.GameState, "apply_response", "engine.apply_response"),
        (hg.RandomFair, "respond", "adversaries.respond"),
        (hg.Avoider, "respond", "adversaries.respond"),
        (adversaries, "oracle_ranks", "ranks.oracle"),
        (hg.DeclProvider, "expand", "providers.expand"),
        (hg.RankTable, "__init__", "ranks.table.init"),
        (hg.RankTable, "ensure_settled", "ranks.table.ensure"),
        (hg.RankTable, "apply_marking", "ranks.table.mark"),
    ]
    for owner, attr, name in spans:
        fn = _find(owner, attr)
        if fn is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found, "
                  f"span {name} left out", file=sys.stderr)
            continue
        tracer._replace(owner, attr, tracer.wrap(name, fn))

    # The rank engine is reached through the table's engine-class lookup.
    # A subclass carries the `ensure` and `mark` spans; unlike replacing
    # attributes, this also works on a compiled extension type.
    get_engine_class = ranks_table.get_engine_class
    subclasses = {}

    def traced_engine_class(backend=None):
        base = get_engine_class(backend)
        if base not in subclasses:
            attrs = {a: tracer.wrap(f"ranks.engine.{a}", getattr(base, a))
                     for a in ("ensure", "mark")}
            subclasses[base] = type(f"Traced{base.__name__}", (base,), attrs)
        return subclasses[base]

    tracer._replace(ranks_table, "get_engine_class", traced_engine_class)
    return tracer
