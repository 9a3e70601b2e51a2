"""Rank maintenance: lazy decremental engine plus the naive oracle.

The engine has two interchangeable backends: a compiled C++ core
(`_core.cpp`) and a pure-Python fallback. The compiled one is preferred
when the extension was built; HYPERGAME_BACKEND=pure|compiled overrides.
"""

import os

from .pure import PureRankEngine

try:
    from ._core import CompiledRankEngine
except ImportError:  # extension not built
    CompiledRankEngine = None

BACKEND = "compiled" if CompiledRankEngine is not None else "pure"


def get_engine_class(backend=None):
    backend = backend or os.environ.get("HYPERGAME_BACKEND") or "auto"
    if backend in ("auto", "compiled") and CompiledRankEngine is not None:
        return CompiledRankEngine
    if backend == "compiled":
        raise RuntimeError("compiled rank engine requested but not built")
    return PureRankEngine


def available_backends():
    out = ["pure"]
    if CompiledRankEngine is not None:
        out.append("compiled")
    return out


from .oracle import UNREACHABLE, oracle_ranks, oracle_for_decl  # noqa: E402
from .table import RankTable, WorkStats, compute_ranks  # noqa: E402

__all__ = [
    "BACKEND",
    "RankTable",
    "UNREACHABLE",
    "WorkStats",
    "available_backends",
    "compute_ranks",
    "get_engine_class",
    "oracle_for_decl",
    "oracle_ranks",
]
