"""Rank maintenance: lazy decremental engine plus the naive oracle.

These are the only places that know the game's marker edges: every unmarked
vertex carries an implicit empty-tail edge, which is the base case of the
rank recursion. Declarations and providers hold only real and virtual edges.

The engine has two interchangeable backends: a compiled C++ core
(`_core.cpp`) and a pure-Python fallback. `backend=None` or "auto" picks the
compiled one when the extension was built.
"""

from .pure import PureRankEngine

try:
    from ._core import CompiledRankEngine
except ImportError:  # extension not built
    CompiledRankEngine = None


def get_engine_class(backend=None):
    backend = backend or "auto"
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


from .oracle import UNREACHABLE, oracle_ranks  # noqa: E402
from .table import RankTable, WorkStats  # noqa: E402

__all__ = [
    "RankTable",
    "UNREACHABLE",
    "WorkStats",
    "available_backends",
    "get_engine_class",
    "oracle_ranks",
]
