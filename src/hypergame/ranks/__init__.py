"""Rank maintenance: the lazy decremental engine and its session-facing table.

The engines are the only places that know the game's marker edges: every
unmarked vertex carries an implicit empty-tail edge, which is the base case
of the rank recursion. Declarations and providers hold only real and virtual
edges.

The engine has two interchangeable backends, one copy of the algorithm each:
a compiled C++ core (`_core.cpp`) and a pure-Python fallback (`pure.py`).
`backend=None` or "auto" picks the compiled one when the extension was built.
"""

from .pure import UNREACHABLE, PureRankEngine

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


from .table import RankTable, WorkStats  # noqa: E402

__all__ = [
    "RankTable",
    "UNREACHABLE",
    "WorkStats",
    "get_engine_class",
]
