"""Rank maintenance: the lazy decremental engine and its session-facing table.

The engines are the only places that know the game's marker edges: every
unmarked vertex carries an implicit empty-tail edge, which is the base case
of the rank recursion. Declarations and providers hold only real and virtual
edges.

The engine has two interchangeable backends, one copy of the algorithm each:
a compiled C++ engine and a pure-Python fallback (`pure.py`). The compiled
one is `CompiledRankEngine` of the extension `hypergame._native`, which
`model.py` imports and checks; it is None when the package runs pure.
`backend=None` or "auto" picks the compiled one when the extension was built.
The compiled engine also plays whole sessions for `engine.run_session`.
"""

from ..model import _native
from .pure import UNREACHABLE, PureRankEngine

CompiledRankEngine = _native.CompiledRankEngine if _native else None


def get_engine_class(backend=None):
    """The engine class for `backend`: None or "auto" (compiled when built,
    else pure), "pure" or "compiled". ValueError for any other name."""
    if backend is None or backend == "auto":
        return CompiledRankEngine or PureRankEngine
    if backend == "pure":
        return PureRankEngine
    if backend != "compiled":
        raise ValueError(f"unknown backend {backend!r}: expected None, 'auto', "
                         f"'pure' or 'compiled'")
    if CompiledRankEngine is None:
        raise RuntimeError("compiled rank engine requested but not built")
    return CompiledRankEngine


from .table import RankTable, WorkStats  # noqa: E402

__all__ = [
    "RankTable",
    "UNREACHABLE",
    "WorkStats",
    "get_engine_class",
]
