"""Game-based conformance testing against nondeterministic specifications.

The system under test and the tester play on a directed hypergraph: the
tester picks a stimulus (an edge incident on the current state), the system
picks the next state from its tail. Coverage grows while the current state
keeps a finite rank; the session stops exactly when the system has a
strategy to avoid all further coverage.

A session runs as `hypergame run` runs it: `parse_model`, then
`apply_transforms`, then `run_session` on the declaration (eager) or on a
`DeclProvider` (lazy) against an adversary from `make_adversary`;
`format_trace` and `format_stats` render the result. In the Python move
loop the session is a `GameState(source)`, a `RankTable` that also holds
the game position. The table is the one reader of the declaration's edges
and the one place that tells eager from lazy play: each
`apply_marking(v)` takes v's edges from the declaration's `by_head`.
For the built-in adversaries on the compiled engine, the compiled core
plays the whole session on an integer copy of the declaration instead. `hypergame rank` prints a
position's ranks from the same table, so it runs the session's rank code.
Every `ModelDecl`, parsed, generated or transformed, is sorted and
validated when it is built, so no later step checks it again.
"""

__version__ = "0.1.0"

from .adversaries import Avoider, RandomFair, make_adversary
from .engine import GameState, format_stats, format_trace, run_session
from .minimax import minimax_moves_to_mark, strategy_moves_to_mark
from .model import (Edge, ModelDecl, ModelError, build_game_graph, parse_model,
                    serialize_model)
from .providers import DeclProvider, gen_chain, gen_random_bounded_degree
from .ranks import RankTable, UNREACHABLE
from .transforms import apply_transforms

__all__ = [
    "Avoider", "DeclProvider", "Edge", "GameState", "ModelDecl", "ModelError",
    "RandomFair", "RankTable", "UNREACHABLE", "apply_transforms",
    "build_game_graph", "format_stats", "format_trace", "gen_chain",
    "gen_random_bounded_degree", "make_adversary", "minimax_moves_to_mark",
    "parse_model", "run_session", "serialize_model", "strategy_moves_to_mark",
]
