"""The package's public surface: what `__all__` promises and what the session
benchmark under `perfbench/` reads."""

import importlib

import pytest

import hypergame


@pytest.mark.parametrize("name", hypergame.__all__)
def test_all_names_resolve(name):
    assert getattr(hypergame, name) is not None


# (module, owner, attribute): perfbench/run.py calls these, and
# perfbench/tracer.py replaces them, a class attribute through the class's
# own __dict__, to time each layer.
BENCHMARK_READS = [
    ("hypergame", None, "parse_model"),
    ("hypergame", None, "build_game_graph"),
    ("hypergame", None, "apply_transforms"),
    ("hypergame", None, "run_session"),
    ("hypergame", None, "DeclProvider"),
    ("hypergame", "Avoider", "respond"),
    ("hypergame", "RandomFair", "respond"),
    ("hypergame", "GameState", "tester_choose"),
    ("hypergame", "GameState", "apply_response"),
    ("hypergame", "RankTable", "__init__"),
    ("hypergame", "RankTable", "ensure_settled"),
    ("hypergame", "RankTable", "apply_marking"),
    ("hypergame.ranks", None, "get_engine_class"),
    ("hypergame.ranks.table", None, "get_engine_class"),
]


@pytest.mark.parametrize("module,owner,attr", BENCHMARK_READS,
                         ids=[".".join(filter(None, r)) for r in BENCHMARK_READS])
def test_benchmark_reads_exist(module, owner, attr):
    mod = importlib.import_module(module)
    if owner is None:
        assert callable(getattr(mod, attr))
    else:
        assert callable(vars(getattr(mod, owner)).get(attr))


def test_one_rank_algorithm_per_backend():
    # The round-based oracle is the tests' reference (conftest.py), not API.
    import hypergame.ranks
    for module in (hypergame, hypergame.ranks):
        assert "oracle_ranks" not in module.__all__
        assert not hasattr(module, "oracle_ranks")
    with pytest.raises(ImportError):
        importlib.import_module("hypergame.ranks.oracle")
