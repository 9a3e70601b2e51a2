"""Which compiled build the tests run: the extensions conftest.py built from
this checkout's sources, or none at all when there is no compiler; never a
module an earlier in-place build left in src/."""

import sys

import hypergame.model
import hypergame.ranks
from hypergame.ranks import get_engine_class
from hypergame.ranks.pure import PureRankEngine

from conftest import BUILT

NAMES = ("hypergame._scan", "hypergame.ranks._core")


def test_tests_run_the_build_conftest_made(request):
    built = request.config.stash[BUILT]
    assert set(built) in (set(), set(NAMES))
    for name in NAMES:
        assert sys.modules[name] is built.get(name)
    assert hypergame.model._scan is None  # imported before the build: none
    if built:
        core = built["hypergame.ranks._core"].CompiledRankEngine
        assert hypergame.ranks.CompiledRankEngine is get_engine_class() is core
        # conftest's wrappers, which also run the pure twins
        assert hypergame.model.compiled_scan_plain.__qualname__.startswith("_scanners_agree.")
        assert hypergame.model.compiled_make_edges.__qualname__.startswith("_builders_agree.")
        assert hypergame.model.compiled_check_edges.__qualname__.startswith("_builders_agree.")
    else:
        assert hypergame.ranks.CompiledRankEngine is None
        assert get_engine_class() is PureRankEngine
        assert (hypergame.model.compiled_scan_plain, hypergame.model.compiled_make_edges,
                hypergame.model.compiled_check_edges) == (None, None, None)
