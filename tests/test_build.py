"""Which compiled build the tests run: the extensions conftest.py built from
this checkout's sources, or none at all when there is no compiler; never a
module an earlier in-place build left in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hypergame.engine
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
        assert hypergame.engine.play_compiled.__qualname__.startswith("_loops_agree.")
        # conftest's wrappers, which also run the pure twins
        assert hypergame.model.compiled_scan_plain.__qualname__.startswith("_scanners_agree.")
        assert hypergame.model.compiled_make_edges.__qualname__.startswith("_builders_agree.")
        assert hypergame.model.compiled_check_edges.__qualname__.startswith("_builders_agree.")
    else:
        assert hypergame.ranks.CompiledRankEngine is None
        assert get_engine_class() is PureRankEngine
        assert (hypergame.model.compiled_scan_plain, hypergame.model.compiled_make_edges,
                hypergame.model.compiled_check_edges) == (None, None, None)


SRC = Path(__file__).resolve().parent.parent / "src" / "hypergame"
# (extension source, Python module, the constant naming the version it
# speaks, the extension's name)
PROTOCOLS = [
    ("ranks/_core.cpp", "ranks/__init__.py", "CORE_PROTOCOL", "hypergame.ranks._core"),
    ("_scan.cpp", "model.py", "SCAN_PROTOCOL", "hypergame._scan"),
]


@pytest.mark.parametrize("cpp,py,name,module", PROTOCOLS, ids=[p[3] for p in PROTOCOLS])
def test_extension_and_package_speak_one_protocol(cpp, py, name, module, request):
    # Changing the interface of an extension raises its version on both sides.
    [built_version] = re.findall(r"^const int PROTOCOL = (\d+);", (SRC / cpp).read_text(), re.M)
    [expected] = re.findall(rf"^{name} = (\d+)$", (SRC / py).read_text(), re.M)
    assert built_version == expected
    built = request.config.stash[BUILT]
    if built:
        assert built[module].PROTOCOL == int(expected)


# Fake extensions of another build: the rank core of another version, and a
# scanner of the right version whose edge_kernels gives three kernels.
STALE_BUILD = """
import sys, types
core = types.ModuleType("hypergame.ranks._core")
core.PROTOCOL = {core_version}
core.CompiledRankEngine = object
scan = types.ModuleType("hypergame._scan")
scan.PROTOCOL = {scan_version}
scan.scan_plain = lambda text: None
scan.edge_kernels = lambda Edge: (None, None, None)
sys.modules[core.__name__], sys.modules[scan.__name__] = core, scan

import hypergame
from hypergame import engine, model, ranks
from hypergame.ranks.pure import PureRankEngine

assert ranks.CompiledRankEngine is None and ranks.get_engine_class() is PureRankEngine
assert (model.compiled_scan_plain, model.compiled_make_edges,
        model.compiled_check_edges) == (None, None, None)
engine.play_compiled = None  # the compiled loop is never called
tables = []
class Recorded(engine.RankTable):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        tables.append(self)
engine.RankTable = Recorded
decl = hypergame.gen_random_bounded_degree(64, 3, 2, 1)
for source in (decl, hypergame.DeclProvider(decl)):
    for adversary in (hypergame.RandomFair(1), hypergame.Avoider()):
        _, stats = hypergame.run_session(source, adversary)
        assert stats.moves > 0 and type(tables.pop().eng) is PureRankEngine
print("pure")
"""


@pytest.mark.parametrize("core_skew,scan_skew", [(1, 1), (-1, 0)],
                         ids=["other-versions", "other-kernel-shape"])
def test_a_stale_build_is_not_used(core_skew, scan_skew):
    # The package imports, and sessions run pure through the Python loop,
    # as when nothing was built.
    core, scan = (int(re.findall(rf"^{name} = (\d+)$", (SRC / py).read_text(), re.M)[0])
                  for _, py, name, _ in PROTOCOLS)
    script = STALE_BUILD.format(core_version=core + core_skew, scan_version=scan + scan_skew)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "pure\n", "")
