"""Which compiled build the tests run: the extension conftest.py built from
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

NAME = "hypergame._native"


def test_tests_run_the_build_conftest_made(request):
    built = request.config.stash[BUILT]
    assert sys.modules[NAME] is built
    assert hypergame.model._native is None  # imported before the build: none
    if built:
        assert (hypergame.ranks.CompiledRankEngine is get_engine_class()
                is built.CompiledRankEngine)
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
# The version of the extension's interface the package speaks.
PROTOCOL = int(re.findall(r"^NATIVE_PROTOCOL = (\d+)$", (SRC / "model.py").read_text(), re.M)[0])


# The two extensions `_native` replaces, each with what the package took
# from it; all of it now comes from the one module, at its one protocol.
FORMER = {
    "hypergame._scan": ("scan_plain", "bind_edge", "make_edges", "check_edges"),
    "hypergame.ranks._core": ("CompiledRankEngine",),
}


@pytest.mark.parametrize("names", FORMER.values(), ids=FORMER.keys())
def test_extension_and_package_speak_one_protocol(names, request):
    # Changing the extension's interface raises its version on both sides.
    [built_version] = re.findall(r"^const int PROTOCOL = (\d+);",
                                 (SRC / "_native.cpp").read_text(), re.M)
    assert int(built_version) == PROTOCOL
    # The former extension is built no more, so no second protocol remains.
    assert re.findall(r'Extension\("([\w.]+)"', (SRC.parent.parent / "setup.py").read_text()) == [NAME]
    built = request.config.stash[BUILT]
    if built:
        assert built.PROTOCOL == PROTOCOL
        assert all(callable(getattr(built, name)) for name in names)


# Fake extension modules, each (name, version, names of its edge
# functions); a version of None makes the import of `name` fail. Were the
# package to use a fake, its scanner, edge kernels or engine would not be
# None, or, for a fake without `bind_edge`, its import would fail.
BIND = ("bind_edge", "make_edges", "check_edges")  # since protocol 3
KERNELS = ("edge_kernels",)  # protocols 1 and 2: a (make_edges, check_edges) pair
STALE_BUILD = """
import sys, types
for name, version, functions in {fakes!r}:
    sys.modules[name] = fake = None if version is None else types.ModuleType(name)
    if fake:
        fake.PROTOCOL, fake.CompiledRankEngine = version, object
        fake.scan_plain = lambda text: None
        for function in functions:
            setattr(fake, function, lambda *args: (len, len))

import hypergame
from hypergame import engine, model, ranks
from hypergame.ranks.pure import PureRankEngine

assert ranks.CompiledRankEngine is None and ranks.get_engine_class() is PureRankEngine
assert (model.compiled_scan_plain, model.compiled_make_edges,
        model.compiled_check_edges) == (None, None, None)
engine.play_compiled = None  # the compiled loop is never called
tables = []
class Recorded(engine.GameState):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        tables.append(self)
engine.GameState = Recorded
decl = hypergame.gen_random_bounded_degree(64, 3, 2, 1)
for source in (decl, hypergame.DeclProvider(decl)):
    for adversary in (hypergame.RandomFair(1), hypergame.Avoider()):
        _, stats = hypergame.run_session(source, adversary)
        assert stats.moves > 0 and type(tables.pop().eng) is PureRankEngine
print("pure")
"""
STALE = {
    "other-versions": [(NAME, PROTOCOL + 1, BIND)],
    # A build of the interface before `bind_edge`.
    "former-protocol": [(NAME, 2, KERNELS)],
    # No `_native`, and the two modules that builds of protocol 1 made left
    # in place: `*.so` is not tracked, so they outlive a checkout.
    "leftover-old-build": [(NAME, None, ()), ("hypergame._scan", 1, KERNELS),
                           ("hypergame.ranks._core", 1, ())],
}


@pytest.mark.parametrize("fakes", STALE.values(), ids=STALE.keys())
def test_a_stale_build_is_not_used(fakes):
    # The package imports, and sessions run pure through the Python loop,
    # as when nothing was built.
    proc = subprocess.run([sys.executable, "-c", STALE_BUILD.format(fakes=fakes)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "pure\n", "")
