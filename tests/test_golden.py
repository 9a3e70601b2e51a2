"""Seeded sessions stay identical byte for byte.

Each case plays one session and hashes its `format_trace`, `format_stats`
and `WorkStats`; both backends must give the pinned hash. The grid covers
random 256-state models (each session ends with one unreachable flush) and
a lost-base model, with and without `branch-coverage`, eager and lazy,
against RandomFair and the Avoider. The lost-base model also drives a bare
`RankTable` through the marking order that strands its cyclic region, which
forces flushes mid-run, and hashes its ranks and counters. The declaration
layer is pinned too: the serialized grid models, the output and report of
each transform and of both legal compositions, `hypergame rank` output on
the fixtures, and the exact text of each invalid-declaration error. So is
the parser: the exact error for malformed lines and the serialized parse of
texts that use its whitespace, comment, label and keyword rules, and the
outcomes of 600 random texts on either scanner and either edge builder. So
is the CLI: `run` on the fixtures, eager and lazy, against each of
RandomFair, the Avoider and a script; `run` on a generated model with
`--transform`, `--lazy` and `--repeat`, and cut by `--max-moves`; `solve`
on the fixtures; and `bench --compare-backends`, less its timings. A change
that alters any of these outputs on purpose must say so and update GOLDEN.
"""

import functools
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from hypergame.adversaries import Avoider, RandomFair
from hypergame.cli import main
from hypergame.engine import format_stats, format_trace, run_session
from hypergame.model import (Edge, ModelDecl, ModelError, build_game_graph,
                             parse_model, serialize_model)
from hypergame.providers import DeclProvider, gen_random_bounded_degree
from hypergame.ranks import RankTable, WorkStats
from hypergame.transforms import apply_transforms

from conftest import G1_TEXT, G2_TEXT, G3_TEXT, lost_base_decl, require_compiled
from test_model import _random_text

MODELS = ["random1", "random2", "random3", "lostbase"]
FIXTURES = {"G1": G1_TEXT, "G2": G2_TEXT, "G3": G3_TEXT}
TRANSFORMS = ["none", "branch-coverage"]
MODES = ["eager", "lazy"]
ADVERSARIES = ["random", "avoider"]

GOLDEN = {
    "random1-none-eager-random":
        "8f43cfd852a47c2729b3fa3712acc4561d0b609cf4c5a712af29595a8ecc663c",
    "random1-none-eager-avoider":
        "c0f2406cbc27e289e0933552caffa10eb8f0e60f1eccec566bb5cae749e56dd6",
    "random1-none-lazy-random":
        "2dd373807f6f27222c1a3ae29554bf09500a60770edc65facf0eab08a93deb62",
    "random1-none-lazy-avoider":
        "e7b9593e5ec800c1ddbb7ad08f7a7e3c1c2373927cb8fe6ca7c56087dbfbadd7",
    "random1-branch-coverage-eager-random":
        "5e7e3889a0bc558dc3209a86e07cf5bfe98246f8af5d3b323b1bffd9efcbbeca",
    "random1-branch-coverage-eager-avoider":
        "61495d5c65cea70ef28404d8f5c84798cd36643836747e788ff182bb84cf7fb7",
    "random1-branch-coverage-lazy-random":
        "024eb529aab941e156e44a75bbb3b32bd654722f49da9e89655925f2e0f7983b",
    "random1-branch-coverage-lazy-avoider":
        "051e94c5fea261f0811223822bb6074e10a78ead223763c282583d7193e239ce",
    "random2-none-eager-random":
        "2b84c92aee53c515ca8e6d0e380f1ddff663e45bfb573d6b04d2242f6580e5dc",
    "random2-none-eager-avoider":
        "6734e5268b09e541edd49d12e3692e125a59da407c474ea73c4e41ff29e46fef",
    "random2-none-lazy-random":
        "c1b3c68bec30a0a6148ddccb4ae933eef1a150e01b2ea456792afc6e95da18a3",
    "random2-none-lazy-avoider":
        "8a19ff50ab74bb3154a4749520c3df12ce7116412466a11e63766af7b0d832e1",
    "random2-branch-coverage-eager-random":
        "b8583d3920c399f27d6909eb8a73257d53d09c01c0dca3bd41013af4f98a3912",
    "random2-branch-coverage-eager-avoider":
        "bf9727b4b99299a764a0ad501460eec7bc1956e7f6fb5b8cb32ccf8193d4f922",
    "random2-branch-coverage-lazy-random":
        "651a8c1ffbeea3062458c1db4e633ac05b8549ffcb98024142d6d1557a3239ee",
    "random2-branch-coverage-lazy-avoider":
        "e01b9a029b7a78c2869e8f41b61da1c250e4a94fc7a2a5c92f9a8b26f2618878",
    "random3-none-eager-random":
        "1c46326160fff0821f8a8452fbda9958e3d014f491e5fdd549a9944f04f1e3ad",
    "random3-none-eager-avoider":
        "61b5032ed0ea2cac90b194146ea4556b1f035b82b098f04827ed348ee1151ac2",
    "random3-none-lazy-random":
        "61d0d8e1481b1ed7264d2f5f110748c9fb9699601941aa8dce70cf7772550ffe",
    "random3-none-lazy-avoider":
        "a8eba3f046f9b930b4f7b6f7fba5c8fdef693e985dfb7c59c53e0d3ebb90b269",
    "random3-branch-coverage-eager-random":
        "e18a1987045297f948550218c2281bf998f0f68b479ae906776f32236ac8673d",
    "random3-branch-coverage-eager-avoider":
        "527e6173704101827591db09c3b9703d4de3d5a4a352263eca8df6ba470b861d",
    "random3-branch-coverage-lazy-random":
        "7c5b6233c853f63fc2aa5d6756879e101c62a0ec959a66363dd1fd5965ce3db2",
    "random3-branch-coverage-lazy-avoider":
        "f3e9acdccc0d375d8502de78aa66c64bfa5e1a015d396b7b6c810c050ad839fd",
    "lostbase-none-eager-random":
        "1bef516d4532fb8ce8cb4ea0097719b83c003b855826fd0c7334d5040b2e8580",
    "lostbase-none-eager-avoider":
        "1bef516d4532fb8ce8cb4ea0097719b83c003b855826fd0c7334d5040b2e8580",
    "lostbase-none-lazy-random":
        "d1404d5e93bebece5ae208711c9b4f4753e9cea2570f183a61512a9b7082b138",
    "lostbase-none-lazy-avoider":
        "d1404d5e93bebece5ae208711c9b4f4753e9cea2570f183a61512a9b7082b138",
    "lostbase-branch-coverage-eager-random":
        "7b71747023b7155dfbd534e2879748a069f1a8e890e5012bb9d644daf20e78da",
    "lostbase-branch-coverage-eager-avoider":
        "7b71747023b7155dfbd534e2879748a069f1a8e890e5012bb9d644daf20e78da",
    "lostbase-branch-coverage-lazy-random":
        "1630668e9a95851e65a888caaed094052b5f638e952a4e25b302689a0b2592c1",
    "lostbase-branch-coverage-lazy-avoider":
        "1630668e9a95851e65a888caaed094052b5f638e952a4e25b302689a0b2592c1",
    "flush":
        "32b4f41290b73661b13effb41ded49089eb3c0d2f3b29bdabf5fd536bd2926c5",
    # the CLI: `run`, seed 1, on either backend; `solve`; `bench`
    "cli-run-G1-eager-random":
        "05f2c657c3573799e7fc0b3cffcd7c7a0f497ece1d62de862ef083ac98e76601",
    "cli-run-G1-eager-avoider":
        "05f2c657c3573799e7fc0b3cffcd7c7a0f497ece1d62de862ef083ac98e76601",
    "cli-run-G1-eager-script":
        "7e22b32af822ca9e4d4dbc2e2254a26b41f11b4d0a8507e4e0abdd8d6c2c811b",
    "cli-run-G1-lazy-random":
        "2dec6a51db7f72d7211619a0ac874bf0eff93254e7eda876dce2b212d93b3e14",
    "cli-run-G1-lazy-avoider":
        "2dec6a51db7f72d7211619a0ac874bf0eff93254e7eda876dce2b212d93b3e14",
    "cli-run-G1-lazy-script":
        "9246ede65a8299cbcdd8a4aef70d2ee011ffd38545f17617f345240e0704957a",
    "cli-run-G2-eager-random":
        "c9d51474bdb73335e67f56ebdb33a75a44ac8db87615d6a9cdee74bd4144ab63",
    "cli-run-G2-eager-avoider":
        "c9d51474bdb73335e67f56ebdb33a75a44ac8db87615d6a9cdee74bd4144ab63",
    "cli-run-G2-eager-script":
        "649a7e79aab309d77d353bd95650b001ef766beb3f400c1e0acc79c166d309a9",
    "cli-run-G2-lazy-random":
        "f16c671a0da84f97af48d1cfaef371d06d6feedda23f5ad97a5c3cb5dcad80e2",
    "cli-run-G2-lazy-avoider":
        "f16c671a0da84f97af48d1cfaef371d06d6feedda23f5ad97a5c3cb5dcad80e2",
    "cli-run-G2-lazy-script":
        "649a7e79aab309d77d353bd95650b001ef766beb3f400c1e0acc79c166d309a9",
    "cli-run-G3-eager-random":
        "4eaffe8c06a86363c221133bd68eaec20dba051dad96922a7bea7384d52c63df",
    "cli-run-G3-eager-avoider":
        "4eaffe8c06a86363c221133bd68eaec20dba051dad96922a7bea7384d52c63df",
    "cli-run-G3-eager-script":
        "4eaffe8c06a86363c221133bd68eaec20dba051dad96922a7bea7384d52c63df",
    "cli-run-G3-lazy-random":
        "48265d453f380f2d3d6102e339e0180d55a4b051ad2948c0d3f10997241db182",
    "cli-run-G3-lazy-avoider":
        "48265d453f380f2d3d6102e339e0180d55a4b051ad2948c0d3f10997241db182",
    "cli-run-G3-lazy-script":
        "48265d453f380f2d3d6102e339e0180d55a4b051ad2948c0d3f10997241db182",
    "cli-solve-G1":
        "cb73b98237bab75ab1a161a9eebad5aae29e6121b577fa1328be8e4d369502b4",
    "cli-solve-G2":
        "cb73b98237bab75ab1a161a9eebad5aae29e6121b577fa1328be8e4d369502b4",
    "cli-solve-G3":
        "8f018125318172164234da5ea6e6f07d341afa841120e2fa377d4fad53db1d0e",
    "cli-bench":
        "9ad190ebc805e5f6ba82e8f2bb743343424061eb52ea3832005285834055c899",
    # `run` on random1, on either backend
    "cli-run-random1-coverage-lazy-repeat":
        "d529e9461f4f26f246b35f261d2b8943bc4a221909c8ef3ce31518bf65cb0c38",
    "cli-run-random1-move-cap":
        "db38f6f47c8fceb84186272ec7613ff2c29e2f3dcfda01d89324d365608c3e3d",
    # the parse outcomes of test_model's 600 seed-15 random texts, on
    # either scanner and either builder
    "parse-random-texts":
        "0c9c42e466f23cef0bf970d2ae755de00f378b65a3bf485fb3465db760cbc5a6",
    # each transform alone and both legal compositions, on either builder
    "transform-random1-break-self-loops":
        "e2a8e79c7a53e2038f073c5eebdb8dd0b1a5b44d67669347c0c567ec3db37d71",
    "transform-random1-edge-coverage":
        "712198309a4b835ea40881b1ff4b7aa71f9d8d8b6fc2f40d9a5070656ad839b5",
    "transform-random1-branch-coverage":
        "06661650fb1cf8feb1f4cf3eb13a9234cc96652fc939ebb38622cbbed3a2e3ea",
    "transform-random1-compress-chains":
        "e2a8e79c7a53e2038f073c5eebdb8dd0b1a5b44d67669347c0c567ec3db37d71",
    "transform-random1-break-self-loops+edge-coverage+compress-chains":
        "712198309a4b835ea40881b1ff4b7aa71f9d8d8b6fc2f40d9a5070656ad839b5",
    "transform-random1-break-self-loops+branch-coverage+compress-chains":
        "06661650fb1cf8feb1f4cf3eb13a9234cc96652fc939ebb38622cbbed3a2e3ea",
    "transform-random2-break-self-loops":
        "a9b8135e5ba35824b86fe3df78226ce5baeb95f9b78f702a180575e42e0bb664",
    "transform-random2-edge-coverage":
        "408a820b4b89cd846d8692f273bcb535b187aa94cb6899fbd885073ffbbaf177",
    "transform-random2-branch-coverage":
        "0a1f61bb7ade190ecdd8aadd25efb581b32675cb7e1580250f6a14ff58abf51d",
    "transform-random2-compress-chains":
        "a9b8135e5ba35824b86fe3df78226ce5baeb95f9b78f702a180575e42e0bb664",
    "transform-random2-break-self-loops+edge-coverage+compress-chains":
        "408a820b4b89cd846d8692f273bcb535b187aa94cb6899fbd885073ffbbaf177",
    "transform-random2-break-self-loops+branch-coverage+compress-chains":
        "0a1f61bb7ade190ecdd8aadd25efb581b32675cb7e1580250f6a14ff58abf51d",
    "transform-random3-break-self-loops":
        "fb4ce41c663b1e996089d983bb3d571cb8e4c7da08fd520ea40f991dd0761d8f",
    "transform-random3-edge-coverage":
        "664ad05e612d1fe4d952c2cb28d309d97a5822b01b85031b7f200e99a7315c72",
    "transform-random3-branch-coverage":
        "d7614dc4f5f46356f214d76a4c38dea214c1e1f8addf9aa8e37b4e8ac6a9436e",
    "transform-random3-compress-chains":
        "fb4ce41c663b1e996089d983bb3d571cb8e4c7da08fd520ea40f991dd0761d8f",
    "transform-random3-break-self-loops+edge-coverage+compress-chains":
        "664ad05e612d1fe4d952c2cb28d309d97a5822b01b85031b7f200e99a7315c72",
    "transform-random3-break-self-loops+branch-coverage+compress-chains":
        "d7614dc4f5f46356f214d76a4c38dea214c1e1f8addf9aa8e37b4e8ac6a9436e",
    "transform-lostbase-break-self-loops":
        "ad71d6f847016552be1680ad0be13199353be2fd6acc2e5c07c007ce099d96b7",
    "transform-lostbase-edge-coverage":
        "b8fb97122c48e2b020bb738570f0473f40028663e7b1089c426427c1a82f2790",
    "transform-lostbase-branch-coverage":
        "8373e06d3b5f028c8971ed85c57fa14f0f2d8579cc83867bbcd015f1d2fba513",
    "transform-lostbase-compress-chains":
        "ad71d6f847016552be1680ad0be13199353be2fd6acc2e5c07c007ce099d96b7",
    "transform-lostbase-break-self-loops+edge-coverage+compress-chains":
        "b799447a2fd64cd154c4450f27254d30f9e4171ff7b15770d8a35cc597d16149",
    "transform-lostbase-break-self-loops+branch-coverage+compress-chains":
        "3f6853f8084af540d5210d61e75dd4ebc31f2ca9a79ca23899a25c45efc3dc68",
    "transform-G1-break-self-loops":
        "ed3ff9304a657c390d7459660ecb3d791ce702cc882cc0734f3453650bc29542",
    "transform-G1-edge-coverage":
        "e4f079316ab5a04e0f001d9671cb2224173a5e154658b59d5af64972c7829483",
    "transform-G1-branch-coverage":
        "74865f541ef398b415b689a3ddfea4650443295a507332211d996ed3d0efbc7b",
    "transform-G1-compress-chains":
        "ed3ff9304a657c390d7459660ecb3d791ce702cc882cc0734f3453650bc29542",
    "transform-G1-break-self-loops+edge-coverage+compress-chains":
        "37ed67fc44515a249ddb3e1e14f3824a05ee10e873fcd92154e21d012c27caeb",
    "transform-G1-break-self-loops+branch-coverage+compress-chains":
        "7a7548f49baa793fef64e1fd6180a01b3f29813edc5c27db7656e1c22f61c48f",
    "transform-G2-break-self-loops":
        "5a00203212c9046bff3b5c748ddf7fa9abee1e6b12b1e9adeb83b7af05e0bcdc",
    "transform-G2-edge-coverage":
        "5649bcd78d0b1ed9626b7aa1a62acf34480a46f3fc6ae0e15346d27a02db0ba9",
    "transform-G2-branch-coverage":
        "2655a9bfb116302f931de04a5299d68f812a0ded187abf34aa135c39b66242a4",
    "transform-G2-compress-chains":
        "e821e6602b057b1052dc91f74f3937b35e01226ef2bab35702a0a22adeb4d71b",
    "transform-G2-break-self-loops+edge-coverage+compress-chains":
        "b67b12ee4e8a0bc2674662dc8b90d38feeb715402053f53944ec83ea0bc33116",
    "transform-G2-break-self-loops+branch-coverage+compress-chains":
        "8290facf9ff19d42eb934e39235c0fd74617bd980dfdd80fbf2c338bad591e06",
    "transform-G3-break-self-loops":
        "9092b538e8ab972727568806897d1c29cd05ec3215c017164e090dc9973b5b3d",
    "transform-G3-edge-coverage":
        "58575256f523fc4f877400c161b582b2d844b0efddb44bfe5d49228a4b00b638",
    "transform-G3-branch-coverage":
        "f7635e9ce3de80103d9f7c9298c935ca4f145128c4ec4435c2c29d68fa2c2e43",
    "transform-G3-compress-chains":
        "cc59f5eabae0c16d9e1385aa20f602f76e96c337de4ba6cfd82b193d9f219f49",
    "transform-G3-break-self-loops+edge-coverage+compress-chains":
        "6d0aac4fdb4ff8a1b7bac97844290ebea3efb3231992394439d47e7739cc9efc",
    "transform-G3-break-self-loops+branch-coverage+compress-chains":
        "c8e4e79fd52a3c0ba862ef59bbd7e087a17b9026266975a7c086c1c96c750a2e",
}


def _model(name):
    if name == "lostbase":
        return lost_base_decl(random.Random(31))
    return gen_random_bounded_degree(256, 3, 2, int(name[len("random"):])), None


@functools.cache
def _decl(model, transform):
    decl, _ = _model(model)
    if transform != "none":
        decl, _ = apply_transforms(decl, [transform])
    return decl


def session_digest(model, transform, mode, adversary, backend):
    decl = _decl(model, transform)
    source = DeclProvider(decl) if mode == "lazy" else decl
    player = RandomFair(7) if adversary == "random" else Avoider()
    transcript, stats = run_session(source, player, seed=7, backend=backend)
    text = format_trace(transcript) + format_stats(stats) + repr(stats.work)
    return hashlib.sha256(text.encode()).hexdigest()


def flush_digest(backend):
    decl, order = _model("lostbase")
    table = RankTable(decl, backend=backend)
    # Ranks are read in the order lost_base_decl lists the vertices: s0, c,
    # z, then the ring states (which sort in the order they were made).
    probe = ["s0", "c", "z"] + [v for v in decl.vertices if v.startswith("r")]
    lines = []
    for v in order:
        table.apply_marking(v)
        lines.append(repr([table.ensure_settled(u)[0] for u in probe]))
    work = WorkStats.of(table.eng)
    assert work.flushes >= 1
    text = "\n".join(lines) + repr(work)
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [(m, t, mode, a) for m in MODELS for t in TRANSFORMS for mode in MODES
         for a in ADVERSARIES]


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_session_output_is_pinned(case, backend):
    assert session_digest(*case, backend) == GOLDEN["-".join(case)]


def test_flush_path_is_pinned(backend):
    assert flush_digest(backend) == GOLDEN["flush"]


SERIALIZED = {
    "random1-none":
        "d36f6359f04db28e6174b4df5733b4cdd27821bada3ccc3b52c9d1e482111bef",
    "random1-branch-coverage":
        "7b8ffbe88740614e154f7c2c09aa3bf96b4791a41cf3a4a35837fb2fc8273af4",
    "random2-none":
        "235a06f3c1697a15317ee09267eb0072b42fbd21e8de53e8bd6ea8951f20b327",
    "random2-branch-coverage":
        "4a24956bc16141634e08743cbb6a3e99495c1d5eafaea70bee1b97b0a86be186",
    "random3-none":
        "3ea3bb5dcc3192b1bec24166623ad1d67a25593245d7f4902b70d5bfdf64440c",
    "random3-branch-coverage":
        "f810cf5d1e1dbdcea2d9b4f3f9c5136209661e11ce2b1012778e9529559e449a",
    "lostbase-none":
        "6e3e7bc740433d5dbb5239b84ebc10eeca3bcbe5e4415f60aea982d0028f09bb",
    "lostbase-branch-coverage":
        "d8166e957279a8cd9d497c74540a20a1766d53cb723a15311b0b928ec27cc382",
}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("transform", TRANSFORMS)
def test_serialized_model_is_pinned(model, transform):
    text = serialize_model(_decl(model, transform))
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED[f"{model}-{transform}"]


# Every transform alone and the two legal compositions, on the grid models
# and the fixtures: the serialized output and the report, on either builder.
TRANSFORM_SETS = [["break-self-loops"], ["edge-coverage"], ["branch-coverage"],
                  ["compress-chains"],
                  ["break-self-loops", "edge-coverage", "compress-chains"],
                  ["break-self-loops", "branch-coverage", "compress-chains"]]


def transform_digest(model, names):
    decl = parse_model(FIXTURES[model]) if model in FIXTURES else _decl(model, "none")
    out, report = apply_transforms(decl, names)
    text = serialize_model(out) + json.dumps(report.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("names", TRANSFORM_SETS, ids="+".join)
@pytest.mark.parametrize("model", [*MODELS, *FIXTURES])
def test_transform_output_is_pinned(model, names, builder):
    assert transform_digest(model, names) == GOLDEN[f"transform-{model}-{'+'.join(names)}"]


RANK_OUTPUT = {
    "G1": "vertex s0 rank 2\nvertex s1 rank 1\nvertex s2 rank 1\n"
          "edge a rank 1\nedge b rank 2\nedge c rank 2\n",
    "G2": "vertex s0 rank 2\nvertex s1 rank 1\nvertex s2 rank 1\n"
          "edge e1 rank 1\nedge e2 rank 1\n",
    "G3": "vertex s0 rank unreachable\nvertex s1 rank 1\nedge f rank unreachable\n",
    "G1-after-s1": "vertex s0 rank unreachable\nvertex s1 rank unreachable\n"
                   "vertex s2 rank 1\nedge a rank unreachable\n"
                   "edge b rank unreachable\nedge c rank unreachable\n",
}


@pytest.mark.parametrize("case,text,extra", [
    ("G1", G1_TEXT, []), ("G2", G2_TEXT, []), ("G3", G3_TEXT, []),
    ("G1-after-s1", G1_TEXT, ["--after-mark", "s1"]),
])
def test_rank_output_is_pinned(case, text, extra, tmp_path, capsys):
    path = tmp_path / "model.hg"
    path.write_text(text)
    assert main(["rank", str(path), *extra]) == 0
    assert capsys.readouterr() == (RANK_OUTPUT[case], "")


UNKNOWN_TAIL = "UnknownVertex(zz): tail of edge a"


@pytest.mark.parametrize("make,message", [
    (lambda: ModelDecl(initial="s9", vertices=("s0",), edges=()),
     "UnknownVertex(s9): initial vertex not declared"),
    (lambda: ModelDecl(initial="s0", vertices=("s0",),
                       edges=(Edge("a", "zz", ("s0",)),)),
     "UnknownVertex(zz): head of edge a"),
    (lambda: ModelDecl(initial="s0", vertices=("s0", "s1"),
                       edges=(Edge("a", "s0", ("s1",)), Edge("a", "s0", ("s0",)))),
     "DuplicateEdgeId(a)"),
    (lambda: ModelDecl(initial="s0", vertices=("s0",),
                       edges=(Edge("a", "s0", ("zz",)),)),
     UNKNOWN_TAIL),
    (lambda: parse_model("initial s0\nedge a s0 -> zz\n", strict_vertices=True),
     UNKNOWN_TAIL),
], ids=["initial", "head", "duplicate-id", "tail", "tail-strict-parse"])
def test_invalid_declaration_message_is_pinned(make, message):
    with pytest.raises(ModelError) as exc:
        build_game_graph(make())
    assert str(exc.value) == message


def test_rank_strict_vertices_message_is_pinned(tmp_path, capsys):
    path = tmp_path / "strict.hg"
    path.write_text("initial s0\nedge a s0 -> zz\n")
    assert main(["rank", str(path), "--strict-vertices"]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {UNKNOWN_TAIL}\n")


# The parser: exact errors for malformed lines (several with two faults, so
# the order of the checks is pinned too), and the serialized parse of texts
# that exercise its whitespace, comment, label and keyword handling.
PARSE_ERRORS = {
    "dup-id-and-bad-head": ("initial s0\nedge a s0 -> s1\nedge a s~ -> s1\n",
                            "line 3: duplicate edge id 'a'"),
    "bad-id-and-dup-id": ("initial s0\nedge a s0 -> s1\nedge a~ s0 -> s1\nedge a s0 -> s1\n",
                          "line 3: bad identifier 'a~'"),
    "bad-head-and-bad-tail": ("initial s0\nedge a s~ -> t~\n", "line 2: bad identifier 's~'"),
    "bad-tail-and-dup-tail": ("initial s0\nedge a s0 -> s1 s1 t~\n",
                              "line 2: bad identifier 't~'"),
    "bad-interior": ("initial s0\nedge a s0 -> s1 interior x y~\n",
                     "line 2: bad identifier 'y~'"),
    "bad-interior-and-bad-tail": ("initial s0\nedge a s0 -> t~ interior x~\n",
                                  "line 2: bad identifier 'x~'"),
    "dup-tail-and-virtual": ("initial s0\nedge a s0 -> s1 virtual s1\n",
                             "line 2: edge a: duplicate tail vertex"),
    "empty-tail-virtual": ("initial s0\nedge b s0 -> virtual\n",
                           "line 2: edge b: empty tail on virtual edge"),
    "empty-tail-interior": ("initial s0\nedge b s0 -> interior s1\n",
                            "line 2: edge b: empty tail on real edge"),
    "no-arrow": ("initial s0\nedge a s0 s1\n",
                 "line 2: expected: edge <id> <head> -> <tails...>"),
    "arrow-in-tail": ("initial s0\nedge a s0 -> s1 -> s2\n", "line 2: bad identifier '->'"),
    "non-ascii": ("initial s0\nedge a s0 -> s\u00e9\n", "line 2: bad identifier 's\u00e9'"),
    "open-label": ('initial s0\nedge a s0 -> s1 label "x y\n',
                   "line 2: bad identifier '\"x'"),
    "second-label": ('initial s0\nedge a s0 -> s1 label "x" label "y"\n',
                     "line 2: bad identifier '\"y\"'"),
    "token-after-label": ('initial s0\nedge a s0 -> s1 label "x" t~\n',
                          "line 2: bad identifier 't~'"),
    "quote-without-label": ('initial s0\nedge a s0 -> "x#y"\n',
                            "line 2: bad identifier '\"x'"),
    "label-in-comment": ('initial s0\nedge a s0 -> t~ # label "z"\n',
                         "line 2: bad identifier 't~'"),
    "bad-initial": ("initial s~0\n", "line 1: bad identifier 's~0'"),
    "bad-vertex": ("initial s0\nvertex v~\n", "line 2: bad identifier 'v~'"),
    "bad-virtual-vertex": ("initial s0\nvertex v~ virtual\n", "line 2: bad identifier 'v~'"),
    "vertex-with-label": ('initial s0\nvertex v label "x#y"\n',
                          "line 2: expected: vertex <id> [virtual]"),
    "bad-model": ("model m~\ninitial s0\n", "line 1: bad identifier 'm~'"),
    "model-arity": ("model m n\ninitial s0\n", "line 1: expected: model <name>"),
    "duplicate-initial": ("initial s0\ninitial s1\n", "line 2: duplicate initial line"),
    "unknown-keyword": ("initial s0\nnode v\n", "line 2: unknown keyword 'node'"),
    "missing-initial": ("edge a s0 -> s1\n", "missing initial line"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_message_is_pinned(case):
    text, message = PARSE_ERRORS[case]
    with pytest.raises(ModelError) as exc:
        parse_model(text)
    assert str(exc.value) == message


PARSE_TEXTS = {
    "whitespace": ("model \t m1\ninitial\ts0\n\t edge  a\ts0  ->   s1\t s2 \n"
                   "vertex   s3   virtual\nedge b s1 -> s0\nedge c s0 ->\u00a0s2\u3000s1\n",
                   False),
    "comments": ("# header\n\ninitial s0 # start\nedge a s0 -> s1 # one edge\n"
                 "   # indented\nedge b s1 -> s0#tight\n"
                 'edge c s0 -> s1 label "z" # label "w"\nedge d s1 -> s0 # label "q"\n',
                 False),
    "labels": ('initial s0\nedge a s0 -> s1 label "do \\"x\\" now"\n'
               'edge b s0 -> s1 label "back\\\\slash" virtual\n'
               'edge c s1 -> s0 label ""\nedge d s1 -> label "mid" s0\n', False),
    "virtual-among-tails": ("initial s0\nedge a s0 -> s1 virtual s2\n"
                            "edge b s1 -> virtual s0\nedge c s2 -> s0 virtual virtual\n",
                            False),
    "interior": ("initial s0\nedge a s0 -> s1 interior i1 i2\n"
                 "edge b s1 -> s0 virtual interior i3\nedge c s1 -> s2 interior\n"
                 "edge d s2 -> s0 interior x virtual\nedge e s2 -> s1 interior interior\n",
                 False),
    "implicit": ("initial s0\nvertex s9\nedge b s2 -> s3\nedge a s0 -> s2 s1\n"
                 "edge e-1.x s_1 -> S.2 s-3\n", False),
    "strict": ("model m\ninitial s0\nvertex s1\nvertex s2 virtual\n"
               "edge a s0 -> s2 s1\nedge b s1 -> s0\n", True),
}

PARSED = {
    "whitespace":
        "5c0ded62292c0d28cec7d32dafccb0ee98b54826cfb7eea7b2f80bc9a5501b69",
    "comments":
        "9a53e849c8940511814a62c4c40d20fa64d4a274ab26c91c053a089bbb5e1cf8",
    "labels":
        "656f6f3cd9f31faf2a7edbab15bd6eae77944ce85de3fbe0fbdefdad86219246",
    "virtual-among-tails":
        "b8fa0fa8e4d1cc2f336d6dcbc17315421654b7535ed750a0876372c9be75cb7f",
    "interior":
        "d646e4d7c927489f6eb50e69dc45026f3de7654e7ba88b38c496a323fc60f2d9",
    "implicit":
        "15ea651ca3632897cc203f9dfc23d617b79220c99e52c93cf61d2dd67dd06d97",
    "strict":
        "e5a086c5a55c58bac2c5bb77bc293f03ba637302518ca41b64e38f19e293133b",
}


@pytest.mark.parametrize("case", sorted(PARSE_TEXTS))
def test_parsed_model_is_pinned(case):
    text, strict = PARSE_TEXTS[case]
    out = serialize_model(parse_model(text, strict_vertices=strict))
    assert hashlib.sha256(out.encode()).hexdigest() == PARSED[case]


def test_random_text_parses_are_pinned(scanner, builder):
    # The texts and strict flags of test_random_texts_match_the_per_line_parser.
    rng = random.Random(15)
    outcomes = []
    for _ in range(600):
        text = _random_text(rng)
        strict = rng.random() < 0.3
        try:
            outcomes.append(repr(parse_model(text, strict_vertices=strict)))
        except ModelError as exc:
            outcomes.append(str(exc))
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == GOLDEN["parse-random-texts"]


# -- the CLI ------------------------------------------------------------------

# The script adversary's answers, on every fixture. On G1 it marks s2 where
# RandomFair and the Avoider mark s1; G2's first stimulus has no s2 in its
# tail, which is a contract violation (exit 5); G3 ends before a move.
SCRIPT = "s2\ns1\n"
RUN_CASES = [(m, mode, a) for m in FIXTURES for mode in MODES
             for a in ("random", "avoider", "script")]


def cli_digest(argv, capsys, files=()):
    """The sha256 of one `main(argv)` call: its exit code, stdout, stderr
    and the bytes of each of `files` it wrote (None for one it did not)."""
    code = main(argv)
    out, err = capsys.readouterr()
    written = [Path(f).read_bytes() if Path(f).exists() else None for f in files]
    return hashlib.sha256(repr((code, out, err, *written)).encode()).hexdigest()


@pytest.mark.parametrize("case", RUN_CASES, ids=["-".join(c) for c in RUN_CASES])
def test_run_command_is_pinned(case, backend, tmp_path, monkeypatch, capsys):
    model, mode, adversary = case
    monkeypatch.chdir(tmp_path)
    Path("model.hg").write_text(FIXTURES[model])
    Path("script.txt").write_text(SCRIPT)
    argv = ["run", "model.hg", "--seed", "1", "--adversary", adversary,
            "--backend", backend, "--trace", "trace.tsv", "--stats", "stats.json"]
    argv += ["--lazy"] if mode == "lazy" else []
    argv += ["--script", "script.txt"] if adversary == "script" else []
    digest = cli_digest(argv, capsys, ["trace.tsv", "stats.json"])
    assert digest == GOLDEN["cli-run-" + "-".join(case)]


# `run` on a generated model: coverage played lazily over several sessions,
# and a session cut by the move cap.
RANDOM_RUNS = {
    "coverage-lazy-repeat": ["--transform", "branch-coverage", "--lazy", "--repeat", "3",
                             "--stats", "stats.json"],
    "move-cap": ["--max-moves", "5", "--trace", "trace.tsv", "--stats", "stats.json"],
}


@pytest.mark.parametrize("case", RANDOM_RUNS)
def test_run_on_a_generated_model_is_pinned(case, backend, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("model.hg").write_text(serialize_model(_decl("random1", "none")))
    argv = ["run", "model.hg", "--backend", backend, *RANDOM_RUNS[case]]
    digest = cli_digest(argv, capsys, ["trace.tsv", "stats.json"])
    assert digest == GOLDEN["cli-run-random1-" + case]


@pytest.mark.parametrize("model", FIXTURES)
def test_solve_command_is_pinned(model, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("model.hg").write_text(FIXTURES[model])
    assert cli_digest(["solve", "model.hg"], capsys) == GOLDEN[f"cli-solve-{model}"]


def test_bench_command_is_pinned(pytestconfig, tmp_path, monkeypatch, capsys):
    # Everything but the timings: the host (its date and calibration
    # included), each row's `seconds` and `parse_s`, and in stdout the
    # seconds column and the speed-ups, the last field of each line that
    # starts with a size.
    require_compiled(pytestconfig)
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--min-pow", "3", "--max-pow", "4", "--compare-backends",
                 "--json", "bench.json"])
    out, err = capsys.readouterr()
    doc = json.loads(Path("bench.json").read_text())
    del doc["host"]
    for result in doc["backends"].values():
        for row in result["rows"]:
            del row["seconds"], row["parse_s"]
    untimed = re.sub(r"^( *\d+ .*?) +\S+$", r"\1", out, flags=re.M)
    text = repr((code, untimed, err, json.dumps(doc, sort_keys=True)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["cli-bench"]
