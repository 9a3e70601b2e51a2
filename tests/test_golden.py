"""Seeded sessions stay identical byte for byte.

Each case plays one session and hashes its `format_trace`, `format_stats`
and `WorkStats`; both backends must give the pinned hash. The grid covers
random 256-state models (each session ends with one unreachable flush) and
a lost-base model, with and without `branch-coverage`, eager and lazy,
against RandomFair and the Avoider. The lost-base model also drives a bare
`RankTable` through the marking order that strands its cyclic region, which
forces flushes mid-run, and hashes its ranks and counters. The declaration
layer is pinned too: the serialized grid models, `hypergame rank` output on
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
TRANSFORMS = ["none", "branch-coverage"]
MODES = ["eager", "lazy"]
ADVERSARIES = ["random", "avoider"]

GOLDEN = {
    "random1-none-eager-random":
        "a893f2bca2f5c74a2ed1dba6bd55b4c7b8763a1b548f6bd0f6d8cf6299a4c588",
    "random1-none-eager-avoider":
        "abaa3044c5f489b4dbc45f2712784b978287f8df5e6892a35afa3a5f3c837710",
    "random1-none-lazy-random":
        "1b6725dd6e4abb7f923ef1e75311961b2619752cc692f61ebf5087d117775c2f",
    "random1-none-lazy-avoider":
        "f811bd6bbc33cee97e195e959f5372b103eeff2c2dae4c5561bde114eeeaf91e",
    "random1-branch-coverage-eager-random":
        "7ff550dba733665f5dc45cf0ac1ac0a5c30bc90d506beccbba51ff6f5ea5fd93",
    "random1-branch-coverage-eager-avoider":
        "ce69c11578945394f1e1f8053e7ce2245f6a2582ccf88a714430dcd0a583d2f9",
    "random1-branch-coverage-lazy-random":
        "9515a21c7acc40706efbeaecb2dca1cabdce66ead7ba89946cd0010b21d9150a",
    "random1-branch-coverage-lazy-avoider":
        "f7ed6235281de75d7f18dcf2b4ddd25497cfea74c321c1bda114b0c3ebbfe746",
    "random2-none-eager-random":
        "6ffdc32edaab5d432c87beefa3fd3706c25f26fca8b8df77e50d634803e2cfaf",
    "random2-none-eager-avoider":
        "63e2d110746390690ab6bf2bb80868c258786533d3cef02c3e9c6d50e786bf61",
    "random2-none-lazy-random":
        "33a67275ab8a3167eb3be61e21734b65ebf812aa20691db426200b6ad99c1bee",
    "random2-none-lazy-avoider":
        "ccde08367ffa082f132607c0a264525f97a2e1ee496dcf97d0f50e627c8f8c17",
    "random2-branch-coverage-eager-random":
        "f40acd6ce9dd62720eb1491f997c8a93f6155814449f4e6292f13e5c863bec18",
    "random2-branch-coverage-eager-avoider":
        "2f058cde36acaba070ad8460ec88f0875ff76a9576d529f9414cc4ae1e35a8f8",
    "random2-branch-coverage-lazy-random":
        "729fa147856bdc42a4245735f0eda80755b5caf17ad517e1d40437c4a5ccbdea",
    "random2-branch-coverage-lazy-avoider":
        "3a244f0e662f74553277725db0b6503e7c293aa9e6b1c1192be9c1f148adce8c",
    "random3-none-eager-random":
        "16ec22a4618090d163112e6da10b45b406644ec618fe5e70122dc9b0c1ca8e96",
    "random3-none-eager-avoider":
        "c1678040be49ba42289e803dbed731e68f5742a332fbed3cfa132eb7545f390c",
    "random3-none-lazy-random":
        "e393a14fd1353fd956fc96b5ca756f7b5a6eb03f261c36dcbd5bc5f79830c860",
    "random3-none-lazy-avoider":
        "b7f77d9619ccdcfd0421af4a687b68dad25f2dcf57ed0733865ce68f1ad642aa",
    "random3-branch-coverage-eager-random":
        "868d10448b9f87d37e3cc692c20501b4b6d3024616f12ccd04a4d7e98c1b0139",
    "random3-branch-coverage-eager-avoider":
        "dc8fc223399925f1892e317cd35f7dfe41958e6c1767586907f1a231aa9d5929",
    "random3-branch-coverage-lazy-random":
        "b27e09e03251934540b1881469308ca8f264b8f956a64614d485ccb510cab787",
    "random3-branch-coverage-lazy-avoider":
        "17a3f4ea7d82a210d500388d54946bb8bea9546ec90468bd0efe965d46238b35",
    "lostbase-none-eager-random":
        "ccc1fa3da81537cab0101226ef0c691debe40c05d6f57163e7688d21962f198c",
    "lostbase-none-eager-avoider":
        "ccc1fa3da81537cab0101226ef0c691debe40c05d6f57163e7688d21962f198c",
    "lostbase-none-lazy-random":
        "fa46f842ec3b06e24319914868718c63e462fc39ec5f3322a0d29432c48b076c",
    "lostbase-none-lazy-avoider":
        "fa46f842ec3b06e24319914868718c63e462fc39ec5f3322a0d29432c48b076c",
    "lostbase-branch-coverage-eager-random":
        "92d93741af9e831ab72b7d433f485f3184217b8b44d6a0079c329e59bbbb7db5",
    "lostbase-branch-coverage-eager-avoider":
        "92d93741af9e831ab72b7d433f485f3184217b8b44d6a0079c329e59bbbb7db5",
    "lostbase-branch-coverage-lazy-random":
        "9a98f93f41b8d76705b2d52dbdfd409c246d5c9406f703f12cbb0c5ea4ffd384",
    "lostbase-branch-coverage-lazy-avoider":
        "9a98f93f41b8d76705b2d52dbdfd409c246d5c9406f703f12cbb0c5ea4ffd384",
    "flush":
        "eb1dbf5a830c5ca406ca8d288c3afebe3bc9cba7f0d1976b8b89f27694e6a8ac",
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

FIXTURES = {"G1": G1_TEXT, "G2": G2_TEXT, "G3": G3_TEXT}
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
