"""The session benchmark's own path, on the in-tree package.

Each workload of `perfbench/run.py`, cut to 64 states, plays one checked
session untraced and one inside the benchmark's layer tracer. A change to a
name the benchmark calls or traces then fails here rather than in a
benchmark run. Nothing is built: the package is the one under test.
"""

import random
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hypergame
from hypergame import model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
import run  # noqa: E402
from tracer import Tracer, trace_package  # noqa: E402
sys.dont_write_bytecode = _write_bytecode

STATES = 64
# Spans whose boundary the package no longer has (see ROADMAP item 1); the
# tracer leaves them out and their metrics read 0.
STALE_SPANS = {"engine.validate", "ranks.oracle", "providers.expand"}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_plays_checked_and_traced(name, capsys):
    wl = replace(run.WORKLOADS[name], states=STATES, setup_reps=1)
    text, model = run.make_model(STATES, random.Random(1), name)
    # play_checked raises CheckFailed if a benchmark check rejects a session.
    plain = run.play_checked(hypergame, wl, text, model, 7)
    tracer = Tracer()
    with trace_package(hypergame, tracer):
        traced = run.play_checked(hypergame, wl, text, model, 7)
    assert (traced.covered, traced.stats.moves) == (plain.covered, plain.stats.moves)
    assert plain.stats.moves > 0

    left_out = set(re.findall(r"span (\S+) left out", capsys.readouterr().err))
    assert left_out == STALE_SPANS
    session_spans = set(run.SESSION_SELF.values()) - STALE_SPANS
    assert {span for span in session_spans if not tracer.calls[span]} == set()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_text_takes_the_scanned_path(name, scanner, monkeypatch):
    # Only the model and initial lines reach the per-line reader; if the
    # benchmark's text ever needs it for more, its parse times change.
    keywords, slow = [], []

    def logged(owner, attr, log, entry=None):
        real = getattr(owner, attr)

        def call(*args):
            log.append(entry(*args) if entry else attr)
            return real(*args)
        monkeypatch.setattr(owner, attr, call)

    logged(model._Reader, "read", keywords, lambda reader, lineno, line: line.split()[0])
    logged(model, "_parse_edge_line", slow)
    logged(model, "_parse_lines", slow)
    model_seed, _ = run.input_seeds(name, 1)[0]
    text, _ = run.make_input(name, 0, model_seed, with_model=False)
    assert len(hypergame.parse_model(text).vertices) == run.WORKLOADS[name].states
    assert (keywords, slow) == (["model", "initial"], [])


@pytest.mark.parametrize("builder", ["compiled"], indirect=True)
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_edges_take_the_compiled_path(name, builder, monkeypatch):
    # With the compiled kernels, a benchmark text's edges are built without
    # Edge.__init__, ModelDecl's per-edge loop never runs, and a coverage
    # transform's edges all come from make_edges; else set-up times change.
    inits, loops, made = [], [], []
    edge_init, kernel = model.Edge.__init__, model.compiled_make_edges

    def init(self, *args, **kwargs):
        inits.append(args)
        edge_init(self, *args, **kwargs)

    def make_edges(*columns):
        edges = kernel(*columns)
        made.extend(edges)
        return edges

    monkeypatch.setattr(model.Edge, "__init__", init)
    monkeypatch.setattr(model, "_edge_problems", lambda *args: loops.append(args) or iter(()))
    monkeypatch.setattr(model, "compiled_make_edges", make_edges)
    wl = run.WORKLOADS[name]
    model_seed, _ = run.input_seeds(name, 1)[0]
    text, _ = run.make_input(name, 0, model_seed, with_model=False)
    parsed, decl = run.set_up(hypergame, wl, text)
    assert len(parsed.vertices) == wl.states
    assert len(decl.edges) > len(parsed.edges) if wl.transforms else decl is parsed
    made_ids = {id(e) for e in made}  # `made` keeps them alive
    assert all(id(e) in made_ids for e in (*parsed.edges, *decl.edges))
    assert (inits, loops) == ([], [])
