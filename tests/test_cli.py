import hashlib
import json
import platform
import random

import pytest

import hypergame.cli
import hypergame.model
import hypergame.ranks
from hypergame.cli import main
from hypergame.model import ModelDecl, serialize_model
from hypergame.providers import gen_random_bounded_degree
from hypergame.ranks import UNREACHABLE, RankTable

from conftest import (G1_TEXT, G2_TEXT, G3_TEXT, lost_base_decl, oracle_ranks,
                      random_decl, require_compiled)


@pytest.fixture
def g1_path(tmp_path):
    p = tmp_path / "G1.hg"
    p.write_text(G1_TEXT)
    return str(p)


@pytest.fixture
def g2_path(tmp_path):
    p = tmp_path / "G2.hg"
    p.write_text(G2_TEXT)
    return str(p)


@pytest.fixture
def g3_path(tmp_path):
    p = tmp_path / "G3.hg"
    p.write_text(G3_TEXT)
    return str(p)


class TestRank:
    def test_g1(self, g1_path, capsys):
        assert main(["rank", g1_path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "vertex s0 rank 2",
            "vertex s1 rank 1",
            "vertex s2 rank 1",
            "edge a rank 1",
            "edge b rank 2",
            "edge c rank 2",
        ]

    def test_g1_after_mark(self, g1_path, capsys):
        assert main(["rank", g1_path, "--after-mark", "s1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "vertex s0 rank unreachable" in out
        assert "vertex s1 rank unreachable" in out
        assert "vertex s2 rank 1" in out

    def test_g3(self, g3_path, capsys):
        assert main(["rank", g3_path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "vertex s0 rank unreachable",
            "vertex s1 rank 1",
            "edge f rank unreachable",
        ]

    def test_parse_error_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.hg"
        p.write_text("initial s0\nedge e s0 ->\n")
        assert main(["rank", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_after_mark_exits_2(self, g1_path, capsys):
        assert main(["rank", g1_path, "--after-mark", "zz"]) == 2


def oracle_rank_text(decl, after_mark):
    """What `hypergame rank` prints for `decl` after `after_mark`, from the
    oracle's ranks, dead edges included."""
    vr, er = oracle_ranks(decl.vertices, decl.edges, {decl.initial, *after_mark})

    def value(r):
        return "unreachable" if r == UNREACHABLE else str(r)

    return "".join([*(f"vertex {v} rank {value(vr[v])}\n" for v in decl.vertices),
                    *(f"edge {e.id} rank {value(er[e.id])}\n" for e in decl.edges)])


class TestRankMatchesOracle:
    """`rank` prints the session engine's ranks, on each backend; they equal
    the oracle's whatever the order of the --after-mark vertices."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """The rank tables `rank` builds, in order."""
        made = []

        class Recorded(RankTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(hypergame.cli, "RankTable", Recorded)
        return made

    @pytest.fixture
    def rank(self, backend, tables, tmp_path, capsys, monkeypatch):
        """`rank` on `decl`'s text with each --after-mark vertex in the given
        order, on `backend`, which the default engine lookup picks once a
        pure run hides the compiled core; asserts exit 0 and no stderr,
        returns stdout."""
        if backend == "pure":
            monkeypatch.setattr(hypergame.ranks, "CompiledRankEngine", None)

        def rank(decl, after_mark):
            path = tmp_path / "model.hg"
            path.write_text(serialize_model(decl))
            argv = ["rank", str(path)]
            for v in after_mark:
                argv += ["--after-mark", v]
            assert main(argv) == 0
            assert tables[-1].eng.backend == backend
            out, err = capsys.readouterr()
            assert err == ""
            return out
        return rank

    def test_random_models(self, rank):
        rng = random.Random(43)
        for _ in range(150):
            decl = random_decl(rng)
            after = [v for v in decl.vertices if v != decl.initial]
            rng.shuffle(after)
            after = after[:rng.randint(0, len(after))]
            want = oracle_rank_text(decl, after)
            assert rank(decl, after) == want
            rng.shuffle(after)
            assert rank(decl, after) == want

    def test_every_vertex_marked(self, rank, tables):
        # No unmarked vertex is left, so no base case: all is unreachable.
        rng = random.Random(44)
        for _ in range(20):
            decl = random_decl(rng)
            after = [v for v in decl.vertices if v != decl.initial]
            rng.shuffle(after)
            out = rank(decl, after)
            assert tables[-1].eng.unmarked == 0
            assert out == oracle_rank_text(decl, after)
            assert all(line.endswith(" rank unreachable") for line in out.splitlines())

    def test_lost_base_takes_the_flush(self, rank, tables):
        # Marking the base `c` leaves each ring without support; the spare
        # `z` stays unmarked, so the queries drain, overrun the work budget
        # and flush.
        rng = random.Random(45)
        for _ in range(6):
            decl, order = lost_base_decl(rng)
            order = order[:-1]
            want = oracle_rank_text(decl, order)
            assert rank(decl, order) == want
            assert tables[-1].snapshot_work().flushes >= 1
            rng.shuffle(order)
            assert rank(decl, order) == want


class TestRun:
    def test_g1_avoider_blocked_exit_3(self, g1_path, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        code = main(["run", g1_path, "--adversary", "avoider", "--seed", "1",
                     "--stats", str(stats)])
        assert code == 3
        data = json.loads(stats.read_text())
        assert data["states_marked"] == 2
        assert data["terminated"] == "unreachable"

    def test_g2_random_full_exit_0(self, g2_path, tmp_path):
        stats = tmp_path / "stats.json"
        code = main(["run", g2_path, "--adversary", "random", "--seed", "1",
                     "--stats", str(stats)])
        assert code == 0
        data = json.loads(stats.read_text())
        assert data["moves"] == 2 and data["terminated"] == "all_marked"

    def test_g3_break_self_loops_exit_0(self, g3_path, tmp_path):
        stats = tmp_path / "stats.json"
        code = main(["run", g3_path, "--transform", "break-self-loops",
                     "--adversary", "random", "--seed", "1", "--stats", str(stats)])
        assert code == 0
        data = json.loads(stats.read_text())
        assert data["virtual_marked"] == 1  # the failure-case vertex was covered

    def test_move_cap_exit_4(self, g2_path):
        assert main(["run", g2_path, "--max-moves", "1"]) == 4

    def test_script_violation_exit_5(self, g1_path, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text("s1\ns1\n")  # second entry illegal at that point
        code = main(["run", g1_path, "--adversary", "script",
                     "--script", str(script)])
        assert code in (3, 5)  # blocked before consuming the bad entry is fine
        script.write_text("s0\n")  # illegal from move one
        assert main(["run", g1_path, "--adversary", "script",
                     "--script", str(script)]) == 5

    def test_trace_and_stats_deterministic(self, g1_path, tmp_path):
        t1, t2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", g1_path, "--adversary", "random", "--seed", "7"]
        assert main(argv + ["--trace", str(t1), "--stats", str(s1)]) in (0, 3)
        assert main(argv + ["--trace", str(t2), "--stats", str(s2)]) in (0, 3)
        assert t1.read_bytes() == t2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_trace_format(self, g2_path, tmp_path):
        trace = tmp_path / "t.tsv"
        main(["run", g2_path, "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        assert lines[0].split("\t") == ["1", "s0", "e1", "s1", "1", "2"]
        assert lines[1].split("\t") == ["2", "s1", "e2", "s2", "1", "2"]

    def test_repeat_aggregates(self, g1_path, tmp_path):
        stats = tmp_path / "agg.json"
        code = main(["run", g1_path, "--adversary", "random", "--seed", "3",
                     "--repeat", "4", "--stats", str(stats)])
        assert code in (0, 3)
        data = json.loads(stats.read_text())
        assert data["aggregate"]["sessions"] == 4
        assert len(data["runs"]) == 4

    def test_repeat_with_trace_rejected(self, g1_path, tmp_path):
        code = main(["run", g1_path, "--repeat", "2",
                     "--trace", str(tmp_path / "t.tsv")])
        assert code == 2

    @pytest.mark.parametrize("lazy", [[], ["--lazy"]], ids=["eager", "lazy"])
    def test_repeat_validates_twice(self, lazy, g1_path, monkeypatch):
        # A declaration validates itself when it is built: once for the
        # loaded model and once for the transformed one; no session or
        # provider builds another.
        calls = []
        post_init = ModelDecl.__post_init__
        monkeypatch.setattr(ModelDecl, "__post_init__",
                            lambda decl: post_init(decl) or calls.append(decl))
        code = main(["run", g1_path, "--transform", "branch-coverage",
                     "--repeat", "5"] + lazy)
        assert code in (0, 3)
        assert len(calls) == 2 and calls[1] != calls[0]

    def test_repeat_reads_script_once(self, g2_path, tmp_path, monkeypatch):
        script = tmp_path / "script.txt"
        script.write_text("s1\ns2\n")
        stats = tmp_path / "agg.json"
        reads = []
        read_text = hypergame.cli._read_text
        monkeypatch.setattr(hypergame.cli, "_read_text",
                            lambda path: reads.append(path) or read_text(path))
        assert main(["run", g2_path, "--adversary", "script", "--script", str(script),
                     "--repeat", "3", "--stats", str(stats)]) == 0
        assert reads.count(str(script)) == 1
        # Every session replays the script from its start: three full runs.
        assert hashlib.sha256(stats.read_bytes()).hexdigest() == \
            "4bb217beb04d3f96a7fe0748c367dd9dfaad73c0252223bc0ad2a6c93b101544"

    def test_lazy_trace_equals_eager(self, g2_path, tmp_path):
        a, b = tmp_path / "eager.tsv", tmp_path / "lazy.tsv"
        main(["run", g2_path, "--seed", "2", "--trace", str(a)])
        main(["run", g2_path, "--seed", "2", "--lazy", "--trace", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestConfigErrorsExit2:
    """Bad files and options exit 2 with a one-line error, never a
    traceback."""

    @staticmethod
    def _one_line_error(capsys, needle):
        """Checks stderr; returns stdout."""
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and str(needle) in err
        assert err.count("\n") == 1
        return out

    def test_missing_allowed_file(self, g1_path, tmp_path, capsys):
        missing = tmp_path / "allowed.txt"
        assert main(["run", g1_path, "--adversary", "subset",
                     "--allowed", str(missing)]) == 2
        self._one_line_error(capsys, missing)

    def test_missing_script_file(self, g1_path, tmp_path, capsys):
        missing = tmp_path / "script.txt"
        assert main(["run", g1_path, "--adversary", "script",
                     "--script", str(missing)]) == 2
        self._one_line_error(capsys, missing)

    @pytest.mark.parametrize("flag,adversary", [
        ("--script", "script"), ("--allowed", "subset"),
    ], ids=["script", "allowed"])
    def test_input_file_for_another_adversary(self, flag, adversary, g1_path, tmp_path,
                                              capsys):
        # A file the chosen adversary does not read is a mistake, not a
        # session: rejected before any session runs.
        given = tmp_path / "input.txt"
        given.write_text("s1\n")
        assert main(["run", g1_path, flag, str(given)]) == 2
        assert self._one_line_error(
            capsys, f"{flag} FILE is only read by the {adversary} adversary") == ""

    @pytest.mark.parametrize("text,needle", [
        ("edge a: s1\nedge : s1\n", "line 2: expected `edge <id>: <v...>`"),
        ("edge a b: s1\n", "line 1: expected `edge <id>: <v...>`"),
        ("edge a: s1\n# again\nedge a: s2\n", "line 3: second allowed set for edge a"),
    ], ids=["no-id", "two-ids", "repeated-edge"])
    def test_bad_allowed_file(self, text, needle, g1_path, tmp_path, capsys):
        allowed = tmp_path / "allowed.txt"
        allowed.write_text(text)
        assert main(["run", g1_path, "--adversary", "subset",
                     "--allowed", str(allowed)]) == 2
        assert self._one_line_error(capsys, needle) == ""

    def test_compiled_backend_not_built(self, g1_path, monkeypatch, capsys):
        monkeypatch.setattr(hypergame.ranks, "CompiledRankEngine", None)
        assert main(["run", g1_path, "--backend", "compiled"]) == 2
        assert self._one_line_error(capsys, "compiled rank engine requested "
                                            "but not built") == ""

    def test_compare_backends_needs_the_compiled_core(self, monkeypatch, capsys):
        # Rejected before any session runs: nothing reaches stdout.
        monkeypatch.setattr(hypergame.ranks, "CompiledRankEngine", None)
        assert main(["bench", "--min-pow", "3", "--max-pow", "3",
                     "--compare-backends"]) == 2
        assert self._one_line_error(capsys, "compiled rank engine requested "
                                            "but not built") == ""

    @pytest.mark.parametrize("flag", ["--stats", "--trace"])
    def test_unwritable_run_output(self, flag, g1_path, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "out"
        assert main(["run", g1_path, flag, str(bad)]) == 2
        self._one_line_error(capsys, bad)

    def test_unwritable_transform_output(self, g1_path, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "out.hg"
        assert main(["transform", g1_path, "--apply", "edge-coverage",
                     "-o", str(bad)]) == 2
        self._one_line_error(capsys, bad)

    def test_unwritable_transform_report(self, g1_path, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "report.json"
        assert main(["transform", g1_path, "--apply", "edge-coverage",
                     "-o", str(tmp_path / "out.hg"), "--report", str(bad)]) == 2
        self._one_line_error(capsys, bad)

    def test_unwritable_gen_output(self, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "chain.hg"
        assert main(["gen", "chain", "--length", "3", "-o", str(bad)]) == 2
        self._one_line_error(capsys, bad)

    def test_non_utf8_model(self, tmp_path, capsys):
        p = tmp_path / "latin1.hg"
        p.write_bytes("initial s\xe9\n".encode("latin-1"))
        assert main(["run", str(p)]) == 2
        self._one_line_error(capsys, p)

    @pytest.mark.parametrize("spec,needle", [
        ("nope", "unknown transform(s): nope"),
        ("edge-coverage,branch-coverage", "mutually exclusive"),
        ("branch-coverage,", "empty transform name in 'branch-coverage,'"),
    ])
    def test_bad_run_transform(self, spec, needle, g1_path, capsys):
        assert main(["run", g1_path, "--transform", spec]) == 2
        assert self._one_line_error(capsys, needle) == ""

    @pytest.mark.parametrize("argv,needle", [
        (["--min-pow", "3", "--max-pow", "2"], "--min-pow"),
        (["--min-pow", "-1", "--max-pow", "1"], "--min-pow"),
        (["--min-pow", "1", "--max-pow", "1", "--out-degree", "0"], "out_degree"),
        (["--min-pow", "1", "--max-pow", "1", "--fanout", "3"], "fanout 3 too large"),
    ], ids=["empty-range", "negative-pow", "out-degree-0", "fanout-too-large"])
    def test_bad_bench_options(self, argv, needle, capsys):
        # Rejected before any session runs: nothing reaches stdout.
        assert main(["bench", *argv]) == 2
        assert self._one_line_error(capsys, needle) == ""


class TestSolve:
    def test_g1(self, g1_path, capsys):
        assert main(["solve", g1_path]) == 0
        out = capsys.readouterr().out
        assert "minimax moves to next marking: 1" in out
        assert "min-rank strategy attains it: yes" in out

    def test_g2(self, g2_path, capsys):
        assert main(["solve", g2_path]) == 0
        out = capsys.readouterr().out
        assert "minimax moves to next marking: 1" in out
        assert "attains it: yes" in out

    def test_g3_unbounded(self, g3_path, capsys):
        assert main(["solve", g3_path]) == 0
        out = capsys.readouterr().out
        assert "minimax moves to next marking: unbounded" in out

    def test_strategy_picks_the_min_rank_edge(self, tmp_path, capsys):
        # Of three edges at the start only `b` forces a marking; the others
        # let the system answer s0 forever.
        p = tmp_path / "choice.hg"
        p.write_text("initial s0\nedge a s0 -> s0\nedge b s0 -> s1\n"
                     "edge c s0 -> s0 s2\n")
        assert main(["solve", str(p)]) == 0
        out = capsys.readouterr().out
        assert "minimax moves to next marking: 1" in out
        assert "min-rank strategy attains it: yes" in out

    def test_too_large_exit_2(self, tmp_path, capsys):
        lines = ["initial v0"] + [f"edge e{i} v0 -> v{i}" for i in range(1, 10)]
        p = tmp_path / "big.hg"
        p.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(p)]) == 2


class TestTransformCmd:
    def test_break_self_loops_file(self, g3_path, tmp_path, capsys):
        out = tmp_path / "out.hg"
        report = tmp_path / "report.json"
        code = main(["transform", g3_path, "--apply", "break-self-loops",
                     "-o", str(out), "--report", str(report)])
        assert code == 0
        from hypergame.model import parse_model
        decl = parse_model(out.read_text())
        assert not any(e.head in e.tail for e in decl.edges)
        rep = json.loads(report.read_text())
        assert rep["rewritten_edges"] == ["f"]

    def test_bad_transform_exit_2(self, g1_path, tmp_path):
        assert main(["transform", g1_path, "--apply", "nope",
                     "-o", str(tmp_path / "x.hg")]) == 2


class TestGen:
    def test_chain_equals_g2_modulo_ids(self, tmp_path, g2):
        out = tmp_path / "c.hg"
        assert main(["gen", "chain", "--length", "3", "-o", str(out)]) == 0
        from hypergame.model import parse_model
        decl = parse_model(out.read_text())
        assert [(e.head, e.tail) for e in decl.edges] == \
            [(e.head, e.tail) for e in g2.edges]

    def test_gen_then_rank_deterministic(self, tmp_path, capsys):
        out = tmp_path / "r.hg"
        argv = ["gen", "random", "--states", "10", "--out-degree", "2",
                "--fanout", "3", "--seed", "9", "-o", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(["rank", str(out)]) == 0
        ranked1 = capsys.readouterr().out
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert main(["rank", str(out)]) == 0
        assert capsys.readouterr().out.endswith(ranked1)

    def test_gen_bad_fanout_exit_2(self, tmp_path):
        assert main(["gen", "random", "--states", "3", "--out-degree", "1",
                     "--fanout", "5", "-o", str(tmp_path / "x.hg")]) == 2


class TestBench:
    def test_one_size_fits_no_line(self, capsys):
        # One size is one point: no slope, intercept or R^2 to report.
        assert main(["bench", "--min-pow", "3", "--max-pow", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines.pop(2).split()[:-1] == ["8", "3", "2", "34", "47", "0.6620"]
        assert lines == [  # less the row, whose last column is the seconds
            "backend: default",
            "       n        E    R    H_prime         work  work/(E+R*H)  seconds",
            "work bound fit: work <= 0.662 * (E + R*H')",
            "rank growth fit: none, E does not vary",
            "R/E trend: 0.66667",
            "",
        ]

    def test_json_file(self, tmp_path, request, capsys):
        # Per backend, the rows bench prints and both fits, plus the host.
        require_compiled(request.config)
        out = tmp_path / "bench.json"
        assert main(["bench", "--min-pow", "3", "--max-pow", "4", "--compare-backends",
                     "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert set(doc) == {"host", "settings", "backends"}
        assert set(doc["host"]) == {"python", "cpu", "date", "calibration_s"}
        assert doc["host"]["python"] == platform.python_version()
        assert doc["host"]["calibration_s"] > 0
        assert doc["settings"] == {"sizes": [8, 16], "out_degree": 3, "fanout": 2,
                                   "seed": 1, "repeats": 3, "scanner": "compiled",
                                   "builder": "compiled", "loop": "compiled"}
        assert set(doc["backends"]) == {"pure", "compiled"}
        for result in doc["backends"].values():
            assert set(result) == {"rows", "work_fit", "rank_growth_fit"}
            assert [(r["n"], r["seed"]) for r in result["rows"]] == [(8, 1), (16, 2)]
            row = result["rows"][0]
            assert set(row) == {"n", "seed", "E", "R", "H_prime", "work", "ratio",
                                "seconds", "moves", "terminated", "parse_s"}
            assert row["parse_s"] > 0
            assert f"{row['n']:>8} {row['E']:>8} {row['R']:>4} {row['H_prime']:>10} " \
                   f"{row['work']:>12} {row['ratio']:>13.4f}" in printed
            assert row["ratio"] == row["work"] / (row["E"] + max(1, row["R"]) * row["H_prime"])
            assert row["terminated"] in ("all_marked", "unreachable", "move_cap")
            assert set(result["work_fit"]) == {"c", "log_log"}
            assert set(result["work_fit"]["log_log"]) == {"slope", "intercept", "r2"}
            assert result["work_fit"]["c"] == max(r["ratio"] for r in result["rows"])
        # Seeded rows agree across backends but for the timings.
        strip = [[{k: v for k, v in r.items() if k not in ("seconds", "parse_s")}
                  for r in b["rows"]]
                 for b in doc["backends"].values()]
        assert strip[0] == strip[1]

    def test_row_seconds_are_the_median_of_fresh_sessions(self, monkeypatch):
        # A row plays its session three times, each with a fresh adversary,
        # and reports the median of the three times.
        import types
        import hypergame.bench as bench
        adversaries = []
        real_run_session = bench.run_session

        def run_session(decl, adversary, **kwargs):
            adversaries.append(adversary)
            return real_run_session(decl, adversary, **kwargs)

        ticks = iter([0.0, 5.0, 10.0, 11.0, 20.0, 23.0])  # 5 s, 1 s, 3 s
        monkeypatch.setattr(bench, "run_session", run_session)
        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        [row] = bench.measure_session(8, seed=1, backends=["pure"])
        assert row["seconds"] == 3.0
        assert len(adversaries) == len({id(a) for a in adversaries}) == bench.REPEATS == 3

    def test_row_parse_s_times_the_model_text(self, monkeypatch):
        # A row's parse_s times parse_model on the text of the row's model,
        # REPEATS times, outside the session timer.
        import hypergame.bench as bench
        texts = []
        real_parse_model = bench.parse_model

        def parse_model(text):
            texts.append(text)
            return real_parse_model(text)

        monkeypatch.setattr(bench, "parse_model", parse_model)
        [row] = bench.measure_session(8, seed=1, backends=["pure"])
        decl = gen_random_bounded_degree(8, 3, 2, 1)
        assert texts == [serialize_model(decl)] * bench.REPEATS
        assert 0 < row["parse_s"]

    def test_json_names_the_pure_scanner(self, monkeypatch, capsys):
        import hypergame.bench as bench
        monkeypatch.setattr(hypergame.model, "compiled_scan_plain", None)
        rows = bench.run_benchmark([8])
        assert bench.benchmark_json(rows, 3, 2, 1)["settings"]["scanner"] == "pure"

    def test_json_names_the_builder(self, builder, capsys):
        import hypergame.bench as bench
        rows = bench.run_benchmark([8])
        assert bench.benchmark_json(rows, 3, 2, 1)["settings"]["builder"] == builder

    @pytest.mark.parametrize("built", [False, True], ids=["not-built", "built"])
    def test_json_names_the_loop(self, built, request, monkeypatch, capsys):
        # The compiled engine's rows time the compiled loop; without it, the
        # pure rows time the Python loop, and nothing builds the integer model.
        import hypergame.bench as bench
        if built:
            require_compiled(request.config)
        else:
            monkeypatch.setattr(hypergame.ranks, "CompiledRankEngine", None)
        rows = bench.run_benchmark([8])
        assert bench.benchmark_json(rows, 3, 2, 1)["settings"]["loop"] == (
            "compiled" if built else "python")

    def test_row_builds_the_integer_model_outside_the_timer(self, request, monkeypatch):
        import types
        import hypergame.bench as bench
        require_compiled(request.config)
        log = []
        real_compiled_model = bench.compiled_model

        def compiled_model(decl):
            log.append("build")
            return real_compiled_model(decl)

        def perf_counter():
            log.append("tick")
            return 0.0

        monkeypatch.setattr(bench, "compiled_model", compiled_model)
        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=perf_counter))
        bench.measure_session(8, seed=1, backends=["compiled"])
        assert log == ["build"] + ["tick"] * 2 * bench.REPEATS

    def test_compare_backends_parses_each_row_once(self, request, monkeypatch, capsys):
        # Each row's model is generated and its text parsed REPEATS times
        # once, whatever the number of backends; both rows carry that parse_s.
        require_compiled(request.config)
        import hypergame.bench as bench
        calls = {"gen": 0, "parse": 0}
        real_gen, real_parse = bench.gen_random_bounded_degree, bench.parse_model

        def gen(*args):
            calls["gen"] += 1
            return real_gen(*args)

        def parse_model(text):
            calls["parse"] += 1
            return real_parse(text)

        monkeypatch.setattr(bench, "gen_random_bounded_degree", gen)
        monkeypatch.setattr(bench, "parse_model", parse_model)
        sizes = [8, 16, 32]
        rows = bench.run_benchmark(sizes, compare=True)
        assert calls == {"gen": len(sizes), "parse": bench.REPEATS * len(sizes)}
        assert ([r["parse_s"] for r in rows["pure"]["rows"]]
                == [r["parse_s"] for r in rows["compiled"]["rows"]])

    def test_json_unwritable(self, tmp_path, monkeypatch, capsys):
        # A path that cannot be written fails before any session is played.
        import hypergame.bench as bench

        def run_session(*args, **kwargs):
            raise AssertionError("a session was played")

        monkeypatch.setattr(bench, "run_session", run_session)
        for bad in (tmp_path / "no-such-dir" / "bench.json", tmp_path):
            assert main(["bench", "--min-pow", "3", "--max-pow", "3", "--json", str(bad)]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {bad}")

    def test_json_replaces_a_file_once_the_rows_are_written(self, tmp_path, monkeypatch,
                                                            capsys):
        import hypergame.bench as bench
        out = tmp_path / "bench.json"
        old = "old\n" * 10_000  # longer than the new text
        out.write_text(old)
        seen = []
        real_run_session = bench.run_session

        def run_session(*args, **kwargs):
            seen.append(out.read_text())
            return real_run_session(*args, **kwargs)

        monkeypatch.setattr(bench, "run_session", run_session)
        assert main(["bench", "--min-pow", "3", "--max-pow", "3", "--json", str(out)]) == 0
        assert seen == [old] * bench.REPEATS
        assert json.loads(out.read_text())["settings"]["sizes"] == [8]


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "hypergame" in capsys.readouterr().out


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2
