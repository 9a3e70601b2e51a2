import hashlib
import json

import pytest

import hypergame.cli
import hypergame.ranks
from hypergame.cli import main
from hypergame.model import ModelDecl

from conftest import G1_TEXT, G2_TEXT, G3_TEXT


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


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "hypergame" in capsys.readouterr().out


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2
