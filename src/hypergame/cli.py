"""Command-line front end.

Every subcommand exits 2 on bad input (options, files or models), with one
`error:` line on stderr and no traceback. Other exit codes for `run`: 0 full
coverage, 3 stopped because the system can avoid further coverage, 4 move
budget exhausted, 5 adversary contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .adversaries import (AdversaryConfigError, ScriptError, make_adversary,
                          parse_allowed_file)
from .engine import (ALL_MARKED, MOVE_CAP, UNREACHABLE_REASON,
                     AdversaryProtocolError, GameState, format_stats,
                     format_trace, run_session)
from .minimax import TooLargeError, minimax_moves_to_mark, strategy_moves_to_mark
from .model import ModelError, parse_model, serialize_model
from .providers import (DeclProvider, check_random_params, gen_chain,
                        gen_random_bounded_degree)
from .ranks import UNREACHABLE, get_engine_class, oracle_ranks
from .transforms import apply_transforms

EXIT_CONFIG = 2
EXIT_BLOCKED = 3
EXIT_MOVE_CAP = 4
EXIT_ADVERSARY = 5


class CliError(Exception):
    pass


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _load_decl(path, strict=False):
    text = _read_text(path)
    try:
        return parse_model(text, strict_vertices=strict)
    except ModelError as exc:
        raise CliError(f"{path}: {exc}") from None


def _transform(decl, spec):
    """Apply the comma-separated rewrites in `spec` (None: none)."""
    try:
        return apply_transforms(decl, spec.split(",") if spec else [])
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _rank_value(r):
    return "unreachable" if r == UNREACHABLE else str(int(r))


def cmd_rank(args):
    decl = _load_decl(args.model, strict=args.strict_vertices)
    marked = {decl.initial}
    for v in args.after_mark or []:
        if v not in decl.vertex_set():
            raise CliError(f"--after-mark: unknown vertex {v!r}")
        if v in marked:
            raise CliError(f"--after-mark: {v!r} already marked")
        marked.add(v)
    vrank, erank = oracle_ranks(decl.vertices, decl.edges, marked, include_dead=True)
    for v in decl.vertices:
        print(f"vertex {v} rank {_rank_value(vrank[v])}")
    for e in decl.edges:
        print(f"edge {e.id} rank {_rank_value(erank[e.id])}")
    return 0


def _adversary_inputs(args):
    """The `allowed` map and `script` that `make_adversary` takes, read from
    the files the options name."""
    allowed = None
    script = None
    if args.adversary == "subset":
        if not args.allowed:
            raise CliError("--allowed FILE is required for the subset adversary")
        allowed = parse_allowed_file(_read_text(args.allowed))
    if args.adversary == "script":
        if not args.script:
            raise CliError("--script FILE is required for the script adversary")
        script = [line.strip() for line in _read_text(args.script).split("\n")
                  if line.strip()]
    return {"allowed": allowed, "script": script}


def cmd_run(args):
    decl, _ = _transform(_load_decl(args.model), args.transform)
    if args.max_moves < 1:
        raise CliError("--max-moves must be >= 1")
    if args.repeat < 1:
        raise CliError("--repeat must be >= 1")
    if args.repeat > 1 and args.trace:
        raise CliError("--trace is only supported for single runs")
    try:
        get_engine_class(args.backend)
    except RuntimeError as exc:  # the compiled core was asked for but not built
        raise CliError(str(exc)) from None

    source = DeclProvider(decl, lazy=args.lazy)  # shared by every session
    inputs = _adversary_inputs(args)
    runs = []
    last_reason = None
    for i in range(args.repeat):
        seed = args.seed + i
        adversary = make_adversary(args.adversary, seed=seed, **inputs)
        try:
            transcript, stats = run_session(source, adversary,
                                            max_moves=args.max_moves, seed=seed,
                                            backend=args.backend)
        except (AdversaryProtocolError, ScriptError) as exc:
            print(f"adversary contract violation: {exc}", file=sys.stderr)
            return EXIT_ADVERSARY
        runs.append(stats)
        last_reason = stats.terminated
        if args.trace:
            _write_text(args.trace, format_trace(transcript))

    if args.stats:
        if args.repeat == 1:
            _write_text(args.stats, format_stats(runs[0]))
        else:
            agg = {
                "runs": [s.to_json() for s in runs],
                "aggregate": {
                    "sessions": len(runs),
                    "full_coverage": sum(1 for s in runs if s.terminated == ALL_MARKED),
                    "moves_total": sum(s.moves for s in runs),
                    "max_rank_R": max(s.max_rank_R for s in runs),
                },
            }
            _write_text(args.stats, json.dumps(agg, indent=2, sort_keys=True) + "\n")
    s = runs[-1]
    print(f"terminated={s.terminated} coverage={s.coverage}/"
          f"{s.states_total + s.interior_total} moves={s.moves} R={s.max_rank_R}")
    if last_reason == UNREACHABLE_REASON:
        return EXIT_BLOCKED
    if last_reason == MOVE_CAP:
        return EXIT_MOVE_CAP
    return 0


def cmd_solve(args):
    decl = _load_decl(args.model)
    marked = frozenset({decl.initial})
    try:
        value = minimax_moves_to_mark(decl, marked, decl.initial)
    except TooLargeError as exc:
        raise CliError(str(exc)) from None
    # The strategy asks only at the initial vertex: every other position it
    # reaches is unmarked, where a move ends.
    gs = GameState(decl)

    def choose(u):
        return None if gs.is_terminal() else gs.tester_choose()

    attained = strategy_moves_to_mark(decl, marked, decl.initial, choose)
    v = "unbounded" if value == UNREACHABLE else str(int(value))
    print(f"minimax moves to next marking: {v}")
    optimal = attained == value
    print(f"min-rank strategy attains it: {'yes' if optimal else 'no'}")
    return 0


def cmd_transform(args):
    out, report = _transform(_load_decl(args.model), args.apply)
    _write_text(args.output, serialize_model(out))
    if args.report:
        _write_text(args.report, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}: {len(out.vertices)} vertices, {len(out.edges)} edges")
    return 0


def cmd_gen(args):
    if args.generator == "random":
        try:
            decl = gen_random_bounded_degree(args.states, args.out_degree,
                                             args.fanout, args.seed)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    else:
        try:
            decl = gen_chain(args.length)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    _write_text(args.output, serialize_model(decl))
    print(f"wrote {args.output}: {len(decl.vertices)} vertices, {len(decl.edges)} edges")
    return 0


def cmd_bench(args):
    from .bench import run_benchmark

    if not 0 <= args.min_pow <= args.max_pow:
        raise CliError("need 0 <= --min-pow <= --max-pow")
    sizes = [2 ** k for k in range(args.min_pow, args.max_pow + 1)]
    try:
        for n in sizes:
            check_random_params(n, args.out_degree, args.fanout)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    run_benchmark(sizes=sizes, out_degree=args.out_degree, fanout=args.fanout,
                  seed=args.seed, compare=args.compare_backends)
    return 0


def _parser():
    p = argparse.ArgumentParser(
        prog="hypergame",
        description="Game-based conformance testing on directed hypergraphs")
    p.add_argument("--version", action="version", version=f"hypergame {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("rank", help="print oracle ranks for a model")
    pr.add_argument("model")
    pr.add_argument("--after-mark", action="append", metavar="VERTEX",
                    help="mark this vertex before ranking (repeatable)")
    pr.add_argument("--strict-vertices", action="store_true",
                    help="require explicit vertex declarations")
    pr.set_defaults(func=cmd_rank)

    pu = sub.add_parser("run", help="play a testing session")
    pu.add_argument("model")
    pu.add_argument("--adversary", choices=["random", "avoider", "subset", "script"],
                    default="random")
    pu.add_argument("--seed", type=int, default=0)
    pu.add_argument("--allowed", help="subset adversary: file of `edge <id>: <v...>` lines")
    pu.add_argument("--script", help="script adversary: file with one vertex per line")
    pu.add_argument("--transform", help="comma-separated rewrites to apply first")
    pu.add_argument("--max-moves", type=int, default=1_000_000)
    pu.add_argument("--trace", help="write the move log (TSV) here")
    pu.add_argument("--stats", help="write session statistics (JSON) here")
    pu.add_argument("--lazy", action="store_true",
                    help="drive the session through a lazy provider")
    pu.add_argument("--repeat", type=int, default=1,
                    help="run K independently seeded sessions and aggregate stats")
    pu.add_argument("--backend", choices=["auto", "pure", "compiled"], default=None)
    pu.set_defaults(func=cmd_run)

    ps = sub.add_parser("solve", help="brute-force game value for a small model")
    ps.add_argument("model")
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("transform", help="rewrite a model")
    pt.add_argument("model")
    pt.add_argument("--apply", required=True,
                    help="comma list of break-self-loops,edge-coverage,"
                         "branch-coverage,compress-chains")
    pt.add_argument("-o", "--output", required=True)
    pt.add_argument("--report", help="write a JSON rewrite report here")
    pt.set_defaults(func=cmd_transform)

    pg = sub.add_parser("gen", help="generate a model")
    gsub = pg.add_subparsers(dest="generator", required=True)
    gr = gsub.add_parser("random", help="random bounded-degree model")
    gr.add_argument("--states", type=int, required=True)
    gr.add_argument("--out-degree", type=int, required=True)
    gr.add_argument("--fanout", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("-o", "--output", required=True)
    gc = gsub.add_parser("chain", help="straight chain model")
    gc.add_argument("--length", type=int, required=True)
    gc.add_argument("-o", "--output", required=True)
    pg.set_defaults(func=cmd_gen)

    pb = sub.add_parser("bench", help="scaling benchmark and backend comparison")
    pb.add_argument("--min-pow", type=int, default=10)
    pb.add_argument("--max-pow", type=int, default=16)
    pb.add_argument("--out-degree", type=int, default=3)
    pb.add_argument("--fanout", type=int, default=2)
    pb.add_argument("--seed", type=int, default=1)
    pb.add_argument("--compare-backends", action="store_true")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except (CliError, AdversaryConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
