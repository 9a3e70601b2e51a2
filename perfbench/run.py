"""Session benchmark for `hypergame`.

Plays full testing sessions through the public API, the way `hypergame run`
does: parse_model -> build_game_graph -> apply_transforms -> run_session, on
the rank backend the package selects by default. Every session is checked by
`checks.py`, which computes apart from the package. With `--trace 1` the
same sessions are also played with spans around each layer's public callables
(`tracer.py`) to split the session time across the package's modules.

    python3 perfbench/run.py --workload fair-scale --seed 1 --seconds 30 --trace 0

The package is built from source into `.bench_build/` at the repository root
first. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import CheckFailed, Model, check_branch_structure, check_parsed, check_session
from tracer import Tracer, trace_package

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

OUT_DEGREE = 3
FANOUT = 2


@dataclass(frozen=True)
class Workload:
    states: int          # states per model
    models: int          # distinct models per run, one session each per round
    adversary: str       # "random" or "avoider"
    setup_reps: int      # set-ups per session, the fastest one timed
    transforms: tuple[str, ...] = ()
    lazy: bool = False


# Why these three: fair-scale is engine- and table-bound (pure backend,
# trivial adversary, no transform); avoider-stall is bound by the oracle the
# Avoider reruns on every marking; coverage-lazy is bound by the transform in
# set-up and by lazy growth of the table in the session. A short set-up is
# repeated so that a run takes the median of about fifty of them, not of a
# few ~30 ms samples.
WORKLOADS = {
    "fair-scale": Workload(states=4096, models=6, adversary="random", setup_reps=2),
    "avoider-stall": Workload(states=1024, models=6, adversary="avoider", setup_reps=8),
    "coverage-lazy": Workload(states=2048, models=5, adversary="random", setup_reps=1,
                              transforms=("branch-coverage",), lazy=True),
}

END_TO_END = {"setup_s": "s", "session_s": "s", "covered": "count", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def build_and_import():
    """Build the package from this checkout's sources and import that build."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no package sources under {ROOT}")
    lib = BUILD / "lib"
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(BUILD),
         "--build-lib", str(lib)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stdout}{proc.stderr}")
    sys.path.insert(0, str(lib))
    import hypergame

    if Path(hypergame.__file__).resolve().parent != (lib / "hypergame").resolve():
        raise BenchError(f"imported hypergame from {hypergame.__file__}, not the build")
    return hypergame


def make_model(states: int, rng: random.Random, name: str,
               with_model: bool = True) -> tuple[str, Model | None]:
    """A random bounded-degree model in the package's text format: every state
    has OUT_DEGREE edges, each with FANOUT distinct tail states other than its
    head. Returns the text and, if asked for, the benchmark's own copy of the
    model."""
    width = len(str(states - 1))
    names = [f"s{i:0{width}d}" for i in range(states)]
    edges = {} if with_model else None
    lines = [f"model {name}", f"initial {names[0]}"]
    lines += [f"vertex {v}" for v in names]
    for i, head in enumerate(names):
        for j in range(OUT_DEGREE):
            picks = rng.sample(range(states - 1), FANOUT)
            tail = tuple(sorted(names[p + (p >= i)] for p in picks))
            eid = f"e{i:0{width}d}.{j}"
            lines.append(f"edge {eid} {head} -> {' '.join(tail)}")
            if with_model:
                edges[eid] = (head, tail, ())
    text = "\n".join(lines) + "\n"
    return text, Model(names[0], names, edges) if with_model else None


def input_seeds(workload_name: str, seed: int) -> list[tuple[int, int]]:
    """(model seed, adversary seed) of each of the run's models; the same
    seed gives the same inputs."""
    rng = random.Random(f"{workload_name}:{seed}")
    return [(rng.randrange(1 << 62), rng.randrange(1 << 30))
            for _ in range(WORKLOADS[workload_name].models)]


def make_input(workload_name: str, i: int, model_seed: int, with_model: bool = True):
    return make_model(WORKLOADS[workload_name].states, random.Random(model_seed),
                      f"{workload_name.replace('-', '_')}_{i}", with_model)


def make_inputs(workload_name: str, seed: int):
    """The run's model texts, the benchmark's copies of the models, and the
    adversary seeds."""
    return [(*make_input(workload_name, i, model_seed), adv_seed)
            for i, (model_seed, adv_seed) in enumerate(input_seeds(workload_name, seed))]


@dataclass
class Session:
    setup_s: list[float]  # one time per set-up repeat
    session_s: float
    parsed: object       # the program's parse of the model text
    decl: object         # the declaration played, after any transform
    transcript: list
    stats: object


@dataclass(frozen=True)
class Sample:
    """What a run keeps of a checked session: its figures, not its data."""

    setup_s: list[float]
    session_s: float
    covered: int
    stats: object


def set_up(hg, wl: Workload, text: str):
    """Parse, validate and, where the workload has one, transform the text."""
    parsed = hg.parse_model(text)
    hg.build_game_graph(parsed)
    decl = parsed
    if wl.transforms:
        decl, _ = hg.apply_transforms(parsed, wl.transforms)
    return parsed, decl


def start_session(hg, wl: Workload, decl, adv_seed: int):
    adversary = hg.Avoider() if wl.adversary == "avoider" else hg.RandomFair(adv_seed)
    return hg.run_session(hg.DeclProvider(decl) if wl.lazy else decl, adversary)


def play(hg, wl: Workload, text: str, adv_seed: int) -> Session:
    """Set up `wl.setup_reps` times, timing each, and play one session on the
    last set-up. Raises if the program does."""
    setup_s = []
    for _ in range(wl.setup_reps):
        parsed = decl = None
        gc.collect()
        t0 = perf_counter()
        parsed, decl = set_up(hg, wl, text)
        setup_s.append(perf_counter() - t0)

    gc.collect()
    t0 = perf_counter()
    transcript, stats = start_session(hg, wl, decl, adv_seed)
    session_s = perf_counter() - t0
    return Session(setup_s, session_s, parsed, decl, transcript, stats)


def check(wl: Workload, model: Model, s: Session) -> int:
    """Every check of checks.py that applies to the workload; returns the
    recounted coverage."""
    check_parsed(model, s.parsed)
    played = model
    if wl.transforms:
        played = Model.from_decl(s.decl)
        check_branch_structure(model, played)
    return check_session(played, s.transcript, s.stats, lazy=wl.lazy,
                         avoider=wl.adversary == "avoider")


def play_checked(hg, wl: Workload, text: str, model: Model, adv_seed: int) -> Sample:
    s = play(hg, wl, text, adv_seed)
    return Sample(s.setup_s, s.session_s, check(wl, model, s), s.stats)


class Run:
    """Counts and samples of one run, the samples kept per model. A session
    fails if it raises, stops on the move cap or fails a check; a failed
    check also makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples: dict[int, list[Sample]] = {}

    def attempt(self, key: int, fn, *args):
        self.attempted += 1
        try:
            sample = fn(*args)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        except Exception:  # a session that raises counts as failed
            traceback.print_exc()
            self.failed += 1
            return None
        self.samples.setdefault(key, []).append(sample)
        return sample

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def run_rounds(seconds: float, round_fn) -> None:
    """Whole rounds until the next one would end after `seconds`; at least one."""
    start = perf_counter()
    rounds = 0
    while True:
        round_fn()
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


def peak_rss_mb(hg, workload_name: str, seed: int) -> float:
    """Peak resident memory of a process that sets up and plays the run's
    first model once, unchecked, the way `hypergame run` does: a child forked
    before any of the run's inputs exist, so the benchmark's models, samples
    and checks are not in it. The child writes the model's text itself.
    Raises BenchError if the child fails."""
    wl = WORKLOADS[workload_name]
    model_seed, adv_seed = input_seeds(workload_name, seed)[0]
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            text, _ = make_input(workload_name, 0, model_seed, with_model=False)
            _, decl = set_up(hg, wl, text)
            start_session(hg, wl, decl, adv_seed)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise BenchError("the memory probe's session failed")
    return usage.ru_maxrss / 1024


def measure(hg, wl: Workload, inputs, seconds: float, peak_mb: float) -> dict:
    run = Run()

    def one_round():
        for i, (text, model, adv_seed) in enumerate(inputs):
            run.attempt(i, play_checked, hg, wl, text, model, adv_seed)

    run_rounds(seconds, one_round)
    per_model = list(run.samples.values())
    if not per_model:
        return run.result({})
    for i, reps in run.samples.items():
        if len({(s.covered, s.stats.moves) for s in reps}) > 1:
            print(f"check failed: repeats of model {i} played differently", file=sys.stderr)
            run.correct = False
    values = {
        "setup_s": statistics.median(t for reps in per_model for s in reps for t in s.setup_s),
        "session_s": statistics.median(s.session_s for reps in per_model for s in reps),
        "covered": statistics.median(reps[0].covered for reps in per_model),
        "peak_rss_mb": peak_mb,
    }
    return run.result({k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()})


# Per-layer metrics: (name, unit). Times and counts are means per traced
# session, except the model.* and transforms.* set-up spans, which are means
# per set-up.
PER_LAYER = [
    ("model.parse_s", "s"), ("model.validate_s", "s"), ("transforms.apply_s", "s"),
    ("providers.expand_calls", "count"), ("providers.expand_s", "s"),
    ("ranks.table.init_self_s", "s"), ("ranks.table.ensure_calls", "count"),
    ("ranks.table.ensure_self_s", "s"), ("ranks.table.mark_self_s", "s"),
    ("ranks.engine.ensure_s", "s"), ("ranks.engine.mark_s", "s"),
    ("ranks.engine.relaxations", "count"), ("ranks.engine.queue_ops", "count"),
    ("ranks.engine.work_ratio", "ratio"),
    ("ranks.oracle.calls", "count"), ("ranks.oracle_s", "s"),
    ("adversaries.respond_self_s", "s"),
    ("engine.moves", "count"), ("engine.validate_s", "s"),
    ("engine.tester_choose_self_s", "s"),
    ("engine.apply_response_self_s", "s"), ("engine.loop_self_s", "s"),
    ("trace.session_s", "s"), ("trace.overhead_s", "s"),
]

# Spans inside run_session whose self times, with engine.loop_self_s, make
# up the traced session time.
SESSION_SELF = {
    "providers.expand_s": "providers.expand",
    "ranks.table.init_self_s": "ranks.table.init",
    "ranks.table.ensure_self_s": "ranks.table.ensure",
    "ranks.table.mark_self_s": "ranks.table.mark",
    "ranks.engine.ensure_s": "ranks.engine.ensure",
    "ranks.engine.mark_s": "ranks.engine.mark",
    "ranks.oracle_s": "ranks.oracle",
    "adversaries.respond_self_s": "adversaries.respond",
    "engine.validate_s": "engine.validate",
    "engine.tester_choose_self_s": "engine.tester_choose",
    "engine.apply_response_self_s": "engine.apply_response",
    "engine.loop_self_s": "engine.run_session",
}


def measure_traced(hg, wl: Workload, inputs, seconds: float) -> dict:
    """Each round plays every model once untraced and once traced; the
    difference of their mean session times is the tracing overhead."""
    run = Run()
    plain: list[Sample] = []
    traced: list[Sample] = []
    tracer = Tracer()

    def one_round():
        for i, (text, model, adv_seed) in enumerate(inputs):
            s = run.attempt(i, play_checked, hg, wl, text, model, adv_seed)
            if s is None:
                continue
            plain.append(s)
            with trace_package(hg, tracer):
                s = run.attempt(i, play_checked, hg, wl, text, model, adv_seed)
            if s is not None:
                traced.append(s)

    run_rounds(seconds, one_round)
    if not traced:
        return run.result({})
    n = len(traced)
    setups = max(1, tracer.calls["model.parse"])
    self_time, calls = tracer.self_time, tracer.calls
    values = {k: self_time[span] / n for k, span in SESSION_SELF.items()}
    values.update({
        "model.parse_s": tracer.total["model.parse"] / setups,
        "model.validate_s": tracer.total["model.validate"] / setups,
        "transforms.apply_s": tracer.total["transforms.apply"] / setups,
        "providers.expand_calls": calls["providers.expand"] / n,
        "ranks.table.ensure_calls": calls["ranks.table.ensure"] / n,
        "ranks.oracle.calls": calls["ranks.oracle"] / n,
        "engine.moves": statistics.fmean(s.stats.moves for s in traced),
        "ranks.engine.relaxations": statistics.fmean(s.stats.work.relaxations for s in traced),
        "ranks.engine.queue_ops": statistics.fmean(s.stats.work.queue_ops for s in traced),
        "ranks.engine.work_ratio": statistics.fmean(map(work_ratio, traced)),
        "trace.session_s": statistics.fmean(s.session_s for s in traced),
    })
    values["trace.overhead_s"] = (values["trace.session_s"]
                                  - statistics.fmean(s.session_s for s in plain))
    return run.result({k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER})


def work_ratio(sample: Sample) -> float:
    """Engine work against the paper's bound E + R*H', as `hypergame bench` reports it."""
    st = sample.stats
    w = st.work
    bound = st.states_marked + max(1, st.max_rank_R) * w.live_size_H_prime
    return (w.relaxations + w.queue_ops) / bound


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        hg = build_and_import()
        peak_mb = None if args.trace else peak_rss_mb(hg, args.workload, args.seed)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    inputs = make_inputs(args.workload, args.seed)
    backend = sys.modules["hypergame.ranks"].get_engine_class()().backend
    print(f"workload={args.workload} seed={args.seed} backend={backend} "
          f"states={wl.states} models={wl.models}", file=sys.stderr)
    if args.trace:
        result = measure_traced(hg, wl, inputs, args.seconds)
    else:
        result = measure(hg, wl, inputs, args.seconds, peak_mb)
    if not result["metrics"]:
        print("perfbench: no session completed", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"backend = {backend}")
    print(f"attempted = {result['attempted']}  failed = {result['failed']}  "
          f"correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
