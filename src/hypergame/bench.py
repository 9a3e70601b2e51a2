"""Scaling measurements: instrumented work against the E + R*H' budget, the
growth of R in E on random bounded-degree models, and a wall-clock comparison
of the pure and compiled engine backends. `run_benchmark` derives each
backend's rows and fits once, as JSON, and prints them; `benchmark_json`
adds the host and settings for `bench --json`.
"""

from __future__ import annotations

import gc
import math
import platform
import statistics
import time
import timeit
from datetime import datetime, timezone

from . import model, ranks
from .adversaries import RandomFair
from .engine import compiled_model, run_session
from .model import parse_model, serialize_model
from .providers import gen_random_bounded_degree
from .ranks import get_engine_class


def _budget(row):
    """E + R*H' of a row, with R taken as at least 1."""
    return row["E"] + max(1, row["R"]) * row["H_prime"]


# Sessions timed per row. One timing moves by about 20% from one process to
# the next; a row reports the median of its repeats.
REPEATS = 3


def timed_parse(text):
    """`parse_model(text)` REPEATS times, each after `gc.collect()` and with
    the collector on, as in a `hypergame run`, and with no other declaration
    of the text alive. Returns the last declaration and the median seconds."""
    times = []
    for _ in range(REPEATS):
        decl = None
        gc.collect()
        t0 = timeit.default_timer()
        decl = parse_model(text)
        times.append(timeit.default_timer() - t0)
    return decl, statistics.median(times)


def measure_session(n, out_degree=3, fanout=2, seed=1, backends=(None,)):
    """Parse the text of the row's seeded model REPEATS times, then, for each
    backend, play the row's seeded session REPEATS times on the parsed model,
    each with a fresh adversary. Returns one row per backend, as the dict
    `bench --json` writes, with the median times; every row carries the one
    `parse_s`. The parse equals the generated model, whose tails are sorted.
    The model, its indexes and its integer copy for the compiled loop are
    built outside the session timer, so every repeat does the same work."""
    text = serialize_model(gen_random_bounded_degree(n, out_degree, fanout, seed))
    decl, parse_s = timed_parse(text)
    decl.by_head, decl.by_id  # index the model now, outside the timer
    if ranks.CompiledRankEngine:
        compiled_model(decl)
    rows = []
    for backend in backends:
        times = []
        for _ in range(REPEATS):
            adversary = RandomFair(seed + 1)
            gc.collect()
            t0 = time.perf_counter()
            _, stats = run_session(decl, adversary, max_moves=60 * n, seed=seed,
                                   backend=backend)
            times.append(time.perf_counter() - t0)
        row = {"n": n, "seed": seed, "E": stats.states_marked, "R": stats.max_rank_R,
               "H_prime": stats.work.live_size_H_prime, "work": stats.work.work}
        row.update(ratio=row["work"] / _budget(row), seconds=statistics.median(times),
                   moves=stats.moves, terminated=stats.terminated, parse_s=parse_s)
        rows.append(row)
    return rows


def scaling_rows(sizes, out_degree=3, fanout=2, seed=1, backends=(None,)):
    """Each backend's rows, one per size. Sizes run one after the other, so
    no other row's declaration is alive while a row's text is parsed."""
    per_size = [measure_session(n, out_degree, fanout, seed + i, backends)
                for i, n in enumerate(sizes)]
    return [list(rows) for rows in zip(*per_size)]


def _lstsq(xs, ys):
    """Least-squares fit y = slope*x + intercept plus the coefficient of
    determination, as {"slope", "intercept", "r2"}; None when the x values
    do not vary, which leaves no line to fit."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if not sxx:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    a = sxy / sxx
    b = my - a * mx
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"slope": a, "intercept": b, "r2": r2}


def work_fit(rows):
    """Fitted constant c with work <= c * (E + R*H') on every row, plus the
    `_lstsq` fit of log work against log budget (a slope around or below 1
    means the bound scales)."""
    c = max(r["ratio"] for r in rows)
    return c, _lstsq([math.log(_budget(r)) for r in rows],
                     [math.log(max(1, r["work"])) for r in rows])


def rank_growth_fit(rows):
    """The `_lstsq` fit of R against log2(E), or None when E does not vary."""
    return _lstsq([math.log2(max(2, r["E"])) for r in rows], [r["R"] for r in rows])


def run_benchmark(sizes, out_degree=3, fanout=2, seed=1, compare=False):
    """Measure every row, then print, per backend (the default one, or pure
    and compiled with `compare`), the scaling table and both fits. Returns
    {backend name: {"rows", "work_fit", "rank_growth_fit"}}, JSON-ready:
    the printed table is read from it."""
    backends = ["pure", "compiled"] if compare else [None]
    per_backend = scaling_rows(sizes, out_degree, fanout, seed, backends)
    results = {}
    for backend, rows in zip(backends, per_backend):
        c, fit = work_fit(rows)
        result = results[get_engine_class(backend)().backend] = {
            "rows": rows,
            "work_fit": {"c": c, "log_log": fit},
            "rank_growth_fit": rank_growth_fit(rows),
        }
        print(f"backend: {backend or 'default'}")
        print(f"{'n':>8} {'E':>8} {'R':>4} {'H_prime':>10} {'work':>12} "
              f"{'work/(E+R*H)':>13} {'seconds':>8}")
        for r in result["rows"]:
            print(f"{r['n']:>8} {r['E']:>8} {r['R']:>4} {r['H_prime']:>10} "
                  f"{r['work']:>12} {r['ratio']:>13.4f} {r['seconds']:>8.3f}")
        line = f"work bound fit: work <= {c:.3f} * (E + R*H')"
        if fit:
            line += f", log-log slope {fit['slope']:.3f} (R^2 {fit['r2']:.3f})"
        print(line)
        growth = result["rank_growth_fit"]
        if growth:
            print(f"rank growth fit: R ~ {growth['slope']:.3f} * log2(E) + "
                  f"{growth['intercept']:.3f} (R^2 {growth['r2']:.3f})")
        else:
            print("rank growth fit: none, E does not vary")
        print("R/E trend: " + " ".join(f"{r['R'] / r['E']:.5f}" for r in result["rows"]))
        print()
    if compare:
        print("backend speedup (pure seconds / compiled seconds):")
        for p, c in zip(results["pure"]["rows"], results["compiled"]["rows"]):
            ratio = p["seconds"] / c["seconds"] if c["seconds"] > 0 else float("inf")
            print(f"{p['n']:>8} {ratio:>8.2f}x")
    return results


def calibration_s() -> float:
    """The seconds of a fixed pure-Python loop, the median of REPEATS runs.
    Dividing a file's seconds by it takes host speed out, so files from
    different sittings compare."""
    return statistics.median(timeit.repeat(
        "d = {}\nfor i in range(200_000):\n    d[i & 1023] = d.get(i & 1023, 0) + i",
        number=1, repeat=REPEATS))


def _cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def benchmark_json(results, out_degree, fanout, seed) -> dict:
    """`run_benchmark`'s results with the host and settings, as one
    JSON-ready dict."""
    return {
        "host": {"python": platform.python_version(), "cpu": _cpu_name(),
                 "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                 "calibration_s": calibration_s()},
        "settings": {"sizes": [r["n"] for r in next(iter(results.values()))["rows"]],
                     "out_degree": out_degree, "fanout": fanout, "seed": seed,
                     "repeats": REPEATS,
                     # the scanner and edge builder that timed parse_s; without
                     # a compiler they are the pure ones, which parse slower
                     "scanner": "compiled" if model.compiled_scan_plain else "pure",
                     "builder": "compiled" if model.compiled_make_edges else "pure",
                     # the move loop that timed the compiled engine's rows, or,
                     # without it, the pure ones; pure rows take the Python loop
                     "loop": "compiled" if ranks.CompiledRankEngine else "python"},
        "backends": results,
    }
