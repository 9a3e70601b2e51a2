"""Self-test of the session checks: each check must accept genuine sessions
and reject a session corrupted in the way it guards against.

    python3 perfbench/selftest.py

Plays small sessions of every workload kind (64 states) through the built
package, then feeds `run.check` copies with one fault each: a swapped
response, a dropped marking, a wrong or premature verdict, a broken rank
guarantee, a miscounted coverage, a misrouted or missing waypoint, a model
that was parsed wrong, and a system that marks when it could have avoided it.
Exits 1 unless every genuine session passes and every corrupted one is
rejected by the check named for it.
"""

from __future__ import annotations

import copy
import random
import sys
from dataclasses import replace
from types import SimpleNamespace

from checks import CheckFailed, Model, check_replay
from run import WORKLOADS, BenchError, build_and_import, check, make_model, play

STATES = 64


def as_decl(model: Model):
    """The attributes the checks read from a declaration, taken from a Model."""
    edges = [SimpleNamespace(id=eid, head=h, tail=t, interior=i)
             for eid, (h, t, i) in model.edges.items()]
    return SimpleNamespace(initial=model.initial, vertices=tuple(model.vertices),
                           virtual_vertices=model.virtual, edges=edges)


def with_move(s, i, **changes):
    """A copy of session s whose move i has the given fields changed."""
    t = list(s.transcript)
    t[i] = replace(t[i], **changes)
    return replace(s, transcript=t)


def with_stats(s, **changes):
    stats = copy.copy(s.stats)
    for k, v in changes.items():
        setattr(stats, k, v)
    return replace(s, stats=stats)


def first(s, pred):
    for i, m in enumerate(s.transcript):
        if pred(i, m):
            return i
    raise AssertionError("the genuine session has no move to corrupt")


def swapped_response(s, source, played):
    """Answer another member of the same tail, keeping the rest of the log."""
    i = first(s, lambda i, m: len(played.edges[m.edge][1]) > 1 and i + 1 < len(s.transcript))
    m = s.transcript[i]
    other = next(t for t in played.edges[m.edge][1] if t != m.response)
    return with_move(s, i, response=other)


def dropped_marking(s, source, played):
    i = first(s, lambda i, m: m.newly_marked)
    return with_move(s, i, newly_marked=False)


def wrong_verdict(s, source, played):
    flip = {"unreachable": "all_marked", "all_marked": "unreachable"}
    return with_stats(s, terminated=flip[s.stats.terminated])


def premature_verdict(s, source, played):
    """Stop after the first move and claim the system can avoid all coverage,
    with figures that agree with that shortened log."""
    t = s.transcript[:1]
    marked = check_replay(played, t).marked
    known = len(played.vertices)
    if s.stats.lazy:
        known = len({played.initial}.union(*(tail for head, tail, _ in played.edges.values()
                                             if head in marked)))
    short = with_stats(s, terminated="unreachable", moves=1, states_marked=len(marked),
                       states_total=known)
    return replace(short, transcript=t)


def rank_not_lowered(s, source, played):
    i = first(s, lambda i, m: not m.newly_marked and i + 1 < len(s.transcript))
    return with_move(s, i + 1, rank_before=s.transcript[i].rank_before)


def rank_two_unmarked(s, source, played):
    i = first(s, lambda i, m: not m.newly_marked)
    return with_move(s, i, rank_before=2)


def miscounted_coverage(s, source, played):
    return with_stats(s, interior_covered=s.stats.interior_covered + 1)


def misrouted_waypoint(s, source, played):
    """Route an edge's first waypoint to the target of its second one."""
    played = copy.deepcopy(played)
    w0, w1 = played.edges[next(iter(source.edges))][1][:2]
    out0, out1 = (next(k for k, (h, _, _) in played.edges.items() if h == w)
                  for w in (w0, w1))
    played.edges[out0] = (w0, played.edges[out1][1], ())
    return replace(s, decl=as_decl(played))


def missing_waypoint(s, source, played):
    played = copy.deepcopy(played)
    eid = next(iter(source.edges))
    head, ws, interior = played.edges[eid]
    played.edges[eid] = (head, ws[1:], interior)
    return replace(s, decl=as_decl(played))


def misparsed(s, source, played):
    parsed = Model.from_decl(s.parsed)
    eid = next(iter(parsed.edges))
    head, tail, interior = parsed.edges[eid]
    parsed.edges[eid] = (head, tail[:1], interior)
    return replace(s, parsed=as_decl(parsed))


COMMON = [
    ("swapped response", swapped_response, "replay"),
    ("dropped marking", dropped_marking, "replay"),
    ("wrong verdict", wrong_verdict, "verdict"),
    ("premature verdict", premature_verdict, "verdict"),
    ("rank not lowered after a stall", rank_not_lowered, "guarantee"),
    ("rank 2 without a marking", rank_two_unmarked, "guarantee"),
    ("miscounted coverage", miscounted_coverage, "covered"),
    ("parse that lost a tail member", misparsed, "parse"),
]
TRANSFORM = [
    ("misrouted waypoint", misrouted_waypoint, "structure"),
    ("missing waypoint", missing_waypoint, "structure"),
]


def expect(label, wl, model, session, check_name) -> bool:
    try:
        check(wl, model, session)
    except CheckFailed as exc:
        ok = exc.check == check_name
        print(f"{'ok  ' if ok else 'FAIL'} {label}: rejected by {exc}")
        return ok
    print(f"FAIL {label}: not rejected (expected the {check_name} check)")
    return False


def main() -> int:
    try:
        hg = build_and_import()
    except BenchError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 1
    ok = True
    for name, wl in WORKLOADS.items():
        wl = replace(wl, states=STATES)
        text, model = make_model(STATES, random.Random(f"selftest:{name}"), "selftest")
        s = play(hg, wl, text, adv_seed=7)
        try:
            check(wl, model, s)
            print(f"ok   {name}: genuine session of {len(s.transcript)} moves passes "
                  f"({s.stats.terminated})")
        except CheckFailed as exc:
            print(f"FAIL {name}: genuine session rejected: {exc}")
            ok = False
            continue
        played = Model.from_decl(s.decl) if wl.transforms else model
        cases = COMMON + (TRANSFORM if wl.transforms else [])
        for label, corrupt, check_name in cases:
            ok &= expect(f"{name}: {label}", wl, model, corrupt(s, model, played), check_name)
        if wl.adversary == "avoider":
            # The same model played by a system that does not avoid coverage.
            fair = play(hg, replace(wl, adversary="random"), text, adv_seed=7)
            ok &= expect(f"{name}: system that marks by choice", wl, model, fair, "avoider")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
