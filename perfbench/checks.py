"""Checks on a played session, computed apart from the program under test.

Everything here works on plain data: a model is a `Model` built by the
benchmark itself (or, for a transformed model, one whose structure
`check_branch_structure` has verified against the benchmark's input), and a
session is the program's move log plus its statistics. Each check raises
`CheckFailed` naming itself, so the self-test can show which check rejected a
corrupted session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_MARKED = "all_marked"
UNREACHABLE = "unreachable"


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        self.check = check
        super().__init__(f"{check}: {detail}")


@dataclass
class Model:
    """A hypergraph as the benchmark knows it: edge id -> (head, tail, interior)."""

    initial: str
    vertices: list[str]
    edges: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]]
    virtual: frozenset[str] = frozenset()

    @classmethod
    def from_decl(cls, decl) -> "Model":
        return cls(decl.initial, list(decl.vertices),
                   {e.id: (e.head, tuple(e.tail), tuple(e.interior)) for e in decl.edges},
                   frozenset(decl.virtual_vertices))


@dataclass
class Replay:
    """The position the move log leads to, as the benchmark recomputes it."""

    marked: set[str]
    interiors: set[str] = field(default_factory=set)
    current: str = ""


def check_parsed(model: Model, decl) -> None:
    """The program's parse of the model text is the model the benchmark wrote."""
    if decl.initial != model.initial:
        raise CheckFailed("parse", f"initial {decl.initial!r}, wrote {model.initial!r}")
    if sorted(decl.vertices) != sorted(model.vertices):
        raise CheckFailed("parse", "vertex set differs from the model text")
    if Model.from_decl(decl).edges != model.edges:
        raise CheckFailed("parse", "edge set differs from the model text")


def check_replay(model: Model, transcript) -> Replay:
    """(1) Each move plays an edge at its source, the response lies in that
    edge's tail, each source is the previous response, and `newly_marked`
    agrees with a marked set kept here."""
    state = Replay(marked={model.initial}, current=model.initial)
    for i, m in enumerate(transcript):
        if m.index != i + 1:
            raise CheckFailed("replay", f"move {i + 1} has index {m.index}")
        if m.source != state.current:
            raise CheckFailed("replay", f"move {m.index} starts at {m.source}, "
                                        f"position is {state.current}")
        edge = model.edges.get(m.edge)
        if edge is None:
            raise CheckFailed("replay", f"move {m.index} plays unknown edge {m.edge}")
        head, tail, interior = edge
        if head != m.source:
            raise CheckFailed("replay", f"move {m.index}: edge {m.edge} has head {head}")
        if m.response not in tail:
            raise CheckFailed("replay", f"move {m.index}: {m.response} not in tail of {m.edge}")
        newly = m.response not in state.marked
        if m.newly_marked != newly:
            raise CheckFailed("replay", f"move {m.index} reports newly_marked="
                                        f"{m.newly_marked}, replay says {newly}")
        state.marked.add(m.response)
        state.interiors.update(interior)
        state.current = m.response
    return state


def check_guarantee(transcript) -> None:
    """(2) From rank r a marking comes within r-1 moves: every source is a
    marked state (rank >= 2), a move that marks nothing is followed by a
    strictly lower rank, and a move from rank 2 always marks."""
    for i, m in enumerate(transcript):
        if m.rank_before < 2:
            raise CheckFailed("guarantee", f"move {m.index} played from rank {m.rank_before}")
        if m.rank_before == 2 and not m.newly_marked:
            raise CheckFailed("guarantee", f"move {m.index} from rank 2 marked nothing")
        if not m.newly_marked and i + 1 < len(transcript):
            nxt = transcript[i + 1]
            if nxt.rank_before >= m.rank_before:
                raise CheckFailed("guarantee", f"move {m.index} marked nothing and rank "
                                               f"went {m.rank_before} -> {nxt.rank_before}")


def forceable(universe, marked, live_edges) -> set[str]:
    """States from which the tester can force a new marking: the least set
    holding every unmarked state and every marked state with a live edge whose
    whole tail is in the set. One counter pass (Dowling & Gallier, 1984)."""
    good = {v for v in universe if v not in marked}
    missing = []
    watchers: dict[str, list[int]] = {}
    for i, (_, tail) in enumerate(live_edges):
        missing.append(len(tail))
        for t in tail:
            watchers.setdefault(t, []).append(i)
    stack = list(good)
    while stack:
        v = stack.pop()
        for i in watchers.get(v, ()):
            missing[i] -= 1
            if missing[i] == 0:
                h = live_edges[i][0]
                if h not in good:
                    good.add(h)
                    stack.append(h)
    return good


def check_verdict(model: Model, replay: Replay, stats, lazy: bool) -> None:
    """(3) Recompute the verdict from the final position. A lazy session knows
    only the initial state and the tails of the edges it has expanded."""
    live = [(h, t) for h, t, _ in model.edges.values() if h in replay.marked]
    if lazy:
        universe = {model.initial}
        for _, tail in live:
            universe.update(tail)
    else:
        universe = set(model.vertices)
    if stats.states_total != len(universe):
        raise CheckFailed("verdict", f"{stats.states_total} states known, expected {len(universe)}")
    if stats.states_marked != len(replay.marked):
        raise CheckFailed("verdict", f"{stats.states_marked} marked, replay has {len(replay.marked)}")
    all_marked = universe <= replay.marked
    if stats.terminated == ALL_MARKED:
        if not all_marked:
            raise CheckFailed("verdict", "all_marked with unmarked states left")
    elif stats.terminated == UNREACHABLE:
        if all_marked:
            raise CheckFailed("verdict", "unreachable although every state is marked")
        if replay.current in forceable(universe, replay.marked, live):
            raise CheckFailed("verdict", f"unreachable, but a marking is forceable "
                                         f"from {replay.current}")
    else:
        raise CheckFailed("verdict", f"session stopped with {stats.terminated!r}")


def check_covered(replay: Replay, stats) -> int:
    """(4) Covered states plus interiors, recounted from the move log."""
    covered = len(replay.marked) + len(replay.interiors)
    if stats.coverage != covered:
        raise CheckFailed("covered", f"session reports {stats.coverage}, move log gives {covered}")
    return covered


def check_branch_structure(source: Model, out: Model) -> None:
    """(5) branch-coverage: each edge e: h -> T keeps its id and head and now
    leads to one virtual waypoint per member t of T; each waypoint is a new
    virtual state with a single out-edge, into t. Nothing else is added."""
    waypoints = set(out.vertices) - set(source.vertices)
    if set(source.vertices) - set(out.vertices) or out.initial != source.initial:
        raise CheckFailed("structure", "original states or initial state changed")
    if not waypoints <= out.virtual:
        raise CheckFailed("structure", "a waypoint is not virtual")
    out_edges: dict[str, list[tuple[str, ...]]] = {}
    for eid, (head, tail, _) in out.edges.items():
        if eid not in source.edges:
            out_edges.setdefault(head, []).append(tail)
    seen = set()
    for eid, (head, tail, interior) in source.edges.items():
        if eid not in out.edges:
            raise CheckFailed("structure", f"edge {eid} disappeared")
        new_head, ws, new_interior = out.edges[eid]
        if new_head != head or new_interior != interior:
            raise CheckFailed("structure", f"edge {eid} changed head or interior")
        if len(ws) != len(tail):
            raise CheckFailed("structure", f"edge {eid} has {len(ws)} waypoints for "
                                           f"{len(tail)} tail members")
        targets = []
        for w in ws:
            if w not in waypoints or w in seen:
                raise CheckFailed("structure", f"edge {eid}: {w} is not a fresh waypoint")
            seen.add(w)
            outs = out_edges.get(w, [])
            if len(outs) != 1 or len(outs[0]) != 1:
                raise CheckFailed("structure", f"waypoint {w} has out-edges {outs}")
            targets.append(outs[0][0])
        if sorted(targets) != sorted(tail):
            raise CheckFailed("structure", f"edge {eid}: waypoints lead to {sorted(targets)}, "
                                           f"tail is {sorted(tail)}")
    if seen != waypoints:
        raise CheckFailed("structure", f"{len(waypoints - seen)} waypoints belong to no edge")
    if len(out.edges) != len(source.edges) + len(waypoints):
        raise CheckFailed("structure", "edges were added beyond one per waypoint")


def check_avoider(model: Model, transcript) -> None:
    """(6) The avoiding system marks a state only when it cannot help it:
    every member of the played edge's tail was unmarked."""
    marked = {model.initial}
    for m in transcript:
        if m.newly_marked:
            tail = model.edges[m.edge][1]
            hit = [t for t in tail if t in marked]
            if hit:
                raise CheckFailed("avoider", f"move {m.index} marked {m.response} "
                                             f"although {hit[0]} was marked")
        marked.add(m.response)


def check_session(model: Model, transcript, stats, lazy: bool, avoider: bool) -> int:
    """Run every per-session check; returns the recounted coverage."""
    replay = check_replay(model, transcript)
    check_guarantee(transcript)
    check_verdict(model, replay, stats, lazy)
    if stats.moves != len(transcript):
        raise CheckFailed("replay", f"{stats.moves} moves counted, {len(transcript)} logged")
    if avoider:
        check_avoider(model, transcript)
    return check_covered(replay, stats)
