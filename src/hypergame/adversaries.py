"""Simulated systems under test.

Each adversary implements respond(session, edge_id) -> vertex, picking the
system's next state from the chosen edge's tail. They range from fair
(uniform over the tail) to maximally coverage-avoiding (steering into
unreachable states whenever one exists).
"""

from __future__ import annotations

import random


class AdversaryConfigError(Exception):
    pass


class ScriptError(Exception):
    pass


class RandomFair:
    """Uniform seeded choice over the tail: given enough opportunities the
    system exhibits every allowed transition."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def respond(self, gs, eid: str) -> str:
        tail = sorted(gs.edge(eid).tail)
        if len(tail) == 1:
            return tail[0]
        return self.rng.choice(tail)


class Avoider:
    """The strongest legal opponent: answers with an unreachable tail vertex
    when one exists, and otherwise stalls with a marked tail vertex of
    maximal rank (smallest id on ties). When every tail vertex is unmarked,
    marking is unavoidable and it yields the smallest id.

    Ranks are the session's own exact table ranks, looked up only for marked
    tail vertices (an unmarked vertex always has rank 1). Inside a session
    the lookups do no engine work: the tester's edge has rank r - 1, below
    the drain frontier, so every tail vertex is already settled.
    """

    def respond(self, gs, eid: str) -> str:
        tail = sorted(gs.edge(eid).tail)
        marked = [t for t in tail if t in gs.marked]
        if not marked:
            return tail[0]
        # UNREACHABLE ranks above every finite rank, and max keeps the first
        # of equal keys: the first unreachable vertex, else the smallest id
        # of highest rank. The key is the rank alone, so that a tie never
        # compares the edges.
        ensure = gs.table.ensure_settled
        return max(marked, key=lambda t: ensure(t)[0])


class SubsetSystem:
    """An implementation for which some specified transitions never happen:
    responds uniformly over a fixed nonempty subset of each tail."""

    def __init__(self, allowed: dict[str, list[str]], seed: int = 0):
        self.allowed = {e: sorted(set(vs)) for e, vs in allowed.items()}
        for e, vs in self.allowed.items():
            if not vs:
                raise AdversaryConfigError(f"allowed[{e}] is empty")
        self.rng = random.Random(seed)

    def respond(self, gs, eid: str) -> str:
        allowed = self.allowed.get(eid)
        if allowed is None:
            raise AdversaryConfigError(f"no allowed set configured for edge {eid}")
        tail = gs.edge(eid).tail
        bad = [v for v in allowed if v not in tail]
        if bad:
            raise AdversaryConfigError(f"allowed[{eid}] contains non-tail vertices {bad}")
        if len(allowed) == 1:
            return allowed[0]
        return self.rng.choice(allowed)


class Scripted:
    """Deterministic replay: answers from a fixed list of vertices."""

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def respond(self, gs, eid: str) -> str:
        if self.pos >= len(self.script):
            raise ScriptError(f"script exhausted at move {self.pos + 1}")
        v = self.script[self.pos]
        self.pos += 1
        if v not in gs.edge(eid).tail:
            raise ScriptError(f"scripted response {v!r} not in tail of {eid}")
        return v


def parse_allowed_file(text: str) -> dict[str, list[str]]:
    """Lines of `edge <id>: <v1> <v2> ...`, one per edge; `#` comments
    allowed."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        words = head.split()
        if not line.startswith("edge ") or ":" not in line or len(words) != 2:
            raise AdversaryConfigError(f"line {lineno}: expected `edge <id>: <v...>`")
        eid = words[1]
        if eid in out:
            raise AdversaryConfigError(f"line {lineno}: second allowed set for edge {eid}")
        vs = rest.split()
        if not vs:
            raise AdversaryConfigError(f"line {lineno}: empty allowed set")
        out[eid] = vs
    return out


def make_adversary(kind: str, seed: int = 0, allowed=None, script=None):
    if kind == "random":
        return RandomFair(seed)
    if kind == "avoider":
        return Avoider()
    if kind == "subset":
        if allowed is None:
            raise AdversaryConfigError("subset adversary needs an allowed map")
        return SubsetSystem(allowed, seed)
    if kind == "script":
        if script is None:
            raise AdversaryConfigError("script adversary needs a script")
        return Scripted(script)
    raise AdversaryConfigError(f"unknown adversary kind {kind!r}")
