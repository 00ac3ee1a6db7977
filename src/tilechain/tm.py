"""Deterministic single-tape Turing machines with a left-bounded tape.

A machine is a finite table ``(state, symbol) -> (state, symbol, L|R)``
together with a distinguished blank, an initial state and a single accepting
state.  The tape is infinite to the right only; moving left at cell 0 is an
error, not a silent no-op.

Machines fed to the tiling builder are expected to be *normalized*:

  (i)   the head never moves left of cell 0,
  (ii)  the machine halts exactly when it reaches the accepting state
        (equivalently: the table is total on non-accepting states),
  (iii) on acceptance the tape is all blank and the head is at cell 0.

``normalize`` rewrites any machine with a partial table into an equivalent
one satisfying (ii) and (iii) by construction; (i) remains a runtime check
(``LeftEdgeViolation``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional


class LeftEdgeViolation(ValueError):
    """The head tried to move left from cell 0."""


class MissingTransition(ValueError):
    """No table entry for the current (state, symbol); the machine is not
    normalized and has halted in a non-accepting state."""


MOVES = ("L", "R")


class Configuration(NamedTuple):
    state: str
    tape: tuple[str, ...]
    head: int


@dataclass(frozen=True)
class RunTrace:
    """An accepting run: every configuration from initial to accepting."""

    configs: tuple[Configuration, ...]
    steps: int
    space: int


@dataclass(frozen=True)
class TuringMachine:
    states: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    blank: str
    initial: str
    accepting: str
    transitions: dict[tuple[str, str], tuple[str, str, str]]

    def defined(self, state: str, symbol: str) -> bool:
        return (state, symbol) in self.transitions


def validate(tm: TuringMachine) -> list[str]:
    """Return every structural violation as a human-readable string.

    An empty list means the machine is well-formed: alphabets and
    distinguished states are consistent, the table is total on non-accepting
    states and empty on the accepting one.
    """
    out = []
    states = set(tm.states)
    tape = set(tm.tape_alphabet)
    for name in tm.states:
        if not name or "," in name:
            out.append(f"bad state name {name!r}")
    for sym in tm.tape_alphabet:
        if not sym:
            out.append("empty tape symbol")
    if len(states) != len(tm.states):
        out.append("duplicate state names")
    if len(tape) != len(tm.tape_alphabet):
        out.append("duplicate tape symbols")
    if tm.blank not in tape:
        out.append(f"blank {tm.blank!r} not in tape alphabet")
    if tm.blank in tm.input_alphabet:
        out.append(f"blank {tm.blank!r} must not be an input symbol")
    for sym in tm.input_alphabet:
        if sym not in tape:
            out.append(f"input symbol {sym!r} not in tape alphabet")
    if tm.initial not in states:
        out.append(f"initial state {tm.initial!r} not in states")
    if tm.accepting not in states:
        out.append(f"accepting state {tm.accepting!r} not in states")
    for (q, a), (p, b, move) in sorted(tm.transitions.items()):
        if q not in states:
            out.append(f"transition from unknown state {q!r}")
        if a not in tape:
            out.append(f"transition reads unknown symbol {a!r}")
        if p not in states:
            out.append(f"transition to unknown state {p!r}")
        if b not in tape:
            out.append(f"transition writes unknown symbol {b!r}")
        if move not in MOVES:
            out.append(f"transition move {move!r} is not L or R")
        if q == tm.accepting:
            out.append(f"accepting state has outgoing transition on ({q!r}, {a!r})")
    for q in tm.states:
        if q == tm.accepting:
            continue
        for a in tm.tape_alphabet:
            if (q, a) not in tm.transitions:
                out.append(f"missing transition for ({q!r}, {a!r})")
    return out


def make_config(state: str, tape, head: int, blank: str) -> Configuration:
    """Build a configuration, padding the tape so the head is on it."""
    cells = list(tape) if tape else [blank]
    while head >= len(cells):
        cells.append(blank)
    if head < 0:
        raise LeftEdgeViolation(f"head position {head}")
    return Configuration(state, tuple(cells), head)


def step(tm: TuringMachine, config: Configuration) -> Optional[Configuration]:
    """Apply one table entry.  Returns None when already accepting."""
    if config.state == tm.accepting:
        return None
    symbol = config.tape[config.head]
    try:
        state, write, move = tm.transitions[(config.state, symbol)]
    except KeyError:
        raise MissingTransition(f"({config.state!r}, {symbol!r})") from None
    cells = list(config.tape)
    cells[config.head] = write
    head = config.head + (1 if move == "R" else -1)
    if head < 0:
        raise LeftEdgeViolation(f"move left from cell 0 in state {config.state!r}")
    return make_config(state, cells, head, tm.blank)


def initial_config(tm: TuringMachine, word: str | list[str]) -> Configuration:
    symbols = list(word)
    for sym in symbols:
        if sym not in tm.input_alphabet:
            raise ValueError(f"symbol {sym!r} not in input alphabet")
    return make_config(tm.initial, symbols, 0, tm.blank)


def run(tm: TuringMachine, word: str | list[str], fuel: int) -> Optional[RunTrace]:
    """Run for at most ``fuel`` steps.

    Returns the full accepting trace, or None when fuel ran out first.
    Running out of fuel is not a rejection verdict.
    """
    config = initial_config(tm, word)
    configs = [config]
    for _ in range(fuel):
        if config.state == tm.accepting:
            break
        config = step(tm, config)
        configs.append(config)
    if config.state != tm.accepting:
        return None
    space = max(c.head for c in configs) + 1
    return RunTrace(tuple(configs), len(configs) - 1, space)


def tape_extent(config: Configuration, blank: str) -> int:
    """Number of cells needed to hold the head and every non-blank cell."""
    last = -1
    for i, sym in enumerate(config.tape):
        if sym != blank:
            last = i
    return max(config.head + 1, last + 1)


# -- normalization ----------------------------------------------------------

_WRAP_STATES = ("start", "bounce", "sweep-right", "sweep-left", "retreat",
                "walk0", "walk1", "accept")


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = name + "'"
    taken.add(name)
    return name


def normalize(tm: TuringMachine) -> TuringMachine:
    """Return an equivalent machine whose table is total off the accepting
    state and which accepts only with an all-blank tape and the head at cell 0.

    A machine whose table is already total is returned unchanged; such a
    machine is taken at its word for the tape and head conditions, which stay
    runtime-checked.  Otherwise the machine is wrapped: cell 0 is tagged with
    an origin mark on the first step, visited cells are tracked through marked
    symbol variants, undefined table entries divert into a two-state
    right-walking loop, and acceptance first runs a sweep that walks right to
    the frontier of visited cells, erases everything on the way back, and
    parks the head on cell 0.
    """
    partial = any(
        (q, a) not in tm.transitions
        for q in tm.states if q != tm.accepting
        for a in tm.tape_alphabet
    )
    if not partial:
        return tm

    taken = set(tm.tape_alphabet)
    visited = {a: _fresh(a + "+v", taken) for a in tm.tape_alphabet}
    origin = {a: _fresh(a + "+o", taken) for a in tm.tape_alphabet}
    raw_of = {v: a for a, v in visited.items()}
    raw_of.update({o: a for a, o in origin.items()})
    raw_of.update({a: a for a in tm.tape_alphabet})

    state_names = set(tm.states)
    wrap = {base: _fresh(base, state_names) for base in _WRAP_STATES}
    start, bounce = wrap["start"], wrap["bounce"]
    sweep_r, sweep_l, retreat = wrap["sweep-right"], wrap["sweep-left"], wrap["retreat"]
    walk0, walk1, accept = wrap["walk0"], wrap["walk1"], wrap["accept"]

    alphabet = tuple(tm.tape_alphabet) + tuple(visited[a] for a in tm.tape_alphabet) \
        + tuple(origin[a] for a in tm.tape_alphabet)
    keep = tuple(q for q in tm.states if q != tm.accepting)
    states = keep + tuple(wrap[b] for b in _WRAP_STATES)
    blank = tm.blank

    delta: dict[tuple[str, str], tuple[str, str, str]] = {}

    def fill(q: str, s: str, entry) -> None:
        delta.setdefault((q, s), entry)

    init_target = sweep_r if tm.initial == tm.accepting else tm.initial
    for a in tm.input_alphabet:
        fill(start, a, (bounce, origin[a], "R"))
    fill(start, blank, (bounce, origin[blank], "R"))
    for s in alphabet:
        fill(start, s, (walk0, s, "R"))
        fill(bounce, s, (init_target, s, "L"))
        fill(walk0, s, (walk1, s, "R"))
        fill(walk1, s, (walk0, s, "R"))

    for q in keep:
        for a in tm.tape_alphabet:
            entry = tm.transitions.get((q, a))
            if entry is None:
                for s in (a, visited[a], origin[a]):
                    fill(q, s, (walk0, s, "R"))
                continue
            p, b, move = entry
            target = sweep_r if p == tm.accepting else p
            fill(q, a, (target, visited[b], move))
            fill(q, visited[a], (target, visited[b], move))
            fill(q, origin[a], (target, origin[b], move))

    for s in alphabet:
        if s == blank:
            fill(sweep_r, s, (sweep_l, blank, "L"))
        else:
            fill(sweep_r, s, (sweep_r, s, "R"))
    for a in tm.tape_alphabet:
        fill(sweep_l, origin[a], (retreat, blank, "R"))
    for s in alphabet:
        fill(sweep_l, s, (sweep_l, blank, "L") if s != blank else (walk0, s, "R"))
        fill(retreat, s, (accept, blank, "L") if s == blank else (walk0, s, "R"))

    return TuringMachine(
        states=states,
        tape_alphabet=alphabet,
        input_alphabet=tuple(tm.input_alphabet),
        blank=blank,
        initial=start,
        accepting=accept,
        transitions=delta,
    )


# -- JSON -------------------------------------------------------------------

_TM_FIELDS = {"states", "tape_alphabet", "input_alphabet", "blank",
              "initial", "accepting", "transitions"}
_TRANSITION_FIELDS = {"from", "read", "to", "write", "move"}


def tm_to_dict(tm: TuringMachine) -> dict:
    return {
        "states": list(tm.states),
        "tape_alphabet": list(tm.tape_alphabet),
        "input_alphabet": list(tm.input_alphabet),
        "blank": tm.blank,
        "initial": tm.initial,
        "accepting": tm.accepting,
        "transitions": [
            {"from": q, "read": a, "to": p, "write": b, "move": m}
            for (q, a), (p, b, m) in sorted(tm.transitions.items())
        ],
    }


def tm_from_dict(data: dict) -> TuringMachine:
    if not isinstance(data, dict):
        raise ValueError("machine document must be a JSON object")
    unknown = set(data) - _TM_FIELDS
    if unknown:
        raise ValueError(f"unknown machine fields: {sorted(unknown)}")
    missing = _TM_FIELDS - set(data)
    if missing:
        raise ValueError(f"missing machine fields: {sorted(missing)}")
    transitions = {}
    for row in data["transitions"]:
        unknown = set(row) - _TRANSITION_FIELDS
        if unknown:
            raise ValueError(f"unknown transition fields: {sorted(unknown)}")
        missing = _TRANSITION_FIELDS - set(row)
        if missing:
            raise ValueError(f"missing transition fields: {sorted(missing)}")
        key = (row["from"], row["read"])
        if key in transitions:
            raise ValueError(f"duplicate transition for {key}")
        transitions[key] = (row["to"], row["write"], row["move"])
    return TuringMachine(
        states=tuple(data["states"]),
        tape_alphabet=tuple(data["tape_alphabet"]),
        input_alphabet=tuple(data["input_alphabet"]),
        blank=data["blank"],
        initial=data["initial"],
        accepting=data["accepting"],
        transitions=transitions,
    )


def dump_tm(tm: TuringMachine) -> str:
    return json.dumps(tm_to_dict(tm), indent=2) + "\n"


def load_tm(text: str) -> TuringMachine:
    return tm_from_dict(json.loads(text))
