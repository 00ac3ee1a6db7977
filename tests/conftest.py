"""Shared fixtures: the machine corpus and memoized pipeline artifacts.

Building certificates and running the color-only search are the expensive
parts of the suite, and several test modules need the same artifacts, so
everything derived from a (machine, word) pair is computed once per
session and reused.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

import pytest

from tilechain import (Certificate, EdgeMap, TilingSystem, TuringMachine, Z,
                       build_accepting_tiling, compile_tiles, corpus,
                       forced_search, initial_map, mini_eraser, normalize,
                       unary_eraser)

# Far beyond any accepting trace of the corpus machines (all accept within
# ~15 steps on inputs of length <= 5), yet cheap enough that the looping
# machines can burn it all without slowing the suite down.
RUN_FUEL = 500


def machine_table() -> dict[str, TuringMachine]:
    """The three total machines, the normalized mini eraser, and the raw
    (deliberately partial) mini eraser, which still happens to accept "a"
    in the blank-at-zero shape the builder needs."""
    table = corpus()
    table["mini-eraser"] = normalize(mini_eraser())
    table["mini-raw"] = mini_eraser()
    return table


AWKWARD_LETTER = "<a%s&}"


def awkward_eraser() -> TuringMachine:
    """The unary eraser with state and letter names that are markup or
    format syntax elsewhere: ``%``, ``{``, ``}``, ``<`` and ``&``.  Its
    input letter is ``AWKWARD_LETTER``."""
    tm = unary_eraser()
    states = {q: f"{q}%{{s}}<&" for q in tm.states}
    letters = {"a": AWKWARD_LETTER, tm.blank: "&{0}%%"}
    return TuringMachine(
        states=tuple(states[q] for q in tm.states),
        tape_alphabet=tuple(letters[a] for a in tm.tape_alphabet),
        input_alphabet=tuple(letters[a] for a in tm.input_alphabet),
        blank=letters[tm.blank],
        initial=states[tm.initial],
        accepting=states[tm.accepting],
        transitions={(states[q], letters[a]): (states[p], letters[b], move)
                     for (q, a), (p, b, move) in tm.transitions.items()})


def all_words(tm: TuringMachine, max_len: int = 4) -> list[str]:
    """Every input of length 1..max_len over the machine's input alphabet."""
    return ["".join(tup)
            for n in range(1, max_len + 1)
            for tup in itertools.product(tm.input_alphabet, repeat=n)]


def accepted_words(name: str) -> list[str]:
    """Inputs of length 1..4 the named machine accepts."""
    if name == "unary-eraser":
        return ["a" * n for n in range(1, 5)]
    if name == "two-symbol-eraser":
        return ["a" + "".join(rest)
                for n in range(4)
                for rest in itertools.product("ab", repeat=n)]
    if name == "right-walker":
        return []
    if name in ("mini-eraser", "mini-raw"):
        return ["a"]
    raise KeyError(name)


# Values of each JSON type, for replacing a value with one of another type.
JSON_VALUES = {"number": (0, -3, 2.5), "bool": (True, False),
               "null": (None,), "string": ("", "c0", "Zmod:x"),
               "array": ([], [1, "a"]), "object": ({}, {"x": 0})}
JSON_TYPE = {bool: "bool", int: "number", float: "number", str: "string",
             type(None): "null", list: "array", dict: "object"}


class Pipeline(NamedTuple):
    tm: TuringMachine
    ts: TilingSystem
    f0: EdgeMap
    cert: Certificate


class Artifacts:
    """Session-wide cache of per-machine and per-(machine, word) products."""

    def __init__(self):
        self.machines = machine_table()
        self._systems: dict[str, TilingSystem] = {}
        self._pipelines: dict[tuple[str, str], Pipeline] = {}
        self._forced: dict[tuple[str, str, int, int], Optional[Certificate]] = {}

    def tiling(self, name: str) -> TilingSystem:
        if name not in self._systems:
            self._systems[name] = compile_tiles(self.machines[name])
        return self._systems[name]

    def pipeline(self, name: str, word: str) -> Pipeline:
        key = (name, word)
        if key not in self._pipelines:
            tm = self.machines[name]
            ts = self.tiling(name)
            f0 = initial_map(tm, word, Z)
            cert = build_accepting_tiling(tm, word, RUN_FUEL)
            assert cert is not None, f"{name} does not accept {word!r}"
            self._pipelines[key] = Pipeline(tm, ts, f0, cert)
        return self._pipelines[key]

    def forced(self, name: str, word: str, max_m: int,
               max_rows: int) -> Optional[Certificate]:
        key = (name, word, max_m, max_rows)
        if key not in self._forced:
            ts = self.tiling(name)
            f0 = initial_map(self.machines[name], word, Z)
            self._forced[key] = forced_search(ts, f0, max_m, max_rows)
        return self._forced[key]

    def accepted_pairs(self) -> list[tuple[str, str]]:
        return [(name, word) for name in self.machines
                for word in accepted_words(name)]


@pytest.fixture(scope="session")
def artifacts() -> Artifacts:
    return Artifacts()
