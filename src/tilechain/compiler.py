"""Compile a normalized Turing machine into a tiling system.

The color set is the disjoint union of the machine's states, tape letters,
state-letter head pairs, seven marker colors and the distinguished color.
The tile set has four families:

  alphabet tiles   carry a letter top and bottom with matching side triangles,
                   one right-facing and one left-facing version per letter;
  merging tiles    absorb an incoming state from one side and fuse it with the
                   letter below into a head pair on top;
  action tiles     one per table entry: the head pair below, the written
                   letter on top, and the successor state emitted on the west
                   (left move) or east (right move) side;
  boundary tiles   b0..b7, which grow the bottom row, close off the left and
                   right columns, and cap an accepting row.

``initial_map`` renders an input word as the edge map a valid certificate
must cancel: the word's colors along the row at height 1, flanked by a down
arrow and a right arrow.
"""

from __future__ import annotations

from functools import lru_cache

from .edges import EdgeMap, Ring, Z
from .tiling import (ARROW_D, ARROW_L, ARROW_R, ARROW_U, C0, DIAG, TRI_L,
                     TRI_R, Color, Tile, TilingSystem, color_sort_key, head,
                     letter, state)
from .tm import TuringMachine


class EmptyInput(ValueError):
    """The tiling construction needs a nonempty input word."""


def machine_colors(tm: TuringMachine) -> tuple[Color, ...]:
    """The full color set of the compiled system, canonically ordered."""
    colors = [letter(a) for a in tm.tape_alphabet]
    colors += [state(q) for q in tm.states]
    colors += [head(q, a) for q in tm.states for a in tm.tape_alphabet]
    colors += [ARROW_R, ARROW_U, ARROW_L, ARROW_D, DIAG, TRI_L, TRI_R, C0]
    return tuple(sorted(colors, key=color_sort_key))


def boundary_tiles(tm: TuringMachine) -> tuple[Tile, ...]:
    blank = letter(tm.blank)
    final = head(tm.accepting, tm.blank)
    return (
        Tile(n=blank, e=ARROW_R, s=C0, w=ARROW_R, name="b0"),
        Tile(n=ARROW_U, e=C0, s=C0, w=ARROW_R, name="b1"),
        Tile(n=ARROW_U, e=C0, s=ARROW_U, w=TRI_R, name="b2"),
        Tile(n=C0, e=C0, s=ARROW_U, w=ARROW_L, name="b3"),
        Tile(n=C0, e=ARROW_L, s=blank, w=ARROW_L, name="b4"),
        Tile(n=C0, e=ARROW_L, s=final, w=DIAG, name="b5"),
        Tile(n=C0, e=DIAG, s=ARROW_D, w=C0, name="b6"),
        Tile(n=ARROW_D, e=TRI_L, s=ARROW_D, w=C0, name="b7"),
    )


def compile_tiles(tm: TuringMachine) -> TilingSystem:
    """Build the tiling system whose valid certificates are exactly the
    accepting computations of ``tm``.

    Tile count: 2 per letter, 2 per (state, letter) pair, 1 per table entry,
    plus the 8 boundary tiles.

    Equal machines share one system: the result is memoised on the
    machine's content, read afresh on every call, so a table changed in
    place is compiled again.  The key keeps the order of the states, the
    alphabets and the table: tile order, and so every generator index,
    follows the states and the alphabet.
    """
    return _compiled_system(
        tuple(tm.states), tuple(tm.tape_alphabet), tuple(tm.input_alphabet),
        tm.blank, tm.initial, tm.accepting, tuple(tm.transitions.items()))


@lru_cache(maxsize=32)
def _compiled_system(states, tape_alphabet, input_alphabet, blank, initial,
                     accepting, table) -> TilingSystem:
    """The system of the machine with these fields; see compile_tiles."""
    return _build_system(TuringMachine(states, tape_alphabet, input_alphabet,
                                       blank, initial, accepting, dict(table)))


def _build_system(tm: TuringMachine) -> TilingSystem:
    tiles: list[Tile] = []
    for a in tm.tape_alphabet:
        la = letter(a)
        tiles.append(Tile(n=la, e=TRI_R, s=la, w=TRI_R, name=f"ar[{a}]"))
        tiles.append(Tile(n=la, e=TRI_L, s=la, w=TRI_L, name=f"al[{a}]"))
    for p in tm.states:
        for a in tm.tape_alphabet:
            pa = head(p, a)
            tiles.append(Tile(n=pa, e=TRI_R, s=letter(a), w=state(p),
                              name=f"mw[{p},{a}]"))
            tiles.append(Tile(n=pa, e=state(p), s=letter(a), w=TRI_L,
                              name=f"me[{p},{a}]"))
    for (q, a), (p, b, move) in sorted(tm.transitions.items()):
        if move == "L":
            tile = Tile(n=letter(b), e=TRI_R, s=head(q, a), w=state(p),
                        name=f"act[{q},{a}]")
        else:
            tile = Tile(n=letter(b), e=state(p), s=head(q, a), w=TRI_L,
                        name=f"act[{q},{a}]")
        tiles.append(tile)
    tiles.extend(boundary_tiles(tm))
    return TilingSystem(colors=machine_colors(tm), tiles=tuple(tiles))


def initial_map(tm: TuringMachine, word: str | list[str], ring: Ring = Z) -> EdgeMap:
    """The edge map of input ``word``: +1 entries along the row at height 1.

    Position 0 carries the down arrow, position 1 the head pair of the
    initial state over the first input letter, positions 2..n the remaining
    letters, and a right arrow sits on the vertical edge just past the word,
    one level down.
    """
    symbols = list(word)
    if not symbols:
        raise EmptyInput("input word must be nonempty")
    for sym in symbols:
        if sym not in tm.input_alphabet:
            raise ValueError(f"symbol {sym!r} not in input alphabet")
    n = len(symbols)
    entries = [(((0, 1, "H"), ARROW_D), 1),
               (((1, 1, "H"), head(tm.initial, symbols[0])), 1)]
    for i in range(2, n + 1):
        entries.append((((i, 1, "H"), letter(symbols[i - 1])), 1))
    entries.append((((n + 1, 0, "V"), ARROW_R), 1))
    return EdgeMap(ring, entries)
