"""Finitely supported maps from (edge, color) pairs of the grid to a ring.

Edges live on the integer lattice: a horizontal edge with base ``(x, y)``
joins ``(x, y)`` to ``(x+1, y)``, a vertical one joins ``(x, y)`` to
``(x, y+1)``.  An edge is identified by ``(x, y, "H"|"V")``.

Evaluating a tile placed at the origin gives the map with

    -1 on the south edge  (0, 0, H)   at the south color,
    +1 on the east edge   (1, 0, V)   at the east color,
    +1 on the north edge  (0, 1, H)   at the north color,
    -1 on the west edge   (0, 0, V)   at the west color,

where any side carrying the distinguished color contributes nothing.  Two
adjacent tiles agreeing on a shared edge color therefore cancel there, and a
certificate is valid exactly when its translated tile maps sum to the negation
of the starting map.

Coefficients are exact: integers, or integers mod n.

Every sparse object of the chain rests on one core, :class:`SparseVector`:
an immutable, canonical map from ``(x, y, tag)`` keys to a ring with a
hash cached on first use.  Its single arithmetic step,
``plus(other, coeff, dx, dy)``, adds a scaled translate and
re-canonicalises only the keys it touches; sum, difference, negation,
scaling and translation are calls to it.  :class:`EdgeMap` is the core
with ``(orientation, color)`` tags and ``modules.ModuleElement`` the core
with coordinate-index tags.  The wreath and free metabelian elements of
``groups`` pair a position p in Z x Z with one core vector f (lamps, or
edge flows), and their semidirect product
``(p, f)(q, g) = (p + q, f + p·g)`` is one ``plus`` call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .documents import fields
from .tiling import (C0, Color, Tile, TilingSystem, color_from_str,
                     color_to_str)


class RingMismatch(ValueError):
    """Two maps with different coefficient rings were combined."""


class UnknownTile(ValueError):
    """A placement references a tile outside the tiling system."""


@dataclass(frozen=True)
class Ring:
    """Z when ``modulus`` is None, otherwise Z mod ``modulus``."""

    modulus: Optional[int] = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    @property
    def name(self) -> str:
        return "Z" if self.modulus is None else f"Zmod:{self.modulus}"


Z = Ring(None)


def ring_from_name(name: str) -> Ring:
    if type(name) is not str:
        raise ValueError(f"a ring must be named by a string, not "
                         f"{type(name).__name__}")
    if name == "Z":
        return Z
    digits = name.removeprefix("Zmod:")
    # Only the name a ring writes: not "Zmod:03", not "Zmod: 3".
    if digits != name and digits.isascii() and digits.isdigit() \
            and Ring(int(digits)).name == name:
        return Ring(int(digits))
    raise ValueError(f"unknown ring {name!r}")


EdgeKey = tuple[int, int, str]          # (x, y, "H"|"V")
EntryKey = tuple[EdgeKey, Color]


def _canon(ring: Ring, items: Iterable[tuple[tuple, int]]) -> dict:
    """Sum equal keys, reduce into the ring and drop the zeros."""
    sums: dict = {}
    for key, value in items:
        sums[key] = sums.get(key, 0) + value
    return _reduced(ring, sums)


def _reduced(ring: Ring, sums: dict) -> dict:
    """Reduce already summed values into the ring and drop the zeros."""
    modulus = ring.modulus
    if modulus is None:
        return {key: v for key, v in sums.items() if v}
    return {key: r for key, v in sums.items() if (r := v % modulus)}


class SparseVector:
    """Immutable finitely supported map from ``(x, y, tag)`` keys to a ring.

    The entries are canonical (reduced into the ring, no zero values) and
    never change; the hash is computed on first use and then kept.
    """

    __slots__ = ("ring", "_entries", "_hash")

    def __init__(self, ring: Ring, entries: Iterable[tuple[tuple, int]] = ()):
        _set_ring(self, ring)
        _set_entries(self, _canon(ring, entries))
        _set_hash(self, None)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Copying and pickling rebuild the value through _make_vector: the
        # default slot restore would go through the raising __setattr__.
        return _make_vector, (type(self), self.ring, self._entries)

    def _derive(self, entries: dict) -> "SparseVector":
        """A value of this kind and ring; see :func:`_make_vector`."""
        return _make_vector(type(self), self.ring, entries)

    def _check(self, other: "SparseVector") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring.name} vs {other.ring.name}")

    def plus(self, other: "SparseVector", coeff: int = 1, dx: int = 0,
             dy: int = 0) -> "SparseVector":
        """``self + coeff * (other shifted by (dx, dy))``, re-canonicalising
        only the keys ``other`` touches; ``self`` when ``other`` is zero."""
        self._check(other)
        if not other._entries:
            return self
        entries = dict(self._entries)
        modulus = self.ring.modulus
        for (x, y, tag), v in other._entries.items():
            key = (x + dx, y + dy, tag)
            total = entries.get(key, 0) + coeff * v
            if modulus is not None:
                total %= modulus
            if total:
                entries[key] = total
            else:
                entries.pop(key, None)
        return self._derive(entries)

    __add__ = plus

    def __sub__(self, other):
        return self.plus(other, -1)

    def __neg__(self):
        return self._derive({}).plus(self, -1)

    def scale(self, factor: int):
        return self._derive({}).plus(self, factor)

    def translate(self, dx: int, dy: int):
        return self._derive({}).plus(self, 1, dx, dy)

    def is_zero(self) -> bool:
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (
            (self.ring is other.ring or self.ring == other.ring)
            and self._entries == other._entries)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self._entries.items()))
            _set_hash(self, h)
        return h


_new = object.__new__
_set_ring = SparseVector.ring.__set__
_set_entries = SparseVector._entries.__set__
_set_hash = SparseVector._hash.__set__


def _make_vector(cls, ring: Ring, entries: dict):
    """A ``cls`` value holding canonical ``entries``, taken over uncopied."""
    vector = _new(cls)
    _set_ring(vector, ring)
    _set_entries(vector, entries)
    _set_hash(vector, None)
    return vector


def _support_key(item):
    (x, y, (orient, color)), _ = item
    return (y, x, orient, color_to_str(color))


class EdgeMap(SparseVector):
    """Immutable finitely supported (edge, color) -> ring map.

    Public keys are ``((x, y, orient), color)``; the entries are stored
    as ``(x, y, (orient, color))``.
    """

    __slots__ = ()

    def __init__(self, ring: Ring, entries: Iterable[tuple[EntryKey, int]] = ()):
        SparseVector.__init__(self, ring, (
            ((x, y, (orient, color)), value)
            for ((x, y, orient), color), value in entries))

    def value(self, edge: EdgeKey, color: Color) -> int:
        x, y, orient = edge
        return self._entries.get((x, y, (orient, color)), 0)

    def support(self) -> tuple[tuple[EntryKey, int], ...]:
        """Entries sorted by (y, x, orientation, color)."""
        return tuple((((x, y, orient), color), v)
                     for (x, y, (orient, color)), v in
                     sorted(self._entries.items(), key=_support_key))

    def __repr__(self):
        body = ", ".join(
            f"({x},{y},{o},{color_to_str(c)})={v}"
            for ((x, y, o), c), v in self.support()
        )
        return f"EdgeMap[{self.ring.name}]({body})"


_SIDE_EDGES = (
    ("s", (0, 0, "H"), -1),
    ("e", (1, 0, "V"), +1),
    ("n", (0, 1, "H"), +1),
    ("w", (0, 0, "V"), -1),
)


def _sides(tile: Tile, distinguished: Color) -> list:
    """Keys and signs of a tile's non-distinguished sides at the origin."""
    return [((ex, ey, (orient, getattr(tile, attr))), sign)
            for attr, (ex, ey, orient), sign in _SIDE_EDGES
            if getattr(tile, attr) != distinguished]


def tile_eval(tile: Tile, ring: Ring = Z, distinguished: Color = C0) -> EdgeMap:
    """The edge map of a tile placed with its southwest corner at the origin."""
    return _make_vector(EdgeMap, ring, _canon(ring, _sides(tile, distinguished)))


def _side_lookup(ts: TilingSystem):
    """A function from a placed tile to the keys and signs of its
    non-distinguished sides at the origin.

    A placed tile is looked up by identity first, as a certificate holds
    few distinct tile objects.  A tile object seen for the first time is
    found by the tile's own hash and equality, so an equal copy of a
    system tile counts; it is then kept with its sides, which keeps its
    identity from being reused while the function lives.  A tile outside
    the system raises :class:`UnknownTile`.
    """
    sides = {tile: _sides(tile, ts.distinguished) for tile in ts.tiles}
    by_id = {id(tile): (tile, sides[tile]) for tile in ts.tiles}

    def sides_of(tile: Tile) -> list:
        known = by_id.get(id(tile))
        if known is None:
            if tile not in sides:
                raise UnknownTile(repr(tile))
            known = by_id[id(tile)] = (tile, sides[tile])
        return known[1]

    return sides_of


def evaluate_placements(ts: TilingSystem, placements, ring: Ring = Z) -> EdgeMap:
    """Sum of the translated tile maps of a placement list.

    Every placed tile must belong to the system (see :func:`_side_lookup`);
    repeats are allowed and add.
    """
    sides_of = _side_lookup(ts)
    total: dict = {}
    for placement in placements:
        tile_sides = sides_of(placement.tile)
        px, py = placement.x, placement.y
        for (ex, ey, tag), sign in tile_sides:
            key = (px + ex, py + ey, tag)
            total[key] = total.get(key, 0) + sign
    return _make_vector(EdgeMap, ring, _reduced(ring, total))


# -- JSON -------------------------------------------------------------------

def edgemap_to_dict(f: EdgeMap) -> dict:
    return {
        "ring": f.ring.name,
        "entries": [
            {"x": x, "y": y, "orient": orient, "color": color_to_str(color), "value": v}
            for ((x, y, orient), color), v in f.support()
        ],
    }


def edgemap_from_dict(data: dict) -> EdgeMap:
    ring_name, rows = fields(data, "edge map",
                             {"ring": None, "entries": list})
    ring = ring_from_name(ring_name)
    row_spec = {"x": int, "y": int, "orient": None, "color": None,
                "value": int}
    entries = []
    for row in rows:
        x, y, orient, color, value = fields(row, "edge map entry", row_spec)
        if orient not in ("H", "V"):
            raise ValueError(f"bad orientation {orient!r}")
        entries.append((((x, y, orient), color_from_str(color)), value))
    return EdgeMap(ring, entries)


def dump_edgemap(f: EdgeMap) -> str:
    return json.dumps(edgemap_to_dict(f), indent=2) + "\n"


def load_edgemap(text: str) -> EdgeMap:
    return edgemap_from_dict(json.loads(text))
