"""Edge colors, square tiles and tiling certificates.

A tile is a unit square whose four sides carry colors.  Placing a tile at
``(x, y)`` puts its corners on the integer lattice points ``(x, y)`` through
``(x+1, y+1)``.  Colors form a tagged union: machine states, tape letters,
state-letter pairs for the cell under the head, seven special marker colors,
and the distinguished color ``c0`` whose sides contribute nothing when a tile
is evaluated as an edge map.

A certificate is a finite multiset of tile placements together with the
width and height of the region it is supposed to fill.  Nothing here knows
about Turing machines; certificates are checked purely through colors.

A certificate stores its placements in one form, :class:`Placements`:
the runs of one tile at consecutive x in one row.  A built row is one
machine configuration, and a step changes the tape only next to the head,
so a row is a few long runs.  The builder, the forced search and the JSON
loader hand over runs, checked once per run; verification, the audit, the
witness reader, both drawings and the JSON writer work run by run, and
so does the loader on text in the writer's layout; equality and hashing
compare runs.  Coordinates are ints by type.  A
``(tile, x, y)`` per cell is made only when the placements are iterated
or indexed, and is not kept.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple, Optional

from .documents import fields, wrong_type


class Color(NamedTuple):
    kind: str
    a: str = ""
    b: str = ""


C0 = Color("c0")
ARROW_R = Color("arrow", "R")
ARROW_U = Color("arrow", "U")
ARROW_L = Color("arrow", "L")
ARROW_D = Color("arrow", "D")
DIAG = Color("diag")
TRI_L = Color("tri", "l")
TRI_R = Color("tri", "r")


def state(name: str) -> Color:
    return Color("state", name)


def letter(symbol: str) -> Color:
    return Color("letter", symbol)


def head(state_name: str, symbol: str) -> Color:
    return Color("head", state_name, symbol)


_KIND_RANK = {"letter": 0, "state": 1, "head": 2, "arrow": 3, "diag": 4,
              "tri": 5, "c0": 6}
_ARROW_RANK = {"R": 0, "U": 1, "L": 2, "D": 3}


def color_sort_key(color: Color):
    if color.kind == "arrow":
        return (_KIND_RANK["arrow"], _ARROW_RANK[color.a], "")
    return (_KIND_RANK[color.kind], color.a, color.b)


_ARROW_STR = {"R": "R-arrow", "U": "U-arrow", "L": "L-arrow", "D": "D-arrow"}
_STR_ARROW = {v: k for k, v in _ARROW_STR.items()}


def color_to_str(color: Color) -> str:
    kind = color.kind
    if kind == "c0":
        return "c0"
    if kind == "arrow":
        return _ARROW_STR[color.a]
    if kind == "diag":
        return "diag"
    if kind == "tri":
        return "tri-" + color.a
    if kind == "state":
        return "q:" + color.a
    if kind == "letter":
        return "a:" + color.a
    if kind == "head":
        return f"qa:{color.a},{color.b}"
    raise ValueError(f"unknown color kind {kind!r}")


def color_from_str(text: str) -> Color:
    if type(text) is not str:
        raise ValueError(f"a color must be a string, not "
                         f"{type(text).__name__}")
    if text == "c0":
        return C0
    if text == "diag":
        return DIAG
    if text in _STR_ARROW:
        return Color("arrow", _STR_ARROW[text])
    if text in ("tri-l", "tri-r"):
        return Color("tri", text[-1])
    if text.startswith("q:"):
        return state(text[2:])
    if text.startswith("a:"):
        return letter(text[2:])
    if text.startswith("qa:"):
        payload = text[3:]
        state_name, _, symbol = payload.partition(",")
        if not _:
            raise ValueError(f"malformed head color {text!r}")
        return head(state_name, symbol)
    raise ValueError(f"unknown color string {text!r}")


_GLYPH = {"c0": ".", "diag": "%"}


def color_glyph(color: Color) -> str:
    """Short printable form used by the text renderer."""
    if color.kind == "arrow":
        return {"R": ">", "U": "^", "L": "<", "D": "v"}[color.a]
    if color.kind == "tri":
        return "|>" if color.a == "r" else "<|"
    if color.kind == "state":
        return color.a
    if color.kind == "letter":
        return color.a
    if color.kind == "head":
        return color.a + "." + color.b
    return _GLYPH[color.kind]


@dataclass(frozen=True)
class Tile:
    """Side colors in (north, east, south, west) order plus an optional label.

    Equality and hashing ignore the label: a tile is its colors.
    """

    n: Color
    e: Color
    s: Color
    w: Color
    name: str = field(default="", compare=False)

    def sides(self) -> tuple[Color, Color, Color, Color]:
        return (self.n, self.e, self.s, self.w)


class Placement(NamedTuple):
    tile: Tile
    x: int
    y: int


@dataclass(frozen=True)
class TilingSystem:
    """A finite color set with its distinguished color and a finite tile set.

    Tiles are kept in a fixed order; several operations treat the position of
    a tile in this tuple as its generator index.
    """

    colors: tuple[Color, ...]
    tiles: tuple[Tile, ...]
    distinguished: Color = C0

    def __post_init__(self):
        colorset = set(self.colors)
        if len(colorset) != len(self.colors):
            raise ValueError("duplicate colors")
        if self.distinguished not in colorset:
            raise ValueError("distinguished color missing from color set")
        seen = set()
        for tile in self.tiles:
            for side in tile.sides():
                if side not in colorset:
                    raise ValueError(f"tile side color {side} not in color set")
            if tile.sides() in seen:
                raise ValueError(f"duplicate tile {tile.sides()}")
            seen.add(tile.sides())
        # Not fields, so equality, repr and the JSON forms ignore them.
        object.__setattr__(self, "_index",
                           {tile: i for i, tile in enumerate(self.tiles)})
        # Reversed, so the first tile with a name is the one kept.
        object.__setattr__(self, "_by_name",
                           {tile.name: tile for tile in reversed(self.tiles)})

    def tile_named(self, name: str) -> Tile:
        """The first tile labelled ``name``; KeyError if there is none."""
        return self._by_name[name]

    def index_of(self, tile: Tile) -> int:
        """Position of ``tile`` in :attr:`tiles`, by one hash lookup."""
        try:
            return self._index[tile]
        except KeyError:
            raise ValueError(f"tile {tile} is not in the system") from None


@dataclass(frozen=True, eq=False)
class Placements(Sequence):
    """Placements stored as runs ``(tile, x0, y, count)``: ``tile`` in row
    ``y`` at x = x0, ..., x0 + count - 1, spelled afresh on every read.
    Equality and hashing merge neighbouring runs of equal tiles, so they
    agree with a cell-by-cell comparison and cost one step per run."""

    runs: tuple[tuple[Tile, int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        for _, x0, y, count in self.runs:
            if type(x0) is not int or type(y) is not int:
                raise _cell_refusal(x0, y)
            if type(count) is not int:
                raise wrong_type("run", "count", count, int)
            if count < 1:
                raise ValueError(f"run field 'count' must be at least 1, "
                                 f"not {count}")

    def __len__(self) -> int:
        return sum(run[3] for run in self.runs)

    def __iter__(self):
        for tile, x0, y, count in self.runs:
            for x in range(x0, x0 + count):
                yield _new_placement(Placement, (tile, x, y))

    def __getitem__(self, index):
        return tuple(self)[index]

    def _merged(self) -> list:
        merged = [(None, 0, None, 0)]  # a mark that no run extends
        for tile, x0, y, count in self.runs:
            t, a, b, k = merged[-1]
            if y == b and x0 == a + k and tile == t:
                merged[-1] = (t, a, b, k + count)
            else:
                merged.append((tile, x0, y, count))
        return merged

    def __eq__(self, other):
        return (isinstance(other, Placements)
                and self._merged() == other._merged())

    def __hash__(self) -> int:
        return hash(tuple(self._merged()))


@dataclass(frozen=True)
class Certificate:
    """Tile placements claimed to cancel an initial edge map.

    ``width_m`` is the x coordinate of the rightmost column, ``rows`` the y
    coordinate of the top (cap) row.  Placements are stored row-major,
    bottom row first.

    Cells are integer lattice points: ``width_m``, ``rows`` and every x
    and y must be of type ``int`` (``bool`` refused), or construction
    raises the JSON loader's ``ValueError``.  ``placements`` is kept as
    given when it is a :class:`Placements`; any other sequence of
    ``(tile, x, y)`` is scanned into its maximal runs by tile identity.
    """

    placements: Placements
    width_m: int
    rows: int

    def __post_init__(self):
        _check_size(self.width_m, self.rows)
        if not isinstance(self.placements, Placements):
            object.__setattr__(self, "placements",
                               Placements(_placement_runs(self.placements)))

    def runs(self) -> tuple[tuple[Tile, int, int, int], ...]:
        """The stored runs of the placements; see :class:`Placements`."""
        return self.placements.runs


def _check_size(width_m, rows) -> None:
    for name, value in (("m", width_m), ("rows", rows)):
        if type(value) is not int:
            raise wrong_type("certificate", name, value, int)


def _cell_refusal(x, y) -> ValueError:
    """The refusal of a cell whose x or y is not an int, x first."""
    field, value = ("x", x) if type(x) is not int else ("y", y)
    return wrong_type("placement", field, value, int)


# Equal to nothing but itself: the "no run yet" and "no tile read yet" mark.
_UNSET = object()


def _placement_runs(placements) -> tuple[tuple[Tile, int, int, int], ...]:
    """The maximal runs of a placement sequence by tile identity; a cell
    whose x or y is not an int starts a run, which Placements refuses."""
    runs = []
    append = runs.append
    tile = row = _UNSET
    nxt = x0 = count = 0
    for t, x, y in placements:
        if (t is tile and x == nxt and y == row
                and type(x) is int and type(y) is int):
            nxt += 1
            count += 1
            continue
        if count:
            append((tile, x0, row, count))
        tile, x0, row, count = t, x, y, 1
        nxt = x + 1 if type(x) is int else _UNSET
    if count:
        append((tile, x0, row, count))
    return tuple(runs)


def _disjoint_spans(spans: list) -> bool:
    """Whether one row's spans, tuples that begin with a run's first and
    last x and are sorted by the first, do not overlap.  A row where this
    holds has no stacked cell."""
    return all(a[1] < b[0] for a, b in zip(spans, spans[1:]))


_new_placement = tuple.__new__


def sort_placements(placements) -> tuple[Placement, ...]:
    return tuple(sorted(placements, key=attrgetter("y", "x")))


# -- JSON -------------------------------------------------------------------

def tile_to_dict(tile: Tile) -> dict:
    data = {
        "n": color_to_str(tile.n),
        "e": color_to_str(tile.e),
        "s": color_to_str(tile.s),
        "w": color_to_str(tile.w),
    }
    if tile.name:
        data["name"] = tile.name
    return data


def tile_from_dict(data: dict) -> Tile:
    *sides, name = fields(data, "tile", {"n": None, "e": None, "s": None,
                                         "w": None, "name": str},
                          {"name": ""})
    return Tile(*map(color_from_str, sides), name)


def system_to_dict(ts: TilingSystem) -> dict:
    return {
        "colors": [color_to_str(c) for c in ts.colors],
        "distinguished": color_to_str(ts.distinguished),
        "tiles": [tile_to_dict(t) for t in ts.tiles],
    }


def system_from_dict(data: dict) -> TilingSystem:
    colors, distinguished, tiles = fields(
        data, "tiling system",
        {"colors": list, "distinguished": None, "tiles": list},
        {"distinguished": "c0"})
    return TilingSystem(tuple(map(color_from_str, colors)),
                        tuple(map(tile_from_dict, tiles)),
                        color_from_str(distinguished))


def certificate_to_dict(cert: Certificate) -> dict:
    rows = []
    for placement in sort_placements(cert.placements):
        rows.append({
            "tile": tile_to_dict(placement.tile),
            "x": placement.x,
            "y": placement.y,
        })
    return {"m": cert.width_m, "rows": cert.rows, "placements": rows}


def certificate_from_dict(data: dict, ts: Optional[TilingSystem] = None) -> Certificate:
    """Read a certificate; a tile given by name is looked up in ``ts``.
    An x or y that is not an int is refused once every row is read."""
    width_m, rows, entries = fields(
        data, "certificate", {"m": int, "rows": int, "placements": list})
    return Certificate(Placements(_placement_runs(_entry_cells(entries, ts))),
                       width_m, rows)


def _entry_cells(entries: list, ts: Optional[TilingSystem]):
    """The ``(tile, x, y)`` of each placement entry, checked as it is read.
    Each distinct tile dict is built once, and a row whose tile equals the
    previous row's takes the same tile object, so its run goes on; an entry
    that cannot serve as a key goes to tile_from_dict, which says why."""
    built: dict = {}
    row_spec = {"tile": None, "x": None, "y": None}
    last_ref = _UNSET
    for row in entries:
        # A row of exactly these three keys is read directly; fields reads
        # any other and says what is wrong with it.
        try:
            ref, x, y = row["tile"], row["x"], row["y"]
        except (KeyError, TypeError):
            ref, x, y = fields(row, "placement", row_spec)
        if len(row) != 3:
            fields(row, "placement", row_spec)
        if ref is not last_ref and ref != last_ref:
            if isinstance(ref, str):
                if ts is None:
                    raise ValueError("tile referenced by name but no tiling "
                                     "system given")
                try:
                    tile = ts.tile_named(ref)
                except KeyError:
                    raise ValueError(f"placement names tile {ref!r}, which "
                                     "the tiling system does not have") from None
            else:
                try:
                    key = tuple(ref.items())
                    tile = built.get(key)
                except (AttributeError, TypeError):
                    key = tile = None
                if tile is None:
                    tile = tile_from_dict(ref)
                    if key is not None:
                        built[key] = tile
            last_ref = ref
        yield tile, x, y


def dump_system(ts: TilingSystem) -> str:
    return json.dumps(system_to_dict(ts), indent=2) + "\n"


def load_system(text: str) -> TilingSystem:
    return system_from_dict(json.loads(text))


# The fixed text of dump_certificate's layout.  An entry is _OPEN, the
# tile's block, _X, x, _Y, y and _CLOSE; entries are joined by ",\n"
# between "[\n" and _TAIL.
_HEAD = '{\n  "m": %d,\n  "rows": %d,\n  "placements": '
_OPEN = '    {\n      "tile": '
_X = ',\n      "x": '
_Y = ',\n      "y": '
_CLOSE = '\n    }'
_TAIL = '\n  ]\n}\n'
_EMPTY = '[]\n}\n'


def dump_certificate(cert: Certificate) -> str:
    """``json.dumps(certificate_to_dict(cert), indent=2)`` plus a newline,
    byte for byte, written one run at a time.

    Each distinct tile's block is rendered once.  A run's entries differ
    only in x, so a run is one join of its x values between the text that
    surrounds them.  Placements that are not strictly increasing in
    ``(y, x)`` are sorted first, as ``certificate_to_dict`` does.
    """
    head = _HEAD % (cert.width_m, cert.rows)
    runs = cert.runs()
    if not runs:
        return head + _EMPTY
    last = None
    for _, x0, y, count in runs:
        if last is not None and not (y, x0) > last:
            runs = _placement_runs(sort_placements(cert.placements))
            break
        last = (y, x0 + count - 1)
    opening: dict = {}
    items = []
    row = _UNSET
    for tile, x0, y, count in runs:
        before = opening.get(id(tile))
        if before is None:
            block = json.dumps(tile_to_dict(tile), indent=2)
            before = opening[id(tile)] = (
                _OPEN + block.replace("\n", "\n      ") + _X)
        if y != row:
            row = y
            after = f"{_Y}{y}{_CLOSE}"
        if count == 1:
            items.append(before + str(x0) + after)
        else:
            items.append(before + (after + ",\n" + before).join(
                map(str, range(x0, x0 + count))) + after)
    return "".join((head, "[\n", ",\n".join(items), _TAIL))


# An int as json.dumps writes it, of at most 18 digits, and a string that
# json.dumps writes as it is: printable ASCII but '"' and '\'.  The groups
# of an entry are its tile's four side colors and name, x and y.
_INT = "(0|-?[1-9][0-9]{0,17})"
_HEAD_RE = re.compile(re.escape(_HEAD).replace("%d", _INT))
_ENTRY_RE = re.compile(re.escape(_OPEN) + (
    '\\{\n        "n": "(C*)",\n        "e": "(C*)",\n        "s": "(C*)",\n'
    '        "w": "(C*)"(?:,\n        "name": "(C+)")?\n      \\}'
    ).replace("C", r"[ !#-\[\]-~]")
    + re.escape(_X) + _INT + re.escape(_Y) + _INT + re.escape(_CLOSE))


def _run_end(text: str, at: int, lead: str, x: int, after: str):
    """The end of a run and the x past its last cell, given that its entry
    for x - 1 ends at ``at``.  Each further entry is ``lead``, its x and
    ``after``, so the entries whose x has one digit count stand at known
    offsets.  Single entries are probed there, galloping and bisecting, to
    find where they stop; one comparison of their whole spelling confirms
    it, and on a mismatch they are probed one by one.  A run goes on past
    a change of digit count, as the JSON path's does."""
    while True:
        digits = len(str(x))
        room = (10 ** digits if x >= 0 else 1 - 10 ** (digits - 2)) - x
        size = len(lead) + digits + len(after)

        def fits(i: int) -> bool:
            return text.startswith(f"{lead}{x + i}{after}", at + i * size)

        # Entry -1 is the one already read.  Gallop until entry hi does
        # not fit, then bisect to the first such entry after lo.
        lo, hi = -1, 0
        while hi < room and fits(hi):
            lo, hi = hi, 2 * hi + 1
        hi = min(hi, room)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        if hi > 1 and not text.startswith(lead + (after + lead).join(
                map(str, range(x, x + hi))) + after, at):
            hi = 1
            while hi < room and fits(hi):
                hi += 1
        at, x = at + hi * size, x + hi
        if hi < room:
            return at, x


def _read_canonical(text: str) -> Optional[Certificate]:
    """The certificate of a text in exactly the layout that dump_certificate
    writes, read run by run, or None at the first byte that departs from
    it.  It equals ``certificate_from_dict(json.loads(text))``, tile objects
    included: an entry's opening stands one to one for its tile dict."""
    head = _HEAD_RE.match(text)
    if head is None:
        return None
    size = int(head[1]), int(head[2])
    if text == head[0] + _EMPTY:
        return Certificate(Placements(()), *size)
    at, built, runs = head.end() + 2, {}, []
    while text.startswith(",\n" if runs else "[\n", at - 2):
        entry = _ENTRY_RE.match(text, at)
        if entry is None:
            return None
        lead = ",\n" + text[at:entry.start(6)]
        if lead not in built:
            try:
                colors = map(color_from_str, entry.group(1, 2, 3, 4))
                built[lead] = Tile(*colors, entry[5] or "")
            except ValueError:
                return None
        at, x0 = entry.end(), int(entry[6])
        x = x0 + 1
        if text.startswith(lead, at):  # the next entry has this tile
            at, x = _run_end(text, at, lead, x, text[entry.end(6):at])
        runs.append((built[lead], x0, int(entry[7]), x - x0))
        at += 2
    if runs and text.endswith(_TAIL) and len(text) == at - 2 + len(_TAIL):
        return Certificate(Placements(runs), *size)
    return None


def load_certificate(text: str, ts: Optional[TilingSystem] = None) -> Certificate:
    """Read the JSON text of a certificate.

    Text in exactly the layout that dump_certificate writes, as every
    certificate file the library writes is, is read run by run with no JSON
    tree.  Any other text (hand-written documents, tiles given by name,
    other whitespace, key orders or escapes) and any text that departs from
    that layout at any byte is read by ``certificate_from_dict(json.loads(
    text), ts)``, so every refusal comes from that path, type and text.
    """
    cert = _read_canonical(text) if isinstance(text, str) else None
    if cert is None:
        cert = certificate_from_dict(json.loads(text), ts)
    return cert
