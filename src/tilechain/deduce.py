"""Certificate search driven by tile colors alone.

This module rebuilds tiling certificates knowing nothing about Turing
machines: its only inputs are a tiling system and a starting edge map.  It
must stay importable without the machine modules; a test walks its import
closure to keep it that way.

The search works row by row.  A pending row is the list of north colors the
placements so far have exposed at some height; the next row of tiles must
cancel it exactly, which pins each tile through its south color and the
west color shared with its left neighbour.  The starting map does not
determine how far the bottom row extends, so an outer search picks the row
width.  Sides of the distinguished color contribute nothing, so padding a
certificate with an empty column on the right makes it a certificate one
column wider: if some width has a certificate, every wider one has too.
The outer search therefore gallops from the narrow end, probing widths
n+1, n+2, n+4, n+8, ... up to the bound, and bisects between the last
width that failed and the first that succeeded.  It returns the
certificate of the narrowest width, the one a search trying each width in
turn would return, after O(log) widths instead of one search per width.

Each row is found in one backward pass and one forward walk.  The backward
pass goes right to left and computes, for every column i, ``live[i]``: the
west colors at i from which columns i, i+1, ... can still be tiled so that
the last east color is the distinguished one.  ``live[i]`` depends only on
the south color at i and on ``live[i+1]``, so it is read from a memo keyed
by that pair, together with the column's options for each west color in
it.  The forward walk then places tiles left to right, taking at each
column only options whose east color is live at the next column.  Every
branch it opens can therefore be completed, so it never backs out of a
dead end within the row, and it produces the row's assignments in the
order of a plain depth-first search: tiles in tiling-system order, then
the empty slot.  A row costs one memo lookup per column on the way back
and one table lookup per column on the way forward, O(width) in all; each
further assignment of an ambiguous row re-walks only the columns right of
the choice it changes.

Rows sit on one explicit stack of (row enumerator, assignment) pairs, and
each row keeps its untried choices on a stack of its own, so neither the
width nor the height of a certificate meets the interpreter's recursion
limit.  When a choice in one row leads nowhere in the rows above it, the
stack pops back to that row's next assignment, so the first completed stack
of rows is the certificate a recursive depth-first search finds first.
The memo belongs to one ``forced_search`` call and serves every width it
probes: it is built lazily as rows are deduced and dropped when the call
returns.
"""

from __future__ import annotations

from itertools import groupby
from typing import Optional

from .edges import EdgeMap
from .tiling import (ARROW_D, ARROW_R, Certificate, Color, Placements, Tile,
                     TilingSystem)


class MalformedInput(ValueError):
    """The starting edge map does not look like a rendered input word."""


def parse_initial_shape(f0: EdgeMap) -> tuple[int, list[Color], Color]:
    """Check that ``f0`` is a rendered input word and take it apart.

    Returns ``(n, row, arrow)``: the word length, the colors at row height 1
    for positions ``0..n``, and the color of the single vertical edge.
    """
    horiz: dict[int, Color] = {}
    vert = None
    for ((x, y, orient), color), value in f0.support():
        if value != 1:
            raise MalformedInput(f"entry value {value} at ({x},{y},{orient})")
        if orient == "H":
            if y != 1 or x in horiz:
                raise MalformedInput(f"unexpected horizontal entry at ({x},{y})")
            horiz[x] = color
        else:
            if vert is not None:
                raise MalformedInput("more than one vertical entry")
            vert = ((x, y), color)
    if vert is None:
        raise MalformedInput("missing vertical entry")
    (vx, vy), arrow = vert
    n = vx - 1
    if n < 1 or vy != 0:
        raise MalformedInput(f"vertical entry at ({vx},{vy})")
    if sorted(horiz) != list(range(n + 1)):
        raise MalformedInput("row positions not contiguous from 0")
    if horiz[0] != ARROW_D or arrow != ARROW_R:
        raise MalformedInput("missing start or end arrow")
    row = [horiz[x] for x in range(n + 1)]
    return n, row, arrow


class _RowDeducer:
    """Row enumeration over one tiling system, with a memo for one search.

    The memo maps ``(south, after)``, a column's south color and the set of
    east colors from which the rest of the row can still be finished, to
    the west colors from which the column can reach ``after`` and to the
    column's options for each of them.  Sets are interned frozensets, so a
    key made from one hashes through the set's cached hash and compares by
    identity.
    """

    def __init__(self, ts: TilingSystem):
        self.c0 = ts.distinguished
        self.by_s: dict[Color, list[Tile]] = {}
        for tile in ts.tiles:
            self.by_s.setdefault(tile.s, []).append(tile)
        self.sets: dict[frozenset, frozenset] = {}
        self.columns: dict[tuple, tuple] = {}
        self.end = self._intern(frozenset((self.c0,)))

    def _intern(self, colors: frozenset) -> frozenset:
        return self.sets.setdefault(colors, colors)

    def _column(self, south: Color, after: frozenset) -> tuple:
        """``(live, options)`` for a column over ``south`` whose east color
        must lie in ``after``: ``options[west]`` lists the fitting tiles in
        tiling-system order, then the empty slot where it is allowed, each
        as a ``(tile or None, east color)`` pair; ``live`` is the set of
        west colors with at least one option."""
        c0 = self.c0
        options: dict[Color, list] = {}
        for tile in self.by_s.get(south, ()):
            if tile.e in after:
                options.setdefault(tile.w, []).append((tile, tile.e))
        if south == c0 and c0 in after:
            options.setdefault(c0, []).append((None, c0))
        column = (self._intern(frozenset(options)),
                  {west: tuple(fits) for west, fits in options.items()})
        self.columns[south, after] = column
        return column

    def rows(self, souths: list[Color], west: Color):
        """Yield every tile row matching the given south colors.

        A row assignment is a tuple with one tile or None per position.  The
        west side of each tile must repeat the east side of its left
        neighbour (seeded with ``west``), the final east side must be the
        distinguished color, and a position may stay empty only where the
        south color and the incoming west color are both distinguished.
        Rows come in depth-first order: at each position the tiles in
        tiling-system order, then the empty slot.
        """
        memo = self.columns
        count = len(souths)
        tables: list = [None] * count
        after = self.end
        for i in range(count - 1, -1, -1):
            column = memo.get((souths[i], after))
            if column is None:
                column = self._column(souths[i], after)
            after, tables[i] = column
            if not after:
                return
        if west not in after:
            return

        chosen: list = [None] * count
        # Positions with options left untried, deepest last, as
        # (position, options, index of the next option to try).
        choices: list = []
        i = 0
        while True:
            while i < count:
                options = tables[i][west]
                if len(options) > 1:
                    choices.append((i, options, 1))
                chosen[i], west = options[0]
                i += 1
            yield tuple(chosen)
            if not choices:
                return
            i, options, k = choices.pop()
            if k + 1 < len(options):
                choices.append((i, options, k + 1))
            chosen[i], west = options[k]
            i += 1


def forced_search(ts: TilingSystem, f0: EdgeMap, max_m: int,
                  max_rows: int) -> Optional[Certificate]:
    """Search for a certificate cancelling ``f0`` by forced row deduction.

    Returns the certificate of the narrowest width in ``n+1..max_m`` that
    has one, as a search trying the widths in order would, or None when no
    width has one within ``max_rows`` rows.  A None is a bounded verdict,
    not a proof that no certificate exists.

    Sides of the distinguished color contribute nothing, so a certificate
    of width m padded with one empty column on the right is a certificate
    of width m+1: whether a width has a certificate is monotone in the
    width.  The widths are therefore probed galloping from the narrow end,
    at n+1, n+2, n+4, n+8, ... up to ``max_m``, and then bisected between
    the last probe that failed and the first that succeeded.  A reject
    costs about log2(max_m - n) + 1 searches instead of one per width,
    and an accept at most about twice that.  The certificate returned is
    that of the narrowest width, found by the same depth-first search as
    at that width alone.  All probes share one column memo.
    """
    n, row0, arrow = parse_initial_shape(f0)
    deducer = _RowDeducer(ts)
    # Every width up to ``low`` has no certificate.
    low, step = n, 1
    while True:
        high = min(n + step, max_m)
        if high <= low:
            return None
        found = _width_search(deducer, row0, arrow, high, max_rows)
        if found is not None:
            break
        low, step = high, 2 * step
    while high - low > 1:
        mid = (low + high) // 2
        certificate = _width_search(deducer, row0, arrow, mid, max_rows)
        if certificate is None:
            low = mid
        else:
            high, found = mid, certificate
    return found


def _width_search(deducer: _RowDeducer, row0: list[Color], arrow: Color,
                  m: int, max_rows: int) -> Optional[Certificate]:
    """The first certificate of width ``m`` in depth-first order: rows are
    deduced upwards until they become empty (success) or ``max_rows`` is
    exceeded."""
    n = len(row0) - 1
    c0 = deducer.c0
    # One entry per row under trial, bottom row first: the row's
    # enumerator and the assignment it gave last.
    stack = [[deducer.rows([c0] * (m - n), arrow), None]]
    while stack:
        entry = stack[-1]
        assignment = next(entry[0], None)
        if assignment is None:
            stack.pop()
            continue
        entry[1] = assignment
        y = len(stack) - 1
        norths = [c0 if tile is None else tile.n for tile in assignment]
        if y == 0:
            norths = row0 + norths
        if norths.count(c0) == len(norths):
            return _certificate(stack, n, m)
        if y < max_rows:
            stack.append([deducer.rows(norths, c0), None])
    return None


def _certificate(stack: list, n: int, m: int) -> Certificate:
    """The certificate of a completed row stack, made from its runs: each
    row assignment, bottom row first, grouped by tile identity with its
    empty slots left out."""
    runs = []
    append = runs.append
    for y, (_, assignment) in enumerate(stack):
        x0 = n + 1 if y == 0 else 0
        i = 0
        for _, group in groupby(assignment, key=id):
            count = len(list(group))
            tile = assignment[i]
            if tile is not None:
                append((tile, x0 + i, y, count))
            i += count
    return Certificate(Placements(runs), m, len(stack) - 1)
