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
the empty slot.

Rows are held as runs, the way a machine's configurations are: a pending
row is runs ``(north color, count)`` and an assignment is runs ``(tile or
None, count)``.  Within a run of one south color, the backward pass stops
at the first column whose live set is the very set it was given: every
column further left in the run has the same memo key, so the rest of the
run is one segment with one live set and one options table.  The forward
walk takes a whole segment at once where the west color has exactly one
option and that option keeps the west color, since every column of it
would place the same tile; anywhere else it goes column by column, and a
column with more than one option stays a choice point of its own, so the
assignments come in exactly the order above.  A row costs one memo
lookup per segment on the way back and one table lookup per segment on
the way forward, where a segment is a rest of a run or a single column;
each further assignment of an ambiguous row re-walks only the segments
right of the choice it changes.

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
    # n + 1 distinct positions in 0..n are exactly 0..n.  A far vertical
    # entry gives a huge n, so no range of that length is built.
    if len(horiz) != n + 1 or not all(0 <= x <= n for x in horiz):
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

    def rows(self, souths: list[tuple[Color, int]], west: Color):
        """Yield every tile row matching the given south colors.

        ``souths`` is the row's south colors as runs ``(color, count)``,
        left to right.  Each assignment comes as runs ``(tile or None,
        count)``, merged by tile identity.  The west side of each tile must
        repeat the east side of its left neighbour (seeded with ``west``),
        the final east side must be the distinguished color, and a
        position may stay empty only where the south color and the
        incoming west color are both distinguished.  Rows come in
        depth-first order: at each position the tiles in tiling-system
        order, then the empty slot.
        """
        memo = self.columns
        # Segments of columns sharing one options table, right to left,
        # as (options, column count).
        segments: list = []
        after = self.end
        for south, count in reversed(souths):
            while count:
                given = after
                column = memo.get((south, given))
                if column is None:
                    column = self._column(south, given)
                after, table = column
                if not after:
                    return
                if after is given:
                    # Every column further left in this run has the same
                    # key, so the same live set and options.
                    segments.append((table, count))
                    break
                segments.append((table, 1))
                count -= 1
        if west not in after:
            return
        segments.reverse()

        last = len(segments)
        # The assignment so far as merged runs (tile or None, count).
        placed: list = []
        # Columns with options left untried, deepest last, as (segment,
        # columns of it placed before, west color, index of the next
        # option to try, runs placed before, last of them then).
        choices: list = []
        s = j = k = 0
        while True:
            while s < last:
                table, count = segments[s]
                options = table[west]
                tile, east = options[k]
                if k + 1 < len(options):
                    choices.append((s, j, west, k + 1, len(placed),
                                    placed[-1] if placed else None))
                if j + 1 == count:
                    wide, s, j = 1, s + 1, 0
                elif len(options) == 1 and east == west:
                    # Every column left in the segment places this tile.
                    wide, s, j = count - j, s + 1, 0
                else:
                    wide, j = 1, j + 1
                west, k = east, 0
                if placed and placed[-1][0] is tile:
                    placed[-1] = (tile, placed[-1][1] + wide)
                else:
                    placed.append((tile, wide))
            row = tuple(placed)
            if not choices:
                break
            yield row
            s, j, west, k, size, end = choices.pop()
            del placed[size:]
            if size:
                placed[-1] = end
        # The last assignment: the rows above it may stay under trial for
        # long, so nothing else of this row is held meanwhile.
        del souths, segments, placed
        yield row


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
    exceeded.  Each pending row is held as merged runs of north colors."""
    n = len(row0) - 1
    c0 = deducer.c0
    start = [(color, len(list(group))) for color, group in groupby(row0)]
    # One entry per row under trial, bottom row first: the row's
    # enumerator and the assignment it gave last.
    stack = [[deducer.rows([(c0, m - n)], arrow), None]]
    while stack:
        entry = stack[-1]
        assignment = next(entry[0], None)
        if assignment is None:
            stack.pop()
            continue
        entry[1] = assignment
        y = len(stack) - 1
        if y:
            norths, last = [], None
        else:
            norths, last = list(start), start[-1][0]
        for tile, count in assignment:
            color = c0 if tile is None else tile.n
            if color == last:
                norths[-1] = (last, norths[-1][1] + count)
            else:
                norths.append((color, count))
                last = color
        if len(norths) == 1 and last == c0:
            return _certificate(stack, n, m)
        if y < max_rows:
            stack.append([deducer.rows(norths, c0), None])
    return None


def _certificate(stack: list, n: int, m: int) -> Certificate:
    """The certificate of a completed row stack, copied from its rows'
    runs, bottom row first, with the empty slots left out."""
    runs = []
    append = runs.append
    for y, (_, assignment) in enumerate(stack):
        x = n + 1 if y == 0 else 0
        for tile, count in assignment:
            if tile is not None:
                append((tile, x, y, count))
            x += count
    return Certificate(Placements(runs), m, len(stack) - 1)
