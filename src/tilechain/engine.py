"""Build, verify and audit tiling certificates for accepting runs.

The builder transcribes an accepting trace's changes literally on one row
buffer: one row of tiles per computation step, a bottom row extending the
input row to the full width, and a cap row over the final all-blank
configuration.  Verification is
independent of the construction: it sums translated tile maps and checks
that the starting map is cancelled exactly.

Verification and the audit read a certificate's run view
(:meth:`~tilechain.tiling.Certificate.runs`).  The sum is checked line by
line, a line being one height, orientation and color: a run puts the same
sign on ``count`` consecutive edges of a line, so it adds one interval to
the line's difference array (+sign where it starts, -sign one past its
end), and the line is zero exactly when its difference array is.  The
audit checks each run's region and columns once and compares the spans of
a row to find stacked cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Optional

from .compiler import EmptyInput, compile_tiles
from .deduce import MalformedInput, parse_initial_shape
from .edges import EdgeMap, _side_lookup
from .tiling import (ARROW_R, TRI_L, TRI_R, Certificate, Placements, Tile,
                     TilingSystem, _disjoint_spans, head, letter, state)
from .tm import RunTrace, TuringMachine, run


def builder_width(trace: RunTrace, n: int) -> int:
    """Row width for a trace: one more than the space consumed."""
    return max(trace.space, n) + 1


def build_accepting_tiling(tm: TuringMachine, word: str | list[str],
                           fuel: int) -> Optional[Certificate]:
    """Run the machine and transcribe the accepting trace into a certificate.

    Returns None when fuel runs out first.  Raises ValueError if the machine
    accepts in a configuration the construction cannot cap (non-blank tape or
    head away from cell 0), which signals a machine that was not normalized.
    """
    symbols = list(word)
    if not symbols:
        raise EmptyInput("input word must be nonempty")
    trace = run(tm, symbols, fuel)
    if trace is None:
        return None
    first, changes = trace.first, trace.changes
    blank = tm.blank
    # The accepting tape, each cell at its last write, is checked before
    # the machine's tiles are compiled.
    final = dict(enumerate(first.tape))
    final.update((at, b) for at, b, _, _ in changes)
    if ((changes[-1][3] if changes else first.head) != 0
            or any(s != blank for s in final.values())):
        raise ValueError("accepting configuration is not all-blank at cell 0")

    ts = compile_tiles(tm)
    by_sides = {t.sides(): t for t in ts.tiles}

    def pick(n_, e_, s_, w_) -> Tile:
        return by_sides[(n_, e_, s_, w_)]

    n = len(symbols)
    m = builder_width(trace, n)
    b0, b1, b2, b3, b4, b5, b6, b7 = (ts.tile_named(f"b{i}")
                                      for i in range(8))
    # A run that leaves the tape alphabet has no colors in the system, and
    # compile_tiles refused it, so every cell's symbol has both carries.
    left_carry = {a: pick(letter(a), TRI_L, letter(a), TRI_L)
                  for a in tm.tape_alphabet}
    right_carry = {a: pick(letter(a), TRI_R, letter(a), TRI_R)
                   for a in tm.tape_alphabet}
    # Rows go out bottom first, each left to right, as maximal runs of one
    # tile object: the form a Certificate stores.
    runs: list = []
    append = runs.append

    if m > n + 1:
        append((b0, n + 1, 0, m - n - 1))
    append((b1, m, 0, 1))

    # The one row buffer: m - 1 = max(space, n) cells hold the run's whole
    # tape, and each change is written into it after its row goes out.
    cells = list(first.tape) + [blank] * (m - 1 - len(first.tape))
    q = first.state
    for y, (at, b, p, new_head) in enumerate(changes, 1):
        a = cells[at]
        j = at + 1
        # The row is b7, left carries, the two head tiles, right carries
        # and b2; the head tiles start at column left_end + 1.
        if new_head < at:
            if j < 2:
                raise AssertionError(f"row {y}: left move from column {j}")
            east = pick(letter(b), TRI_R, head(q, a), state(p))
            west = pick(head(p, cells[at - 1]), state(p),
                        letter(cells[at - 1]), TRI_L)
            left_end = j - 2
        else:
            if j > m - 2:
                raise AssertionError(f"row {y}: right move from column {j}")
            west = pick(letter(b), state(p), head(q, a), TRI_L)
            east = pick(head(p, cells[at + 1]), TRI_R,
                        letter(cells[at + 1]), state(p))
            left_end = j - 1
        append((b7, 0, y, 1))
        x = _carry_runs(left_carry, cells[:left_end], 1, y, append)
        append((west, x, y, 1))
        append((east, x + 1, y, 1))
        x = _carry_runs(right_carry, cells[left_end + 2:], x + 2, y, append)
        append((b2, x, y, 1))
        cells[at] = b
        q = p

    cap_y = len(changes) + 1
    append((b6, 0, cap_y, 1))
    append((b5, 1, cap_y, 1))
    if m > 2:
        append((b4, 2, cap_y, m - 2))
    append((b3, m, cap_y, 1))

    return Certificate(Placements(runs), m, cap_y)


def _carry_runs(carry: dict, symbols, x: int, y: int, append) -> int:
    """Append the runs of the carry tiles over ``symbols``, the first at
    column ``x`` of row ``y``, and return the column after the last.  A
    symbol has one carry tile, so a run of one symbol is a run of one
    tile object."""
    for symbol, group in groupby(symbols):
        count = len(list(group))
        append((carry[symbol], x, y, count))
        x += count
    return x


def verify_zero(f0: EdgeMap, cert: Certificate, ts: TilingSystem) -> bool:
    """True when the placements cancel ``f0`` exactly: the result of
    ``(f0 + evaluate_placements(ts, cert.placements, f0.ring)).is_zero()``,
    with the same :class:`~tilechain.edges.UnknownTile` for a foreign tile.

    The total lives on lines ``(y, (orientation, color))``.  An entry of
    value v at x is the interval [x, x + 1) of the line with value v, and a
    run of ``count`` tiles puts each non-distinguished side's sign on the
    interval [x0 + dx, x0 + dx + count).  ``jumps`` keeps each interval as
    +v where it starts and -v where it ends.  The total is zero iff every
    jump sums to zero in the ring: of the nonzero edges of a line, the
    leftmost leaves a nonzero jump.  So stacked, shuffled and gapped
    placements need no second path, and the work is per run, not per
    placement.
    """
    sides_of = _side_lookup(ts)
    jumps: dict = {}
    get = jumps.get
    for ((x, y, orient), color), value in f0.support():
        tag = (orient, color)
        jumps[x, y, tag] = get((x, y, tag), 0) + value
        jumps[x + 1, y, tag] = get((x + 1, y, tag), 0) - value
    for tile, x0, y, count in cert.runs():
        for (dx, dy, tag), sign in sides_of(tile):
            start, row = x0 + dx, y + dy
            jumps[start, row, tag] = get((start, row, tag), 0) + sign
            end = start + count
            jumps[end, row, tag] = get((end, row, tag), 0) - sign
    modulus = f0.ring.modulus
    if modulus is None:
        return not any(jumps.values())
    return not any(value % modulus for value in jumps.values())


class AuditFlag(NamedTuple):
    kind: str
    x: int
    y: int
    detail: str


@dataclass(frozen=True)
class AuditReport:
    flags: tuple[AuditFlag, ...]

    @property
    def ok(self) -> bool:
        return not self.flags


def claims_audit(cert: Certificate, f0: EdgeMap) -> AuditReport:
    """Structural audit of a certificate against its starting map.

    Flags raised:
      outside-region      a tile below the floor, or on the floor left of
                          the input word's end;
      floor-tile-raised   a bottom-row tile (west side right-arrow) above
                          the floor;
      outside-columns     a tile left of column 0 or right of the width;
      stacked             two or more tiles on one position;
      malformed-input     the starting map is not a rendered input word
                          (no further checks run).
    """
    try:
        n, _, _ = parse_initial_shape(f0)
    except MalformedInput as exc:
        return AuditReport((AuditFlag("malformed-input", 0, 0, str(exc)),))
    m = cert.width_m
    flags: list[AuditFlag] = []
    # Per row, the spans (first x, last x) of its runs.
    spans: dict = {}
    for tile, x0, y, count in cert.runs():
        last = x0 + count - 1
        # Within a run x rises, so its first and last x decide whether
        # any of its tiles is flagged; only such a run is read tile by
        # tile.
        if (y < 0 or (y == 0 and x0 < n + 1) or x0 < 0 or last > m
                or (y >= 1 and tile.w == ARROW_R)):
            label = tile.name or "tile"
            for x in range(x0, last + 1):
                if y < 0 or (y == 0 and x < n + 1):
                    flags.append(AuditFlag("outside-region", x, y, label))
                if y >= 1 and tile.w == ARROW_R:
                    flags.append(AuditFlag("floor-tile-raised", x, y, label))
                if x < 0 or x > m:
                    flags.append(AuditFlag("outside-columns", x, y, label))
        spans.setdefault(y, []).append((x0, last))
    # Cells are counted only in rows whose spans may share one.
    seen: dict[tuple[int, int], int] = {}
    for y, row in spans.items():
        row.sort()
        if not _disjoint_spans(row):
            for x0, last in row:
                for x in range(x0, last + 1):
                    seen[x, y] = seen.get((x, y), 0) + 1
    for (x, y), count in sorted(seen.items()):
        if count > 1:
            flags.append(AuditFlag("stacked", x, y, f"{count} tiles"))
    return AuditReport(tuple(flags))


def default_window(cert: Certificate) -> tuple[int, int, int, int]:
    """The inclusive shift window covering a certificate's placements."""
    return (0, 0, cert.width_m, cert.rows)
