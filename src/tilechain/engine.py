"""Build, verify and audit tiling certificates for accepting runs.

The builder transcribes an accepting trace literally: one row of tiles per
computation step, a bottom row extending the input row to the full width,
and a cap row over the final all-blank configuration.  Verification is
independent of the construction: it just sums translated tile maps and
checks that the starting map is cancelled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

from .compiler import EmptyInput, compile_tiles
from .deduce import MalformedInput, parse_initial_shape
from .edges import EdgeMap, evaluate_placements
from .tiling import (ARROW_R, TRI_L, TRI_R, Certificate, Placement, Tile,
                     TilingSystem, head, letter, state)
from .tm import RunTrace, TuringMachine, run, tape_extent


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
    final = trace.configs[-1]
    if final.head != 0 or any(s != tm.blank for s in final.tape):
        raise ValueError("accepting configuration is not all-blank at cell 0")

    ts = compile_tiles(tm)
    by_sides = {t.sides(): t for t in ts.tiles}

    def pick(n_, e_, s_, w_) -> Tile:
        return by_sides[(n_, e_, s_, w_)]

    n = len(symbols)
    m = builder_width(trace, n)
    blank = tm.blank
    b0, b1, b2, b3, b4, b5, b6, b7 = (ts.tile_named(f"b{i}")
                                      for i in range(8))
    # A run that leaves the tape alphabet has no colors in the system, and
    # compile_tiles refused it, so every cell's symbol has both carries.
    left_carry = {a: pick(letter(a), TRI_L, letter(a), TRI_L)
                  for a in tm.tape_alphabet}
    right_carry = {a: pick(letter(a), TRI_R, letter(a), TRI_R)
                   for a in tm.tape_alphabet}
    # Rows go out bottom first, each left to right: the order a Certificate
    # stores.
    placements: list[Placement] = []

    for x in range(n + 1, m):
        placements.append(Placement(b0, x, 0))
    placements.append(Placement(b1, m, 0))

    for y in range(1, len(trace.configs)):
        config = trace.configs[y - 1]
        if tape_extent(config, blank) > m - 1:
            raise AssertionError(f"row {y} needs more than {m - 1} cells")
        cells = config.tape + (blank,) * (m - len(config.tape))
        q, head_pos = config.state, config.head
        a = cells[head_pos]
        p, b, move = tm.transitions[(q, a)]
        j = head_pos + 1
        # The row is b7, left carries, the two head tiles, right carries
        # and b2; the head tiles start at column left_end + 1.
        if move == "L":
            if j < 2:
                raise AssertionError(f"row {y}: left move from column {j}")
            east = pick(letter(b), TRI_R, head(q, a), state(p))
            west = pick(head(p, cells[head_pos - 1]), state(p),
                        letter(cells[head_pos - 1]), TRI_L)
            left_end = j - 2
        else:
            if j > m - 2:
                raise AssertionError(f"row {y}: right move from column {j}")
            west = pick(letter(b), state(p), head(q, a), TRI_L)
            east = pick(head(p, cells[head_pos + 1]), TRI_R,
                        letter(cells[head_pos + 1]), state(p))
            left_end = j - 1
        row = [b7, *map(left_carry.__getitem__, cells[:left_end]), west,
               east, *map(right_carry.__getitem__, cells[left_end + 2:m - 1]),
               b2]
        placements += map(Placement, row, range(m + 1), repeat(y))

    cap_y = len(trace.configs)
    placements.append(Placement(b6, 0, cap_y))
    placements.append(Placement(b5, 1, cap_y))
    for x in range(2, m):
        placements.append(Placement(b4, x, cap_y))
    placements.append(Placement(b3, m, cap_y))

    return Certificate(tuple(placements), m, cap_y)


def verify_zero(f0: EdgeMap, cert: Certificate, ts: TilingSystem) -> bool:
    """True when the placements cancel ``f0`` exactly."""
    total = f0 + evaluate_placements(ts, cert.placements, f0.ring)
    return total.is_zero()


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
    flags: list[AuditFlag] = []
    seen: dict[tuple[int, int], int] = {}
    for placement in cert.placements:
        tile, x, y = placement.tile, placement.x, placement.y
        label = tile.name or "tile"
        if y < 0 or (y == 0 and x < n + 1):
            flags.append(AuditFlag("outside-region", x, y, label))
        if y >= 1 and tile.w == ARROW_R:
            flags.append(AuditFlag("floor-tile-raised", x, y, label))
        if x < 0 or x > cert.width_m:
            flags.append(AuditFlag("outside-columns", x, y, label))
        seen[(x, y)] = seen.get((x, y), 0) + 1
    for (x, y), count in sorted(seen.items()):
        if count > 1:
            flags.append(AuditFlag("stacked", x, y, f"{count} tiles"))
    return AuditReport(tuple(flags))


def default_window(cert: Certificate) -> tuple[int, int, int, int]:
    """The inclusive shift window covering a certificate's placements."""
    return (0, 0, cert.width_m, cert.rows)
