"""Build, verify and audit tiling certificates for accepting runs.

The builder transcribes an accepting trace literally: one row of tiles per
computation step, a bottom row extending the input row to the full width,
and a cap row over the final all-blank configuration.  Verification is
independent of the construction: it just sums translated tile maps and
checks that the starting map is cancelled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .compiler import EmptyInput, compile_tiles
from .deduce import MalformedInput, parse_initial_shape
from .edges import EdgeMap, evaluate_placements
from .tiling import (ARROW_R, TRI_L, TRI_R, Certificate, Placement, Tile,
                     TilingSystem, head, letter, sort_placements, state)
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
    placements: list[Placement] = []

    for x in range(n + 1, m):
        placements.append(Placement(ts.tile_named("b0"), x, 0))
    placements.append(Placement(ts.tile_named("b1"), m, 0))

    b7 = ts.tile_named("b7")
    b2 = ts.tile_named("b2")
    for y in range(1, len(trace.configs)):
        config = trace.configs[y - 1]
        if tape_extent(config, blank) > m - 1:
            raise AssertionError(f"row {y} needs more than {m - 1} cells")

        def cell(k: int) -> str:
            return config.tape[k] if k < len(config.tape) else blank

        q, head_pos = config.state, config.head
        a = cell(head_pos)
        p, b, move = tm.transitions[(q, a)]
        j = head_pos + 1
        row: dict[int, Tile] = {0: b7, m: b2}
        if move == "L":
            if j < 2:
                raise AssertionError(f"row {y}: left move from column {j}")
            row[j] = pick(letter(b), TRI_R, head(q, a), state(p))
            row[j - 1] = pick(head(p, cell(head_pos - 1)), state(p),
                              letter(cell(head_pos - 1)), TRI_L)
            left_end, right_start = j - 2, j + 1
        else:
            if j > m - 2:
                raise AssertionError(f"row {y}: right move from column {j}")
            row[j] = pick(letter(b), state(p), head(q, a), TRI_L)
            row[j + 1] = pick(head(p, cell(head_pos + 1)), TRI_R,
                              letter(cell(head_pos + 1)), state(p))
            left_end, right_start = j - 1, j + 2
        for x in range(1, left_end + 1):
            la = letter(cell(x - 1))
            row[x] = pick(la, TRI_L, la, TRI_L)
        for x in range(right_start, m):
            la = letter(cell(x - 1))
            row[x] = pick(la, TRI_R, la, TRI_R)
        for x in sorted(row):
            placements.append(Placement(row[x], x, y))

    cap_y = len(trace.configs)
    placements.append(Placement(ts.tile_named("b6"), 0, cap_y))
    placements.append(Placement(ts.tile_named("b5"), 1, cap_y))
    for x in range(2, m):
        placements.append(Placement(ts.tile_named("b4"), x, cap_y))
    placements.append(Placement(ts.tile_named("b3"), m, cap_y))

    return Certificate(sort_placements(placements), m, cap_y)


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
