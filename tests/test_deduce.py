"""Forced deduction against a plain recursive reference, and without recursion."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

from tilechain import EdgeMap, Z
from tilechain.deduce import forced_search, parse_initial_shape
from tilechain.tiling import (ARROW_D, ARROW_R, C0, Certificate, Placement,
                              Tile, TilingSystem, letter, sort_placements)

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_assignments(by_sw, souths, west_seed, distinguished):
    """Every tile row over ``souths``, depth first: at each position the
    tiles in ``by_sw`` order, then the empty slot."""
    count = len(souths)
    chosen = [None] * count

    def extend(i, west):
        if i == count:
            if west == distinguished:
                yield list(chosen)
            return
        for tile in by_sw.get((souths[i], west), ()):
            chosen[i] = tile
            yield from extend(i + 1, tile.e)
            chosen[i] = None
        if souths[i] == distinguished and west == distinguished:
            chosen[i] = None
            yield from extend(i + 1, distinguished)

    yield from extend(0, west_seed)


def reference_forced_search(ts, f0, max_m, max_rows):
    """Widths in order; rows deduced upwards by recursion, the first
    completed stack of rows wins."""
    n, row0, arrow = parse_initial_shape(f0)
    c0 = ts.distinguished
    by_sw = {}
    for tile in ts.tiles:
        by_sw.setdefault((tile.s, tile.w), []).append(tile)

    def solve_rows(pending, y):
        if all(color == c0 for color in pending):
            return [], y - 1
        if y > max_rows:
            return None
        for assignment in reference_assignments(by_sw, pending, c0, c0):
            norths = [tile.n if tile else c0 for tile in assignment]
            sub = solve_rows(norths, y + 1)
            if sub is not None:
                rows, top = sub
                placed = [Placement(tile, x, y)
                          for x, tile in enumerate(assignment) if tile]
                return [placed] + rows, top
        return None

    for m in range(n + 1, max_m + 1):
        for bottom in reference_assignments(by_sw, [c0] * (m - n), arrow, c0):
            pending = row0 + [tile.n if tile else c0 for tile in bottom]
            sub = solve_rows(pending, 1)
            if sub is None:
                continue
            rows, top = sub
            placements = [Placement(tile, n + 1 + i, 0)
                          for i, tile in enumerate(bottom) if tile]
            for placed in rows:
                placements.extend(placed)
            return Certificate(sort_placements(placements), m, top)
    return None


LETTERS = [letter("p"), letter("q")]
COLORS = (C0, ARROW_D, ARROW_R, *LETTERS)


def planted_case(rng):
    """A system holding the tiles of one random tiling over a random
    starting row, plus decoys that share a (south, west) pair with a
    planted tile and then run on to other colors, so rows branch and
    often dead-end.  The bounds are drawn around the planted size."""
    n, extra, height = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
    row0 = [rng.choice(LETTERS) for _ in range(n)]
    sides = set()
    souths = [C0] * extra
    west = ARROW_R
    for y in range(height + 1):
        norths = []
        for x, south in enumerate(souths):
            east = C0 if x == len(souths) - 1 else rng.choice(COLORS)
            north = C0 if y == height else rng.choice(COLORS)
            sides.add((north, east, south, west))
            norths.append(north)
            west = east
        souths = [ARROW_D] + row0 + norths if y == 0 else norths
        west = C0
    for north, east, south, west in list(sides):
        if rng.random() < 0.6:
            sides.add((rng.choice(COLORS), rng.choice(COLORS), south, west))
    tiles = [Tile(*key, name=f"t{i}") for i, key in enumerate(sorted(sides))]
    rng.shuffle(tiles)
    ts = TilingSystem(COLORS, tuple(tiles))
    return (ts, shaped_map(row0), n + extra + rng.randint(-1, 1),
            height + rng.randint(-1, 1))


def shaped_map(row):
    """A starting map of the shape forced search reads: the row at height 1
    with the down arrow first, and the right arrow on the vertical edge."""
    n = len(row)
    entries = [(((0, 1, "H"), ARROW_D), 1)]
    entries += [(((x, 1, "H"), color), 1) for x, color in enumerate(row, 1)]
    entries.append((((n + 1, 0, "V"), ARROW_R), 1))
    return EdgeMap(Z, entries)


def test_forced_search_matches_recursive_reference():
    rng = random.Random(20240611)
    found = exhausted = ambiguous = 0
    for _ in range(400):
        ts, f0, max_m, max_rows = planted_case(rng)
        pairs = [(tile.s, tile.w) for tile in ts.tiles]
        ambiguous += len(pairs) != len(set(pairs))
        expected = reference_forced_search(ts, f0, max_m, max_rows)
        assert forced_search(ts, f0, max_m, max_rows) == expected
        if expected is None:
            exhausted += 1
        else:
            found += 1
    # Enough of each kind that the comparison means something.
    assert found >= 40 and exhausted >= 40 and ambiguous >= 300


def test_forced_search_needs_no_recursion():
    script = textwrap.dedent("""
        import sys
        from tilechain import (build_accepting_tiling, compile_tiles,
                               forced_search, initial_map, unary_eraser)
        tm = unary_eraser()
        word = "a" * 150
        ts, f0 = compile_tiles(tm), initial_map(tm, word)
        built = build_accepting_tiling(tm, word, 8 * len(word) + 32)
        sys.setrecursionlimit(200)
        found = forced_search(ts, f0, built.width_m, built.rows)
        print(found == built)
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=str(SRC)),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"
