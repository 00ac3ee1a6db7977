"""Forced deduction against a plain recursive reference, and without recursion."""

import functools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tilechain import (EdgeMap, Z, build_accepting_tiling, compile_tiles,
                       initial_map, verify_zero)
from tilechain.deduce import (_RowDeducer, _width_search, forced_search,
                              parse_initial_shape)
from tilechain.machines import right_walker, two_symbol_eraser, unary_eraser
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

    # The rows above a pending row depend on nothing but that row and its
    # height, so each answer is cached; the first answer is the same.
    @functools.cache
    def solve_rows(pending, y):
        if all(color == c0 for color in pending):
            return [], y - 1
        if y > max_rows:
            return None
        for assignment in reference_assignments(by_sw, pending, c0, c0):
            norths = [tile.n if tile else c0 for tile in assignment]
            sub = solve_rows(tuple(norths), y + 1)
            if sub is not None:
                rows, top = sub
                placed = [Placement(tile, x, y)
                          for x, tile in enumerate(assignment) if tile]
                return [placed] + rows, top
        return None

    for m in range(n + 1, max_m + 1):
        for bottom in reference_assignments(by_sw, [c0] * (m - n), arrow, c0):
            pending = row0 + [tile.n if tile else c0 for tile in bottom]
            sub = solve_rows(tuple(pending), 1)
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


def planted_case(rng, spare_widths=1, spare_rows=1):
    """A system holding the tiles of one random tiling over a random
    starting row, plus decoys that share a (south, west) pair with a
    planted tile and then run on to other colors, so rows branch and
    often dead-end.  The bounds are drawn from one below the planted size
    to ``spare_widths`` and ``spare_rows`` above it."""
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
    for north, east, south, west in sorted(sides):
        if rng.random() < 0.6:
            sides.add((rng.choice(COLORS), rng.choice(COLORS), south, west))
    tiles = [Tile(*key, name=f"t{i}") for i, key in enumerate(sorted(sides))]
    rng.shuffle(tiles)
    ts = TilingSystem(COLORS, tuple(tiles))
    return (ts, shaped_map(row0), n + extra + rng.randint(-1, spare_widths),
            height + rng.randint(-1, spare_rows))


def slack_case(rng):
    """A planted case whose bounds may leave up to 8 widths and 4 rows
    spare, so that galloping probes widths past the narrowest one."""
    return planted_case(rng, spare_widths=8, spare_rows=4)


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


@functools.cache
def slack_answers():
    """Three hundred seeded slack cases with the reference's answers,
    worked out once for the tests that share them."""
    rng = random.Random(20261019)
    cases = [slack_case(rng) for _ in range(300)]
    return [(case, reference_forced_search(*case)) for case in cases]


def test_slack_forced_search_matches_recursive_reference():
    found = exhausted = past_first = 0
    for (ts, f0, max_m, max_rows), expected in slack_answers():
        assert forced_search(ts, f0, max_m, max_rows) == expected
        if expected is None:
            exhausted += 1
        else:
            found += 1
            n = parse_initial_shape(f0)[0]
            past_first += expected.width_m > n + 1
    assert found >= 40 and exhausted >= 40 and past_first >= 20


def test_certificates_persist_at_wider_widths():
    # The lemma that galloping rests on: an empty column on the right keeps
    # a certificate one.  Below the narrowest width with a certificate the
    # search finds none, and at it the search finds one; the narrowest
    # certificate, padded out, cancels the map at every width up to the
    # bound, so each of those widths has a certificate within the row
    # bound, and the search, exhaustive within its bounds, answers yes
    # there.  So whether the search finds a certificate never goes from
    # yes to no as the width grows.  (Where the reference finds no width,
    # every answer is no.)
    turns = 0
    for (ts, f0, max_m, max_rows), expected in slack_answers():
        if expected is None:
            continue
        n, row0, arrow = parse_initial_shape(f0)
        narrowest = expected.width_m
        deducer = _RowDeducer(ts)
        widths = range(n + 1, narrowest + 1)
        seen = [_width_search(deducer, row0, arrow, m, max_rows) is not None
                for m in widths]
        assert seen == [m == narrowest for m in widths]
        turns += n + 1 < narrowest < max_m
        for wider in range(narrowest, max_m + 1):
            padded = Certificate(expected.placements, wider, expected.rows)
            assert verify_zero(f0, padded, ts)
    assert turns >= 20


@pytest.mark.parametrize("length", range(1, 10))
def test_narrowest_width_anywhere_in_the_bounds(length):
    # The bottom row is a chain of ``length`` tiles linked by their east
    # colors, so the narrowest certificate is ``length`` columns past the
    # word, and every wider width has it padded.  Over the lengths the
    # narrowest width is a galloping probe or lies between two of them,
    # up to the capped last probe.
    p = letter("p")
    links = [letter(f"k{i}") for i in range(1, length)]
    wests, easts = [ARROW_R, *links], [*links, C0]
    tiles = [Tile(C0, east, C0, west) for west, east in zip(wests, easts)]
    tiles += [Tile(C0, C0, ARROW_D, C0), Tile(C0, C0, p, C0)]
    ts = TilingSystem((C0, ARROW_D, ARROW_R, p, *links), tuple(tiles))
    f0 = shaped_map([p, p])
    expected = reference_forced_search(ts, f0, 2 + 12, 2)
    assert expected.width_m == 2 + length
    assert forced_search(ts, f0, 2 + 12, 2) == expected


MACHINES = {"unary": unary_eraser, "two-symbol": two_symbol_eraser,
            "walker": right_walker}


def corpus_cases():
    """Corpus machines with bounds that leave spare widths: accepted words
    up to 8 widths and 4 rows past their certificate, and rejected words
    at the smallest bounds the certify benchmark gives its rejects."""
    cases = [("unary", "a" * k, spare)
             for k in range(1, 7) for spare in (0, 3, 8)]
    cases += [("two-symbol", word, 8) for word in ("ab", "aab", "abb", "abab")]
    cases += [("two-symbol", word, 12) for word in ("b", "ba", "bab", "bba")]
    cases += [("walker", "a" * k, 14) for k in range(1, 4)]
    return cases


@pytest.mark.parametrize("machine,word,spare", corpus_cases())
def test_corpus_with_spare_widths_matches_reference(machine, word, spare):
    tm = MACHINES[machine]()
    ts, f0 = compile_tiles(tm), initial_map(tm, word)
    built = build_accepting_tiling(tm, word, 8 * len(word) + 32)
    if built is None:
        max_m, max_rows = len(word) + spare, spare
    else:
        max_m, max_rows = built.width_m + spare, built.rows + spare // 2
    expected = reference_forced_search(ts, f0, max_m, max_rows)
    assert (expected is None) == (built is None)
    assert forced_search(ts, f0, max_m, max_rows) == expected


class TestRowsOpened:
    """Row enumerations one rejected search opens, counted by wrapping
    ``_RowDeducer.rows``."""

    @pytest.fixture
    def opened(self, monkeypatch):
        calls = []
        rows = _RowDeducer.rows

        def counted(deducer, souths, west):
            calls.append(souths)
            return rows(deducer, souths, west)

        monkeypatch.setattr(_RowDeducer, "rows", counted)
        return calls

    # A search per width from n+1 up opened 39,709 and 1,976 rows on these
    # two inputs; probing the widths opens 2,673 and 501.  The exact counts
    # pin the depth-first order: a row deduced in another order, or an
    # assignment dropped or repeated, opens a different number of rows.
    @pytest.mark.parametrize("tm,word,max_m,max_rows,threshold,count", [
        (right_walker(), "aa", 62, 60, 3000, 2673),
        (two_symbol_eraser(), "bab", 23, 20, 600, 501),
    ], ids=("walker-aa", "two-symbol-bab"))
    def test_widths_are_probed_not_walked(self, opened, tm, word, max_m,
                                          max_rows, threshold, count):
        ts, f0 = compile_tiles(tm), initial_map(tm, word)
        assert forced_search(ts, f0, max_m, max_rows) is None
        assert 0 < len(opened) <= threshold
        assert len(opened) == count


def test_long_unary_word_found_as_runs():
    # Rows of a×512 are a few long runs each; the search deduces them run
    # by run and must still give back the built certificate, run for run.
    tm, word = unary_eraser(), "a" * 512
    built = build_accepting_tiling(tm, word, 8 * len(word) + 32)
    found = forced_search(compile_tiles(tm), initial_map(tm, word),
                          built.width_m, built.rows)
    assert found == built and found.runs() == built.runs()
