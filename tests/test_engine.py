"""Certificate construction, verification, audit, and color-only search."""

import itertools
import tracemalloc

import pytest

from tilechain import (Certificate, EdgeMap, EmptyInput, MalformedInput,
                       Placement, Ring, TuringMachine, Z,
                       build_accepting_tiling, builder_width, claims_audit,
                       compile_tiles, default_window, forced_search,
                       initial_map, parse_initial_shape, run, verify_zero)
from tilechain.machines import (BLANK, mini_eraser, right_walker,
                                two_symbol_eraser, unary_eraser)
from tilechain.tiling import (ARROW_D, ARROW_R, TRI_L, TRI_R, head, letter,
                              sort_placements, state)

from conftest import AWKWARD_LETTER, RUN_FUEL, awkward_eraser


@pytest.fixture(scope="module")
def unary_a(artifacts):
    return artifacts.pipeline("unary-eraser", "a")


class TestBuilder:
    def test_certificate_dimensions_follow_the_trace(self, unary_a):
        tm, ts, f0, cert = unary_a
        trace = run(tm, "a", RUN_FUEL)
        assert cert.width_m == builder_width(trace, 1)
        assert cert.rows == len(trace.configs)
        xs = {p.x for p in cert.placements}
        ys = {p.y for p in cert.placements}
        assert min(xs) == 0 and max(xs) == cert.width_m
        assert min(ys) == 0 and max(ys) == cert.rows

    def test_one_tile_per_position(self, unary_a):
        positions = [(p.x, p.y) for p in unary_a.cert.placements]
        assert len(positions) == len(set(positions))

    def test_verifies_over_several_rings(self, unary_a):
        tm, ts, _, cert = unary_a
        for ring in (Z, Ring(2), Ring(3)):
            f0 = initial_map(tm, "a", ring)
            assert verify_zero(f0, cert, ts)

    def test_fuel_exhaustion_returns_none(self):
        assert build_accepting_tiling(right_walker(), "a", 50) is None

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            build_accepting_tiling(unary_eraser(), "", RUN_FUEL)

    def test_unnormalized_accepting_configuration_rejected(self):
        # Accepts with the head parked on cell 1 and an 'a' left on tape.
        tm = TuringMachine(
            states=("q0", "qf"),
            tape_alphabet=("a", BLANK),
            input_alphabet=("a",),
            blank=BLANK,
            initial="q0",
            accepting="qf",
            transitions={("q0", "a"): ("qf", "a", "R"),
                         ("q0", BLANK): ("qf", BLANK, "R")},
        )
        with pytest.raises(ValueError, match="not all-blank at cell 0"):
            build_accepting_tiling(tm, "a", RUN_FUEL)

    def test_accepting_configuration_is_checked_before_the_tiles(self):
        # This table writes a letter outside its alphabet, which
        # compile_tiles refuses; the run's refusal comes first.
        tm = TuringMachine(
            states=("q0", "qf"),
            tape_alphabet=("a", BLANK),
            input_alphabet=("a",),
            blank=BLANK,
            initial="q0",
            accepting="qf",
            transitions={("q0", "a"): ("qf", "z", "R"),
                         ("q0", BLANK): ("qf", BLANK, "R")},
        )
        with pytest.raises(ValueError, match="not in color set"):
            compile_tiles(tm)
        with pytest.raises(ValueError, match="not all-blank at cell 0"):
            build_accepting_tiling(tm, "a", RUN_FUEL)

    def test_partial_mini_eraser_accepts_cleanly(self, artifacts):
        """The tiny two-rule machine happens to halt blank-at-zero, so the
        builder takes it without normalization."""
        tm, ts, f0, cert = artifacts.pipeline("mini-raw", "a")
        assert verify_zero(f0, cert, ts)


class TestVerify:
    def test_mutations_break_the_sum(self, unary_a):
        tm, ts, f0, cert = unary_a
        dropped = Certificate(cert.placements[1:], cert.width_m, cert.rows)
        assert not verify_zero(f0, dropped, ts)
        moved = Certificate(
            (Placement(cert.placements[0].tile,
                       cert.placements[0].x + 1,
                       cert.placements[0].y),) + cert.placements[1:],
            cert.width_m, cert.rows)
        assert not verify_zero(f0, moved, ts)

    def test_wrong_word_rejected(self, unary_a):
        tm, ts, _, cert = unary_a
        assert not verify_zero(initial_map(tm, "aa", Z), cert, ts)


class TestAudit:
    def test_clean_certificate_has_no_flags(self, unary_a):
        report = claims_audit(unary_a.cert, unary_a.f0)
        assert report.ok and report.flags == ()

    def test_flag_kinds(self, unary_a):
        _, ts, f0, cert = unary_a
        some = cert.placements[5]

        def with_extra(placement):
            return Certificate((*cert.placements, placement),
                               cert.width_m, cert.rows)

        below = with_extra(Placement(some.tile, 1, -1))
        kinds = {f.kind for f in claims_audit(below, f0).flags}
        assert "outside-region" in kinds

        floor_gap = with_extra(Placement(some.tile, 1, 0))
        kinds = {f.kind for f in claims_audit(floor_gap, f0).flags}
        assert "outside-region" in kinds  # floor cells left of the word's end

        raised = with_extra(Placement(ts.tile_named("b0"), 1, 2))
        kinds = {f.kind for f in claims_audit(raised, f0).flags}
        assert "floor-tile-raised" in kinds

        far = with_extra(Placement(some.tile, cert.width_m + 1, 1))
        kinds = {f.kind for f in claims_audit(far, f0).flags}
        assert "outside-columns" in kinds

        stacked = with_extra(some)
        flags = claims_audit(stacked, f0).flags
        assert any(f.kind == "stacked" and (f.x, f.y) == (some.x, some.y)
                   for f in flags)

    def test_malformed_input_short_circuits(self, unary_a):
        bad = EdgeMap(Z, [(((0, 1, "H"), ARROW_D), 2)])
        report = claims_audit(unary_a.cert, bad)
        assert [f.kind for f in report.flags] == ["malformed-input"]

    def test_default_window(self, unary_a):
        cert = unary_a.cert
        assert default_window(cert) == (0, 0, cert.width_m, cert.rows)


class TestParseInitialShape:
    def test_reads_back_the_rendered_word(self):
        tm = unary_eraser()
        n, row, arrow = parse_initial_shape(initial_map(tm, "aaa"))
        assert n == 3
        assert arrow == ARROW_R
        assert row == [ARROW_D, head("q0", "a"), letter("a"), letter("a")]

    def test_rejections(self):
        tm = unary_eraser()
        good = initial_map(tm, "aa")
        entries = list(good.support())

        with pytest.raises(MalformedInput, match="entry value"):
            parse_initial_shape(EdgeMap(Z, [(entries[0][0], 2)]))
        with pytest.raises(MalformedInput, match="missing vertical entry"):
            parse_initial_shape(EdgeMap(Z, [e for e in entries
                                            if e[0][0][2] == "H"]))
        doubled = entries + [((((5, 0, "V")), ARROW_R), 1)]
        with pytest.raises(MalformedInput, match="more than one vertical"):
            parse_initial_shape(EdgeMap(Z, doubled))
        shifted = [(((x + 1, y, o), c), v)
                   for (((x, y, o), c), v) in entries]
        with pytest.raises(MalformedInput):
            parse_initial_shape(EdgeMap(Z, shifted))
        raised = entries + [(((0, 2, "H"), ARROW_D), 1)]
        with pytest.raises(MalformedInput,
                           match=r"unexpected horizontal entry at \(0,2\)"):
            parse_initial_shape(EdgeMap(Z, raised))
        lifted = [(((x, y + (o == "V"), o), c), v)
                  for (((x, y, o), c), v) in entries]
        with pytest.raises(MalformedInput, match=r"vertical entry at \(3,1\)"):
            parse_initial_shape(EdgeMap(Z, lifted))
        swapped = [(((x, y, o), ARROW_D if c == ARROW_R else c), v)
                   for (((x, y, o), c), v) in entries]
        with pytest.raises(MalformedInput, match="missing start or end arrow"):
            parse_initial_shape(EdgeMap(Z, swapped))

    def test_far_vertical_entry_is_malformed(self):
        # The row would have to run from 0 to 2**70 - 1; nothing of that
        # length may be built to find out that it does not.
        far = EdgeMap(Z, [(((2**70 if o == "V" else x, y, o), c), v)
                          for (((x, y, o), c), v)
                          in initial_map(unary_eraser(), "a").support()])
        with pytest.raises(MalformedInput,
                           match="row positions not contiguous from 0"):
            parse_initial_shape(far)


class TestForcedSearch:
    def test_reproduces_the_builder_exactly(self, artifacts):
        for name, word in [("mini-raw", "a"), ("unary-eraser", "aa")]:
            cert = artifacts.pipeline(name, word).cert
            found = artifacts.forced(name, word, cert.width_m, cert.rows)
            assert found is not None
            assert found.placements == cert.placements
            assert (found.width_m, found.rows) == (cert.width_m, cert.rows)

    def test_negative_within_bounds(self, artifacts):
        assert artifacts.forced("right-walker", "a", 8, 12) is None

    def test_bounds_too_tight_miss_the_certificate(self, artifacts):
        cert = artifacts.pipeline("unary-eraser", "a").cert
        assert artifacts.forced("unary-eraser", "a",
                                cert.width_m, cert.rows - 1) is None


def reference_build(tm, word, fuel):
    """The builder as it was before each carry tile was picked once: one
    ``letter`` and one side lookup per cell, then a sort."""
    symbols = list(word)
    trace = run(tm, symbols, fuel)
    ts = compile_tiles(tm)
    by_sides = {t.sides(): t for t in ts.tiles}

    def pick(n_, e_, s_, w_):
        return by_sides[(n_, e_, s_, w_)]

    n = len(symbols)
    m = builder_width(trace, n)
    blank = tm.blank
    placements = []
    for x in range(n + 1, m):
        placements.append(Placement(ts.tile_named("b0"), x, 0))
    placements.append(Placement(ts.tile_named("b1"), m, 0))
    b7 = ts.tile_named("b7")
    b2 = ts.tile_named("b2")
    for y in range(1, len(trace.configs)):
        config = trace.configs[y - 1]
        assert len(config.tape) <= m - 1

        def cell(k):
            return config.tape[k] if k < len(config.tape) else blank

        q, head_pos = config.state, config.head
        a = cell(head_pos)
        p, b, move = tm.transitions[(q, a)]
        j = head_pos + 1
        row = {0: b7, m: b2}
        if move == "L":
            row[j] = pick(letter(b), TRI_R, head(q, a), state(p))
            row[j - 1] = pick(head(p, cell(head_pos - 1)), state(p),
                              letter(cell(head_pos - 1)), TRI_L)
            left_end, right_start = j - 2, j + 1
        else:
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


def spelled(cert):
    """Every placement with its tile's name, which certificate equality
    ignores, plus the dimensions."""
    return ([(p.tile.name, p.tile.sides(), p.x, p.y)
             for p in cert.placements], cert.width_m, cert.rows)


class TestBuilderReference:
    @pytest.mark.parametrize("n", [1, 5, 16, 40])
    def test_unary(self, n):
        tm, word = unary_eraser(), "a" * n
        fuel = 64 * (n + 2)
        assert spelled(build_accepting_tiling(tm, word, fuel)) == \
            spelled(reference_build(tm, word, fuel))

    @pytest.mark.parametrize("word", ["ab", "aab", "abba", "abbb", "abab" * 5])
    def test_two_symbol(self, word):
        tm, fuel = two_symbol_eraser(), 64 * (len(word) + 2)
        assert spelled(build_accepting_tiling(tm, word, fuel)) == \
            spelled(reference_build(tm, word, fuel))

    def test_corpus_words(self, artifacts):
        for name, word in artifacts.accepted_pairs():
            tm = artifacts.machines[name]
            assert spelled(artifacts.pipeline(name, word).cert) == \
                spelled(reference_build(tm, word, RUN_FUEL)), (name, word)

    def test_names_with_markup_and_format_syntax(self):
        tm, word = awkward_eraser(), [AWKWARD_LETTER] * 4
        assert spelled(build_accepting_tiling(tm, word, RUN_FUEL)) == \
            spelled(reference_build(tm, word, RUN_FUEL))

    def test_two_symbol_words_up_to_length_six(self):
        tm, accepted = two_symbol_eraser(), 0
        for n in range(1, 7):
            for word in itertools.product("ab", repeat=n):
                fuel = 64 * (n + 2)
                if run(tm, word, fuel) is None:
                    continue
                accepted += 1
                assert spelled(build_accepting_tiling(tm, word, fuel)) == \
                    spelled(reference_build(tm, word, fuel)), word
        assert accepted == 63

    def test_a_long_build_keeps_one_row_buffer(self):
        # The build holds the run's changes and one row of cells, about
        # 2 MB here; a padded tape per step (2,050 of them, of 1,025 cells)
        # traced about 19 MB.
        build_accepting_tiling(unary_eraser(), "a", RUN_FUEL)
        tracemalloc.start()
        try:
            cert = build_accepting_tiling(unary_eraser(), "a" * 1024,
                                          64 * 1026)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert is not None
        assert peak < 5_000_000
