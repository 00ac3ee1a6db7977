"""Colors, tiles, tiling systems, certificates, and the machine compiler."""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

from tilechain import (C0, Certificate, Color, EmptyInput, Placement, Tile,
                       TilingSystem, build_accepting_tiling, color_from_str,
                       color_glyph, color_sort_key, color_to_str,
                       compile_tiles, dump_certificate, dump_system,
                       forced_search, head, initial_map, letter,
                       load_certificate, load_system, machine_colors,
                       normalize, sort_placements, state, tiling)
from tilechain.compiler import boundary_tiles
from tilechain.machines import (corpus, mini_eraser, two_symbol_eraser,
                                unary_eraser)
from tilechain.tiling import (ARROW_D, ARROW_L, ARROW_R, ARROW_U, DIAG,
                              TRI_L, TRI_R, certificate_from_dict,
                              certificate_to_dict, system_from_dict,
                              tile_from_dict, tile_to_dict)

from test_deduce import MACHINES, corpus_cases


def all_machines():
    return {**corpus(), "mini-eraser": normalize(mini_eraser())}


class TestColors:
    def test_str_round_trip_every_kind(self):
        samples = [C0, DIAG, ARROW_R, ARROW_U, ARROW_L, ARROW_D, TRI_L,
                   TRI_R, state("q0"), letter("_"), head("q0", "a")]
        for color in samples:
            assert color_from_str(color_to_str(color)) == color

    def test_str_forms(self):
        assert color_to_str(state("q0")) == "q:q0"
        assert color_to_str(letter("a")) == "a:a"
        assert color_to_str(head("q0", "a")) == "qa:q0,a"
        assert color_to_str(ARROW_L) == "L-arrow"

    def test_unknown_string_rejected(self):
        with pytest.raises(ValueError, match="unknown color string"):
            color_from_str("purple")

    def test_malformed_head_rejected(self):
        with pytest.raises(ValueError, match="malformed head color"):
            color_from_str("qa:q0")

    def test_sort_key_kind_order(self):
        ordered = [letter("a"), state("q"), head("q", "a"), ARROW_R,
                   ARROW_U, ARROW_L, ARROW_D, DIAG, TRI_L, TRI_R, C0]
        keys = [color_sort_key(c) for c in ordered]
        assert keys == sorted(keys)

    def test_glyphs(self):
        assert color_glyph(C0) == "."
        assert color_glyph(ARROW_R) == ">"
        assert color_glyph(TRI_R) == "|>"
        assert color_glyph(TRI_L) == "<|"
        assert color_glyph(head("q0", "a")) == "q0.a"


class TestTile:
    def test_equality_ignores_name(self):
        a = Tile(C0, C0, C0, C0, name="one")
        b = Tile(C0, C0, C0, C0, name="two")
        assert a == b and hash(a) == hash(b)

    def test_sides_order(self):
        t = Tile(n=letter("a"), e=TRI_R, s=letter("b"), w=TRI_L)
        assert t.sides() == (letter("a"), TRI_R, letter("b"), TRI_L)

    def test_json_round_trip(self):
        t = Tile(head("q", "a"), state("q"), letter("a"), TRI_L, name="x")
        assert tile_from_dict(tile_to_dict(t)) == t
        assert tile_from_dict(tile_to_dict(t)).name == "x"

    def test_unknown_tile_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown tile fields"):
            tile_from_dict({"n": "c0", "e": "c0", "s": "c0", "w": "c0",
                            "weight": 3})


class TestTilingSystem:
    def test_duplicate_colors_rejected(self):
        with pytest.raises(ValueError, match="duplicate colors"):
            TilingSystem(colors=(C0, C0), tiles=())

    def test_distinguished_must_be_present(self):
        with pytest.raises(ValueError, match="distinguished color missing"):
            TilingSystem(colors=(letter("a"),), tiles=())

    def test_tile_sides_must_be_in_color_set(self):
        with pytest.raises(ValueError, match="not in color set"):
            TilingSystem(colors=(C0,),
                         tiles=(Tile(letter("a"), C0, C0, C0),))

    def test_duplicate_tiles_rejected(self):
        with pytest.raises(ValueError, match="duplicate tile"):
            TilingSystem(colors=(C0,),
                         tiles=(Tile(C0, C0, C0, C0, name="p"),
                                Tile(C0, C0, C0, C0, name="q")))

    def test_tile_named(self):
        ts = compile_tiles(unary_eraser())
        assert ts.tile_named("b0").w == ARROW_R
        with pytest.raises(KeyError):
            ts.tile_named("nope")

    def test_tile_named_takes_the_first_of_equal_names(self):
        first = Tile(C0, C0, C0, letter("a"), name="p")
        second = Tile(C0, C0, C0, letter("b"), name="p")
        unnamed = Tile(C0, C0, letter("a"), C0)
        ts = TilingSystem((C0, letter("a"), letter("b")),
                          (unnamed, first, second, Tile(C0, C0, C0, C0)))
        assert ts.tile_named("p").w == letter("a")
        assert ts.tile_named("") is unnamed
        with pytest.raises(KeyError) as missing:
            ts.tile_named("q")
        assert missing.value.args == ("q",)
        assert "_by_name" not in repr(ts)

    def test_index_of_matches_tuple_position(self):
        ts = compile_tiles(unary_eraser())
        for i, tile in enumerate(ts.tiles):
            assert ts.index_of(tile) == i

    def test_index_of_names_an_unknown_tile(self):
        ts = compile_tiles(unary_eraser())
        stranger = Tile(C0, C0, C0, letter("z"), name="z")
        with pytest.raises(ValueError,
                           match=r"tile Tile\(.*name='z'\) is not in the "
                                 r"system"):
            ts.index_of(stranger)
        # The label is not part of a tile, so a renamed tile is found.
        tile = ts.tiles[3]
        assert ts.index_of(Tile(*tile.sides(), name="renamed")) == 3

    def test_index_map_is_not_part_of_the_value(self):
        ts = compile_tiles(unary_eraser())
        twin = TilingSystem(ts.colors, ts.tiles, ts.distinguished)
        assert twin == ts and hash(twin) == hash(ts)
        assert "_index" not in repr(ts)
        assert "_index" not in dump_system(ts)


class TestCompiler:
    def test_tile_count_formula(self):
        for tm in all_machines().values():
            ts = compile_tiles(tm)
            gamma = len(tm.tape_alphabet)
            states_n = len(tm.states)
            expected = 2 * gamma + 2 * gamma * states_n \
                + len(tm.transitions) + 8
            assert len(ts.tiles) == expected

    def test_color_set_contents(self):
        tm = unary_eraser()
        colors = machine_colors(tm)
        assert set(colors) == (
            {letter(a) for a in tm.tape_alphabet}
            | {state(q) for q in tm.states}
            | {head(q, a) for q in tm.states for a in tm.tape_alphabet}
            | {ARROW_R, ARROW_U, ARROW_L, ARROW_D, DIAG, TRI_L, TRI_R, C0})
        keys = [color_sort_key(c) for c in colors]
        assert keys == sorted(keys)

    def test_boundary_tiles_are_named_b0_to_b7(self):
        names = [t.name for t in boundary_tiles(unary_eraser())]
        assert names == [f"b{i}" for i in range(8)]

    def test_tile_names_are_unique(self):
        for tm in all_machines().values():
            names = [t.name for t in compile_tiles(tm).tiles]
            assert len(names) == len(set(names))

    def test_action_tile_shape(self):
        tm = unary_eraser()
        ts = compile_tiles(tm)
        # (q0, a) -> (qs, a, R): right mover emits the successor east.
        tile = ts.tile_named("act[q0,a]")
        assert tile.s == head("q0", "a")
        assert tile.n == letter("a")
        assert tile.e == state("qs") and tile.w == TRI_L

    def test_initial_map_shape(self):
        tm = unary_eraser()
        f0 = initial_map(tm, "aa")
        entries = dict(f0.support())
        assert entries == {
            (((0, 1, "H"), ARROW_D)): 1,
            (((1, 1, "H"), head("q0", "a"))): 1,
            (((2, 1, "H"), letter("a"))): 1,
            (((3, 0, "V"), ARROW_R)): 1,
        }

    def test_initial_map_rejects_empty_word(self):
        with pytest.raises(EmptyInput):
            initial_map(unary_eraser(), "")

    def test_initial_map_rejects_foreign_symbols(self):
        with pytest.raises(ValueError, match="not in input alphabet"):
            initial_map(unary_eraser(), "ab")


class TestSerialization:
    def test_system_round_trip(self):
        ts = compile_tiles(unary_eraser())
        again = load_system(dump_system(ts))
        assert again == ts
        assert [t.name for t in again.tiles] == [t.name for t in ts.tiles]

    def test_system_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown tiling system fields"):
            system_from_dict({"colors": [], "tiles": [], "mood": "glad"})

    def test_certificate_round_trip_inline_tiles(self):
        ts = compile_tiles(unary_eraser())
        cert = Certificate(
            sort_placements([Placement(ts.tile_named("b0"), 2, 0),
                             Placement(ts.tile_named("b1"), 3, 0)]), 3, 0)
        again = load_certificate(dump_certificate(cert))
        assert again == cert

    def test_certificate_named_tiles_need_a_system(self):
        ts = compile_tiles(unary_eraser())
        data = {"m": 3, "rows": 0,
                "placements": [{"tile": "b0", "x": 2, "y": 0}]}
        cert = certificate_from_dict(data, ts)
        assert cert.placements[0].tile == ts.tile_named("b0")
        with pytest.raises(ValueError, match="no tiling system given"):
            certificate_from_dict(data)
        # A name the system lacks is bad input, not a KeyError.
        data["placements"][0]["tile"] = "nope"
        with pytest.raises(ValueError, match="names tile 'nope'"):
            certificate_from_dict(data, ts)

    def test_certificate_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown certificate fields"):
            certificate_from_dict({"m": 1, "rows": 1, "placements": [],
                                   "z": 0})

    @pytest.mark.parametrize("row, message", [
        ({"junk": 5}, r"unknown placement fields: \['junk'\]"),
        ({"x": "3"}, "placement field 'x' must be an integer, not str"),
        ({"y": 1.5}, "placement field 'y' must be an integer, not float"),
        ({"x": True}, "placement field 'x' must be an integer, not bool"),
        ({"y": None}, "placement field 'y' must be an integer, not NoneType"),
    ])
    def test_malformed_placement_rows_rejected(self, row, message):
        good = {"tile": tile_to_dict(Tile(C0, C0, C0, C0)), "x": 0, "y": 0}
        data = {"m": 1, "rows": 0, "placements": [good, dict(good, **row)]}
        with pytest.raises(ValueError, match=message):
            certificate_from_dict(data)

    @pytest.mark.parametrize("field, value, kind", [
        ("m", "3", "str"), ("rows", 2.0, "float"), ("m", False, "bool")])
    def test_non_integer_dimensions_rejected(self, field, value, kind):
        data = {"m": 1, "rows": 0, "placements": [], field: value}
        with pytest.raises(ValueError, match=f"certificate field '{field}' "
                                             f"must be an integer, not {kind}"):
            certificate_from_dict(data)

    @pytest.mark.parametrize("field, value, kind", [
        ("x", 1.0, "float"), ("x", Fraction(1), "Fraction"),
        ("x", True, "bool"), ("y", 0.0, "float"),
        ("y", Fraction(1, 2), "Fraction"), ("y", False, "bool"),
        ("m", 1.0, "float"), ("m", True, "bool"),
        ("rows", 0.0, "float"), ("rows", False, "bool")])
    def test_certificate_refuses_what_the_loader_refuses(self, field, value,
                                                         kind):
        t = Tile(C0, C0, C0, C0)
        cell = {"x": 1, "y": 0}
        size = {"m": 1, "rows": 0}
        where = "placement" if field in cell else "certificate"
        (cell if field in cell else size)[field] = value
        message = (f"{where} field '{field}' must be an integer, "
                   f"not {kind}")
        with pytest.raises(ValueError) as caught:
            Certificate((Placement(t, 0, 0), Placement(t, cell["x"],
                                                       cell["y"])),
                        size["m"], size["rows"])
        assert str(caught.value) == message
        data = {**size, "placements": [
            {"tile": tile_to_dict(t), "x": 0, "y": 0},
            {"tile": tile_to_dict(t), **cell}]}
        with pytest.raises(ValueError) as caught:
            certificate_from_dict(data)
        assert str(caught.value) == message

    def test_missing_placement_field_is_named(self):
        with pytest.raises(ValueError,
                           match=r"missing placement fields: \['y'\]"):
            certificate_from_dict({"m": 1, "rows": 0, "placements": [
                {"tile": tile_to_dict(Tile(C0, C0, C0, C0)), "x": 0}]})

    def test_sort_placements_is_row_major(self):
        t = Tile(C0, C0, C0, C0)
        placements = [Placement(t, 1, 1), Placement(t, 0, 0),
                      Placement(t, 0, 1), Placement(t, 1, 0)]
        sorted_ = sort_placements(placements)
        assert [(p.x, p.y) for p in sorted_] == [(0, 0), (1, 0),
                                                 (0, 1), (1, 1)]

    def test_certificate_to_dict_orders_placements(self):
        t = Tile(C0, C0, C0, C0)
        cert = Certificate((Placement(t, 1, 1), Placement(t, 0, 0)), 1, 1)
        data = certificate_to_dict(cert)
        assert [(row["x"], row["y"]) for row in data["placements"]] \
            == [(0, 0), (1, 1)]


def reference_dump(cert):
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


class TestCertificateDump:
    """dump_certificate renders each tile block once; its bytes must be
    those of the plain json.dumps of certificate_to_dict."""

    @pytest.mark.parametrize("name, word", [("unary-eraser", "aaa"),
                                            ("two-symbol-eraser", "abba"),
                                            ("mini-eraser", "a")])
    def test_built_certificates(self, artifacts, name, word):
        cert = artifacts.pipeline(name, word).cert
        text = dump_certificate(cert)
        assert text == reference_dump(cert)
        assert load_certificate(text) == cert

    def test_empty_certificate(self):
        cert = Certificate((), 0, 0)
        assert dump_certificate(cert) == reference_dump(cert)
        assert load_certificate(dump_certificate(cert)) == cert

    def test_negative_and_non_integer_coordinates(self):
        # Negative integers round-trip; a coordinate that is not an int is
        # refused by the certificate and by the loader with one text.
        t = Tile(letter("a"), ARROW_R, C0, DIAG, name="t")
        cert = Certificate((Placement(t, -3, 2), Placement(t, 0, -1),
                            Placement(t, -12, -7)), -2, -5)
        text = dump_certificate(cert)
        assert text == reference_dump(cert)
        assert tuple(load_certificate(text).placements) == \
            sort_placements(cert.placements)
        bent = (*cert.placements, Placement(t, 1.5, -1))
        message = "placement field 'x' must be an integer, not float"
        with pytest.raises(ValueError, match=message):
            Certificate(bent, -2, -5)
        data = {"m": -2, "rows": -5, "placements": [
            {"tile": tile_to_dict(p.tile), "x": p.x, "y": p.y} for p in bent]}
        with pytest.raises(ValueError, match=message):
            load_certificate(json.dumps(data))

    def test_awkward_names(self):
        names = ['say "hi"', "back\\slash", "caf\u00e9 \u2192 \U0001f600",
                 "tab\tnew\nline", ""]
        tiles = [Tile(letter(str(i)), C0, C0, C0, name=name)
                 for i, name in enumerate(names)]
        cert = Certificate(tuple(Placement(t, x, 0)
                                 for x, t in enumerate(tiles)), 5, 0)
        text = dump_certificate(cert)
        assert text == reference_dump(cert)
        assert [p.tile.name for p in load_certificate(text).placements] \
            == names

    def test_equal_colors_different_names(self):
        first = Tile(C0, letter("a"), C0, ARROW_R, name="first")
        second = Tile(C0, letter("a"), C0, ARROW_R, name="second")
        assert first == second
        cert = Certificate((Placement(first, 0, 0), Placement(second, 1, 0),
                            Placement(first, 2, 0)), 2, 0)
        text = dump_certificate(cert)
        assert text == reference_dump(cert)
        assert [p.tile.name for p in load_certificate(text).placements] \
            == ["first", "second", "first"]

    def test_load_errors_unchanged(self):
        good = tile_to_dict(Tile(C0, C0, C0, C0))
        bad_tiles = [(dict(good, colour="c0"), "unknown tile fields"),
                     (dict(good, n="q-nope"), "unknown color string"),
                     (dict(good, e=["c0"]),
                      "a color must be a string, not list"),
                     (["not", "a", "dict"],
                      "tile must be a JSON object, not list")]
        for bad, message in bad_tiles:
            with pytest.raises(Exception, match=message) as direct:
                tile_from_dict(bad)
            data = {"m": 1, "rows": 0,
                    "placements": [{"tile": good, "x": 0, "y": 0},
                                   {"tile": bad, "x": 1, "y": 0}]}
            with pytest.raises(Exception) as loaded:
                load_certificate(json.dumps(data))
            assert type(loaded.value) is type(direct.value)
            assert str(loaded.value) == str(direct.value)
        with pytest.raises(ValueError, match="no tiling system given"):
            load_certificate(json.dumps({"m": 1, "rows": 0, "placements": [
                {"tile": "b0", "x": 0, "y": 0}]}))


# -- the canonical reader -----------------------------------------------------

def json_path(text, ts=None):
    """load_certificate's fallback, called directly."""
    return certificate_from_dict(json.loads(text), ts)


def refuse_json(*args, **kwargs):
    raise AssertionError("json.loads called")


def summary(cert):
    """A certificate as readers are compared on it: the size, and each run
    with its tile's name and the first run that holds the same tile
    object."""
    first = {}
    runs = [(tile, tile.name, first.setdefault(id(tile), i), x0, y, count)
            for i, (tile, x0, y, count) in enumerate(cert.runs())]
    return ("value", cert.width_m, cert.rows, runs)


def read(load, text, ts=None):
    """The summary of ``load(text, ts)``, or the type and text of what it
    raised."""
    try:
        cert = load(text, ts)
    except Exception as exc:   # compared, never swallowed
        return ("raised", type(exc), str(exc))
    return summary(cert)


PLAIN = "".join(c for c in map(chr, range(32, 127)) if c not in '"\\')


def special_certificates():
    """Certificates the builders do not make: a tile named with every
    character the layout keeps as it is, an unnamed tile, negative
    coordinates, runs across a change of digit count both ways, runs
    broken by a tile whose entries are as long, so that entries past it
    stand where the run's would, no placements, and placements that need
    sorting."""
    ts = compile_tiles(unary_eraser())
    a = Tile(letter("a"), C0, C0, C0, name="ta")
    b = Tile(letter("b"), C0, C0, C0, name="tb")
    plain = Tile(letter("p"), C0, C0, C0, name=PLAIN)
    unnamed = Tile(letter("u"), C0, C0, C0)
    cells = [Placement(b if x in (-50, -7) else a, x, -1)
             for x in range(-112, 3)]
    cells += [Placement(b if x == 12 else a, x, 0) for x in range(5, 40)]
    cells += [Placement(plain, x, 1) for x in (-3, -2, 7, 8, 9, 10, 12)]
    cells += [Placement(unnamed, x, 2) for x in (98, 99, 100, 101)]
    unsorted = (Placement(b, 2, 1), Placement(a, 0, 0),
                Placement(a, 1, 0), Placement(b, 0, 1))
    return [("special", ts, Certificate(tuple(cells), -4, 7)),
            ("empty", ts, Certificate((), 0, 0)),
            ("unsorted", ts, Certificate(unsorted, 2, 1))]


@functools.cache
def canonical_certificates():
    """``(label, system, certificate)``: the unary eraser's on a×1…80, the
    two-symbol eraser's on every word of length 1…6 it accepts, forced
    search's on the corpus of test_deduce, and the special ones."""
    found = []
    unary = unary_eraser()
    for n in range(1, 81):
        found.append((f"a×{n}", compile_tiles(unary),
                      build_accepting_tiling(unary, "a" * n, 10 * n * n)))
    two = two_symbol_eraser()
    for n in range(1, 7):
        for letters in itertools.product("ab", repeat=n):
            word = "".join(letters)
            cert = build_accepting_tiling(two, word, 400)
            if cert is not None:
                found.append((word, compile_tiles(two), cert))
    for machine, word, spare in corpus_cases():
        tm = MACHINES[machine]()
        ts, f0 = compile_tiles(tm), initial_map(tm, word)
        built = build_accepting_tiling(tm, word, 8 * len(word) + 32)
        if built is not None:
            found.append((f"forced {machine} {word} +{spare}", ts,
                          forced_search(ts, f0, built.width_m + spare,
                                        built.rows + spare // 2)))
    return found + special_certificates()


def edits(text, rng, count):
    """``count`` seeded copies of ``text``, each with one character
    replaced, deleted or inserted, or one digit replaced by a digit, which
    mostly keeps the layout and moves a cell."""
    digits = [at for at, char in enumerate(text) if char.isdigit()]
    for _ in range(count):
        at = rng.randrange(len(text))
        char = rng.choice('0123456789-.eE+ \n\r\t",:{}[]"\\atnqu')
        kind = rng.randrange(4)
        if kind == 0:
            at, char = rng.choice(digits), rng.choice("0123456789")
        if kind <= 1:
            yield text[:at] + char + text[at + 1:]
        elif kind == 2:
            yield text[:at] + text[at + 1:]
        else:
            yield text[:at] + char + text[at:]


class TestCanonicalReader:
    """load_certificate reads dump_certificate's layout run by run and
    hands every other text to certificate_from_dict(json.loads(text)); on
    every text the two must agree, refusals included."""

    def test_round_trip_without_json(self, monkeypatch):
        certs = canonical_certificates()
        texts = [dump_certificate(cert) for _, _, cert in certs]
        # The JSON path reads every text but the unary eraser's on
        # a×31…79, which hold four fifths of the bytes.
        skipped = {f"a×{n}" for n in range(31, 80)}
        expected = {label: read(json_path, text, ts)
                    for (label, ts, _), text in zip(certs, texts)
                    if label not in skipped}
        monkeypatch.setattr(tiling.json, "loads", refuse_json)
        for (label, ts, cert), text in zip(certs, texts):
            back = load_certificate(text, ts)
            if label == "unsorted":
                cert = Certificate(sort_placements(cert.placements),
                                   cert.width_m, cert.rows)
            assert back == cert, label
            if label in expected:
                assert summary(back) == expected[label], label
            assert dump_certificate(back) == text, label
        assert len(certs) > 80 + 40 + 20
        assert len(expected) == len(certs) - len(skipped)

    def test_differential_fuzz(self, monkeypatch):
        rng = random.Random(20261021)
        small = [(ts, dump_certificate(cert))
                 for label, ts, cert in canonical_certificates()
                 if len(cert.placements) < 40]
        loads, parsed = json.loads, []
        monkeypatch.setattr(tiling.json, "loads",
                            lambda text: parsed.append(text) or loads(text))
        tally = {"texts": 0, "canonical": 0, "raised": 0}
        for ts, text in small:
            for edited in edits(text, rng, 3000 // len(small)):
                before = len(parsed)
                got = read(load_certificate, edited, ts)
                tally["canonical"] += len(parsed) == before
                assert got == read(json_path, edited, ts), edited
                tally["texts"] += 1
                tally["raised"] += got[0] == "raised"
        assert tally["texts"] >= 2900
        assert tally["canonical"] >= 300 and tally["raised"] >= 1000, tally

    @pytest.mark.parametrize("old, new", [
        ('"y": 0\n', '"y": -0\n'),
        ('"x": 1,', '"x": 01,'),
        ('"x": 1,', '"x": 1.0,'),
        ('"x": 1,', '"x": true,'),
        ('"x": 1,', '"x": 1e0,'),
        ('"x": 1,', '"x": 123456789012345678901234567890,'),
        ('"m": 4,', '"m": -0,'),
        ('"name": "b1"', '"name": ""'),
        ('"name": "b1"', '"name": "caf\\u00e9"'),
        ('"n": "U-arrow"', '"n": "U-\\u0061rrow"'),
        ('"e": "q:qs"', '"e": "q:\\u0071s"'),
        ('"e": "c0"', '"e": "nope"'),
        ('"e": "c0"', '"e": "qa:q"'),
        ('"x": 4,\n      "y": 0', '"y": 0,\n      "x": 4'),
        ('"n": "a:_",\n        "e": "R-arrow"',
         '"e": "R-arrow",\n        "n": "a:_"'),
        ("\n", "\r\n"),
        ("\n  ]\n}\n", "\n  ]\n}"),
        ("\n  ]\n}\n", "\n  ]\n}\n\n"),
        ("{\n", " {\n"),
        ("    {\n      \"tile\": {", "    {\n      \"tile\":  {"),
    ])
    def test_named_departures(self, old, new):
        ts = compile_tiles(unary_eraser())
        text = dump_certificate(build_accepting_tiling(unary_eraser(), "aa",
                                                       100))
        assert old in text
        edited = text.replace(old, new)
        assert tiling._read_canonical(edited) is None
        assert read(load_certificate, edited, ts) == \
            read(json_path, edited, ts)

    def test_tile_given_by_name(self):
        ts = compile_tiles(unary_eraser())
        cert = build_accepting_tiling(unary_eraser(), "aaa", 100)
        data = certificate_to_dict(cert)
        data["placements"][1]["tile"] = "b1"
        text = json.dumps(data, indent=2) + "\n"
        assert load_certificate(text, ts) == cert
        for system in (None, ts):
            assert read(load_certificate, text, system) == \
                read(json_path, text, system)

    def test_compact_text_takes_the_json_path(self, monkeypatch):
        cert = build_accepting_tiling(unary_eraser(), "a" * 40, 10000)
        text = dump_certificate(cert)
        compact = json.dumps(certificate_to_dict(cert))
        assert load_certificate(compact) == cert
        monkeypatch.setattr(tiling.json, "loads", refuse_json)
        assert load_certificate(text) == cert
        with pytest.raises(AssertionError, match="json.loads"):
            load_certificate(compact)

