"""Tests for text and SVG renderings: golden-file comparisons, byte
determinism across fresh builds, and structural properties."""

import random
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from tilechain.compiler import compile_tiles, initial_map
from tilechain.edges import EdgeMap, Z
from tilechain.engine import build_accepting_tiling
from tilechain.machines import two_symbol_eraser, unary_eraser
from tilechain.render import (
    UnboundedSupport,
    _check_span,
    _svg_header,
    _svg_x,
    _svg_y,
    _SVG_UNIT,
    _xml_text,
    render_certificate_ascii,
    render_certificate_svg,
    render_edgemap_ascii,
    render_edgemap_svg,
)
from tilechain.tiling import (ARROW_R, C0, TRI_L, TRI_R, Certificate,
                              Color, Placement, Tile, color_glyph, letter,
                              state)

from conftest import AWKWARD_LETTER, awkward_eraser

GOLDENS = Path(__file__).parent / "goldens"

EMPTY_SVG = ('<?xml version="1.0" encoding="UTF-8"?>\n'
             '<svg xmlns="http://www.w3.org/2000/svg" '
             'viewBox="0 0 60 60"></svg>\n')


def golden(name: str) -> str:
    return (GOLDENS / name).read_text()


@pytest.fixture(scope="module")
def unary_a(artifacts):
    return artifacts.pipeline("unary-eraser", "a")


class TestGoldens:
    def test_initial_edgemap_ascii(self, unary_a):
        assert render_edgemap_ascii(unary_a.f0) == \
            golden("initial_edgemap_unary_a.txt")

    def test_initial_edgemap_svg(self, unary_a):
        assert render_edgemap_svg(unary_a.f0) == \
            golden("initial_edgemap_unary_a.svg")

    def test_certificate_ascii(self, unary_a):
        text = render_certificate_ascii(unary_a.cert)
        assert text == golden("certificate_unary_a.txt")
        # A left move hands the head off across two rows; the carry shows
        # up as a bracketed west/east glyph pair.
        assert "|<|" in text and "|>|" in text

    def test_certificate_svg(self, unary_a):
        svg = render_certificate_svg(unary_a.cert)
        assert svg == golden("certificate_unary_a.svg")

    def test_fresh_build_is_byte_identical(self, unary_a):
        tm = unary_eraser()
        compile_tiles(tm)
        f0 = initial_map(tm, "a")
        cert = build_accepting_tiling(tm, "a", 500)
        assert render_edgemap_ascii(f0) == render_edgemap_ascii(unary_a.f0)
        assert render_edgemap_svg(f0) == render_edgemap_svg(unary_a.f0)
        assert render_certificate_ascii(cert) == \
            render_certificate_ascii(unary_a.cert)
        assert render_certificate_svg(cert) == \
            render_certificate_svg(unary_a.cert)


class TestStructure:
    def test_rectangle_count_equals_placements(self, artifacts):
        for name, word in (("unary-eraser", "a"), ("mini-raw", "a")):
            pipe = artifacts.pipeline(name, word)
            svg = render_certificate_svg(pipe.cert)
            assert svg.count("<rect") == len(pipe.cert.placements)

    def test_ascii_lines_carry_no_trailing_spaces(self, unary_a):
        for text in (render_edgemap_ascii(unary_a.f0),
                     render_certificate_ascii(unary_a.cert)):
            assert all(line == line.rstrip()
                       for line in text.split("\n"))
            assert text.endswith("\n")

    def test_certificate_ascii_ignores_placement_order(self, unary_a):
        cert = unary_a.cert
        shuffled = Certificate(tuple(reversed(cert.placements)),
                               cert.width_m, cert.rows)
        assert render_certificate_ascii(shuffled) == \
            render_certificate_ascii(cert)


class TestEmptyInputs:
    def test_empty_edgemap(self):
        empty = EdgeMap(Z)
        assert render_edgemap_ascii(empty) == ""
        assert render_edgemap_svg(empty) == EMPTY_SVG

    def test_empty_certificate(self):
        cert = Certificate((), 0, 0)
        assert render_certificate_ascii(cert) == ""
        assert render_certificate_svg(cert) == EMPTY_SVG


class TestSpanLimit:
    def test_wide_edgemap_rejected(self):
        color = Color("letter", "a", "")
        wide = EdgeMap(Z, [(((0, 0, "H"), color), 1),
                           (((10_001, 0, "H"), color), 1)])
        with pytest.raises(UnboundedSupport, match="exceeds 10000"):
            render_edgemap_ascii(wide)
        with pytest.raises(UnboundedSupport):
            render_edgemap_svg(wide)

    def test_wide_certificate_rejected(self, artifacts):
        tile = artifacts.tiling("unary-eraser").tiles[0]
        cert = Certificate((Placement(tile, 0, 0),
                            Placement(tile, 0, 10_001)), 0, 10_001)
        with pytest.raises(UnboundedSupport):
            render_certificate_ascii(cert)
        with pytest.raises(UnboundedSupport):
            render_certificate_svg(cert)


# -- reference renderers ----------------------------------------------------
# The per-placement bodies the renderers had before each distinct tile was
# drawn once.  The renderers must give the same bytes; the SVG labels are
# now escaped, so the SVG reference takes the label function.

def reference_ascii(cert):
    if not cert.placements:
        return ""
    grid = {(p.x, p.y): p.tile for p in cert.placements}
    xs = [x for x, _ in grid]
    ys = [y for _, y in grid]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    _check_span(xmin, xmax, ymin, ymax)
    glyphs = {pos: tuple(color_glyph(c) for c in tile.sides())
              for pos, tile in grid.items()}
    inner = max(max(len(n) for g in glyphs.values() for n in g) * 2 + 2, 8)
    blank = " " * (inner + 2)
    lines = []
    for y in range(ymax, ymin - 1, -1):
        band = [[] for _ in range(5)]
        for x in range(xmin, xmax + 1):
            if (x, y) not in glyphs:
                for part in band:
                    part.append(blank)
                continue
            n, e, s, w = glyphs[(x, y)]
            band[0].append("+" + n.center(inner, "-") + "+")
            band[1].append("|" + " " * inner + "|")
            pad = " " * (inner - len(w) - len(e))
            band[2].append("|" + w + pad + e + "|")
            band[3].append("|" + " " * inner + "|")
            band[4].append("+" + s.center(inner, "-") + "+")
        labels = ["", "", f"y={y} ", "", ""]
        margin = max(len(lab) for lab in labels)
        for lab, part in zip(labels, band):
            lines.append((lab.ljust(margin) + "".join(part)).rstrip())
    return "\n".join(lines) + "\n"


def reference_svg(cert, glyph=color_glyph):
    if not cert.placements:
        return EMPTY_SVG
    xs = [p.x for p in cert.placements]
    ys = [p.y for p in cert.placements]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    _check_span(xmin, xmax, ymin, ymax)
    lines = _svg_header(xmin, ymin, xmax, ymax)
    u = _SVG_UNIT
    for p in cert.placements:
        left = _svg_x(p.x, xmin)
        top = _svg_y(p.y, ymax) - u
        n, e, s, w = (glyph(c) for c in p.tile.sides())
        lines.append(f'<rect x="{left}" y="{top}" width="{u}" height="{u}" '
                     f'fill="none" stroke="black"/>')
        cx = left + u // 2
        lines.append(f'<text x="{cx}" y="{top + 12}" '
                     f'text-anchor="middle">{n}</text>')
        lines.append(f'<text x="{cx}" y="{top + u - 4}" '
                     f'text-anchor="middle">{s}</text>')
        lines.append(f'<text x="{left + 4}" y="{top + u // 2}">{w}</text>')
        lines.append(f'<text x="{left + u - 4}" y="{top + u // 2}" '
                     f'text-anchor="end">{e}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def escaped_glyph(color):
    return _xml_text(color_glyph(color))


def assert_matches_reference(cert):
    assert render_certificate_ascii(cert) == reference_ascii(cert)
    assert render_certificate_svg(cert) == reference_svg(cert, escaped_glyph)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("n", [1, 5, 16, 40])
    def test_unary(self, n):
        tm = unary_eraser()
        assert_matches_reference(
            build_accepting_tiling(tm, "a" * n, 64 * (n + 2)))

    @pytest.mark.parametrize("word", ["ab", "abba", "abab" * 5, "a" * 3])
    def test_two_symbol(self, word):
        tm = two_symbol_eraser()
        assert_matches_reference(
            build_accepting_tiling(tm, word, 64 * (len(word) + 2)))

    @pytest.mark.parametrize("name, word", [("unary-eraser", "aa"),
                                            ("mini-raw", "a")])
    def test_forced_search_certificate(self, artifacts, name, word):
        cert = artifacts.pipeline(name, word).cert
        found = artifacts.forced(name, word, cert.width_m, cert.rows)
        assert found is not None
        assert_matches_reference(found)

    def test_shuffled_placements(self):
        cert = build_accepting_tiling(unary_eraser(), "a" * 6, 500)
        placements = list(cert.placements)
        random.Random(20261018).shuffle(placements)
        assert_matches_reference(
            Certificate(tuple(placements), cert.width_m, cert.rows))

    def test_gaps_and_stacked_cells(self):
        # Stacked cells keep every rectangle in SVG and the last placement
        # in ASCII; the widest glyph sits under a stacked cell's loser.
        wide = Tile(letter("wide-letter"), C0, C0, ARROW_R, name="wide")
        plain = Tile(C0, letter("a"), C0, ARROW_R, name="plain")
        other = Tile(letter("b"), C0, letter("a"), C0, name="other")
        cert = Certificate((Placement(plain, 0, 0), Placement(other, 3, 0),
                            Placement(wide, 1, 2), Placement(plain, 1, 2),
                            Placement(other, 0, 0), Placement(plain, 5, 4)),
                           5, 4)
        assert_matches_reference(cert)
        svg = render_certificate_svg(cert)
        assert svg.count("<rect") == 6
        assert "wide-letter" in svg
        assert "wide-letter" not in render_certificate_ascii(cert)

    def test_negative_coordinates_and_a_single_placement(self):
        t = Tile(letter("a"), ARROW_R, C0, C0, name="t")
        assert_matches_reference(Certificate((Placement(t, -3, -7),), 0, 0))
        assert_matches_reference(Certificate(
            (Placement(t, -3, 2), Placement(t, 0, -1),
             Placement(t, -12, -7)), -2, -5))

    def test_equal_colors_different_names(self):
        first = Tile(C0, letter("a"), C0, ARROW_R, name="first")
        second = Tile(C0, letter("a"), C0, ARROW_R, name="second")
        cert = Certificate((Placement(first, 0, 0), Placement(second, 1, 0),
                            Placement(first, 2, 0), Placement(second, 2, 0)),
                           2, 0)
        assert_matches_reference(cert)

    def test_names_with_markup_and_format_syntax(self):
        cert = build_accepting_tiling(awkward_eraser(),
                                      [AWKWARD_LETTER] * 3, 500)
        assert_matches_reference(cert)


# -- well-formed XML ---------------------------------------------------------

SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def svg_labels(svg):
    """The text of every label, in document order, after XML parsing."""
    return [node.text for node in ET.fromstring(svg).iter(SVG_TEXT)]


def placement_labels(cert):
    """North, south, west, east: the order the renderer writes them."""
    return [color_glyph(c) for p in cert.placements
            for c in (p.tile.n, p.tile.s, p.tile.w, p.tile.e)]


class TestWellFormedXml:
    def test_goldens_parse(self):
        for name in ("certificate_unary_a.svg", "initial_edgemap_unary_a.svg"):
            ET.parse(GOLDENS / name)

    def test_escaping(self):
        assert _xml_text("<|") == "&lt;|"
        assert _xml_text("|>") == "|>"
        assert _xml_text("a&b]]>c]]]>") == "a&amp;b]]&gt;c]]]&gt;"
        assert _xml_text("&lt;") == "&amp;lt;"

    def test_built_certificates(self, artifacts):
        for name, word in artifacts.accepted_pairs():
            cert = artifacts.pipeline(name, word).cert
            svg = render_certificate_svg(cert)
            assert svg_labels(svg) == placement_labels(cert), (name, word)

    def test_markup_in_names(self):
        cert = build_accepting_tiling(awkward_eraser(),
                                      [AWKWARD_LETTER] * 3, 500)
        cdata_end = Tile(letter("]]>"), state("a&b"), C0, TRI_L, name="x")
        for cert in (cert, Certificate((Placement(cdata_end, 0, 0),), 0, 0),
                     Certificate((), 0, 0)):
            svg = render_certificate_svg(cert)
            assert svg_labels(svg) == placement_labels(cert)

    def test_edge_maps(self, artifacts):
        maps = [initial_map(artifacts.machines[name], word)
                for name, word in artifacts.accepted_pairs()]
        maps.append(initial_map(awkward_eraser(), [AWKWARD_LETTER] * 2))
        maps.append(EdgeMap(Z, [(((0, 0, "V"), TRI_L), 1),
                                (((1, 0, "V"), TRI_R), -2),
                                (((0, 1, "H"), letter("]]>&")), 3)]))
        for f in maps:
            labels = svg_labels(render_edgemap_svg(f))
            assert labels == [f"{value:+d}{color_glyph(color)}"
                              for (_, color), value in f.support()]
        assert "+1<|" in labels and "-2|>" in labels
