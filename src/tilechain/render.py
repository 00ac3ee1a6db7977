"""Text and SVG renderings of edge maps and tiling certificates.

ASCII grids list rows top line first but bottom row of the grid last-to-
first, i.e. the printed page matches the plane (higher y printed higher).
Both certificate drawings read its run view.  In the ASCII rows a run of
``count`` tiles is its tile's box repeated ``count`` times, and the gaps
between runs are blank boxes.
SVG output uses exactly one rectangle per placed tile, with the four side
colors as small labels, so rectangle count equals placement count.  Labels
are escaped, so the SVG is well-formed XML whatever the color names hold.
"""

from __future__ import annotations

from operator import itemgetter

from .edges import EdgeMap
from .tiling import Certificate, _disjoint_spans, color_glyph, color_sort_key

_MAX_SPAN = 10_000


def _xml_text(text: str) -> str:
    """``text`` as XML character data: ``&`` and ``<`` escaped, and ``>``
    only where it closes ``]]>``.  ``xml.sax.saxutils.escape`` would also
    rewrite every other ``>``, which is legal in text, and so change the
    bytes of every arrow label."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace("]]>", "]]&gt;"))


class UnboundedSupport(ValueError):
    """The object spans too large a region to lay out on a grid."""


def _check_span(xmin: int, xmax: int, ymin: int, ymax: int) -> None:
    if xmax - xmin > _MAX_SPAN or ymax - ymin > _MAX_SPAN:
        raise UnboundedSupport(
            f"span {xmax - xmin} x {ymax - ymin} exceeds {_MAX_SPAN}")


def render_edgemap_ascii(f: EdgeMap) -> str:
    """One line per grid height and orientation, one cell per x position;
    each cell lists the signed colors on that edge."""
    if f.is_zero():
        return ""
    cells: dict[tuple[int, int, str], list] = {}
    for ((x, y, orient), color), value in f.support():
        cells.setdefault((x, y, orient), []).append(
            (color_sort_key(color), f"{value:+d}" + color_glyph(color)))
    rendered: dict[tuple[int, int, str], str] = {}
    for key, parts in cells.items():
        rendered[key] = ",".join(text for _, text in sorted(parts))
    xs = [x for x, _, _ in rendered]
    ys = [y for _, y, _ in rendered]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    _check_span(xmin, xmax, ymin, ymax)
    width = max(max(len(t) for t in rendered.values()) + 1, 6)
    lines = []
    header = " " * 8 + "".join(f"x={x}".ljust(width)
                               for x in range(xmin, xmax + 1))
    lines.append(header.rstrip())
    for y in range(ymax, ymin - 1, -1):
        for orient in ("V", "H"):
            row = f"y={y} {orient}".ljust(8)
            row += "".join(rendered.get((x, y, orient), "").ljust(width)
                           for x in range(xmin, xmax + 1))
            lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def _glyphs_by_tile(tiles) -> dict[int, tuple[str, str, str, str]]:
    """Side glyphs (north, east, south, west) of each distinct tile, keyed
    by object.  Placements share their tile objects, so each tile is drawn
    once without hashing its colors once per placement."""
    distinct = {id(tile): tile for tile in tiles}
    return {key: tuple(map(color_glyph, tile.sides()))
            for key, tile in distinct.items()}


_first = itemgetter(0)


def _run_extent(runs) -> tuple[int, int, int, int]:
    """``(xmin, xmax, ymin, ymax)`` of the cells of a nonempty run view."""
    xmin = min(x0 for _, x0, _, _ in runs)
    xmax = max(x0 + count - 1 for _, x0, _, count in runs)
    ymin = min(y for _, _, y, _ in runs)
    ymax = max(y for _, _, y, _ in runs)
    return xmin, xmax, ymin, ymax


def render_certificate_ascii(cert: Certificate) -> str:
    """Draw each placed tile as a bordered box with its four side colors
    (north and south on the borders, west and east inside).

    The drawing reads the run view.  A stacked cell shows its last
    placement, and the box width comes from the tiles shown.  Each
    distinct tile's box is drawn once.  A row whose runs are disjoint
    spans is its runs' boxes, repeated, and blank gaps; a row with
    overlapping spans is resolved cell by cell, the last placement
    winning."""
    runs = cert.runs()
    if not runs:
        return ""
    xmin, xmax, ymin, ymax = _run_extent(runs)
    # Per row, its runs (first x, last x, tile).
    spans: dict = {}
    for tile, x0, y, count in runs:
        spans.setdefault(y, []).append((x0, x0 + count - 1, tile))
    # A row drawn run by run keeps its runs sorted by x; any other row
    # keeps its cells, filled in placement order.
    rows: dict = {}
    shown: list = []
    for y, row in spans.items():
        ordered = sorted(row, key=_first)
        if _disjoint_spans(ordered):
            rows[y] = ordered
            shown += [tile for _, _, tile in ordered]
        else:
            cells = rows[y] = {x: tile for x0, last, tile in row
                               for x in range(x0, last + 1)}
            shown += cells.values()
    _check_span(xmin, xmax, ymin, ymax)
    glyphs = _glyphs_by_tile(shown)
    inner = max(max(len(g) for sides in glyphs.values() for g in sides) * 2
                + 2, 8)
    side = "|" + " " * inner + "|"
    boxes = {}
    for key, (n, e, s, w) in glyphs.items():
        pad = " " * (inner - len(w) - len(e))
        boxes[key] = ("+" + n.center(inner, "-") + "+", side,
                      "|" + w + pad + e + "|", side,
                      "+" + s.center(inner, "-") + "+")
    columns = range(xmin, xmax + 1)
    blanks = (" " * (inner + 2),) * 5
    # The five lines of a run of ``count`` tiles, or of a gap that wide.
    strips: dict = {}
    lines: list[str] = []
    for y in range(ymax, ymin - 1, -1):
        label = f"y={y} "
        margin = " " * len(label)
        band = [(margin, margin, label, margin, margin)]
        row = rows.get(y, ())
        if type(row) is dict:
            band += [boxes[id(row[x])] if x in row else blanks
                     for x in columns]
        else:
            cursor = xmin
            for x0, last, tile in row:
                if x0 > cursor:
                    band.append(_strip(strips, blanks, x0 - cursor))
                band.append(_strip(strips, boxes[id(tile)], last - x0 + 1))
                cursor = last + 1
        lines += ["".join(part).rstrip() for part in zip(*band)]
    return "\n".join(lines) + "\n"


def _strip(strips: dict, box: tuple, count: int) -> tuple:
    """``box`` repeated ``count`` times side by side, kept in ``strips``."""
    if count == 1:
        return box
    key = (box, count)
    strip = strips.get(key)
    if strip is None:
        strip = strips[key] = tuple(part * count for part in box)
    return strip


_SVG_UNIT = 60

# The drawing of an empty certificate or a zero edge map.
_EMPTY_SVG = ('<?xml version="1.0" encoding="UTF-8"?>\n'
              '<svg xmlns="http://www.w3.org/2000/svg" '
              'viewBox="0 0 60 60"></svg>\n')


def _svg_header(xmin: int, ymin: int, xmax: int, ymax: int) -> list[str]:
    # The grid is drawn with one unit of margin on every side.
    width = (xmax - xmin + 2) * _SVG_UNIT
    height = (ymax - ymin + 2) * _SVG_UNIT
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="11">',
    ]


def _svg_x(x: int, xmin: int) -> int:
    return (x - xmin + 1) * _SVG_UNIT


def _svg_y(y: int, ymax: int) -> int:
    # SVG's y axis points down; flip so larger grid y is drawn higher.
    return (ymax - y + 1) * _SVG_UNIT


def render_certificate_svg(cert: Certificate) -> str:
    """One rectangle per placement, side colors as labels, in placement
    order.

    Each distinct tile's rectangle-and-labels block is cut once into the
    text between its coordinates, and each column's and row's coordinates
    are spelled once; a run's cells are then one join of the three each."""
    runs = cert.runs()
    if not runs:
        return _EMPTY_SVG
    xmin, xmax, ymin, ymax = _run_extent(runs)
    _check_span(xmin, xmax, ymin, ymax)
    lines = _svg_header(xmin, ymin, xmax, ymax)
    u = _SVG_UNIT
    # x strings of the rectangle and of the north/south, west and east
    # labels, each followed by the text up to its y value.
    columns = {}
    for x in range(xmin, xmax + 1):
        left = _svg_x(x, xmin)
        columns[x] = (f'<rect x="{left}" y="', f'{left + u // 2}" y="',
                      f'{left + 4}" y="', f'{left + u - 4}" y="')
    # y strings of the rectangle and of the north, south and side labels.
    rows = {}
    for y in range(ymin, ymax + 1):
        top = _svg_y(y, ymax) - u
        rows[y] = (str(top), str(top + 12), str(top + u - 4),
                   str(top + u // 2))
    # The labels are escaped and joined in as text, never used as a format
    # string.
    blocks = {}
    for key, glyphs in _glyphs_by_tile(run[0] for run in runs).items():
        n, e, s, w = map(_xml_text, glyphs)
        blocks[key] = (
            f'" width="{u}" height="{u}" fill="none" stroke="black"/>'
            '\n<text x="',
            '" text-anchor="middle">' + n + '</text>\n<text x="',
            '" text-anchor="middle">' + s + '</text>\n<text x="',
            '">' + w + '</text>\n<text x="',
            '" text-anchor="end">' + e + '</text>')
    for tile, x0, y, count in runs:
        top, north_y, south_y, side_y = rows[y]
        b0, b1, b2, b3, b4 = blocks[id(tile)]
        for x in range(x0, x0 + count):
            rect, center, west, east = columns[x]
            lines.append("".join((rect, top, b0, center, north_y, b1,
                                  center, south_y, b2, west, side_y, b3,
                                  east, side_y, b4)))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_edgemap_svg(f: EdgeMap) -> str:
    """One line segment per colored edge with a signed label."""
    if f.is_zero():
        return _EMPTY_SVG
    keys = [key for key, _ in f.support()]
    xs = [x for (x, _, _), _ in keys]
    ys = [y for (_, y, _), _ in keys]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    _check_span(xmin, xmax, ymin, ymax)
    lines = _svg_header(xmin, ymin, xmax, ymax)
    u = _SVG_UNIT
    for ((x, y, orient), color), value in f.support():
        x1 = _svg_x(x, xmin)
        y1 = _svg_y(y, ymax)
        x2, y2 = (x1 + u, y1) if orient == "H" else (x1, y1 - u)
        lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     f'stroke="black"/>')
        label = _xml_text(f"{value:+d}{color_glyph(color)}")
        lx = (x1 + x2) // 2 + 3
        ly = (y1 + y2) // 2 - 3
        lines.append(f'<text x="{lx}" y="{ly}">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
