"""Wreath products over the grid, free metabelian flows, and submonoid
membership instances.

Two ambient groups are modelled:

  * the wreath product of a coefficient ring by the grid group Z x Z —
    elements are (finitely supported lamp function, position); and
  * the free metabelian group of rank 2 — elements are (abelianized
    image, edge flow on the grid), where the flow of a word records the
    net traversal of each unit edge when the word is read as a walk.

Module membership instances embed into both: a rank-r module element is
flattened to rank 1 by spacing coordinates along the x-axis with a fixed
stride, and translations of generators become conjugation by powers of
the ambient letters.  The resulting questions are packaged as
``SubmonoidInstance`` values whose generators and target are plain words,
re-checkable by direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, Iterable, Iterator, Sequence, Tuple

from .edges import (Ring, RingMismatch, SparseVector, Z, _canon,
                    _make_vector, ring_from_name)
from .modules import ModuleElement, SemimoduleInstance

Point = Tuple[int, int]
FlowKey = Tuple[int, int, str]  # (x, y, 'H' horizontal | 'V' vertical)


class UnboundSymbol(ValueError):
    """A word uses a symbol with no binding."""


class NotACycle(ValueError):
    """A flow with nonzero boundary cannot be decomposed into cells."""


class StrideTooSmall(ValueError):
    """The x-axis stride is too small to keep coordinates separated."""


class NotInImage(ValueError):
    """A lamp function does not come from flattening a module element."""


class BadIndex(IndexError):
    """A certificate references a generator that does not exist."""


def pow_tokens(symbol: str, k: int) -> list[str]:
    """``k``-th power of a symbol as tokens; negative powers swap case."""
    if k >= 0:
        return [symbol] * k
    return [symbol.swapcase()] * (-k)


def word_from_tokens(tokens: Iterable[str]) -> str:
    return " ".join(tokens)


Run = Tuple[str, int]  # (letter, repeat count >= 1)


def _runs(word: str | Iterable[str]) -> Iterator[Run]:
    """Maximal runs of equal letters in a whitespace-separated string or a
    token iterable."""
    tokens = word.split() if isinstance(word, str) else word
    for letter, group in groupby(tokens):
        yield letter, len(list(group))


def _bound(bindings: Dict, letter: str):
    try:
        return bindings[letter]
    except KeyError:
        raise UnboundSymbol(f"no binding for {letter!r}") from None


# ---------------------------------------------------------------------------
# wreath product of a ring by Z x Z

class WreathElement:
    """Immutable pair (lamp function on the grid, position in Z x Z).

    The lamps are one sparse core vector (``edges.SparseVector``) keyed
    ``(a, b, 0)``.  It is never mutated, so elements may share it: a
    product whose right factor lights no lamps (a pure move) reuses the
    left factor's vector, cached hash included, and only shifts the
    position.
    """

    __slots__ = ("pos", "_lamps")

    def __init__(self, ring: Ring, fun: Dict[Point, int] | None = None,
                 pos: Point = (0, 0)):
        _set_lamps(self, SparseVector(ring, (((a, b, 0), v) for (a, b), v
                                             in (fun or {}).items())))
        _set_pos(self, (int(pos[0]), int(pos[1])))

    def __setattr__(self, *_):
        raise AttributeError("WreathElement is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _make_wreath, (self._lamps, self.pos)

    @property
    def ring(self) -> Ring:
        return self._lamps.ring

    def fun(self) -> Dict[Point, int]:
        return {(a, b): v for (a, b, _), v in self._lamps._entries.items()}

    def lamp_at(self, a: int, b: int) -> int:
        return self._lamps._entries.get((a, b, 0), 0)

    def support(self) -> list[Point]:
        return sorted(self.fun(), key=lambda p: (p[1], p[0]))

    def is_identity(self) -> bool:
        return self.pos == (0, 0) and self._lamps.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WreathElement):
            return NotImplemented
        return self.pos == other.pos and self._lamps == other._lamps

    def __hash__(self):
        return hash((self.pos, self._lamps))

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        px, py = self.pos
        return _make_wreath(self._lamps.plus(other._lamps, 1, px, py),
                            (px + other.pos[0], py + other.pos[1]))

    def inv(self) -> "WreathElement":
        px, py = self.pos
        return _make_wreath((-self._lamps).translate(-px, -py), (-px, -py))

    def __repr__(self) -> str:
        lamps = ", ".join(f"({a},{b}): {self.lamp_at(a, b)}"
                          for a, b in self.support())
        return f"WreathElement[{self.ring.name}]({{{lamps}}}, pos={self.pos})"


_set_pos = WreathElement.pos.__set__
_set_lamps = WreathElement._lamps.__set__


def _make_wreath(lamps: SparseVector, pos: Point) -> WreathElement:
    """An element from a lamp vector and a position, without the
    constructor's conversion and canon pass."""
    element = object.__new__(WreathElement)
    _set_lamps(element, lamps)
    _set_pos(element, pos)
    return element


def wreath_identity(ring: Ring) -> WreathElement:
    return WreathElement(ring)


def wreath_lamp(ring: Ring, a: int, b: int, value: int = 1) -> WreathElement:
    return WreathElement(ring, {(a, b): value})


def wreath_bindings(ring: Ring) -> Dict[str, WreathElement]:
    """Standard symbols: x/y move, g lights the origin; capitals invert."""
    x = WreathElement(ring, pos=(1, 0))
    y = WreathElement(ring, pos=(0, 1))
    g = wreath_lamp(ring, 0, 0, 1)
    return {"x": x, "X": x.inv(), "y": y, "Y": y.inv(),
            "g": g, "G": g.inv()}


def wreath_eval(word: str | Iterable[str],
                bindings: Dict[str, WreathElement],
                ring: Ring) -> WreathElement:
    """Left-to-right product of the bound elements of a token stream.

    Accepts a whitespace-separated string or any iterable of tokens.  The
    fold works on runs of equal letters with one mutable accumulator: a
    run of a pure move is one shift, a run of a lamp pattern that does not
    move adds its scaled lamps once, and any other binding is applied once
    per repeat.  Cost is per run, not per letter, for the standard x/y/g
    bindings.  The accumulator holds plain sums; they are reduced into the
    ring once, when the result's lamp vector is built.
    """
    return _wreath_fold(_runs(word), bindings, ring)


def _wreath_fold(runs: Iterable[Run], bindings: Dict[str, WreathElement],
                 ring: Ring) -> WreathElement:
    fun: Dict[tuple, int] = {}
    checked: Dict[str, WreathElement] = {}
    px, py = 0, 0
    for letter, k in runs:
        element = checked.get(letter)
        if element is None:
            element = checked[letter] = _bound(bindings, letter)
            if element.ring != ring:
                raise RingMismatch(
                    f"{element.ring.name} binding in {ring.name} evaluation")
        lamps = element._lamps._entries
        sx, sy = element.pos
        if not lamps:
            px += k * sx
            py += k * sy
            continue
        repeats = k
        if not (sx or sy):
            repeats, lamps = 1, {key: k * v for key, v in lamps.items()}
        for _ in range(repeats):
            for (a, b, tag), v in lamps.items():
                key = (a + px, b + py, tag)
                fun[key] = fun.get(key, 0) + v
            px += sx
            py += sy
    return _make_wreath(SparseVector(ring, fun.items()), (px, py))


# ---------------------------------------------------------------------------
# flattening module elements to rank 1

def embed_module(e: ModuleElement, stride: int) -> Dict[Point, int]:
    """Spread a rank-r element along the x-axis: entry ``(a, b, j)`` lands
    at grid point ``(stride * a + j, b)``."""
    if stride < max(e.rank, 1):
        raise StrideTooSmall(f"stride {stride} < rank {e.rank}")
    return {(stride * a + j, b): v for (a, b, j), v in e.items()}


def unembed_module(fun: Dict[Point, int], stride: int, rank: int,
                   ring: Ring) -> ModuleElement:
    """Inverse of :func:`embed_module`; rejects grid points whose x-residue
    is not a valid coordinate index."""
    if stride < max(rank, 1):
        raise StrideTooSmall(f"stride {stride} < rank {rank}")
    entries: Dict[Tuple[int, int, int], int] = {}
    for (gx, gy), v in fun.items():
        j = gx % stride
        if j >= rank:
            raise NotInImage(f"grid point ({gx}, {gy}) has residue {j}")
        entries[((gx - j) // stride, gy, j)] = v
    return ModuleElement(ring, rank, entries)


def module_to_word(e: ModuleElement, stride: int) -> str:
    """Word over x/y/g spelling out the flattened element: each entry is a
    conjugated power of the origin lamp."""
    tokens: list[str] = []
    for (a, b, j), v in e.items():
        gx = stride * a + j
        tokens += pow_tokens("x", gx)
        tokens += pow_tokens("y", b)
        tokens += pow_tokens("g", v)
        tokens += pow_tokens("y", -b)
        tokens += pow_tokens("x", -gx)
    return word_from_tokens(tokens)


# ---------------------------------------------------------------------------
# free metabelian group of rank 2

_CELL_FLOW: Dict[FlowKey, int] = {
    (0, 0, "H"): 1,
    (1, 0, "V"): 1,
    (0, 1, "H"): -1,
    (0, 0, "V"): -1,
}


def translate_flow(flow: Dict[FlowKey, int], dx: int,
                   dy: int) -> Dict[FlowKey, int]:
    return {(x + dx, y + dy, o): v for (x, y, o), v in flow.items()}


class MetabelianElement:
    """Immutable pair (abelianized image in Z x Z, edge flow on the grid).

    The flow counts signed traversals of unit edges: key ``(x, y, 'H')``
    is the edge from (x, y) to (x+1, y), key ``(x, y, 'V')`` the edge from
    (x, y) to (x, y+1).  It is held as one integer sparse core vector
    (``edges.SparseVector``) with the orientation as tag.
    """

    __slots__ = ("ab", "_flow")

    def __init__(self, ab: Point = (0, 0),
                 flow: Dict[FlowKey, int] | None = None):
        _set_ab(self, (int(ab[0]), int(ab[1])))
        _set_flow(self, SparseVector(Z, (flow or {}).items()))

    def __setattr__(self, *_):
        raise AttributeError("MetabelianElement is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _make_metabelian, (self.ab, self._flow)

    def flow(self) -> Dict[FlowKey, int]:
        return dict(self._flow._entries)

    def is_identity(self) -> bool:
        return self.ab == (0, 0) and self._flow.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetabelianElement):
            return NotImplemented
        return self.ab == other.ab and self._flow == other._flow

    def __hash__(self):
        return hash((self.ab, self._flow))

    def __mul__(self, other: "MetabelianElement") -> "MetabelianElement":
        dx, dy = self.ab
        return _make_metabelian((dx + other.ab[0], dy + other.ab[1]),
                                self._flow.plus(other._flow, 1, dx, dy))

    def inv(self) -> "MetabelianElement":
        dx, dy = self.ab
        return _make_metabelian((-dx, -dy), (-self._flow).translate(-dx, -dy))

    def __repr__(self) -> str:
        edges = ", ".join(f"{o}({x},{y}): {v:+d}" for (x, y, o), v in
                          sorted(self._flow._entries.items()))
        return f"MetabelianElement(ab={self.ab}, {{{edges}}})"


_set_ab = MetabelianElement.ab.__set__
_set_flow = MetabelianElement._flow.__set__


def _make_metabelian(ab: Point, flow: SparseVector) -> MetabelianElement:
    element = object.__new__(MetabelianElement)
    _set_ab(element, ab)
    _set_flow(element, flow)
    return element


def metabelian_identity() -> MetabelianElement:
    return MetabelianElement()


def metabelian_bindings() -> Dict[str, MetabelianElement]:
    x = MetabelianElement((1, 0), {(0, 0, "H"): 1})
    y = MetabelianElement((0, 1), {(0, 0, "V"): 1})
    return {"x": x, "X": x.inv(), "y": y, "Y": y.inv()}


def metabelian_eval(word: str | Iterable[str],
                    bindings: Dict[str, MetabelianElement] | None = None
                    ) -> MetabelianElement:
    """Left-to-right product of bound elements, folded over runs of equal
    letters.

    The fold accumulates the flow's difference along each edge's own
    direction, ``D(x, y, o) = f(x, y, o) - f((x, y) - unit(o), o)``.  A
    straight run such as ``x^k`` changes D at its two ends only, so its
    cost does not depend on k; any other binding adds its own D, computed
    once per letter and translated.  Prefix sums along each grid line turn
    D back into the flow at the end.
    """
    if bindings is None:
        bindings = metabelian_bindings()
    return _metabelian_fold(_runs(word), bindings)


def _flow_difference(flow: Dict[FlowKey, int]) -> Dict[FlowKey, int]:
    return _canon(Z, (pair for (x, y, o), v in flow.items() for pair in (
        ((x, y, o), v), ((x + 1, y, o) if o == "H" else (x, y + 1, o), -v))))


def _straight(diff: Dict[FlowKey, int], sx: int,
              sy: int) -> tuple[FlowKey, int] | None:
    """``(key, c)`` when D is ``c`` at key and ``-c`` one step further, so
    that k repeats telescope to ``c`` at key and ``-c`` k steps further."""
    if len(diff) == 2:
        for (x, y, o), c in diff.items():
            if diff.get((x + sx, y + sy, o)) == -c:
                return (x, y, o), c
    return None


def _metabelian_fold(runs: Iterable[Run],
                     bindings: Dict[str, MetabelianElement]
                     ) -> MetabelianElement:
    diff: Dict[FlowKey, int] = {}
    steps: Dict[str, tuple] = {}
    px, py = 0, 0
    for letter, k in runs:
        if letter not in steps:
            element = _bound(bindings, letter)
            own = _flow_difference(element._flow._entries)
            sx, sy = element.ab
            steps[letter] = (own, sx, sy, _straight(own, sx, sy))
        own, sx, sy, straight = steps[letter]
        if straight is not None:
            (x, y, o), c = straight
            start = (x + px, y + py, o)
            end = (x + px + k * sx, y + py + k * sy, o)
            diff[start] = diff.get(start, 0) + c
            diff[end] = diff.get(end, 0) - c
            px += k * sx
            py += k * sy
            continue
        repeats = k
        if not (sx or sy):
            repeats, own = 1, {key: k * v for key, v in own.items()}
        for _ in range(repeats):
            for (x, y, o), v in own.items():
                key = (x + px, y + py, o)
                diff[key] = diff.get(key, 0) + v
            px += sx
            py += sy
    return _make_metabelian((px, py), _make_vector(
        SparseVector, Z, _flow_from_difference(diff)))


def _flow_from_difference(diff: Dict[FlowKey, int]) -> Dict[FlowKey, int]:
    """Prefix sums of D along each horizontal and vertical grid line."""
    lines: Dict[tuple[str, int], list[tuple[int, int]]] = {}
    for (x, y, o), d in diff.items():
        if d:
            if o == "H":
                lines.setdefault((o, y), []).append((x, d))
            else:
                lines.setdefault((o, x), []).append((y, d))
    flow: Dict[FlowKey, int] = {}
    for (o, line), points in lines.items():
        points.sort()
        running = 0
        for (t, d), (t_next, _) in zip(points, points[1:]):
            running += d
            if running:
                for u in range(t, t_next):
                    flow[(u, line, o) if o == "H" else (line, u, o)] = running
    return flow


def flow_boundary(flow: Dict[FlowKey, int]) -> Dict[Point, int]:
    """Net in-minus-out of each grid point under the flow."""
    return _canon(Z, (pair for (x, y, o), v in flow.items() for pair in (
        ((x, y), -v), ((x + 1, y) if o == "H" else (x, y + 1), v))))


def is_circulation(flow: Dict[FlowKey, int]) -> bool:
    return not flow_boundary(flow)


def cell_flow(a: int, b: int, value: int = 1) -> Dict[FlowKey, int]:
    """Flow of the commutator x y x' y' pushed to the unit cell at (a, b)."""
    return {(x + a, y + b, o): v * value
            for (x, y, o), v in _CELL_FLOW.items()}


def cells_to_flow(cells: Dict[Point, int]) -> Dict[FlowKey, int]:
    return _canon(Z, ((key, v) for (a, b), value in cells.items()
                      for key, v in cell_flow(a, b, value).items()))


def flow_decompose(flow: Dict[FlowKey, int]) -> Dict[Point, int]:
    """Write a circulation as an integer combination of unit-cell flows.

    The cell coefficient over (a, b) is the running sum of the horizontal
    edge values in column ``a`` up to height ``b``; zero boundary makes the
    vertical edges come out right automatically, and the combination is
    unique because cell flows are linearly independent.  Raises
    :class:`NotACycle` when the flow has nonzero boundary.
    """
    flow = _canon(Z, flow.items())
    if not is_circulation(flow):
        raise NotACycle("flow has nonzero boundary")
    columns: Dict[int, list[tuple[int, int]]] = {}
    for (x, y, o), v in flow.items():
        if o == "H":
            columns.setdefault(x, []).append((y, v))
    cells: Dict[Point, int] = {}
    for x, pairs in columns.items():
        pairs.sort()
        running = 0
        for (y, v), (next_y, _) in zip(pairs, pairs[1:] + [(None, 0)]):
            running += v
            if running:
                if next_y is None:
                    raise NotACycle(f"column {x} does not balance")
                for b in range(y, next_y):
                    cells[(x, b)] = running
    if cells_to_flow(cells) != flow:
        raise AssertionError("cell decomposition does not re-create the flow")
    return cells


def cells_to_word(cells: Dict[Point, int]) -> str:
    """Word over x/y whose flow is the given combination of unit cells:
    per cell, a conjugated power of the commutator."""
    tokens: list[str] = []
    for (a, b) in sorted(cells, key=lambda c: (c[1], c[0])):
        value = cells[(a, b)]
        if not value:
            continue
        unit = ["x", "y", "X", "Y"] if value > 0 else ["y", "x", "Y", "X"]
        tokens += pow_tokens("x", a)
        tokens += pow_tokens("y", b)
        tokens += unit * abs(value)
        tokens += pow_tokens("y", -b)
        tokens += pow_tokens("x", -a)
    return word_from_tokens(tokens)


def flow_to_word(flow: Dict[FlowKey, int]) -> str:
    """Word over x/y evaluating to (0, flow); requires a circulation."""
    return cells_to_word(flow_decompose(flow))


def basis_change(vec: Sequence[int]) -> tuple[int, ...]:
    """Bijection of Z^m: subtract the last coordinate from the others."""
    if not vec:
        return ()
    last = vec[-1]
    return tuple(v - last for v in vec[:-1]) + (last,)


def basis_change_inv(vec: Sequence[int]) -> tuple[int, ...]:
    if not vec:
        return ()
    last = vec[-1]
    return tuple(v + last for v in vec[:-1]) + (last,)


# ---------------------------------------------------------------------------
# submonoid membership instances

WREATH = "wreath"
METABELIAN = "free-metabelian"


@dataclass(frozen=True)
class SubmonoidInstance:
    """Is the target word's value a product of the generator words' values?

    ``flavor`` selects the ambient group: ``"wreath"`` (ring by Z x Z) or
    ``"free-metabelian"`` (rank 2, integer flows).  The generator list is
    always the flattened module generators followed by the four move words
    (x-stride forward/back, y step up/down).
    """

    flavor: str
    ring: Ring
    rank: int
    stride: int
    generators: tuple[str, ...]
    target: str

    def __post_init__(self):
        if self.flavor not in (WREATH, METABELIAN):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == METABELIAN and self.ring != Z:
            raise ValueError("free metabelian flavor requires integer ring")

    @property
    def module_generator_count(self) -> int:
        return len(self.generators) - 4

    def move_indices(self) -> tuple[int, int, int, int]:
        """Indices of the x-forward, x-back, y-up, y-down move words."""
        k = self.module_generator_count
        return (k, k + 1, k + 2, k + 3)


def make_submonoid_instance(instance: SemimoduleInstance,
                            flavor: str = WREATH) -> SubmonoidInstance:
    """Flatten a module membership instance into a word problem.

    Module generators become words for their flattened values; translation
    of a generator by (dx, dy) corresponds to conjugating its word by
    ``x^(stride * dx) y^dy``, which the four move words make available
    inside the submonoid.
    """
    if flavor == WREATH:
        stride = max(instance.rank, 1)
        gen_words = tuple(module_to_word(g, stride)
                          for g in instance.generators)
        target = module_to_word(instance.target, stride)
    elif flavor == METABELIAN:
        if instance.ring != Z:
            raise ValueError("free metabelian flavor requires integer ring")
        stride = instance.rank + 1
        gen_words = tuple(cells_to_word(embed_module(g, stride))
                          for g in instance.generators)
        target = cells_to_word(embed_module(instance.target, stride))
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    moves = (
        word_from_tokens(pow_tokens("x", stride)),
        word_from_tokens(pow_tokens("x", -stride)),
        "y",
        "Y",
    )
    return SubmonoidInstance(flavor, instance.ring, instance.rank, stride,
                             gen_words + moves, target)


def witness_to_submonoid_certificate(witness,
                                     instance: SubmonoidInstance
                                     ) -> tuple[int, ...]:
    """Turn a module witness into a generator-index sequence: per term,
    move words shift to the translation, the generator repeats by its
    coefficient, and inverse moves return to the origin."""
    xf, xb, yu, yd = instance.move_indices()
    indices: list[int] = []
    for term in witness:
        if len(term) == 4:
            gen, dx, dy, coeff = term
        else:
            gen, dx, dy = term
            coeff = 1
        if not 0 <= gen < instance.module_generator_count:
            raise BadIndex(f"generator {gen} out of range")
        indices += [xf] * dx if dx >= 0 else [xb] * (-dx)
        indices += [yu] * dy if dy >= 0 else [yd] * (-dy)
        indices += [gen] * coeff
        indices += [yd] * dy if dy >= 0 else [yu] * (-dy)
        indices += [xb] * dx if dx >= 0 else [xf] * (-dx)
    return tuple(indices)


def verify_submonoid_certificate(instance: SubmonoidInstance,
                                 indices: Sequence[int]) -> bool:
    """Concatenate the chosen generator words and compare with the target
    by direct evaluation in the ambient group.

    Every index is checked before anything is evaluated.  Each used
    generator word is read into runs once, and ``r`` equal indices in a
    row that pick a one-run word (the move words) become a single run, so
    the cost is per run of the chosen words, not per letter.  In the free
    metabelian group it does not depend on run length.
    """
    count = len(instance.generators)
    for i in indices:
        if not 0 <= i < count:
            raise BadIndex(f"generator {i} out of range")
    words = {i: list(_runs(instance.generators[i])) for i in set(indices)}

    def chosen() -> Iterator[Run]:
        for i, group in groupby(indices):
            repeats = len(list(group))
            word = words[i]
            if len(word) == 1:
                letter, m = word[0]
                yield letter, repeats * m
            else:
                for _ in range(repeats):
                    yield from word

    if instance.flavor == WREATH:
        bindings = wreath_bindings(instance.ring)
        value = _wreath_fold(chosen(), bindings, instance.ring)
        target = wreath_eval(instance.target, bindings, instance.ring)
    else:
        bindings = metabelian_bindings()
        value = _metabelian_fold(chosen(), bindings)
        target = metabelian_eval(instance.target, bindings)
    return value == target


# ---------------------------------------------------------------------------
# serialization

def submonoid_to_dict(instance: SubmonoidInstance) -> dict:
    return {
        "flavor": instance.flavor,
        "ring": instance.ring.name,
        "rank": instance.rank,
        "stride": instance.stride,
        "generators": list(instance.generators),
        "target": instance.target,
    }


def submonoid_from_dict(data: dict) -> SubmonoidInstance:
    extra = set(data) - {"flavor", "ring", "rank", "stride", "generators",
                         "target"}
    if extra:
        raise ValueError(f"unexpected fields: {sorted(extra)}")
    return SubmonoidInstance(
        data["flavor"],
        ring_from_name(data["ring"]),
        int(data["rank"]),
        int(data["stride"]),
        tuple(str(w) for w in data["generators"]),
        str(data["target"]),
    )
