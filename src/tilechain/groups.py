"""Wreath products over the grid, free metabelian flows, and submonoid
membership instances.

Two ambient groups are modelled.  Both are semidirect products: Z x Z
acts by translation on a module, and a pair (position p, vector f)
multiplies as (p, f)(q, g) = (p + q, f + p·g), with p·g the translate.

  * the wreath product of a coefficient ring by the grid group Z x Z —
    the vector is a finitely supported lamp function on the grid; and
  * the free metabelian group of rank 2 — the position is the
    abelianized image, the vector the net traversal of each unit edge
    when the word is read as a walk (the Magnus embedding).

One private element type and one run fold serve both.

Module membership instances embed into both: a rank-r module element is
flattened to rank 1 by spacing coordinates along the x-axis with a fixed
stride, and translations of generators become conjugation by powers of
the ambient letters.  The resulting questions are packaged as
``SubmonoidInstance`` values whose generators and target are plain words,
re-checkable by direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from operator import index
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .documents import fields
from .edges import (Ring, RingMismatch, SparseVector, Z, _canon,
                    _make_vector, _reduced, ring_from_name)
from .modules import (BadTerm, ModuleElement, SemimoduleInstance,
                      non_int_term)

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


def _power(letter: str, k: int) -> str:
    """``letter^k`` as text, each letter followed by one space; a negative
    power swaps case."""
    return (f"{letter} " if k >= 0 else f"{letter.swapcase()} ") * abs(k)


def _walk(stops: Iterable[tuple[int, int, Sequence]],
          x_steps: tuple[Sequence, Sequence],
          y_steps: tuple[Sequence, Sequence]) -> list[Sequence]:
    """The pieces of one walk that puts each stop's piece at its point and
    returns to the origin once; a caller joins or chains them.

    ``stops`` are ``(x, y, piece)`` triples sorted column-major, and the
    steps are ``(forward, back)`` pairs of unit steps, so one walk spells
    text and generator indices alike.  The walk starts with ``x^a y^b`` to
    the first stop; within a column it steps by ``y^(b2-b1)``, between
    columns by ``y^-b1 x^(a2-a1) y^b2``; after the last stop ``y^-b x^-a``
    returns.  It is the free reduction of one conjugate ``x^a y^b · piece ·
    y^-b x^-a`` per stop in that order, so where the conjugates commute it
    has their product's value in any order, and its length is about the
    pieces plus 2·columns·rows steps, not 2(|a| + |b|) per stop.
    """
    (xf, xb), (yu, yd) = x_steps, y_steps
    pieces: list[Sequence] = []
    a = b = 0
    # ``forward * k or back * -k``: k steps, whatever the sign of k.
    for sx, sy, piece in stops:
        if sx != a:
            pieces += (yd * b or yu * -b, xf * (sx - a) or xb * (a - sx))
            a, b = sx, 0
        pieces += (yu * (sy - b) or yd * (b - sy), piece)
        b = sy
    pieces += (yd * b or yu * -b, xb * a or xf * -a)
    return pieces


def _spell_walk(points: Dict[Point, int], body: str) -> str:
    """The :func:`_walk` over x/y that writes ``body`` v times at each
    point of value v, its inverse -v times where v < 0.  The inverse is
    read by :func:`_power`'s rule: the letters reversed, case swapped.
    Each letter is followed by one space, except the last."""
    inverse = "".join(_power(letter, -1) for letter in body.split()[::-1])
    stops = [(px, py, body * v or inverse * -v)
             for (px, py), v in sorted(points.items()) if v]
    return "".join(_walk(stops, ("x ", "X "), ("y ", "Y ")))[:-1]


Run = Tuple[str, int]  # (letter, repeat count >= 1)


def _runs(word: str | Iterable[str]) -> Iterator[Run]:
    """Maximal runs of equal letters in a whitespace-separated string or a
    token iterable, such as a certificate's generator indices."""
    tokens = word.split() if isinstance(word, str) else word
    for letter, group in groupby(tokens):
        yield letter, len(list(group))


def _bound(bindings: Dict, letter: str):
    try:
        return bindings[letter]
    except KeyError:
        raise UnboundSymbol(f"no binding for {letter!r}") from None


# ---------------------------------------------------------------------------
# the semidirect product of Z x Z with a module

class _SemidirectElement:
    """Immutable pair (position in Z x Z, module vector), multiplied by
    ``(p, f)(q, g) = (p + q, f + p·g)``.

    The vector is one sparse core vector (``edges.SparseVector``).  It is
    never mutated, so elements may share it: a product with a pure move
    (zero vector) reuses the left factor's vector, cached hash included.
    Elements of two subclasses are never equal and do not multiply.
    """

    __slots__ = ("pos", "_vec")

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _make_element, (type(self), self.pos, self._vec)

    def is_identity(self) -> bool:
        return self.pos == (0, 0) and self._vec.is_zero()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.pos == other.pos and self._vec == other._vec

    def __hash__(self):
        return hash((self.pos, self._vec))

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        (px, py), (qx, qy) = self.pos, other.pos
        return _make_element(type(self), (px + qx, py + qy),
                             self._vec.plus(other._vec, 1, px, py))

    def inv(self):
        px, py = self.pos
        return _make_element(type(self), (-px, -py),
                             (-self._vec).translate(-px, -py))


_set_pos = _SemidirectElement.pos.__set__
_set_vec = _SemidirectElement._vec.__set__


def _make_element(cls, pos: Point, vec: SparseVector):
    """A ``cls`` element from a position and a vector, without the
    constructor's conversion and canon pass."""
    element = object.__new__(cls)
    _set_pos(element, pos)
    _set_vec(element, vec)
    return element


def _straight(sums: Dict[tuple, int], sx: int,
              sy: int) -> tuple[tuple, int] | None:
    """``(key, c)`` when the sums are ``c`` at key and ``-c`` one step
    further on, so that k repeats telescope to ``c`` at key and ``-c`` k
    steps further on."""
    if len(sums) == 2:
        for (x, y, tag), c in sums.items():
            if sums.get((x + sx, y + sy, tag)) == -c:
                return (x, y, tag), c
    return None


# (plain sums added from the origin, x and y displacement, telescoping form)
Step = Tuple[Dict[tuple, int], int, int, Optional[Tuple[tuple, int]]]


def _step(pos: Point, own: Dict[tuple, int]) -> Step:
    """One fold step: the plain sums ``own`` that a value adds with the
    walker at the origin, its displacement, and its telescoping form."""
    sx, sy = pos
    return own, sx, sy, _straight(own, sx, sy)


class _Steps(dict):
    """Fold steps read lazily: ``read(key)`` gives the step of a key the
    first time it is looked up, so unused bindings or words are never
    read.  A read that raises keeps nothing."""

    __slots__ = ("_read",)

    def __init__(self, read):
        super().__init__()
        self._read = read

    def __missing__(self, key) -> Step:
        step = self[key] = self._read(key)
        return step


def _letter_steps(bindings: Dict, ring: Ring, cls) -> _Steps:
    """The fold steps of letters bound to ``cls`` elements over ``ring``:
    a binding of the other group raises ``TypeError``, one over another
    ring :class:`RingMismatch`, a missing one :class:`UnboundSymbol`."""

    def read(letter: str) -> Step:
        element = _bound(bindings, letter)
        if not isinstance(element, cls):
            raise TypeError(f"{letter!r} is bound to a "
                            f"{type(element).__name__} of another group")
        if element._vec.ring != ring:
            raise RingMismatch(f"{element._vec.ring.name} binding for "
                               f"{letter!r} in a {ring.name} evaluation")
        return _step(element.pos, element._read())

    return _Steps(read)


def _fold(runs: Iterable[tuple], steps) -> tuple[Point, Dict[tuple, int]]:
    """Position and plain sums of the product of a run sequence.

    ``runs`` holds ``(key, repeats)`` pairs and ``steps`` maps each key to
    its :func:`_step`: the :func:`_letter_steps` of a word's letters, or
    the steps of a certificate's generator words.  The fold keeps one
    mutable accumulator and adds each step's sums translated to the
    walker's position.  A run of a pure move, or of a step whose sums
    telescope (see :func:`_straight`), costs the same for every length; a
    run of a step that does not move adds its sums once, each scaled by
    the run length; any other step is applied once per repeat.  The
    caller turns the sums into the element's vector.
    """
    sums: Dict[tuple, int] = {}
    px, py = 0, 0
    for key, k in runs:
        own, sx, sy, straight = steps[key]
        if straight is not None:
            (x, y, tag), c = straight
            start = (x + px, y + py, tag)
            end = (x + px + k * sx, y + py + k * sy, tag)
            sums[start] = sums.get(start, 0) + c
            sums[end] = sums.get(end, 0) - c
        elif not (sx or sy):
            for (x, y, tag), v in own.items():
                at = (x + px, y + py, tag)
                sums[at] = sums.get(at, 0) + k * v
        elif own:
            qx, qy = px, py
            for _ in range(k):
                for (x, y, tag), v in own.items():
                    at = (x + qx, y + qy, tag)
                    sums[at] = sums.get(at, 0) + v
                qx += sx
                qy += sy
        px += k * sx
        py += k * sy
    return (px, py), sums


# ---------------------------------------------------------------------------
# wreath product of a ring by Z x Z

class WreathElement(_SemidirectElement):
    """Immutable pair (lamp function on the grid, position in Z x Z).

    The lamps are the shared core vector, keyed ``(a, b, 0)``.
    """

    __slots__ = ()

    def __init__(self, ring: Ring, fun: Dict[Point, int] | None = None,
                 pos: Point = (0, 0)):
        _set_vec(self, SparseVector(ring, (((a, b, 0), v) for (a, b), v
                                           in (fun or {}).items())))
        _set_pos(self, (int(pos[0]), int(pos[1])))

    def _read(self) -> Dict[tuple, int]:
        return self._vec._entries

    @property
    def ring(self) -> Ring:
        return self._vec.ring

    def fun(self) -> Dict[Point, int]:
        return {(a, b): v for (a, b, _), v in self._vec._entries.items()}

    def lamp_at(self, a: int, b: int) -> int:
        return self._vec._entries.get((a, b, 0), 0)

    def support(self) -> list[Point]:
        return sorted(self.fun(), key=lambda p: (p[1], p[0]))

    def __repr__(self) -> str:
        lamps = ", ".join(f"({a},{b}): {self.lamp_at(a, b)}"
                          for a, b in self.support())
        return f"WreathElement[{self.ring.name}]({{{lamps}}}, pos={self.pos})"


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
    move adds its scaled lamps once, a run of +c here and -c one step on
    telescopes, and any other binding is applied once per repeat.  Cost is
    per run, not per letter, for the standard x/y/g bindings.  The
    accumulator holds plain sums; they are reduced into the ring once,
    when the result's lamp vector is built.
    """
    pos, lamps = _fold(_runs(word), _letter_steps(bindings, ring,
                                                  WreathElement))
    return _make_element(WreathElement, pos, _make_vector(
        SparseVector, ring, _reduced(ring, lamps)))


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
    """Word over x/y/g spelling out the flattened element (see
    :func:`embed_module`, which refuses a stride below the rank) as one
    walk (see :func:`_walk`) that lights ``g^v`` at each lamp.  Lamps
    commute, so the walk's order changes no value."""
    return _spell_walk(embed_module(e, stride), "g ")


# ---------------------------------------------------------------------------
# free metabelian group of rank 2

_CELL_FLOW: Dict[FlowKey, int] = {
    (0, 0, "H"): 1,
    (1, 0, "V"): 1,
    (0, 1, "H"): -1,
    (0, 0, "V"): -1,
}


class MetabelianElement(_SemidirectElement):
    """Immutable pair (abelianized image in Z x Z, edge flow on the grid).

    The flow counts signed traversals of unit edges: key ``(x, y, 'H')``
    is the edge from (x, y) to (x+1, y), key ``(x, y, 'V')`` the edge from
    (x, y) to (x, y+1).  It is the shared core vector, over the integers,
    with the orientation as tag; the abelianized image is the position.
    """

    __slots__ = ()

    def __init__(self, ab: Point = (0, 0),
                 flow: Dict[FlowKey, int] | None = None):
        _set_pos(self, (int(ab[0]), int(ab[1])))
        _set_vec(self, SparseVector(Z, (flow or {}).items()))

    def _read(self) -> Dict[FlowKey, int]:
        return _flow_difference(self._vec._entries)

    @property
    def ab(self) -> Point:
        return self.pos

    def flow(self) -> Dict[FlowKey, int]:
        return dict(self._vec._entries)

    def __repr__(self) -> str:
        edges = ", ".join(f"{o}({x},{y}): {v:+d}" for (x, y, o), v in
                          sorted(self._vec._entries.items()))
        return f"MetabelianElement(ab={self.ab}, {{{edges}}})"


def metabelian_bindings() -> Dict[str, MetabelianElement]:
    x = MetabelianElement((1, 0), {(0, 0, "H"): 1})
    y = MetabelianElement((0, 1), {(0, 0, "V"): 1})
    return {"x": x, "X": x.inv(), "y": y, "Y": y.inv()}


def _horizontal_bindings() -> Dict[str, MetabelianElement]:
    """The standard bindings with the vertical edges dropped from the flow.

    Dropping the vertical edges is a homomorphism, since it commutes with
    addition and translation, and it is one-to-one on the group.  Every
    element's flow has boundary "end minus start", so two elements with
    the same position differ by a circulation.  If their horizontal edges
    agree, that circulation lies on vertical edges alone, is constant
    along each vertical line, and so is zero.
    """
    x = MetabelianElement((1, 0), {(0, 0, "H"): 1})
    y = MetabelianElement((0, 1))
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
    pos, diff = _fold(_runs(word), _letter_steps(bindings, Z,
                                                 MetabelianElement))
    return _make_element(MetabelianElement, pos, _make_vector(
        SparseVector, Z, _flow_from_difference(diff)))


def _flow_difference(flow: Dict[FlowKey, int]) -> Dict[FlowKey, int]:
    return _canon(Z, (pair for (x, y, o), v in flow.items() for pair in (
        ((x, y, o), v), ((x + 1, y, o) if o == "H" else (x, y + 1, o), -v))))


def _line_sums(lines: Dict) -> Iterator[tuple]:
    """``(line, t, running)`` for every place ``t`` of every line at which
    the running sum of the line's ``(t, value)`` points is nonzero.  The
    sum is taken to be zero past a line's last point."""
    for line, points in lines.items():
        points.sort()
        running = 0
        for (t, d), (t_next, _) in zip(points, points[1:]):
            running += d
            if running:
                for u in range(t, t_next):
                    yield line, u, running


def _flow_from_difference(diff: Dict[FlowKey, int]) -> Dict[FlowKey, int]:
    """Prefix sums of D along each horizontal and vertical grid line."""
    lines: Dict[tuple[str, int], list[tuple[int, int]]] = {}
    for (x, y, o), d in diff.items():
        if d:
            if o == "H":
                lines.setdefault((o, y), []).append((x, d))
            else:
                lines.setdefault((o, x), []).append((y, d))
    return {(u, line, o) if o == "H" else (line, u, o): running
            for (o, line), u, running in _line_sums(lines)}


def flow_boundary(flow: Dict[FlowKey, int]) -> Dict[Point, int]:
    """Net in-minus-out of each grid point under the flow: minus the sum
    of the flow's differences (see :func:`_flow_difference`) at it."""
    return _canon(Z, (((x, y), -d) for (x, y, _), d
                      in _flow_difference(flow).items()))


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
    # A column's horizontal edges sum to the net flow across it, which is
    # zero for a circulation, so every running sum ends at zero.
    cells = {(x, b): running for x, b, running in _line_sums(columns)}
    if cells_to_flow(cells) != flow:
        raise AssertionError("cell decomposition does not re-create the flow")
    return cells


def cells_to_word(cells: Dict[Point, int]) -> str:
    """Word over x/y whose flow is the given combination of unit cells: one
    walk (see :func:`_walk`) that writes the commutator ``x y X Y`` to the
    power v at each cell.  The commutators' conjugates lie in the derived
    subgroup, which is abelian, so the walk's order changes no value."""
    return _spell_walk(cells, "x y X Y ")


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


def _spell(e: ModuleElement, flavor: str, stride: int) -> str:
    """The word of a flattened module element: lamps for the wreath
    product, unit-cell commutators for the free metabelian group."""
    if flavor == METABELIAN:
        return cells_to_word(embed_module(e, stride))
    return module_to_word(e, stride)


@lru_cache(maxsize=32)
def _generator_words(generators: tuple[ModuleElement, ...], flavor: str,
                     stride: int) -> tuple[str, ...]:
    """The generators' words followed by the four move words, spelled once
    for every instance with equal generators, flavor and stride.  Words
    are immutable, so instances share the tuple."""
    moves = (" ".join("x" * stride), " ".join("X" * stride), "y", "Y")
    return tuple(_spell(g, flavor, stride) for g in generators) + moves


def make_submonoid_instance(instance: SemimoduleInstance,
                            flavor: str = WREATH) -> SubmonoidInstance:
    """Flatten a module membership instance into a word problem.

    Module generators become words for their flattened values; translation
    of a generator by (dx, dy) corresponds to conjugating its word by
    ``x^(stride * dx) y^dy``, which the four move words make available
    inside the submonoid.

    Every module element, generator or target, is spelled as one
    :func:`_walk` over its lamps or unit cells, so the words grow with the
    support and the columns, not with each entry's distance from the
    origin.

    The generator and move words depend on the generators, the flavor and
    the stride alone, so they come from :func:`_generator_words` and equal
    generators share one tuple of words; only the target is spelled on
    every call.
    """
    stride = instance.rank + 1 if flavor == METABELIAN else \
        max(instance.rank, 1)
    words = _generator_words(tuple(instance.generators), flavor, stride)
    return SubmonoidInstance(flavor, instance.ring, instance.rank, stride,
                             words, _spell(instance.target, flavor, stride))


def witness_to_submonoid_certificate(witness,
                                     instance: SubmonoidInstance
                                     ) -> tuple[int, ...]:
    """Turn a module witness into a generator-index sequence: the
    :func:`_walk` over the picks, with the move words as its steps, that
    adds ``gen`` repeated ``coeff`` times at ``(dx, dy)``.

    Each term is ``(gen, dx, dy)`` or ``(gen, dx, dy, coeff)``, all four
    of type ``int`` (``bool`` is refused); a non-int field, a generator
    out of range (:class:`BadIndex`) or a negative coefficient raises
    before anything is spelled.  The terms are sorted column-major, by
    ``(dx, dy, gen, coeff)``, and terms with coefficient 0 are dropped.
    So a one-term witness gives the conjugate ``x^a y^b · gen^coeff ·
    y^-b x^-a``.

    The walk's free reduction cancels only adjacent forward and back
    moves, which holds in any group.  The order is free because
    :func:`make_submonoid_instance` spells every module generator word
    with zero displacement, so the conjugates lie in an abelian normal
    subgroup (the lamp group, or the derived subgroup) and commute.
    :func:`verify_submonoid_certificate` relies on neither fact: it
    evaluates the indices as given, so a wrong order could only turn a
    yes into a no.
    """
    xf, xb, yu, yd = instance.move_indices()
    count = instance.module_generator_count
    picks: list[tuple[int, int, tuple[int, ...]]] = []
    for term in witness:
        if len(term) == 4:
            gen, dx, dy, coeff = term
        else:
            gen, dx, dy = term
            coeff = 1
        if not type(gen) is type(dx) is type(dy) is type(coeff) is int:
            raise non_int_term(gen, dx, dy, coeff)
        if not 0 <= gen < count:
            raise BadIndex(f"generator {gen} out of range")
        if coeff < 0:
            raise BadTerm(f"term {(gen, dx, dy, coeff)}: negative "
                          f"coefficient")
        if coeff:
            # A tuple of one gen repeated sorts as (gen, coeff) would.
            picks.append((dx, dy, (gen,) * coeff))
    picks.sort()
    return tuple(chain.from_iterable(_walk(picks, ((xf,), (xb,)),
                                           ((yu,), (yd,)))))


@lru_cache(maxsize=32)
def _word_steps(words: tuple[str, ...], flavor: str,
                ring: Ring) -> tuple[_Steps, _Steps]:
    """The fold steps of a tuple of generator words in one flavor and
    ring, by index, with the steps of the flavor's letters they are read
    with, kept for the target: one pair shared by every verification over
    equal words, flavor and ring.

    It is keyed by the words' text, never by how an instance was built, so
    a verdict stays a function of the instance's text.  Callers that race
    on one entry at most fold a word twice: each step is a function of its
    word."""
    if flavor == WREATH:
        letters = _letter_steps(wreath_bindings(ring), ring, WreathElement)
    else:
        letters = _letter_steps(_horizontal_bindings(), ring,
                                MetabelianElement)

    def read(i: int) -> Step:
        pos, sums = _fold(_runs(words[i]), letters)
        return _step(pos, {key: v for key, v in sums.items() if v})

    return _Steps(read), letters


def verify_submonoid_certificate(instance: SubmonoidInstance,
                                 indices: Sequence[int]) -> bool:
    """Multiply the chosen generator words' values and compare the product
    with the target's value in the ambient group.

    Every index is checked before anything is evaluated.  Each used
    generator word is then read from the instance's text and folded into
    its value, kept as a fold step (sums, displacement, telescoping form).
    The cheap invariant comes first: one pass over the certificate's runs
    of equal indices reads each used step, in the order the full fold
    would, so the same exception is raised first, and adds up the
    displacements.  The target is folded next, and a product that ends
    elsewhere is refused before any sums are added, as most certificates
    with a move missing are.  Only then are the runs folded with those
    steps, which is the same group product by associativity: a run of a
    generator that does not move is one scaled add, and a run of a move
    word is one shift or telescopes.  The cost is per run of indices plus
    one read of the target and of each used word not read before.  Any
    spelling of the target is read; :func:`make_submonoid_instance`
    spells it as one walk, so its fold is short.

    Nothing is taken from the construction of the instance.  What is kept
    between calls is the fold step of each generator word and of each
    letter, in a bounded memo (:func:`_word_steps`) keyed by the tuple of
    generator words, the flavor and the ring, so instances with equal
    words share it.  The target and the certificate's runs are folded on
    every call, and a word whose fold raises is read again next time.
    Indices are read as ints (``operator.index``), so a float index
    raises ``TypeError`` whatever the memo holds.

    Both values stay in the fold's coordinates: the position and the
    plain sums, reduced into the ring.  For the wreath product those are
    the lamps.  Free metabelian words are evaluated with the vertical
    edges dropped (see :func:`_horizontal_bindings`), a one-to-one
    homomorphism, and the sums are the horizontal flow's differences
    along x.  A finitely supported flow is the prefix sum of its
    differences, so equal sums mean equal elements.
    """
    count = len(instance.generators)
    runs = list(_runs(indices))
    for i, _ in runs:
        if not 0 <= i < count:
            raise BadIndex(f"generator {i} out of range")
    runs = [(index(i), k) for i, k in runs]
    ring = instance.ring
    steps, letters = _word_steps(tuple(instance.generators),
                                 instance.flavor, ring)
    px = py = 0
    for i, k in runs:
        _, sx, sy, _ = steps[i]
        px += k * sx
        py += k * sy
    target_pos, target_sums = _fold(_runs(instance.target), letters)
    if (px, py) != target_pos:
        return False
    _, sums = _fold(runs, steps)
    return _reduced(ring, sums) == _reduced(ring, target_sums)


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
    """Read a word-product instance; its words must be strings."""
    flavor, ring_name, rank, stride, generators, target = fields(
        data, "submonoid instance", {"flavor": None, "ring": None, "rank": int,
                                     "stride": int, "generators": list,
                                     "target": None})
    for word in (*generators, target):
        if type(word) is not str:
            raise ValueError("submonoid instance words must be strings, "
                             f"not {type(word).__name__}")
    return SubmonoidInstance(flavor, ring_from_name(ring_name), rank, stride,
                             tuple(generators), target)
