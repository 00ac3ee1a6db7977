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


_X, _Y = ("x", "X"), ("y", "Y")


def _conjugate(a: int, b: int, body: list, x: tuple, y: tuple) -> list:
    """``x^a y^b · body · y^-b x^-a`` as a list, where ``x`` and ``y`` are
    ``(forward, back)`` symbols: letters of a word, or generator indices."""
    word = [x[a < 0]] * abs(a)
    word += [y[b < 0]] * abs(b)
    word += body
    word += [y[b >= 0]] * abs(b)
    word += [x[a >= 0]] * abs(a)
    return word


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


def _fold(runs: Iterable[Run], bindings: Dict, ring: Ring,
          read) -> tuple[Point, Dict[tuple, int]]:
    """Position and plain sums of the product of a run sequence.

    ``read`` is one flavor's ``_read``: the plain sums an element adds
    with the walker at the origin.  The fold keeps one mutable
    accumulator and adds each binding's sums translated to the walker's
    position.  A run of a pure move, or of a binding whose sums telescope
    (see :func:`_straight`), costs the same for every length, a run of a
    binding that does not move adds its scaled sums once, and any other
    binding is applied once per repeat.  The caller turns the sums into
    the element's vector.
    """
    sums: Dict[tuple, int] = {}
    steps: Dict[str, tuple] = {}
    px, py = 0, 0
    for letter, k in runs:
        step = steps.get(letter)
        if step is None:
            element = _bound(bindings, letter)
            if type(element)._read is not read:
                raise TypeError(f"{letter!r} is bound to a "
                                f"{type(element).__name__} of another group")
            if element._vec.ring != ring:
                raise RingMismatch(f"{element._vec.ring.name} binding in "
                                   f"{ring.name} evaluation")
            own = read(element)
            sx, sy = element.pos
            step = steps[letter] = (own, sx, sy, _straight(own, sx, sy))
        own, sx, sy, straight = step
        if straight is not None:
            (x, y, tag), c = straight
            start = (x + px, y + py, tag)
            end = (x + px + k * sx, y + py + k * sy, tag)
            sums[start] = sums.get(start, 0) + c
            sums[end] = sums.get(end, 0) - c
        elif own:
            repeats, qx, qy = k, px, py
            if not (sx or sy):
                repeats, own = 1, {key: k * v for key, v in own.items()}
            for _ in range(repeats):
                for (x, y, tag), v in own.items():
                    key = (x + qx, y + qy, tag)
                    sums[key] = sums.get(key, 0) + v
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
    return _wreath_of_runs(_runs(word), bindings, ring)


def _wreath_of_runs(runs: Iterable[Run], bindings: Dict[str, WreathElement],
                    ring: Ring) -> WreathElement:
    pos, lamps = _fold(runs, bindings, ring, WreathElement._read)
    return _make_element(WreathElement, pos, SparseVector(ring, lamps.items()))


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
        tokens += _conjugate(stride * a + j, b, pow_tokens("g", v), _X, _Y)
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
    return _metabelian_of_runs(_runs(word), bindings, Z)


def _metabelian_of_runs(runs: Iterable[Run],
                        bindings: Dict[str, MetabelianElement],
                        ring: Ring) -> MetabelianElement:
    pos, diff = _fold(runs, bindings, ring, MetabelianElement._read)
    return _make_element(MetabelianElement, pos, _make_vector(
        SparseVector, Z, _flow_from_difference(diff)))


def _flow_difference(flow: Dict[FlowKey, int]) -> Dict[FlowKey, int]:
    return _canon(Z, (pair for (x, y, o), v in flow.items() for pair in (
        ((x, y, o), v), ((x + 1, y, o) if o == "H" else (x, y + 1, o), -v))))


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
        tokens += _conjugate(a, b, unit * abs(value), _X, _Y)
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
    if flavor == METABELIAN:
        stride = instance.rank + 1
        gen_words = tuple(cells_to_word(embed_module(g, stride))
                          for g in instance.generators)
        target = cells_to_word(embed_module(instance.target, stride))
    else:
        stride = max(instance.rank, 1)
        gen_words = tuple(module_to_word(g, stride)
                          for g in instance.generators)
        target = module_to_word(instance.target, stride)
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
        indices += _conjugate(dx, dy, [gen] * coeff, (xf, xb), (yu, yd))
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
        product, bindings = _wreath_of_runs, wreath_bindings(instance.ring)
    else:
        product, bindings = _metabelian_of_runs, metabelian_bindings()
    return (product(chosen(), bindings, instance.ring)
            == product(_runs(instance.target), bindings, instance.ring))


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
