"""Finitely generated modules over translated generators.

An edge map over a color set ``C`` is the same data as a vector with one
coordinate per (color, orientation) pair attached to each grid point: the
maps form a free module of rank ``2|C|`` over translations of the plane.
This module rephrases tiling questions in that language:

  * a tiling system plus a starting map becomes a membership instance —
    is the negated starting map a nonnegative combination of translated
    tile vectors? — and
  * restricting coefficients to 0/1 with pairwise distinct translations
    gives a subset-sum variant whose witnesses are exactly tile placements
    with no two tiles stacked on one cell.

One bounded branching search (translation window, coefficient set, node
budget) answers both questions and returns explicit witnesses that can be
re-checked by plain arithmetic.  It keeps the current path on an explicit
stack, so a witness may have more terms than the interpreter's recursion
limit.  Over a prime modulus, membership is settled exactly instead: the
windowed linear system is brought to row echelon form and solved by
back-substitution.

:class:`ModuleElement` is the sparse core of ``edges`` (``SparseVector``)
with coordinate indices as tags, plus a rank that every sum checks.  A
search step is one fused call: the child residual is
``residual.plus(generator, -coeff, dx, dy)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .documents import fields, wrong_type
from .edges import (EdgeMap, Ring, RingMismatch, SparseVector, ring_from_name,
                    tile_eval)
from .tiling import Certificate, Color, TilingSystem


class UnknownColor(ValueError):
    """An edge map mentions a color outside the chosen color list."""


class RankMismatch(ValueError):
    """Two module elements of different ranks were combined."""


class DuplicateShift(ValueError):
    """A subset-sum witness reuses a translation."""


class BadTerm(ValueError):
    """A witness term has a field that is not an int, names no generator or
    has a negative coefficient."""


EntryKey = tuple[int, int, int]  # (x, y, coordinate index)


def _entry_sort_key(key: EntryKey) -> tuple[int, int, int]:
    x, y, idx = key
    return (y, x, idx)


class ModuleElement(SparseVector):
    """Immutable finitely supported vector-valued function on the grid.

    Entries are keyed by ``(x, y, idx)`` where ``idx`` names one of the
    ``rank`` coordinates.  Supports addition, negation, integer scaling and
    translation; all values live in the given coefficient ring.
    """

    __slots__ = ("rank",)

    def __init__(self, ring: Ring, rank: int,
                 entries: dict[EntryKey, int] | None = None):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        SparseVector.__init__(self, ring, (entries or {}).items())
        for (_, _, idx) in self._entries:
            if not 0 <= idx < rank:
                raise RankMismatch(f"coordinate {idx} outside rank {rank}")
        _set_rank(self, rank)

    def __reduce__(self):
        return ModuleElement, (self.ring, self.rank, self._entries)

    def _derive(self, entries: dict) -> "ModuleElement":
        element = SparseVector._derive(self, entries)
        _set_rank(element, self.rank)
        return element

    def _check(self, other: "ModuleElement") -> None:
        SparseVector._check(self, other)
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def value(self, x: int, y: int, idx: int) -> int:
        return self._entries.get((x, y, idx), 0)

    def support(self) -> list[EntryKey]:
        return sorted(self._entries, key=_entry_sort_key)

    def items(self) -> list[tuple[EntryKey, int]]:
        return [(key, self._entries[key]) for key in self.support()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.rank == other.rank and SparseVector.__eq__(self, other)

    __hash__ = SparseVector.__hash__

    def __repr__(self) -> str:
        inside = ", ".join(f"({x},{y},{idx}): {v:+d}"
                           for (x, y, idx), v in self.items())
        return f"ModuleElement[{self.ring.name}, rank {self.rank}]{{{inside}}}"


_set_rank = ModuleElement.rank.__set__


def zero_element(ring: Ring, rank: int) -> ModuleElement:
    return ModuleElement(ring, rank)


def unit(ring: Ring, rank: int, x: int, y: int, idx: int,
         value: int = 1) -> ModuleElement:
    return ModuleElement(ring, rank, {(x, y, idx): value})


def color_index(colors: Sequence[Color], color: Color, orient: str) -> int:
    """Coordinate index of an oriented color: H block first, then V block."""
    try:
        pos = colors.index(color)
    except ValueError:
        raise UnknownColor(f"color {color!r} not in color list") from None
    if orient == "H":
        return pos
    if orient == "V":
        return len(colors) + pos
    raise ValueError(f"orientation must be 'H' or 'V', got {orient!r}")


def from_edgemap(f: EdgeMap, colors: Sequence[Color]) -> ModuleElement:
    """Flatten an edge map into a module element of rank ``2 * len(colors)``."""
    return _flatten(f, colors, _color_table(colors))


def _color_table(colors: Sequence[Color]) -> dict[tuple[str, Color], int]:
    """Coordinate index of every (orientation, color) tag of ``colors``."""
    table: dict[tuple[str, Color], int] = {}
    for pos, color in enumerate(colors):
        table.setdefault(("H", color), pos)
        table.setdefault(("V", color), len(colors) + pos)
    return table


def _flatten(f: EdgeMap, colors: Sequence[Color], table) -> ModuleElement:
    """:func:`from_edgemap`; a tag outside ``table`` fails in color_index."""
    entries: dict[EntryKey, int] = {}
    for (x, y, tag), value in f._entries.items():
        idx = table[tag] if tag in table else color_index(colors, tag[1], tag[0])
        entries[(x, y, idx)] = value
    return ModuleElement(f.ring, 2 * len(colors), entries)


@dataclass(frozen=True)
class SemimoduleInstance:
    """Bounded membership question: is ``target`` a nonnegative combination
    of translated ``generators``?

    ``mode`` is ``"semimodule"`` (arbitrary nonnegative coefficients) or
    ``"subset-sum"`` (0/1 coefficients, pairwise distinct translations).
    """

    ring: Ring
    rank: int
    generators: tuple[ModuleElement, ...]
    target: ModuleElement
    mode: str = "semimodule"

    def __post_init__(self):
        if self.mode not in ("semimodule", "subset-sum"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for element in (*self.generators, self.target):
            if element.ring != self.ring:
                raise RingMismatch(
                    f"{element.ring.name} element in {self.ring.name} instance")
            if element.rank != self.rank:
                raise RankMismatch(
                    f"rank {element.rank} element in rank {self.rank} instance")


def tiling_to_instance(ts: TilingSystem, f0: EdgeMap,
                       mode: str = "semimodule") -> SemimoduleInstance:
    """Instance whose witnesses are the tile multisets cancelling ``f0``.

    Generators are the tile vectors in system order; the target is the
    negated starting map, so a witness sums to exactly ``-f0``.  The
    generators depend on the system and the ring alone: they come from
    :func:`_tile_vectors`, so equal systems share one tuple, and only the
    target is flattened on every call.
    """
    table = _color_table(ts.colors)
    target = _flatten(-f0, ts.colors, table)
    return SemimoduleInstance(f0.ring, 2 * len(ts.colors),
                              _tile_vectors(ts, f0.ring), target, mode)


@lru_cache(maxsize=32)
def _tile_vectors(ts: TilingSystem, ring: Ring) -> tuple[ModuleElement, ...]:
    """The flattened tile vectors of a system over a ring, in system
    order, built once for every equal system and ring.  The elements are
    immutable, so instances share them."""
    table = _color_table(ts.colors)
    return tuple(_flatten(tile_eval(tile, ring, ts.distinguished), ts.colors,
                          table)
                 for tile in ts.tiles)


def tiling_to_subset_sum(ts: TilingSystem, f0: EdgeMap) -> SemimoduleInstance:
    return tiling_to_instance(ts, f0, mode="subset-sum")


class WitnessTerm(NamedTuple):
    gen: int
    dx: int
    dy: int
    coeff: int


SubsetPick = tuple[int, int, int]  # (gen, dx, dy)

Window = tuple[int, int, int, int]  # inclusive (x0, y0, x1, y1)


def non_int_term(gen, dx, dy, coeff) -> BadTerm:
    """The error for a witness term with a field whose type is not exactly
    ``int``, naming the first such field."""
    name, value = next((name, value) for name, value in
                       zip(("gen", "dx", "dy", "coeff"), (gen, dx, dy, coeff))
                       if type(value) is not int)
    return BadTerm(f"term {(gen, dx, dy, coeff)}: {name} {value!r} "
                   f"is not an int")


def eval_member_witness(instance: SemimoduleInstance,
                        terms: Iterable[WitnessTerm]) -> ModuleElement:
    """Sum of the terms' translated, scaled generators.

    Raises :class:`BadTerm` for a term with a field whose type is not
    exactly ``int`` (a bool or a float is not read as a number), whose
    generator index is out of range or whose coefficient is negative: a
    semimodule element is a combination with coefficients in N.  The
    terms are summed into one dict and reduced into the ring once, so the
    cost is linear in the witness.
    """
    gens = instance.generators
    sums: dict[EntryKey, int] = {}
    for gen, dx, dy, coeff in terms:
        if not type(gen) is type(dx) is type(dy) is type(coeff) is int:
            raise non_int_term(gen, dx, dy, coeff)
        if not 0 <= gen < len(gens):
            raise BadTerm(f"term {(gen, dx, dy, coeff)}: generator {gen} "
                          f"out of range")
        if coeff < 0:
            raise BadTerm(f"term {(gen, dx, dy, coeff)}: negative "
                          f"coefficient")
        for (ex, ey, eidx), ev in gens[gen]._entries.items():
            key = (ex + dx, ey + dy, eidx)
            sums[key] = sums.get(key, 0) + coeff * ev
    return ModuleElement(instance.ring, instance.rank, sums)


def _checked_picks(picks: Iterable[SubsetPick],
                   count: int) -> tuple[SubsetPick, ...]:
    """The picks as a tuple, once each is a triple of ints naming one of
    ``count`` generators (:class:`BadTerm` otherwise) and no translation
    repeats (:class:`DuplicateShift`)."""
    picks = tuple(picks)
    for gen, dx, dy in picks:
        if not type(gen) is type(dx) is type(dy) is int:
            raise non_int_term(gen, dx, dy, 1)
        if not 0 <= gen < count:
            raise BadTerm(f"term {(gen, dx, dy, 1)}: generator {gen} "
                          f"out of range")
    seen: set[tuple[int, int]] = set()
    for _, dx, dy in picks:
        if (dx, dy) in seen:
            raise DuplicateShift(f"translation ({dx}, {dy}) used twice")
        seen.add((dx, dy))
    return picks


def eval_subset_witness(instance: SemimoduleInstance,
                        picks: Iterable[SubsetPick]) -> ModuleElement:
    """Sum of the picks' translated generators, each read as a term with
    coefficient 1.

    Raises :class:`BadTerm` for a pick with a field that is not an
    ``int`` or whose generator index is out of range, and then
    :class:`DuplicateShift` for a translation used twice; the order keeps
    ``True`` or ``1.0`` from being read as the translation 1.
    """
    picks = _checked_picks(picks, len(instance.generators))
    return eval_member_witness(
        instance, (WitnessTerm(gen, dx, dy, 1) for gen, dx, dy in picks))


def verify_witness(instance: SemimoduleInstance, witness) -> bool:
    """Re-check a witness by direct summation.

    A malformed witness raises :class:`BadTerm` instead of being read
    through Python's negative indexing or as a negative coefficient.
    """
    if instance.mode == "semimodule":
        total = eval_member_witness(instance, witness)
    else:
        total = eval_subset_witness(instance, witness)
    return total == instance.target


def _entries_by_idx(gens) -> dict[int, list[tuple[int, int, int, int]]]:
    """Index generator entries by coordinate index: idx -> (gen, ex, ey, ev)."""
    table: dict[int, list[tuple[int, int, int, int]]] = {}
    for gi, gen in enumerate(gens):
        for (ex, ey, eidx), ev in gen.items():
            table.setdefault(eidx, []).append((gi, ex, ey, ev))
    return table


# Miller-Rabin on these 13 prime bases decides primality exactly below
# psi_13 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether ``n`` is prime, by deterministic Miller-Rabin on the 13
    prime bases 2 to 41: exact below psi_13, and quick at any size
    there.  At or above psi_13 a ``ValueError`` names the bound instead
    of guessing."""
    if n >= _PSI_13:
        raise ValueError(f"cannot decide whether {n} is prime: Miller-Rabin "
                         f"on the prime bases 2 to 41 is exact only below "
                         f"{_PSI_13}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=32)
def _member_mod_prime(generators: tuple[ModuleElement, ...], rank: int,
                      ring: Ring, window: Window, target: ModuleElement
                      ) -> Optional[tuple[WitnessTerm, ...]]:
    """Exact windowed membership over a prime modulus: is ``target`` in
    the span of the translates of ``generators`` by ``window``?

    With coefficients in the field Z/p, membership in the span of the
    windowed translates is a finite linear system: one variable per
    (generator, translation) pair, one equation per grid coordinate any
    of them (or the target) touches.  Gaussian elimination decides it
    outright — a None here means no witness exists within the window,
    not that a budget ran out.  Variables are numbered by generator, then
    dy, then dx; a generator with no entries gets none.  Equations go by
    ``(y, x, idx)``.

    The rows are brought to echelon form.  Each pivot row is scaled to 1
    at its pivot, its smallest variable, so every other variable in it is
    larger.  An incoming row is reduced by the pivots it holds, smallest
    first: subtracting a pivot row brings in only larger variables.  The
    reduced row is unique.  It is the incoming row plus a vector in the
    span of the earlier rows, and it is zero at every pivot column; two
    such rows differ by a combination of pivot rows that is zero at every
    pivot, and the smallest pivot of a nonzero combination keeps its
    coefficient, so the difference is zero.  A fully reduced (row-reduced
    echelon) elimination therefore finds the same reduced rows, the same
    pivots and the same inconsistent rows.  Finally every free variable
    is set to 0 and the pivot variables are solved for by
    back-substitution, largest pivot first.  The system has exactly one
    solution whose free variables are all zero, so the witness does not
    depend on how far the rows were reduced, nor on how a row is stored.

    Over Z/2 and Z/3 a row is packed into Python ints, bit i standing for
    variable i: the packed rows of M4RI (Albrecht and Bard), and for Z/3
    the bit slicing of Boothby and Bradshaw.  The rows are built straight
    from the generators while the variables are numbered.  Over Z/2 a row
    is one int: reducing it by a pivot is one ``^=``, the next pivot to
    clear is the lowest set bit of ``row & pivot_mask``, and a pivot
    variable is its row's right-hand side plus the parity of
    ``row & solution``.  Over Z/3 a row is two planes, the variables that
    hold 1 and those that hold 2: negating a row swaps them, adding two
    rows takes six mask operations, and a pivot that holds 2 is scaled to
    1 by swapping them.  Other primes keep one dict per row.  Every path
    numbers the variables, orders the equations and picks pivots alike,
    so by the argument above every path gives the same witness.

    The last 32 answers are kept, keyed by all five arguments, so a
    question asked again is not eliminated again; ``window`` is a tuple,
    and ``rank`` and ``ring`` tell apart equal tuples of empty generators.
    """
    p = ring.modulus
    packed = p in (2, 3)
    x0, y0, x1, y1 = window
    gens = [(gi, gen._entries.items())
            for gi, gen in enumerate(generators) if gen._entries]
    entries = target._entries
    # A key (x, y, idx) is coded as one int, in (y, x, idx) order.
    xs = [x for _, items in gens for (x, _, _), _ in items]
    low = min([x + x0 for x in xs] + [x for x, _, _ in entries], default=0)
    high = max([x + x1 for x in xs] + [x for x, _, _ in entries], default=0)
    line = (high - low + 1) * rank

    def code(x: int, y: int, idx: int) -> int:
        return y * line + (x - low) * rank + idx

    variables: list[tuple[int, int, int]] = []
    # Packed rows: code -> int, one dict for the 1s and one for the 2s.
    planes: tuple[dict[int, int], dict[int, int]] = ({}, {})
    rows: dict[int, dict[int, int]] = {}  # dict rows: code -> {var: value}
    for gi, items in gens:
        cells = [(code(ex, ey, eidx), planes[ev - 1] if packed else ev)
                 for (ex, ey, eidx), ev in items]
        for sy in range(y0, y1 + 1):
            for sx in range(x0, x1 + 1):
                var = len(variables)
                variables.append((gi, sx, sy))
                shift = sy * line + sx * rank
                if packed:
                    bit = 1 << var
                    for base, plane in cells:
                        c = base + shift
                        plane[c] = plane.get(c, 0) | bit
                else:
                    for base, ev in cells:
                        rows.setdefault(base + shift, {})[var] = ev
    rhs = {code(*key): v for key, v in entries.items()}
    if packed:
        ones, twos = planes
        solve = _solve_mod_2 if p == 2 else _solve_mod_3
        solution = solve([(ones.get(c, 0), twos.get(c, 0), rhs.get(c, 0))
                          for c in sorted(ones.keys() | twos.keys()
                                          | rhs.keys())])
    else:
        solution = _solve_mod_p([(rows.get(c, {}), rhs.get(c, 0))
                                 for c in sorted(rows.keys() | rhs.keys())], p)
    if solution is None:
        return None
    terms = [WitnessTerm(*variables[var], coeff)
             for var, coeff in solution.items()]
    return tuple(sorted(terms, key=lambda t: (t.dy, t.dx, t.gen)))
def _solve_mod_2(equations: list[tuple[int, int, int]]
                 ) -> Optional[dict[int, int]]:
    """The echelon elimination of :func:`_member_mod_prime` over Z/2 on
    equations ``(1s, 2s, rhs)``, whose 2s are empty: the solution as
    ``{variable: 1}``, or None if the system has none."""
    pivots: dict[int, tuple[int, int]] = {}  # var -> (row with its bit, rhs)
    mask = 0
    for bits, _, rhs in equations:
        hit = bits & mask
        while hit:
            prow, prhs = pivots[(hit & -hit).bit_length() - 1]
            bits ^= prow
            rhs ^= prhs
            hit = bits & mask
        if not bits:
            if rhs:
                return None
            continue
        low = bits & -bits
        pivots[low.bit_length() - 1] = (bits, rhs)
        mask |= low
    solution, found = 0, {}
    for var in sorted(pivots, reverse=True):
        prow, prhs = pivots[var]
        if prhs ^ ((prow & solution).bit_count() & 1):
            solution |= 1 << var
            found[var] = 1
    return found


def _solve_mod_3(equations: list[tuple[int, int, int]]
                 ) -> Optional[dict[int, int]]:
    """The echelon elimination of :func:`_member_mod_prime` over Z/3 on
    equations ``(1s, 2s, rhs)``: the solution's nonzero values, or None
    if the system has none."""
    # var -> (1s, 2s, rhs), scaled so that the pivot bit is in the 1s
    pivots: dict[int, tuple[int, int, int]] = {}
    mask = 0
    for ones, twos, rhs in equations:
        hit = (ones | twos) & mask
        while hit:
            low = hit & -hit
            q1, q2, prhs = pivots[low.bit_length() - 1]
            if ones & low:  # subtract the pivot row: add its negation
                q1, q2 = q2, q1
                rhs -= prhs
            else:  # subtract twice the pivot row: add it
                rhs += prhs
            t = (ones | q2) ^ (twos | q1)
            ones, twos = (twos | q2) ^ t, (ones | q1) ^ t
            hit = (ones | twos) & mask
        rhs %= 3
        held = ones | twos
        if not held:
            if rhs:
                return None
            continue
        low = held & -held
        if twos & low:  # scale by 2, the inverse of 2
            ones, twos, rhs = twos, ones, -rhs % 3
        pivots[low.bit_length() - 1] = (ones, twos, rhs)
        mask |= low
    s1 = s2 = 0  # the solution's planes
    found = {}
    for var in sorted(pivots, reverse=True):
        q1, q2, prhs = pivots[var]
        # products that are 1 count +1, those that are 2 count -1
        value = (prhs - ((q1 & s1) | (q2 & s2)).bit_count()
                 + ((q1 & s2) | (q2 & s1)).bit_count()) % 3
        if value == 1:
            s1 |= 1 << var
        elif value == 2:
            s2 |= 1 << var
        if value:
            found[var] = value
    return found


def _solve_mod_p(equations: list[tuple[dict[int, int], int]],
                 p: int) -> Optional[dict[int, int]]:
    """The echelon elimination of :func:`_member_mod_prime` over Z/p on
    equations ``({var: value}, rhs)``: the solution's nonzero values, or
    None if the system has none."""
    # pivot variable -> (its row without the pivot, which is 1; rhs)
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    for row, rhs in equations:
        pending = [var for var in row if var in pivots]
        heapify(pending)
        while pending:
            var = heappop(pending)
            factor = row.pop(var, 0)
            if not factor:  # cancelled, or pushed twice
                continue
            prow, prhs = pivots[var]
            for c, v in prow.items():
                old = row.get(c, 0)
                new = (old - factor * v) % p
                if new:
                    row[c] = new
                    if not old and c in pivots:
                        heappush(pending, c)
                elif old:
                    del row[c]
            rhs = (rhs - factor * prhs) % p
        if not row:
            if rhs:
                return None
            continue
        var = min(row)
        inv = pow(row.pop(var), -1, p)
        pivots[var] = ({c: v * inv % p for c, v in row.items()}, rhs * inv % p)
    solution: dict[int, int] = {}
    for var in sorted(pivots, reverse=True):
        prow, prhs = pivots[var]
        value = (prhs - sum(v * solution.get(c, 0)
                            for c, v in prow.items())) % p
        if value:
            solution[var] = value
    return solution


def _branch_search(instance: SemimoduleInstance, window: Window,
                   top: int, distinct: bool,
                   fuel: int) -> Optional[tuple[WitnessTerm, ...]]:
    """Bounded branching search shared by both membership questions.

    Translations are restricted to the inclusive ``window`` box and
    coefficients to ``1..top``; with ``distinct`` set, no two terms share
    a translation.  At each node the search branches on the residual
    coordinate with the fewest viable candidates: every representation
    must hit every residual coordinate with some translated generator, so
    branching over the candidates that hit the chosen one — each with
    every allowed coefficient, or excluded — loses no witness within the
    bounds.  A coordinate no candidate can hit is an immediate dead end.
    Returns the terms sorted by ``(dy, dx, gen)``, or None if no witness
    exists within the bounds or more than ``fuel`` nodes are needed.  The
    coefficients are counted, not listed, so a huge modulus or cap costs
    nothing before the first node.

    Visit order: coordinates tie-break by ``(y, x, idx)``, and a
    coordinate's candidates go by generator, then dy, then dx.  Over Z a
    stable sort then moves the candidates whose sign matches the
    residual's to the front.  The nodes on the current path sit on an
    explicit stack, so the number of witness terms is not limited by the
    interpreter's recursion depth.

    Viable candidates are counted with one generator mask per
    translation, bit ``gi`` standing for generator ``gi``.  Each
    coordinate's windowed candidates are listed once per search, together
    with the mask of the generators that hit it from each translation and
    its tie-break key.  The ``free`` dict holds, for every translation the
    search has touched, the generators still allowed there; a translation
    it does not hold allows them all, so nothing is allocated per
    translation of the window.  A coordinate's viable count is then one
    ``&`` and one ``bit_count`` per translation that hits it, and a node
    lists just the chosen coordinate's candidates.  Branching on a pick
    clears its generator's bit, or with ``distinct`` the whole
    translation; leaving the pick restores the translation's mask without
    that bit; leaving a node sets the bits of all its picks again.
    """
    x0, y0, x1, y1 = window
    gens = instance.generators
    by_idx = _entries_by_idx(gens)
    signed = instance.ring.modulus is None
    # A translation is numbered row by row inside the window, so
    # candidates (gen, shift, ...) sort as (gen, dy, dx).
    width = x1 - x0 + 1
    full = (1 << len(gens)) - 1
    free: dict[int, int] = {}  # translation -> generators allowed there
    free_get = free.get
    # coordinate -> (candidates (gen, shift, value, bit) in visit order,
    # ((shift, generator mask), ...), tie-break key)
    listings: dict[EntryKey, tuple] = {}

    def listing(key: EntryKey):
        kx, ky, kidx = key
        listed = []
        masks: dict[int, int] = {}
        for gi, ex, ey, ev in by_idx.get(kidx, ()):
            sx, sy = kx - ex, ky - ey
            if x0 <= sx <= x1 and y0 <= sy <= y1:
                shift = (sy - y0) * width + sx - x0
                bit = 1 << gi
                listed.append((gi, shift, ev, bit))
                masks[shift] = masks.get(shift, 0) | bit
        listed.sort()
        found = listings[key] = (listed, tuple(masks.items()),
                                 _entry_sort_key(key))
        return found

    def pick_key(residual: ModuleElement) -> list[tuple]:
        best, best_key, fewest = None, None, 0
        for key in residual._entries:
            entry = listings.get(key) or listing(key)
            count = 0
            for shift, mask in entry[1]:
                count += (mask & free_get(shift, full)).bit_count()
            if not count:
                return []
            if (best is None or count < fewest
                    or count == fewest and entry[2] < best[2]):
                best, best_key, fewest = entry, key, count
        found = [o for o in best[0] if free_get(o[1], full) & o[3]]
        if signed:
            positive = residual._entries[best_key] > 0
            found.sort(key=lambda o: (o[2] > 0) != positive)
        return found

    if fuel < 1:
        return None
    if instance.target.is_zero():
        return ()
    nodes = 1
    # One frame per node of the current path: residual, candidate picks,
    # index of the pick being tried, index of its next coefficient, and
    # with ``distinct`` the mask the pick's translation returns to.
    # ``path[k]`` is the term that leads from frame k to frame k + 1.
    stack = [[instance.target, pick_key(instance.target), -1, top, 0]]
    path: list[WitnessTerm] = []
    while stack:
        frame = stack[-1]
        residual, picks, at, ci, _ = frame
        if ci < top:
            frame[3] = ci + 1
            nodes += 1
            if nodes > fuel:
                return None
            gi, shift, _, _ = picks[at]
            sy, sx = divmod(shift, width)
            sx, sy = sx + x0, sy + y0
            coeff = ci + 1
            child = residual.plus(gens[gi], -coeff, sx, sy)
            path.append(WitnessTerm(gi, sx, sy, coeff))
            if child.is_zero():
                return tuple(sorted(path, key=lambda t: (t.dy, t.dx, t.gen)))
            stack.append([child, pick_key(child), -1, top, 0])
            continue
        if distinct and at >= 0:
            free[picks[at][1]] = frame[4]
        at += 1
        if at < len(picks):
            _, shift, _, bit = picks[at]
            frame[4] = free_get(shift, full) & ~bit
            free[shift] = 0 if distinct else frame[4]
            frame[2], frame[3] = at, 0
            continue
        for _, shift, _, bit in picks:
            free[shift] |= bit
        stack.pop()
        if path:
            path.pop()
    return None


def _check_bounds(window, **counts) -> None:
    """Refuse, before any search, a window that is not four ints and a
    count (``max_coeff``, ``fuel``) that is not an int; a bool is not
    read as a number."""
    if type(window) not in (tuple, list) or len(window) != 4:
        raise ValueError(f"search field 'window' must be four integers, "
                         f"not {window!r}")
    for field, value in (*zip(("x0", "y0", "x1", "y1"), window),
                         *counts.items()):
        if type(value) is not int:
            raise wrong_type("search", field, value, int)


def member_is_exact(ring: Ring) -> bool:
    """Whether :func:`member_bounded` settles membership over ``ring`` by
    exact elimination, so that its None is a definite no: a prime
    modulus.  A modulus too large for :func:`_is_prime` to decide is
    refused with a ``ValueError``."""
    return ring.modulus is not None and _is_prime(ring.modulus)


def member_bounded(instance: SemimoduleInstance, window: Window,
                   max_coeff: int = 1,
                   fuel: int = 1_000_000) -> Optional[tuple[WitnessTerm, ...]]:
    """Search for a nonnegative-combination witness within bounds.

    Translations are restricted to the inclusive ``window`` box and, over
    the integers, coefficients to ``1..max_coeff`` (a cap below 1 is
    refused); over a modulus every nonzero residue is tried.  The search
    is the bounded branching search of :func:`_branch_search`.  Returns
    the witness found, or None if none exists within the bounds or the
    node budget runs out.

    Over a prime modulus the coefficients range over a field and the
    question is settled exactly by linear elimination instead (the cap
    and the budget are then irrelevant, and None is a definite no).

    A window that is not four ints, or a cap or budget that is not an
    int, is refused with a ``ValueError`` before any search.
    """
    if instance.mode != "semimodule":
        raise ValueError("instance mode must be 'semimodule'")
    _check_bounds(window, max_coeff=max_coeff, fuel=fuel)
    if max_coeff < 1:
        raise ValueError("max_coeff must be at least 1")
    if member_is_exact(instance.ring):
        return _member_mod_prime(instance.generators, instance.rank,
                                 instance.ring, tuple(window), instance.target)
    modulus = instance.ring.modulus
    top = max_coeff if modulus is None else modulus - 1
    return _branch_search(instance, window, top, False, fuel)


def subset_sum_bounded(instance: SemimoduleInstance, window: Window,
                       fuel: int = 1_000_000
                       ) -> Optional[tuple[SubsetPick, ...]]:
    """Search for a 0/1 witness with pairwise distinct translations.

    The same branching search as :func:`member_bounded`, with coefficients
    fixed to 1 and a translation usable by at most one generator — the
    combinatorics of tile placements with no stacking.  Subset sums live
    over modular rings only; integer instances are refused, and so are
    bounds :func:`member_bounded` refuses.
    """
    if instance.mode != "subset-sum":
        raise ValueError("instance mode must be 'subset-sum'")
    _check_bounds(window, fuel=fuel)
    if instance.ring.modulus is None:
        raise RingMismatch("subset-sum search needs a modular ring")
    found = _branch_search(instance, window, 1, True, fuel)
    if found is None:
        return None
    return tuple((t.gen, t.dx, t.dy) for t in found)


def certificate_to_witness(cert: Certificate,
                           ts: TilingSystem) -> tuple[SubsetPick, ...]:
    """Read a tiling certificate as a subset-sum witness (tile index and
    position per placement), sorted by row, then x, then index.

    The certificate is read run by run (:meth:`Certificate.runs`), with
    one tile lookup per run.  Every cell is still checked for a second
    tile, and a run's first cell before its tile is looked up, so a
    repeated cell raises :class:`DuplicateShift` and a tile outside ``ts``
    raises ``ValueError`` in the order a placement-by-placement reading
    meets them."""
    index_of = ts.index_of
    picks: list[SubsetPick] = []
    seen: set[tuple[int, int]] = set()
    for tile, x0, y, count in cert.runs():
        if (x0, y) in seen:
            raise DuplicateShift(f"two tiles at ({x0}, {y})")
        gen = index_of(tile)
        for x in range(x0, x0 + count):
            if (x, y) in seen:
                raise DuplicateShift(f"two tiles at ({x}, {y})")
            seen.add((x, y))
            picks.append((gen, x, y))
    return tuple(sorted(picks, key=lambda p: (p[2], p[1], p[0])))


def witness_to_certificate(witness: Iterable[SubsetPick],
                           ts: TilingSystem) -> Certificate:
    """Inverse of :func:`certificate_to_witness` (width and row count are
    recomputed from the picks).

    Kept as the reduction's reverse direction: a subset-sum witness is a
    tiling, so a "yes" for the instance is a "yes" for the tiling.

    Refuses the picks :func:`eval_subset_witness` refuses, with the same
    errors."""
    cells = [(ts.tiles[gen], dx, dy)
             for gen, dx, dy in _checked_picks(witness, len(ts.tiles))]
    width = max((x for _, x, _ in cells), default=0)
    rows = max((y for _, _, y in cells), default=0)
    cells.sort(key=itemgetter(2, 1))
    return Certificate(cells, width, rows)


# ---------------------------------------------------------------------------
# serialization

def element_to_dict(e: ModuleElement) -> dict:
    return {
        "ring": e.ring.name,
        "rank": e.rank,
        "entries": [{"x": x, "y": y, "idx": idx, "value": v}
                    for (x, y, idx), v in e.items()],
    }


def element_from_dict(data: dict) -> ModuleElement:
    ring_name, rank, rows = fields(
        data, "module element", {"ring": None, "rank": int, "entries": list})
    ring = ring_from_name(ring_name)
    row_spec = dict.fromkeys(("x", "y", "idx", "value"), int)
    entries: dict[EntryKey, int] = {}
    for row in rows:
        x, y, idx, value = fields(row, "module entry", row_spec)
        entries[(x, y, idx)] = entries.get((x, y, idx), 0) + value
    return ModuleElement(ring, rank, entries)


def instance_to_dict(instance: SemimoduleInstance) -> dict:
    return {
        "ring": instance.ring.name,
        "rank": instance.rank,
        "mode": instance.mode,
        "generators": [element_to_dict(g) for g in instance.generators],
        "target": element_to_dict(instance.target),
    }


def instance_from_dict(data: dict) -> SemimoduleInstance:
    ring_name, rank, mode, generators, target = fields(
        data, "instance", {"ring": None, "rank": int, "mode": None,
                           "generators": list, "target": None})
    return SemimoduleInstance(ring_from_name(ring_name), rank,
                              tuple(map(element_from_dict, generators)),
                              element_from_dict(target), mode)


def witness_to_dict(mode: str, witness) -> dict:
    if mode == "semimodule":
        return {"mode": mode,
                "terms": [{"gen": t.gen, "dx": t.dx, "dy": t.dy,
                           "coeff": t.coeff} for t in witness]}
    if mode == "subset-sum":
        return {"mode": mode,
                "picks": [{"gen": g, "dx": dx, "dy": dy}
                          for g, dx, dy in witness]}
    raise ValueError(f"unknown mode {mode!r}")


# The rows field and the spec of one row, for each witness mode.
_WITNESS_ROWS = {
    "semimodule": ("terms", dict.fromkeys(("gen", "dx", "dy", "coeff"), int)),
    "subset-sum": ("picks", dict.fromkeys(("gen", "dx", "dy"), int)),
}


def witness_from_dict(data: dict):
    """Read a witness: the rows its mode names, of integers only."""
    mode = data.get("mode") if type(data) is dict else None
    if type(mode) is not str:
        # Not an object, or no mode string: fields says which.
        fields(data, "witness", {"mode": str})
    if mode not in _WITNESS_ROWS:
        raise ValueError(f"unknown mode {mode!r}")
    rows, entry = _WITNESS_ROWS[mode]
    _, items = fields(data, "witness", {"mode": str, rows: list})
    read = [tuple(fields(item, "witness entry", entry)) for item in items]
    if mode == "semimodule":
        return tuple(WitnessTerm(*term) for term in read)
    return tuple(read)
