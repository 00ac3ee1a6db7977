"""Regular-language membership questions over lamplighter-style groups.

A subset-sum instance (0/1 coefficients, pairwise distinct translations)
is re-expressed as membership of a target group element in the image of a
fixed regular language

    L = {x, x', y, y'}*  [ (x | g0 x | ... | g_{k-1} x)*  y  (x')* ]*  {x, x', y, y'}*

(inverses written as capitals in token form).  The middle part sweeps the
grid one row at a time, planting at most one generator pattern per visited
position — exactly a subset-sum witness — while the free outer blocks
position the sweep.  Letters are bound to wreath-product elements: x and y
move (x by the flattening stride), and each g_j deposits the j-th
generator's flattened lamp pattern at the current position.

The module provides the expression (AST, text form, Thompson NFA),
witness-to-word compilation, and a bounded breadth-first membership
search over (automaton state, group element) pairs.

The search keys a pair as ``(subset, x, y, code)``: the cursor position
and the lamp table packed into one int (:class:`_LampCode`).  The lamp at
(a, b) is one fixed-width digit, ``(n - 1).bit_length()`` bits over Z/n
and sign and magnitude over Z, wide enough for the length bound times the
largest lamp of a letter.  Digits are placed by Szudzik's pairing of the
zigzagged coordinates: the lamps at most r steps from the origin take the
first (2r + 1)² digits, so a code's length grows with the square of its
farthest lamp's distance, not with the bound or the number of lamps lit
(over Z the digit width also grows with the log of the bound).  A
letter's product is one digit add per lamp it lights, and the visited set
hashes and compares ints; group elements are built only for the answers.
"""

from __future__ import annotations

import json
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, isqrt
from typing import Dict, Iterable, Iterator, Optional

from .documents import fields
from .edges import Ring, RingMismatch, ring_from_name
from .groups import (Point, UnboundSymbol, WreathElement, _letter_steps,
                     _power, embed_module, wreath_eval)
from .modules import SemimoduleInstance, SubsetPick, _checked_picks


# ---------------------------------------------------------------------------
# regular expressions

class RationalExpr:
    """Base class for regular-expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(RationalExpr):
    token: str


@dataclass(frozen=True)
class Concat(RationalExpr):
    parts: tuple[RationalExpr, ...]


@dataclass(frozen=True)
class Union(RationalExpr):
    parts: tuple[RationalExpr, ...]


@dataclass(frozen=True)
class Star(RationalExpr):
    inner: RationalExpr


def build_L(k: int) -> RationalExpr:
    """The sweep language with ``k`` generator letters g0..g{k-1}."""
    if k < 1:
        raise ValueError("need at least one generator letter")
    free = Star(Union((Lit("x"), Lit("X"), Lit("y"), Lit("Y"))))
    plant = [Lit("x")] + [Concat((Lit(f"g{j}"), Lit("x"))) for j in range(k)]
    inner = Concat((Star(Union(tuple(plant))), Lit("y"), Star(Lit("X"))))
    return Concat((free, Star(inner), free))


def expr_to_text(expr: RationalExpr) -> str:
    """Render with ``|`` union, juxtaposition, postfix ``*`` and parens."""

    def render(node: RationalExpr, parent: str) -> str:
        if isinstance(node, Lit):
            return node.token
        if isinstance(node, Star):
            return render(node.inner, "star") + " *"
        if isinstance(node, Concat):
            if not node.parts:
                return "( )"
            text = " ".join(render(p, "concat") for p in node.parts)
            return f"( {text} )" if parent in ("star", "concat") else text
        if isinstance(node, Union):
            text = " | ".join(render(p, "union") for p in node.parts)
            return f"( {text} )" if parent != "top" else text
        raise TypeError(f"not a regular expression node: {node!r}")

    return render(expr, "top")


_STRUCTURAL = {"(", ")", "|", "*"}

# The deepest nesting expr_from_text accepts, counting each enclosing open
# parenthesis and each star stacked over a part.  The parser, regex_to_nfa
# and expr_to_text recurse once or a few times per level, so a bound well
# inside the interpreter's recursion limit keeps every accepted text from
# failing with RecursionError; build_L nests four deep.
MAX_EXPR_DEPTH = 100


def expr_from_text(text: str) -> RationalExpr:
    """Parse the text form produced by :func:`expr_to_text`.  A token is
    one structural character or a longest run of other non-space ones.
    Nesting deeper than ``MAX_EXPR_DEPTH`` is refused."""
    tokens = re.findall(r"[()|*]|[^\s()|*]+", text)
    pos = 0
    opened = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        token = tokens[pos]
        pos += 1
        return token

    def check(depth: int) -> None:
        if depth > MAX_EXPR_DEPTH:
            raise ValueError(f"expression nests deeper than "
                             f"{MAX_EXPR_DEPTH} levels")

    # Each parser returns its node and the node's own depth: the
    # parentheses and stars nested inside it.
    def parse_union() -> tuple[RationalExpr, int]:
        node, depth = parse_concat()
        parts = [node]
        while peek() == "|":
            take()
            node, inner = parse_concat()
            parts.append(node)
            depth = max(depth, inner)
        return (parts[0] if len(parts) == 1 else Union(tuple(parts))), depth

    def parse_concat() -> tuple[RationalExpr, int]:
        parts, depth = [], 0
        while peek() is not None and peek() not in (")", "|"):
            node, inner = parse_factor()
            parts.append(node)
            depth = max(depth, inner)
        return (parts[0] if len(parts) == 1 else Concat(tuple(parts))), depth

    def parse_factor() -> tuple[RationalExpr, int]:
        node, depth = parse_atom()
        while peek() == "*":
            take()
            node, depth = Star(node), depth + 1
            check(opened + depth)
        return node, depth

    def parse_atom() -> tuple[RationalExpr, int]:
        nonlocal opened
        token = peek()
        if token == "(":
            take()
            opened += 1
            check(opened)
            node, depth = parse_union()
            if peek() != ")":
                raise ValueError("unbalanced parenthesis")
            take()
            opened -= 1
            return node, depth + 1
        if token is None or token in _STRUCTURAL:
            raise ValueError(f"unexpected token {token!r}")
        return Lit(take()), 0

    expr, _ = parse_union()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens at {pos}")
    return expr


# ---------------------------------------------------------------------------
# Thompson construction and acceptance

@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; ``None`` labels are epsilon moves."""

    state_count: int
    edges: tuple[tuple[int, Optional[str], int], ...]
    initial: int
    finals: frozenset[int]

    def alphabet(self) -> list[str]:
        seen: dict[str, None] = {}
        for _, label, _ in self.edges:
            if label is not None:
                seen.setdefault(label, None)
        return list(seen)


def regex_to_nfa(expr: RationalExpr) -> Nfa:
    edges: list[tuple[int, Optional[str], int]] = []
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def build(node: RationalExpr) -> tuple[int, int]:
        if isinstance(node, Lit):
            s, e = fresh(), fresh()
            edges.append((s, node.token, e))
            return s, e
        if isinstance(node, Concat):
            s = e = fresh()
            for part in node.parts:
                ps, pe = build(part)
                edges.append((e, None, ps))
                e = pe
            return s, e
        if isinstance(node, Union):
            s, e = fresh(), fresh()
            for part in node.parts:
                ps, pe = build(part)
                edges.append((s, None, ps))
                edges.append((pe, None, e))
            return s, e
        if isinstance(node, Star):
            s, e = fresh(), fresh()
            ps, pe = build(node.inner)
            edges.append((s, None, ps))
            edges.append((s, None, e))
            edges.append((pe, None, ps))
            edges.append((pe, None, e))
            return s, e
        raise TypeError(f"not a regular expression node: {node!r}")

    start, end = build(expr)
    return Nfa(counter[0], tuple(edges), start, frozenset({end}))


class _NfaSim:
    """Subset simulation with precomputed adjacency; the subset automaton
    is built lazily, one memoised step at a time.  Everything it holds is
    a function of the automaton alone: see :func:`_compiled`."""

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        self.eps: Dict[int, list[int]] = {}
        self.by_label: Dict[tuple[int, str], list[int]] = {}
        self._subsets: Dict[frozenset[int], frozenset[int]] = {}
        self._steps: Dict[tuple[frozenset[int], str], frozenset[int]] = {}
        self._letters = frozenset(nfa.alphabet())
        self._to_final = _final_distances(nfa)
        self._distances: Dict[frozenset[int], int] = {}
        for src, label, dst in nfa.edges:
            if label is None:
                self.eps.setdefault(src, []).append(dst)
            else:
                self.by_label.setdefault((src, label), []).append(dst)

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        """Epsilon closure; equal closures come back as one object."""
        stack = list(states)
        seen = set(stack)
        while stack:
            state = stack.pop()
            for nxt in self.eps.get(state, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closed = frozenset(seen)
        return self._subsets.setdefault(closed, closed)

    def start(self) -> frozenset[int]:
        return self.closure([self.nfa.initial])

    def step(self, states: frozenset[int], token: str) -> frozenset[int]:
        """The closed subset after ``token``, empty when dead.  Memoised:
        each (subset, letter) pair is closed once, and as closures are
        interned, a subset reached again is the same frozenset object.
        A token outside the alphabet is not memoised, so a shared
        simulator does not grow with the words it is asked about."""
        moved = self._steps.get((states, token))
        if moved is None:
            if token not in self._letters:
                return self.closure(())
            moved = self._steps[states, token] = self.closure(
                dst for state in states
                for dst in self.by_label.get((state, token), ()))
        return moved

    def accepting(self, states: frozenset[int]) -> bool:
        return not self.nfa.finals.isdisjoint(states)

    def distance(self, states: frozenset[int]) -> int:
        """The fewest labelled edges from a state of ``states`` to a final
        state (:data:`_NEVER` when none is reachable), kept per subset."""
        steps = self._distances.get(states)
        if steps is None:
            to_final = self._to_final
            steps = self._distances[states] = min(
                (to_final.get(state, _NEVER) for state in states),
                default=_NEVER)
        return steps


# More letters than any length budget: the bound of a pair from which no
# accepted word reaches the target.
_NEVER = sys.maxsize


def _final_distances(nfa: Nfa) -> Dict[int, int]:
    """The fewest labelled edges from each state to a final state, by a
    0-1 BFS on the reversed automaton (epsilon edges cost 0); a state
    that reaches no final state is left out."""
    backward: Dict[int, list[tuple[int, int]]] = {}
    for src, label, dst in nfa.edges:
        backward.setdefault(dst, []).append((src, label is not None))
    to_final = dict.fromkeys(nfa.finals, 0)
    queue = deque(nfa.finals)
    while queue:
        state = queue.popleft()
        for src, cost in backward.get(state, ()):
            reached = to_final[state] + cost
            if reached < to_final.get(src, _NEVER):
                to_final[src] = reached
                if cost:
                    queue.append(src)
                else:
                    queue.appendleft(src)
    return to_final


@lru_cache(maxsize=32)
def _compiled(nfa: Nfa) -> _NfaSim:
    """The one simulator of an automaton, shared by every search over an
    equal automaton.

    Its adjacency lists, interned closures, memoised subset steps and
    distances to a final state depend on the automaton alone, so equal
    ``build_L(k)`` expressions, whose Thompson automata are equal, work
    each of them out once.  The subset automaton it grows is finite, so
    an entry stays bounded however many searches share it.  Callers that
    race on one entry at most work a step out twice: each memo value is a
    function of its key, and closures are interned with ``setdefault``."""
    return _NfaSim(nfa)


def nfa_accepts(nfa: Nfa, word: str | Iterable[str]) -> bool:
    tokens = word.split() if isinstance(word, str) else list(word)
    sim = _compiled(nfa)
    states = sim.start()
    for token in tokens:
        states = sim.step(states, token)
        if not states:
            return False
    return sim.accepting(states)


# ---------------------------------------------------------------------------
# witnesses as words

def certificate_to_word(witness: Iterable[SubsetPick]) -> str:
    """Compile a subset-sum witness into a word of the sweep language.

    Picks are ordered bottom row first, left to right (right-lex on the
    translation).  The word walks to the first pick, sweeps each row
    planting generator letters at pick positions, climbs between rows
    (bare climbs for empty rows, left realignment when the next row starts
    further left), and finally returns to the origin.

    A pick with a non-int field or a negative generator raises
    :class:`BadTerm`, a translation used twice :class:`DuplicateShift`.
    """
    # A word has a letter for every generator index from 0 up.
    picks = sorted(_checked_picks(witness, inf),
                   key=lambda p: (p[2], p[1], p[0]))
    if not picks:
        return ""
    rows: Dict[int, list[tuple[int, int]]] = {}
    for gen, dx, dy in picks:
        rows.setdefault(dy, []).append((dx, gen))
    first_b, last_b = picks[0][2], picks[-1][2]
    # The picks are sorted, so the rows were made bottom first.
    order = list(rows)
    cur_a = rows[first_b][0][0]
    parts = [_power("x", cur_a), _power("y", first_b)]
    for b, nxt in zip(order, order[1:] + [None]):
        for a, gen in rows[b]:
            parts.append("x " * (a - cur_a) + f"g{gen} x ")
            cur_a = a + 1
        parts.append("y ")
        if nxt is None:
            break
        # Realign left after one climb, then climb the empty rows.
        start = rows[nxt][0][0]
        if start < cur_a:
            parts.append("X " * (cur_a - start))
            cur_a = start
        parts.append("y " * (nxt - b - 1))
    parts.append(_power("x", -cur_a))
    parts.append(_power("y", -(last_b + 1)))
    return "".join(parts)[:-1]


def word_plants(word: str | Iterable[str]) -> list[tuple[int, int, int]]:
    """Re-parse a sweep word: the (gen, dx, dy) positions its generator
    letters are planted at, in emission order.

    Kept as the reduction's reverse direction: a word of the sweep
    language spells its picks, so a word found for the target is a
    subset-sum witness."""
    tokens = word.split() if isinstance(word, str) else list(word)
    plants: list[tuple[int, int, int]] = []
    a = b = 0
    for token in tokens:
        if token == "x":
            a += 1
        elif token == "X":
            a -= 1
        elif token == "y":
            b += 1
        elif token == "Y":
            b -= 1
        elif re.fullmatch("g(0|[1-9][0-9]*)", token):
            plants.append((int(token[1:]), a, b))
        else:
            raise UnboundSymbol(f"unexpected token {token!r}")
    return plants


# ---------------------------------------------------------------------------
# instances and bounded search

def rational_bindings(instance: SemimoduleInstance
                      ) -> Dict[str, WreathElement]:
    """Letter bindings for an instance: x moves by the stride
    ``max(rank, 1)``, y by one, and g_j deposits the j-th generator's
    flattened pattern."""
    stride = max(instance.rank, 1)
    ring = instance.ring
    x = WreathElement(ring, pos=(stride, 0))
    y = WreathElement(ring, pos=(0, 1))
    bindings = {"x": x, "X": x.inv(), "y": y, "Y": y.inv()}
    for j, gen in enumerate(instance.generators):
        bindings[f"g{j}"] = WreathElement(ring, embed_module(gen, stride))
    return bindings


@dataclass(frozen=True)
class RationalInstance:
    """Membership of ``target`` in the image of the sweep language under
    the letter bindings."""

    ring: Ring
    rank: int
    stride: int
    expr: RationalExpr
    bindings: Dict[str, WreathElement] = field(compare=False)
    target: WreathElement = field(compare=False)


def make_rational_instance(instance: SemimoduleInstance) -> RationalInstance:
    if instance.mode != "subset-sum":
        raise ValueError("rational reduction starts from a subset-sum "
                         "instance")
    stride = max(instance.rank, 1)
    bindings = rational_bindings(instance)
    target = WreathElement(instance.ring,
                           embed_module(instance.target, stride))
    return RationalInstance(instance.ring, instance.rank, stride,
                            build_L(len(instance.generators)), bindings,
                            target)


def _sweep_letters(nfa: Nfa, bindings: Dict[str, WreathElement],
                   ring: Ring) -> list[tuple]:
    """``(letter, x shift, y shift, ((a, b, lamp), ...))`` per letter of
    ``nfa.alphabet()``, in order, read by :func:`groups._letter_steps`."""
    steps = _letter_steps(bindings, ring, WreathElement)
    return [(letter, sx, sy, tuple((a, b, v) for (a, b, _), v in own.items()))
            for letter in nfa.alphabet()
            for own, sx, sy, _ in (steps[letter],)]


def _lamp_index(a: int, b: int) -> int:
    """The digit index of lamp (a, b): Szudzik's pairing of the zigzag
    codes of a and b.  The lamps at most r steps from the origin along
    either axis take the first (2r + 1)² indices, so a code's length grows
    with the square of its farthest lamp's distance, not with a length
    bound."""
    u = a + a if a >= 0 else -a - a - 1
    v = b + b if b >= 0 else -b - b - 1
    return v * v + u if u < v else u * u + u + v


def _lamp_at(index: int) -> Point:
    """The lamp whose digit index is ``index``: the inverse of
    :func:`_lamp_index`."""
    s = isqrt(index)
    r = index - s * s
    u, v = (r, s) if r < s else (s, r - s)
    return (u >> 1) ^ -(u & 1), (v >> 1) ^ -(v & 1)


class _LampCode:
    """Lamp tables as ints: the lamp at (a, b) is the digit at index
    :func:`_lamp_index` ``(a, b)``, ``width`` bits wide.

    Over Z/n a digit is the residue, ``(n - 1).bit_length()`` bits.  Over
    Z it is sign and magnitude: the sign bit above enough magnitude bits
    for ``max_len`` times the largest |lamp| of any letter, and for every
    lamp of the ``fixed`` elements (a search's target).  A walk of at most
    ``max_len`` letters changes a lamp by at most that much, so no digit
    overflows.  A zero lamp is the digit 0 either way, so a table has one
    code, and equal tables are equal ints."""

    __slots__ = ("modulus", "width", "mask", "sign")

    def __init__(self, ring: Ring, letters: Iterable[tuple],
                 max_len: int, fixed: Iterable[WreathElement] = ()):
        self.modulus = ring.modulus
        if self.modulus is None:
            most = max([max_len * abs(v) for *_, lit in letters
                        for _, _, v in lit]
                       + [abs(v) for value in fixed
                          for v in value.fun().values()], default=0)
            self.sign = 1 << most.bit_length()
            self.width = most.bit_length() + 1
        else:
            self.sign = 0
            self.width = (self.modulus - 1).bit_length()
        self.mask = (1 << self.width) - 1

    def add(self, code: int, a: int, b: int, value: int) -> int:
        """``code`` with ``value`` added to lamp (a, b) in the ring: one
        digit read and one digit written."""
        shift = _lamp_index(a, b) * self.width
        digit = code >> shift & self.mask
        if self.modulus is not None:
            total = (digit + value) % self.modulus
        else:
            total = self.lamp(digit) + value
            if total < 0:
                total = self.sign - total
        return code + (total - digit << shift)

    def lamp(self, digit: int) -> int:
        """The lamp a digit holds: over Z a set sign bit negates the
        magnitude below it."""
        return -(digit ^ self.sign) if digit & self.sign else digit

    def encode(self, fun: Dict[Point, int]) -> int:
        code = 0
        for (a, b), value in fun.items():
            code = self.add(code, a, b, value)
        return code

    def indices(self, code: int) -> list[int]:
        """The indices of the nonzero digits of ``code``, lowest first."""
        found, width, index = [], self.width, 0
        while code:
            skip = ((code & -code).bit_length() - 1) // width
            index += skip
            found.append(index)
            code >>= (skip + 1) * width
            index += 1
        return found

    def decode(self, code: int) -> Dict[Point, int]:
        """The lamp table of ``code``: the inverse of :meth:`encode`."""
        return {_lamp_at(index): self.lamp(code >> index * self.width
                                           & self.mask)
                for index in self.indices(code)}


def _sweep_walk(nfa: Nfa, letters: list[tuple], lamps: _LampCode,
                max_len: int, home: Point, tour=None) -> Iterator[tuple]:
    """Breadth-first walk over the (automaton subset, group element) pairs
    of words of length at most ``max_len``, layer by layer, extending each
    frontier pair by the :func:`_sweep_letters` of ``nfa`` in order.  For a
    Thompson automaton that is the order in which the letters first appear
    in the expression, as each literal's edge is added left to right.

    A pair is keyed ``(subset, x, y, code)``: the cursor position and the
    lamp table as one int of the layout ``lamps`` (see
    :class:`_LampCode`).  A letter's product is its shift added to the
    position and one digit add per lamp it lights, at the lamp's offset
    from the position before the move; the visited set hashes and compares
    ints, and no group element is built.  A digit is
    ``(n - 1).bit_length()`` bits over Z/n, or a sign bit over enough
    magnitude bits for ``max_len`` times the largest lamp of a letter over
    Z.  Digits are placed by Szudzik's pairing of the zigzagged
    coordinates, so a code whose lamps lie within r steps of the origin
    has at most (2r + 1)² digits, however large ``max_len`` is: one lamp
    far from the origin makes a long code, and each add and each hash
    reads all of it.

    Yields ``(accepting, x, y, code, word)`` once per distinct pair, where
    ``word`` is a chain of (prefix, letter) links, None when empty.  Equal
    pairs have identical futures (evaluation is a homomorphism), so the
    exact visited set loses nothing.

    The walk only yields pairs from which an accepting pair at ``home``
    may still be reached: an extension is dropped before it enters the
    visited set when a lower bound on the letters it still needs exceeds
    the letters left, so the set holds only the pairs yielded.  The bound
    is ``max(A, d)``, and the walk reads both terms as data:

    * A, the automaton distance of the subset the letter leads to
      (:meth:`_NfaSim.distance`), kept with the letter's arrow, so each
      (subset, letter) pair looks it up once;
    * d, the cursor distance from the new position to ``home``, worked
      out in line by the formula of :func:`_cursor_distance`, so a
      dropped extension costs no lamp add.

    Both count letters every word needs, whatever its letters plant.  A
    pair whose subset accepts has A = 0, and one at ``home`` has d = 0.
    ``tour(x, y, code)``, when given, is a third bound, asked after the
    lamp adds of the extensions the first two let through; the walk keeps
    it per ``(x, y, code)`` for its own lifetime.  A negative ``max_len``
    is refused.
    """
    if max_len < 0:
        raise ValueError("max_len must be at least 0")
    add = lamps.add
    sim = _compiled(nfa)
    hx, hy = home
    max_dx, max_dy, axis_moves_only = _cursor_steps(letters)
    tours: Dict[tuple[int, int, int], int] = {}
    start = (sim.start(), 0, 0, 0)
    yield sim.accepting(start[0]), 0, 0, 0, None
    frontier = [(*start, None)]
    visited = {start}
    arrows: Dict[frozenset[int], list[tuple]] = {}
    for layer in range(max_len):
        remaining = max_len - layer - 1
        next_frontier = []
        for states, px, py, code, word in frontier:
            out = arrows.get(states)
            if out is None:
                # The live letters of a subset, in order, with their
                # shifts and lamps, the subset each one leads to, whether
                # that subset accepts and its distance to acceptance.
                out = arrows[states] = [
                    (letter, sx, sy, lit, moved, sim.accepting(moved),
                     sim.distance(moved))
                    for letter, sx, sy, lit in letters
                    if (moved := sim.step(states, letter))]
            for letter, sx, sy, lit, moved, accepting, steps in out:
                if steps > remaining:
                    continue
                x, y = px + sx, py + sy
                need_x = -(-abs(x - hx) // max_dx)
                need_y = -(-abs(y - hy) // max_dy)
                if axis_moves_only:
                    need_x += need_y
                elif need_y > need_x:
                    need_x = need_y
                if need_x > remaining:
                    continue
                extended = code
                for a, b, value in lit:
                    extended = add(extended, px + a, py + b, value)
                if tour is not None:
                    lamp_steps = tours.get((x, y, extended))
                    if lamp_steps is None:
                        lamp_steps = tours[x, y, extended] = tour(
                            x, y, extended)
                    if lamp_steps > remaining:
                        continue
                # One hash per pair: a pair already visited leaves the
                # set's size unchanged.
                size = len(visited)
                visited.add((moved, x, y, extended))
                if len(visited) == size:
                    continue
                grown = (word, letter)
                yield accepting, x, y, extended, grown
                next_frontier.append((moved, x, y, extended, grown))
        frontier = next_frontier


def _cursor_steps(letters: list[tuple]) -> tuple[int, int, bool]:
    """``(max_dx, max_dy, axis_moves_only)`` of the :func:`_sweep_letters`
    ``letters``: the largest |step x| and |step y| (1 for an axis no
    letter moves along) and whether every step is axis-parallel, the
    parameters of :func:`_cursor_distance`."""
    return (max((abs(sx) for _, sx, _, _ in letters), default=0) or 1,
            max((abs(sy) for _, _, sy, _ in letters), default=0) or 1,
            all(sx == 0 or sy == 0 for _, sx, sy, _ in letters))


def _cursor_distance(letters: list[tuple]):
    """``distance(dx, dy)``: the fewest of the :func:`_sweep_letters`
    ``letters`` that can move the cursor by (dx, dy).

    One letter changes x by at most the largest |step x| and y by at most
    the largest |step y|, so each axis needs at least ``ceil(|delta| /
    step)`` letters; when every step is axis-parallel a letter serves one
    axis only and the two counts add, otherwise the larger one bounds
    both.  An axis no letter moves along counts steps of 1, which stays a
    lower bound (such a gap cannot be closed at all).  Whether a letter
    also lights lamps does not matter.  :func:`_sweep_walk` works the
    same formula out in line.
    """
    max_dx, max_dy, axis_moves_only = _cursor_steps(letters)

    def distance(dx: int, dy: int) -> int:
        need_x = -(-abs(dx) // max_dx)
        need_y = -(-abs(dy) // max_dy)
        return need_x + need_y if axis_moves_only else max(need_x, need_y)

    return distance


def _search_bounds(letters: list[tuple], goal: tuple[int, ...],
                   lamps: _LampCode):
    """The lamp bound of a search for the ``goal`` (x, y, lamp code):
    ``plants_and_tour(x, y, code)``, the ``tour`` of :func:`_sweep_walk`,
    whose pairs hold lamp tables in the layout ``lamps``; None when some
    letter both moves and lights lamps.

    ``plants_and_tour(x, y, code)`` is a lower bound P + T on the length
    of every word ``v`` with ``element * eval(v) == target``, where
    ``element`` is at (x, y) with lamp table ``code``:

    * P, plants: let D be the lamps where ``element`` and ``target``
      differ, the nonzero digits of ``code`` xor the target's code.  A
      plant letter does not move and lights at most ``most`` lamps, a
      move letter lights none, so ``v`` holds at least ``ceil(|D| /
      most)`` plant letters.
    * T, lamp tour: a plant with lamp offsets R changes lamp l only from
      a cursor position q in ``l - R``, and only move letters move the
      cursor.  So for every l in D the cursor goes from (x, y) to some
      such q and on to ``target.pos``, and ``v`` holds at least ``d((x,
      y), q) + d(q, target.pos)`` move letters, minimised over q and
      maximised over l (with ``d`` from :func:`_cursor_distance`).  For
      empty D the cursor still has to get home: ``d((x, y),
      target.pos)``.  The legs are kept per ``(x, y, lamp)``.

    T starts from ``d((x, y), target.pos)``, so the walk's cursor test,
    asked before the lamp adds, never drops an extension this bound keeps.

    Plant and move letters are distinct, so P + T counts distinct letters.
    A letter that both moves and lights lamps (possible in a loaded
    instance) breaks that split, and the walk's own bound is all there is.
    """
    if any((sx or sy) and lit for _, sx, sy, lit in letters):
        return None
    distance = _cursor_distance(letters)
    plants = [lit for *_, lit in letters if lit]
    most = max(map(len, plants), default=0)
    reach = {(a, b) for lit in plants for a, b, _ in lit}
    tx, ty, goal = goal
    legs: Dict[tuple[int, int, int], int] = {}

    def plants_and_tour(x: int, y: int, code: int) -> int:
        differ = lamps.indices(code ^ goal)
        tour = distance(x - tx, y - ty)
        if not differ:
            return tour
        if not most:
            return _NEVER
        for index in differ:
            # The fewest moves from (x, y) to a position a plant can
            # change the lamp of digit ``index`` from, and on to the
            # target's position.
            leg = legs.get((x, y, index))
            if leg is None:
                a, b = _lamp_at(index)
                leg = legs[x, y, index] = min(
                    distance(x - a + ra, y - b + rb)
                    + distance(a - ra - tx, b - rb - ty) for ra, rb in reach)
            if leg > tour:
                tour = leg
        return -(-len(differ) // most) + tour

    return plants_and_tour


def rational_member_bounded(expr: RationalExpr,
                            bindings: Dict[str, WreathElement],
                            target: WreathElement, max_len: int,
                            ring: Ring) -> Optional[str]:
    """Breadth-first search for a shortest accepted word evaluating to the
    target, over words of length at most ``max_len``.

    Returns the first accepting pair of :func:`_sweep_walk` at the
    target's position and lamp code, so the word is the first shortest
    one in its order.  Only that word is spelled out, and it is
    re-evaluated with ``wreath_eval`` before being handed back.

    The walk is pruned by its own bound, the automaton distance and the
    cursor's way to the target's position, and, when no letter both moves
    and lights lamps, by the lamp tour of :func:`_search_bounds`.  Each is
    a lower bound on the letters still needed, so the word stays the one
    the unpruned walk returns: the shortest accepted word for the target
    that comes first in the walk's letter order.  Let ``w`` be that word,
    of length L, and ``p_i`` the pair of its prefix of length i.  The rest of
    ``w`` takes ``p_i`` to the target in ``L - i <= max_len - i`` letters,
    so the bound never prunes ``p_i`` at layer i.  No shorter word
    reaches ``p_i``, and no word of length i earlier in the order does
    (either would give an answer before ``w``), so the walk first reaches
    ``p_i`` from ``p_{i-1}`` by the letter ``w`` takes: every pair on the
    path to the first hit, and its first parent, is kept.  The walk yields
    its pairs layer by layer and, within a layer, in the order of their
    words, so no hit comes before ``w``; with no answer within
    ``max_len`` none comes at all.
    """
    if target.ring != ring:
        raise RingMismatch(f"{target.ring.name} target in a {ring.name} "
                           "search")
    nfa = regex_to_nfa(expr)
    letters = _sweep_letters(nfa, bindings, ring)
    lamps = _LampCode(ring, letters, max_len, (target,))
    goal = (*target.pos, lamps.encode(target.fun()))
    for accepting, x, y, code, word in _sweep_walk(
            nfa, letters, lamps, max_len, target.pos,
            _search_bounds(letters, goal, lamps)):
        if accepting and (x, y, code) == goal:
            tokens = []
            while word is not None:
                word, letter = word
                tokens.append(letter)
            spelled = " ".join(reversed(tokens))
            if wreath_eval(spelled, bindings, ring) != target:
                raise AssertionError(f"BFS hit {spelled!r} does not "
                                     "re-evaluate to the target")
            return spelled
    return None


def enumerate_zero_position_hits(expr: RationalExpr,
                                 bindings: Dict[str, WreathElement],
                                 ring: Ring,
                                 max_len: int) -> set[WreathElement]:
    """All values with position (0, 0) taken by accepted words of length
    at most ``max_len``.

    Runs the walk of :func:`_sweep_walk` home to the origin, to the end.
    It drops a branch, before any lamp add, whose subset cannot reach
    acceptance or whose cursor cannot return to the origin within the
    letters left: both distances are true lower bounds on the letters
    still needed, so no in-budget word is lost.  Each distinct lamp code
    hit is decoded into a group element once.
    """
    nfa = regex_to_nfa(expr)
    letters = _sweep_letters(nfa, bindings, ring)
    lamps = _LampCode(ring, letters, max_len)
    codes = {code for accepting, x, y, code, _ in
             _sweep_walk(nfa, letters, lamps, max_len, (0, 0))
             if accepting and x == 0 == y}
    return {WreathElement(ring, lamps.decode(code)) for code in codes}


# ---------------------------------------------------------------------------
# serialization

def nfa_to_dict(nfa: Nfa) -> dict:
    return {
        "state_count": nfa.state_count,
        "alphabet": sorted(nfa.alphabet()),
        "edges": [{"from": src, "label": label, "to": dst}
                  for src, label, dst in nfa.edges],
        "initial": nfa.initial,
        "finals": sorted(nfa.finals),
    }


def nfa_from_dict(data: dict) -> Nfa:
    """Read an automaton; refuses an alphabet other than the sorted edge
    labels :func:`nfa_to_dict` writes."""
    state_count, alphabet, edges, initial, finals = fields(
        data, "automaton", {"state_count": int, "alphabet": None,
                            "edges": list, "initial": int, "finals": [int]})
    edge_spec = {"from": int, "label": (str, type(None)), "to": int}
    nfa = Nfa(state_count,
              tuple(tuple(fields(edge, "automaton edge", edge_spec))
                    for edge in edges),
              initial, frozenset(finals))
    if alphabet != sorted(nfa.alphabet()):
        raise ValueError(f"automaton alphabet {alphabet!r} is not "
                         f"its sorted edge labels {sorted(nfa.alphabet())!r}")
    return nfa


def dump_nfa(nfa: Nfa) -> str:
    return json.dumps(nfa_to_dict(nfa), indent=2) + "\n"


def _wreath_to_dict(e: WreathElement) -> dict:
    return {
        "pos": [e.pos[0], e.pos[1]],
        "fun": [{"a": a, "b": b, "value": e.lamp_at(a, b)}
                for a, b in e.support()],
    }


def _wreath_from_dict(data: dict, ring: Ring) -> WreathElement:
    pos, lamps = fields(data, "wreath element", {"pos": None, "fun": list})
    if not (type(pos) is list and len(pos) == 2
            and all(type(v) is int for v in pos)):
        raise ValueError(f"pos must be two integers, got {pos!r}")
    lamp_spec = dict.fromkeys(("a", "b", "value"), int)
    fun: Dict[tuple[int, int], int] = {}
    for lamp in lamps:
        a, b, value = fields(lamp, "lamp entry", lamp_spec)
        fun[(a, b)] = fun.get((a, b), 0) + value
    return WreathElement(ring, fun, (pos[0], pos[1]))


def rational_to_dict(instance: RationalInstance) -> dict:
    return {
        "ring": instance.ring.name,
        "rank": instance.rank,
        "stride": instance.stride,
        "expr": expr_to_text(instance.expr),
        "bindings": {letter: _wreath_to_dict(instance.bindings[letter])
                     for letter in sorted(instance.bindings)},
        "target": _wreath_to_dict(instance.target),
    }


def rational_from_dict(data: dict) -> RationalInstance:
    ring_name, rank, stride, expr, bindings, target = fields(
        data, "rational instance", {"ring": None, "rank": int, "stride": int,
                                    "expr": str, "bindings": dict,
                                    "target": None})
    ring = ring_from_name(ring_name)
    return RationalInstance(
        ring, rank, stride, expr_from_text(expr),
        {letter: _wreath_from_dict(value, ring)
         for letter, value in bindings.items()},
        _wreath_from_dict(target, ring))
