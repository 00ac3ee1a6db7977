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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .edges import Ring, ring_from_name
from .groups import (UnboundSymbol, WreathElement, embed_module, pow_tokens,
                     wreath_eval, wreath_identity, word_from_tokens)
from .modules import DuplicateShift, SemimoduleInstance, SubsetPick


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


def expr_letters(expr: RationalExpr) -> list[str]:
    """Letters in first-appearance order."""
    seen: dict[str, None] = {}

    def walk(node: RationalExpr) -> None:
        if isinstance(node, Lit):
            seen.setdefault(node.token, None)
        elif isinstance(node, Concat) or isinstance(node, Union):
            for part in node.parts:
                walk(part)
        elif isinstance(node, Star):
            walk(node.inner)

    walk(expr)
    return list(seen)


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


def _lex(text: str) -> list[str]:
    tokens: list[str] = []
    current = ""
    for char in text:
        if char in _STRUCTURAL or char.isspace():
            if current:
                tokens.append(current)
                current = ""
            if char in _STRUCTURAL:
                tokens.append(char)
        else:
            current += char
    if current:
        tokens.append(current)
    return tokens


def expr_from_text(text: str) -> RationalExpr:
    """Parse the text form produced by :func:`expr_to_text`."""
    tokens = _lex(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        token = tokens[pos]
        pos += 1
        return token

    def parse_union() -> RationalExpr:
        parts = [parse_concat()]
        while peek() == "|":
            take()
            parts.append(parse_concat())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def parse_concat() -> RationalExpr:
        parts = []
        while peek() is not None and peek() not in (")", "|"):
            parts.append(parse_factor())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def parse_factor() -> RationalExpr:
        node = parse_atom()
        while peek() == "*":
            take()
            node = Star(node)
        return node

    def parse_atom() -> RationalExpr:
        token = peek()
        if token == "(":
            take()
            node = parse_union()
            if peek() != ")":
                raise ValueError("unbalanced parenthesis")
            take()
            return node
        if token is None or token in _STRUCTURAL:
            raise ValueError(f"unexpected token {token!r}")
        return Lit(take())

    expr = parse_union()
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
    """Subset simulation with precomputed adjacency."""

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        self.eps: Dict[int, list[int]] = {}
        self.by_label: Dict[tuple[int, str], list[int]] = {}
        for src, label, dst in nfa.edges:
            if label is None:
                self.eps.setdefault(src, []).append(dst)
            else:
                self.by_label.setdefault((src, label), []).append(dst)

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        stack = list(states)
        seen = set(stack)
        while stack:
            state = stack.pop()
            for nxt in self.eps.get(state, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def start(self) -> frozenset[int]:
        return self.closure([self.nfa.initial])

    def step(self, states: frozenset[int], token: str) -> frozenset[int]:
        moved = [dst for state in states
                 for dst in self.by_label.get((state, token), ())]
        return self.closure(moved) if moved else frozenset()

    def accepting(self, states: frozenset[int]) -> bool:
        return bool(states & self.nfa.finals)


def nfa_accepts(nfa: Nfa, word: str | Iterable[str]) -> bool:
    tokens = word.split() if isinstance(word, str) else list(word)
    sim = _NfaSim(nfa)
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
    """
    picks = sorted(witness, key=lambda p: (p[2], p[1], p[0]))
    if not picks:
        return ""
    rows: Dict[int, list[tuple[int, int]]] = {}
    seen: set[tuple[int, int]] = set()
    for gen, dx, dy in picks:
        if (dx, dy) in seen:
            raise DuplicateShift(f"translation ({dx}, {dy}) used twice")
        seen.add((dx, dy))
        rows.setdefault(dy, []).append((dx, gen))
    first_b, last_b = picks[0][2], picks[-1][2]
    cur_a = rows[first_b][0][0]
    tokens = pow_tokens("x", cur_a) + pow_tokens("y", first_b)
    for b in range(first_b, last_b + 1):
        for a, gen in rows.get(b, []):
            tokens += ["x"] * (a - cur_a)
            tokens += [f"g{gen}", "x"]
            cur_a = a + 1
        tokens.append("y")
        nxt = next((bb for bb in range(b + 1, last_b + 1) if bb in rows),
                   None)
        if nxt is not None and rows[nxt][0][0] < cur_a:
            tokens += ["X"] * (cur_a - rows[nxt][0][0])
            cur_a = rows[nxt][0][0]
    tokens += pow_tokens("x", -cur_a)
    tokens += pow_tokens("y", -(last_b + 1))
    return word_from_tokens(tokens)


def word_plants(word: str | Iterable[str]) -> list[tuple[int, int, int]]:
    """Re-parse a sweep word: the (gen, dx, dy) positions its generator
    letters are planted at, in emission order."""
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
        elif token.startswith("g"):
            plants.append((int(token[1:]), a, b))
        else:
            raise UnboundSymbol(f"unexpected token {token!r}")
    return plants


# ---------------------------------------------------------------------------
# instances and bounded search

def rational_bindings(instance: SemimoduleInstance,
                      stride: Optional[int] = None
                      ) -> Dict[str, WreathElement]:
    """Letter bindings for an instance: x moves by the stride, y by one,
    and g_j deposits the j-th generator's flattened pattern."""
    if stride is None:
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
    bindings = rational_bindings(instance, stride)
    target = WreathElement(instance.ring,
                           embed_module(instance.target, stride))
    return RationalInstance(instance.ring, instance.rank, stride,
                            build_L(len(instance.generators)), bindings,
                            target)


def rational_member_bounded(expr: RationalExpr,
                            bindings: Dict[str, WreathElement],
                            target: WreathElement, max_len: int,
                            ring: Ring) -> Optional[str]:
    """Breadth-first search for a shortest accepted word evaluating to the
    target, over words of length at most ``max_len``.

    States are (automaton subset, group element) pairs, deduplicated
    exactly; equal pairs have identical futures because evaluation is a
    homomorphism, so pruning repeats loses no witness.  Every returned
    word is re-evaluated before being handed back.
    """
    letters = [t for t in expr_letters(expr)]
    for letter in letters:
        if letter not in bindings:
            raise UnboundSymbol(f"no binding for {letter!r}")
    sim = _NfaSim(regex_to_nfa(expr))
    start = (sim.start(), wreath_identity(ring))
    if not start[0]:
        return None

    def hit(states: frozenset[int], element: WreathElement) -> bool:
        return sim.accepting(states) and element == target

    if hit(*start):
        return ""
    frontier: list[tuple[frozenset[int], WreathElement, str]] = [
        (start[0], start[1], "")]
    visited: set[tuple[frozenset[int], WreathElement]] = {start[:2]}
    for _ in range(max_len):
        next_frontier: list[tuple[frozenset[int], WreathElement, str]] = []
        for states, element, word in frontier:
            for letter in letters:
                moved = sim.step(states, letter)
                if not moved:
                    continue
                extended = element * bindings[letter]
                key = (moved, extended)
                if key in visited:
                    continue
                visited.add(key)
                grown = f"{word} {letter}".strip()
                if hit(moved, extended):
                    if wreath_eval(grown, bindings, ring) != target:
                        raise AssertionError(f"BFS hit {grown!r} does not "
                                             "re-evaluate to the target")
                    return grown
                next_frontier.append((moved, extended, grown))
        frontier = next_frontier
        if not frontier:
            break
    return None


def enumerate_zero_position_hits(expr: RationalExpr,
                                 bindings: Dict[str, WreathElement],
                                 ring: Ring,
                                 max_len: int) -> set[WreathElement]:
    """All values with position (0, 0) taken by accepted words of length
    at most ``max_len``.

    Branches whose position cannot return to the origin within the
    remaining length budget are pruned: a single letter changes each
    position coordinate by a bounded step, so the pruning bound is a
    true lower bound and no in-budget word is lost.
    """
    letters = [t for t in expr_letters(expr)]
    for letter in letters:
        if letter not in bindings:
            raise UnboundSymbol(f"no binding for {letter!r}")
    steps = [bindings[letter].pos for letter in letters]
    max_dx = max((abs(dx) for dx, _ in steps), default=0) or 1
    max_dy = max((abs(dy) for _, dy in steps), default=0) or 1
    axis_moves_only = all(dx == 0 or dy == 0 for dx, dy in steps)
    sim = _NfaSim(regex_to_nfa(expr))

    def returnable(element: WreathElement, remaining: int) -> bool:
        # Lower bound on the letters needed to move the position back to
        # the origin; never an overestimate, so pruning on it is safe.
        px, py = element.pos
        need_x = -(-abs(px) // max_dx)
        need_y = -(-abs(py) // max_dy)
        needed = need_x + need_y if axis_moves_only else max(need_x, need_y)
        return needed <= remaining

    hits: set[WreathElement] = set()
    start = (sim.start(), wreath_identity(ring))
    frontier = [start]
    visited = {start}
    if sim.accepting(start[0]):
        hits.add(start[1])
    for layer in range(max_len):
        remaining = max_len - layer - 1
        next_frontier = []
        for states, element in frontier:
            for letter in letters:
                moved = sim.step(states, letter)
                if not moved:
                    continue
                extended = element * bindings[letter]
                if not returnable(extended, remaining):
                    continue
                key = (moved, extended)
                if key in visited:
                    continue
                visited.add(key)
                if sim.accepting(moved) and extended.pos == (0, 0):
                    hits.add(extended)
                next_frontier.append(key)
        frontier = next_frontier
        if not frontier:
            break
    return hits


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
    extra = set(data) - {"state_count", "alphabet", "edges", "initial",
                         "finals"}
    if extra:
        raise ValueError(f"unexpected fields: {sorted(extra)}")
    edges = tuple((int(e["from"]),
                   None if e["label"] is None else str(e["label"]),
                   int(e["to"])) for e in data["edges"])
    return Nfa(int(data["state_count"]), edges, int(data["initial"]),
               frozenset(int(s) for s in data["finals"]))


def dump_nfa(nfa: Nfa) -> str:
    return json.dumps(nfa_to_dict(nfa), indent=2) + "\n"


def load_nfa(text: str) -> Nfa:
    return nfa_from_dict(json.loads(text))


def _wreath_to_dict(e: WreathElement) -> dict:
    return {
        "pos": [e.pos[0], e.pos[1]],
        "fun": [{"a": a, "b": b, "value": v}
                for (a, b), v in sorted(e.fun().items(),
                                        key=lambda i: (i[0][1], i[0][0]))],
    }


def _wreath_from_dict(data: dict, ring: Ring) -> WreathElement:
    extra = set(data) - {"pos", "fun"}
    if extra:
        raise ValueError(f"unexpected fields: {sorted(extra)}")
    fun = {(int(i["a"]), int(i["b"])): int(i["value"]) for i in data["fun"]}
    return WreathElement(ring, fun, (int(data["pos"][0]),
                                     int(data["pos"][1])))


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
    extra = set(data) - {"ring", "rank", "stride", "expr", "bindings",
                         "target"}
    if extra:
        raise ValueError(f"unexpected fields: {sorted(extra)}")
    ring = ring_from_name(data["ring"])
    bindings = {letter: _wreath_from_dict(value, ring)
                for letter, value in data["bindings"].items()}
    return RationalInstance(ring, int(data["rank"]), int(data["stride"]),
                            expr_from_text(data["expr"]), bindings,
                            _wreath_from_dict(data["target"], ring))
