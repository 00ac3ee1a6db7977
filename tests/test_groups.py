"""Tests for the ambient groups: lamp-and-position elements over the grid,
rank-2 flow elements, module flattening into words, and submonoid
membership instances."""

import copy
import itertools
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from tilechain.edges import Ring, RingMismatch, Z
from tilechain.groups import (
    BadIndex,
    METABELIAN,
    MetabelianElement,
    NotACycle,
    NotInImage,
    StrideTooSmall,
    SubmonoidInstance,
    UnboundSymbol,
    WREATH,
    WreathElement,
    _horizontal_bindings,
    _word_steps,
    cell_flow,
    cells_to_flow,
    cells_to_word,
    embed_module,
    flow_boundary,
    flow_decompose,
    is_circulation,
    make_submonoid_instance,
    metabelian_bindings,
    metabelian_eval,
    module_to_word,
    submonoid_from_dict,
    submonoid_to_dict,
    unembed_module,
    verify_submonoid_certificate,
    witness_to_submonoid_certificate,
    wreath_bindings,
    wreath_eval,
    wreath_identity,
    wreath_lamp,
)
from tilechain.compiler import initial_map
from tilechain.modules import (
    BadTerm,
    ModuleElement,
    SemimoduleInstance,
    WitnessTerm,
    certificate_to_witness,
    eval_member_witness,
    member_bounded,
    tiling_to_instance,
    unit,
    zero_element,
)
from tilechain.engine import default_window


WREATH_TOKENS = "x X y Y g G".split()
MOVE_TOKENS = "x X y Y".split()


def random_word(rng, tokens, max_len=30):
    return " ".join(rng.choice(tokens)
                    for _ in range(rng.randint(0, max_len)))


def run_word(rng, letters, max_runs=8, max_run=60):
    """Random word made of runs of 1..max_run equal letters."""
    return " ".join(" ".join([rng.choice(letters)] * rng.randint(1, max_run))
                    for _ in range(rng.randint(0, max_runs)))


def walk_wreath(word, ring):
    """Reference evaluator: walk the grid, toggling lamps at the walker."""
    pos = (0, 0)
    lamps = {}
    for tok in word.split():
        x, y = pos
        if tok == "x":
            pos = (x + 1, y)
        elif tok == "X":
            pos = (x - 1, y)
        elif tok == "y":
            pos = (x, y + 1)
        elif tok == "Y":
            pos = (x, y - 1)
        elif tok == "g":
            lamps[pos] = lamps.get(pos, 0) + 1
        elif tok == "G":
            lamps[pos] = lamps.get(pos, 0) - 1
    return WreathElement(ring, lamps, pos)


def walk_metabelian(word):
    """Reference evaluator: walk the grid, counting signed edge crossings."""
    pos = (0, 0)
    flow = {}
    for tok in word.split():
        x, y = pos
        if tok == "x":
            flow[(x, y, "H")] = flow.get((x, y, "H"), 0) + 1
            pos = (x + 1, y)
        elif tok == "X":
            flow[(x - 1, y, "H")] = flow.get((x - 1, y, "H"), 0) - 1
            pos = (x - 1, y)
        elif tok == "y":
            flow[(x, y, "V")] = flow.get((x, y, "V"), 0) + 1
            pos = (x, y + 1)
        elif tok == "Y":
            flow[(x, y - 1, "V")] = flow.get((x, y - 1, "V"), 0) - 1
            pos = (x, y - 1)
    return MetabelianElement(pos, flow)


# The token-list constructions of the generated words.  The per-entry
# words (one conjugate per lamp or cell) are what the words were first
# spelled as; they stay as value references.  The walk is the reference for
# today's text, which must remain byte-identical to it.

def pow_tokens(symbol, k):
    return [symbol] * k if k >= 0 else [symbol.swapcase()] * -k


def word_from_tokens(tokens):
    return " ".join(tokens)


def reference_conjugate(a, b, body):
    word = [("x", "X")[a < 0]] * abs(a)
    word += [("y", "Y")[b < 0]] * abs(b)
    word += body
    word += [("y", "Y")[b >= 0]] * abs(b)
    word += [("x", "X")[a >= 0]] * abs(a)
    return word


def reference_module_to_word(e, stride):
    tokens = []
    for (a, b, j), v in e.items():
        tokens += reference_conjugate(stride * a + j, b, pow_tokens("g", v))
    return word_from_tokens(tokens)


def reference_cells_to_word(cells):
    tokens = []
    for (a, b) in sorted(cells, key=lambda c: (c[1], c[0])):
        value = cells[(a, b)]
        if not value:
            continue
        unit = ["x", "y", "X", "Y"] if value > 0 else ["y", "x", "Y", "X"]
        tokens += reference_conjugate(a, b, unit * abs(value))
    return word_from_tokens(tokens)


def reference_walk(points, unit, inverse):
    """One column-major walk over the points with nonzero value, writing
    ``unit`` v times (``inverse`` -v times) at each and returning once."""
    tokens = []
    a = b = 0
    for x, y in sorted(points):
        value = points[(x, y)]
        if not value:
            continue
        if x != a:
            tokens += pow_tokens("y", -b) + pow_tokens("x", x - a)
            a, b = x, 0
        tokens += pow_tokens("y", y - b)
        tokens += (unit if value > 0 else inverse) * abs(value)
        b = y
    tokens += pow_tokens("y", -b) + pow_tokens("x", -a)
    return word_from_tokens(tokens)


def flattened_lamps(e, stride):
    """The lamps of the per-entry word: entries that land on one point,
    under a stride below the rank, are added."""
    lamps = {}
    for (a, b, j), v in e.items():
        lamps[(stride * a + j, b)] = lamps.get((stride * a + j, b), 0) + v
    return lamps


def reference_module_walk(e, stride):
    return reference_walk(flattened_lamps(e, stride), ["g"], ["G"])


def reference_cells_walk(cells):
    return reference_walk(cells, ["x", "y", "X", "Y"], ["y", "x", "Y", "X"])


def cancel_moves(word):
    """Free reduction of a word over x/X/y/Y/g/G: cancel adjacent inverse
    letters until none are left."""
    reduced = []
    for token in word.split():
        if reduced and reduced[-1] == token.swapcase():
            reduced.pop()
        else:
            reduced.append(token)
    return word_from_tokens(reduced)


def reference_moves(stride):
    return (word_from_tokens(pow_tokens("x", stride)),
            word_from_tokens(pow_tokens("x", -stride)), "y", "Y")


def random_element(rng, ring, rank):
    return ModuleElement(ring, rank, {
        (rng.randint(-3, 3), rng.randint(-3, 3),
         rng.randrange(rank)): rng.randint(-4, 4)
        for _ in range(rng.randint(0, 5))})


# ---------------------------------------------------------------------------
# lamp-and-position elements


class TestWreathElements:
    def test_immutable(self):
        e = wreath_identity(Z)
        with pytest.raises(AttributeError):
            e.pos = (1, 1)

    def test_canonical_lamp_values(self):
        e = WreathElement(Ring(2), {(0, 0): 2, (1, 0): 3})
        assert e.lamp_at(0, 0) == 0
        assert e.lamp_at(1, 0) == 1
        assert e.support() == [(1, 0)]

    def test_identity(self):
        assert wreath_identity(Z).is_identity()
        assert not wreath_lamp(Z, 0, 0).is_identity()
        assert not WreathElement(Z, pos=(1, 0)).is_identity()

    def test_product_shifts_right_factor(self):
        left = WreathElement(Z, {(0, 0): 1}, (2, 1))
        right = WreathElement(Z, {(0, 0): 1}, (1, 0))
        product = left * right
        assert product.pos == (3, 1)
        assert product.fun() == {(0, 0): 1, (2, 1): 1}

    def test_inverse(self):
        e = WreathElement(Z, {(1, 2): 3}, (2, -1))
        assert (e * e.inv()).is_identity()
        assert (e.inv() * e).is_identity()

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            wreath_identity(Z) * wreath_identity(Ring(2))

    def test_equality_hash_repr(self):
        a = WreathElement(Z, {(0, 0): 1}, (1, 0))
        b = WreathElement(Z, {(0, 0): 1}, (1, 0))
        assert a == b and hash(a) == hash(b)
        assert (a == "x") is False
        assert "pos=(1, 0)" in repr(a)

    def test_randomized_group_laws(self):
        rng = random.Random(20260825)
        for ring in (Z, Ring(3)):
            for _ in range(100):
                def rand():
                    fun = {(rng.randint(-2, 2), rng.randint(-2, 2)):
                           rng.randint(-3, 3)
                           for _ in range(rng.randint(0, 4))}
                    return WreathElement(
                        ring, fun, (rng.randint(-2, 2), rng.randint(-2, 2)))
                a, b, c = rand(), rand(), rand()
                assert (a * b) * c == a * (b * c)
                assert a * wreath_identity(ring) == a
                assert wreath_identity(ring) * a == a
                assert (a * a.inv()).is_identity()


class TestWreathHashAndSharing:
    """Products share lamp tables with their left factor when the right
    factor only moves, re-canonicalise only the touched lamps otherwise,
    and cache their hash; none of that may change equality or hashing."""

    RINGS = (Z, Ring(2), Ring(3))

    def test_products_match_constructor_built_elements(self):
        rng = random.Random(20261018)
        for ring in self.RINGS:
            bindings = wreath_bindings(ring)
            for _ in range(60):
                word = random_word(rng, WREATH_TOKENS, max_len=25)
                product = reduce(lambda acc, t: acc * bindings[t],
                                 word.split(), wreath_identity(ring))
                built = WreathElement(ring, product.fun(), product.pos)
                assert product == built and built == product
                assert hash(product) == hash(built)
                assert hash(product) == hash(product)
                assert product == wreath_eval(word, bindings, ring)

    def test_cancelled_lamp_drops_its_key(self):
        for ring, value in ((Z, -1), (Ring(2), 1), (Ring(3), 2)):
            left = WreathElement(ring, {(0, 0): 1, (1, 0): 1}, (0, 0))
            right = WreathElement(ring, {(0, 0): value})
            product = left * right
            expected = WreathElement(ring, {(1, 0): 1})
            assert product.fun() == {(1, 0): 1}
            assert product == expected
            assert hash(product) == hash(expected)

    def test_move_and_back_is_the_same_element(self):
        for ring in self.RINGS:
            bindings = wreath_bindings(ring)
            a = wreath_eval("g x x g y g", bindings, ring)
            for move, back in (("x", "X"), ("Y", "y")):
                there = a * bindings[move]
                assert there.fun() == a.fun()
                assert there.pos != a.pos
                again = there * bindings[back]
                assert again == a and hash(again) == hash(a)

    def test_mutating_fun_of_a_moved_element_changes_nothing(self):
        for ring in self.RINGS:
            bindings = wreath_bindings(ring)
            parent = wreath_eval("g x g", bindings, ring)
            hash(parent)
            child = parent * bindings["x"]
            snapshot = dict(child.fun())
            lamps = child.fun()
            lamps[(0, 0)] = 0
            lamps[(9, 9)] = 1
            del lamps[(1, 0)]
            assert child.fun() == snapshot
            assert parent.fun() == snapshot
            assert child.lamp_at(9, 9) == 0 and parent.lamp_at(1, 0) == 1
            assert child == WreathElement(ring, snapshot, (2, 0))

    def test_pure_move_still_checks_the_ring(self):
        for left, right in ((Z, Ring(2)), (Ring(2), Ring(3)), (Ring(3), Z)):
            lamp = wreath_lamp(left, 0, 0)
            move = WreathElement(right, pos=(1, 0))
            with pytest.raises(RingMismatch):
                lamp * move
            with pytest.raises(RingMismatch):
                move * lamp

    def test_equal_rings_that_are_distinct_objects(self):
        for modulus in (2, 3):
            ring, twin = Ring(modulus), Ring(modulus)
            assert ring is not twin
            a = WreathElement(ring, {(0, 0): 1, (2, 1): 1}, (1, 0))
            b = WreathElement(twin, {(0, 0): 1, (2, 1): 1}, (1, 0))
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
            moved = a * WreathElement(twin, pos=(1, 0))
            assert moved == b * WreathElement(ring, pos=(1, 0))
            assert moved.ring is ring
            assert a * wreath_lamp(twin, 0, 0) == b * wreath_lamp(ring, 0, 0)


class TestWreathEval:
    def test_commutator_of_moves_is_identity(self):
        assert wreath_eval("x y X Y", wreath_bindings(Z), Z).is_identity()

    def test_lamps_light_at_the_walker(self):
        got = wreath_eval("g x g X", wreath_bindings(Z), Z)
        assert got.pos == (0, 0)
        assert got.fun() == {(0, 0): 1, (1, 0): 1}

    def test_modular_lamps_cancel(self):
        assert wreath_eval("g g", wreath_bindings(Ring(2)),
                           Ring(2)).is_identity()

    def test_empty_word_and_token_stream(self):
        bindings = wreath_bindings(Z)
        assert wreath_eval("", bindings, Z).is_identity()
        assert wreath_eval(iter(["x", "g"]), bindings, Z) == \
            wreath_eval("x g", bindings, Z)

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbol, match="no binding for 'z'"):
            wreath_eval("x z", wreath_bindings(Z), Z)

    def test_binding_ring_checked(self):
        with pytest.raises(RingMismatch):
            wreath_eval("g", wreath_bindings(Ring(2)), Z)

    def test_agrees_with_reference_walk(self):
        rng = random.Random(1)
        bindings = wreath_bindings(Ring(3))
        for _ in range(200):
            word = random_word(rng, WREATH_TOKENS)
            assert wreath_eval(word, bindings, Ring(3)) == \
                walk_wreath(word, Ring(3))

    def test_agrees_with_elementwise_product(self):
        rng = random.Random(2)
        bindings = wreath_bindings(Z)
        for _ in range(100):
            word = random_word(rng, WREATH_TOKENS, max_len=12)
            expected = reduce(lambda acc, t: acc * bindings[t],
                              word.split(), wreath_identity(Z))
            assert wreath_eval(word, bindings, Z) == expected

    def test_concatenation_multiplies(self):
        rng = random.Random(3)
        bindings = wreath_bindings(Z)
        for _ in range(100):
            u = random_word(rng, WREATH_TOKENS, max_len=15)
            v = random_word(rng, WREATH_TOKENS, max_len=15)
            assert wreath_eval(f"{u} {v}", bindings, Z) == \
                wreath_eval(u, bindings, Z) * wreath_eval(v, bindings, Z)


class TestRunLengthEvaluation:
    """Words with long runs, against the letter-by-letter references."""

    def test_wreath_runs_match_reference_walk(self):
        rng = random.Random(13)
        for ring in (Z, Ring(2), Ring(3)):
            bindings = wreath_bindings(ring)
            for _ in range(60):
                word = run_word(rng, WREATH_TOKENS)
                expected = walk_wreath(word, ring)
                assert wreath_eval(word, bindings, ring) == expected
                assert wreath_eval((t for t in word.split()), bindings,
                                   ring) == expected

    def test_metabelian_runs_match_reference_walk(self):
        rng = random.Random(14)
        for _ in range(150):
            word = run_word(rng, MOVE_TOKENS)
            expected = walk_metabelian(word)
            assert metabelian_eval(word) == expected
            assert metabelian_eval(iter(word.split())) == expected

    def test_custom_wreath_bindings(self):
        rng = random.Random(15)
        for ring in (Z, Ring(2), Ring(3)):
            many_lamps = WreathElement(ring, {(0, 0): 2, (1, -1): -1,
                                              (3, 0): 1})
            jump = WreathElement(ring, pos=(3, -2))
            mixed = WreathElement(ring, {(0, 0): 1, (-1, 2): 2}, (2, 1))
            straight = WreathElement(ring, {(0, 0): 1, (1, 0): -1}, (1, 0))
            bindings = dict(wreath_bindings(ring), h=many_lamps,
                            H=many_lamps.inv(), m=jump, M=jump.inv(),
                            q=mixed, Q=mixed.inv(), s=straight,
                            S=straight.inv())
            letters = list(bindings)
            for _ in range(60):
                word = run_word(rng, letters, max_run=12)
                expected = reduce(lambda acc, t: acc * bindings[t],
                                  word.split(), wreath_identity(ring))
                assert wreath_eval(word, bindings, ring) == expected

    def test_custom_metabelian_bindings(self):
        rng = random.Random(16)
        cell = MetabelianElement((0, 0), cell_flow(0, 0))
        hook = metabelian_eval("x x y")
        stride = metabelian_eval("x x x")
        skew = MetabelianElement((0, 1), {(0, 0, "H"): 1})
        move = MetabelianElement((2, 0))
        bindings = dict(metabelian_bindings(), c=cell, h=hook, H=hook.inv(),
                        s=stride, S=stride.inv(), k=skew, K=skew.inv(),
                        p=move, P=move.inv())
        letters = list(bindings)
        for _ in range(80):
            word = run_word(rng, letters, max_run=12)
            expected = reduce(lambda acc, t: acc * bindings[t],
                              word.split(), MetabelianElement())
            assert metabelian_eval(word, bindings) == expected

    def test_flavors_do_not_mix(self):
        # Both flavors hold an integer vector and a position, so only the
        # type keeps them apart: never equal, and no product or binding
        # across them.
        lamp, flow = wreath_identity(Z), MetabelianElement()
        assert lamp != flow and flow != lamp
        assert len({lamp, flow}) == 2
        with pytest.raises(TypeError):
            lamp * flow
        with pytest.raises(TypeError):
            flow * lamp
        with pytest.raises(TypeError, match="'x' is bound to a Metabelian"):
            wreath_eval("x", metabelian_bindings(), Z)
        with pytest.raises(TypeError, match="'g' is bound to a Wreath"):
            metabelian_eval("g", wreath_bindings(Z))


# ---------------------------------------------------------------------------
# flattening module elements


class TestEmbedding:
    def test_entries_spread_along_x(self):
        e = ModuleElement(Z, 2, {(1, 0, 1): 5, (0, 2, 0): -1})
        assert embed_module(e, 2) == {(3, 0): 5, (0, 2): -1}

    def test_stride_must_cover_rank(self):
        e = unit(Z, 3, 0, 0, 2)
        with pytest.raises(StrideTooSmall, match="stride 2 < rank 3"):
            embed_module(e, 2)
        with pytest.raises(StrideTooSmall):
            unembed_module({}, 0, 0, Z)

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(100):
            rank = rng.randint(1, 4)
            stride = rng.randint(rank, rank + 3)
            e = ModuleElement(Z, rank, {
                (rng.randint(-3, 3), rng.randint(-3, 3),
                 rng.randint(0, rank - 1)): rng.randint(-5, 5)
                for _ in range(rng.randint(0, 6))})
            assert unembed_module(embed_module(e, stride), stride,
                                  rank, Z) == e

    def test_stray_grid_point_rejected(self):
        with pytest.raises(NotInImage, match=r"\(2, 0\) has residue 2"):
            unembed_module({(2, 0): 1}, 3, 2, Z)

    def test_word_refuses_a_stride_below_the_rank(self):
        # Entries (0, 0, 1) and (1, 0, 0) would both light (1, 0) at
        # stride 1, so the word could not be read back.
        e = ModuleElement(Z, 2, {(0, 0, 1): 1, (1, 0, 0): 1})
        with pytest.raises(StrideTooSmall) as embedded:
            embed_module(e, 1)
        with pytest.raises(StrideTooSmall) as spelled:
            module_to_word(e, 1)
        assert str(spelled.value) == str(embedded.value) == \
            "stride 1 < rank 2"

    def test_word_spells_the_flattened_element(self):
        e = unit(Z, 2, 1, 0, 1)
        assert module_to_word(e, 2) == "x x x g X X X"
        e2 = ModuleElement(Z, 2, {(0, 1, 0): -2})
        assert module_to_word(e2, 2) == "y G G Y"

    def test_word_evaluates_to_embedded_lamps(self):
        rng = random.Random(5)
        bindings = wreath_bindings(Z)
        for _ in range(50):
            e = ModuleElement(Z, 3, {
                (rng.randint(-2, 2), rng.randint(-2, 2),
                 rng.randint(0, 2)): rng.randint(-4, 4)
                for _ in range(rng.randint(0, 5))})
            got = wreath_eval(module_to_word(e, 3), bindings, Z)
            assert got.pos == (0, 0)
            assert got.fun() == embed_module(e, 3)


class TestWordsMatchTokenConstruction:
    """The words are spelled by string repetition as one walk; every one
    must equal the token-list walk byte for byte, and have the value of the
    per-entry word, one conjugate per lamp or cell."""

    RINGS = (Z, Ring(2), Ring(3))

    def test_module_words(self):
        rng = random.Random(31)
        for ring in self.RINGS:
            bindings = wreath_bindings(ring)
            for rank in (1, 2, 3):
                for stride in range(max(rank, 1), 5):
                    for _ in range(12):
                        e = random_element(rng, ring, rank)
                        word = module_to_word(e, stride)
                        assert word == reference_module_walk(e, stride)
                        per_entry = reference_module_to_word(e, stride)
                        assert wreath_eval(word, bindings, ring) == \
                            wreath_eval(per_entry, bindings, ring)
                        # The lamps' conjugates in walk order, with the
                        # moves between neighbours cancelled.
                        lamps = sorted(flattened_lamps(e, stride).items())
                        assert word == cancel_moves(" ".join(
                            word_from_tokens(reference_conjugate(
                                x, y, pow_tokens("g", v)))
                            for (x, y), v in lamps if v))
                    empty = zero_element(ring, rank)
                    assert module_to_word(empty, stride) == "" == \
                        reference_module_walk(empty, stride)

    def test_cell_words(self):
        rng = random.Random(32)
        for _ in range(200):
            cells = {(rng.randint(-4, 4), rng.randint(-4, 4)):
                     rng.randint(-3, 3) for _ in range(rng.randint(0, 6))}
            word = cells_to_word(cells)
            assert word == reference_cells_walk(cells)
            assert metabelian_eval(word) == \
                metabelian_eval(reference_cells_to_word(cells))
        for cells in ({}, {(0, 0): 0}, {(-2, 1): 0, (3, -1): 0}):
            assert cells_to_word(cells) == "" == reference_cells_walk(cells)

    def test_instance_words(self):
        rng = random.Random(33)
        for ring in self.RINGS:
            for rank in (1, 2, 3):
                for _ in range(8):
                    gens = tuple(random_element(rng, ring, rank)
                                 for _ in range(rng.randint(1, 3)))
                    sem = SemimoduleInstance(ring, rank, gens,
                                             random_element(rng, ring, rank))
                    flavors = (WREATH, METABELIAN) if ring == Z else (WREATH,)
                    for flavor in flavors:
                        inst = make_submonoid_instance(sem, flavor)
                        if flavor == WREATH:
                            spell = lambda e: reference_module_walk(
                                e, inst.stride)
                            per_entry = lambda e: reference_module_to_word(
                                e, inst.stride)
                            bindings = wreath_bindings(ring)
                            evaluate = lambda w: wreath_eval(w, bindings,
                                                             ring)
                        else:
                            spell = lambda e: reference_cells_walk(
                                embed_module(e, inst.stride))
                            per_entry = lambda e: reference_cells_to_word(
                                embed_module(e, inst.stride))
                            evaluate = metabelian_eval
                        assert inst.generators == tuple(
                            spell(g) for g in gens) + \
                            reference_moves(inst.stride)
                        assert inst.target == spell(sem.target)
                        for e, word in zip(gens + (sem.target,),
                                           inst.generators[:-4]
                                           + (inst.target,)):
                            assert evaluate(word) == evaluate(per_entry(e))

    def test_words_grow_with_columns_not_with_distance(self):
        # One entry in each of 40 columns, at heights 0..6 that add up to
        # 115: the walk steps 39 columns out and back once, up and down
        # each column, and writes each body; the per-entry words go out
        # and back once per entry.
        e = ModuleElement(Z, 1, {(a, a % 7, 0): 1 for a in range(40)})
        cells = embed_module(e, 1)
        assert len(module_to_word(e, 1).split()) == 40 + 2 * 39 + 2 * 115
        assert len(cells_to_word(cells).split()) == 4 * 40 + 2 * 39 + 2 * 115
        assert len(reference_module_to_word(e, 1).split()) == 1830
        assert len(reference_cells_to_word(cells).split()) == 1950


# ---------------------------------------------------------------------------
# rank-2 flow elements


class TestMetabelianElements:
    def test_immutable(self):
        with pytest.raises(AttributeError):
            MetabelianElement().ab = (1, 0)

    def test_binding_flows(self):
        b = metabelian_bindings()
        assert b["x"].ab == (1, 0) and b["x"].flow() == {(0, 0, "H"): 1}
        assert b["Y"].ab == (0, -1) and b["Y"].flow() == {(0, -1, "V"): -1}

    def test_inverse_cancels(self):
        e = metabelian_eval("x x y X")
        assert (e * e.inv()).is_identity()
        assert (e.inv() * e).is_identity()

    def test_free_reduction(self):
        assert metabelian_eval("x X").is_identity()
        assert metabelian_eval("Y y").is_identity()

    def test_commutator_flow_is_unit_cell(self):
        got = metabelian_eval("x y X Y")
        assert got.ab == (0, 0)
        assert got.flow() == cell_flow(0, 0)

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbol):
            metabelian_eval("x q")

    def test_agrees_with_reference_walk(self):
        rng = random.Random(6)
        for _ in range(200):
            word = random_word(rng, MOVE_TOKENS)
            assert metabelian_eval(word) == walk_metabelian(word)

    def test_agrees_with_elementwise_product(self):
        rng = random.Random(7)
        bindings = metabelian_bindings()
        for _ in range(100):
            word = random_word(rng, MOVE_TOKENS, max_len=12)
            expected = reduce(lambda acc, t: acc * bindings[t],
                              word.split(), MetabelianElement())
            assert metabelian_eval(word) == expected

    def test_concatenation_multiplies(self):
        rng = random.Random(8)
        for _ in range(100):
            u = random_word(rng, MOVE_TOKENS, max_len=15)
            v = random_word(rng, MOVE_TOKENS, max_len=15)
            assert metabelian_eval(f"{u} {v}") == \
                metabelian_eval(u) * metabelian_eval(v)

    def test_commutators_commute(self):
        # Words with trivial abelianized image multiply by adding flows,
        # so any two of them commute.
        rng = random.Random(9)
        for _ in range(50):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            u = MetabelianElement((0, 0), cell_flow(a, b))
            v = MetabelianElement((0, 0), cell_flow(c, d, -2))
            assert u * v == v * u


class TestHorizontalImage:
    """The certificate check evaluates free metabelian words with the
    vertical edges dropped from the flow; that map must be a one-to-one
    homomorphism."""

    def test_image_is_the_flow_without_vertical_edges(self):
        rng = random.Random(22)
        horizontal = _horizontal_bindings()
        for _ in range(150):
            word = run_word(rng, MOVE_TOKENS, max_run=6)
            full = metabelian_eval(word)
            assert metabelian_eval(word, horizontal) == MetabelianElement(
                full.ab, {key: v for key, v in full.flow().items()
                          if key[2] == "H"})

    def test_no_closed_word_of_length_up_to_8_is_lost(self):
        horizontal = _horizontal_bindings()
        closed = 0
        for length in range(0, 9, 2):
            for letters in itertools.product("xXyY", repeat=length):
                if (letters.count("x") != letters.count("X")
                        or letters.count("y") != letters.count("Y")):
                    continue
                word = " ".join(letters)
                closed += 1
                assert metabelian_eval(word).is_identity() == \
                    metabelian_eval(word, horizontal).is_identity(), word
        assert closed == 1 + 4 + 36 + 400 + 4900

    def test_equal_images_only_for_equal_elements(self):
        # Conjugates of commutators commute, so reordering them gives equal
        # elements spelled differently; changing one value gives a
        # different element with the same position.
        rng = random.Random(23)
        horizontal = _horizontal_bindings()
        for _ in range(100):
            cells = [{(rng.randint(-3, 3), rng.randint(-3, 3)):
                      rng.choice((-2, -1, 1, 2))} for _ in range(4)]
            words = [cells_to_word(c) for c in cells]
            u = " ".join(words)
            v = " ".join(reversed(words))
            cells[0] = {key: value + 1 for key, value in cells[0].items()}
            w = " ".join([cells_to_word(cells[0])] + words[1:])
            for a, b in ((u, v), (u, w), (v, w)):
                assert (metabelian_eval(a) == metabelian_eval(b)) == \
                    (metabelian_eval(a, horizontal)
                     == metabelian_eval(b, horizontal))


class TestFlows:
    def test_boundary_of_single_edges(self):
        assert flow_boundary({(2, 3, "H"): 4}) == {(2, 3): -4, (3, 3): 4}
        assert flow_boundary({(2, 3, "V"): 1}) == {(2, 3): -1, (2, 4): 1}

    def test_boundary_matches_per_edge_reference(self):
        # Each edge takes its value out of its tail and into its head.
        rng = random.Random(3201)
        for _ in range(300):
            flow = {(rng.randint(-3, 3), rng.randint(-3, 3),
                     rng.choice("HV")): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 8))}
            expected = {}
            for (x, y, o), v in flow.items():
                head = (x + 1, y) if o == "H" else (x, y + 1)
                expected[x, y] = expected.get((x, y), 0) - v
                expected[head] = expected.get(head, 0) + v
            assert flow_boundary(flow) == \
                {p: v for p, v in expected.items() if v}

    def test_cell_flow_is_a_circulation(self):
        assert is_circulation(cell_flow(5, -2, 3))
        assert not is_circulation({(0, 0, "H"): 1})

    def test_open_walk_is_not_a_cycle(self):
        open_flow = metabelian_eval("x y").flow()
        assert not is_circulation(open_flow)
        with pytest.raises(NotACycle, match="nonzero boundary"):
            flow_decompose(open_flow)

    def test_decompose_single_cell(self):
        assert flow_decompose(cell_flow(1, 2, -3)) == {(1, 2): -3}

    def test_decompose_inverts_cells_to_flow(self):
        rng = random.Random(10)
        for _ in range(200):
            cells = {(rng.randint(-4, 4), rng.randint(-4, 4)):
                     rng.randint(-3, 3)
                     for _ in range(rng.randint(0, 6))}
            cells = {k: v for k, v in cells.items() if v}
            assert flow_decompose(cells_to_flow(cells)) == cells

    def test_cells_to_word_evaluates_back(self):
        cells = {(1, 0): 2, (-1, 2): -1}
        got = metabelian_eval(cells_to_word(cells))
        assert got.ab == (0, 0)
        assert got.flow() == cells_to_flow(cells)

    def test_flow_to_word_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            cells = {(rng.randint(-3, 3), rng.randint(-3, 3)):
                     rng.randint(-2, 2)
                     for _ in range(rng.randint(0, 4))}
            flow = cells_to_flow(cells)
            word = cells_to_word(flow_decompose(flow))
            assert metabelian_eval(word) == MetabelianElement((0, 0), flow)

    def test_empty_flow_gives_empty_word(self):
        assert cells_to_word(flow_decompose({})) == ""
        assert cells_to_word({(0, 0): 0}) == ""

    def test_decomposition_recheck_survives_optimize_flag(self):
        # The re-check must be a real check, not an assert that -O strips.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "import tilechain.groups as groups\n"
            "assert sys.flags.optimize\n"
            "groups.cells_to_flow = lambda cells: {}\n"
            "try:\n"
            "    groups.flow_decompose(groups.cell_flow(0, 0))\n"
            "except AssertionError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env={"PYTHONPATH": str(src)},
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# submonoid membership instances


def toy_instance(ring=Z):
    g0 = ModuleElement(ring, 2, {(0, 0, 0): 1, (1, 0, 1): -1})
    g1 = unit(ring, 2, 0, 1, 1)
    target = g0 + g1.translate(1, 0)
    return SemimoduleInstance(ring, 2, (g0, g1), target)


class TestSubmonoidInstances:
    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError, match="unknown flavor"):
            SubmonoidInstance("braid", Z, 1, 1, ("x",), "x")
        with pytest.raises(ValueError, match="unknown flavor"):
            make_submonoid_instance(toy_instance(), "braid")

    def test_flow_flavor_needs_integer_ring(self):
        with pytest.raises(ValueError, match="requires integer ring"):
            SubmonoidInstance(METABELIAN, Ring(2), 1, 1, ("x",), "x")
        with pytest.raises(ValueError, match="requires integer ring"):
            make_submonoid_instance(toy_instance(Ring(2)), METABELIAN)

    def test_move_indices(self):
        inst = make_submonoid_instance(toy_instance())
        assert inst.module_generator_count == 2
        assert inst.move_indices() == (2, 3, 4, 5)

    def test_lamp_flavor_structure(self):
        sem = toy_instance()
        inst = make_submonoid_instance(sem, WREATH)
        assert inst.flavor == WREATH
        assert inst.stride == 2
        assert inst.generators[-4:] == ("x x", "X X", "y", "Y")
        bindings = wreath_bindings(Z)
        for word, gen in zip(inst.generators, sem.generators):
            got = wreath_eval(word, bindings, Z)
            assert got.pos == (0, 0)
            assert got.fun() == embed_module(gen, inst.stride)
        target = wreath_eval(inst.target, bindings, Z)
        assert target.fun() == embed_module(sem.target, inst.stride)

    def test_flow_flavor_structure(self):
        sem = toy_instance()
        inst = make_submonoid_instance(sem, METABELIAN)
        assert inst.flavor == METABELIAN
        assert inst.stride == 3
        assert inst.generators[-4:] == ("x x x", "X X X", "y", "Y")
        for word, gen in zip(inst.generators, sem.generators):
            got = metabelian_eval(word)
            assert got.ab == (0, 0)
            assert got.flow() == cells_to_flow(embed_module(gen, inst.stride))

    def test_modular_lamp_flavor(self):
        sem = toy_instance(Ring(2))
        inst = make_submonoid_instance(sem, WREATH)
        assert inst.ring == Ring(2)
        bindings = wreath_bindings(Ring(2))
        got = wreath_eval(inst.target, bindings, Ring(2))
        assert got.fun() == embed_module(sem.target, inst.stride)


class TestCertificates:
    def test_index_layout(self):
        inst = make_submonoid_instance(
            SemimoduleInstance(Z, 1, (unit(Z, 1, 0, 0, 0),),
                               unit(Z, 1, 0, 0, 0)))
        assert inst.move_indices() == (1, 2, 3, 4)
        witness = (WitnessTerm(0, 2, -1, 3),)
        assert witness_to_submonoid_certificate(witness, inst) == \
            (1, 1, 4, 0, 0, 0, 3, 2, 2)

    def test_subset_picks_read_as_coefficient_one(self):
        inst = make_submonoid_instance(
            SemimoduleInstance(Z, 1, (unit(Z, 1, 0, 0, 0),),
                               unit(Z, 1, 0, 0, 0)))
        assert witness_to_submonoid_certificate(((0, 1, 0),), inst) == \
            (1, 0, 2)

    def test_picks_are_walked_column_by_column(self):
        # Column 0 holds the pick at height 2; column 1 the picks at
        # heights 0 and 1, reached by y^-2 x and left by y^-1 x^-1.
        inst = make_submonoid_instance(
            SemimoduleInstance(Z, 1, (unit(Z, 1, 0, 0, 0),),
                               unit(Z, 1, 0, 0, 0)))
        witness = ((0, 1, 0), (0, 0, 2), (0, 1, 1))
        assert witness_to_submonoid_certificate(witness, inst) == \
            (3, 3, 0, 4, 4, 1, 0, 3, 0, 4, 2)

    @pytest.mark.parametrize("field", range(4),
                             ids=("gen", "dx", "dy", "coeff"))
    @pytest.mark.parametrize("value", (1.0, True, 0.5),
                             ids=("float", "bool", "half"))
    def test_non_int_field_is_refused(self, field, value):
        inst = make_submonoid_instance(toy_instance())
        term = [0, 1, 0, 1]
        term[field] = value
        name = ("gen", "dx", "dy", "coeff")[field]
        with pytest.raises(BadTerm, match=rf"term \({', '.join(map(str, term))}"
                                          rf"\): {name} {value!r} is not "
                                          rf"an int"):
            witness_to_submonoid_certificate(
                ((0, 0, 0, 1), tuple(term)), inst)
        if field < 3:
            with pytest.raises(BadTerm, match=f"{name} {value!r} is not"):
                witness_to_submonoid_certificate((tuple(term[:3]),), inst)

    def test_float_generator_is_refused(self):
        inst = make_submonoid_instance(toy_instance())
        with pytest.raises(BadTerm, match=r"term \(0\.0, 0, 0, 1\): gen "
                                          r"0\.0 is not an int"):
            witness_to_submonoid_certificate(((0.0, 0, 0),), inst)

    def test_bad_generator_index(self):
        inst = make_submonoid_instance(toy_instance())
        with pytest.raises(BadIndex, match="generator 2 out of range"):
            witness_to_submonoid_certificate((WitnessTerm(2, 0, 0, 1),), inst)
        with pytest.raises(BadIndex, match="generator 9 out of range"):
            verify_submonoid_certificate(inst, (9,))

    def test_toy_witness_verifies_both_flavors(self):
        sem = toy_instance()
        witness = (WitnessTerm(0, 0, 0, 1), WitnessTerm(1, 1, 0, 1))
        for flavor in (WREATH, METABELIAN):
            inst = make_submonoid_instance(sem, flavor)
            indices = witness_to_submonoid_certificate(witness, inst)
            assert verify_submonoid_certificate(inst, indices)

    def test_run_witness_verifies_both_flavors(self, artifacts):
        pipe = artifacts.pipeline("mini-raw", "a")
        sem = tiling_to_instance(pipe.ts, pipe.f0)
        witness = member_bounded(sem, default_window(pipe.cert))
        assert witness is not None
        for flavor in (WREATH, METABELIAN):
            inst = make_submonoid_instance(sem, flavor)
            indices = witness_to_submonoid_certificate(witness, inst)
            assert verify_submonoid_certificate(inst, indices)

    def test_mutated_certificate_fails(self, artifacts):
        pipe = artifacts.pipeline("mini-raw", "a")
        sem = tiling_to_instance(pipe.ts, pipe.f0)
        witness = member_bounded(sem, default_window(pipe.cert))
        inst = make_submonoid_instance(sem, WREATH)
        indices = witness_to_submonoid_certificate(witness, inst)
        assert not verify_submonoid_certificate(inst, indices[:-1])
        xf = inst.move_indices()[0]
        assert not verify_submonoid_certificate(inst, indices + (xf,))


class TestCertificateSemantics:
    MOVES = ("x", "X", "y", "Y")

    def test_bad_index_comes_before_evaluation(self):
        inst = SubmonoidInstance(WREATH, Z, 1, 1, ("z",) + self.MOVES, "")
        with pytest.raises(BadIndex, match="generator 5 out of range"):
            verify_submonoid_certificate(inst, (0, 5))
        with pytest.raises(BadIndex, match="generator -1 out of range"):
            verify_submonoid_certificate(inst, (0, -1))

    def test_unused_unbound_generator_is_not_evaluated(self):
        inst = SubmonoidInstance(WREATH, Z, 1, 1, ("z",) + self.MOVES, "")
        assert verify_submonoid_certificate(inst, (1, 3, 2, 4))

    def test_used_unbound_generator_raises(self):
        for flavor in (WREATH, METABELIAN):
            inst = SubmonoidInstance(flavor, Z, 1, 1,
                                     ("x z X",) + self.MOVES, "")
            with pytest.raises(UnboundSymbol, match="no binding for 'z'"):
                verify_submonoid_certificate(inst, (1, 0))

    def test_empty_indices_compare_identity_with_target(self):
        for flavor, word in ((WREATH, "x g X"), (METABELIAN, "x y X Y")):
            gens = (word,) + self.MOVES
            empty = SubmonoidInstance(flavor, Z, 1, 1, gens, "")
            assert verify_submonoid_certificate(empty, ())
            nontrivial = SubmonoidInstance(flavor, Z, 1, 1, gens, word)
            assert not verify_submonoid_certificate(nontrivial, ())
            assert verify_submonoid_certificate(nontrivial, (0,))

    def test_matches_evaluating_the_concatenation(self):
        rng = random.Random(17)
        for flavor, letters in ((WREATH, WREATH_TOKENS),
                                (METABELIAN, MOVE_TOKENS)):
            evaluate = (metabelian_eval if flavor == METABELIAN else
                        lambda w: wreath_eval(w, wreath_bindings(Z), Z))
            for _ in range(60):
                gens = tuple(run_word(rng, letters, max_runs=3, max_run=4)
                             for _ in range(3)) + self.MOVES
                indices = tuple(i for _ in range(rng.randint(0, 6))
                                for i in [rng.randrange(7)] * rng.randint(1, 4))
                product = " ".join(gens[i] for i in indices)
                target = product if rng.random() < 0.5 else \
                    run_word(rng, letters, max_runs=3, max_run=4)
                inst = SubmonoidInstance(flavor, Z, 1, 1, gens, target)
                assert verify_submonoid_certificate(inst, indices) == \
                    (evaluate(product) == evaluate(target))

    def test_matches_the_concatenation_over_finite_rings(self):
        # Generator words that do not move, that telescope (+1 here, -1
        # one step on, moving one step) and that move with lamps, plus
        # random ones.
        shapes = ("x g X", "g g", "g x G", "G y g Y y", "g g x y", "x g y")
        rng = random.Random(19)
        for ring in (Ring(2), Ring(3)):
            bindings = wreath_bindings(ring)
            for _ in range(80):
                gens = tuple(rng.choice(shapes) if rng.random() < 0.6 else
                             run_word(rng, WREATH_TOKENS, max_runs=3,
                                      max_run=4)
                             for _ in range(3)) + self.MOVES
                indices = tuple(
                    i for _ in range(rng.randint(0, 6))
                    for i in [rng.randrange(7)] * rng.randint(1, 5))
                product = " ".join(gens[i] for i in indices)
                target = product if rng.random() < 0.5 else \
                    run_word(rng, WREATH_TOKENS, max_runs=3, max_run=4)
                inst = SubmonoidInstance(WREATH, ring, 1, 1, gens, target)
                expected = (wreath_eval(product, bindings, ring)
                            == wreath_eval(target, bindings, ring))
                loaded = submonoid_from_dict(submonoid_to_dict(inst))
                for checked in (inst, loaded):
                    assert verify_submonoid_certificate(checked, indices) == \
                        expected

    @pytest.mark.parametrize("flavor,modulus", [
        (WREATH, None), (WREATH, 2), (METABELIAN, None)])
    def test_certificate_mutants_match_the_concatenation(self, artifacts,
                                                          flavor, modulus):
        # Every distinct sequence one index delete, duplicate or adjacent
        # swap away from a genuine certificate for unary n = 1, and a
        # seeded sample of them for n = 2..4: each reference evaluation of
        # a concatenation there reads 20k-60k letters.
        ring = Z if modulus is None else Ring(modulus)
        rng = random.Random(20)
        for n in range(1, 5):
            pipe = artifacts.pipeline("unary-eraser", "a" * n)
            sem = tiling_to_instance(pipe.ts,
                                     initial_map(pipe.tm, "a" * n, ring))
            inst = make_submonoid_instance(sem, flavor)
            loaded = submonoid_from_dict(submonoid_to_dict(inst))
            genuine = witness_to_submonoid_certificate(
                certificate_to_witness(pipe.cert, pipe.ts), inst)
            if flavor == WREATH:
                bindings = wreath_bindings(ring)
                evaluate = lambda w: wreath_eval(w, bindings, ring)
            else:
                evaluate = metabelian_eval
            target = evaluate(inst.target)
            mutants = sorted(one_edit_away(genuine))
            if n > 1:
                mutants = rng.sample(mutants, 15)
            verdicts = set()
            for indices in [genuine] + mutants:
                expected = evaluate(" ".join(inst.generators[i]
                                             for i in indices)) == target
                assert verify_submonoid_certificate(inst, indices) == expected
                if n > 1 or indices == genuine:
                    assert verify_submonoid_certificate(loaded, indices) == \
                        expected
                verdicts.add((indices == genuine, expected))
            # Swapping two commuting moves keeps a certificate valid, so
            # only these two outcomes are certain.
            assert {(True, True), (False, False)} <= verdicts

    def test_long_move_term_and_missing_move(self):
        f = unit(Z, 1, 0, 0, 0)
        sem = SemimoduleInstance(Z, 1, (f,), f.translate(7, 1))
        witness = (WitnessTerm(0, 7, 1, 1),)
        for flavor in (WREATH, METABELIAN):
            inst = make_submonoid_instance(sem, flavor)
            indices = witness_to_submonoid_certificate(witness, inst)
            assert verify_submonoid_certificate(inst, indices)
            xf = inst.move_indices()[0]
            cut = indices.index(xf)
            assert not verify_submonoid_certificate(
                inst, indices[:cut] + indices[cut + 1:])


def per_entry_instance(inst, sem):
    """``inst`` with every module word spelled per entry, one conjugate per
    lamp or cell, as the words were first written."""
    if inst.flavor == WREATH:
        spell = lambda e: reference_module_to_word(e, inst.stride)
    else:
        spell = lambda e: reference_cells_to_word(embed_module(e, inst.stride))
    return SubmonoidInstance(
        inst.flavor, inst.ring, inst.rank, inst.stride,
        tuple(spell(g) for g in sem.generators) + reference_moves(inst.stride),
        spell(sem.target))


class TestPositionsFirst:
    """The verifier compares the product's position with the target's
    before it adds any sums.  Its verdicts, and the order of its
    exceptions, are those of folding everything first."""

    MOVES = ("x", "X", "y", "Y")

    def test_per_entry_spelling_still_verifies(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "aaa")
        cases = ((toy_instance(), (WitnessTerm(0, 0, 0, 1),
                                   WitnessTerm(1, 1, 0, 1))),
                 (tiling_to_instance(pipe.ts, pipe.f0),
                  certificate_to_witness(pipe.cert, pipe.ts)))
        for sem, witness in cases:
            for flavor in (WREATH, METABELIAN):
                inst = make_submonoid_instance(sem, flavor)
                old = per_entry_instance(inst, sem)
                assert old.target != inst.target
                indices = witness_to_submonoid_certificate(witness, inst)
                assert witness_to_submonoid_certificate(witness, old) == \
                    indices
                middle = len(indices) // 2
                cut = indices[:middle] + indices[middle + 1:]
                for checked in (inst, old,
                                submonoid_from_dict(submonoid_to_dict(old))):
                    assert verify_submonoid_certificate(checked, indices)
                    assert not verify_submonoid_certificate(checked, cut)

    @pytest.mark.parametrize("flavor,modulus", [
        (WREATH, None), (WREATH, 2), (METABELIAN, None)])
    def test_every_deletion_matches_the_concatenation(self, artifacts,
                                                      flavor, modulus):
        ring = Z if modulus is None else Ring(modulus)
        if flavor == WREATH:
            bindings = wreath_bindings(ring)
            evaluate = lambda w: wreath_eval(w, bindings, ring)
        else:
            evaluate = metabelian_eval
        pipe = artifacts.pipeline("unary-eraser", "a")
        sem = tiling_to_instance(pipe.ts, initial_map(pipe.tm, "a", ring))
        inst = make_submonoid_instance(sem, flavor)
        genuine = witness_to_submonoid_certificate(
            certificate_to_witness(pipe.cert, pipe.ts), inst)
        target = evaluate(inst.target)
        moves = set(inst.move_indices())
        seen = set()
        for k in range(len(genuine)):
            cut = genuine[:k] + genuine[k + 1:]
            product = evaluate(" ".join(inst.generators[i] for i in cut))
            assert verify_submonoid_certificate(inst, cut) == \
                (product == target)
            seen.add((genuine[k] in moves, product.pos == target.pos))
        # Deleted moves are refused on positions, deleted generators on
        # sums.
        assert seen == {(True, False), (False, True)}

    def test_exceptions_come_in_the_order_of_the_full_fold(self):
        for flavor, live in ((WREATH, "x g X"), (METABELIAN, "x y X Y")):
            words = (live, "x z X") + self.MOVES
            inst = SubmonoidInstance(flavor, Z, 1, 1, words, "x q X")
            # Every used generator is read before the target, also when
            # the product ends away from the target.
            for indices in ((1,), (0, 1), (2, 1), (1, 2, 2)):
                with pytest.raises(UnboundSymbol, match="no binding for 'z'"):
                    verify_submonoid_certificate(inst, indices)
            # The target is read before positions are compared.
            for indices in ((0,), (2,), ()):
                with pytest.raises(UnboundSymbol, match="no binding for 'q'"):
                    verify_submonoid_certificate(inst, indices)
            # Bad and float indices raise before anything is read.
            with pytest.raises(BadIndex, match="generator 6 out of range"):
                verify_submonoid_certificate(inst, (1, 6))
            for indices in ((1, 0.0), (1.0,), (2, 1, 3.0)):
                with pytest.raises(TypeError):
                    verify_submonoid_certificate(inst, indices)
            assert 1 not in _word_steps(words, flavor, Z)[0]


def reference_certificate(witness, inst):
    """The per-term certificate: every term spelled as its own conjugate
    ``x^a y^b · gen^coeff · y^-b x^-a``, in the witness's order."""
    xf, xb, yu, yd = inst.move_indices()
    indices = []
    for term in witness:
        gen, dx, dy, coeff = term if len(term) == 4 else (*term, 1)
        indices += [(xf, xb)[dx < 0]] * abs(dx)
        indices += [(yu, yd)[dy < 0]] * abs(dy)
        indices += [gen] * coeff
        indices += [(yu, yd)[dy >= 0]] * abs(dy)
        indices += [(xf, xb)[dx >= 0]] * abs(dx)
    return tuple(indices)


def free_reduction(indices, inst):
    """Cancel adjacent forward and back moves until none are left."""
    xf, xb, yu, yd = inst.move_indices()
    inverse = {xf: xb, xb: xf, yu: yd, yd: yu}
    reduced = []
    for i in indices:
        if reduced and inverse.get(i) == reduced[-1]:
            reduced.pop()
        else:
            reduced.append(i)
    return tuple(reduced)


def column_major(witness):
    return sorted(witness, key=lambda term: (term[1], term[2], term[0]))


def random_witness(rng, gen_count):
    """Terms of three and four fields over a few shifts, so shifts repeat;
    shifts are negative, zero and positive, coefficients 0 to 3."""
    shifts = [(rng.randint(-3, 3), rng.randint(-3, 3))
              for _ in range(rng.randint(1, 4))] + [(0, 0)]
    witness = []
    for _ in range(rng.randint(0, 6)):
        gen, (dx, dy) = rng.randrange(gen_count), rng.choice(shifts)
        if rng.random() < 0.3:
            witness.append((gen, dx, dy))
        else:
            witness.append(WitnessTerm(gen, dx, dy, rng.randint(0, 3)))
    return tuple(witness)


def random_module_instance(rng, ring):
    rank = rng.randint(1, 2)
    gens = tuple(ModuleElement(ring, rank, {
        (rng.randint(-1, 1), rng.randint(-1, 1), rng.randrange(rank)):
            rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 3))})
        for _ in range(rng.randint(1, 3)))
    return SemimoduleInstance(ring, rank, gens, zero_element(ring, rank))


def generator_edit(rng, walk, per_term, inst, kind):
    """One delete, insert or replace at the same generator occurrence of
    both certificates, which stands at the same pick in each."""
    def places(indices):
        return [k for k, i in enumerate(indices)
                if i < inst.module_generator_count]
    occurrence = rng.randrange(len(places(walk)))
    other = rng.randrange(inst.module_generator_count)
    edited = []
    for indices in (walk, per_term):
        k = places(indices)[occurrence]
        if kind == "delete":
            edited.append(indices[:k] + indices[k + 1:])
        elif kind == "insert":
            edited.append(indices[:k] + (other,) + indices[k:])
        else:
            edited.append(indices[:k] + (other,) + indices[k + 1:])
    return edited


class TestWalkCertificates:
    """The certificate is one column-major walk: the free reduction of the
    per-term conjugates of the sorted witness, with the same verdicts."""

    def test_walk_is_the_free_reduction_of_the_sorted_terms(self):
        rng = random.Random(2101)
        seen = set()
        for _ in range(300):
            ring = rng.choice((Z, Ring(2), Ring(3)))
            sem = random_module_instance(rng, ring)
            flavor = METABELIAN if ring == Z and rng.random() < 0.5 else \
                WREATH
            inst = make_submonoid_instance(sem, flavor)
            witness = random_witness(rng, len(sem.generators))
            walk = witness_to_submonoid_certificate(witness, inst)
            expected = free_reduction(
                reference_certificate(column_major(witness), inst), inst)
            assert walk == expected, witness
            if len(witness) == 1:
                assert walk == free_reduction(
                    reference_certificate(witness, inst), inst)
            seen.update(len(term) for term in witness)
            seen.update(f"coeff {term[3]}" for term in witness
                        if len(term) == 4 and term[3] in (0, 2))
        assert {3, 4, "coeff 0", "coeff 2"} <= seen

    def test_words_and_certificates_share_one_walk(self):
        # Over one generator at stride 1, a certificate read with g for the
        # generator and x/X/y/Y for the moves is the word of its picks.
        rng = random.Random(3202)
        sem = SemimoduleInstance(Z, 1, (unit(Z, 1, 0, 0, 0),),
                                 zero_element(Z, 1))
        inst = make_submonoid_instance(sem)
        assert inst.stride == 1
        xf, xb, yu, yd = inst.move_indices()
        letter = {xf: "x", xb: "X", yu: "y", yd: "Y", 0: "g"}
        for _ in range(300):
            witness = random_witness(rng, 1)
            entries = {}
            for term in witness:
                _, dx, dy, coeff = term if len(term) == 4 else (*term, 1)
                entries[dx, dy, 0] = entries.get((dx, dy, 0), 0) + coeff
            picks = ModuleElement(Z, 1, {k: v for k, v in entries.items()
                                         if v})
            indices = witness_to_submonoid_certificate(witness, inst)
            assert " ".join(letter[i] for i in indices) == \
                module_to_word(picks, 1), witness

    def test_one_term_is_todays_conjugate(self):
        inst = make_submonoid_instance(toy_instance())
        for term in ((1, -2, 3, 2), (0, 0, -1, 1), (1, 4, 0, 3), (0, 0, 0)):
            assert witness_to_submonoid_certificate((term,), inst) == \
                reference_certificate((term,), inst)
        assert witness_to_submonoid_certificate(((1, 2, 2, 0),), inst) == ()

    @pytest.mark.parametrize("flavor,modulus", [
        (WREATH, None), (WREATH, 2), (WREATH, 3), (METABELIAN, None)])
    def test_verdicts_match_the_per_term_certificate(self, flavor, modulus):
        ring = Z if modulus is None else Ring(modulus)
        if flavor == WREATH:
            bindings = wreath_bindings(ring)
            evaluate = lambda w: wreath_eval(w, bindings, ring)
        else:
            evaluate = metabelian_eval
        rng = random.Random(f"walk-verdicts:{flavor}:{modulus}")
        verdicts = set()
        for _ in range(40):
            sem = random_module_instance(rng, ring)
            witness = random_witness(rng, len(sem.generators))
            # The target is the witness's sum, or that of another witness.
            summed = witness if rng.random() < 0.7 else \
                random_witness(rng, len(sem.generators))
            target = eval_member_witness(sem, (
                term if len(term) == 4 else (*term, 1) for term in summed))
            inst = make_submonoid_instance(SemimoduleInstance(
                ring, sem.rank, sem.generators, target), flavor)
            walk = witness_to_submonoid_certificate(witness, inst)
            expected = verify_submonoid_certificate(
                inst, reference_certificate(witness, inst))
            assert verify_submonoid_certificate(inst, walk) == expected
            verdicts.add(expected)
            if not walk:
                continue
            value = evaluate(inst.target)
            for edited in seeded_edits(rng, walk, 3):
                # Anywhere in the walk, against the concatenated words.
                assert verify_submonoid_certificate(inst, edited) == (
                    evaluate(" ".join(inst.generators[i] for i in edited))
                    == value)
            if any(i < inst.module_generator_count for i in walk):
                # The sorted per-term certificate holds the generator
                # occurrences in the walk's order.
                per_term = reference_certificate(column_major(witness), inst)
                for kind in ("delete", "insert", "replace"):
                    mutant, reference = generator_edit(rng, walk, per_term,
                                                       inst, kind)
                    verdict = verify_submonoid_certificate(inst, reference)
                    assert verify_submonoid_certificate(inst, mutant) == \
                        verdict
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n,length", [(24, 4185), (64, 26465)])
    def test_length_grows_with_picks_not_moves(self, artifacts, n, length):
        # One round trip per pick spelled 108,887 and 1,746,887 indices.
        pipe = artifacts.pipeline("unary-eraser", "a" * n)
        sem = tiling_to_instance(pipe.ts, pipe.f0)
        picks = certificate_to_witness(pipe.cert, pipe.ts)
        for flavor in (WREATH, METABELIAN):
            inst = make_submonoid_instance(sem, flavor)
            indices = witness_to_submonoid_certificate(picks, inst)
            assert len(indices) == length
            assert verify_submonoid_certificate(inst, indices)
            cut = len(indices) // 3
            assert not verify_submonoid_certificate(
                inst, indices[:cut] + indices[cut + 1:])


def seeded_edits(rng, indices, count):
    """``count`` seeded mutants of ``indices``: one index deleted, one
    inserted or two swapped."""
    top = max(indices) + 1
    found = []
    for k in range(count):
        edited = list(indices)
        i = rng.randrange(len(edited))
        if k % 3 == 0:
            del edited[i]
        elif k % 3 == 1:
            edited.insert(i, rng.randrange(top))
        else:
            j = rng.randrange(len(edited))
            edited[i], edited[j] = edited[j], edited[i]
        found.append(tuple(edited))
    return found


class TestGeneratorMemos:
    """The words of an instance's generators, and their fold steps, are
    kept between calls; each verdict must still be a function of the
    instance's text."""

    MOVES = ("x", "X", "y", "Y")

    @pytest.mark.parametrize("flavor,modulus", [
        (WREATH, None), (WREATH, 2), (WREATH, 3), (METABELIAN, None)])
    def test_mutants_match_an_uncached_reference(self, artifacts, flavor,
                                                 modulus):
        # Every verdict after the first reads the memo; the reference
        # evaluates the concatenated words afresh.
        ring = Z if modulus is None else Ring(modulus)
        if flavor == WREATH:
            bindings = wreath_bindings(ring)
            evaluate = lambda w: wreath_eval(w, bindings, ring)
        else:
            evaluate = metabelian_eval
        rng = random.Random(21)
        verdicts = set()
        for name, word in (("unary-eraser", "a"), ("two-symbol-eraser", "a")):
            pipe = artifacts.pipeline(name, word)
            sem = tiling_to_instance(pipe.ts, initial_map(pipe.tm, word, ring))
            inst = make_submonoid_instance(sem, flavor)
            genuine = witness_to_submonoid_certificate(
                certificate_to_witness(pipe.cert, pipe.ts), inst)
            target = evaluate(inst.target)
            for indices in [genuine] + seeded_edits(rng, genuine, 15):
                expected = evaluate(" ".join(inst.generators[i]
                                             for i in indices)) == target
                assert verify_submonoid_certificate(inst, indices) == expected
                verdicts.add(expected)
            steps, _ = _word_steps(inst.generators, flavor, ring)
            assert 0 < len(steps) <= len(inst.generators)
        assert verdicts == {True, False}

    def test_equal_instances_share_one_tuple_of_words(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "aa")
        sem = tiling_to_instance(pipe.ts, pipe.f0)
        copied = copy.deepcopy(sem)
        assert copied == sem and copied.generators[0] is not sem.generators[0]
        for flavor in (WREATH, METABELIAN):
            words = make_submonoid_instance(sem, flavor).generators
            assert make_submonoid_instance(copied, flavor).generators is words
        assert make_submonoid_instance(sem, WREATH).generators != \
            make_submonoid_instance(sem, METABELIAN).generators

    def test_instances_one_word_apart_get_their_own_verdicts(self):
        for flavor, word, other in ((WREATH, "x g X", "x g g X"),
                                    (METABELIAN, "x y X Y", "y x Y X")):
            first = SubmonoidInstance(flavor, Z, 1, 1, (word,) + self.MOVES,
                                      word)
            second = SubmonoidInstance(flavor, Z, 1, 1,
                                       (other,) + self.MOVES, word)
            for _ in range(2):
                assert verify_submonoid_certificate(first, (0,))
                assert not verify_submonoid_certificate(second, (0,))

    def test_rings_do_not_share_steps(self):
        inst = SubmonoidInstance(WREATH, Z, 1, 1, ("g g",) + self.MOVES, "")
        mod2 = SubmonoidInstance(WREATH, Ring(2), 1, 1, ("g g",) + self.MOVES,
                                 "")
        for _ in range(2):
            assert not verify_submonoid_certificate(inst, (0,))
            assert verify_submonoid_certificate(mod2, (0,))

    def test_unbound_letter_raises_on_every_call(self):
        for flavor, live in ((WREATH, "x g X"), (METABELIAN, "x y X Y")):
            words = ("x z X", live) + self.MOVES
            inst = SubmonoidInstance(flavor, Z, 1, 1, words, live)
            bad_target = SubmonoidInstance(flavor, Z, 1, 1, words, "x q")
            for _ in range(3):
                with pytest.raises(UnboundSymbol, match="no binding for 'z'"):
                    verify_submonoid_certificate(inst, (1, 0))
                with pytest.raises(UnboundSymbol, match="no binding for 'q'"):
                    verify_submonoid_certificate(bad_target, (1,))
                assert verify_submonoid_certificate(inst, (1,))
                assert not verify_submonoid_certificate(inst, (2, 3, 1, 1))
            assert 0 not in _word_steps(words, flavor, Z)[0]

    def test_float_index_raises_whatever_the_memo_holds(self):
        inst = SubmonoidInstance(WREATH, Z, 1, 1, ("x g X",) + self.MOVES,
                                 "x g X")
        assert verify_submonoid_certificate(inst, (0,))
        with pytest.raises(TypeError):
            verify_submonoid_certificate(inst, (0.0,))
        assert verify_submonoid_certificate(inst, (False,))

    def test_a_list_of_generators_verifies(self):
        sem = toy_instance()
        witness = (WitnessTerm(0, 0, 0, 1), WitnessTerm(1, 1, 0, 1))
        for flavor in (WREATH, METABELIAN):
            inst = make_submonoid_instance(sem, flavor)
            listed = SubmonoidInstance(flavor, Z, inst.rank, inst.stride,
                                       list(inst.generators), inst.target)
            indices = witness_to_submonoid_certificate(witness, inst)
            assert verify_submonoid_certificate(listed, indices)
            assert not verify_submonoid_certificate(listed, indices[1:])
        listed = SemimoduleInstance(Z, sem.rank, list(sem.generators),
                                    sem.target)
        assert make_submonoid_instance(listed).generators == \
            make_submonoid_instance(sem).generators


def one_edit_away(indices):
    """Every distinct sequence one delete, duplicate or adjacent swap away
    from ``indices``, other than ``indices`` itself."""
    found = set()
    for k in range(len(indices)):
        found.add(indices[:k] + indices[k + 1:])
        found.add(indices[:k + 1] + indices[k:])
        if k + 1 < len(indices):
            found.add(indices[:k] + (indices[k + 1], indices[k])
                      + indices[k + 2:])
    found.discard(indices)
    return found


class TestSubmonoidSerialization:
    def test_round_trip(self):
        for flavor in (WREATH, METABELIAN):
            inst = make_submonoid_instance(toy_instance(), flavor)
            assert submonoid_from_dict(submonoid_to_dict(inst)) == inst

    def test_strictness(self):
        data = submonoid_to_dict(make_submonoid_instance(toy_instance()))
        data["note"] = "x"
        with pytest.raises(ValueError,
                           match="unknown submonoid instance fields"):
            submonoid_from_dict(data)

    @pytest.mark.parametrize("field, value, kind", [
        ("rank", 1.9, "float"), ("rank", True, "bool"),
        ("stride", "3", "str"), ("stride", None, "NoneType")])
    def test_rank_and_stride_must_be_integers(self, field, value, kind):
        # Refused, not coerced: 1.9 used to load as rank 1, "3" as 3.
        data = submonoid_to_dict(make_submonoid_instance(toy_instance()))
        data[field] = value
        with pytest.raises(ValueError, match=f"submonoid instance field "
                                             f"'{field}' must be an "
                                             f"integer, not {kind}"):
            submonoid_from_dict(data)

    @pytest.mark.parametrize("where, value, kind", [
        ("generators", 5, "int"), ("generators", None, "NoneType"),
        ("generators", ["x"], "list"), ("target", 5, "int"),
        ("target", {}, "dict")])
    def test_words_must_be_strings(self, where, value, kind):
        # A generator 5 used to load as the word "5".
        data = submonoid_to_dict(make_submonoid_instance(toy_instance()))
        if where == "generators":
            data["generators"][0] = value
        else:
            data["target"] = value
        with pytest.raises(ValueError, match=f"submonoid instance words "
                                             f"must be strings, not {kind}"):
            submonoid_from_dict(data)

    def test_generators_must_be_a_list(self):
        data = submonoid_to_dict(make_submonoid_instance(toy_instance()))
        data["generators"] = "x y"
        with pytest.raises(ValueError, match="field 'generators' must be a "
                                             "list, not str"):
            submonoid_from_dict(data)
