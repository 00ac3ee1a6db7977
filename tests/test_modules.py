"""Tests for the translated-generator module layer: elements, flattening,
membership instances, the bounded searches, and witness serialization."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from tilechain.compiler import initial_map
from tilechain.edges import EdgeMap, Ring, RingMismatch, Z, tile_eval
from tilechain.engine import default_window
from tilechain.groups import make_submonoid_instance, \
    witness_to_submonoid_certificate
from tilechain.modules import (
    BadTerm,
    DuplicateShift,
    ModuleElement,
    RankMismatch,
    SemimoduleInstance,
    UnknownColor,
    WitnessTerm,
    certificate_to_witness,
    color_index,
    element_from_dict,
    element_to_dict,
    eval_member_witness,
    eval_subset_witness,
    from_edgemap,
    instance_from_dict,
    instance_to_dict,
    member_bounded,
    subset_sum_bounded,
    tiling_to_instance,
    tiling_to_subset_sum,
    unit,
    verify_witness,
    witness_from_dict,
    witness_to_certificate,
    witness_to_dict,
    zero_element,
)
from tilechain.tiling import Certificate, Color, Placement

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# elements


class TestElementBasics:
    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            ModuleElement(Z, -1)

    def test_coordinate_outside_rank_rejected(self):
        with pytest.raises(RankMismatch, match="coordinate 2 outside rank 2"):
            ModuleElement(Z, 2, {(0, 0, 2): 1})

    def test_immutable(self):
        e = unit(Z, 1, 0, 0, 0)
        with pytest.raises(AttributeError):
            e.rank = 3

    def test_zero_and_reduced_values_dropped(self):
        e = ModuleElement(Ring(3), 1, {(0, 0, 0): 3, (1, 0, 0): 5})
        assert e.value(0, 0, 0) == 0
        assert e.value(1, 0, 0) == 2
        assert e.support() == [(1, 0, 0)]

    def test_value_and_len(self):
        e = unit(Z, 2, 1, 2, 1, value=3)
        assert e.value(1, 2, 1) == 3
        assert e.value(0, 0, 0) == 0
        assert len(e) == 1
        assert zero_element(Z, 2).is_zero()

    def test_support_sorted_rows_first(self):
        e = ModuleElement(Z, 2, {(1, 0, 0): 1, (0, 1, 0): 1,
                                 (0, 0, 1): 1, (0, 0, 0): 1})
        assert e.support() == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)]

    def test_addition_cancels(self):
        f = unit(Z, 1, 0, 0, 0)
        assert (f + (-f)).is_zero()
        assert f - f == zero_element(Z, 1)

    def test_scale_and_translate(self):
        f = unit(Z, 1, 1, 2, 0)
        assert f.scale(4).value(1, 2, 0) == 4
        assert f.translate(2, -1).value(3, 1, 0) == 1
        assert f.translate(0, 0) == f

    def test_ring_mismatch_on_add(self):
        with pytest.raises(RingMismatch):
            unit(Z, 1, 0, 0, 0) + unit(Ring(2), 1, 0, 0, 0)

    def test_rank_mismatch_on_add(self):
        with pytest.raises(RankMismatch, match="rank 1 vs 2"):
            unit(Z, 1, 0, 0, 0) + unit(Z, 2, 0, 0, 0)

    def test_equality_and_hash(self):
        a = ModuleElement(Z, 1, {(0, 0, 0): 1, (1, 0, 0): 2})
        b = ModuleElement(Z, 1, {(1, 0, 0): 2, (0, 0, 0): 1})
        assert a == b and hash(a) == hash(b)
        assert (a == object()) is False
        assert a != unit(Z, 1, 0, 0, 0)

    def test_repr_lists_entries(self):
        text = repr(ModuleElement(Z, 1, {(0, 0, 0): 1, (1, 0, 0): -2}))
        assert "(0,0,0): +1" in text and "(1,0,0): -2" in text

    def test_randomized_module_laws(self):
        rng = random.Random(20260824)
        for ring in (Z, Ring(5)):
            for _ in range(100):
                def rand():
                    return ModuleElement(ring, 3, {
                        (rng.randint(-2, 2), rng.randint(-2, 2),
                         rng.randint(0, 2)): rng.randint(-4, 4)
                        for _ in range(rng.randint(0, 5))})
                a, b, c = rand(), rand(), rand()
                k = rng.randint(-3, 3)
                dx, dy = rng.randint(-2, 2), rng.randint(-2, 2)
                assert a + b == b + a
                assert (a + b) + c == a + (b + c)
                assert (a + b).scale(k) == a.scale(k) + b.scale(k)
                assert (a + b).translate(dx, dy) == \
                    a.translate(dx, dy) + b.translate(dx, dy)
                assert a.translate(dx, dy).translate(-dx, -dy) == a


# ---------------------------------------------------------------------------
# flattening edge maps into elements


class TestFlattening:
    def test_color_index_blocks(self, artifacts):
        colors = artifacts.tiling("unary-eraser").colors
        assert color_index(colors, colors[0], "H") == 0
        assert color_index(colors, colors[3], "H") == 3
        assert color_index(colors, colors[0], "V") == len(colors)
        assert color_index(colors, colors[-1], "V") == 2 * len(colors) - 1

    def test_color_index_unknown_color(self, artifacts):
        colors = artifacts.tiling("unary-eraser").colors
        foreign = Color("state", "nowhere", "")
        assert foreign not in colors
        with pytest.raises(UnknownColor):
            color_index(colors, foreign, "H")

    def test_color_index_bad_orientation(self, artifacts):
        colors = artifacts.tiling("unary-eraser").colors
        with pytest.raises(ValueError, match="orientation must be 'H' or 'V'"):
            color_index(colors, colors[0], "D")

    def test_round_trip_through_element(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "aa")
        colors = pipe.ts.colors
        e = from_edgemap(pipe.f0, colors)
        assert e.rank == 2 * len(colors)
        assert len(e) == len(pipe.f0.support())
        tags = [("H", c) for c in colors] + [("V", c) for c in colors]
        back = EdgeMap(e.ring, [(((x, y, tags[idx][0]), tags[idx][1]), v)
                                for (x, y, idx), v in e.items()])
        assert back == pipe.f0

    def test_flattening_is_translation_equivariant(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "aa")
        colors = pipe.ts.colors
        moved = from_edgemap(pipe.f0.translate(3, -2), colors)
        assert moved == from_edgemap(pipe.f0, colors).translate(3, -2)


# ---------------------------------------------------------------------------
# instances


class TestInstances:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            SemimoduleInstance(Z, 1, (), zero_element(Z, 1), mode="exact")

    def test_element_ring_checked(self):
        with pytest.raises(RingMismatch):
            SemimoduleInstance(Z, 1, (unit(Ring(2), 1, 0, 0, 0),),
                               zero_element(Z, 1))

    def test_element_rank_checked(self):
        with pytest.raises(RankMismatch):
            SemimoduleInstance(Z, 1, (unit(Z, 1, 0, 0, 0),),
                               zero_element(Z, 2))

    def test_tiling_instance_structure(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "aa")
        inst = tiling_to_instance(pipe.ts, pipe.f0)
        colors = pipe.ts.colors
        assert inst.mode == "semimodule"
        assert inst.ring == Z
        assert inst.rank == 2 * len(colors)
        assert len(inst.generators) == len(pipe.ts.tiles)
        for gen, tile in zip(inst.generators, pipe.ts.tiles):
            vec = tile_eval(tile, Z, pipe.ts.distinguished)
            assert gen == from_edgemap(vec, colors)
        assert inst.target == from_edgemap(-pipe.f0, colors)

    def test_subset_sum_variant_shares_data(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "aa")
        inst = tiling_to_subset_sum(pipe.ts, pipe.f0)
        assert inst.mode == "subset-sum"
        assert inst.generators == \
            tiling_to_instance(pipe.ts, pipe.f0).generators


# ---------------------------------------------------------------------------
# witness evaluation


class TestWitnessEvaluation:
    def test_member_witness_sums_scaled_translates(self):
        g = ModuleElement(Z, 1, {(0, 0, 0): 1, (1, 0, 0): -1})
        inst = SemimoduleInstance(Z, 1, (g,), g.translate(1, 2).scale(3))
        witness = (WitnessTerm(0, 1, 2, 3),)
        assert eval_member_witness(inst, witness) == inst.target
        assert verify_witness(inst, witness)
        assert not verify_witness(inst, (WitnessTerm(0, 1, 2, 2),))

    def test_subset_witness_sums_distinct_translates(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        inst = SemimoduleInstance(ring, 1, (f,), f + f.translate(1, 0),
                                  mode="subset-sum")
        assert verify_witness(inst, ((0, 0, 0), (0, 1, 0)))
        assert not verify_witness(inst, ((0, 0, 0),))

    def test_subset_witness_rejects_repeated_shift(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        inst = SemimoduleInstance(ring, 1, (f,), zero_element(ring, 1),
                                  mode="subset-sum")
        with pytest.raises(DuplicateShift, match=r"\(1, 0\) used twice"):
            eval_subset_witness(inst, ((0, 1, 0), (0, 1, 0)))

    def test_out_of_range_generator_is_refused(self):
        f, g = unit(Z, 1, 0, 0, 0), unit(Z, 1, 1, 0, 0)
        inst = SemimoduleInstance(Z, 1, (f, g), g)
        # Python's negative indexing would read -1 as the last generator.
        for gen in (-1, 2):
            with pytest.raises(BadTerm, match=rf"term \({gen}, 0, 0, 1\): "
                                              rf"generator {gen} out of"):
                verify_witness(inst, (WitnessTerm(gen, 0, 0, 1),))
        subset = SemimoduleInstance(Ring(2), 1, (unit(Ring(2), 1, 0, 0, 0),),
                                    unit(Ring(2), 1, 0, 0, 0),
                                    mode="subset-sum")
        for gen in (-1, 1):
            with pytest.raises(BadTerm, match=rf"term \({gen}, 0, 0, 1\): "
                                              rf"generator {gen} out"):
                verify_witness(subset, ((gen, 0, 0),))
        assert isinstance(BadTerm("x"), ValueError)

    @pytest.mark.parametrize("field", range(4),
                             ids=("gen", "dx", "dy", "coeff"))
    @pytest.mark.parametrize("value", (True, False, 1.0, 0.5),
                             ids=("true", "false", "float", "half"))
    def test_non_int_field_is_refused(self, field, value):
        # A bool is an int subclass and 1.0 == 1, so neither may be read as
        # a number: the text is the one the certificate conversion uses.
        f = unit(Z, 1, 0, 0, 0)
        inst = SemimoduleInstance(Z, 1, (f,), f.translate(1, 0))
        term = [0, 1, 0, 1]
        term[field] = value
        name = ("gen", "dx", "dy", "coeff")[field]
        text = (rf"term \({', '.join(map(str, term))}\): {name} {value!r} "
                rf"is not an int")
        with pytest.raises(BadTerm, match=text):
            verify_witness(inst, (WitnessTerm(0, 1, 0, 1),
                                  WitnessTerm(*term)))
        with pytest.raises(BadTerm, match=text):
            eval_member_witness(inst, (tuple(term),))
        if field == 3:
            return
        ring = Ring(2)
        g = unit(ring, 1, 0, 0, 0)
        subset = SemimoduleInstance(ring, 1, (g,), g.translate(1, 0),
                                    mode="subset-sum")
        pick = tuple(term[:3])
        text = (rf"term \({', '.join(map(str, pick))}, 1\): {name} "
                rf"{value!r} is not an int")
        with pytest.raises(BadTerm, match=text):
            verify_witness(subset, (pick,))
        # Read as ints, the two picks may repeat the translation (1, 0).
        with pytest.raises(BadTerm, match=text):
            eval_subset_witness(subset, ((0, 1, 0), pick))

    def test_negative_coefficient_is_refused(self):
        f = unit(Z, 1, 0, 0, 0)
        # -f is not a nonnegative combination of f, whatever the witness.
        inst = SemimoduleInstance(Z, 1, (f,), f.scale(-1))
        with pytest.raises(BadTerm, match=r"term \(0, 0, 0, -1\): negative "
                                          r"coefficient"):
            verify_witness(inst, (WitnessTerm(0, 0, 0, -1),))
        zero = SemimoduleInstance(Z, 1, (f,), zero_element(Z, 1))
        assert verify_witness(zero, (WitnessTerm(0, 0, 0, 0),))
        sub = make_submonoid_instance(inst)
        with pytest.raises(BadTerm, match=r"term \(0, 2, 1, -1\): negative "
                                          r"coefficient"):
            witness_to_submonoid_certificate((WitnessTerm(0, 2, 1, -1),), sub)

    @pytest.mark.parametrize("ring", [Z, Ring(2), Ring(3), Ring(4)],
                             ids=lambda ring: ring.name)
    def test_sum_equals_fold_of_plus(self, ring):
        # One accumulator, reduced once, gives the fold of one `plus` per
        # term, also where the terms cancel at some keys or at all of them.
        rng = random.Random(f"witness-sum:{ring.name}")
        g = ModuleElement(ring, 2, {(0, 0, 0): 1, (1, 0, 1): -1})
        gens = (g, -g, ModuleElement(ring, 2, {(0, 0, 0): -1, (0, 1, 0): 2}),
                zero_element(ring, 2))
        inst = SemimoduleInstance(ring, 2, gens, zero_element(ring, 2))
        zeros = partly = 0
        for _ in range(300):
            terms = [WitnessTerm(rng.randrange(len(gens)), rng.randint(-2, 2),
                                 rng.randint(-2, 2), rng.randint(0, 3))
                     for _ in range(rng.choice((0, rng.randint(1, 8))))]
            for _ in range(rng.randint(1, 3)):  # g and -g at one shift
                dx, dy, coeff = (rng.randint(-2, 2), rng.randint(-2, 2),
                                 rng.randint(1, 3))
                terms += [WitnessTerm(0, dx, dy, coeff),
                          WitnessTerm(1, dx, dy, coeff)]
            if ring.modulus is not None:  # n copies of any generator
                terms += [WitnessTerm(2, 1, 0, 1)] * ring.modulus
            rng.shuffle(terms)
            fold = zero_element(ring, 2)
            for gen, dx, dy, coeff in terms:
                fold = fold.plus(gens[gen], coeff, dx, dy)
            total = eval_member_witness(inst, terms)
            assert total == fold and total._entries == fold._entries
            zeros += total.is_zero()
            partly += not total.is_zero() and any(
                t.gen < 2 and t.coeff for t in terms)
        assert zeros >= 30 and partly >= 30


# ---------------------------------------------------------------------------
# bounded searches: small hand-built instances


class TestSearchToyInstances:
    def test_single_generator_scaled_translate(self):
        g = ModuleElement(Z, 1, {(0, 0, 0): 1, (1, 0, 0): -1})
        inst = SemimoduleInstance(Z, 1, (g,), g.translate(2, 0).scale(3))
        witness = member_bounded(inst, (0, 0, 3, 0), max_coeff=3)
        assert witness == (WitnessTerm(0, 2, 0, 3),)
        assert verify_witness(inst, witness)

    def test_zero_target_gives_empty_witness(self):
        g = unit(Z, 1, 0, 0, 0)
        inst = SemimoduleInstance(Z, 1, (g,), zero_element(Z, 1))
        assert member_bounded(inst, (0, 0, 1, 1)) == ()
        ring = Ring(2)
        sub = SemimoduleInstance(ring, 1, (unit(ring, 1, 0, 0, 0),),
                                 zero_element(ring, 1), mode="subset-sum")
        assert subset_sum_bounded(sub, (0, 0, 1, 1)) == ()

    def test_telescoping_pair(self):
        g = ModuleElement(Z, 1, {(0, 0, 0): 1, (1, 0, 0): -1})
        target = g + g.translate(1, 0)
        inst = SemimoduleInstance(Z, 1, (g,), target)
        witness = member_bounded(inst, (0, 0, 2, 0))
        assert witness == (WitnessTerm(0, 0, 0, 1), WitnessTerm(0, 1, 0, 1))
        assert verify_witness(inst, witness)

    def test_two_translate_subset_sum(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        inst = SemimoduleInstance(ring, 1, (f,), f + f.translate(1, 0),
                                  mode="subset-sum")
        assert subset_sum_bounded(inst, (0, 0, 1, 0)) == ((0, 0, 0), (0, 1, 0))

    def test_doubled_value_needs_a_coefficient(self):
        # A value of 2 at one point is reachable with coefficient 2 but not
        # by distinct translates contributing 1 each.
        ring = Ring(4)
        g = unit(ring, 1, 0, 0, 0)
        member = SemimoduleInstance(ring, 1, (g,), g.scale(2))
        assert member_bounded(member, (0, 0, 1, 1)) == (WitnessTerm(0, 0, 0, 2),)
        subset = SemimoduleInstance(ring, 1, (g,), g.scale(2),
                                    mode="subset-sum")
        assert subset_sum_bounded(subset, (-2, -2, 2, 2)) is None

    def test_composite_modulus_unreachable_value(self):
        ring = Ring(4)
        g = unit(ring, 1, 0, 0, 0, value=2)
        inst = SemimoduleInstance(ring, 1, (g,), unit(ring, 1, 0, 0, 0))
        assert member_bounded(inst, (-1, -1, 1, 1)) is None

    def test_coefficient_cap_respected(self):
        g = unit(Z, 1, 0, 0, 0)
        inst = SemimoduleInstance(Z, 1, (g,), g.scale(2))
        assert member_bounded(inst, (0, 0, 0, 0), max_coeff=1) is None
        assert member_bounded(inst, (0, 0, 0, 0), max_coeff=2) == \
            (WitnessTerm(0, 0, 0, 2),)
        # A cap below 1 allows no term at all; it is refused rather than
        # reported as an empty search.
        for cap in (0, -1):
            with pytest.raises(ValueError, match="max_coeff must be at least 1"):
                member_bounded(inst, (0, 0, 0, 0), max_coeff=cap)

    def test_window_respected(self):
        g = unit(Z, 1, 0, 0, 0)
        inst = SemimoduleInstance(Z, 1, (g,), g.translate(5, 0))
        assert member_bounded(inst, (0, 0, 3, 3)) is None
        assert member_bounded(inst, (0, 0, 5, 0)) == (WitnessTerm(0, 5, 0, 1),)

    def test_fuel_exhaustion_returns_none(self):
        g = unit(Z, 1, 0, 0, 0)
        inst = SemimoduleInstance(Z, 1, (g,), g.translate(1, 1))
        assert member_bounded(inst, (0, 0, 1, 1), fuel=0) is None

    def test_mode_checked_by_both_searches(self):
        g = unit(Z, 1, 0, 0, 0)
        member = SemimoduleInstance(Z, 1, (g,), g)
        subset = SemimoduleInstance(Z, 1, (g,), g, mode="subset-sum")
        with pytest.raises(ValueError, match="must be 'semimodule'"):
            member_bounded(subset, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="must be 'subset-sum'"):
            subset_sum_bounded(member, (0, 0, 0, 0))

    def test_subset_sum_refuses_integer_ring(self):
        g = unit(Z, 1, 0, 0, 0)
        inst = SemimoduleInstance(Z, 1, (g,), g, mode="subset-sum")
        with pytest.raises(RingMismatch, match="modular ring"):
            subset_sum_bounded(inst, (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# bounded searches: instances built from accepting runs


class TestSearchTilingInstances:
    def test_integer_search_solves_short_run(self, artifacts):
        pipe = artifacts.pipeline("mini-raw", "a")
        inst = tiling_to_instance(pipe.ts, pipe.f0)
        witness = member_bounded(inst, default_window(pipe.cert))
        assert witness is not None and verify_witness(inst, witness)
        assert all(t.coeff == 1 for t in witness)
        picks = tuple((t.gen, t.dx, t.dy) for t in witness)
        assert picks == certificate_to_witness(pipe.cert, pipe.ts)

    def test_integer_search_solves_full_eraser_run(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "a")
        inst = tiling_to_instance(pipe.ts, pipe.f0)
        witness = member_bounded(inst, default_window(pipe.cert))
        assert witness is not None and verify_witness(inst, witness)
        assert len(witness) == len(pipe.cert.placements)

    @pytest.mark.parametrize("modulus", [2, 3])
    @pytest.mark.parametrize("name,word", [
        ("mini-raw", "a"),
        ("unary-eraser", "a"),
        ("two-symbol-eraser", "a"),
    ])
    def test_prime_elimination_finds_witnesses(self, artifacts, modulus,
                                               name, word):
        pipe = artifacts.pipeline(name, word)
        ring = Ring(modulus)
        f0 = initial_map(pipe.tm, word, ring)
        inst = tiling_to_instance(pipe.ts, f0)
        witness = member_bounded(inst, default_window(pipe.cert))
        assert witness is not None and verify_witness(inst, witness)

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_prime_elimination_rejects_walker(self, artifacts, modulus):
        ring = Ring(modulus)
        tm = artifacts.machines["right-walker"]
        f0 = initial_map(tm, "a", ring)
        inst = tiling_to_instance(artifacts.tiling("right-walker"), f0)
        # Over a prime modulus the search is exact: None is a proof that no
        # witness exists inside the window.
        assert member_bounded(inst, (0, 0, 6, 8)) is None

    def test_prime_elimination_ignores_budget(self, artifacts):
        pipe = artifacts.pipeline("mini-raw", "a")
        f0 = initial_map(pipe.tm, "a", Ring(2))
        inst = tiling_to_instance(pipe.ts, f0)
        window = default_window(pipe.cert)
        witness = member_bounded(inst, window, fuel=1)
        assert witness is not None and verify_witness(inst, witness)

    def test_integer_search_respects_budget(self, artifacts):
        pipe = artifacts.pipeline("mini-raw", "a")
        inst = tiling_to_instance(pipe.ts, pipe.f0)
        assert member_bounded(inst, default_window(pipe.cert), fuel=1) is None


# ---------------------------------------------------------------------------
# bounded searches: visit order and completeness


class TestSearchVisitOrder:
    """The node at which each search first meets a witness pins its visit
    order: the smallest budget that finds one is exactly that node count,
    and one node less finds nothing."""

    @pytest.mark.parametrize("name,word,modulus,threshold", [
        ("mini-raw", "a", None, 375),
        ("unary-eraser", "aa", 2, 57),
        ("unary-eraser", "aaa", 3, 92),
        ("two-symbol-eraser", "ab", 2, 145),
    ])
    def test_smallest_budget_that_finds_a_witness(self, artifacts, name, word,
                                                  modulus, threshold):
        pipe = artifacts.pipeline(name, word)
        window = default_window(pipe.cert)
        if modulus is None:
            inst = tiling_to_instance(pipe.ts, pipe.f0)

            def search(fuel):
                return member_bounded(inst, window, 1, fuel)
        else:
            f0 = initial_map(pipe.tm, word, Ring(modulus))
            inst = tiling_to_subset_sum(pipe.ts, f0)

            def search(fuel):
                return subset_sum_bounded(inst, window, fuel)
        witness = search(threshold)
        assert witness is not None and verify_witness(inst, witness)
        assert search(threshold - 1) is None

    def test_candidates_tried_row_by_row(self):
        # Candidates for one coordinate are tried by generator, then dy,
        # then dx; trying them column by column needs three more nodes.
        ring = Ring(4)
        g = ModuleElement(ring, 1, {(1, 0, 0): 2, (0, 1, 0): 1})
        target = ModuleElement(ring, 1, {(1, 1, 0): 2, (1, 2, 0): 2})
        inst = SemimoduleInstance(ring, 1, (g,), target)
        assert member_bounded(inst, (0, 0, 1, 1), fuel=5) == \
            (WitnessTerm(0, 1, 0, 2), WitnessTerm(0, 1, 1, 2))
        assert member_bounded(inst, (0, 0, 1, 1), fuel=4) is None


def _random_instance(rng: random.Random, ring: Ring, mode: str):
    """A rank 1-2 instance with one or two small generators and a target
    that is either a random combination of windowed translates or noise."""
    rank = rng.randint(1, 2)
    modulus = ring.modulus

    def value():
        if modulus is None:
            return rng.choice((-2, -1, 1, 2))
        return rng.randint(1, modulus - 1)

    def element(size):
        return ModuleElement(ring, rank, {
            (rng.randint(0, 1), rng.randint(0, 1), rng.randrange(rank)): value()
            for _ in range(size)})

    gens = tuple(element(rng.randint(1, 3)) for _ in range(rng.randint(1, 2)))
    window = rng.choice(((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                         (0, 0, 2, 0), (-1, 0, 1, 0), (0, -1, 0, 1)))
    if rng.random() < 0.5:
        target = element(rng.randint(1, 4))
    else:
        x0, y0, x1, y1 = window
        target = zero_element(ring, rank)
        for _ in range(rng.randint(1, 3)):
            target = target + gens[rng.randrange(len(gens))].translate(
                rng.randint(x0, x1), rng.randint(y0, y1)).scale(
                    1 if mode == "subset-sum" else rng.randint(1, 2))
    return SemimoduleInstance(ring, rank, gens, target, mode), window


def _shifts(window):
    x0, y0, x1, y1 = window
    return [(sx, sy) for sy in range(y0, y1 + 1) for sx in range(x0, x1 + 1)]


def _brute_member(inst, window, max_coeff: int) -> bool:
    """Try every coefficient of every (generator, translation) pair."""
    top = max_coeff if inst.ring.modulus is None else inst.ring.modulus - 1
    options = [[gen.translate(sx, sy).scale(c) for c in range(top + 1)]
               for gen in inst.generators for sx, sy in _shifts(window)]
    zero = zero_element(inst.ring, inst.rank)
    return any(sum(choice, zero) == inst.target
               for choice in itertools.product(*options))


def _brute_subset(inst, window) -> bool:
    """Try every choice of at most one generator per translation."""
    zero = zero_element(inst.ring, inst.rank)
    options = [[zero] + [gen.translate(sx, sy) for gen in inst.generators]
               for sx, sy in _shifts(window)]
    return any(sum(choice, zero) == inst.target
               for choice in itertools.product(*options))


class TestSearchBruteForce:
    """With ample fuel the search is complete: it finds a witness exactly
    when trying every assignment does."""

    def test_member_search_matches_brute_force(self):
        rng = random.Random(20261018)
        found = 0
        for _ in range(100):
            ring = rng.choice((Z, Ring(4)))
            max_coeff = rng.randint(1, 2)
            inst, window = _random_instance(rng, ring, "semimodule")
            witness = member_bounded(inst, window, max_coeff)
            assert (witness is not None) == _brute_member(inst, window,
                                                          max_coeff)
            if witness is not None:
                found += 1
                assert verify_witness(inst, witness)
                x0, y0, x1, y1 = window
                assert all(x0 <= t.dx <= x1 and y0 <= t.dy <= y1
                           and 1 <= t.coeff for t in witness)
                if ring.modulus is None:
                    assert all(t.coeff <= max_coeff for t in witness)
        assert 20 <= found <= 80

    def test_subset_search_matches_brute_force(self):
        rng = random.Random(20261019)
        found = 0
        for _ in range(150):
            ring = rng.choice((Ring(2), Ring(3), Ring(4)))
            inst, window = _random_instance(rng, ring, "subset-sum")
            witness = subset_sum_bounded(inst, window)
            assert (witness is not None) == _brute_subset(inst, window)
            if witness is not None:
                found += 1
                assert verify_witness(inst, witness)
                x0, y0, x1, y1 = window
                assert all(x0 <= dx <= x1 and y0 <= dy <= y1
                           for _, dx, dy in witness)
        assert 30 <= found <= 120


# ---------------------------------------------------------------------------
# reference equivalence: the straightforward forms of both search kernels


def reference_member_mod_prime(instance, window):
    """Windowed elimination over Z/p kept in fully reduced form: every new
    pivot is eliminated from every earlier pivot row, so with the free
    variables zero each pivot variable takes its row's right-hand side."""
    p = instance.ring.modulus
    variables, columns = [], []
    x0, y0, x1, y1 = window
    for gi, gen in enumerate(instance.generators):
        items = gen.items()
        if not items:
            continue
        for sy in range(y0, y1 + 1):
            for sx in range(x0, x1 + 1):
                variables.append((gi, sx, sy))
                columns.append([((ex + sx, ey + sy, eidx), ev)
                                for (ex, ey, eidx), ev in items])
    rows = {}
    for vi, column in enumerate(columns):
        for key, value in column:
            rows.setdefault(key, {})[vi] = value % p

    def subtract(row, prow, var, factor):
        for c, v in prow.items():
            if c != var:
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)

    keys = set(rows) | set(instance.target.support())
    pivots = {}
    for key in sorted(keys, key=lambda k: (k[1], k[0], k[2])):
        row = dict(rows.get(key, {}))
        rhs = instance.target.value(*key) % p
        for var in [v for v in sorted(row) if v in pivots]:
            factor = row.pop(var)
            prow, prhs = pivots[var]
            subtract(row, prow, var, factor)
            rhs = (rhs - factor * prhs) % p
        if not row:
            if rhs:
                return None
            continue
        var = min(row)
        inv = pow(row[var], -1, p)
        prow = {c: (v * inv) % p for c, v in row.items()}
        prhs = (rhs * inv) % p
        for other, (orow, orhs) in list(pivots.items()):
            factor = orow.pop(var, 0)
            if not factor:
                continue
            subtract(orow, prow, var, factor)
            pivots[other] = (orow, (orhs - factor * prhs) % p)
        pivots[var] = (prow, prhs)
    terms = [WitnessTerm(*variables[var], prhs)
             for var, (_, prhs) in pivots.items() if prhs]
    return tuple(sorted(terms, key=lambda t: (t.dy, t.dx, t.gen)))


class _ReferenceOutOfFuel(Exception):
    pass


def reference_branch_search(instance, window, values, distinct, fuel):
    """Recursive branching search that lists and sorts the candidates of
    every residual coordinate at every node.  Returns the witness (or None)
    and the number of nodes expanded, which is the smallest budget that
    finds the witness."""
    x0, y0, x1, y1 = window
    gens = instance.generators
    by_idx = {}
    for gi, gen in enumerate(gens):
        for (ex, ey, eidx), ev in gen.items():
            by_idx.setdefault(eidx, []).append((gi, ex, ey, ev))
    signed = instance.ring.modulus is None
    used, decided = set(), set()
    nodes = 0

    def candidates(key, residual):
        kx, ky, kidx = key
        found = [(gi, kx - ex, ky - ey, ev)
                 for gi, ex, ey, ev in by_idx.get(kidx, ())
                 if x0 <= kx - ex <= x1 and y0 <= ky - ey <= y1
                 and (gi, kx - ex, ky - ey) not in decided
                 and not (distinct and (kx - ex, ky - ey) in used)]
        if signed:
            positive = residual.value(kx, ky, kidx) > 0
            found.sort(key=lambda c: ((c[3] > 0) != positive,
                                      c[0], c[2], c[1]))
        else:
            found.sort(key=lambda c: (c[0], c[2], c[1]))
        return found

    def pick_key(residual):
        best = None
        for key in residual.support():
            options = candidates(key, residual)
            if not options:
                return options
            if best is None or len(options) < len(best):
                best = options
        return best

    def dfs(residual):
        nonlocal nodes
        nodes += 1
        if nodes > fuel:
            raise _ReferenceOutOfFuel
        if residual.is_zero():
            return []
        excluded = []
        for gi, sx, sy, _ in pick_key(residual):
            decided.add((gi, sx, sy))
            excluded.append((gi, sx, sy))
            if distinct:
                used.add((sx, sy))
            for coeff in values:
                rest = dfs(residual.plus(gens[gi], -coeff, sx, sy))
                if rest is not None:
                    return [WitnessTerm(gi, sx, sy, coeff)] + rest
            if distinct:
                used.remove((sx, sy))
        decided.difference_update(excluded)
        return None

    try:
        found = dfs(instance.target)
    except _ReferenceOutOfFuel:
        return None, nodes
    if found is not None:
        found = tuple(sorted(found, key=lambda t: (t.dy, t.dx, t.gen)))
    return found, nodes


def _random_system(rng: random.Random, ring: Ring, mode: str,
                   max_coeff: int = 1, count: tuple[int, int] = (2, 4)):
    """``count`` generators (two to four by default) of up to four entries
    each, in a window of up to five by four translations.  The target is
    noise, or a combination of two to six windowed translates at distinct
    translations."""
    rank = rng.randint(1, 2)
    modulus = ring.modulus

    def value():
        if modulus is None:
            return rng.choice((-2, -1, 1, 2))
        return rng.randint(1, modulus - 1)

    def element(size):
        return ModuleElement(ring, rank, {
            (rng.randint(0, 2), rng.randint(0, 2), rng.randrange(rank)): value()
            for _ in range(size)})

    gens = tuple(element(rng.randint(1, 4))
                 for _ in range(rng.randint(*count)))
    window = (rng.randint(-1, 0), rng.randint(-1, 0),
              rng.randint(1, 3), rng.randint(0, 2))
    if rng.random() < 0.3:
        target = element(rng.randint(1, 6))
    else:
        top = 1 if mode == "subset-sum" else (
            max_coeff if modulus is None else modulus - 1)
        shifts = _shifts(window)
        target = zero_element(ring, rank)
        for sx, sy in rng.sample(shifts, rng.randint(2, min(6, len(shifts)))):
            target = target.plus(gens[rng.randrange(len(gens))],
                                 rng.randint(1, top), sx, sy)
    return SemimoduleInstance(ring, rank, gens, target, mode), window


class TestReferenceEquivalence:
    """Both search kernels give the reference's answer term for term, and
    the branching search expands exactly the reference's nodes."""

    def test_elimination_matches_reference(self):
        rng = random.Random(20261020)
        found = refused = 0
        for _ in range(300):
            ring = Ring(rng.choice((2, 3, 5)))
            inst, window = _random_system(rng, ring, "semimodule")
            expected = reference_member_mod_prime(inst, window)
            assert member_bounded(inst, window) == expected
            if expected is None:
                refused += 1
            else:
                found += 1
                assert verify_witness(inst, expected)
        assert found >= 60 and refused >= 60

    @pytest.mark.parametrize("ring,mode,max_coeff", [
        (Z, "semimodule", 1),
        (Z, "semimodule", 2),
        (Ring(4), "semimodule", 1),
        (Ring(2), "subset-sum", 1),
        (Ring(3), "subset-sum", 1),
        (Ring(4), "subset-sum", 1),
    ])
    def test_branching_matches_reference(self, ring, mode, max_coeff):
        rng = random.Random(f"branching:{ring.name}:{mode}:{max_coeff}")
        if mode == "subset-sum":
            values, distinct = (1,), True

            def search(inst, window, fuel):
                found = subset_sum_bounded(inst, window, fuel)
                if found is None:
                    return None
                return tuple(WitnessTerm(*pick, 1) for pick in found)
        else:
            top = max_coeff if ring.modulus is None else ring.modulus - 1
            values, distinct = tuple(range(1, top + 1)), False

            def search(inst, window, fuel):
                return member_bounded(inst, window, max_coeff, fuel)
        found = deep = 0
        for _ in range(150):
            inst, window = _random_system(rng, ring, mode, max_coeff)
            expected, nodes = reference_branch_search(
                inst, window, values, distinct, 2_000)
            if expected is None:
                assert search(inst, window, 2_000) is None
                continue
            found += 1
            deep += nodes >= 10
            assert search(inst, window, nodes) == expected
            assert search(inst, window, nodes - 1) is None
        assert found >= 80 and deep >= 20

    @pytest.mark.parametrize("ring,mode,systems", [
        (Ring(2), "subset-sum", 20),
        (Ring(3), "subset-sum", 20),
        (Ring(4), "subset-sum", 20),
        (Ring(4), "semimodule", 8),
    ])
    def test_wide_generator_masks_match_reference(self, ring, mode, systems):
        # 70 to 100 generators: the search's per-translation generator
        # masks span several 30-bit digits.  Over Z/4 a pick can also
        # cancel a key the residual does not hold (2 + 2 = 0).
        rng = random.Random(f"wide:{ring.name}:{mode}")
        distinct = mode == "subset-sum"
        values = (1,) if distinct else tuple(range(1, ring.modulus))
        found = high = 0
        for _ in range(systems):
            inst, window = _random_system(rng, ring, mode, count=(70, 100))
            expected, nodes = reference_branch_search(
                inst, window, values, distinct, 1_000)
            if distinct:
                got = subset_sum_bounded(inst, window, nodes)
                short = subset_sum_bounded(inst, window, nodes - 1)
                if got is not None:
                    got = tuple(WitnessTerm(*pick, 1) for pick in got)
            else:
                got = member_bounded(inst, window, 1, nodes)
                short = member_bounded(inst, window, 1, nodes - 1)
            assert got == expected
            if expected is None:
                continue
            assert short is None
            found += 1
            high += any(t.gen >= 60 for t in expected)
        assert found >= systems // 4 and high >= 1


class TestSearchBounds:
    """Both searches refuse malformed bounds before searching, and a wide
    window costs nothing per translation."""

    @staticmethod
    def _instances():
        ring = Ring(4)
        g = unit(ring, 1, 0, 0, 0)
        return (SemimoduleInstance(ring, 1, (g,), g),
                SemimoduleInstance(ring, 1, (g,), g, mode="subset-sum"))

    @pytest.mark.parametrize("window,text", [
        ((0.0, 0, 1, 0), "'x0' must be an integer, not float"),
        ((True, 0, 1, 0), "'x0' must be an integer, not bool"),
        ((0, 0, 1, "1"), "'y1' must be an integer, not str"),
        ((0, 0, 1), r"'window' must be four integers, not \(0, 0, 1\)"),
        ((0, 0, 1, 0, 0), "'window' must be four integers, not "
                          r"\(0, 0, 1, 0, 0\)"),
        ("0,0,1,0", "'window' must be four integers, not '0,0,1,0'"),
        (None, "'window' must be four integers, not None"),
    ])
    def test_window_that_is_not_four_ints_is_refused(self, window, text):
        member, subset = self._instances()
        with pytest.raises(ValueError, match=text):
            member_bounded(member, window)
        with pytest.raises(ValueError, match=text):
            subset_sum_bounded(subset, window)

    @pytest.mark.parametrize("value", [1.0, 2.5, True, "3", None])
    def test_max_coeff_that_is_not_an_int_is_refused(self, value):
        member, _ = self._instances()
        kind = type(value).__name__
        with pytest.raises(ValueError, match=f"'max_coeff' must be an "
                                             f"integer, not {kind}"):
            member_bounded(member, (0, 0, 1, 0), max_coeff=value)

    @pytest.mark.parametrize("value", [2.5, 10.0, True, "3", None])
    def test_fuel_that_is_not_an_int_is_refused(self, value):
        member, subset = self._instances()
        text = f"'fuel' must be an integer, not {type(value).__name__}"
        with pytest.raises(ValueError, match=text):
            member_bounded(member, (0, 0, 1, 0), fuel=value)
        with pytest.raises(ValueError, match=text):
            subset_sum_bounded(subset, (0, 0, 1, 0), fuel=value)

    def test_refused_even_where_elimination_ignores_them(self):
        # Over a prime modulus the cap and the budget are unused, but a
        # malformed one is still refused rather than silently ignored.
        ring = Ring(2)
        g = unit(ring, 1, 0, 0, 0)
        inst = SemimoduleInstance(ring, 1, (g,), g)
        with pytest.raises(ValueError, match="'fuel' must be an integer"):
            member_bounded(inst, (0, 0, 0, 0), fuel=1.5)
        with pytest.raises(ValueError, match="'x1' must be an integer"):
            member_bounded(inst, (0, 0, False, 0))

    def test_huge_window_allocates_nothing_per_translation(self):
        # 2,000,001 x 2,000,001 translations: anything sized to the window
        # would need about 4 * 10**12 slots.
        window = (-10**6, -10**6, 10**6, 10**6)
        far = ((10**6 - 3, -7), (-10**6, 10**6))  # in witness order
        for ring, mode in ((Z, "semimodule"), (Ring(4), "subset-sum")):
            g = ModuleElement(ring, 2, {(0, 0, 0): 1, (1, 0, 1): 1})
            target = zero_element(ring, 2)
            for sx, sy in far:
                target = target.plus(g, 1, sx, sy)
            inst = SemimoduleInstance(ring, 2, (g,), target, mode)
            tracemalloc.start()
            try:
                if mode == "subset-sum":
                    witness = subset_sum_bounded(inst, window)
                    expected = tuple((0, sx, sy) for sx, sy in far)
                else:
                    witness = member_bounded(inst, window)
                    expected = tuple(WitnessTerm(0, sx, sy, 1)
                                     for sx, sy in far)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert witness == expected
            assert verify_witness(inst, witness)
            assert peak < 1_000_000


class TestPackedElimination:
    """Over Z/2 and Z/3 the elimination runs on bit-packed rows; it gives
    the reference's answer term for term on systems of every size and on
    the edge cases of the variable numbering."""

    @pytest.mark.parametrize("modulus", [2, 3])
    @pytest.mark.parametrize("name,word", [
        ("unary-eraser", "a"),
        ("unary-eraser", "aa"),
        ("unary-eraser", "aaa"),
        ("unary-eraser", "aaaa"),
        ("two-symbol-eraser", "ab"),
    ])
    def test_tiling_systems_match_reference(self, artifacts, name, word,
                                            modulus):
        # 1,248 to 4,368 variables: rows span dozens of machine words.
        pipe = artifacts.pipeline(name, word)
        inst = tiling_to_instance(pipe.ts,
                                  initial_map(pipe.tm, word, Ring(modulus)))
        window = default_window(pipe.cert)
        expected = reference_member_mod_prime(inst, window)
        assert expected is not None and verify_witness(inst, expected)
        assert member_bounded(inst, window) == expected

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_walker_refusal_matches_reference(self, artifacts, modulus):
        inst = tiling_to_instance(
            artifacts.tiling("right-walker"),
            initial_map(artifacts.machines["right-walker"], "a",
                        Ring(modulus)))
        assert reference_member_mod_prime(inst, (0, 0, 6, 8)) is None
        assert member_bounded(inst, (0, 0, 6, 8)) is None

    @pytest.mark.parametrize("modulus", [2, 3, 5])
    def test_large_random_windows_match_reference(self, modulus):
        # 14 x 11 translations and two to four generators: 308 to 616
        # variables, more than fit in one machine word.
        ring = Ring(modulus)
        rng = random.Random(f"packed:{modulus}")
        window = (-1, -1, 12, 9)
        shifts = _shifts(window)
        found = refused = 0
        for _ in range(12):
            gens = tuple(ModuleElement(ring, 2, {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randrange(2)):
                    rng.randint(1, modulus - 1)
                for _ in range(rng.randint(1, 5))})
                for _ in range(rng.randint(2, 4)))
            target = zero_element(ring, 2)
            for sx, sy in rng.sample(shifts, rng.randint(5, 40)):
                target = target.plus(gens[rng.randrange(len(gens))],
                                     rng.randint(1, modulus - 1), sx, sy)
            if rng.random() < 0.4:
                target = target.plus(unit(ring, 2, rng.randint(0, 10),
                                          rng.randint(0, 8), 0))
            inst = SemimoduleInstance(ring, 2, gens, target)
            expected = reference_member_mod_prime(inst, window)
            assert member_bounded(inst, window) == expected
            if expected is None:
                refused += 1
            else:
                found += 1
                assert verify_witness(inst, expected)
        assert found >= 3 and refused >= 1

    @pytest.mark.parametrize("modulus", [2, 3, 5])
    def test_target_key_no_generator_reaches(self, modulus):
        ring = Ring(modulus)
        g = ModuleElement(ring, 2, {(0, 0, 0): 1, (1, 0, 0): modulus - 1})
        reachable = g.translate(1, 1)
        window = (0, 0, 3, 3)
        for stray in (unit(ring, 2, 1, 1, 1),     # a coordinate g never has
                      unit(ring, 2, 9, 9, 0),     # a cell out of reach
                      unit(ring, 2, -5, 0, 1)):   # left of every key
            inst = SemimoduleInstance(ring, 2, (g,), reachable + stray)
            assert reference_member_mod_prime(inst, window) is None
            assert member_bounded(inst, window) is None
        inst = SemimoduleInstance(ring, 2, (g,), reachable)
        assert member_bounded(inst, window) == (WitnessTerm(0, 1, 1, 1),)

    @pytest.mark.parametrize("modulus", [2, 3, 5])
    def test_generators_without_entries_are_skipped(self, modulus):
        # Empty generators get no variables, so the others keep their
        # numbers relative to each other and the witness names the
        # generators by their place in the instance.
        ring = Ring(modulus)
        empty = zero_element(ring, 1)
        f = ModuleElement(ring, 1, {(0, 0, 0): 1, (0, 1, 0): 1})
        h = unit(ring, 1, 0, 0, 0)
        target = f.translate(2, 0).plus(h, modulus - 1, 0, 1)
        inst = SemimoduleInstance(ring, 1, (empty, f, empty, h), target)
        window = (0, 0, 2, 2)
        expected = reference_member_mod_prime(inst, window)
        assert expected is not None and verify_witness(inst, expected)
        assert member_bounded(inst, window) == expected
        assert {t.gen for t in expected} <= {1, 3}

    @pytest.mark.parametrize("modulus", [2, 3, 5])
    def test_zero_target_gives_empty_witness(self, modulus):
        ring = Ring(modulus)
        empty = zero_element(ring, 1)
        for gens in ((unit(ring, 1, 0, 0, 0),), (empty,), ()):
            inst = SemimoduleInstance(ring, 1, gens, empty)
            assert member_bounded(inst, (0, 0, 2, 2)) == ()
            nonzero = SemimoduleInstance(ring, 1, gens,
                                         unit(ring, 1, 5, 5, 0))
            assert member_bounded(nonzero, (0, 0, 2, 2)) is None


def test_subset_sum_needs_no_recursion():
    # A witness for unary "a" * 8 has 211 terms, one search level each.
    script = textwrap.dedent("""
        import sys
        from tilechain import (Ring, build_accepting_tiling, compile_tiles,
                               default_window, initial_map, subset_sum_bounded,
                               tiling_to_subset_sum, unary_eraser,
                               verify_witness)
        tm = unary_eraser()
        word = "a" * 8
        cert = build_accepting_tiling(tm, word, 8 * len(word) + 32)
        inst = tiling_to_subset_sum(compile_tiles(tm),
                                    initial_map(tm, word, Ring(2)))
        sys.setrecursionlimit(200)
        witness = subset_sum_bounded(inst, default_window(cert))
        print(len(witness), verify_witness(inst, witness))
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=str(SRC)),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["211", "True"]


# ---------------------------------------------------------------------------
# certificates as witnesses


class TestCertificateWitnesses:
    def test_certificate_reads_as_sorted_picks(self, artifacts):
        pipe = artifacts.pipeline("mini-raw", "a")
        picks = certificate_to_witness(pipe.cert, pipe.ts)
        assert len(picks) == len(pipe.cert.placements)
        assert picks == tuple(sorted(picks, key=lambda p: (p[2], p[1], p[0])))
        positions = [(dx, dy) for _, dx, dy in picks]
        assert len(set(positions)) == len(positions)

    @pytest.mark.parametrize("name,word", [
        ("mini-raw", "a"),
        ("unary-eraser", "a"),
        ("two-symbol-eraser", "a"),
    ])
    def test_certificate_witness_solves_subset_instance(self, artifacts,
                                                        name, word):
        pipe = artifacts.pipeline(name, word)
        picks = certificate_to_witness(pipe.cert, pipe.ts)
        for ring in (Z, Ring(2)):
            f0 = initial_map(pipe.tm, word, ring)
            inst = tiling_to_subset_sum(pipe.ts, f0)
            assert verify_witness(inst, picks)

    def test_round_trip_through_certificate(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "aa")
        picks = certificate_to_witness(pipe.cert, pipe.ts)
        cert = witness_to_certificate(picks, pipe.ts)
        assert certificate_to_witness(cert, pipe.ts) == picks
        assert list(cert.placements) == list(pipe.cert.placements)

    def test_stacked_placements_rejected(self, artifacts):
        ts = artifacts.tiling("unary-eraser")
        tile = ts.tiles[0]
        cert = Certificate((Placement(tile, 1, 1), Placement(tile, 1, 1)),
                           1, 1)
        with pytest.raises(DuplicateShift, match=r"two tiles at \(1, 1\)"):
            certificate_to_witness(cert, ts)

    def test_tile_from_another_system_is_named(self, artifacts):
        ts = artifacts.tiling("unary-eraser")
        other = artifacts.tiling("two-symbol-eraser")
        stranger = next(t for t in other.tiles if t not in ts.tiles)
        cert = Certificate((Placement(ts.tiles[0], 0, 0),
                            Placement(stranger, 1, 0)), 1, 0)
        with pytest.raises(ValueError) as info:
            certificate_to_witness(cert, ts)
        assert str(info.value) == f"tile {stranger} is not in the system"

    def test_bad_picks_refused_as_subset_sums_refuse_them(self, artifacts):
        # Indexing the tiles would read -1 as the last tile and True as
        # tile 1, and two picks at one cell would make a stacked cell.
        ts = artifacts.tiling("unary-eraser")
        f0 = initial_map(artifacts.machines["unary-eraser"], "a", Z)
        inst = tiling_to_subset_sum(ts, f0)
        assert len(ts.tiles) == len(inst.generators) == 52
        cases = [
            ((-1, 0, 0), BadTerm,
             "term (-1, 0, 0, 1): generator -1 out of range"),
            ((52, 0, 0), BadTerm,
             "term (52, 0, 0, 1): generator 52 out of range"),
            ((True, 0, 0), BadTerm,
             "term (True, 0, 0, 1): gen True is not an int"),
            ((0, 1.0, 0), BadTerm, "term (0, 1.0, 0, 1): dx 1.0 is not an int"),
            ((0, 0, 0), DuplicateShift, "translation (0, 0) used twice"),
        ]
        for pick, error, text in cases:
            picks = [(5, 0, 0), pick] if error is DuplicateShift else [pick]
            for check in (lambda: witness_to_certificate(picks, ts),
                          lambda: eval_subset_witness(inst, picks)):
                with pytest.raises(error) as info:
                    check()
                assert str(info.value) == text, pick


class TestTileVectorMemo:
    """The tile vectors of a system are built once per system and ring."""

    def test_equal_systems_share_one_generator_tuple(self, artifacts):
        pipe = artifacts.pipeline("unary-eraser", "aa")
        copy = dataclasses.replace(pipe.ts)
        assert copy == pipe.ts and copy is not pipe.ts
        other_word = initial_map(pipe.tm, "a")
        first = tiling_to_instance(pipe.ts, pipe.f0)
        second = tiling_to_subset_sum(copy, other_word)
        assert second.generators is first.generators
        assert second.target != first.target
        assert second.target == from_edgemap(-other_word, pipe.ts.colors)

    def test_generators_are_the_tile_vectors_per_ring(self, artifacts):
        pipe = artifacts.pipeline("two-symbol-eraser", "ab")
        for ring in (Z, Ring(2), Ring(3)):
            inst = tiling_to_instance(pipe.ts,
                                      initial_map(pipe.tm, "ab", ring))
            assert inst.ring == ring
            assert inst.generators == tuple(
                from_edgemap(tile_eval(tile, ring, pipe.ts.distinguished),
                             pipe.ts.colors)
                for tile in pipe.ts.tiles)
            assert all(g.ring == ring for g in inst.generators)

    def test_another_system_gets_its_own_vectors(self, artifacts):
        unary = artifacts.pipeline("unary-eraser", "a")
        two = artifacts.pipeline("two-symbol-eraser", "a")
        assert tiling_to_instance(unary.ts, unary.f0).generators != \
            tiling_to_instance(two.ts, two.f0).generators


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_element_round_trip(self):
        for ring in (Z, Ring(3)):
            e = ModuleElement(ring, 2, {(0, 0, 0): 1, (2, -1, 1): -2})
            assert element_from_dict(element_to_dict(e)) == e

    def test_element_duplicate_entries_accumulate(self):
        data = {"ring": "Z", "rank": 1,
                "entries": [{"x": 0, "y": 0, "idx": 0, "value": 1},
                            {"x": 0, "y": 0, "idx": 0, "value": 2}]}
        assert element_from_dict(data) == unit(Z, 1, 0, 0, 0, value=3)

    def test_element_strictness(self):
        data = element_to_dict(unit(Z, 1, 0, 0, 0))
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown module element fields"):
            element_from_dict(data)
        bad_entry = {"ring": "Z", "rank": 1,
                     "entries": [{"x": 0, "y": 0, "idx": 0, "value": 1,
                                  "note": "hi"}]}
        with pytest.raises(ValueError, match="unknown module entry fields"):
            element_from_dict(bad_entry)

    @pytest.mark.parametrize("where, field, value, kind", [
        ("module entry", "x", 2.7, "float"),
        ("module entry", "y", True, "bool"),
        ("module entry", "idx", "0", "str"),
        ("module entry", "value", "1", "str"),
        ("module entry", "value", 1.0, "float"),
        ("module element", "rank", "1", "str"),
        ("module element", "rank", 1.0, "float")])
    def test_non_integer_fields_rejected(self, where, field, value, kind):
        data = element_to_dict(unit(Z, 1, 0, 0, 0))
        if where == "module element":
            data[field] = value
        else:
            data["entries"][0][field] = value
        with pytest.raises(ValueError, match=f"{where} field '{field}' must "
                                             f"be an integer, not {kind}"):
            element_from_dict(data)

    def test_instance_round_trip(self, artifacts):
        pipe = artifacts.pipeline("mini-raw", "a")
        for mode in ("semimodule", "subset-sum"):
            inst = tiling_to_instance(pipe.ts, pipe.f0, mode)
            assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_instance_strictness(self, artifacts):
        pipe = artifacts.pipeline("mini-raw", "a")
        data = instance_to_dict(tiling_to_instance(pipe.ts, pipe.f0))
        data["comment"] = "x"
        with pytest.raises(ValueError, match="unknown instance fields"):
            instance_from_dict(data)

    def test_witness_round_trips(self):
        terms = (WitnessTerm(0, 1, 2, 3), WitnessTerm(2, -1, 0, 1))
        assert witness_from_dict(witness_to_dict("semimodule", terms)) == terms
        picks = ((0, 0, 0), (1, 2, 3))
        assert witness_from_dict(witness_to_dict("subset-sum", picks)) == picks

    @pytest.mark.parametrize("value, kind", [
        (True, "bool"), (1.9, "float"), ("1", "str")])
    def test_instance_rank_must_be_an_integer(self, artifacts, value, kind):
        pipe = artifacts.pipeline("mini-raw", "a")
        data = instance_to_dict(tiling_to_instance(pipe.ts, pipe.f0))
        data["rank"] = value
        with pytest.raises(ValueError, match=f"instance field 'rank' must be "
                                             f"an integer, not {kind}"):
            instance_from_dict(data)

    @pytest.mark.parametrize("mode, field, value, kind", [
        ("semimodule", "coeff", True, "bool"),
        ("semimodule", "dx", 2.5, "float"),
        ("semimodule", "gen", "1", "str"),
        ("subset-sum", "dy", True, "bool"),
        ("subset-sum", "dx", 2.5, "float"),
        ("subset-sum", "gen", "1", "str")])
    def test_witness_values_must_be_integers(self, mode, field, value, kind):
        witness = ((WitnessTerm(0, 1, 2, 3),) if mode == "semimodule"
                   else ((0, 1, 2),))
        data = witness_to_dict(mode, witness)
        rows = data["terms" if mode == "semimodule" else "picks"]
        rows[0][field] = value
        with pytest.raises(ValueError, match=f"witness entry field '{field}' "
                                             f"must be an integer, "
                                             f"not {kind}"):
            witness_from_dict(data)

    def test_witness_strictness(self):
        data = witness_to_dict("subset-sum", ((0, 1, 2),))
        data["comment"] = "x"
        with pytest.raises(ValueError,
                           match=r"unknown witness fields: \['comment'\]"):
            witness_from_dict(data)
        data = witness_to_dict("semimodule", (WitnessTerm(0, 1, 2, 3),))
        data["terms"][0]["note"] = 1
        with pytest.raises(ValueError,
                           match=r"unknown witness entry fields: \['note'\]"):
            witness_from_dict(data)
        # The other mode's rows are refused, not ignored.
        data = witness_to_dict("subset-sum", ((0, 1, 2),))
        data["terms"] = []
        with pytest.raises(ValueError,
                           match=r"unknown witness fields: \['terms'\]"):
            witness_from_dict(data)

    def test_witness_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            witness_to_dict("exact", ())
        with pytest.raises(ValueError, match="unknown mode"):
            witness_from_dict({"mode": "exact"})
