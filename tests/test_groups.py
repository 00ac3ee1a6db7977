"""Tests for the ambient groups: lamp-and-position elements over the grid,
rank-2 flow elements, module flattening into words, and submonoid
membership instances."""

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
    basis_change,
    basis_change_inv,
    cell_flow,
    cells_to_flow,
    cells_to_word,
    embed_module,
    flow_boundary,
    flow_decompose,
    flow_to_word,
    is_circulation,
    make_submonoid_instance,
    metabelian_bindings,
    metabelian_eval,
    metabelian_identity,
    module_to_word,
    pow_tokens,
    submonoid_from_dict,
    submonoid_to_dict,
    translate_flow,
    unembed_module,
    verify_submonoid_certificate,
    witness_to_submonoid_certificate,
    word_from_tokens,
    wreath_bindings,
    wreath_eval,
    wreath_identity,
    wreath_lamp,
)
from tilechain.modules import (
    ModuleElement,
    SemimoduleInstance,
    WitnessTerm,
    member_bounded,
    tiling_to_instance,
    unit,
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


# ---------------------------------------------------------------------------
# token helpers


class TestTokens:
    def test_positive_power(self):
        assert pow_tokens("x", 3) == ["x", "x", "x"]

    def test_negative_power_swaps_case(self):
        assert pow_tokens("x", -2) == ["X", "X"]
        assert pow_tokens("G", -1) == ["g"]

    def test_zero_power(self):
        assert pow_tokens("y", 0) == []

    def test_join(self):
        assert word_from_tokens(["x", "g", "X"]) == "x g X"
        assert word_from_tokens([]) == ""


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
            bindings = dict(wreath_bindings(ring), h=many_lamps,
                            H=many_lamps.inv(), m=jump, M=jump.inv(),
                            q=mixed, Q=mixed.inv())
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
        bindings = dict(metabelian_bindings(), c=cell, h=hook, H=hook.inv(),
                        s=stride, S=stride.inv(), k=skew, K=skew.inv())
        letters = list(bindings)
        for _ in range(80):
            word = run_word(rng, letters, max_run=12)
            expected = reduce(lambda acc, t: acc * bindings[t],
                              word.split(), metabelian_identity())
            assert metabelian_eval(word, bindings) == expected


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


# ---------------------------------------------------------------------------
# rank-2 flow elements


class TestMetabelianElements:
    def test_immutable(self):
        with pytest.raises(AttributeError):
            metabelian_identity().ab = (1, 0)

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
                              word.split(), metabelian_identity())
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


class TestFlows:
    def test_boundary_of_single_edges(self):
        assert flow_boundary({(2, 3, "H"): 4}) == {(2, 3): -4, (3, 3): 4}
        assert flow_boundary({(2, 3, "V"): 1}) == {(2, 3): -1, (2, 4): 1}

    def test_cell_flow_is_a_circulation(self):
        assert is_circulation(cell_flow(5, -2, 3))
        assert not is_circulation({(0, 0, "H"): 1})

    def test_translate_flow(self):
        assert translate_flow(cell_flow(0, 0), 2, 1) == cell_flow(2, 1)

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
            word = flow_to_word(flow)
            assert metabelian_eval(word) == MetabelianElement((0, 0), flow)

    def test_empty_flow_gives_empty_word(self):
        assert flow_to_word({}) == ""
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


class TestBasisChange:
    def test_affine_definition(self):
        assert basis_change([5, 7, 2]) == (3, 5, 2)
        assert basis_change_inv([3, 5, 2]) == (5, 7, 2)
        assert basis_change([]) == ()
        assert basis_change_inv([]) == ()

    def test_bijection(self):
        rng = random.Random(12)
        for _ in range(200):
            m = rng.choice([1, 2, 3, 5])
            vec = tuple(rng.randint(-50, 50) for _ in range(m))
            assert basis_change_inv(basis_change(vec)) == vec
            assert basis_change(basis_change_inv(vec)) == vec


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


class TestSubmonoidSerialization:
    def test_round_trip(self):
        for flavor in (WREATH, METABELIAN):
            inst = make_submonoid_instance(toy_instance(), flavor)
            assert submonoid_from_dict(submonoid_to_dict(inst)) == inst

    def test_strictness(self):
        data = submonoid_to_dict(make_submonoid_instance(toy_instance()))
        data["note"] = "x"
        with pytest.raises(ValueError, match="unexpected fields"):
            submonoid_from_dict(data)
