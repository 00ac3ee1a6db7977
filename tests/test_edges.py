"""Rings, finitely supported edge maps, and tile evaluation."""

import copy
import pickle
import random

import pytest

from tilechain import (C0, EdgeMap, MetabelianElement, ModuleElement,
                       Placement, RankMismatch, Ring, RingMismatch, Tile,
                       TilingSystem, UnknownTile, WreathElement, Z,
                       dump_edgemap, evaluate_placements, letter,
                       load_edgemap, ring_from_name, tile_eval)
from tilechain.edges import SparseVector, edgemap_from_dict, edgemap_to_dict
from tilechain.tiling import TRI_L, TRI_R, head, state

RINGS = (Z, Ring(2), Ring(5))


def random_edgemap(rng: random.Random, ring: Ring) -> EdgeMap:
    entries = []
    for _ in range(rng.randrange(0, 6)):
        key = ((rng.randrange(-3, 4), rng.randrange(-3, 4),
                rng.choice("HV")), rng.choice([letter("a"), state("q"), C0]))
        entries.append((key, rng.randrange(-4, 5)))
    return EdgeMap(ring, entries)


class TestRing:
    def test_integer_ring(self):
        assert Z.modulus is None
        assert Z.name == "Z"
        assert SparseVector(Z, [((0, 0, 0), -7)])._entries == {(0, 0, 0): -7}

    def test_modular_ring(self):
        r = Ring(3)
        assert r.name == "Zmod:3"
        assert [SparseVector(r, [((0, 0, 0), v)])._entries.get((0, 0, 0), 0)
                for v in (-1, 0, 3, 5)] == [2, 0, 0, 2]

    def test_modulus_lower_bound(self):
        with pytest.raises(ValueError):
            Ring(1)
        with pytest.raises(ValueError):
            Ring(0)

    def test_ring_from_name(self):
        assert ring_from_name("Z") == Z
        assert ring_from_name("Zmod:7") == Ring(7)
        with pytest.raises(ValueError):
            ring_from_name("Q")
        with pytest.raises(ValueError):
            ring_from_name("Zmod:x")
        # Only a name the ring writes back reads: no second spelling.
        for name in ("Zmod:x", "Zmod: 3", "Zmod:03", "Zmod:+3", "Zmod:-3",
                     "Zmod:", "Zmod:\u0663", "z", "Z "):
            with pytest.raises(ValueError) as refused:
                ring_from_name(name)
            assert str(refused.value) == f"unknown ring {name!r}"
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            ring_from_name("Zmod:1")


class TestEdgeMap:
    def test_immutable(self):
        f = EdgeMap(Z)
        with pytest.raises(AttributeError):
            f.ring = Ring(2)

    def test_zero_values_dropped(self):
        key = ((0, 0, "H"), letter("a"))
        assert EdgeMap(Z, [(key, 0)]).is_zero()
        assert EdgeMap(Ring(2), [(key, 2)]).is_zero()
        assert EdgeMap(Ring(2), [(key, 3)]).value((0, 0, "H"),
                                                  letter("a")) == 1

    def test_duplicate_keys_accumulate(self):
        key = ((1, 2, "V"), state("q"))
        f = EdgeMap(Z, [(key, 2), (key, 3)])
        assert f.value((1, 2, "V"), state("q")) == 5
        assert len(f) == 1

    def test_support_ordering(self):
        f = EdgeMap(Z, [
            (((1, 0, "H"), letter("a")), 1),
            (((0, 0, "V"), letter("a")), 1),
            (((0, 1, "H"), letter("a")), 1),
        ])
        keys = [key for key, _ in f.support()]
        assert [k[0] for k in keys] == [(0, 0, "V"), (1, 0, "H"),
                                        (0, 1, "H")]

    def test_group_laws_randomized(self):
        rng = random.Random(20260823)
        for _ in range(200):
            ring = rng.choice(RINGS)
            a = random_edgemap(rng, ring)
            b = random_edgemap(rng, ring)
            c = random_edgemap(rng, ring)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a + EdgeMap(ring) == a
            assert (a + (-a)).is_zero()

    def test_translate_action_randomized(self):
        rng = random.Random(8231)
        for _ in range(200):
            ring = rng.choice(RINGS)
            a = random_edgemap(rng, ring)
            b = random_edgemap(rng, ring)
            dx, dy = rng.randrange(-5, 6), rng.randrange(-5, 6)
            ex, ey = rng.randrange(-5, 6), rng.randrange(-5, 6)
            assert a.translate(dx, dy).translate(ex, ey) \
                == a.translate(dx + ex, dy + ey)
            assert (a + b).translate(dx, dy) \
                == a.translate(dx, dy) + b.translate(dx, dy)
            assert a.translate(0, 0) == a

    def test_scale(self):
        key = ((0, 0, "H"), letter("a"))
        f = EdgeMap(Z, [(key, 2)])
        assert f.scale(3).value(*key) == 6
        assert f.scale(0).is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            EdgeMap(Z) + EdgeMap(Ring(2))


class TestTileEval:
    def test_side_signs_and_edges(self):
        tile = Tile(n=letter("n"), e=letter("e"), s=letter("s"),
                    w=letter("w"))
        f = tile_eval(tile)
        assert f.value((0, 1, "H"), letter("n")) == 1
        assert f.value((1, 0, "V"), letter("e")) == 1
        assert f.value((0, 0, "H"), letter("s")) == -1
        assert f.value((0, 0, "V"), letter("w")) == -1
        assert len(f) == 4

    def test_distinguished_sides_contribute_nothing(self):
        tile = Tile(n=C0, e=C0, s=letter("s"), w=C0)
        f = tile_eval(tile)
        assert len(f) == 1 and f.value((0, 0, "H"), letter("s")) == -1
        assert tile_eval(Tile(C0, C0, C0, C0)).is_zero()

    def test_shared_edge_cancels_between_neighbours(self):
        shared = state("q")
        left = Tile(n=C0, e=shared, s=C0, w=C0, name="l")
        right = Tile(n=C0, e=C0, s=C0, w=shared, name="r")
        ts = TilingSystem(colors=(C0, shared), tiles=(left, right))
        total = evaluate_placements(
            ts, [Placement(left, 0, 0), Placement(right, 1, 0)])
        assert total.is_zero()

    def test_repeats_accumulate(self):
        tile = Tile(n=letter("a"), e=C0, s=C0, w=C0, name="t")
        ts = TilingSystem(colors=(C0, letter("a")), tiles=(tile,))
        total = evaluate_placements(ts, [Placement(tile, 0, 0)] * 3)
        assert total.value((0, 1, "H"), letter("a")) == 3

    def test_equal_tile_of_another_object_counts(self):
        # Placements are looked up by identity first; an equal copy of a
        # system tile, as a loader builds, must still count.
        tile = Tile(n=letter("a"), e=C0, s=C0, w=C0, name="t")
        copy_of = Tile(n=letter("a"), e=C0, s=C0, w=C0, name="t")
        assert copy_of == tile and copy_of is not tile
        ts = TilingSystem(colors=(C0, letter("a")), tiles=(tile,))
        total = evaluate_placements(
            ts, [Placement(tile, 0, 0), Placement(copy_of, 0, 0)])
        assert total == tile_eval(tile).scale(2)
        # Z/2 reduces the doubled side to zero.
        assert evaluate_placements(ts, [Placement(copy_of, 0, 0)] * 2,
                                   Ring(2)).is_zero()

    def test_unknown_tile_rejected(self):
        tile = Tile(n=letter("a"), e=C0, s=C0, w=C0)
        ts = TilingSystem(colors=(C0,), tiles=())
        with pytest.raises(UnknownTile):
            evaluate_placements(ts, [Placement(tile, 0, 0)])

    def test_unknown_tile_after_known_ones_rejected(self):
        known = Tile(n=letter("a"), e=C0, s=C0, w=C0, name="known")
        blank = Tile(n=C0, e=C0, s=C0, w=C0, name="blank")
        stranger = Tile(n=C0, e=letter("a"), s=C0, w=C0, name="stranger")
        ts = TilingSystem(colors=(C0, letter("a")), tiles=(known, blank))
        placements = [Placement(known, 0, 0), Placement(blank, 1, 0),
                      Placement(stranger, 2, 0)]
        with pytest.raises(UnknownTile) as caught:
            evaluate_placements(ts, placements)
        assert str(caught.value) == repr(stranger)
        assert evaluate_placements(ts, placements[:2]).value(
            (0, 1, "H"), letter("a")) == 1

    def test_evaluation_matches_translated_tile_eval(self):
        tile = Tile(n=letter("a"), e=state("q"), s=letter("b"), w=TRI_L,
                    name="t")
        colors = (C0, letter("a"), letter("b"), state("q"), TRI_L)
        ts = TilingSystem(colors=colors, tiles=(tile,))
        total = evaluate_placements(ts, [Placement(tile, 2, 3)])
        assert total == tile_eval(tile).translate(2, 3)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_edgemap(rng, rng.choice(RINGS))
            assert load_edgemap(dump_edgemap(f)) == f

    def test_entries_sorted_in_dump(self):
        f = EdgeMap(Z, [
            (((2, 1, "H"), letter("a")), 1),
            (((0, 0, "V"), letter("a")), 1),
        ])
        data = edgemap_to_dict(f)
        assert [(e["y"], e["x"]) for e in data["entries"]] == [(0, 0), (1, 2)]

    def test_bad_orientation_rejected(self):
        with pytest.raises(ValueError, match="bad orientation"):
            edgemap_from_dict({"ring": "Z", "entries": [
                {"x": 0, "y": 0, "orient": "D", "color": "c0", "value": 1}]})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown edge map fields"):
            edgemap_from_dict({"ring": "Z", "entries": [], "pad": 1})
        with pytest.raises(ValueError, match="unknown edge map entry fields"):
            edgemap_from_dict({"ring": "Z", "entries": [
                {"x": 0, "y": 0, "orient": "H", "color": "c0", "value": 1,
                 "q": 2}]})

    @pytest.mark.parametrize("field, value, kind", [
        ("x", "1", "str"), ("y", 2.7, "float"), ("value", 2.5, "float"),
        ("x", True, "bool"), ("value", "1", "str")])
    def test_non_integer_entries_rejected(self, field, value, kind):
        good = {"x": 0, "y": 0, "orient": "H", "color": "c0", "value": 1}
        data = {"ring": "Z", "entries": [good, dict(good, **{field: value})]}
        with pytest.raises(ValueError, match=f"edge map entry field "
                                             f"'{field}' must be an integer, "
                                             f"not {kind}"):
            edgemap_from_dict(data)


# ---------------------------------------------------------------------------
# the sparse core under edge maps, module elements, lamps and flows

CORE_RINGS = (Z, Ring(2), Ring(3))


def brute_sum(ring, *terms):
    """Canonical dict of the sum of ``coeff * (entries moved by shift)``
    over the ``(entries, coeff, shift)`` terms, one entry at a time."""
    sums = {}
    for entries, coeff, shift in terms:
        for key, value in entries.items():
            moved = shift(key)
            sums[moved] = sums.get(moved, 0) + coeff * value
    if ring.modulus is not None:
        sums = {key: v % ring.modulus for key, v in sums.items()}
    return {key: v for key, v in sums.items() if v}


def edge_shift(dx, dy):
    return lambda key: ((key[0][0] + dx, key[0][1] + dy, key[0][2]), key[1])


def grid_shift(dx, dy):
    return lambda key: (key[0] + dx, key[1] + dy, *key[2:])


def random_element(rng, ring, rank=2):
    return ModuleElement(ring, rank, {
        (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(rank)):
            rng.randrange(-4, 5)
        for _ in range(rng.randrange(0, 6))})


def random_points(rng, extra=()):
    return {(rng.randrange(-3, 4), rng.randrange(-3, 4), *extra):
            rng.randrange(-4, 5) for _ in range(rng.randrange(0, 6))}


def random_wreath(rng, ring):
    return WreathElement(ring, random_points(rng),
                         (rng.randrange(-3, 4), rng.randrange(-3, 4)))


def random_metabelian(rng):
    flow = {}
    for _ in range(rng.randrange(0, 6)):
        flow.update(random_points(rng, (rng.choice("HV"),)))
    return MetabelianElement((rng.randrange(-3, 4), rng.randrange(-3, 4)),
                             flow)


class TestSparseCore:
    """Laws of the one sparse vector that every sparse type is built on:
    the fused ``plus`` against entry-by-entry sums, hashes that follow
    equality, cancellation mod n, immutability and the mismatch errors."""

    def test_plus_matches_brute_force(self):
        rng = random.Random(20261019)
        for ring in CORE_RINGS:
            for _ in range(150):
                coeff = rng.randrange(-3, 4)
                dx, dy = rng.randrange(-4, 5), rng.randrange(-4, 5)
                a, b = random_edgemap(rng, ring), random_edgemap(rng, ring)
                expected = brute_sum(
                    ring, (dict(a.support()), 1, edge_shift(0, 0)),
                    (dict(b.support()), coeff, edge_shift(dx, dy)))
                got = a.plus(b, coeff, dx, dy)
                assert dict(got.support()) == expected
                assert got == EdgeMap(ring, expected.items())
                a, b = random_element(rng, ring), random_element(rng, ring)
                expected = brute_sum(
                    ring, (dict(a.items()), 1, grid_shift(0, 0)),
                    (dict(b.items()), coeff, grid_shift(dx, dy)))
                got = a.plus(b, coeff, dx, dy)
                assert dict(got.items()) == expected
                assert got == ModuleElement(ring, 2, expected)
                assert a - b == a.plus(b, -1)
                assert -b == b.scale(-1) == b.plus(b, -2)
                assert b.translate(dx, dy).scale(coeff) \
                    == b.scale(0).plus(b, coeff, dx, dy)

    def test_products_match_brute_force(self):
        rng = random.Random(20261020)
        for ring in CORE_RINGS:
            for _ in range(150):
                a, b = random_wreath(rng, ring), random_wreath(rng, ring)
                (px, py), (qx, qy) = a.pos, b.pos
                lamps = brute_sum(ring, (a.fun(), 1, grid_shift(0, 0)),
                                  (b.fun(), 1, grid_shift(px, py)))
                assert (a * b).fun() == lamps
                assert a * b == WreathElement(ring, lamps, (px + qx, py + qy))
                inverse = brute_sum(ring, (a.fun(), -1, grid_shift(-px, -py)))
                assert a.inv() == WreathElement(ring, inverse, (-px, -py))
        for _ in range(150):
            a, b = random_metabelian(rng), random_metabelian(rng)
            (px, py), (qx, qy) = a.ab, b.ab
            flow = brute_sum(Z, (a.flow(), 1, grid_shift(0, 0)),
                             (b.flow(), 1, grid_shift(px, py)))
            assert (a * b).flow() == flow
            assert a * b == MetabelianElement((px + qx, py + qy), flow)
            inverse = brute_sum(Z, (a.flow(), -1, grid_shift(-px, -py)))
            assert a.inv() == MetabelianElement((-px, -py), inverse)

    def test_equal_values_have_equal_hashes(self):
        rng = random.Random(20261021)
        for ring in CORE_RINGS:
            twin = Ring(ring.modulus)
            pad = ring.modulus or 0
            for _ in range(60):
                f = random_edgemap(rng, ring)
                entries = list(f.support())
                rng.shuffle(entries)
                key = ((9, 9, "H"), letter("a"))
                rebuilt = EdgeMap(twin, entries + [(key, 2), (key, -2)])
                summed = EdgeMap(ring).plus(f) + EdgeMap(ring, [(key, pad)])
                assert f == rebuilt == summed
                assert hash(f) == hash(rebuilt) == hash(summed)
                assert len({f, rebuilt, summed}) == 1

                e = random_element(rng, ring)
                items = list(e.items()) + [((9, 9, 0), pad)]
                rng.shuffle(items)
                g = random_element(rng, ring)
                for other in (ModuleElement(twin, 2, dict(items)),
                              (e + g) - g, e.translate(2, -1).translate(-2, 1)):
                    assert other == e and hash(other) == hash(e)

                w = random_wreath(rng, ring)
                moved = w * WreathElement(ring, pos=(1, 0))
                lamps = list(w.fun().items())
                rng.shuffle(lamps)
                for other in (WreathElement(twin, dict(lamps), w.pos),
                              moved * WreathElement(ring, pos=(-1, 0)),
                              (w * w.inv()) * w):
                    assert other == w and hash(other) == hash(w)
        for _ in range(60):
            m = random_metabelian(rng)
            edges = list(m.flow().items())
            rng.shuffle(edges)
            for other in (MetabelianElement(m.ab, dict(edges)),
                          (m * m.inv()) * m, m.inv().inv()):
                assert other == m and hash(other) == hash(m)

    def test_keys_that_cancel_are_dropped(self):
        for ring in (Ring(2), Ring(3)):
            n = ring.modulus
            key = ((0, 0, "V"), letter("a"))
            f = EdgeMap(ring, [(key, 1), (((1, 0, "H"), C0), 1)])
            g = f.plus(EdgeMap(ring, [(key, 1)]), n - 1)
            assert g.value(*key) == 0 and len(g) == 1
            assert EdgeMap(ring, [(key, n)]).is_zero()
            assert f.plus(f, n - 1).is_zero() and f.scale(n).is_zero()
            e = ModuleElement(ring, 1, {(0, 0, 0): 1, (1, 0, 0): 1})
            cancelled = e.plus(ModuleElement(ring, 1, {(2, 0, 0): 1}),
                               n - 1, -1, 0)
            assert cancelled.support() == [(0, 0, 0)]
            assert ModuleElement(ring, 1, {(0, 0, 0): n}).is_zero()
            lamp = WreathElement(ring, {(0, 0): 1, (1, 0): 1})
            product = lamp * WreathElement(ring, {(1, 0): n - 1})
            assert product.fun() == {(0, 0): 1} and product.support() == [(0, 0)]
            assert WreathElement(ring, {(0, 0): n}).is_identity()
        x = MetabelianElement((1, 0), {(0, 0, "H"): 1})
        assert (x * x.inv()).is_identity() and (x * x.inv()).flow() == {}
        assert MetabelianElement((0, 0), {(0, 0, "V"): 0}).is_identity()

    def test_all_four_types_are_immutable(self):
        values = (EdgeMap(Z, [(((0, 0, "H"), C0), 1)]),
                  ModuleElement(Z, 1, {(0, 0, 0): 1}),
                  WreathElement(Z, {(0, 0): 1}, (1, 0)),
                  MetabelianElement((1, 0), {(0, 0, "H"): 1}))
        for value in values:
            before = repr(value), hash(value)
            for name in ("ring", "rank", "pos", "ab", "_entries", "_hash",
                         "_lamps", "_flow", "_vec", "extra"):
                with pytest.raises(AttributeError, match="is immutable"):
                    setattr(value, name, None)
                with pytest.raises(AttributeError, match="is immutable"):
                    delattr(value, name)
            assert (repr(value), hash(value)) == before

    @pytest.mark.parametrize("ring", [Z, Ring(2), Ring(3)])
    def test_copy_and_pickle_round_trip(self, ring):
        lamp = WreathElement(ring, {(1, -2): 2, (0, 0): 1}, (3, 1))
        values = (EdgeMap(ring, [(((0, 1, "H"), letter("a")), 2),
                                 (((-1, 0, "V"), C0), -1)]),
                  ModuleElement(ring, 3, {(1, 2, 0): 2, (0, -1, 2): 1}),
                  lamp * lamp,
                  MetabelianElement((1, -1), {(0, 0, "H"): 2, (2, 1, "V"): -1}))
        for value in values:
            for again in (copy.copy(value), copy.deepcopy(value),
                          pickle.loads(pickle.dumps(value))):
                assert type(again) is type(value)
                assert again == value and hash(again) == hash(value)
                assert repr(again) == repr(value)

    def test_mismatch_errors_keep_their_messages(self):
        key = ((0, 0, "H"), C0)
        with pytest.raises(RingMismatch, match="^Z vs Zmod:2$"):
            EdgeMap(Z, [(key, 1)]) + EdgeMap(Ring(2), [(key, 1)])
        with pytest.raises(RingMismatch, match="^Zmod:2 vs Zmod:3$"):
            EdgeMap(Ring(2)).plus(EdgeMap(Ring(3)), 1, 1, 1)
        one, two = ModuleElement(Z, 1), ModuleElement(Z, 2)
        with pytest.raises(RingMismatch, match="^Z vs Zmod:3$"):
            one - ModuleElement(Ring(3), 2)
        with pytest.raises(RankMismatch, match="^rank 1 vs 2$"):
            one + two
        with pytest.raises(RankMismatch, match="^rank 2 vs 1$"):
            two.plus(one, 2, 1, 0)
        with pytest.raises(RankMismatch,
                           match="^coordinate 2 outside rank 2$"):
            ModuleElement(Z, 2, {(0, 0, 2): 1})
        with pytest.raises(RingMismatch, match="^Zmod:3 vs Z$"):
            WreathElement(Ring(3), pos=(1, 0)) * WreathElement(Z)

    def test_edge_maps_are_hashable(self):
        key = ((0, 0, "H"), letter("a"))
        f = EdgeMap(Ring(3), [(key, 4)])
        table = {f: "f", EdgeMap(Ring(3)): "zero"}
        assert table[EdgeMap(Ring(3), [(key, 1)])] == "f"
        assert table[f.plus(f, 2)] == "zero"
        assert f != EdgeMap(Z, [(key, 1)])
