"""Tests for the regular-language layer: the sweep expression, its
automaton, witness-to-word compilation, and the bounded membership
search over (automaton state, group element) pairs."""

import itertools
import json
import random
import re

import pytest

from tilechain.compiler import compile_tiles, initial_map
from tilechain.edges import Ring, RingMismatch, Z, ring_from_name
from tilechain.groups import (UnboundSymbol, WreathElement, _make_element,
                              metabelian_bindings, metabelian_eval,
                              wreath_eval, wreath_identity)
from tilechain.engine import build_accepting_tiling
from tilechain.machines import mini_eraser, two_symbol_eraser, unary_eraser
from tilechain.modules import (BadTerm, DuplicateShift, SemimoduleInstance,
                               certificate_to_witness, element_from_dict,
                               tiling_to_subset_sum, unit, zero_element)
from tilechain.rational import (
    MAX_EXPR_DEPTH,
    Concat,
    Lit,
    Nfa,
    RationalInstance,
    Star,
    Union,
    build_L,
    certificate_to_word,
    dump_nfa,
    enumerate_zero_position_hits,
    expr_from_text,
    expr_to_text,
    make_rational_instance,
    nfa_accepts,
    nfa_from_dict,
    nfa_to_dict,
    rational_bindings,
    rational_from_dict,
    rational_member_bounded,
    rational_to_dict,
    regex_to_nfa,
    word_plants,
)
from tilechain import rational
from tilechain.rational import (_NEVER, _LampCode, _NfaSim, _compiled,
                                _lamp_at, _lamp_index, _search_bounds,
                                _sweep_letters)


def subset_instance(ring, target, gens=None):
    gens = gens if gens is not None else (unit(ring, 1, 0, 0, 0),)
    return SemimoduleInstance(ring, 1, gens, target, mode="subset-sum")


# ---------------------------------------------------------------------------
# expressions


class TestExpressions:
    def test_sweep_expression_shape(self):
        expr = build_L(2)
        assert isinstance(expr, Concat) and len(expr.parts) == 3
        free, middle, free2 = expr.parts
        assert free == free2 == Star(Union((Lit("x"), Lit("X"),
                                            Lit("y"), Lit("Y"))))
        assert isinstance(middle, Star)
        inner = middle.inner
        assert isinstance(inner, Concat)
        plant, climb, realign = inner.parts
        assert plant == Star(Union((Lit("x"),
                                    Concat((Lit("g0"), Lit("x"))),
                                    Concat((Lit("g1"), Lit("x"))))))
        assert climb == Lit("y")
        assert realign == Star(Lit("X"))

    def test_sweep_needs_a_generator(self):
        with pytest.raises(ValueError, match="at least one generator"):
            build_L(0)

    def test_letters_in_first_appearance_order(self):
        # Thompson's construction adds each literal's edge left to right,
        # so the automaton lists the letters in the expression's order.
        assert regex_to_nfa(build_L(2)).alphabet() == \
            ["x", "X", "y", "Y", "g0", "g1"]

    def test_text_round_trip(self):
        for expr in (Lit("x"),
                     Union((Lit("a"), Concat((Lit("b"), Lit("c"))))),
                     Star(Concat((Lit("a"), Star(Lit("b"))))),
                     build_L(1),
                     build_L(3),
                     Concat(())):
            assert expr_from_text(expr_to_text(expr)) == expr

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="unbalanced parenthesis"):
            expr_from_text("( a b")
        with pytest.raises(ValueError, match="trailing tokens"):
            expr_from_text("a ) b")
        with pytest.raises(ValueError, match="unexpected token"):
            expr_from_text("a | *")

    # Texts nesting ``depth`` levels, each with a word its automaton takes.
    NESTINGS = [
        (lambda depth: "x" + " *" * depth, lambda depth: ["x"] * 3),
        (lambda depth: "( x " * depth + ")" * depth,
         lambda depth: ["x"] * depth),
        (lambda depth: ("( " * (depth // 2) + "x" + " ) *" * (depth // 2)
                        + " *" * (depth % 2)),
         lambda depth: ["x"] * 2),
    ]
    NESTING_IDS = ["stars", "parentheses", "starred-parentheses"]

    @pytest.mark.parametrize("text,word", NESTINGS, ids=NESTING_IDS)
    def test_nesting_at_the_bound_round_trips_and_compiles(self, text, word):
        expr = expr_from_text(text(MAX_EXPR_DEPTH))
        assert expr_from_text(expr_to_text(expr)) == expr
        assert nfa_accepts(regex_to_nfa(expr), word(MAX_EXPR_DEPTH))

    @pytest.mark.parametrize("text,word", NESTINGS, ids=NESTING_IDS)
    def test_nesting_past_the_bound_is_refused(self, text, word):
        with pytest.raises(ValueError, match=f"nests deeper than "
                                             f"{MAX_EXPR_DEPTH} levels"):
            expr_from_text(text(MAX_EXPR_DEPTH + 1))


# ---------------------------------------------------------------------------
# automaton


class TestAutomaton:
    def test_state_count_is_stable(self):
        assert regex_to_nfa(build_L(1)).state_count == 45

    @pytest.mark.parametrize("word,expected", [
        ("", True),
        ("y X", True),
        ("x y X Y", True),
        ("g0 x y X Y", True),
        ("g0 x x g0 x y X X X Y", True),
        ("g0", False),
        ("g0 g0", False),
        ("g0 x", False),
        ("x g0 y", False),
    ])
    def test_sweep_acceptance(self, word, expected):
        assert nfa_accepts(regex_to_nfa(build_L(1)), word) is expected

    def test_token_stream_accepted(self):
        nfa = regex_to_nfa(build_L(1))
        assert nfa_accepts(nfa, ["g0", "x", "y", "X", "Y"])

    def test_alphabet(self):
        assert set(regex_to_nfa(build_L(2)).alphabet()) == \
            {"x", "X", "y", "Y", "g0", "g1"}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_memoised_steps_match_fresh_closures(self, k):
        nfa = regex_to_nfa(build_L(k))
        letters = nfa.alphabet()

        def fresh_step(states, letter):
            # Reference: one labelled move, then the epsilon closure, read
            # straight off the edge list with no simulator state.
            reached = {dst for src, label, dst in nfa.edges
                       if src in states and label == letter}
            grew = bool(reached)
            while grew:
                more = {dst for src, label, dst in nfa.edges
                        if src in reached and label is None}
                grew = not more <= reached
                reached |= more
            return frozenset(reached)

        sim = _NfaSim(nfa)
        start = sim.start()
        assert start == fresh_step({nfa.initial}, None) | {nfa.initial}
        seen, queue, steps = {start}, [start], 0
        while queue:
            states = queue.pop()
            for letter in letters:
                moved = sim.step(states, letter)
                assert moved == fresh_step(states, letter)
                assert sim.step(states, letter) is moved
                steps += 1
                if moved and moved not in seen:
                    seen.add(moved)
                    queue.append(moved)
        assert steps == len(seen) * len(letters)
        for states in seen:
            # Closures are interned: an equal subset is the same object.
            assert sim.closure(states) is states


# ---------------------------------------------------------------------------
# witnesses as words


def reference_certificate_to_word(witness):
    """certificate_to_word as it was first written, one token at a time.
    It stays here as the reference for the text form, which must remain
    byte-identical to it."""
    def power(symbol, k):
        return [symbol] * k if k >= 0 else [symbol.swapcase()] * -k

    picks = sorted(witness, key=lambda p: (p[2], p[1], p[0]))
    if not picks:
        return ""
    rows = {}
    for gen, dx, dy in picks:
        rows.setdefault(dy, []).append((dx, gen))
    first_b, last_b = picks[0][2], picks[-1][2]
    cur_a = rows[first_b][0][0]
    tokens = power("x", cur_a) + power("y", first_b)
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
    tokens += power("x", -cur_a)
    tokens += power("y", -(last_b + 1))
    return " ".join(tokens)


class TestWitnessWords:
    def test_empty_witness(self):
        assert certificate_to_word(()) == ""

    def test_single_pick(self):
        assert certificate_to_word(((0, 0, 0),)) == "g0 x y X Y"

    def test_two_picks_in_one_row(self):
        word = certificate_to_word(((0, 0, 0), (0, 2, 0)))
        assert word == "g0 x x g0 x y X X X Y"
        assert "g0 x x g0 x" in word

    def test_left_realignment_between_rows(self):
        word = certificate_to_word(((0, 2, 0), (0, 0, 1)))
        assert word == "x x g0 x y X X X g0 x y X Y Y"

    def test_empty_middle_row(self):
        word = certificate_to_word(((0, 0, 0), (0, 0, 2)))
        assert word == "g0 x y X y g0 x y X Y Y Y"

    def test_a_tall_gap_is_climbed_in_one_pass(self):
        g = 8_000
        word = certificate_to_word(((0, 0, 0), (0, 0, g)))
        expected = ("g0 x y X " + "y " * (g - 1) + "g0 x y X "
                    + "Y " * (g + 1))[:-1]
        assert word == expected
        assert len(word.split()) == 16_008

    def test_repeated_translation_rejected(self):
        with pytest.raises(DuplicateShift, match=r"\(1, 1\) used twice"):
            certificate_to_word(((0, 1, 1), (1, 1, 1)))

    def test_picks_are_checked(self):
        # No sweep language has a letter gTrue or g-1, and a float shift
        # cannot repeat a letter: each pick is refused before it is spelled.
        for picks, text in ((((True, 0, 0),), "gen True is not an int"),
                            (((0, 1.0, 0),), "dx 1.0 is not an int"),
                            (((0, 0, 0), (-1, 0, 1)),
                             "generator -1 out of range")):
            with pytest.raises(BadTerm, match=re.escape(text)):
                certificate_to_word(picks)

    def test_random_witnesses_compile_to_accepted_words(self):
        rng = random.Random(13)
        nfa = regex_to_nfa(build_L(3))
        for _ in range(100):
            positions = {(rng.randint(-3, 3), rng.randint(-3, 3))
                         for _ in range(rng.randint(0, 6))}
            picks = tuple((rng.randint(0, 2), dx, dy)
                          for dx, dy in positions)
            word = certificate_to_word(picks)
            assert nfa_accepts(nfa, word)
            assert sorted(word_plants(word)) == \
                sorted((g, dx, dy) for g, dx, dy in picks)

    def test_text_matches_token_list_reference(self):
        # Seeded pick sets, counted by the features the word has to spell:
        # negative coordinates, empty rows between picks, a row starting
        # left of where the last one ended, and a generator used twice.
        rng = random.Random(20261019)
        seen = dict.fromkeys(("negative", "gap", "realign", "repeat"), 0)
        for _ in range(400):
            positions = {(rng.randint(-5, 5), rng.randint(-5, 5))
                         for _ in range(rng.randint(0, 9))}
            picks = tuple((rng.randint(0, 3), dx, dy)
                          for dx, dy in positions)
            assert certificate_to_word(picks) == \
                reference_certificate_to_word(picks), picks
            rows = {}
            for _, dx, dy in picks:
                rows.setdefault(dy, []).append(dx)
            ys = sorted(rows)
            seen["negative"] += any(dx < 0 or dy < 0 for _, dx, dy in picks)
            seen["gap"] += any(b - a > 1 for a, b in zip(ys, ys[1:]))
            seen["realign"] += any(min(rows[b]) <= max(rows[a])
                                   for a, b in zip(ys, ys[1:]))
            seen["repeat"] += len({g for g, _, _ in picks}) < len(picks)
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("machine, word", [
        (mini_eraser, "a"), (unary_eraser, "a"), (unary_eraser, "aa"),
        (two_symbol_eraser, "ab")])
    def test_certificate_words_match_token_list_reference(self, machine,
                                                          word):
        tm = machine()
        cert = build_accepting_tiling(tm, word, 64 * (len(word) + 2))
        picks = certificate_to_witness(cert, compile_tiles(tm))
        assert certificate_to_word(picks) == \
            reference_certificate_to_word(picks)

    def test_word_plants_tracks_position(self):
        assert word_plants("x x g1 X g0 y Y y g12") == \
            [(1, 2, 0), (0, 1, 0), (12, 1, 1)]
        assert word_plants("") == []

    def test_word_plants_rejects_foreign_tokens(self):
        with pytest.raises(UnboundSymbol, match="unexpected token 'z'"):
            word_plants("x z")
        # Only "g" and a canonical ASCII decimal, as the writers spell it.
        assert word_plants("g0 x g12 y g7") == [(0, 0, 0), (12, 1, 0),
                                                (7, 1, 1)]
        for token in ("g-1", "g+1", "g01", "g00", "g\uff11", "g\u0661",
                      "gx", "g", "g1 ", "g 1", "G1", "g1_0", "g1.0"):
            with pytest.raises(UnboundSymbol, match="unexpected token"):
                word_plants(["x", token])
            if token.strip() == token and " " not in token:
                with pytest.raises(UnboundSymbol, match="unexpected token"):
                    word_plants(f"x {token} y")


# ---------------------------------------------------------------------------
# instances and bounded search


class TestRationalInstances:
    def test_bindings_move_and_plant(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        inst = subset_instance(ring, f)
        bindings = rational_bindings(inst)
        assert bindings["x"].pos == (1, 0)
        assert bindings["X"] == bindings["x"].inv()
        assert bindings["y"].pos == (0, 1)
        assert bindings["g0"].pos == (0, 0)
        assert bindings["g0"].fun() == {(0, 0): 1}

    def test_stride_spreads_higher_rank(self):
        ring = Ring(2)
        g = unit(ring, 3, 0, 0, 2)
        inst = SemimoduleInstance(ring, 3, (g,), g, mode="subset-sum")
        bindings = rational_bindings(inst)
        assert bindings["x"].pos == (3, 0)
        assert bindings["g0"].fun() == {(2, 0): 1}

    def test_instance_fields(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f))
        assert rat.ring == ring and rat.rank == 1 and rat.stride == 1
        assert rat.expr == build_L(1)
        assert rat.target.fun() == {(0, 0): 1}
        assert rat.target.pos == (0, 0)

    def test_requires_subset_sum_mode(self):
        f = unit(Z, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="subset-sum"):
            make_rational_instance(SemimoduleInstance(Z, 1, (f,), f))


class TestBoundedSearch:
    def test_identity_target_is_empty_word(self):
        ring = Ring(2)
        rat = make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0).scale(0)))
        assert rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                       5, ring) == ""

    def test_negative_length_bound_refused(self):
        # Even the empty word is longer than a negative bound.
        ring = Ring(2)
        rat = make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0).scale(0)))
        assert rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                       0, ring) == ""
        assert enumerate_zero_position_hits(
            rat.expr, rat.bindings, ring, 0) == {wreath_identity(ring)}
        for max_len in (-1, -3):
            with pytest.raises(ValueError,
                               match="max_len must be at least 0"):
                rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                        max_len, ring)
            with pytest.raises(ValueError,
                               match="max_len must be at least 0"):
                enumerate_zero_position_hits(rat.expr, rat.bindings, ring,
                                             max_len)

    def test_finds_shortest_planting_word(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f))
        word = rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                       5, ring)
        assert word is not None and len(word.split()) == 5
        assert nfa_accepts(regex_to_nfa(rat.expr), word)
        assert wreath_eval(word, rat.bindings, ring) == rat.target

    def test_budget_too_small(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f))
        assert rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                       4, ring) is None

    def test_doubled_lamp_unreachable(self):
        # The sweep can visit each position at most once, so a lamp value
        # of 2 at one point is out of reach regardless of word length.
        ring = Ring(3)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f.scale(2)))
        assert rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                       8, ring) is None

    def test_missing_binding(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f))
        bindings = dict(rat.bindings)
        del bindings["g0"]
        with pytest.raises(UnboundSymbol, match="no binding for 'g0'"):
            rational_member_bounded(rat.expr, bindings, rat.target, 3, ring)

    def test_binding_over_another_ring(self):
        ring = Ring(2)
        rat = make_rational_instance(subset_instance(ring,
                                                     unit(ring, 1, 0, 0, 0)))
        bindings = dict(rat.bindings, g0=WreathElement(Ring(3), {(0, 0): 1}))
        with pytest.raises(RingMismatch, match="Zmod:3 binding for 'g0'"):
            rational_member_bounded(rat.expr, bindings, rat.target, 5, ring)
        with pytest.raises(RingMismatch, match="Zmod:3 binding for 'g0'"):
            enumerate_zero_position_hits(rat.expr, bindings, ring, 5)
        # A target over Z whose lamp of 3 would read as 1 in a Z/2 code.
        target = WreathElement(Ring(None), {(0, 0): 3})
        with pytest.raises(RingMismatch, match="Z target in a Zmod:2"):
            rational_member_bounded(rat.expr, rat.bindings, target, 5, ring)

    def test_every_reader_refuses_alike(self):
        # Word evaluation and both sweep searches read their bindings with
        # one reader, so each refuses a binding of the other group and a
        # binding over another ring with the same text.
        ring = Ring(2)
        rat = make_rational_instance(subset_instance(ring,
                                                     unit(ring, 1, 0, 0, 0)))
        flows = dict(rat.bindings, x=metabelian_bindings()["x"])
        mod3 = dict(rat.bindings, g0=WreathElement(Ring(3), {(0, 0): 1}))
        for bindings, error, text in (
                (flows, TypeError,
                 "'x' is bound to a MetabelianElement of another group"),
                (mod3, RingMismatch,
                 "Zmod:3 binding for 'g0' in a Zmod:2 evaluation")):
            for call in (lambda: wreath_eval("g0 x", bindings, ring),
                         lambda: rational_member_bounded(
                             rat.expr, bindings, rat.target, 5, ring),
                         lambda: enumerate_zero_position_hits(
                             rat.expr, bindings, ring, 5)):
                with pytest.raises(error, match=f"^{re.escape(text)}$"):
                    call()
        with pytest.raises(TypeError, match="^'g0' is bound to a "
                           "WreathElement of another group$"):
            metabelian_eval("g0", rat.bindings)


class TestEnumeration:
    def test_short_words_only_reach_identity(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f + f.translate(1, 0)))
        hits = enumerate_zero_position_hits(rat.expr, rat.bindings, ring, 4)
        assert hits == {wreath_identity(ring)}

    def test_target_appears_at_sufficient_length(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f + f.translate(1, 0)))
        hits = enumerate_zero_position_hits(rat.expr, rat.bindings, ring, 8)
        assert rat.target in hits
        assert wreath_eval("g0 x y X Y", rat.bindings, ring) in hits
        assert all(h.pos == (0, 0) for h in hits)

    def test_missing_binding(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f))
        bindings = {k: v for k, v in rat.bindings.items() if k != "y"}
        with pytest.raises(UnboundSymbol, match="no binding for 'y'"):
            enumerate_zero_position_hits(rat.expr, bindings, ring, 3)


def planted_instance(ring, gens, picks):
    """A subset-sum instance whose target is the sum of the picks."""
    target = zero_element(ring, 1)
    for gen, dx, dy in picks:
        target = target + gens[gen].translate(dx, dy)
    return make_rational_instance(
        SemimoduleInstance(ring, 1, gens, target, mode="subset-sum"))


def sweep_gens(ring, shift=None):
    f = unit(ring, 1, 0, 0, 0)
    return (f,) if shift is None else (f, f + f.translate(*shift))


class TestSearchGoldens:
    """Words the search returned before its subset steps were memoised and
    its two layered loops merged; the visit order must not move them."""

    @pytest.mark.parametrize("modulus", [2, 3])
    @pytest.mark.parametrize("shift,picks,word", [
        (None, ((0, 0, 0),), "g0 x y X Y"),
        (None, ((0, 1, 0),), "x g0 x y X X Y"),
        (None, ((0, 0, 1),), "y g0 x y X Y Y"),
        (None, ((0, 0, 0), (0, 1, 0)), "g0 x g0 x y X X Y"),
        (None, ((0, 0, 0), (0, 1, 1)), "g0 x y g0 x y X X Y Y"),
        ((1, 0), ((1, 1, 0),), "x g1 x y X X Y"),
        ((0, 1), ((0, 0, 0), (1, 1, 0)), "g0 x g1 x y X X Y"),
    ])
    def test_planted_words(self, modulus, shift, picks, word):
        ring = Ring(modulus)
        rat = planted_instance(ring, sweep_gens(ring, shift), picks)
        length = len(certificate_to_word(picks).split())
        assert rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                       length, ring) == word
        assert rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                       length - 1, ring) is None

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_enumeration_sizes(self, modulus):
        ring = Ring(modulus)
        rat = planted_instance(ring, sweep_gens(ring), ((0, 0, 0), (0, 1, 0)))
        sizes = [len(enumerate_zero_position_hits(rat.expr, rat.bindings,
                                                  ring, max_len))
                 for max_len in (4, 8, 10)]
        assert sizes == [1, 19, 67]

    def test_readme_example_has_no_short_word(self):
        # `tilechain reduce rational` on unary "aa" over Z/2, then
        # `tilechain solve rational --max-len 4`, via the JSON form.
        tm = unary_eraser()
        sub = tiling_to_subset_sum(compile_tiles(tm),
                                   initial_map(tm, "aa", Ring(2)))
        rat = rational_from_dict(rational_to_dict(make_rational_instance(sub)))
        assert rat.ring == Ring(2) and len(sub.generators) == 52
        assert rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                       4, rat.ring) is None


@pytest.fixture(scope="module")
def short_sweep_words():
    """Every word of length <= 6 that build_L(1) accepts, shortest first
    and, within a length, in the search's letter order."""
    nfa = regex_to_nfa(build_L(1))
    letters = nfa.alphabet()
    return [" ".join(word) for length in range(7)
            for word in itertools.product(letters, repeat=length)
            if nfa_accepts(nfa, word)]


class TestSearchAgainstBruteForce:
    MAX_LEN = 6

    def instances(self):
        two, three = Ring(2), Ring(3)
        planted = planted_instance(two, sweep_gens(two), ((0, 0, 0),))
        yield planted, planted.target
        other = planted_instance(three, sweep_gens(three), ((0, 0, 0),))
        # An off-origin target: only the search, not enumeration, sees it.
        yield other, wreath_eval("x g0 x y", other.bindings, three)

    def test_shortest_word_is_the_first_in_search_order(
            self, short_sweep_words):
        for rat, target in self.instances():
            expected = next((w for w in short_sweep_words
                             if wreath_eval(w, rat.bindings, rat.ring)
                             == target), None)
            assert expected is not None
            assert rational_member_bounded(rat.expr, rat.bindings, target,
                                           self.MAX_LEN, rat.ring) == expected

    def test_enumeration_is_every_origin_value(self, short_sweep_words):
        for rat, _ in self.instances():
            values = {wreath_eval(w, rat.bindings, rat.ring)
                      for w in short_sweep_words}
            expected = {v for v in values if v.pos == (0, 0)}
            assert len(expected) > 1
            assert enumerate_zero_position_hits(
                rat.expr, rat.bindings, rat.ring, self.MAX_LEN) == expected


# ---------------------------------------------------------------------------
# pruning by the lower bound


def reference_member(expr, bindings, target, max_len, ring):
    """The search as it was before pruning: the same breadth-first walk
    over (subset, element) pairs with an exact visited set, no bound, and
    the first accepting pair at the target spelled out."""
    nfa = regex_to_nfa(expr)
    moves = [(letter, bindings[letter]) for letter in nfa.alphabet()]
    sim = _NfaSim(nfa)
    start = (sim.start(), wreath_identity(ring))
    if sim.accepting(start[0]) and start[1] == target:
        return ""
    frontier = [(*start, None)]
    visited = {start}
    for _ in range(max_len):
        next_frontier = []
        for states, element, word in frontier:
            for letter, value in moves:
                moved = sim.step(states, letter)
                if not moved:
                    continue
                extended = element * value
                key = (moved, extended)
                if key in visited:
                    continue
                visited.add(key)
                grown = (word, letter)
                if sim.accepting(moved) and extended == target:
                    letters = []
                    while grown is not None:
                        grown, letter = grown
                        letters.append(letter)
                    return " ".join(reversed(letters))
                next_frontier.append((moved, extended, grown))
        frontier = next_frontier
    return None


def wreath_dict(pos, lamps=()):
    return {"pos": list(pos),
            "fun": [{"a": a, "b": b, "value": v} for (a, b), v in lamps]}


def loaded_instance(ring, x_pos, g0_pos, g0_lamps):
    """A sweep instance for one generator whose bindings come from JSON:
    x moves by ``x_pos`` (diagonal when both coordinates are nonzero) and
    g0 lights ``g0_lamps`` and moves by ``g0_pos``."""
    ax, ay = x_pos
    return rational_from_dict({
        "ring": ring.name, "rank": 1, "stride": 1,
        "expr": expr_to_text(build_L(1)),
        "bindings": {
            "x": wreath_dict(x_pos),
            "X": wreath_dict((-ax, -ay)),
            "y": wreath_dict((0, 1)),
            "Y": wreath_dict((0, -1)),
            "g0": wreath_dict(g0_pos, g0_lamps),
        },
        "target": wreath_dict((0, 0)),
    })


def random_accepted_word(rng, rat, max_len):
    """A seeded random word of at most ``max_len`` letters that the sweep
    automaton accepts, drawn letter by letter among the live letters."""
    sim = _NfaSim(regex_to_nfa(rat.expr))
    letters = sim.nfa.alphabet()
    while True:
        states, word = sim.start(), []
        for _ in range(rng.randint(0, max_len)):
            letter = rng.choice([a for a in letters if sim.step(states, a)])
            states = sim.step(states, letter)
            word.append(letter)
        if sim.accepting(states):
            return " ".join(word)


def pruning_instances(count, seed):
    """Seeded (instance, target, known word) triples: one to three
    generators over Z/2 and Z/3, a rank-2 instance with stride 2, and
    loaded bindings with diagonal moves and plants that move.  Targets
    are planted picks or the values of random accepted words, which
    often leave the cursor off the origin."""
    rng = random.Random(seed)
    for i in range(count):
        ring = Ring(rng.choice((2, 3)))
        f = unit(ring, 1, 0, 0, 0)
        family = i % 7
        if family < 4:
            gens = ((f,), (f, f + f.translate(1, 0)),
                    (f, f + f.translate(0, 1)),
                    (f, f + f.translate(1, 0),
                     f + f.translate(0, 1)))[family]
            picks = ((rng.randrange(len(gens)), *rng.choice(
                ((0, 0), (0, 0), (1, 0), (0, 1)))),)
            rat = planted_instance(ring, gens, picks)
        elif family == 4:
            gens = (unit(ring, 2, 0, 0, 0), unit(ring, 2, 0, 0, 1),
                    unit(ring, 2, 0, 0, 0) + unit(ring, 2, 1, 0, 1))
            gen, dx, dy = rng.randrange(3), *rng.choice(((0, 0), (1, 0)))
            rat = make_rational_instance(SemimoduleInstance(
                ring, 2, gens, gens[gen].translate(dx, dy),
                mode="subset-sum"))
            picks = ((gen, dx, dy),)
        else:
            x_pos = rng.choice(((1, 0), (1, 1), (2, 1)))
            g0_pos = rng.choice(((0, 0), (1, 0), (0, 1)))
            lamps = (((0, 0), 1),) + (((1, 0), 2),) * (family == 6)
            rat = loaded_instance(ring, x_pos, g0_pos, lamps)
            picks = None
        if picks is not None and rng.random() < 0.3:
            word = certificate_to_word(picks)
            target = rat.target
        else:
            word = random_accepted_word(rng, rat, 6)
            target = wreath_eval(word, rat.bindings, ring)
        yield rat, target, word


class TestPruningKeepsTheAnswer:
    """The bound prunes pairs, never the word: on every instance the
    pruned search returns what the unpruned walk returns."""

    def test_same_word_or_none_as_the_unpruned_walk(self):
        checked = nones = 0
        for rat, target, known in pruning_instances(322, 20261018):
            expected = reference_member(rat.expr, rat.bindings, target,
                                        len(known.split()), rat.ring)
            assert expected is not None, known
            shortest = len(expected.split())
            for max_len in range(max(shortest - 2, 0), shortest + 3):
                got = rational_member_bounded(rat.expr, rat.bindings,
                                              target, max_len, rat.ring)
                assert got == (expected if max_len >= shortest else None), \
                    (known, max_len)
                nones += got is None
            checked += 1
        assert checked == 322 and nones > 300

    def test_fallback_when_a_plant_moves(self):
        # g0 both moves and lights a lamp: there is no lamp tour, only
        # the walk's own test of automaton and cursor distance, and the
        # answer still equals the unpruned walk's.
        ring = Ring(3)
        rat = loaded_instance(ring, (1, 1), (1, 0), (((0, 0), 1),))
        nfa = regex_to_nfa(rat.expr)
        target = wreath_eval("g0 g0 x", rat.bindings, ring)
        position, needed = search_hooks(nfa, rat.bindings, target)
        assert needed is None and target.pos == (3, 1)
        sim = _NfaSim(nfa)
        # At the target's position the cursor term is 0: the automaton's.
        assert position(sim.start(), 3, 1) == 0
        assert position(sim.step(sim.start(), "g0"), 3, 1) == 2
        # A diagonal x: (9, -9) is max(6, 10) moves from (3, 1).
        assert position(sim.start(), 9, -9) == 10
        for word in ("g0 x y", "x g0 x g0 x y", "y g0 x y X Y Y"):
            target = wreath_eval(word, rat.bindings, ring)
            expected = reference_member(rat.expr, rat.bindings, target,
                                        len(word.split()), ring)
            assert rational_member_bounded(rat.expr, rat.bindings, target,
                                           len(word.split()),
                                           ring) == expected


def bound_instances():
    """Bindings for build_L(1): a one-lamp plant, a seven-lamp plant, a
    rank-2 instance with stride 2, and a loaded diagonal move."""
    two, three = Ring(2), Ring(3)
    f2, f3 = unit(two, 1, 0, 0, 0), unit(three, 1, 0, 0, 0)
    wide = f3
    for dx in range(1, 7):
        wide = wide + f3.translate(dx, 0)
    yield planted_instance(two, (f2,), ())
    yield planted_instance(three, (wide,), ())
    yield make_rational_instance(SemimoduleInstance(
        three, 2, (unit(three, 2, 0, 0, 1),), unit(three, 2, 0, 0, 1),
        mode="subset-sum"))
    yield loaded_instance(three, (1, 1), (0, 0), (((0, 0), 1), ((1, 0), 1)))


def search_hooks(nfa, bindings, target, max_len=6):
    """The bound of a search for ``target`` in a walk of at most
    ``max_len`` letters, as two functions: ``position(subset, x, y)``, the
    walk's own test ``max(A, d)`` of automaton and cursor distance, and
    ``needed(subset, element)``, ``max(A, tour)`` with the lamp tour of
    :func:`_search_bounds` read at the element's lamp code (None when a
    letter both moves and plants)."""
    letters = _sweep_letters(nfa, bindings, target.ring)
    lamps = _LampCode(target.ring, letters, max_len, (target,))
    goal = (*target.pos, lamps.encode(target.fun()))
    automaton = _compiled(nfa).distance
    distance = rational._cursor_distance(letters)
    tx, ty = target.pos
    tour = _search_bounds(letters, goal, lamps)

    def position(subset, x, y):
        return max(automaton(subset), distance(x - tx, y - ty))

    if tour is None:
        return position, None
    return position, lambda subset, element: max(
        automaton(subset), tour(*element.pos, lamps.encode(element.fun())))


def lamp_bound(nfa, bindings, target):
    """The ``needed`` bound of :func:`search_hooks`, for bindings whose
    plants do not move, read at a (subset, element) pair."""
    _, needed = search_hooks(nfa, bindings, target)
    assert needed is not None
    return needed


class TestLowerBound:
    def test_bound_never_exceeds_the_letters_left(self, short_sweep_words):
        # Every accepted word of length <= 6, with its own value as the
        # target: at every split w = u v the bound at u's pair is at most
        # |v|, and at the full word it is 0.
        for rat in bound_instances():
            sim = _NfaSim(regex_to_nfa(rat.expr))
            start = (sim.start(), wreath_identity(rat.ring))
            pairs = {"": start}
            hooks = {}
            for word in short_sweep_words:
                letters = word.split()
                prefix, (states, element) = "", start
                path = [start]
                for letter in letters:
                    prefix = f"{prefix} {letter}" if prefix else letter
                    if prefix not in pairs:
                        pairs[prefix] = (sim.step(states, letter),
                                         element * rat.bindings[letter])
                    states, element = pairs[prefix]
                    path.append((states, element))
                if element not in hooks:
                    hooks[element] = lamp_bound(sim.nfa, rat.bindings,
                                                element)
                needed = hooks[element]
                bounds = [needed(*pair) for pair in path]
                assert all(bound <= len(letters) - i
                           for i, bound in enumerate(bounds)), (word, bounds)
                assert bounds[-1] == 0

    def test_position_test_never_exceeds_the_bound(self, short_sweep_words):
        # The position test runs before the product and must never prune
        # what the full bound keeps: at every prefix pair of every short
        # accepted word, with the word's value as the target, it is at
        # most the bound, and it is not zero everywhere.
        for rat in bound_instances():
            sim = _NfaSim(regex_to_nfa(rat.expr))
            start = (sim.start(), wreath_identity(rat.ring))
            hooks = {}
            positive = 0
            for word in short_sweep_words:
                states, element = start
                path = [start]
                for letter in word.split():
                    states = sim.step(states, letter)
                    element = element * rat.bindings[letter]
                    path.append((states, element))
                if element not in hooks:
                    hooks[element] = search_hooks(sim.nfa, rat.bindings,
                                                  element)
                position, needed = hooks[element]
                for states, value in path:
                    test = position(states, *value.pos)
                    assert test <= needed(states, value), (word, value)
                    positive += test > 0
            assert positive > 0

    def test_hand_computed_bounds(self):
        three = Ring(3)
        f = unit(three, 1, 0, 0, 0)
        pair = planted_instance(three, (f, f + f.translate(1, 0)), ())
        sim = _NfaSim(regex_to_nfa(pair.expr))
        start = sim.start()     # accepting: the automaton term is 0
        origin = wreath_identity(three)
        row = WreathElement(three, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
        # Three lamps, at most two per plant: 2 plants.  Lamp (2, 0) needs
        # the cursor at (1, 0) or (2, 0) and back: 2 moves.
        assert lamp_bound(sim.nfa, pair.bindings, row)(start, origin) == 4
        # No lamp differs: the cursor only has to get home.
        home = lamp_bound(sim.nfa, pair.bindings, origin)
        assert home(start, WreathElement(three, pos=(2, -1))) == 3
        # After g0 the automaton needs x and y before it accepts again.
        assert home(sim.step(start, "g0"), origin) == 2
        # The rank-2 instance moves x by 2: ceil(3 / 2) + 1 letters.
        rank2 = make_rational_instance(SemimoduleInstance(
            three, 2, (unit(three, 2, 0, 0, 1),), unit(three, 2, 0, 0, 1),
            mode="subset-sum"))
        back = lamp_bound(regex_to_nfa(rank2.expr), rank2.bindings, origin)
        assert back(start, WreathElement(three, pos=(3, 1))) == 3
        # A diagonal move: the larger per-axis count, max(3, 1).
        diagonal = loaded_instance(three, (1, 1), (0, 0), (((0, 0), 1),))
        assert lamp_bound(regex_to_nfa(diagonal.expr), diagonal.bindings,
                          origin)(
            start, WreathElement(three, pos=(3, 1))) == 3
        # Over Z/3 a lamp of 2 takes two plants of f, but the bound counts
        # the lamps that differ, not by how much: one plant.
        single = planted_instance(three, (f,), ())
        assert lamp_bound(regex_to_nfa(single.expr), single.bindings,
                          WreathElement(three, {(0, 0): 2}))(
            start, WreathElement(three, {(0, 0): 0})) == 1
        # No plant letter at all: a differing lamp can never be fixed.
        moves_only = {k: v for k, v in single.bindings.items() if k != "g0"}
        moves_only["g0"] = origin
        assert lamp_bound(regex_to_nfa(single.expr), moves_only,
                          WreathElement(three, {(0, 0): 1}))(
            start, origin) == _NEVER


# ---------------------------------------------------------------------------
# the compiled automaton and the position test before the product


def reference_hits(expr, bindings, max_len, ring):
    """enumerate_zero_position_hits as the unpruned walk: every pair of a
    word of length at most ``max_len``, with an exact visited set and no
    bound, keeping the accepting values at the origin."""
    nfa = regex_to_nfa(expr)
    moves = [(letter, bindings[letter]) for letter in nfa.alphabet()]
    sim = _NfaSim(nfa)
    frontier = [(sim.start(), wreath_identity(ring))]
    visited = set(frontier)
    for _ in range(max_len):
        next_frontier = []
        for states, element in frontier:
            for letter, value in moves:
                pair = (sim.step(states, letter), element * value)
                if pair[0] and pair not in visited:
                    visited.add(pair)
                    next_frontier.append(pair)
        frontier = next_frontier
    return {element for states, element in visited
            if sim.accepting(states) and element.pos == (0, 0)}


class _CountingWreath(WreathElement):
    """A binding that counts the products built with it on the right:
    as a subclass that defines ``__rmul__``, it is asked before the left
    factor's ``__mul__``."""

    __slots__ = ()
    built = [0]

    def __rmul__(self, other):
        self.built[0] += 1
        return other * _make_element(WreathElement, self.pos, self._vec)


def count_walks(monkeypatch):
    """From here to the end of the test, the number of pairs each
    :func:`rational._sweep_walk` yields, one entry per walk."""
    walk, counts = rational._sweep_walk, []

    def counting(*args):
        counts.append(0)
        for item in walk(*args):
            counts[-1] += 1
            yield item

    monkeypatch.setattr(rational, "_sweep_walk", counting)
    return counts


class TestCompiledAutomaton:
    @pytest.mark.parametrize("k", [1, 2])
    def test_equal_expressions_share_one_automaton(self, k):
        # Two searches in a row, each on a fresh build_L(k): the same
        # words and hit sets as the unpruned walk, and the second pair of
        # searches compiles nothing.
        ring = Ring(3)
        gens = sweep_gens(ring, (1, 0))[:k]
        picks = ((k - 1, 1, 0),)
        runs = []
        for _ in range(2):
            rat = planted_instance(ring, gens, picks)
            before = _compiled.cache_info()
            word = rational_member_bounded(rat.expr, rat.bindings,
                                           rat.target, 7, ring)
            hits = enumerate_zero_position_hits(rat.expr, rat.bindings,
                                                ring, 7)
            runs.append((rat, word, hits, before, _compiled.cache_info()))
        (first, word1, hits1, _, _), (second, word2, hits2, before, after) = runs
        assert first.expr == second.expr and first.expr is not second.expr
        assert word1 == word2 == reference_member(
            first.expr, first.bindings, first.target, 7, ring) is not None
        assert hits1 == hits2 == reference_hits(first.expr, first.bindings,
                                                7, ring)
        assert first.target in hits1
        assert after.misses == before.misses
        assert after.hits > before.hits
        assert _compiled(regex_to_nfa(first.expr)) is \
            _compiled(regex_to_nfa(second.expr))

    def test_acceptance_shares_the_search_automaton(self):
        nfa = regex_to_nfa(build_L(1))
        sim = _compiled(nfa)
        before = _compiled.cache_info()
        assert nfa_accepts(regex_to_nfa(build_L(1)), "g0 x y X Y")
        assert not nfa_accepts(regex_to_nfa(build_L(1)), "g0")
        assert _compiled.cache_info().misses == before.misses
        assert _compiled(regex_to_nfa(build_L(1))) is sim
        # A token outside the alphabet is dead and leaves no memo entry
        # behind in the shared simulator.
        assert nfa_accepts(nfa, "x")
        steps = dict(sim._steps)
        for word in ("zz", "x zz", "x q0 x"):
            assert not nfa_accepts(nfa, word)
        assert sim._steps == steps

    def test_enumeration_products(self, monkeypatch):
        # Z/2, target f + f.x, words of length at most 10.  The walk keys a
        # pair by its lamp code and builds no group element product (a
        # walk over elements built 3,067 of the 5,905 extensions', 520 of
        # them by g0).  The automaton and cursor tests come before the
        # lamps: the walk yields 1,635 pairs and adds 442 lamps (1,688
        # and 520 with the cursor test alone).  The hit set is the one of
        # the test above.
        ring = Ring(2)
        rat = planted_instance(ring, sweep_gens(ring), ((0, 0, 0),
                                                        (0, 1, 0)))
        counting = {letter: _make_element(_CountingWreath, value.pos,
                                          value._vec)
                    for letter, value in rat.bindings.items()}
        adds = []
        add = _LampCode.add

        def recording_add(self, code, a, b, value):
            adds.append((a, b))
            return add(self, code, a, b, value)

        monkeypatch.setattr(_LampCode, "add", recording_add)
        _CountingWreath.built[0] = 0
        yielded = count_walks(monkeypatch)
        hits = enumerate_zero_position_hits(rat.expr, counting, ring, 10)
        monkeypatch.undo()
        assert _CountingWreath.built[0] == 0
        assert yielded == [1635]
        assert len(adds) == 442
        assert hits == enumerate_zero_position_hits(rat.expr, rat.bindings,
                                                    ring, 10)
        assert len(hits) == 67 and rat.target in hits

    @pytest.mark.parametrize("shift,max_len,pairs,word", [
        ((3, 2), 15, 626, "x x x y y g0 x y X X X X Y Y Y"),
        ((1, 0), 7, 81, "x g0 x y X X Y"),
        ((0, 1), 7, 78, "y g0 x y X Y Y"),
    ])
    def test_visit_counts(self, monkeypatch, shift, max_len, pairs, word):
        # Z/2, one generator f, target f translated by ``shift``: the
        # number of pairs the pruned walk yields.  A looser bound yields
        # more, a wrong one loses the word.
        ring = Ring(2)
        rat = planted_instance(ring, sweep_gens(ring), ((0, *shift),))
        yielded = count_walks(monkeypatch)
        found = rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                        max_len, ring)
        assert (found, yielded) == (word, [pairs])


# ---------------------------------------------------------------------------
# lamp tables as ints


def plant_letter(plant):
    """A plant as one entry of a search's letter list."""
    return ("g0", *plant.pos,
            tuple((a, b, v) for (a, b), v in plant.fun().items()))


class TestLampCodes:
    RINGS = ["Zmod:2", "Zmod:3", "Zmod:4", "Zmod:5", "Z"]

    def test_pairing_fills_a_square_of_lamps(self):
        # The lamps at most r steps from the origin on each axis take
        # exactly the first (2r + 1)² digits, and _lamp_at inverts.
        for r in range(6):
            box = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]
            assert sorted(map(_lamp_index, *zip(*box))) == \
                list(range((2 * r + 1) ** 2))
            assert all(_lamp_at(_lamp_index(a, b)) == (a, b) for a, b in box)

    @pytest.mark.parametrize("name", RINGS)
    def test_encode_decode_round_trip(self, name):
        ring = ring_from_name(name)
        rng = random.Random(f"lamp codes {name}")
        plant = WreathElement(ring, {(0, 0): 1, (1, 0): -1})
        lamps = _LampCode(ring, [plant_letter(plant)], 20)
        for _ in range(200):
            table = WreathElement(ring, {
                (rng.randint(-9, 9), rng.randint(-9, 9)): rng.randint(-20, 20)
                for _ in range(rng.randint(0, 12))}).fun()
            code = lamps.encode(table)
            assert lamps.decode(code) == table
            assert lamps.encode(dict(reversed(table.items()))) == code
            assert len(lamps.indices(code)) == len(table)
        assert lamps.encode({}) == 0

    @pytest.mark.parametrize("name", ["Zmod:2", "Z"])
    def test_code_size_follows_the_lamps_not_the_bound(self, name):
        # A digit's place depends on its lamp alone.  Over Z/n its width
        # is fixed too; over Z it grows with the bound's bit length.
        ring = ring_from_name(name)
        plant = WreathElement(ring, {(0, 0): 1})
        for lamp in ((0, 0),) + ((3, -2),) * (ring.modulus is not None):
            sizes = {_LampCode(ring, [plant_letter(plant)], max_len).encode(
                {lamp: 1}).bit_length() for max_len in (4, 400)}
            assert len(sizes) == 1, (lamp, sizes)
        lamps = _LampCode(ring, [plant_letter(plant)], 4)
        assert lamps.encode({(0, 0): 1}) == 1

    def test_digit_widths(self):
        plant = WreathElement(Z, {(0, 0): 2, (1, 0): -1})
        widths = [_LampCode(ring_from_name(name),
                            [plant_letter(plant)], 6).width
                  for name in self.RINGS]
        # Z: a sign bit over magnitudes up to 6 x 2.
        assert widths == [1, 2, 2, 3, 5]
        target = WreathElement(Z, {(0, 0): 40})
        assert _LampCode(Z, [plant_letter(plant)], 6, (target,)).width == 7

    @pytest.mark.parametrize("name,lit", [
        ("Z", (((0, 0), 2), ((1, 0), -1))),
        ("Zmod:4", (((0, 0), 1), ((1, 0), 3))),
        ("Zmod:5", (((0, 0), 2), ((0, 1), 4))),
    ])
    def test_loaded_rings_match_the_unpruned_walk(self, name, lit):
        ring = ring_from_name(name)
        rng = random.Random(f"loaded {name}")
        for rat in (loaded_instance(ring, (1, 0), (0, 0), lit),
                    loaded_instance(ring, (1, 1), (0, 0), lit),
                    loaded_instance(ring, (2, 1), (1, 0), lit)):
            for _ in range(8):
                word = random_accepted_word(rng, rat, 6)
                target = wreath_eval(word, rat.bindings, ring)
                for max_len in range(len(word.split()) + 2):
                    expected = reference_member(rat.expr, rat.bindings,
                                                target, max_len, ring)
                    assert rational_member_bounded(
                        rat.expr, rat.bindings, target, max_len,
                        ring) == expected, (word, max_len)
            for max_len in range(7):
                assert enumerate_zero_position_hits(
                    rat.expr, rat.bindings, ring, max_len) == \
                    reference_hits(rat.expr, rat.bindings, max_len, ring)

    @pytest.mark.parametrize("modulus", [4, 5])
    def test_planted_odd_and_composite_moduli(self, modulus):
        ring = Ring(modulus)
        for picks in (((0, 0, 0),), ((1, 1, 0),), ((0, 0, 0), (1, 1, 0))):
            rat = rational_from_dict(rational_to_dict(planted_instance(
                ring, sweep_gens(ring, (1, 0)), picks)))
            assert rat.ring == ring
            length = len(certificate_to_word(picks).split())
            for max_len in (length - 1, length):
                expected = reference_member(rat.expr, rat.bindings,
                                            rat.target, max_len, ring)
                assert (expected is None) == (max_len < length)
                assert rational_member_bounded(
                    rat.expr, rat.bindings, rat.target, max_len,
                    ring) == expected
            assert enumerate_zero_position_hits(
                rat.expr, rat.bindings, ring, 7) == \
                reference_hits(rat.expr, rat.bindings, 7, ring)

    def test_integer_target_out_of_reach(self):
        # Over Z a lamp of 40 needs at least 20 plants of 2; the target's
        # code gets digits wide enough for it, and nothing within 6
        # letters reaches it.
        rat = loaded_instance(Z, (1, 0), (0, 0), (((0, 0), 2), ((1, 0), -1)))
        target = WreathElement(Z, {(0, 0): 40, (1, 0): -20})
        assert reference_member(rat.expr, rat.bindings, target, 6, Z) is None
        assert rational_member_bounded(rat.expr, rat.bindings, target, 6,
                                       Z) is None
        # The same lamps at 2 and -1 are one plant away.
        near = WreathElement(Z, {(0, 0): 2, (1, 0): -1})
        assert rational_member_bounded(rat.expr, rat.bindings, near, 6,
                                       Z) == "g0 x y X Y"


# ---------------------------------------------------------------------------
# serialization


class TestRationalSerialization:
    def test_nfa_round_trip(self):
        nfa = regex_to_nfa(build_L(2))
        loaded = nfa_from_dict(json.loads(dump_nfa(nfa)))
        assert loaded == nfa
        for word, expected in (("g1 x y X Y", True), ("g1 g0", False)):
            assert nfa_accepts(loaded, word) is expected

    def test_nfa_strictness(self):
        data = nfa_to_dict(regex_to_nfa(Lit("x")))
        data["comment"] = "x"
        with pytest.raises(ValueError, match="unknown automaton fields"):
            nfa_from_dict(data)

    def test_instance_round_trip(self):
        ring = Ring(2)
        f = unit(ring, 1, 0, 0, 0)
        rat = make_rational_instance(subset_instance(ring, f + f.translate(2, 1)))
        loaded = rational_from_dict(rational_to_dict(rat))
        assert loaded == rat
        assert loaded.bindings == rat.bindings
        assert loaded.target == rat.target

    def test_repeated_lamps_add_up(self):
        # Like the module and edge-map loaders, a lamp listed twice holds
        # the sum of its values: the doubled Z/3 lamp below is 2 in both.
        ring = Ring(3)
        rat = make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0)))
        data = rational_to_dict(rat)
        data["target"]["fun"] = [{"a": 0, "b": 0, "value": 1}] * 2
        data["bindings"]["g0"]["fun"] = [{"a": 1, "b": 0, "value": 1},
                                         {"a": 1, "b": 0, "value": 2}]
        loaded = rational_from_dict(data)
        assert loaded.target.fun() == {(0, 0): 2}
        assert loaded.bindings["g0"].fun() == {}
        module = element_from_dict({
            "ring": "Zmod:3", "rank": 1,
            "entries": [{"x": 0, "y": 0, "idx": 0, "value": 1}] * 2})
        assert module == unit(ring, 1, 0, 0, 0).scale(2)

    @pytest.mark.parametrize("pos", [[0, 0, 0], [1], [], [0, "1"], [0, 1.5],
                                     [True, 0], {"x": 0, "y": 0}, "00"])
    def test_position_is_two_integers(self, pos):
        ring = Ring(2)
        data = rational_to_dict(make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0))))
        data["target"]["pos"] = pos
        with pytest.raises(ValueError, match="pos must be two integers"):
            rational_from_dict(data)
        data["target"]["pos"] = [-3, 4]
        assert rational_from_dict(data).target.pos == (-3, 4)

    def test_instance_strictness(self):
        ring = Ring(2)
        rat = make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0)))
        data = rational_to_dict(rat)
        data["extra"] = 1
        with pytest.raises(ValueError,
                           match="unknown rational instance fields"):
            rational_from_dict(data)
        bad = rational_to_dict(rat)
        bad["target"]["note"] = "x"
        with pytest.raises(ValueError, match="unknown wreath element fields"):
            rational_from_dict(bad)

    def test_lamp_entry_strictness(self):
        # A lamp entry with an unknown field is refused in the message form
        # of every loader, not loaded with the field ignored.
        ring = Ring(2)
        data = rational_to_dict(make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0))))
        data["target"]["fun"] = [{"a": 0, "b": 0, "value": 1, "junk": 5}]
        with pytest.raises(ValueError,
                           match=r"unknown lamp entry fields: \['junk'\]"):
            rational_from_dict(data)

    @pytest.mark.parametrize("field, value, kind", [
        ("state_count", True, "bool"), ("initial", 1.9, "float"),
        ("finals", "1", "str"), ("from", 0.5, "float"), ("to", "1", "str")])
    def test_nfa_values_must_be_integers(self, field, value, kind):
        data = nfa_to_dict(regex_to_nfa(Lit("x")))
        where = "automaton"
        if field == "finals":
            data["finals"] = [value]
        elif field in ("from", "to"):
            data["edges"][0][field] = value
            where = "automaton edge"
        else:
            data[field] = value
        with pytest.raises(ValueError, match=f"{where} field '{field}' must "
                                             f"be an integer, not {kind}"):
            nfa_from_dict(data)

    @pytest.mark.parametrize("label, kind", [
        (5, "int"), (True, "bool"), (["x"], "list"), ({}, "dict")])
    def test_nfa_label_is_a_string_or_null(self, label, kind):
        # A label 5 used to load as the letter '5'.
        data = nfa_to_dict(regex_to_nfa(Lit("x")))
        data["edges"][0]["label"] = label
        with pytest.raises(ValueError, match=f"automaton edge field 'label' "
                                             f"must be a string or null, "
                                             f"not {kind}"):
            nfa_from_dict(data)

    @pytest.mark.parametrize("alphabet", ["junk", ["y"], ["x", "x"], [],
                                          None])
    def test_nfa_alphabet_is_the_sorted_labels(self, alphabet):
        data = nfa_to_dict(regex_to_nfa(Concat((Lit("y"), Lit("x")))))
        assert data["alphabet"] == ["x", "y"]
        data["alphabet"] = alphabet
        with pytest.raises(ValueError, match="is not its sorted edge labels "
                                             r"\['x', 'y'\]"):
            nfa_from_dict(data)
        data["alphabet"] = ["x", "y"]
        assert nfa_from_dict(data) == regex_to_nfa(Concat((Lit("y"),
                                                          Lit("x"))))

    @pytest.mark.parametrize("field, value, wanted, kind", [
        ("expr", 5, "a string", "int"), ("expr", [1, "x"], "a string", "list"),
        ("bindings", 5, "an object", "int"),
        ("bindings", [], "an object", "list")])
    def test_expression_and_bindings_types(self, field, value, wanted, kind):
        ring = Ring(2)
        data = rational_to_dict(make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0))))
        data[field] = value
        with pytest.raises(ValueError, match=f"rational instance field "
                                             f"'{field}' must be {wanted}, "
                                             f"not {kind}"):
            rational_from_dict(data)

    def test_nfa_edge_strictness(self):
        data = nfa_to_dict(regex_to_nfa(Lit("x")))
        data["edges"][0]["weight"] = 1
        with pytest.raises(
                ValueError,
                match=r"unknown automaton edge fields: \['weight'\]"):
            nfa_from_dict(data)

    @pytest.mark.parametrize("field, value, kind", [
        ("rank", True, "bool"), ("stride", 7.5, "float"),
        ("rank", "1", "str"), ("stride", "1", "str")])
    def test_rank_and_stride_must_be_integers(self, field, value, kind):
        ring = Ring(2)
        data = rational_to_dict(make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0))))
        data[field] = value
        with pytest.raises(ValueError, match=f"rational instance field "
                                             f"'{field}' must be an integer, "
                                             f"not {kind}"):
            rational_from_dict(data)

    @pytest.mark.parametrize("field, value, kind", [
        ("a", "0", "str"), ("b", 0.5, "float"), ("value", True, "bool"),
        ("value", 1.0, "float")])
    def test_non_integer_lamp_entries_rejected(self, field, value, kind):
        ring = Ring(2)
        data = rational_to_dict(make_rational_instance(
            subset_instance(ring, unit(ring, 1, 0, 0, 0))))
        data["bindings"]["g0"]["fun"][0][field] = value
        with pytest.raises(ValueError, match=f"lamp entry field '{field}' "
                                             f"must be an integer, "
                                             f"not {kind}"):
            rational_from_dict(data)
