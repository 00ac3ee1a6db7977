"""Machine model: validation, stepping, runs, normalization, JSON."""

import dataclasses
import itertools
import random
import tracemalloc

import pytest

from tilechain import (Configuration, LeftEdgeViolation, MissingTransition,
                       TuringMachine, dump_tm, initial_config, load_tm,
                       normalize, run, step, validate)
from tilechain.machines import (BLANK, corpus, mini_eraser, right_walker,
                                two_symbol_eraser, unary_eraser)
from tilechain.tm import RunTrace, tm_from_dict, tm_to_dict

from conftest import RUN_FUEL
from test_random_machines import random_machine


def tiny(**overrides) -> TuringMachine:
    """A well-formed two-state machine to mutate in validation tests."""
    fields = dict(
        states=("q0", "qf"),
        tape_alphabet=("a", BLANK),
        input_alphabet=("a",),
        blank=BLANK,
        initial="q0",
        accepting="qf",
        transitions={
            ("q0", "a"): ("qf", BLANK, "L"),
            ("q0", BLANK): ("qf", BLANK, "L"),
        },
    )
    fields.update(overrides)
    return TuringMachine(**fields)


class TestValidate:
    def test_corpus_machines_are_well_formed(self):
        for tm in corpus().values():
            assert validate(tm) == []

    def test_bad_state_name(self):
        # Commas are reserved by the head-pair color encoding.
        tm = tiny(states=("q0", "qf", "q,1"))
        assert "bad state name 'q,1'" in validate(tm)
        assert "bad state name ''" in validate(tiny(states=("q0", "qf", "")))

    def test_empty_tape_symbol(self):
        tm = tiny(tape_alphabet=("a", BLANK, ""))
        assert "empty tape symbol" in validate(tm)

    def test_duplicates(self):
        assert "duplicate state names" in validate(
            tiny(states=("q0", "qf", "q0")))
        assert "duplicate tape symbols" in validate(
            tiny(tape_alphabet=("a", BLANK, "a")))

    def test_blank_rules(self):
        assert any("not in tape alphabet" in p
                   for p in validate(tiny(blank="z")))
        assert any("must not be an input symbol" in p
                   for p in validate(tiny(input_alphabet=("a", BLANK))))

    def test_input_subset_of_tape(self):
        tm = tiny(input_alphabet=("a", "z"))
        assert any("input symbol 'z' not in tape alphabet" == p
                   for p in validate(tm))

    def test_endpoint_states(self):
        assert any("initial state" in p for p in validate(tiny(initial="zz")))
        assert any("accepting state 'zz' not in states" == p
                   for p in validate(tiny(accepting="zz")))

    def test_transition_references(self):
        base = tiny().transitions
        cases = [
            ({("zz", "a"): ("qf", "a", "L")}, "transition from unknown state"),
            ({("q0", "z"): ("qf", "a", "L")}, "transition reads unknown"),
            ({("q0", "a"): ("zz", "a", "L")}, "transition to unknown state"),
            ({("q0", "a"): ("qf", "z", "L")}, "transition writes unknown"),
            ({("q0", "a"): ("qf", "a", "U")}, "is not L or R"),
        ]
        for patch, needle in cases:
            tm = tiny(transitions={**base, **patch})
            assert any(needle in p for p in validate(tm)), needle

    def test_accepting_state_must_be_terminal(self):
        tm = tiny(transitions={**tiny().transitions,
                               ("qf", "a"): ("q0", "a", "R")})
        assert any("accepting state has outgoing transition" in p
                   for p in validate(tm))

    def test_partial_table_is_reported(self):
        problems = validate(mini_eraser())
        assert any(p.startswith("missing transition for") for p in problems)


class TestStepping:
    def test_step_applies_table_entry(self):
        tm = unary_eraser()
        config = initial_config(tm, "aa")
        after = step(tm, config)
        assert after == Configuration("qs", ("a", "a"), 1)

    def test_step_on_accepting_returns_none(self):
        tm = tiny()
        assert step(tm, Configuration("qf", (BLANK,), 0)) is None

    def test_step_missing_transition(self):
        tm = mini_eraser()
        with pytest.raises(MissingTransition, match=r"\('q1', 'a'\)"):
            step(tm, Configuration("q1", ("a",), 0))

    def test_step_left_edge(self):
        tm = tiny()
        with pytest.raises(LeftEdgeViolation, match="cell 0"):
            step(tm, initial_config(tm, "a"))

    def test_initial_config_rejects_foreign_symbols(self):
        with pytest.raises(ValueError, match="not in input alphabet"):
            initial_config(unary_eraser(), "ab")


class TestRun:
    def test_accepting_trace_shape(self):
        trace = run(unary_eraser(), "aaa", RUN_FUEL)
        assert trace is not None
        first, last = trace.configs[0], trace.configs[-1]
        assert first.state == "q0" and first.tape == ("a", "a", "a")
        assert last.state == "qf" and last.head == 0
        assert all(s == BLANK for s in last.tape)
        assert trace.steps == len(trace.configs) - 1
        assert trace.space == max(c.head for c in trace.configs) + 1

    def test_fuel_exhaustion_is_not_rejection(self):
        assert run(right_walker(), "a", 50) is None

    def test_too_little_fuel(self):
        full = run(unary_eraser(), "aaa", RUN_FUEL)
        assert run(unary_eraser(), "aaa", full.steps - 1) is None
        assert run(unary_eraser(), "aaa", full.steps) is not None

    def test_two_symbol_language(self):
        tm = two_symbol_eraser()
        assert run(tm, "abab", RUN_FUEL) is not None
        assert run(tm, "ba", RUN_FUEL) is None

    def test_trace_keeps_the_changes(self):
        trace = run(unary_eraser(), "aa", RUN_FUEL)
        assert trace.first == Configuration("q0", ("a", "a"), 0)
        assert trace.changes[0] == (0, "a", "qs", 1)
        assert trace.steps == len(trace.changes)
        # The configurations are spelled once and kept.
        assert trace.configs is trace.configs

    def test_a_run_of_no_steps(self):
        tm = tiny(initial="qf")
        trace = run(tm, "a", 0)
        assert (trace.steps, trace.space) == (0, 1)
        assert trace.configs == (Configuration("qf", ("a",), 0),)

    def test_empty_word_starts_on_one_blank(self):
        assert initial_config(unary_eraser(), "") == \
            Configuration("q0", (BLANK,), 0)


def outcome(simulate, tm, word, fuel):
    """What a run gives: None, an accepting run's configurations, steps
    and space, or the refusal's type and text."""
    try:
        result = simulate(tm, word, fuel)
    except (MissingTransition, LeftEdgeViolation) as refusal:
        return type(refusal), str(refusal)
    if isinstance(result, RunTrace):
        return result.configs, result.steps, result.space
    return result


def kind(result) -> type:
    """RunTrace for an accepting outcome, else None's or the refusal's
    type."""
    if result is None:
        return type(None)
    return result[0] if isinstance(result[0], type) else RunTrace


def folded_run(tm, word, fuel):
    """``run`` as a fold of ``step`` over the fuel, keeping every
    configuration: its configurations, steps and space, or None."""
    configs = [initial_config(tm, word)]
    for _ in range(fuel):
        after = step(tm, configs[-1])
        if after is None:
            break
        configs.append(after)
    if configs[-1].state != tm.accepting:
        return None
    return (tuple(configs), len(configs) - 1,
            max(c.head for c in configs) + 1)


class TestRunIsAFoldOfStep:
    def test_corpus_words_up_to_length_five(self):
        accepted = 0
        for tm in [*corpus().values(), mini_eraser()]:
            for n in range(6):
                for letters in itertools.product(tm.input_alphabet, repeat=n):
                    fuel = 64 * (n + 2)
                    expected = outcome(folded_run, tm, letters, fuel)
                    assert outcome(run, tm, letters, fuel) == expected
                    accepted += kind(expected) is RunTrace
        assert accepted >= 20

    def test_random_tables_raw_and_normalized(self):
        # Raw partial tables stop on a missing entry or walk off cell 0;
        # the refusal must come at the same step, so a smaller fuel is
        # tried too.
        rng = random.Random(20261020)
        kinds = set()
        for _ in range(500):
            raw = random_machine(rng)
            word = "".join(rng.choice(raw.input_alphabet)
                           for _ in range(rng.randint(1, 4)))
            for tm in (raw, normalize(raw)):
                for fuel in (200, rng.randrange(200)):
                    expected = outcome(folded_run, tm, word, fuel)
                    assert outcome(run, tm, word, fuel) == expected
                    kinds.add(kind(expected))
        assert kinds == {RunTrace, type(None), MissingTransition,
                         LeftEdgeViolation}

    def test_running_out_of_fuel_keeps_only_the_changes(self):
        # A fold of step would keep 5,000 tapes of up to 5,000 cells.
        tracemalloc.start()
        try:
            assert run(right_walker(), "a", 5000) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestNormalize:
    def test_total_machine_unchanged(self):
        tm = unary_eraser()
        assert normalize(tm) is tm

    def test_partial_machine_becomes_total(self):
        norm = normalize(mini_eraser())
        assert validate(norm) == []
        assert norm.input_alphabet == ("a",)

    def test_normalized_accepts_clean(self):
        """Acceptance parks the head on cell 0 with the tape erased."""
        trace = run(normalize(mini_eraser()), "a", RUN_FUEL)
        assert trace is not None
        last = trace.configs[-1]
        assert last.head == 0
        assert all(s == BLANK for s in last.tape)

    def test_language_preserved_up_to_length_five(self):
        raw = mini_eraser()
        norm = normalize(raw)

        def raw_accepts(word: str) -> bool:
            try:
                return run(raw, word, RUN_FUEL) is not None
            except MissingTransition:
                return False

        for n in range(1, 6):
            word = "a" * n
            assert raw_accepts(word) == (run(norm, word, RUN_FUEL) is not None)

    def test_wrapper_names_avoid_the_machine_s_own(self):
        # A state named like a wrapper state and a symbol named like a
        # marked variant push each wrapper name to a fresh one.
        raw = dataclasses.replace(
            mini_eraser(), states=("q0", "start", "qf"),
            tape_alphabet=("a", "a+v", BLANK),
            transitions={("q0", "a"): ("start", BLANK, "R"),
                         ("start", BLANK): ("qf", BLANK, "L")})
        norm = normalize(raw)
        assert validate(norm) == []
        assert norm.initial == "start'"
        assert {"a+v'", "a+v+v"} <= set(norm.tape_alphabet)
        assert len(set(norm.states)) == len(norm.states)
        assert len(set(norm.tape_alphabet)) == len(norm.tape_alphabet)
        for n in range(1, 4):
            assert (run(norm, "a" * n, RUN_FUEL) is not None) == (n == 1)

    def test_total_corpus_trivially_normalized(self):
        for tm in corpus().values():
            assert normalize(tm) is tm


class TestJson:
    def test_round_trip(self):
        for tm in [*corpus().values(), mini_eraser()]:
            assert load_tm(dump_tm(tm)) == tm

    def test_dump_is_deterministic(self):
        assert dump_tm(unary_eraser()) == dump_tm(unary_eraser())

    def test_unknown_fields_rejected(self):
        data = tm_to_dict(unary_eraser())
        data["color"] = "blue"
        with pytest.raises(ValueError, match="unknown machine fields"):
            tm_from_dict(data)

    def test_missing_fields_rejected(self):
        data = tm_to_dict(unary_eraser())
        del data["blank"]
        with pytest.raises(ValueError, match="missing machine fields"):
            tm_from_dict(data)

    def test_duplicate_transitions_rejected(self):
        data = tm_to_dict(unary_eraser())
        data["transitions"].append(dict(data["transitions"][0]))
        with pytest.raises(ValueError, match="duplicate transition"):
            tm_from_dict(data)

    def test_transition_field_strictness(self):
        data = tm_to_dict(unary_eraser())
        data["transitions"][0]["speed"] = 9
        with pytest.raises(ValueError, match="unknown transition fields"):
            tm_from_dict(data)

    @pytest.mark.parametrize("field, value, message", [
        ("states", [1], "machine field 'states' must be a string, not int"),
        ("states", "q0", "machine field 'states' must be a list, not str"),
        ("blank", None, "machine field 'blank' must be a string, "
                        "not NoneType")])
    def test_wrong_json_types_rejected(self, field, value, message):
        data = tm_to_dict(unary_eraser())
        data[field] = value
        with pytest.raises(ValueError) as refused:
            tm_from_dict(data)
        assert str(refused.value) == message

    def test_missing_transition_field_named(self):
        data = tm_to_dict(unary_eraser())
        del data["transitions"][0]["move"]
        with pytest.raises(ValueError,
                           match=r"missing transition fields: \['move'\]"):
            tm_from_dict(data)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            tm_from_dict([1, 2])


def test_machine_is_immutable():
    tm = unary_eraser()
    with pytest.raises(dataclasses.FrozenInstanceError):
        tm.blank = "x"
