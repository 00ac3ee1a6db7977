"""Package-level acceptance checks.

Seven checks covering the whole reduction chain: end-to-end equivalence
of simulation, tiling certificates, and color-only deduction; machine
independence of the deduction; randomized algebraic laws; flow
decomposition into unit cells; witnesses carried into word products;
subset sums over modular rings matched against the sweep language; and
byte-stable exported artifacts.  Each test finishes by printing a single
PASS line with its headline numbers.
"""

import ast
import json
import random
import time
from collections import Counter
from itertools import product
from pathlib import Path

import tilechain
from tilechain.compiler import compile_tiles, initial_map
from tilechain.deduce import forced_search
from tilechain.edges import EdgeMap, Ring, Z, dump_edgemap
from tilechain.engine import (
    build_accepting_tiling,
    claims_audit,
    default_window,
    verify_zero,
)
from tilechain.groups import (
    METABELIAN,
    MetabelianElement,
    WREATH,
    cells_to_flow,
    cells_to_word,
    flow_decompose,
    make_submonoid_instance,
    metabelian_bindings,
    metabelian_eval,
    submonoid_to_dict,
    unembed_module,
    verify_submonoid_certificate,
    witness_to_submonoid_certificate,
    wreath_bindings,
    wreath_eval,
    wreath_identity,
)
from tilechain.machines import corpus, mini_eraser, unary_eraser
from tilechain.modules import (
    SemimoduleInstance,
    certificate_to_witness,
    instance_to_dict,
    member_bounded,
    subset_sum_bounded,
    tiling_to_instance,
    tiling_to_subset_sum,
    unit,
    witness_to_dict,
)
from tilechain.rational import (
    build_L,
    certificate_to_word,
    dump_nfa,
    enumerate_zero_position_hits,
    make_rational_instance,
    nfa_accepts,
    rational_bindings,
    rational_to_dict,
    regex_to_nfa,
)
from tilechain.render import (
    render_certificate_ascii,
    render_certificate_svg,
    render_edgemap_ascii,
    render_edgemap_svg,
)
from tilechain.tiling import Color, dump_certificate, dump_system
from tilechain.tm import dump_tm, normalize, run

FUEL = 500
LOOPER = "right-walker"


def corpus_words(tm):
    return ["".join(tup)
            for n in (1, 2, 3, 4)
            for tup in product(tm.input_alphabet, repeat=n)]


def accepted_corpus_pairs():
    """(name, machine, word) for every corpus input the machine accepts."""
    pairs = []
    for name, tm in corpus().items():
        for word in corpus_words(tm):
            if run(tm, list(word), FUEL) is not None:
                pairs.append((name, tm, word))
    return pairs


def test_simulation_tiling_and_deduction_agree():
    """Accepting runs, their certificates, and color-only deduction all
    pick out the same placements; the deliberate looper admits none."""
    started = time.perf_counter()
    accepted = 0
    for name, tm in corpus().items():
        ts = compile_tiles(tm)
        for word in corpus_words(tm):
            if run(tm, list(word), FUEL) is None:
                continue
            accepted += 1
            f0 = initial_map(tm, word)
            cert = build_accepting_tiling(tm, word, FUEL)
            assert cert is not None
            assert verify_zero(f0, cert, ts)
            forced = forced_search(ts, f0, cert.width_m, cert.rows)
            assert forced is not None
            assert Counter(forced.placements) == Counter(cert.placements)
            assert claims_audit(cert, f0).ok
    looper = corpus()[LOOPER]
    looper_ts = compile_tiles(looper)
    looper_words = corpus_words(looper)
    for word in looper_words:
        assert run(looper, list(word), FUEL) is None
        assert forced_search(looper_ts, initial_map(looper, word), 8, 64) \
            is None
    elapsed = time.perf_counter() - started
    assert accepted >= 19
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS — {accepted} accepted pairs agree across "
          f"simulation, certificates, and deduction; looper empty for "
          f"{len(looper_words)} inputs within (8, 64); {elapsed:.2f}s")


def test_deduction_is_machine_free():
    """The color-only search neither imports the machine layer nor behaves
    differently from it on any corpus input."""
    package_dir = Path(tilechain.__file__).parent

    def relative_imports(module: str) -> set[str]:
        tree = ast.parse((package_dir / f"{module}.py").read_text())
        found: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                name = node.module or ""
                if node.level and name:
                    found.add(name.split(".")[0])
                elif name.startswith("tilechain."):
                    found.add(name.split(".")[1])
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("tilechain."):
                        found.add(alias.name.split(".")[1])
        return found

    closure: set[str] = set()
    frontier = {"deduce"}
    while frontier:
        module = frontier.pop()
        closure.add(module)
        frontier |= relative_imports(module) - closure
    machine_layer = {"tm", "machines", "engine", "compiler"}
    assert not closure & machine_layer, closure
    for module in closure:
        assert "TuringMachine" not in \
            (package_dir / f"{module}.py").read_text()

    checked = 0
    for name, tm in corpus().items():
        ts = compile_tiles(tm)
        for word in corpus_words(tm):
            f0 = initial_map(tm, word)
            trace = run(tm, list(word), FUEL)
            if trace is not None:
                cert = build_accepting_tiling(tm, word, FUEL)
                forced = forced_search(ts, f0, cert.width_m, cert.rows)
                assert forced is not None
                assert Counter(forced.placements) == Counter(cert.placements)
            else:
                bounds = (8, 64) if name == LOOPER else (6, 10)
                assert forced_search(ts, f0, *bounds) is None
            checked += 1
    print(f"ACCEPTANCE 2 PASS — deduction closure {sorted(closure)} is "
          f"machine-free and matches the simulator on {checked} corpus "
          f"inputs")


def _random_edgemap(rng, ring):
    colors = [Color("letter", ch, "") for ch in "abcd"]
    entries = []
    for _ in range(rng.randint(0, 6)):
        key = ((rng.randint(-3, 3), rng.randint(-3, 3),
                rng.choice("HV")), rng.choice(colors))
        entries.append((key, rng.randint(-4, 4)))
    return EdgeMap(ring, entries)


def _random_tokens(rng, alphabet, max_len=8):
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


def _inverse_tokens(tokens):
    return [t.swapcase() for t in reversed(tokens)]


def _commutator(u, v):
    return u + v + _inverse_tokens(u) + _inverse_tokens(v)


def test_randomized_algebraic_laws():
    """At least 1000 randomized cases per family, zero failures: edge-map
    addition laws, the translation action, both ambient groups' axioms,
    evaluation as a homomorphism, and triviality of nested commutators."""
    rng = random.Random(20260827)
    rings = (Z, Ring(2), Ring(5))
    cases = {}

    n = 0
    for _ in range(1000):
        ring = rng.choice(rings)
        a, b, c = (_random_edgemap(rng, ring) for _ in range(3))
        k = rng.randint(-3, 3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + EdgeMap(ring) == a
        assert (a + (-a)).is_zero()
        assert (a + b).scale(k) == a.scale(k) + b.scale(k)
        n += 1
    cases["edge-map laws"] = n

    n = 0
    for _ in range(1000):
        ring = rng.choice(rings)
        a, b = (_random_edgemap(rng, ring) for _ in range(2))
        dx, dy = rng.randint(-4, 4), rng.randint(-4, 4)
        ex, ey = rng.randint(-4, 4), rng.randint(-4, 4)
        assert (a + b).translate(dx, dy) == \
            a.translate(dx, dy) + b.translate(dx, dy)
        assert a.translate(dx, dy).translate(ex, ey) == \
            a.translate(dx + ex, dy + ey)
        assert a.translate(dx, dy).translate(-dx, -dy) == a
        n += 1
    cases["translation action"] = n

    lamp_tokens = "x X y Y g G".split()
    n = 0
    for _ in range(1000):
        ring = rng.choice(rings)
        bindings = wreath_bindings(ring)
        u, v, w = (_random_tokens(rng, lamp_tokens) for _ in range(3))
        eu, ev, ew = (wreath_eval(t, bindings, ring) for t in (u, v, w))
        assert (eu * ev) * ew == eu * (ev * ew)
        assert eu * wreath_identity(ring) == eu
        assert (eu * eu.inv()).is_identity()
        n += 1
    cases["lamp-group axioms"] = n

    move_tokens = "x X y Y".split()
    n = 0
    for _ in range(1000):
        u, v, w = (_random_tokens(rng, move_tokens) for _ in range(3))
        eu, ev, ew = (metabelian_eval(t) for t in (u, v, w))
        assert (eu * ev) * ew == eu * (ev * ew)
        assert eu * MetabelianElement() == eu
        assert (eu * eu.inv()).is_identity()
        n += 1
    cases["flow-group axioms"] = n

    n = 0
    for _ in range(1000):
        ring = rng.choice(rings)
        bindings = wreath_bindings(ring)
        u, v = (_random_tokens(rng, lamp_tokens, 12) for _ in range(2))
        assert wreath_eval(u + v, bindings, ring) == \
            wreath_eval(u, bindings, ring) * wreath_eval(v, bindings, ring)
        s, t = (_random_tokens(rng, move_tokens, 12) for _ in range(2))
        assert metabelian_eval(s + t) == \
            metabelian_eval(s) * metabelian_eval(t)
        assert metabelian_eval(s + _inverse_tokens(s)).is_identity()
        n += 1
    cases["evaluation homomorphism"] = n

    n = 0
    for _ in range(1000):
        u, v, s, t = (_random_tokens(rng, move_tokens, 6) for _ in range(4))
        nested = _commutator(_commutator(u, v), _commutator(s, t))
        assert metabelian_eval(nested).is_identity()
        n += 1
    cases["nested commutators vanish"] = n

    assert all(count >= 1000 for count in cases.values())
    total = sum(cases.values())
    print(f"ACCEPTANCE 3 PASS — {total} randomized cases over "
          f"{len(cases)} law families, zero failures")


def test_flow_decomposition():
    """Closed walks decompose exactly into unit cells and re-evaluate to
    the same element."""
    rng = random.Random(20260828)
    move_tokens = "x X y Y".split()
    words = 0
    for _ in range(500):
        tokens = _random_tokens(rng, move_tokens, 20)
        walked = metabelian_eval(tokens)
        px, py = walked.ab
        closed = tokens + ["X"] * max(px, 0) + ["x"] * max(-px, 0) + \
            ["Y"] * max(py, 0) + ["y"] * max(-py, 0)
        element = metabelian_eval(closed)
        assert element.ab == (0, 0)
        flow = element.flow()
        cells = flow_decompose(flow)
        assert cells_to_flow(cells) == flow
        assert metabelian_eval(cells_to_word(cells)) == element
        words += 1
    print(f"ACCEPTANCE 4 PASS — {words} closed walks decomposed exactly")


def test_witnesses_carry_into_word_products():
    """Every accepted corpus pair yields verifying word-product
    certificates in both ambient groups, and single-factor mutations
    almost always break them."""
    prepared = []
    for name, tm, word in accepted_corpus_pairs():
        ts = compile_tiles(tm)
        f0 = initial_map(tm, word)
        cert = build_accepting_tiling(tm, word, FUEL)
        picks = certificate_to_witness(cert, ts)
        sem = tiling_to_instance(ts, f0)
        for flavor in (WREATH, METABELIAN):
            inst = make_submonoid_instance(sem, flavor)
            indices = witness_to_submonoid_certificate(picks, inst)
            assert verify_submonoid_certificate(inst, indices)
            prepared.append((inst, indices))
    assert len(prepared) >= 38  # both flavors for every accepted pair

    rng = random.Random(20260829)
    flipped = genuine = 0
    for _ in range(100):
        inst, indices = rng.choice(prepared)
        gen_count = len(inst.generators)
        pos = rng.randrange(len(indices))
        op = rng.choice(("replace", "delete", "insert"))
        if op == "replace":
            new = rng.randrange(gen_count)
            while new == indices[pos]:
                new = rng.randrange(gen_count)
            mutated = indices[:pos] + (new,) + indices[pos + 1:]
        elif op == "delete":
            mutated = indices[:pos] + indices[pos + 1:]
        else:
            mutated = indices[:pos] + (rng.randrange(gen_count),) + \
                indices[pos:]
        if verify_submonoid_certificate(inst, mutated):
            # A mutant can land on another valid product; confirm it.
            assert verify_submonoid_certificate(inst, mutated)
            genuine += 1
        else:
            flipped += 1
    assert flipped + genuine == 100
    assert flipped >= 95
    print(f"ACCEPTANCE 5 PASS — {len(prepared)} word-product certificates "
          f"verify; {flipped}/100 mutants flipped, {genuine} genuine")


def test_subset_sums_match_the_sweep_language():
    """Over Z/2 and Z/3 the bounded subset-sum search recovers the
    certificate's own witness, witness words are accepted and evaluate to
    the target, and exhaustive short-word enumeration finds only values
    reachable by distinct-translate subset sums."""
    started = time.perf_counter()
    sample = [(mini_eraser(), "a"), (unary_eraser(), "a")]
    two = corpus()["two-symbol-eraser"]
    sample += [(two, "a"), (two, "aa")]
    checked = 0
    for modulus in (2, 3):
        ring = Ring(modulus)
        for tm, word in sample:
            ts = compile_tiles(tm)
            cert = build_accepting_tiling(tm, word, FUEL)
            f0 = initial_map(tm, word, ring)
            inst = tiling_to_subset_sum(ts, f0)
            picks = certificate_to_witness(cert, ts)
            assert subset_sum_bounded(inst, default_window(cert)) == picks
            sweep_word = certificate_to_word(picks)
            assert nfa_accepts(regex_to_nfa(build_L(len(ts.tiles))),
                               sweep_word)
            rat = make_rational_instance(inst)
            assert wreath_eval(sweep_word, rat.bindings, ring) == rat.target
            checked += 1

    hit_counts = {}
    for modulus in (2, 3):
        ring = Ring(modulus)
        f = unit(ring, 1, 0, 0, 0)
        inst = SemimoduleInstance(ring, 1, (f,), f + f.translate(1, 0),
                                  mode="subset-sum")
        rat = make_rational_instance(inst)
        hits = enumerate_zero_position_hits(rat.expr, rat.bindings, ring, 12)
        assert rat.target in hits
        for hit in hits:
            element = unembed_module(dict(hit.fun()), rat.stride, 1, ring)
            probe = SemimoduleInstance(ring, 1, inst.generators, element,
                                       mode="subset-sum")
            witness = subset_sum_bounded(probe, (-6, -6, 6, 6),
                                         fuel=200_000)
            assert witness is not None
            positions = [(dx, dy) for _, dx, dy in witness]
            assert len(set(positions)) == len(positions)
        hit_counts[modulus] = len(hits)
    assert hit_counts == {2: 199, 3: 199}
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 6 PASS — clean witnesses recovered on {checked} "
          f"modular instances; {hit_counts[2]}+{hit_counts[3]} enumerated "
          f"values all subset sums; {elapsed:.2f}s")


def _export_everything() -> dict[str, str]:
    """Every exported artifact kind, built fresh from scratch."""
    unary = unary_eraser()
    mini = mini_eraser()
    arts = {}
    arts["machine.json"] = dump_tm(unary)
    arts["machine_normalized.json"] = dump_tm(normalize(mini))
    ts = compile_tiles(unary)
    arts["tiles.json"] = dump_system(ts)
    f0 = initial_map(unary, "a")
    f2 = initial_map(unary, "a", Ring(2))
    arts["initial.json"] = dump_edgemap(f0)
    arts["initial_mod2.json"] = dump_edgemap(f2)
    cert = build_accepting_tiling(unary, "a", FUEL)
    arts["certificate.json"] = dump_certificate(cert)
    sem = tiling_to_instance(ts, f0)
    arts["semimodule.json"] = json.dumps(instance_to_dict(sem), indent=2)
    sub = tiling_to_subset_sum(ts, f2)
    arts["subset.json"] = json.dumps(instance_to_dict(sub), indent=2)
    mini_ts = compile_tiles(mini)
    mini_f0 = initial_map(mini, "a")
    mini_sem = tiling_to_instance(mini_ts, mini_f0)
    witness = member_bounded(mini_sem, (0, 0, 3, 3))
    arts["member_witness.json"] = json.dumps(
        witness_to_dict("semimodule", witness), indent=2)
    arts["subset_witness.json"] = json.dumps(
        witness_to_dict("subset-sum", certificate_to_witness(cert, ts)),
        indent=2)
    for flavor in (WREATH, METABELIAN):
        arts[f"submonoid_{flavor}.json"] = json.dumps(
            submonoid_to_dict(make_submonoid_instance(mini_sem, flavor)),
            indent=2)
    rat = make_rational_instance(sub)
    arts["rational.json"] = json.dumps(rational_to_dict(rat), indent=2)
    arts["nfa.json"] = dump_nfa(regex_to_nfa(rat.expr))
    arts["edgemap.txt"] = render_edgemap_ascii(f0)
    arts["edgemap.svg"] = render_edgemap_svg(f0)
    arts["certificate.txt"] = render_certificate_ascii(cert)
    arts["certificate.svg"] = render_certificate_svg(cert)
    return arts


def test_exported_artifacts_are_byte_stable():
    """Two independent builds of every exported artifact agree byte for
    byte."""
    first = _export_everything()
    second = _export_everything()
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name
    assert len(first) >= 17
    print(f"ACCEPTANCE 7 PASS — {len(first)} exported artifacts "
          f"byte-identical across two builds")
