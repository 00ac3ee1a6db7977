"""The accept side of the chain on seeded random machines.

The corpus holds four hand-written machines; the reduction is claimed for
every machine.  Here random partial tables over one to three states are
normalized and run on short random words.  For every word with an
accepting run, the built certificate must verify with a clean audit,
forced search must find an equal certificate from the colors alone, and
the JSON round trip must give it back with the same runs.
"""

import random

from tilechain import (Ring, Z, build_accepting_tiling, compile_tiles,
                       initial_map, verify_zero)
from tilechain.deduce import forced_search
from tilechain.engine import claims_audit
from tilechain.tiling import dump_certificate, load_certificate
from tilechain.tm import LeftEdgeViolation, TuringMachine, normalize, run

FUEL = 200
ACCEPTED = 60


def random_machine(rng: random.Random) -> TuringMachine:
    """A table over one to three states, inputs ``a`` (and ``b``), blank
    ``_`` and maybe a work letter ``c``, each entry present with
    probability 0.7."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
    inputs = ("a", "b")[:rng.randint(1, 2)]
    tape = inputs + ("_",) + (("c",) if rng.random() < 0.5 else ())
    table = {(q, s): (rng.choice(states + ("acc",)), rng.choice(tape),
                      rng.choice("LR"))
             for q in states for s in tape if rng.random() < 0.7}
    return TuringMachine(states + ("acc",), tape, inputs, "_", states[0],
                         "acc", table)


def accepted_runs(seed: int, count: int):
    """``(machine, word)`` pairs with an accepting run within ``FUEL``
    steps, drawn until ``count`` are found.  Total tables are skipped, as
    ``normalize`` returns them unwrapped, and so are runs that move left
    of cell 0."""
    rng = random.Random(seed)
    found = []
    draws = 0
    while len(found) < count:
        draws += 1
        raw = random_machine(rng)
        tm = normalize(raw)
        word = "".join(rng.choice(raw.input_alphabet)
                       for _ in range(rng.randint(1, 4)))
        if tm is raw:
            continue
        try:
            if run(tm, word, FUEL) is None:
                continue
        except LeftEdgeViolation:
            continue
        found.append((tm, word))
    return found, draws


def test_random_accepting_runs_build_search_and_round_trip():
    pairs, draws = accepted_runs(20261020, ACCEPTED)
    assert draws < 20 * ACCEPTED
    widths = set()
    for i, (tm, word) in enumerate(pairs):
        cert = build_accepting_tiling(tm, word, FUEL)
        ts = compile_tiles(tm)
        f0 = initial_map(tm, word, (Z, Ring(2), Ring(3))[i % 3])
        where = f"draw {i}: {word!r}"
        assert verify_zero(f0, cert, ts), where
        assert claims_audit(cert, f0).ok, where
        assert forced_search(ts, f0, cert.width_m, cert.rows) == cert, where
        back = load_certificate(dump_certificate(cert), ts)
        assert back == cert and back.runs() == cert.runs(), where
        widths.add(cert.width_m - len(word))
    # The draws reach past the narrowest row width.
    assert len(widths) > 1
