"""A certificate's one stored form, its runs, and the paths that read it.

A certificate's ``placements`` is a :class:`Placements`, which stores runs
of one tile in one row and spells placements only when iterated or
indexed.  ``verify_zero``, ``claims_audit``, the ASCII drawing, the
certificate JSON writer and ``certificate_to_witness`` work on the runs.
Each is compared here with a per-placement reference on every corpus
certificate and on seeded mutants: deleted, duplicated, shifted and
retiled placements, shuffled order, stacked cells, gaps, negative
coordinates, and foreign tiles.  A mutant with a non-integer coordinate
is refused when it is built, as the JSON loader refuses it.  The builder,
forced search, the JSON loader and the witness reader's inverse each
make a certificate that must equal the constructor's on its placements,
and no reader may spell the placements.  Equality and hashing compare
runs, and must agree with a cell-by-cell comparison.  The memoised
``compile_tiles`` is tested here too, since the builder reuses its system.
"""

import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction

import pytest

from tilechain.compiler import _build_system, compile_tiles, initial_map
from tilechain.edges import Ring, UnknownTile, Z, evaluate_placements
from tilechain.engine import (AuditFlag, AuditReport, build_accepting_tiling,
                              claims_audit, verify_zero)
from tilechain.machines import two_symbol_eraser, unary_eraser
from tilechain.deduce import (MalformedInput, forced_search,
                              parse_initial_shape)
from tilechain.modules import (DuplicateShift, certificate_to_witness,
                               witness_to_certificate)
from tilechain.render import render_certificate_ascii, render_certificate_svg
from tilechain.tiling import (ARROW_R, C0, Certificate, Placement,
                              Placements, Tile, _placement_runs,
                              certificate_from_dict, certificate_to_dict,
                              dump_certificate, letter, load_certificate,
                              tile_to_dict)

from conftest import RUN_FUEL
from test_render import reference_ascii

MUTANTS_PER_BASE = 44
FOREIGN = Tile(letter("zz"), C0, letter("zz"), ARROW_R, name="foreign")


def reference_audit(cert, f0):
    """``claims_audit`` as it read every placement one by one."""
    try:
        n, _, _ = parse_initial_shape(f0)
    except MalformedInput as exc:
        return AuditReport((AuditFlag("malformed-input", 0, 0, str(exc)),))
    flags = []
    seen = {}
    for placement in cert.placements:
        tile, x, y = placement.tile, placement.x, placement.y
        label = tile.name or "tile"
        if y < 0 or (y == 0 and x < n + 1):
            flags.append(AuditFlag("outside-region", x, y, label))
        if y >= 1 and tile.w == ARROW_R:
            flags.append(AuditFlag("floor-tile-raised", x, y, label))
        if x < 0 or x > cert.width_m:
            flags.append(AuditFlag("outside-columns", x, y, label))
        seen[(x, y)] = seen.get((x, y), 0) + 1
    for (x, y), count in sorted(seen.items()):
        if count > 1:
            flags.append(AuditFlag("stacked", x, y, f"{count} tiles"))
    return AuditReport(tuple(flags))


def reference_verify(f0, cert, ts):
    return (f0 + evaluate_placements(ts, cert.placements, f0.ring)).is_zero()


def reference_witness(cert, ts):
    """``certificate_to_witness`` as it read every placement one by one."""
    picks = []
    seen = set()
    for tile, x, y in cert.placements:
        if (x, y) in seen:
            raise DuplicateShift(f"two tiles at ({x}, {y})")
        seen.add((x, y))
        picks.append((ts.index_of(tile), x, y))
    return tuple(sorted(picks, key=lambda p: (p[2], p[1], p[0])))


def reference_dump(cert):
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def outcome(function, *args):
    """The value of ``function(*args)``, or the type and text of what it
    raised."""
    try:
        return ("value", function(*args))
    except Exception as exc:   # compared, never swallowed
        return ("raised", type(exc), str(exc))


def expand(runs):
    return [(tile, x0 + i, y)
            for tile, x0, y, count in runs for i in range(count)]


def loader_refusal(placements):
    """The JSON loader's text for the first x or y that is not an int, or
    None when every coordinate is one."""
    for _, x, y in placements:
        for field, value in (("x", x), ("y", y)):
            if type(value) is not int:
                return (f"placement field '{field}' must be an integer, "
                        f"not {type(value).__name__}")
    return None


# -- mutants ------------------------------------------------------------------

def _delete(rng, ps, ts):
    del ps[rng.randrange(len(ps))]


def _duplicate(rng, ps, ts):
    ps.insert(rng.randrange(len(ps) + 1), rng.choice(ps))


def _shift(rng, ps, ts):
    i = rng.randrange(len(ps))
    tile, x, y = ps[i]
    ps[i] = Placement(tile, x + rng.choice((-2, -1, 1, 2)),
                      y + rng.choice((-1, 0, 0, 1)))


def _retile(rng, ps, ts):
    i = rng.randrange(len(ps))
    ps[i] = ps[i]._replace(tile=rng.choice(ts.tiles))


def _equal_copy(rng, ps, ts):
    # An equal tile that is another object, so lookups by identity miss.
    i = rng.randrange(len(ps))
    ps[i] = ps[i]._replace(tile=dataclasses.replace(ps[i].tile))


def _shuffle(rng, ps, ts):
    rng.shuffle(ps)


def _stack(rng, ps, ts):
    _, x, y = rng.choice(ps)
    ps.insert(rng.randrange(len(ps) + 1),
              Placement(rng.choice(ts.tiles), x, y))


def _gap(rng, ps, ts):
    i = rng.randrange(len(ps))
    del ps[i:i + rng.randrange(1, 6)]


def _translate(rng, ps, ts):
    dx, dy = rng.randrange(-9, 1), rng.randrange(-4, 1)
    ps[:] = [Placement(tile, x + dx, y + dy) for tile, x, y in ps]


def _non_integer(rng, ps, ts):
    i = rng.randrange(len(ps))
    tile, x, y = ps[i]
    kind = rng.randrange(4)
    if kind == 0:
        ps[i] = Placement(tile, x + 0.5, y)
    elif kind == 1:
        ps[i] = Placement(tile, Fraction(2 * x + 1, 2), y)
    elif kind == 2:
        ps[i] = Placement(tile, float(x), y)
    else:
        ps[i] = Placement(tile, x, float(y))


def _foreign(rng, ps, ts):
    ps.insert(rng.randrange(len(ps) + 1),
              Placement(FOREIGN, rng.randrange(-1, 8), rng.randrange(4)))


MUTATIONS = (_delete, _duplicate, _shift, _retile, _equal_copy, _shuffle,
             _stack, _gap, _translate, _non_integer, _foreign)


def mutants(cert, ts, seed):
    """Seeded mutants of ``cert``, as placement tuples: one mutation of
    each kind, then mixes of one to three."""
    rng = random.Random(seed)
    plans = [[mutation] for mutation in MUTATIONS]
    while len(plans) < MUTANTS_PER_BASE:
        plans.append(rng.choices(MUTATIONS, k=rng.randrange(1, 4)))
    for plan in plans:
        ps = list(cert.placements)
        for mutation in plan:
            if ps:
                mutation(rng, ps, ts)
        yield [mutation.__name__ for mutation in plan], tuple(ps)


def bases(artifacts):
    """Every corpus certificate, and two larger built ones, as
    ``(machine, word, system, certificate)``."""
    found = []
    for name, word in artifacts.accepted_pairs():
        tm, ts, _, cert = artifacts.pipeline(name, word)
        found.append((tm, word, ts, cert))
    for tm, word in ((unary_eraser(), "a" * 9),
                     (two_symbol_eraser(), "abbab")):
        found.append((tm, word, compile_tiles(tm),
                      build_accepting_tiling(tm, word, 4000)))
    return found


def check_against_references(cert, ts, f0):
    assert outcome(verify_zero, f0, cert, ts) == \
        outcome(reference_verify, f0, cert, ts)
    assert outcome(claims_audit, cert, f0) == \
        outcome(reference_audit, cert, f0)
    assert outcome(render_certificate_ascii, cert) == \
        outcome(reference_ascii, cert)
    assert outcome(dump_certificate, cert) == outcome(reference_dump, cert)
    assert outcome(certificate_to_witness, cert, ts) == \
        outcome(reference_witness, cert, ts)
    assert expand(cert.runs()) == [tuple(p) for p in cert.placements]


RINGS = (Z, Ring(2), Ring(3))


class TestAgainstReferences:
    def test_corpus_certificates(self, artifacts):
        for tm, word, ts, cert in bases(artifacts):
            for ring in RINGS:
                f0 = initial_map(tm, word, ring)
                assert verify_zero(f0, cert, ts)
                check_against_references(cert, ts, f0)

    def test_seeded_mutants(self, artifacts):
        count = refused = cancelled = 0
        for seed, (tm, word, ts, cert) in enumerate(bases(artifacts)):
            for plan, placements in mutants(cert, ts, 20261019 + seed):
                f0 = initial_map(tm, word, RINGS[count % len(RINGS)])
                count += 1
                built = outcome(Certificate, placements, cert.width_m,
                                cert.rows)
                refusal = loader_refusal(placements)
                if refusal is not None:
                    # A non-integer coordinate never makes a certificate.
                    assert built == ("raised", ValueError, refusal), plan
                    refused += 1
                    continue
                assert built[0] == "value", plan
                mutant = built[1]
                try:
                    check_against_references(mutant, ts, f0)
                except AssertionError:
                    pytest.fail(f"{tm.states} {word!r} {plan} "
                                f"{f0.ring.name}")
                cancelled += outcome(verify_zero, f0, mutant, ts) == \
                    ("value", True)
        assert count >= 1000
        assert 0 < refused < count // 4
        # A shuffle or an equal copy still cancels; most mutants do not.
        assert 0 < cancelled < count // 2

    def test_ring_decides_cancellation(self, artifacts):
        # Two more copies of a placed tile vanish mod 2 only.
        tm, ts, _, cert = artifacts.pipeline("unary-eraser", "aa")
        first = cert.placements[0]
        doubled = Certificate((*cert.placements, first, first),
                              cert.width_m, cert.rows)
        for ring in RINGS:
            f0 = initial_map(tm, "aa", ring)
            assert verify_zero(f0, doubled, ts) == (ring == Ring(2))
            check_against_references(doubled, ts, f0)

    def test_equal_int_and_float_extremes(self, artifacts):
        # Cells are integer lattice points, so a float coordinate is
        # refused when the certificate is made, whichever placement comes
        # first, even where it equals an int at an extreme.
        _, ts, _, _ = artifacts.pipeline("unary-eraser", "a")
        tile, other = ts.tiles[:2]
        for cells, field in (([(0, 0), (0.0, 1)], "x"), ([(0.0, 1), (0, 0)], "x"),
                             ([(2, 0), (2.0, 1), (1, 1)], "x"),
                             ([(2.0, 1), (2, 0), (1, 1)], "x"),
                             ([(1, 0), (1, 0.0), (0, 2)], "y"),
                             ([(1, 0.0), (1, 0), (0, 2)], "y"),
                             ([(0, 0), (0, 1), (1, 1.0)], "y"),
                             ([(0, 0), (1, 1.0), (0, 1)], "y")):
            for pick in (tile, other):
                placements = tuple(Placement(pick if i else tile, x, y)
                                   for i, (x, y) in enumerate(cells))
                with pytest.raises(ValueError) as caught:
                    Certificate(placements, 3, 3)
                assert str(caught.value) == (
                    f"placement field '{field}' must be an integer, "
                    "not float") == loader_refusal(placements)

    def test_foreign_tile_raises_as_before(self, artifacts):
        _, ts, f0, cert = artifacts.pipeline("unary-eraser", "aa")
        foreign = Certificate((*cert.placements, Placement(FOREIGN, 1, 1)),
                              cert.width_m, cert.rows)
        result = outcome(verify_zero, f0, foreign, ts)
        assert result == outcome(reference_verify, f0, foreign, ts)
        assert result[:2] == ("raised", UnknownTile)


class TestRunView:
    def cert(self, artifacts):
        return artifacts.pipeline("two-symbol-eraser", "abba").cert

    def test_runs_spell_the_placements(self, artifacts):
        cert = self.cert(artifacts)
        runs = cert.runs()
        assert expand(runs) == [tuple(p) for p in cert.placements]
        assert len(runs) < len(cert.placements)
        assert cert.runs() is runs

    def test_runs_are_maximal(self, artifacts):
        runs = self.cert(artifacts).runs()
        for (tile, x0, y, count), (nxt, x1, y1, _) in zip(runs, runs[1:]):
            assert not (nxt is tile and y1 == y and x1 == x0 + count)

    def test_only_ints_extend_a_run(self):
        # Values equal to the next x or the row (1.0, 0.0, True,
        # Fraction(3)) do not extend a run: the certificate is refused.
        tile = FOREIGN
        row = (Placement(tile, 0, 0), Placement(tile, 1, 0),
               Placement(tile, 2, 0), Placement(tile, 4, 0),
               Placement(tile, 1, 1), Placement(tile, 2, 1))
        assert [run[1:] for run in Certificate(row, 4, 1).runs()] == [
            (0, 0, 3), (4, 0, 1), (1, 1, 2)]
        for i, x, y, field, kind in ((1, 1.0, 0, "x", "float"),
                                     (3, 3, 0.0, "y", "float"),
                                     (4, True, 1, "x", "bool"),
                                     (3, Fraction(3), 0, "x", "Fraction")):
            bent = row[:i] + (Placement(tile, x, y),) + row[i + 1:]
            with pytest.raises(ValueError) as caught:
                Certificate(bent, 4, 1)
            assert str(caught.value) == \
                f"placement field '{field}' must be an integer, not {kind}"

    def test_equal_tiles_that_are_other_objects_split_runs(self):
        twin = dataclasses.replace(FOREIGN)
        cert = Certificate((Placement(FOREIGN, 0, 0), Placement(twin, 1, 0)),
                           1, 0)
        assert len(cert.runs()) == 2

    def test_one_stored_form(self, artifacts):
        cert = self.cert(artifacts)
        fresh = Certificate(cert.placements, cert.width_m, cert.rows)
        assert [f.name for f in dataclasses.fields(fresh)] == [
            "placements", "width_m", "rows"]
        assert type(fresh.placements) is Placements
        assert fresh.placements is cert.placements
        scanned = Certificate(tuple(cert.placements), cert.width_m, cert.rows)
        assert type(scanned.placements) is Placements
        assert scanned == fresh == cert
        assert (repr(scanned), hash(scanned)) == (repr(fresh), hash(fresh))
        for clone in (dataclasses.replace(fresh),
                      pickle.loads(pickle.dumps(fresh)), copy.copy(fresh),
                      copy.deepcopy(fresh)):
            assert clone == fresh and hash(clone) == hash(fresh)
            assert clone.runs() == fresh.runs()
            # The runs a clone holds are the ones its own placements give.
            assert ([(id(t), x0, y, k) for t, x0, y, k in clone.runs()]
                    == [(id(t), x0, y, k) for t, x0, y, k
                        in _placement_runs(clone.placements)])
        assert dump_certificate(fresh) == reference_dump(cert)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fresh.placements.runs = ()

    def test_placements_read_as_a_sequence(self, artifacts):
        cert = self.cert(artifacts)
        cells = list(cert.placements)
        assert len(cert.placements) == len(cells) > len(cert.runs())
        assert all(type(p) is Placement for p in cells)
        assert cert.placements[0] == cells[0]
        assert cert.placements[-1] == cells[-1]
        assert cert.placements[1:] == tuple(cells[1:])
        assert cells[7] in cert.placements
        assert list(reversed(cert.placements)) == cells[::-1]
        # Spelled afresh on each read, and nothing is kept.
        assert list(cert.placements) == cells
        assert next(iter(cert.placements)) is not cells[0]
        assert vars(cert.placements) == {"runs": cert.runs()}

    def test_equal_tiles_compare_equal_across_runs(self):
        # Equal tiles that are other objects, or carry other names, split
        # runs by identity; equality and hashing still go by the cells.
        twin = dataclasses.replace(FOREIGN)
        renamed = dataclasses.replace(FOREIGN, name="renamed")
        other = Tile(C0, C0, C0, C0)
        one = Certificate(tuple(Placement(FOREIGN, x, 0) for x in range(4))
                          + (Placement(other, 4, 0), Placement(FOREIGN, 0, 1)),
                          4, 1)
        for left, right in ((twin, renamed), (renamed, FOREIGN),
                            (FOREIGN, twin)):
            two = Certificate((Placement(FOREIGN, 0, 0), Placement(left, 1, 0),
                               Placement(right, 2, 0), Placement(left, 3, 0),
                               Placement(other, 4, 0),
                               Placement(renamed, 0, 1)), 4, 1)
            assert len(two.runs()) > len(one.runs())
            assert identities(two.runs()) != identities(one.runs())
            assert one == two and two == one
            assert one.placements == two.placements
            assert hash(one) == hash(two)
            assert hash(one.placements) == hash(two.placements)
            assert tuple(one.placements) == tuple(two.placements)
            # Runs merged by equality are the same as runs given whole.
            whole = Certificate(Placements(((left, 0, 0, 4), (other, 4, 0, 1),
                                            (right, 0, 1, 1))), 4, 1)
            assert whole == two and hash(whole) == hash(two)
        for changed in ((Placement(other, 0, 0),), (Placement(FOREIGN, 5, 0),),
                        (Placement(FOREIGN, 0, 2),), ()):
            cells = (*one.placements, *changed)
            if not changed:
                cells = cells[:-1]
            bent = Certificate(cells, 4, 1)
            assert bent != one and bent.placements != one.placements
        assert one != Certificate(one.placements, 5, 1)
        assert one.placements != tuple(one.placements)

    def test_empty_certificate(self):
        empty = Certificate((), 0, 0)
        assert empty.runs() == ()
        check_against_references(empty, compile_tiles(unary_eraser()),
                                 initial_map(unary_eraser(), "a"))

    def test_loaded_rows_share_tiles(self, artifacts):
        _, ts, _, cert = artifacts.pipeline("unary-eraser", "aaaa")
        for back in (load_certificate(dump_certificate(cert)),
                     load_certificate(dump_certificate(cert), ts)):
            assert back == cert
            assert len(back.runs()) == len(cert.runs())


def identities(runs):
    return [(id(tile), x0, y, count) for tile, x0, y, count in runs]


def produced(artifacts):
    """Fresh certificates from every producer, as ``(producer, system,
    starting map, certificate)``: the builder, forced search, the JSON
    loader with and without the system, and the witness reader's inverse
    on the picks in shuffled order.  The inputs are every corpus pipeline
    and two larger ones with longer runs."""
    rng = random.Random(20261020)
    inputs = [artifacts.pipeline(name, word)[:3] + (word,)
              for name, word in artifacts.accepted_pairs()]
    for tm, word in ((unary_eraser(), "a" * 12),
                     (two_symbol_eraser(), "abbab")):
        inputs.append((tm, compile_tiles(tm), initial_map(tm, word), word))
    for tm, ts, f0, word in inputs:
        built = build_accepting_tiling(tm, word, RUN_FUEL)
        text = dump_certificate(built)
        picks = list(certificate_to_witness(built, ts))
        rng.shuffle(picks)
        yield from (
            ("build", ts, f0, built),
            ("forced", ts, f0,
             forced_search(ts, f0, built.width_m, built.rows)),
            ("load", ts, f0, load_certificate(text)),
            ("load with system", ts, f0, load_certificate(text, ts)),
            ("witness", ts, f0, witness_to_certificate(picks, ts)))


def spelling_refused(*args):
    raise AssertionError("placements spelled cell by cell")


class TestProducersStoreRuns:
    def test_readers_do_not_expand_placements(self, artifacts, monkeypatch):
        certs = list(produced(artifacts))
        empty = load_certificate('{"m": 0, "rows": 0, "placements": []}')
        reference = reference_dump(Certificate((), 0, 0))
        monkeypatch.setattr(Placements, "__iter__", spelling_refused)
        monkeypatch.setattr(Placements, "__getitem__", spelling_refused)
        with pytest.raises(AssertionError, match="cell by cell"):
            list(certs[0][3].placements)
        for producer, ts, f0, cert in certs:
            assert type(cert.placements) is Placements, producer
            assert verify_zero(f0, cert, ts)
            assert claims_audit(cert, f0).ok
            render_certificate_ascii(cert)
            render_certificate_svg(cert)
            dump_certificate(cert)
            certificate_to_witness(cert, ts)
        assert (render_certificate_ascii(empty), dump_certificate(empty)) \
            == ("", reference)
        render_certificate_svg(empty)
        assert len(certs) >= 5 * 20

    def test_equal_to_the_constructor_on_its_placements(self, artifacts):
        for producer, ts, f0, cert in produced(artifacts):
            runs = cert.runs()
            ref = Certificate(tuple(cert.placements), cert.width_m, cert.rows)
            assert cert.runs() is runs
            assert cert == ref and ref == cert, producer
            assert (hash(cert), repr(cert)) == (hash(ref), repr(ref))
            # Maximal by tile identity: the constructor's scan finds the
            # same runs in the placements they spell.
            assert identities(runs) == \
                identities(_placement_runs(cert.placements)) == \
                identities(ref.runs()), producer
            assert expand(runs) == [tuple(p) for p in cert.placements]
            assert all(type(p) is Placement for p in cert.placements)

    def test_clones_keep_runs_and_value(self, artifacts):
        for producer, ts, f0, cert in produced(artifacts):
            clones = (pickle.loads(pickle.dumps(cert)), copy.copy(cert),
                      copy.deepcopy(cert), dataclasses.replace(cert),
                      dataclasses.replace(cert, placements=cert.placements),
                      dataclasses.replace(
                          cert, placements=tuple(cert.placements)))
            for clone in clones:
                assert clone == cert and hash(clone) == hash(cert), producer
                assert clone.runs() == cert.runs()
                assert identities(clone.runs()) == \
                    identities(_placement_runs(clone.placements))
            assert copy.copy(cert).runs() is cert.runs()

    def test_a_cell_less_fails_verification(self, artifacts):
        # The benchmark self-test's tamper: slicing spells the placements,
        # and the certificate made from the rest no longer cancels.
        for producer, ts, f0, cert in produced(artifacts):
            tampered = dataclasses.replace(cert,
                                           placements=cert.placements[1:])
            assert type(tampered.placements) is Placements
            assert len(tampered.placements) == len(cert.placements) - 1
            assert tampered != cert
            assert not verify_zero(f0, tampered, ts), producer

    def test_loader_refuses_a_cell_inside_a_run(self):
        # Values equal to the next x or to the run's row never extend a
        # run, so each is refused as the constructor refuses it.
        tile = tile_to_dict(FOREIGN)
        for i, x, y, field, kind in ((2, 2, 0.0, "y", "float"),
                                     (2, 2.0, 0, "x", "float"),
                                     (1, True, 0, "x", "bool"),
                                     (3, 3, False, "y", "bool"),
                                     (0, "0", 0, "x", "str"),
                                     (1, 1, None, "y", "NoneType")):
            cells = [[x0, 0] for x0 in range(5)]
            cells[i] = [x, y]
            data = {"m": 4, "rows": 0, "placements": [
                {"tile": tile, "x": x0, "y": y0} for x0, y0 in cells]}
            message = f"placement field '{field}' must be an integer, " \
                f"not {kind}"
            with pytest.raises(ValueError) as caught:
                certificate_from_dict(data)
            assert str(caught.value) == message
            placements = tuple(Placement(FOREIGN, x0, y0)
                               for x0, y0 in cells)
            assert outcome(Certificate, placements, 4, 0) == \
                ("raised", ValueError, message)

    def test_loader_runs_split_where_tiles_rows_or_columns_change(self):
        tile, other = tile_to_dict(FOREIGN), tile_to_dict(Tile(C0, C0, C0, C0))
        rows = [(tile, 0, 0), (tile, 1, 0), (other, 2, 0), (tile, 3, 0),
                (tile, 5, 0), (tile, 6, 1), (tile, 7, 1), (tile, 7, 1)]
        cert = certificate_from_dict({"m": 7, "rows": 1, "placements": [
            {"tile": t, "x": x, "y": y} for t, x, y in rows]})
        assert [run[1:] for run in cert.runs()] == [
            (0, 0, 2), (2, 0, 1), (3, 0, 1), (5, 0, 1), (6, 1, 2), (7, 1, 1)]
        assert identities(cert.runs()) == \
            identities(_placement_runs(cert.placements))

    def test_runs_constructor_refuses_what_the_constructor_refuses(self):
        for runs, message in (
                ([(FOREIGN, 0, 0, 2.0)],
                 "run field 'count' must be an integer, not float"),
                ([(FOREIGN, 0, 0, True)],
                 "run field 'count' must be an integer, not bool"),
                ([(FOREIGN, 0, 0, 0)],
                 "run field 'count' must be at least 1, not 0"),
                ([(FOREIGN, 0, 0, 2), (FOREIGN, 3, 0, -1)],
                 "run field 'count' must be at least 1, not -1"),
                ([(FOREIGN, 0.0, 0, 2)],
                 "placement field 'x' must be an integer, not float"),
                ([(FOREIGN, 0, 0, 1), (FOREIGN, 0, True, 1)],
                 "placement field 'y' must be an integer, not bool"),
                ([(FOREIGN, 0.5, 0.5, 1)],
                 "placement field 'x' must be an integer, not float")):
            with pytest.raises(ValueError) as caught:
                Placements(runs)
            assert str(caught.value) == message

    def test_size_is_checked_before_the_cells(self):
        bent = (Placement(FOREIGN, 0.5, 0.5),)
        for m, rows, message in (
                (1.0, 0, "certificate field 'm' must be an integer, "
                 "not float"),
                (1, None, "certificate field 'rows' must be an integer, "
                 "not NoneType")):
            for placements in (bent, Placements()):
                with pytest.raises(ValueError) as caught:
                    Certificate(placements, m, rows)
                assert str(caught.value) == message


class TestCompileMemo:
    def test_equal_machines_share_one_system(self):
        assert compile_tiles(unary_eraser()) is compile_tiles(unary_eraser())

    def test_changed_transition_gives_another_system(self):
        tm = unary_eraser()
        key = next(iter(tm.transitions))
        p, b, move = tm.transitions[key]
        other = dataclasses.replace(
            tm, transitions={**tm.transitions,
                             key: (p, b, "L" if move == "R" else "R")})
        assert compile_tiles(other) != compile_tiles(tm)
        assert compile_tiles(other) == _build_system(other)

    def test_table_mutated_in_place_is_compiled_again(self):
        tm = unary_eraser()
        before = compile_tiles(tm)
        key = next(iter(tm.transitions))
        p, b, move = tm.transitions[key]
        tm.transitions[key] = (p, b, "L" if move == "R" else "R")
        after = compile_tiles(tm)
        assert after is not before and after != before
        assert after == _build_system(tm)

    def test_tile_order_matches_an_uncached_compile(self, artifacts):
        for tm in artifacts.machines.values():
            cached = compile_tiles(tm)
            fresh = _build_system(tm)
            assert cached == fresh
            assert [t.name for t in cached.tiles] == \
                [t.name for t in fresh.tiles]
