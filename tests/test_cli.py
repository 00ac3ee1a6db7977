"""End-to-end tests of the command-line interface: every subcommand, the
documented exit codes (0 success, 1 negative search/check, 2 usage,
3 input error, 4 internal error), and byte-stable outputs."""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tilechain import cli as cli_module
from tilechain.cli import main
from tilechain.compiler import compile_tiles, initial_map
from tilechain.edges import EdgeMap, Ring, Z, dump_edgemap, load_edgemap
from tilechain.engine import build_accepting_tiling
from tilechain.groups import make_submonoid_instance, submonoid_to_dict
from tilechain.machines import mini_eraser, right_walker, unary_eraser
from tilechain.modules import (
    SemimoduleInstance,
    instance_from_dict,
    instance_to_dict,
    member_bounded,
    subset_sum_bounded,
    tiling_to_instance,
    tiling_to_subset_sum,
    unit,
    verify_witness,
    witness_from_dict,
)
from tilechain.rational import (
    build_L,
    dump_nfa,
    make_rational_instance,
    rational_from_dict,
    rational_to_dict,
    regex_to_nfa,
)
from tilechain.render import (
    render_certificate_ascii,
    render_certificate_svg,
    render_edgemap_ascii,
)
from tilechain.tiling import (
    Certificate,
    Placement,
    dump_certificate,
    dump_system,
    load_certificate,
    load_system,
)
from tilechain.tm import dump_tm, normalize, run

from conftest import JSON_TYPE, JSON_VALUES


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace of input files plus reference objects built in-library."""
    root = tmp_path_factory.mktemp("cli")
    w = SimpleNamespace(root=root)

    w.unary = root / "unary.json"
    w.unary.write_text(dump_tm(unary_eraser()))
    w.mini = root / "mini.json"
    w.mini.write_text(dump_tm(mini_eraser()))
    w.walker = root / "walker.json"
    w.walker.write_text(dump_tm(right_walker()))

    w.mini_tm = mini_eraser()
    w.mini_ts = compile_tiles(w.mini_tm)
    w.mini_f0 = initial_map(w.mini_tm, "a")
    w.mini_cert = build_accepting_tiling(w.mini_tm, "a", 500)

    w.unary_tm = unary_eraser()
    w.unary_ts = compile_tiles(w.unary_tm)
    w.unary_f0 = initial_map(w.unary_tm, "a")
    w.unary_cert = build_accepting_tiling(w.unary_tm, "a", 500)

    def dump_json(name, data):
        path = root / name
        path.write_text(json.dumps(data, indent=2) + "\n")
        return path

    w.sem_mini_z = dump_json(
        "sem_mini_z.json",
        instance_to_dict(tiling_to_instance(w.mini_ts, w.mini_f0)))
    w.sub_mini_2 = dump_json(
        "sub_mini_2.json",
        instance_to_dict(tiling_to_subset_sum(
            w.mini_ts, initial_map(w.mini_tm, "a", Ring(2)))))
    w.sub_mini_z = dump_json(
        "sub_mini_z.json",
        instance_to_dict(tiling_to_subset_sum(w.mini_ts, w.mini_f0)))

    ring = Ring(2)
    f = unit(ring, 1, 0, 0, 0)
    w.toy_inst = SemimoduleInstance(ring, 1, (f,), f, mode="subset-sum")
    w.rat_toy = dump_json("rat_toy.json",
                          rational_to_dict(make_rational_instance(w.toy_inst)))

    return w


# ---------------------------------------------------------------------------
# machine commands


class TestMachineCommands:
    def test_validate_ok(self, capsys, ws):
        code, out, _ = cli(capsys, "tm", "validate", "--tm", str(ws.unary))
        assert code == 0 and out == "machine is well-formed\n"

    def test_validate_reports_problems(self, capsys, ws):
        code, out, _ = cli(capsys, "tm", "validate", "--tm", str(ws.mini))
        assert code == 3
        assert "missing transition" in out

    def test_normalize_totalizes(self, capsys, ws, tmp_path):
        out_path = tmp_path / "norm.json"
        code, _, _ = cli(capsys, "tm", "normalize", "--tm", str(ws.mini),
                         "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == dump_tm(normalize(mini_eraser()))

    def test_normalize_total_machine_echoes(self, capsys, ws):
        code, out, _ = cli(capsys, "tm", "normalize", "--tm", str(ws.unary))
        assert code == 0 and out == dump_tm(unary_eraser())

    def test_run_accepting(self, capsys, ws):
        code, out, _ = cli(capsys, "tm", "run", "--tm", str(ws.unary),
                           "--input", "a", "--fuel", "500")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "   0        q0 @ 0  [a]"
        trace = run(unary_eraser(), ["a"], 500)
        assert lines[-1] == \
            f"accepted in {trace.steps} steps, space {trace.space}"
        assert len(lines) == len(trace.configs) + 1

    def test_run_out_of_fuel(self, capsys, ws):
        code, _, err = cli(capsys, "tm", "run", "--tm", str(ws.walker),
                           "--input", "a", "--fuel", "50")
        assert code == 1
        assert err == "out of fuel after 50 steps\n"


# ---------------------------------------------------------------------------
# tiling commands


class TestTilingCommands:
    def test_compile(self, capsys, ws):
        code, out, _ = cli(capsys, "tile", "compile", "--tm", str(ws.mini))
        assert code == 0
        assert load_system(out) == ws.mini_ts

    def test_initial_with_ring(self, capsys, ws):
        code, out, _ = cli(capsys, "tile", "initial", "--tm", str(ws.mini),
                           "--input", "a", "--ring", "Zmod:2")
        assert code == 0
        assert load_edgemap(out) == initial_map(ws.mini_tm, "a", Ring(2))

    @pytest.mark.parametrize("ring", ["Zmod:x", "Zmod:03", "Zmod: 3", "Q"])
    def test_unknown_ring_is_3(self, capsys, ws, ring):
        code, out, err = cli(capsys, "tile", "initial", "--tm", str(ws.mini),
                             "--input", "a", "--ring", ring)
        assert (code, out, err) == (3, "", f"error: unknown ring {ring!r}\n")

    def test_build(self, capsys, ws, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = cli(capsys, "tile", "build", "--tm", str(ws.unary),
                         "--input", "a", "--fuel", "500", "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == dump_certificate(ws.unary_cert)

    def test_build_rejects_partial_machine(self, capsys, ws):
        code, _, err = cli(capsys, "tile", "build", "--tm", str(ws.mini),
                           "--input", "a", "--fuel", "500")
        assert code == 3
        assert err.startswith("error: invalid machine:")

    def test_build_out_of_fuel(self, capsys, ws):
        code, _, err = cli(capsys, "tile", "build", "--tm", str(ws.walker),
                           "--input", "a", "--fuel", "50")
        assert code == 1
        assert err == "out of fuel after 50 steps\n"

    def test_verify(self, capsys, ws, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(dump_certificate(ws.unary_cert))
        code, out, _ = cli(capsys, "tile", "verify", "--tm", str(ws.unary),
                           "--input", "a", "--cert", str(cert_path))
        assert code == 0 and out == "zero sum verified\n"

    def test_verify_wrong_word(self, capsys, ws, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(dump_certificate(ws.unary_cert))
        code, _, err = cli(capsys, "tile", "verify", "--tm", str(ws.unary),
                           "--input", "aa", "--cert", str(cert_path))
        assert code == 1 and err == "sum is not zero\n"

    def test_search_reproduces_build(self, capsys, ws, tmp_path):
        tiles = tmp_path / "tiles.json"
        init = tmp_path / "init.json"
        found = tmp_path / "found.json"
        assert cli(capsys, "tile", "compile", "--tm", str(ws.mini),
                   "-o", str(tiles))[0] == 0
        assert cli(capsys, "tile", "initial", "--tm", str(ws.mini),
                   "--input", "a", "-o", str(init))[0] == 0
        code, _, _ = cli(capsys, "tile", "search", "--tiles", str(tiles),
                         "--initial", str(init),
                         "--max-m", str(ws.mini_cert.width_m),
                         "--max-rows", str(ws.mini_cert.rows),
                         "-o", str(found))
        assert code == 0
        assert found.read_text() == dump_certificate(ws.mini_cert)

    def test_search_negative(self, capsys, ws, tmp_path):
        tiles = tmp_path / "tiles.json"
        init = tmp_path / "init.json"
        assert cli(capsys, "tile", "compile", "--tm", str(ws.walker),
                   "-o", str(tiles))[0] == 0
        assert cli(capsys, "tile", "initial", "--tm", str(ws.walker),
                   "--input", "a", "-o", str(init))[0] == 0
        code, _, err = cli(capsys, "tile", "search", "--tiles", str(tiles),
                           "--initial", str(init), "--max-m", "4",
                           "--max-rows", "6")
        assert code == 1
        assert err == "no certificate within bounds\n"

    def test_audit_clean(self, capsys, ws, tmp_path):
        cert_path = tmp_path / "cert.json"
        init_path = tmp_path / "init.json"
        cert_path.write_text(dump_certificate(ws.unary_cert))
        assert cli(capsys, "tile", "initial", "--tm", str(ws.unary),
                   "--input", "a", "-o", str(init_path))[0] == 0
        code, out, _ = cli(capsys, "tile", "audit", "--cert", str(cert_path),
                           "--initial", str(init_path))
        assert code == 0 and out == "no structural flags\n"

    def test_audit_flags_stray_tile(self, capsys, ws, tmp_path):
        tile = ws.unary_cert.placements[0].tile
        bad = Certificate((*ws.unary_cert.placements, Placement(tile, 50, 50)),
                          ws.unary_cert.width_m, ws.unary_cert.rows)
        cert_path = tmp_path / "bad.json"
        init_path = tmp_path / "init.json"
        cert_path.write_text(dump_certificate(bad))
        assert cli(capsys, "tile", "initial", "--tm", str(ws.unary),
                   "--input", "a", "-o", str(init_path))[0] == 0
        code, out, _ = cli(capsys, "tile", "audit", "--cert", str(cert_path),
                           "--initial", str(init_path))
        assert code == 1
        assert "at (50, 50):" in out
        assert "no structural flags" not in out

    def test_far_vertical_entry_is_malformed_input(self, capsys, ws,
                                                   tmp_path):
        # A vertical entry at x = 2**70 once overflowed building the row's
        # range: an internal error (exit 4) in both commands.
        good = initial_map(unary_eraser(), "a")
        far = EdgeMap(Z, [(((2**70 if o == "V" else x, y, o), c), v)
                          for (((x, y, o), c), v) in good.support()])
        init_path = tmp_path / "far.json"
        init_path.write_text(dump_edgemap(far))
        tiles = tmp_path / "tiles.json"
        tiles.write_text(dump_system(compile_tiles(unary_eraser())))
        code, _, err = cli(capsys, "tile", "search", "--tiles", str(tiles),
                           "--initial", str(init_path), "--max-m", "4",
                           "--max-rows", "4")
        assert code == 3
        assert "row positions not contiguous from 0" in err
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(dump_certificate(ws.unary_cert))
        code, out, _ = cli(capsys, "tile", "audit", "--cert", str(cert_path),
                           "--initial", str(init_path))
        assert code == 1
        assert out == ("malformed-input at (0, 0): row positions not "
                       "contiguous from 0\n")


# ---------------------------------------------------------------------------
# reductions


class TestReduceCommands:
    def test_reduce_semimodule(self, capsys, ws):
        code, out, _ = cli(capsys, "reduce", "semimodule",
                           "--tm", str(ws.unary), "--input", "a")
        assert code == 0
        expected = tiling_to_instance(ws.unary_ts, ws.unary_f0)
        assert instance_from_dict(json.loads(out)) == expected

    def test_reduce_subset_sum_with_ring(self, capsys, ws):
        code, out, _ = cli(capsys, "reduce", "subset-sum",
                           "--tm", str(ws.unary), "--input", "a",
                           "--ring", "Zmod:3")
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "subset-sum" and data["ring"] == "Zmod:3"
        expected = tiling_to_subset_sum(
            ws.unary_ts, initial_map(ws.unary_tm, "a", Ring(3)))
        assert instance_from_dict(data) == expected

    @pytest.mark.parametrize("flavor", ["wreath", "free-metabelian"])
    def test_reduce_submonoid(self, capsys, ws, flavor):
        code, out, _ = cli(capsys, "reduce", "submonoid",
                           "--instance", str(ws.sem_mini_z),
                           "--flavor", flavor)
        assert code == 0
        expected = make_submonoid_instance(
            tiling_to_instance(ws.mini_ts, ws.mini_f0), flavor)
        assert json.loads(out) == submonoid_to_dict(expected)

    def test_reduce_submonoid_flow_needs_integers(self, capsys, ws):
        code, _, err = cli(capsys, "reduce", "submonoid",
                           "--instance", str(ws.sub_mini_2),
                           "--flavor", "free-metabelian")
        assert code == 3
        assert "requires integer ring" in err

    def test_reduce_rational(self, capsys, ws, tmp_path):
        nfa_path = tmp_path / "nfa.json"
        code, out, _ = cli(capsys, "reduce", "rational",
                           "--instance", str(ws.sub_mini_2),
                           "--nfa", str(nfa_path))
        assert code == 0
        sub = tiling_to_subset_sum(ws.mini_ts,
                                   initial_map(ws.mini_tm, "a", Ring(2)))
        expected = make_rational_instance(sub)
        loaded = rational_from_dict(json.loads(out))
        assert loaded == expected
        assert loaded.bindings == expected.bindings
        assert loaded.target == expected.target
        assert nfa_path.read_text() == \
            dump_nfa(regex_to_nfa(build_L(len(ws.mini_ts.tiles))))

    def test_reduce_rational_needs_subset_mode(self, capsys, ws):
        code, _, err = cli(capsys, "reduce", "rational",
                           "--instance", str(ws.sem_mini_z))
        assert code == 3
        assert "subset-sum" in err


# ---------------------------------------------------------------------------
# bounded solvers


class TestSolveCommands:
    def test_solve_semimodule(self, capsys, ws):
        code, out, _ = cli(capsys, "solve", "semimodule",
                           "--instance", str(ws.sem_mini_z),
                           "--window", "0,0,3,3")
        assert code == 0
        inst = tiling_to_instance(ws.mini_ts, ws.mini_f0)
        witness = witness_from_dict(json.loads(out))
        assert verify_witness(inst, witness)
        assert witness == member_bounded(inst, (0, 0, 3, 3))

    def test_solve_semimodule_negative(self, capsys, ws):
        code, _, err = cli(capsys, "solve", "semimodule",
                           "--instance", str(ws.sem_mini_z),
                           "--window", "0,0,0,0")
        assert code == 1
        assert err == "no witness within bounds\n"

    def test_solve_semimodule_exact_negative(self, capsys, ws, tmp_path):
        # Over a prime modulus the "no" comes from exact elimination, so
        # it names the whole window rather than a search bound.
        inst = tmp_path / "walker2.json"
        code, _, _ = cli(capsys, "reduce", "semimodule", "--tm",
                         str(ws.walker), "--input", "a", "--ring", "Zmod:2",
                         "--out", str(inst))
        assert code == 0
        code, out, err = cli(capsys, "solve", "semimodule",
                             "--instance", str(inst), "--window", "0,0,6,8")
        assert code == 1 and out == ""
        assert err == ("no witness in window 0,0,6,8 "
                       "(exact elimination over Z/2)\n")

    def test_solve_semimodule_large_modulus(self, capsys, ws, tmp_path):
        # 2**61 - 1 is recognised as prime at once and eliminated; at
        # psi_13 the primality bases are no longer exact, so it is refused.
        prime, psi_13 = 2**61 - 1, 3_317_044_064_679_887_385_961_981
        window = f"0,0,{ws.unary_cert.width_m},{ws.unary_cert.rows}"
        for modulus in (prime, psi_13):
            inst = tmp_path / f"{modulus}.json"
            assert cli(capsys, "reduce", "semimodule", "--tm", str(ws.unary),
                       "--input", "a", "--ring", f"Zmod:{modulus}",
                       "--out", str(inst))[0] == 0
            code, out, err = cli(capsys, "solve", "semimodule", "--instance",
                                 str(inst), "--window", window)
            if modulus == prime:
                instance = instance_from_dict(json.loads(inst.read_text()))
                witness = witness_from_dict(json.loads(out))
                assert code == 0 and verify_witness(instance, witness)
            else:
                assert (code, out) == (3, "")
                assert err == (f"error: cannot decide whether {psi_13} is "
                               f"prime: Miller-Rabin on the prime bases 2 "
                               f"to 41 is exact only below {psi_13}\n")

    def test_solve_semimodule_refuses_float_coordinate(self, capsys, ws,
                                                       tmp_path):
        data = json.loads(ws.sem_mini_z.read_text())
        data["target"]["entries"][0]["x"] = 2.7
        inst = tmp_path / "float_x.json"
        inst.write_text(json.dumps(data))
        code, out, err = cli(capsys, "solve", "semimodule",
                             "--instance", str(inst), "--window", "0,0,3,3")
        assert code == 3 and out == ""
        assert err == ("error: module entry field 'x' must be an integer, "
                       "not float\n")

    def test_solve_subset_sum(self, capsys, ws):
        code, out, _ = cli(capsys, "solve", "subset-sum",
                           "--instance", str(ws.sub_mini_2),
                           "--window", "0,0,3,3")
        assert code == 0
        inst = tiling_to_subset_sum(ws.mini_ts,
                                    initial_map(ws.mini_tm, "a", Ring(2)))
        witness = witness_from_dict(json.loads(out))
        assert verify_witness(inst, witness)
        assert witness == subset_sum_bounded(inst, (0, 0, 3, 3))

    def test_solve_subset_sum_refuses_integer_ring(self, capsys, ws):
        code, _, err = cli(capsys, "solve", "subset-sum",
                           "--instance", str(ws.sub_mini_z),
                           "--window", "0,0,3,3")
        assert code == 3
        assert "modular ring" in err

    def test_solve_rational(self, capsys, ws):
        code, out, _ = cli(capsys, "solve", "rational",
                           "--instance", str(ws.rat_toy),
                           "--max-len", "5")
        assert code == 0
        word = json.loads(out)["word"]
        assert len(word.split()) == 5 and "g0" in word

    def test_solve_rational_negative(self, capsys, ws):
        code, _, err = cli(capsys, "solve", "rational",
                           "--instance", str(ws.rat_toy),
                           "--max-len", "4")
        assert code == 1
        assert err == "no witness within bounds\n"

    def test_bad_window(self, capsys, ws):
        code, _, err = cli(capsys, "solve", "semimodule",
                           "--instance", str(ws.sem_mini_z),
                           "--window", "1,2")
        assert code == 3
        assert err == "error: window must be x0,y0,x1,y1\n"
        for reversed_box in ("1,0,0,0", "0,1,0,0"):
            code, _, err = cli(capsys, "solve", "semimodule",
                               "--instance", str(ws.sem_mini_z),
                               "--window", reversed_box)
            assert code == 3
            assert err == "error: window needs x0 <= x1 and y0 <= y1\n"

    def test_max_coeff_below_one_is_3(self, capsys, ws):
        code, out, err = cli(capsys, "solve", "semimodule",
                             "--instance", str(ws.sem_mini_z),
                             "--window", "0,0,3,3", "--max-coeff", "0")
        assert code == 3
        assert out == ""
        assert err == "error: max_coeff must be at least 1\n"

    # "@name" stands for the path of the workspace file ``ws.name``.
    @pytest.mark.parametrize("argv,floor", [
        (("tm", "run", "--tm", "@walker", "--input", "a", "--fuel", "-3"), 0),
        (("tile", "build", "--tm", "@unary", "--input", "a",
          "--fuel", "-1"), 0),
        (("solve", "semimodule", "--instance", "@sem_mini_z",
          "--window", "0,0,3,3", "--fuel", "0"), 1),
        (("solve", "semimodule", "--instance", "@sem_mini_z",
          "--window", "0,0,3,3", "--fuel", "-5"), 1),
        (("solve", "subset-sum", "--instance", "@sub_mini_2",
          "--window", "0,0,3,3", "--fuel", "0"), 1),
        (("solve", "subset-sum", "--instance", "@sub_mini_2",
          "--window", "0,0,3,3", "--fuel", "-5"), 1),
    ])
    def test_fuel_below_floor_is_3(self, capsys, ws, argv, floor):
        argv = [str(getattr(ws, a[1:])) if a.startswith("@") else a
                for a in argv]
        code, out, err = cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"error: --fuel must be at least {floor}\n"

    def test_fuel_at_floor_is_searched(self, capsys, ws):
        code, _, err = cli(capsys, "tm", "run", "--tm", str(ws.walker),
                           "--input", "a", "--fuel", "0")
        assert code == 1
        assert err == "out of fuel after 0 steps\n"
        code, _, err = cli(capsys, "solve", "subset-sum",
                           "--instance", str(ws.sub_mini_2),
                           "--window", "0,0,3,3", "--fuel", "1")
        assert code == 1
        assert err == "no witness within bounds\n"

    def test_bad_wreath_position_is_3(self, capsys, ws, tmp_path):
        data = json.loads(ws.rat_toy.read_text())
        data["bindings"]["x"]["pos"] = [1, 0, 0]
        path = tmp_path / "rat_bad_pos.json"
        path.write_text(json.dumps(data))
        code, out, err = cli(capsys, "solve", "rational",
                             "--instance", str(path), "--max-len", "5")
        assert code == 3
        assert out == ""
        assert err == "error: pos must be two integers, got [1, 0, 0]\n"

    def test_unknown_lamp_field_is_3(self, capsys, ws, tmp_path):
        data = json.loads(ws.rat_toy.read_text())
        data["target"]["fun"] = [{"a": 0, "b": 0, "value": 1, "junk": 5}]
        path = tmp_path / "rat_bad_lamp.json"
        path.write_text(json.dumps(data))
        code, out, err = cli(capsys, "solve", "rational",
                             "--instance", str(path), "--max-len", "5")
        assert code == 3
        assert out == ""
        assert err == "error: unknown lamp entry fields: ['junk']\n"

    def test_float_stride_is_3(self, capsys, ws, tmp_path):
        data = json.loads(ws.rat_toy.read_text())
        data["stride"] = 7.5
        path = tmp_path / "rat_float_stride.json"
        path.write_text(json.dumps(data))
        code, out, err = cli(capsys, "solve", "rational",
                             "--instance", str(path), "--max-len", "5")
        assert code == 3
        assert out == ""
        assert err == ("error: rational instance field 'stride' must be an "
                       "integer, not float\n")

    @pytest.mark.parametrize("expr", ["(" * 400 + "x" + ")" * 400,
                                      "x" + " *" * 5000],
                             ids=["parentheses", "stars"])
    def test_deep_expression_is_3(self, capsys, ws, tmp_path, expr):
        instance = instance_from_dict(json.loads(ws.sub_mini_2.read_text()))
        data = rational_to_dict(make_rational_instance(instance))
        data["expr"] = expr
        path = tmp_path / "rat_deep.json"
        path.write_text(json.dumps(data))
        code, out, err = cli(capsys, "solve", "rational",
                             "--instance", str(path), "--max-len", "2")
        assert code == 3
        assert out == ""
        assert err == "error: expression nests deeper than 100 levels\n"

    def test_negative_max_len_is_3(self, capsys, ws):
        code, out, err = cli(capsys, "solve", "rational",
                             "--instance", str(ws.rat_toy),
                             "--max-len", "-2")
        assert code == 3
        assert out == ""
        assert err == "error: max_len must be at least 0\n"


# ---------------------------------------------------------------------------
# rendering


class TestRenderCommand:
    def test_render_certificate_ascii(self, capsys, ws, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(dump_certificate(ws.unary_cert))
        code, out, _ = cli(capsys, "render", "--cert", str(cert_path))
        assert code == 0
        assert out == render_certificate_ascii(ws.unary_cert)

    def test_render_certificate_svg(self, capsys, ws, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(dump_certificate(ws.unary_cert))
        code, out, _ = cli(capsys, "render", "--cert", str(cert_path),
                           "--format", "svg")
        assert code == 0
        assert out == render_certificate_svg(ws.unary_cert)

    def test_render_edgemap(self, capsys, ws, tmp_path):
        init_path = tmp_path / "init.json"
        assert cli(capsys, "tile", "initial", "--tm", str(ws.unary),
                   "--input", "a", "-o", str(init_path))[0] == 0
        code, out, _ = cli(capsys, "render", "--edgemap", str(init_path))
        assert code == 0
        assert out == render_edgemap_ascii(ws.unary_f0)

    @pytest.mark.parametrize("field, value, message", [
        ("x", "3", "error: placement field 'x' must be an integer, not str"),
        ("junk", 5, "error: unknown placement fields: ['junk']"),
    ])
    def test_malformed_certificate_is_3(self, capsys, ws, tmp_path, field,
                                        value, message):
        data = json.loads(dump_certificate(ws.unary_cert))
        data["placements"][1][field] = value
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(data))
        code, out, err = cli(capsys, "render", "--cert", str(cert_path))
        assert (code, out, err) == (3, "", message + "\n")

    def test_cert_and_edgemap_are_exclusive(self, ws):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--cert", "a.json", "--edgemap", "b.json"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exit codes and determinism


class TestExitCodes:
    def test_usage_error_is_2(self):
        for argv in ([], ["tm"], ["tile", "build", "--tm", "x"],
                     ["solve", "rational", "--instance", "x"],
                     ["frobnicate"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_missing_file_is_3(self, capsys, tmp_path):
        code, _, err = cli(capsys, "tm", "validate",
                           "--tm", str(tmp_path / "nope.json"))
        assert code == 3
        assert err.startswith("error: ")

    def test_malformed_json_is_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code, _, err = cli(capsys, "tm", "validate", "--tm", str(bad))
        assert code == 3
        assert err.startswith("error: ")


class TestNonStringNames:
    @pytest.mark.parametrize("ring, kind", [(5, "int"), (None, "NoneType"),
                                            (["Z"], "list")])
    def test_ring_name_must_be_a_string(self, capsys, tmp_path, ring, kind):
        path = tmp_path / "edgemap.json"
        path.write_text(json.dumps({"ring": ring, "entries": []}))
        code, out, err = cli(capsys, "render", "--edgemap", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: a ring must be named by a string, not {kind}\n"

    @pytest.mark.parametrize("color, kind", [(7, "int"), (True, "bool"),
                                             ({"kind": "c0"}, "dict")])
    def test_color_must_be_a_string(self, capsys, ws, tmp_path, color, kind):
        data = json.loads(dump_certificate(ws.mini_cert))
        data["placements"][0]["tile"]["e"] = color
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, out, err = cli(capsys, "render", "--cert", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: a color must be a string, not {kind}\n"


def mutate_one_field(rng, document):
    """A copy of ``document`` with one field, reached by a seeded walk
    down from the top, replaced by a value of another JSON type."""
    data = copy.deepcopy(document)
    node = data
    while True:
        key = rng.choice(list(node) if isinstance(node, dict)
                         else range(len(node)))
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.5:
            node = child
            continue
        other = rng.choice([kind for kind in JSON_VALUES
                            if kind != JSON_TYPE[type(child)]])
        node[key] = rng.choice(JSON_VALUES[other])
        return data


# Fields with a default: a tile's name, a tiling system's distinguished
# color.
_OPTIONAL = {"name", "distinguished"}


def delete_one_field(rng, document):
    """A copy of ``document`` with one required field, reached by a seeded
    walk down from the top, deleted; returns the copy and the field."""
    data = copy.deepcopy(document)
    node = data
    while True:
        key = rng.choice([key for key in node if key not in _OPTIONAL])
        child = node[key]
        # The bindings map's keys are letters, not fields: walk past them.
        if key == "bindings":
            child = list(child.values())
        if isinstance(child, list):
            objects = [item for item in child if isinstance(item, dict)]
            child = rng.choice(objects) if objects else None
        if isinstance(child, dict) and child and rng.random() < 0.5:
            node = child
            continue
        del node[key]
        return data, key


class TestMalformedDocuments:
    CASES_PER_KIND = 16

    @staticmethod
    def kinds(ws, tmp_path):
        """Every document kind the commands read, with the command that
        reads it; the document's path goes last."""
        initial = tmp_path / "initial.json"
        initial.write_text(dump_edgemap(ws.mini_f0))
        return [
            (json.loads(dump_tm(ws.mini_tm)),
             ["tile", "build", "--input", "a", "--fuel", "500", "--tm"]),
            (json.loads(dump_system(ws.mini_ts)),
             ["tile", "search", "--initial", str(initial), "--max-m", "4",
              "--max-rows", "4", "--tiles"]),
            (json.loads(dump_edgemap(ws.mini_f0)),
             ["render", "--edgemap"]),
            (json.loads(dump_certificate(ws.mini_cert)),
             ["render", "--format", "svg", "--cert"]),
            (json.loads(ws.sub_mini_2.read_text()),
             ["reduce", "rational", "--instance"]),
            (json.loads(ws.sem_mini_z.read_text()),
             ["reduce", "submonoid", "--instance"]),
            (json.loads(ws.rat_toy.read_text()),
             ["solve", "rational", "--max-len", "4", "--instance"]),
        ]

    def test_type_mutations_give_a_verdict_or_one_error_line(
            self, capsys, ws, tmp_path):
        # Each document kind with one field swapped for a value of another
        # JSON type: the command answers (0 or 1) or refuses the input (3)
        # in one `error:` line, never with an uncaught exception.
        rng = random.Random(20260829)
        path = tmp_path / "mutant.json"
        for document, argv in self.kinds(ws, tmp_path):
            for _ in range(self.CASES_PER_KIND):
                mutant = mutate_one_field(rng, document)
                path.write_text(json.dumps(mutant))
                code, out, err = cli(capsys, *argv, str(path))
                assert code in (0, 1, 3), (argv[:2], mutant, err)
                if code == 3:
                    assert out == "" and err.startswith("error: ") \
                        and err.count("\n") == 1, (argv[:2], mutant, err)
                else:
                    assert "error" not in err, (argv[:2], mutant, err)

    def test_deleted_fields_are_refused_by_name(self, capsys, ws, tmp_path):
        # Each document kind with one required field deleted: the command
        # refuses the input (3) in one `error:` line that names the field.
        rng = random.Random(20260829)
        path = tmp_path / "mutant.json"
        for document, argv in self.kinds(ws, tmp_path):
            for _ in range(self.CASES_PER_KIND):
                mutant, field = delete_one_field(rng, document)
                path.write_text(json.dumps(mutant))
                code, out, err = cli(capsys, *argv, str(path))
                assert (code, out) == (3, ""), (argv[:2], mutant, err)
                assert err.startswith("error: missing ") \
                    and repr(field) in err and err.count("\n") == 1, \
                    (argv[:2], field, err)


class TestInternalErrors:
    @pytest.mark.parametrize("exc,line", [
        (RecursionError("maximum recursion depth exceeded"),
         "internal error: RecursionError: maximum recursion depth exceeded"),
        (AssertionError("BFS hit 'g0 x' does not\nre-evaluate to the target"),
         "internal error: AssertionError: BFS hit 'g0 x' does not "
         "re-evaluate to the target"),
        # A defect's KeyError or TypeError is not a user's bad input.
        (KeyError("y"), "internal error: KeyError: 'y'"),
        (TypeError("unhashable type: 'list'"),
         "internal error: TypeError: unhashable type: 'list'"),
        (IndexError("list index out of range"),
         "internal error: IndexError: list index out of range"),
        (AttributeError("'NoneType' object has no attribute 'pos'"),
         "internal error: AttributeError: 'NoneType' object has no "
         "attribute 'pos'"),
    ])
    def test_internal_error_is_4(self, capsys, monkeypatch, ws, exc, line):
        def broken(args):
            raise exc

        monkeypatch.setattr(cli_module, "_cmd_solve_rational", broken)
        code, out, err = cli(capsys, "solve", "rational",
                             "--instance", str(ws.rat_toy), "--max-len", "5")
        assert code == 4
        assert out == ""
        assert err == line + "\n"
        assert "Traceback" not in err


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, ws, tmp_path):
        pairs = []
        for tag in ("one", "two"):
            tiles = tmp_path / f"tiles_{tag}.json"
            cert = tmp_path / f"cert_{tag}.json"
            inst = tmp_path / f"inst_{tag}.json"
            svg = tmp_path / f"cert_{tag}.svg"
            assert cli(capsys, "tile", "compile", "--tm", str(ws.unary),
                       "-o", str(tiles))[0] == 0
            assert cli(capsys, "tile", "build", "--tm", str(ws.unary),
                       "--input", "a", "--fuel", "500",
                       "-o", str(cert))[0] == 0
            assert cli(capsys, "reduce", "rational",
                       "--instance", str(ws.sub_mini_2),
                       "-o", str(inst))[0] == 0
            assert cli(capsys, "render", "--cert", str(cert),
                       "--format", "svg", "-o", str(svg))[0] == 0
            pairs.append((tiles.read_bytes(), cert.read_bytes(),
                          inst.read_bytes(), svg.read_bytes()))
        assert pairs[0] == pairs[1]


class TestSubprocessEntry:
    def test_module_invocation(self, ws):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tilechain.cli",
             "tm", "validate", "--tm", str(ws.unary)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, timeout=60)
        assert proc.returncode == 0
        assert b"machine is well-formed" in proc.stdout
