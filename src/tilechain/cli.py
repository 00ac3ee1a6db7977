"""Command-line interface for the reduction pipeline.

Exit codes: 0 on success (including "member found" and "verified"),
1 when a bounded search or check comes back negative (out of fuel, sum
not zero, audit flags raised, nothing found within bounds), 2 on usage
errors (argparse), 3 on input errors: exactly an ``OSError`` or
``ValueError`` (unreadable files, malformed documents, invalid machines,
bounds below their floor), 4 on any other exception, an internal error,
reported in one line with no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .compiler import compile_tiles, initial_map
from .deduce import forced_search
from .edges import dump_edgemap, load_edgemap, ring_from_name
from .engine import build_accepting_tiling, claims_audit, verify_zero
from .groups import make_submonoid_instance, submonoid_to_dict
from .modules import (instance_from_dict, instance_to_dict, member_bounded,
                      member_is_exact, subset_sum_bounded, tiling_to_instance,
                      witness_to_dict)
from .rational import (dump_nfa, make_rational_instance, rational_from_dict,
                       rational_member_bounded, rational_to_dict,
                       regex_to_nfa)
from .render import (render_certificate_ascii, render_certificate_svg,
                     render_edgemap_ascii, render_edgemap_svg)
from .tiling import dump_certificate, dump_system, load_certificate, \
    load_system
from .tm import dump_tm, load_tm, normalize, run, validate


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _json_dump(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def _load_machine(path: str, total: bool):
    """Load and validate a machine; unless ``total``, missing transitions
    are allowed, since normalizing and compiling are how they get fixed."""
    tm = load_tm(_read(path))
    problems = [p for p in validate(tm)
                if total or not p.startswith("missing transition")]
    if problems:
        raise ValueError("invalid machine: " + "; ".join(problems))
    return tm


def _parse_window(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("window must be x0,y0,x1,y1")
    x0, y0, x1, y1 = (int(p) for p in parts)
    if x0 > x1 or y0 > y1:
        raise ValueError("window needs x0 <= x1 and y0 <= y1")
    return (x0, y0, x1, y1)


def _fuel(args, floor: int) -> int:
    """The ``--fuel`` value, refused as an input error below ``floor``."""
    if args.fuel < floor:
        raise ValueError(f"--fuel must be at least {floor}")
    return args.fuel


# ---------------------------------------------------------------------------
# handlers

def _cmd_tm_validate(args) -> int:
    tm = load_tm(_read(args.tm))
    problems = validate(tm)
    for problem in problems:
        print(problem)
    if problems:
        return 3
    print("machine is well-formed")
    return 0


def _cmd_tm_normalize(args) -> int:
    tm = _load_machine(args.tm, total=False)
    _write(dump_tm(normalize(tm)), args.output)
    return 0


def _cmd_tm_run(args) -> int:
    tm = _load_machine(args.tm, total=False)
    trace = run(tm, list(args.input), _fuel(args, 0))
    if trace is None:
        print(f"out of fuel after {args.fuel} steps", file=sys.stderr)
        return 1
    for i, config in enumerate(trace.configs):
        tape = " ".join(config.tape)
        print(f"{i:4d}  {config.state:>8s} @ {config.head}  [{tape}]")
    print(f"accepted in {trace.steps} steps, space {trace.space}")
    return 0


def _cmd_tile_compile(args) -> int:
    ts = compile_tiles(_load_machine(args.tm, total=False))
    _write(dump_system(ts), args.output)
    return 0


def _cmd_tile_initial(args) -> int:
    tm = _load_machine(args.tm, total=False)
    f0 = initial_map(tm, list(args.input), ring_from_name(args.ring))
    _write(dump_edgemap(f0), args.output)
    return 0


def _cmd_tile_build(args) -> int:
    tm = _load_machine(args.tm, total=True)
    cert = build_accepting_tiling(tm, list(args.input), _fuel(args, 0))
    if cert is None:
        print(f"out of fuel after {args.fuel} steps", file=sys.stderr)
        return 1
    _write(dump_certificate(cert), args.output)
    return 0


def _cmd_tile_verify(args) -> int:
    tm = _load_machine(args.tm, total=True)
    ring = ring_from_name(args.ring)
    ts = compile_tiles(tm)
    f0 = initial_map(tm, list(args.input), ring)
    cert = load_certificate(_read(args.cert), ts)
    if verify_zero(f0, cert, ts):
        print("zero sum verified")
        return 0
    print("sum is not zero", file=sys.stderr)
    return 1


def _cmd_tile_search(args) -> int:
    ts = load_system(_read(args.tiles))
    f0 = load_edgemap(_read(args.initial))
    cert = forced_search(ts, f0, args.max_m, args.max_rows)
    if cert is None:
        print("no certificate within bounds", file=sys.stderr)
        return 1
    _write(dump_certificate(cert), args.output)
    return 0


def _cmd_tile_audit(args) -> int:
    cert = load_certificate(_read(args.cert))
    f0 = load_edgemap(_read(args.initial))
    report = claims_audit(cert, f0)
    for flag in report.flags:
        print(f"{flag.kind} at ({flag.x}, {flag.y}): {flag.detail}")
    if report.ok:
        print("no structural flags")
        return 0
    return 1


def _cmd_reduce_module(args) -> int:
    tm = _load_machine(args.tm, total=True)
    ring = ring_from_name(args.ring)
    ts = compile_tiles(tm)
    f0 = initial_map(tm, list(args.input), ring)
    instance = tiling_to_instance(ts, f0, args.mode)
    _write(_json_dump(instance_to_dict(instance)), args.output)
    return 0


def _cmd_reduce_submonoid(args) -> int:
    instance = instance_from_dict(json.loads(_read(args.instance)))
    sub = make_submonoid_instance(instance, args.flavor)
    _write(_json_dump(submonoid_to_dict(sub)), args.output)
    return 0


def _cmd_reduce_rational(args) -> int:
    instance = instance_from_dict(json.loads(_read(args.instance)))
    rat = make_rational_instance(instance)
    if args.nfa is not None:
        Path(args.nfa).write_text(dump_nfa(regex_to_nfa(rat.expr)))
    _write(_json_dump(rational_to_dict(rat)), args.output)
    return 0


def _cmd_solve_semimodule(args) -> int:
    instance = instance_from_dict(json.loads(_read(args.instance)))
    window = _parse_window(args.window)
    witness = member_bounded(instance, window, args.max_coeff, _fuel(args, 1))
    if witness is None:
        if member_is_exact(instance.ring):
            print(f"no witness in window {','.join(map(str, window))} (exact "
                  f"elimination over Z/{instance.ring.modulus})",
                  file=sys.stderr)
        else:
            print("no witness within bounds", file=sys.stderr)
        return 1
    _write(_json_dump(witness_to_dict("semimodule", witness)), args.output)
    return 0


def _cmd_solve_subset_sum(args) -> int:
    instance = instance_from_dict(json.loads(_read(args.instance)))
    witness = subset_sum_bounded(instance, _parse_window(args.window),
                                 _fuel(args, 1))
    if witness is None:
        print("no witness within bounds", file=sys.stderr)
        return 1
    _write(_json_dump(witness_to_dict("subset-sum", witness)), args.output)
    return 0


def _cmd_solve_rational(args) -> int:
    rat = rational_from_dict(json.loads(_read(args.instance)))
    word = rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                   args.max_len, rat.ring)
    if word is None:
        print("no witness within bounds", file=sys.stderr)
        return 1
    _write(_json_dump({"word": word}), args.output)
    return 0


def _cmd_render(args) -> int:
    if args.cert is not None:
        cert = load_certificate(_read(args.cert))
        text = (render_certificate_svg(cert) if args.format == "svg"
                else render_certificate_ascii(cert))
    else:
        f0 = load_edgemap(_read(args.edgemap))
        text = (render_edgemap_svg(f0) if args.format == "svg"
                else render_edgemap_ascii(f0))
    _write(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_output(parser) -> None:
    parser.add_argument("-o", "--output", default=None,
                        help="write to this file instead of stdout")


def _add_ring(parser) -> None:
    parser.add_argument("--ring", default="Z",
                        help="coefficient ring: Z or Zmod:n (default Z)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilechain",
        description="Turing machines, tiling certificates, and the "
                    "membership problems they reduce to.")
    top = parser.add_subparsers(dest="command", required=True)

    tm_parser = top.add_parser("tm", help="machine operations")
    tm_sub = tm_parser.add_subparsers(dest="subcommand", required=True)

    p = tm_sub.add_parser("validate", help="check machine well-formedness")
    p.add_argument("--tm", required=True)
    p.set_defaults(handler=_cmd_tm_validate)

    p = tm_sub.add_parser("normalize",
                          help="complete the table and route acceptance "
                               "through a tape-clearing sweep")
    p.add_argument("--tm", required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_tm_normalize)

    p = tm_sub.add_parser("run", help="simulate on an input word")
    p.add_argument("--tm", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--fuel", type=int, required=True)
    p.set_defaults(handler=_cmd_tm_run)

    tile_parser = top.add_parser("tile", help="tiling systems and "
                                              "certificates")
    tile_sub = tile_parser.add_subparsers(dest="subcommand", required=True)

    p = tile_sub.add_parser("compile", help="tile set of a machine")
    p.add_argument("--tm", required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_tile_compile)

    p = tile_sub.add_parser("initial", help="starting edge map of a word")
    p.add_argument("--tm", required=True)
    p.add_argument("--input", required=True)
    _add_ring(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_tile_initial)

    p = tile_sub.add_parser("build", help="certificate from an accepting "
                                          "run")
    p.add_argument("--tm", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--fuel", type=int, required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_tile_build)

    p = tile_sub.add_parser("verify", help="check a certificate cancels "
                                           "the starting map")
    p.add_argument("--tm", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--cert", required=True)
    _add_ring(p)
    p.set_defaults(handler=_cmd_tile_verify)

    p = tile_sub.add_parser("search", help="machine-free certificate "
                                           "deduction from colors alone")
    p.add_argument("--tiles", required=True)
    p.add_argument("--initial", required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--max-rows", type=int, required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_tile_search)

    p = tile_sub.add_parser("audit", help="structural audit of a "
                                          "certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--initial", required=True)
    p.set_defaults(handler=_cmd_tile_audit)

    reduce_parser = top.add_parser("reduce", help="emit downstream "
                                                  "instances")
    reduce_sub = reduce_parser.add_subparsers(dest="subcommand",
                                              required=True)

    for mode, summary in (
            ("semimodule", "membership instance from a machine and word"),
            ("subset-sum", "0/1 distinct-translate instance")):
        p = reduce_sub.add_parser(mode, help=summary)
        p.add_argument("--tm", required=True)
        p.add_argument("--input", required=True)
        _add_ring(p)
        _add_output(p)
        p.set_defaults(handler=_cmd_reduce_module, mode=mode)

    p = reduce_sub.add_parser("submonoid", help="word-product instance "
                                                "from a module instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--flavor", choices=("wreath", "free-metabelian"),
                   default="wreath")
    _add_output(p)
    p.set_defaults(handler=_cmd_reduce_submonoid)

    p = reduce_sub.add_parser("rational", help="sweep-language instance "
                                               "from a subset-sum "
                                               "instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--nfa", default=None,
                   help="also write the compiled automaton here")
    _add_output(p)
    p.set_defaults(handler=_cmd_reduce_rational)

    solve_parser = top.add_parser("solve", help="bounded searches")
    solve_sub = solve_parser.add_subparsers(dest="subcommand",
                                            required=True)

    p = solve_sub.add_parser("semimodule")
    p.add_argument("--instance", required=True)
    p.add_argument("--window", required=True,
                   help="inclusive translation box x0,y0,x1,y1")
    p.add_argument("--max-coeff", type=int, default=1)
    p.add_argument("--fuel", type=int, default=1_000_000)
    _add_output(p)
    p.set_defaults(handler=_cmd_solve_semimodule)

    p = solve_sub.add_parser("subset-sum")
    p.add_argument("--instance", required=True)
    p.add_argument("--window", required=True,
                   help="inclusive translation box x0,y0,x1,y1")
    p.add_argument("--fuel", type=int, default=1_000_000)
    _add_output(p)
    p.set_defaults(handler=_cmd_solve_subset_sum)

    p = solve_sub.add_parser("rational")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-len", type=int, required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_solve_rational)

    p = top.add_parser("render", help="draw a certificate or edge map")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cert")
    group.add_argument("--edgemap")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    _add_output(p)
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
