"""Command-line interface for the reduction pipeline.

Exit codes: 0 on success (including "member found" and "verified"),
1 when a bounded search or check comes back negative (out of fuel, sum
not zero, audit flags raised, nothing found within bounds), 2 on usage
errors (argparse), 3 on input errors: exactly an ``OSError`` or
``ValueError`` (unreadable files, malformed documents, invalid machines,
bounds below their floor), 4 on any other exception, an internal error,
reported in one line with no traceback.

The command surface is data: a flag is one entry of ``_OPTIONS`` and a
command is one row of ``_COMMANDS``; ``build_parser`` turns both into the
argparse tree, and nothing else adds a parser or an argument.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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


def _emit(text: str, args) -> int:
    """Write ``text`` to ``--output``, or to stdout without one: exit 0."""
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


def _emit_json(data: dict, args) -> int:
    return _emit(json.dumps(data, indent=2) + "\n", args)


def _negative(message: str) -> int:
    """A negative answer: one line on stderr, exit 1."""
    print(message, file=sys.stderr)
    return 1


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
    return _emit(dump_tm(normalize(_load_machine(args.tm, total=False))), args)


def _cmd_tm_run(args) -> int:
    tm = _load_machine(args.tm, total=False)
    trace = run(tm, list(args.input), _fuel(args, 0))
    if trace is None:
        return _negative(f"out of fuel after {args.fuel} steps")
    for i, config in enumerate(trace.configs):
        tape = " ".join(config.tape)
        print(f"{i:4d}  {config.state:>8s} @ {config.head}  [{tape}]")
    print(f"accepted in {trace.steps} steps, space {trace.space}")
    return 0


def _cmd_tile_compile(args) -> int:
    ts = compile_tiles(_load_machine(args.tm, total=False))
    return _emit(dump_system(ts), args)


def _cmd_tile_initial(args) -> int:
    tm = _load_machine(args.tm, total=False)
    f0 = initial_map(tm, list(args.input), ring_from_name(args.ring))
    return _emit(dump_edgemap(f0), args)


def _cmd_tile_build(args) -> int:
    tm = _load_machine(args.tm, total=True)
    cert = build_accepting_tiling(tm, list(args.input), _fuel(args, 0))
    if cert is None:
        return _negative(f"out of fuel after {args.fuel} steps")
    return _emit(dump_certificate(cert), args)


def _cmd_tile_verify(args) -> int:
    tm = _load_machine(args.tm, total=True)
    ring = ring_from_name(args.ring)
    ts = compile_tiles(tm)
    f0 = initial_map(tm, list(args.input), ring)
    cert = load_certificate(_read(args.cert), ts)
    if verify_zero(f0, cert, ts):
        print("zero sum verified")
        return 0
    return _negative("sum is not zero")


def _cmd_tile_search(args) -> int:
    ts = load_system(_read(args.tiles))
    f0 = load_edgemap(_read(args.initial))
    cert = forced_search(ts, f0, args.max_m, args.max_rows)
    if cert is None:
        return _negative("no certificate within bounds")
    return _emit(dump_certificate(cert), args)


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
    return _emit_json(instance_to_dict(tiling_to_instance(ts, f0, args.mode)),
                      args)


def _cmd_reduce_submonoid(args) -> int:
    instance = instance_from_dict(json.loads(_read(args.instance)))
    sub = make_submonoid_instance(instance, args.flavor)
    return _emit_json(submonoid_to_dict(sub), args)


def _cmd_reduce_rational(args) -> int:
    instance = instance_from_dict(json.loads(_read(args.instance)))
    rat = make_rational_instance(instance)
    if args.nfa is not None:
        Path(args.nfa).write_text(dump_nfa(regex_to_nfa(rat.expr)))
    return _emit_json(rational_to_dict(rat), args)


def _cmd_solve_semimodule(args) -> int:
    instance = instance_from_dict(json.loads(_read(args.instance)))
    window = _parse_window(args.window)
    witness = member_bounded(instance, window, args.max_coeff, _fuel(args, 1))
    if witness is None and member_is_exact(instance.ring):
        return _negative(f"no witness in window {','.join(map(str, window))} "
                         f"(exact elimination over Z/{instance.ring.modulus})")
    if witness is None:
        return _negative("no witness within bounds")
    return _emit_json(witness_to_dict("semimodule", witness), args)


def _cmd_solve_subset_sum(args) -> int:
    instance = instance_from_dict(json.loads(_read(args.instance)))
    witness = subset_sum_bounded(instance, _parse_window(args.window),
                                 _fuel(args, 1))
    if witness is None:
        return _negative("no witness within bounds")
    return _emit_json(witness_to_dict("subset-sum", witness), args)


def _cmd_solve_rational(args) -> int:
    rat = rational_from_dict(json.loads(_read(args.instance)))
    word = rational_member_bounded(rat.expr, rat.bindings, rat.target,
                                   args.max_len, rat.ring)
    if word is None:
        return _negative("no witness within bounds")
    return _emit_json({"word": word}, args)


def _cmd_render(args) -> int:
    if args.cert is not None:
        cert = load_certificate(_read(args.cert))
        text = (render_certificate_svg(cert) if args.format == "svg"
                else render_certificate_ascii(cert))
    else:
        f0 = load_edgemap(_read(args.edgemap))
        text = (render_edgemap_svg(f0) if args.format == "svg"
                else render_edgemap_ascii(f0))
    return _emit(text, args)


# ---------------------------------------------------------------------------
# parser

# Each flag spelled once: its option strings and argparse settings.
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_OPTIONS = {
    "tm": (("--tm",), _REQUIRED),
    "input": (("--input",), _REQUIRED),
    "cert": (("--cert",), _REQUIRED),
    "edgemap": (("--edgemap",), _REQUIRED),
    "tiles": (("--tiles",), _REQUIRED),
    "initial": (("--initial",), _REQUIRED),
    "instance": (("--instance",), _REQUIRED),
    "fuel": (("--fuel",), _REQUIRED_INT),
    "search-fuel": (("--fuel",), {"type": int, "default": 1_000_000}),
    "max-m": (("--max-m",), _REQUIRED_INT),
    "max-rows": (("--max-rows",), _REQUIRED_INT),
    "max-len": (("--max-len",), _REQUIRED_INT),
    "max-coeff": (("--max-coeff",), {"type": int, "default": 1}),
    "window": (("--window",), {"required": True, "help": "inclusive "
                               "translation box x0,y0,x1,y1"}),
    "ring": (("--ring",), {"default": "Z", "help": "coefficient ring: Z or "
                           "Zmod:n (default Z)"}),
    "flavor": (("--flavor",), {"choices": ("wreath", "free-metabelian"),
                               "default": "wreath"}),
    "nfa": (("--nfa",), {"help": "also write the compiled automaton here"}),
    "format": (("--format",), {"choices": ("ascii", "svg"),
                               "default": "ascii"}),
    "output": (("-o", "--output"), {"help": "write to this file instead of "
                                    "stdout"}),
}

_GROUPS = {"tm": "machine operations",
           "tile": "tiling systems and certificates",
           "reduce": "emit downstream instances",
           "solve": "bounded searches"}

# One row per command: group (None at the top level), name, help (None
# leaves it out of the group's listing), options (``a|b``: exactly one of
# them), handler and fixed settings.  Handlers are named, not bound, so
# the parser picks up the module's current functions.
_COMMANDS = (
    ("tm", "validate", "check machine well-formedness", "tm",
     "_cmd_tm_validate"),
    ("tm", "normalize", "complete the table and route acceptance through a "
     "tape-clearing sweep", "tm output", "_cmd_tm_normalize"),
    ("tm", "run", "simulate on an input word", "tm input fuel", "_cmd_tm_run"),
    ("tile", "compile", "tile set of a machine", "tm output",
     "_cmd_tile_compile"),
    ("tile", "initial", "starting edge map of a word", "tm input ring output",
     "_cmd_tile_initial"),
    ("tile", "build", "certificate from an accepting run",
     "tm input fuel output", "_cmd_tile_build"),
    ("tile", "verify", "check a certificate cancels the starting map",
     "tm input cert ring", "_cmd_tile_verify"),
    ("tile", "search", "machine-free certificate deduction from colors alone",
     "tiles initial max-m max-rows output", "_cmd_tile_search"),
    ("tile", "audit", "structural audit of a certificate", "cert initial",
     "_cmd_tile_audit"),
    ("reduce", "semimodule", "membership instance from a machine and word",
     "tm input ring output", "_cmd_reduce_module", ("mode", "semimodule")),
    ("reduce", "subset-sum", "0/1 distinct-translate instance",
     "tm input ring output", "_cmd_reduce_module", ("mode", "subset-sum")),
    ("reduce", "submonoid", "word-product instance from a module instance",
     "instance flavor output", "_cmd_reduce_submonoid"),
    ("reduce", "rational", "sweep-language instance from a subset-sum "
     "instance", "instance nfa output", "_cmd_reduce_rational"),
    ("solve", "semimodule", None,
     "instance window max-coeff search-fuel output", "_cmd_solve_semimodule"),
    ("solve", "subset-sum", None, "instance window search-fuel output",
     "_cmd_solve_subset_sum"),
    ("solve", "rational", None, "instance max-len output",
     "_cmd_solve_rational"),
    (None, "render", "draw a certificate or edge map",
     "cert|edgemap format output", "_cmd_render"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilechain",
        description="Turing machines, tiling certificates, and the "
                    "membership problems they reduce to.")
    subparsers = {None: parser.add_subparsers(dest="command", required=True)}
    for group, name, help, options, handler, *fixed in _COMMANDS:
        if group not in subparsers:
            subparsers[group] = subparsers[None].add_parser(
                group, help=_GROUPS[group]).add_subparsers(
                    dest="subcommand", required=True)
        p = subparsers[group].add_parser(
            name, **({} if help is None else {"help": help}))
        for option in options.split():
            target = p
            if "|" in option:
                target = p.add_mutually_exclusive_group(required=True)
            for member in option.split("|"):
                flags, settings = _OPTIONS[member]
                if target is not p:  # the group is required, not its members
                    settings = dict(settings, required=False)
                target.add_argument(*flags, **settings)
        p.set_defaults(handler=globals()[handler], **dict(fixed))
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
