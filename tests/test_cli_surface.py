"""The command-line surface as data: every parser, option, default and help
string against a stored snapshot, and the README's command examples run in
order through ``cli.main``."""

import argparse
import json
import re
import shlex
from pathlib import Path

from tilechain import cli
from tilechain.machines import unary_eraser
from tilechain.tm import dump_tm

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli_surface.json"


def _type_name(value):
    return None if value is None else value.__name__


def _default(value):
    return value.__name__ if callable(value) else value


def walk_parsers(parser, path=(), listing=None):
    """Yield ``(path, listing, parser)`` for ``parser`` and every subparser
    below it, depth first in the order the commands were added.  The
    listing is the entry of the command in its group's help, None if it
    has none."""
    yield list(path), listing, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            listings = {choice.dest: choice
                        for choice in action._choices_actions}
            for name, child in action.choices.items():
                yield from walk_parsers(child, (*path, name),
                                        listings.get(name))


def surface(parser) -> list[dict]:
    """The structure of a parser tree: per parser its command path, whether
    and with what help its group lists it, description and fixed defaults;
    per action its option strings, dest, default, required flag, type
    name, choices and help; and which options are mutually exclusive.
    Layout is left out: it differs across Python versions."""
    found = []
    for path, listing, p in walk_parsers(parser):
        actions = []
        for action in p._actions:
            actions.append({
                "option_strings": action.option_strings,
                "dest": action.dest,
                "default": action.default,
                "required": action.required,
                "type": _type_name(action.type),
                "choices": (None if action.choices is None
                            else list(action.choices)),
                "help": action.help,
            })
        found.append({
            "path": path,
            "listed": listing is not None,
            "help": None if listing is None else listing.help,
            "description": p.description,
            "defaults": {key: _default(value)
                         for key, value in sorted(p._defaults.items())},
            "actions": actions,
            "exclusive": [{"required": group.required,
                           "dests": [a.dest for a in group._group_actions]}
                          for group in p._mutually_exclusive_groups],
        })
    return found


def test_surface_matches_the_snapshot():
    assert surface(cli.build_parser()) == json.loads(GOLDEN.read_text())


def test_surface_has_every_parser():
    paths = [" ".join(path) for path, _, _ in walk_parsers(cli.build_parser())]
    assert len(paths) == 22
    assert paths[:5] == ["", "tm", "tm validate", "tm normalize", "tm run"]
    assert paths[-1] == "render"


def _readme_sh_blocks() -> list[str]:
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    return [code for language, code in (b.split("\n", 1) for b in blocks)
            if language == "sh"]


def _readme_commands() -> list[tuple[list[str], str]]:
    """The README's ``tilechain`` lines in order, continuations joined and
    comments dropped, each with the result a following ``# ->`` line
    documents for it ("" if none)."""
    found = []
    for code in _readme_sh_blocks():
        for line in code.replace("\\\n", " ").splitlines():
            if line.startswith("tilechain "):
                found.append((shlex.split(line, comments=True)[1:], ""))
            elif line.startswith("# ->"):
                argv, _ = found[-1]
                found[-1] = (argv, line[4:].split("(")[0].strip())
    return found


def _parser_of(argv):
    """The parser a command line reaches, and the rest of the line."""
    by_path = {tuple(path): p
               for path, _, p in walk_parsers(cli.build_parser())}
    for depth in (2, 1):
        if tuple(argv[:depth]) in by_path:
            return by_path[tuple(argv[:depth])], argv[depth:]
    raise AssertionError(f"no command {argv[:2]}")


def test_readme_commands_run_as_documented(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    setup = [code for code in _readme_sh_blocks() if "unary.json" in code
             and code.startswith("python3 -c")]
    assert len(setup) == 1
    exec(re.search(r'-c "(.*)"', setup[0], re.S).group(1), {})
    assert (tmp_path / "unary.json").read_text() == dump_tm(unary_eraser())

    commands = _readme_commands()
    assert len(commands) == 15
    assert sum(bool(result) for _, result in commands) == 3
    for argv, result in commands:
        parser, rest = _parser_of(argv)
        flags = {flag for action in parser._actions
                 for flag in action.option_strings}
        used = [word for word in rest if word.startswith("-")]
        assert set(used) <= flags, (argv, used)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        # The one documented negative: no sweep word of length <= 4.
        expected = 1 if argv[:2] == ["solve", "rational"] else 0
        assert code == expected, (argv, err)
        assert result in out + err, (argv, result, out, err)
    for name in ("cert.json", "tiles.json", "f0.json", "found.json",
                 "sub2.json", "witness.json", "sem.json", "sm.json",
                 "nfa.json", "rat.json", "cert.svg"):
        assert (tmp_path / name).stat().st_size > 0, name
