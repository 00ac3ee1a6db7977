"""Self-test of the benchmark at tiny sizes; no timing gates.

    python3 perfbench/selftest.py

Checks, for every workload with its size bands shrunk:
  * every generated input's verdict matches its known answer, and the
    checker counts a flipped known answer as a failure;
  * a tampered positive artifact fails re-verification;
  * a one-second run, untraced and traced, prints exactly the metric
    names and units ``BENCHMARK.json`` declares, with a well-formed result;
and that the command fails without printing a result in a directory that
holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys

import run  # also puts this directory on sys.path
import chain
from spans import NullTracer

TINY = {
    "certify": {"UNARY": ((2, 3), (4, 5)), "TWO_SYMBOL": ((2, 3),),
                "B_WORDS": (((1, 2), (6, 8)),), "WALKERS": (((1, 1), (6, 8)),)},
    "transport": {"UNARY": ((1, 1), (2, 2)), "TWO_SYMBOL": ((2, 2),)},
    "search": {"SUBSET_FOUND": (("unary", (1, 1)), ("two", (1, 1))),
               "SUBSET_SHORT": (("unary", (1, 1)),),
               "ELIMINATE": (("unary", (1, 1)),), "MEMBER_FUEL": (50, 100)},
    "sweep": {"ONE_GEN": (((0, 0),),), "TWO_GEN": (((1, 0, 0),),),
              "DOUBLED_LEN": ((5, 5),), "ENUM_LEN": ((6, 6),),
              "ENUM_PICKS": (((0, 0, 0),),), "CERT_WORDS": (("mini", "a"),)},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def tiny_class(name: str):
    base = chain.WORKLOADS[name]
    return type(f"Tiny{base.__name__}", (base,), dict(TINY[name]))


def check_known_answers(name: str, lib) -> None:
    workload = tiny_class(name)(lib)
    items = chain.make_pool(workload, random.Random(f"selftest:{name}"), 1)
    tampered = False
    for item in items:
        _, outcome, error = run.timed(workload, item, NullTracer())
        status = run.classify(workload, item, outcome, error)
        expected = "budget-miss" if item.kind == "budget" else "ok"
        check(status == expected, f"{name} {item.kind} n={item.n}: {status}")
        if status != "ok":
            continue
        flipped = dataclasses.replace(
            item, expect="no" if item.expect == "yes" else "yes", exact=True)
        status = run.classify(workload, flipped, outcome, error)
        check(status == "wrong-verdict",
              f"{name} {item.kind}: flipped answer gave {status}")
        if outcome.verdict == "yes" and not tampered:
            tamper(name, outcome)
            check(run.classify(workload, item, outcome, None) == "unverified",
                  f"{name} {item.kind}: tampered artifact still verifies")
            tampered = True
    check(tampered, f"{name}: no positive artifact to tamper with")
    print(f"PASS {name}: {len(items)} tiny inputs match their known answers")


def tamper(name: str, outcome) -> None:
    """Break a positive artifact in place."""
    art = outcome.artifact
    if name == "certify":
        found = art["found"]
        art["found"] = dataclasses.replace(found, placements=found.placements[1:])
    elif name == "transport":
        sub, indices, ok = art["proofs"][0]
        art["proofs"][0] = (sub, indices[1:], ok)
    elif name == "search":
        art["witness"] = art["witness"][1:]
    elif "word" in art:
        art["word"] = art["word"] + " x"
    else:
        art["hits"] = set()


def declared() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def check_schema(name: str, spec: dict) -> None:
    saved = chain.WORKLOADS[name]
    chain.WORKLOADS[name] = tiny_class(name)
    try:
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run_workload(name, 7, 1.0, bool(trace))
            result = json.loads(json.dumps(result))
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{name}: {result['failed']} failed at tiny sizes")
            check(type(result["attempted"]) is int and result["attempted"] >= 1,
                  f"{name}: attempted {result['attempted']!r}")
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            check(units == spec[trace],
                  f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(units) ^ set(spec[trace]))}")
            for metric, value in result["metrics"].items():
                check(set(value) == {"value", "unit"}
                      and type(value["value"]) in (int, float),
                      f"{name}: malformed metric {metric}: {value}")
    finally:
        chain.WORKLOADS[name] = saved
    print(f"PASS {name}: untraced and traced results match BENCHMARK.json")


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    check(done.returncode != 0, "bare directory run exited with 0")
    check('"metrics"' not in done.stdout, "bare directory run printed a result")
    print("PASS bare directory: exits with", done.returncode, "and no result")


def main() -> int:
    check(run.use_source(), f"no tilechain package under {run.SRC}")
    spec = declared()
    check(spec["workloads"] == list(chain.WORKLOADS),
          f"BENCHMARK.json workloads {spec['workloads']}")
    lib = run.load_library()
    for name in chain.WORKLOADS:
        check_known_answers(name, lib)
        check_schema(name, spec)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
