"""Seeded, closed-loop benchmark of the tilechain chain.

One workload, one process:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Every workload, each in its own child process, with a summary table:

    python3 perfbench/run.py --seed 1

The run imports the package from ``src/`` next to this directory and
nothing else.  Set-up (import, input generation, tiling-system compilation
and one warm-up input) is repeated ``SETUP_REPEATS`` times and its median
reported.  Then one client sends the pool's inputs one after another, each
only when the previous verdict is in, until ``--seconds`` have passed.
Only the chain is timed; re-verification of each positive artifact and the
comparison with the input's known answer happen outside the timed span, as
does a full garbage collection before every input, so each input starts
from the same collector state.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics, timed in reference seconds (see ``Clock``); the lines
above it give the wall-clock figures too.  With ``--trace 1`` it carries
the per-layer metrics, in wall seconds.
A traced run executes every input twice, untraced and traced in
alternating order; the difference is the tracing overhead.  Its spans are
written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import chain  # noqa: E402
from spans import ROOT_SPAN, NullTracer, Tracer, per_layer_metrics  # noqa: E402

SETUP_REPEATS = 7
POOL_ROUNDS = 8
LIB_MODULES = ("tm", "machines", "compiler", "edges", "tiling", "engine",
               "deduce", "render", "modules", "groups", "rational")
END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.tail", "s"),
    ("decided_share", "ratio"),
    ("verified_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
GOOD = ("ok", "budget-miss")
# Duration of calibration_loop at the reference speed: close to its
# typical time under CPython 3.11 on one core of a 2-core Xeon VM.
# Reference seconds are wall seconds at that speed; see Clock.
REFERENCE_S = 0.030
CALIBRATION_EVERY_S = 0.5
CALIBRATION_WINDOW = 5


def calibration_loop() -> int:
    """A fixed piece of interpreter work like the library's own: hashing
    tuples into a dict, then sorting its items.  The dict's 20 000 entries
    outgrow a core's private caches, as the library's working sets do."""
    table = {}
    for i in range(20000):
        table[(i * 7919) % 10007, i & 15] = i
    return len(sorted(table.items()))


class Clock:
    """Turns wall seconds into reference seconds.

    On a shared machine the interpreter's speed drifts by tens of percent
    within seconds while the process keeps its core, so process CPU time
    drifts alike.  The calibration loop, timed every half second between
    inputs, tracks that drift: the median of the loops nearest in time to a
    piece of work, divided into REFERENCE_S, scales its wall time to what
    it would read at the reference speed.  The scale depends only on the
    benchmark's own loop, never on the library, so a change to the library
    moves the scaled times as it moves the wall times.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.last = -math.inf

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start - self.last < CALIBRATION_EVERY_S:
            return
        calibration_loop()
        self.last = time.perf_counter()
        self.samples.append(((start + self.last) / 2, self.last - start))

    def scale(self, start: float, seconds: float) -> float:
        """The scale for work that began at ``start`` and took ``seconds``."""
        mid = start + seconds / 2
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
        return REFERENCE_S / statistics.median(
            d for _, d in nearest[:CALIBRATION_WINDOW])


def use_source() -> bool:
    """Put ``src/`` first on the import path; False when it holds no package."""
    if not (SRC / "tilechain" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def load_library() -> SimpleNamespace:
    """Import the package afresh from ``src/`` and return its modules."""
    for name in [m for m in sys.modules
                 if m == "tilechain" or m.startswith("tilechain.")]:
        del sys.modules[name]
    package = importlib.import_module("tilechain")
    if Path(package.__file__).resolve().parent != (SRC / "tilechain").resolve():
        raise SystemExit(f"tilechain imported from {package.__file__}, "
                         f"not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"tilechain.{m}")
                              for m in LIB_MODULES})


def set_up(name: str, seed: int):
    lib = load_library()
    workload = chain.WORKLOADS[name](lib)
    pool = chain.make_pool(workload, random.Random(f"{name}:{seed}"), POOL_ROUNDS)
    warm = workload.warmup_item()
    _, outcome, error = timed(workload, warm, NullTracer())
    classify(workload, warm, outcome, error)
    return workload, pool


def timed(workload, item, tracer):
    gc.collect()
    start = time.perf_counter()
    try:
        with tracer.span(ROOT_SPAN):
            outcome = workload.execute(item, tracer)
        error = None
    except Exception as exc:  # an uncaught library error is a verdict too
        outcome, error = None, exc
    return time.perf_counter() - start, outcome, error


def classify(workload, item, outcome, error) -> str:
    """``ok``, ``budget-miss``, or the failure's category."""
    if error is not None:
        return f"exception:{type(error).__name__}"
    if outcome.verdict == "yes":
        try:
            verified = workload.recheck(item, outcome)
        except Exception as exc:  # a verifier crash fails the input, not the run
            return f"recheck-exception:{type(exc).__name__}"
        if not verified:
            return "unverified"
        return "ok" if item.expect == "yes" else "wrong-verdict"
    if outcome.verdict == "no":
        if item.expect == "no":
            return "ok"
        return "wrong-verdict" if item.exact else "budget-miss"
    return "wrong-verdict"


def run_loop(workload, pool, seconds: float, trace: bool, clock: Clock):
    """Closed loop over the pool until the deadline; one record per input."""
    schedule = itertools.cycle(pool)
    tracer = Tracer() if trace else None
    untraced = NullTracer()
    records = []
    deadline = time.perf_counter() + seconds
    for input_id in itertools.count():
        if time.perf_counter() >= deadline:
            break
        item = next(schedule)
        record = {"id": input_id, "kind": item.kind, "n": item.n,
                  "rung": item.rung}
        clock.sample()
        record["start"] = time.perf_counter()
        if trace:
            tracer.input_id = input_id
            if input_id % 2:
                record["traced_s"], outcome, error = timed(workload, item, tracer)
                record["seconds"], _, _ = timed(workload, item, untraced)
            else:
                record["seconds"], _, _ = timed(workload, item, untraced)
                record["traced_s"], outcome, error = timed(workload, item, tracer)
        else:
            record["seconds"], outcome, error = timed(workload, item, untraced)
        record["status"] = classify(workload, item, outcome, error)
        if trace:
            record["facts"] = workload.tally(item, outcome) if error is None else {}
        records.append(record)
    for record in records:
        record["ref_s"] = record["seconds"] * clock.scale(record["start"],
                                                          record["seconds"])
    return records, tracer


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of sorted samples.

    A beta-weighted mean of the order statistics near rank p(n+1): it
    estimates the same quantile as a single order statistic with much less
    jitter, so a run's percentile moves less with which inputs it reached.
    """
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def end_to_end(records, setup_times, tail: int, key: str = "ref_s") -> dict:
    """The end-to-end metrics, from reference seconds by default; the tail
    is the ``tail`` percentile."""
    times = sorted(r[key] for r in records)
    statuses = Counter(r["status"] for r in records)
    return {
        "setup_s": statistics.median(setup_times),
        "verdicts_per_s": len(times) / sum(times),
        "verdict_s.p50": percentile(times, 0.5),
        "verdict_s.tail": percentile(times, tail / 100),
        "decided_share": statuses["ok"] / len(times),
        "verified_share": 1.0 - count_failed(records) / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def count_failed(records) -> int:
    return sum(r["status"] not in GOOD for r in records)


def report(records, metrics: dict) -> dict:
    failed = count_failed(records)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def write_spans(name: str, seed: int, tracer, records) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    with path.open("w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "input"],
                   "spans": tracer.spans,
                   "inputs": [{k: v for k, v in r.items() if k != "facts"}
                              for r in records]}, fh)
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    clock = Clock()
    for _ in range(CALIBRATION_WINDOW - 1):
        clock.sample(force=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = pool = None
        clock.sample(force=True)
        gc.collect()
        start = time.perf_counter()
        workload, pool = set_up(name, seed)
        setups.append((start, time.perf_counter() - start))
    clock.sample(force=True)
    gc.collect()
    gc.freeze()
    records, tracer = run_loop(workload, pool, seconds, trace, clock)
    setup_times = [took for _, took in setups]
    setup_ref = [took * clock.scale(start, took) for start, took in setups]
    statuses = Counter(r["status"] for r in records)
    print(f"{name}: seed {seed}, {len(records)} inputs, "
          f"statuses {dict(sorted(statuses.items()))}")
    if not trace:
        tail = workload.TAIL_PERCENTILE
        metrics = end_to_end(records, setup_ref, tail)
        wall = end_to_end(records, setup_times, tail, "seconds")
        beyond = sum(r["ref_s"] > metrics["verdict_s.tail"] for r in records)
        scales = [r["ref_s"] / r["seconds"] for r in records]
        print(f"{name}: verdict_s.tail is p{tail} of "
              f"{len(records)} samples, {beyond} beyond it; wall-to-reference "
              f"scale median {statistics.median(scales):.3f}, "
              f"range {min(scales):.3f}-{max(scales):.3f}")
        units = dict(END_TO_END)
        print(f"  {'metric':<16} {'reference':>14} {'wall':>14}")
        for metric, value in metrics.items():
            print(f"  {metric:<16} {value:14.6g} {wall[metric]:14.6g} "
                  f"{units[metric]}")
        return report(records, {m: (v, units[m]) for m, v in metrics.items()})
    plain = sum(r["seconds"] for r in records)
    overhead = sum(r["traced_s"] for r in records) / plain - 1.0
    layer = per_layer_metrics(tracer.spans, records, overhead)
    path = write_spans(name, seed, tracer, records)
    print(f"{name}: {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}; tracing overhead {overhead:+.2%}")
    busy = sorted(((m, v) for m, (v, u) in layer.items()
                   if m.endswith(".s") and v), key=lambda mv: -mv[1])
    for metric, value in busy:
        base = metric[:-2]
        print(f"  {base:<26} busy {value:9.4f} s  self "
              f"{layer[base + '.self_s'][0]:9.4f} s  calls "
              f"{layer[base + '.calls'][0]:6d}")
    for metric, (value, unit) in layer.items():
        if not metric.endswith((".s", ".self_s", ".calls")):
            print(f"  {metric:<34} {value:14.6g} {unit}")
    return report(records, layer)


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for name in chain.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + 600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        rows.append((name, result))
    if not trace:
        header = "".join(f"{m:>16}" for m, _ in END_TO_END)
        print(f"{'workload':<10}{header}")
        print(f"{'':<10}" + "".join(f"{u:>16}" for _, u in END_TO_END))
        for name, result in rows:
            values = "".join(f"{result['metrics'][m]['value']:16.6g}"
                             for m, _ in END_TO_END)
            print(f"{name:<10}{values}")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(chain.WORKLOADS),
                        help="run one workload in this process "
                             "(default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not use_source():
        print(f"error: no tilechain package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
