"""Every narrated demo runs to completion and prints the results it claims.

A demo that exits cleanly can still say the wrong thing (a tampered
certificate that "cancels", a broken tiling that keeps no edges), so each
demo's result lines are listed here and must appear, whole, in its output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

CLAIMS = {
    "01_simulate.py": [
        "unary-eraser: 7 states, input alphabet ['a'], 12 transitions",
        "unary-eraser problems: none",
        "after normalize: problems = none",
        "accepted in 8 steps using 4 cells",
        "run('aa', fuel=500) -> None",
    ],
    "02_tiles.py": [
        "52 tiles over 31 colors",
        "4 supported (edge, color) pairs:",
    ],
    "03_certificates.py": [
        "rectangle: 4 columns x 7 rows, 37 placements",
        "tiling sum cancels the input row: True",
        "clean certificate: ok=True, flags=[]",
        "without me[qb,a] at (1, 4): cancels: False",
        "f0 + evaluate_placements(...) keeps 4 edges: the missing tile's "
        "sides, negated:",
        "color propagation found 37 placements; identical multiset: True",
        "right-walker 'a', rectangles up to 8 x 64: None",
    ],
    "04_semimodule.py": [
        "witness evaluates to target: True",
        "37 placements -> 37 witness terms",
        "evaluates to target over Z: True",
        "identical to the certificate's own witness: True",
        "right-walker 'a' subset sum in (0, 0, 6, 8): None",
    ],
    "05_groups.py": [
        "unembedding recovers it: True",
        "word evaluates to the embedding: True",
        "cells rebuild the flow: True",
        "wreath: 30 generator words, certificate of 44 indices verifies: True",
        "free-metabelian: 30 generator words, certificate of 44 indices "
        "verifies: True",
        "drop the last index: False",
    ],
    "06_rational.py": [
        "accepts '(empty)': True",
        "accepts 'g0 x y X Y': True",
        "accepts 'g1 y g0 x y X Y Y': False",
        "accepts 'x g0': False",
        "accepted by the 26-generator language: True",
        "evaluates to the instance target: True",
        "reachable as distinct-translate subset sums: 19/19",
    ],
}


def test_demos_are_present():
    assert len(DEMOS) == 6
    assert sorted(CLAIMS) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)],
                          env=dict(os.environ, PYTHONPATH=path),
                          cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = {line.strip() for line in proc.stdout.decode().splitlines()}
    missing = [claim for claim in CLAIMS[demo.name] if claim not in lines]
    assert missing == [], proc.stdout.decode()
