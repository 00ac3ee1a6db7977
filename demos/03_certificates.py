"""Build an accepting tiling, verify it, and rediscover it without the machine.

An accepting run folds into a rectangle of tile placements whose summed
edge contributions exactly cancel the input row.  The same rectangle can
be recovered by a color-propagation search that only ever looks at tiles
and edge colors — never at the machine.

Run with:  python3 demos/03_certificates.py
"""

from collections import Counter

from tilechain.compiler import compile_tiles, initial_map
from tilechain.deduce import forced_search
from tilechain.edges import evaluate_placements
from tilechain.engine import build_accepting_tiling, claims_audit, verify_zero
from tilechain.machines import corpus
from tilechain.render import render_certificate_ascii, render_edgemap_ascii
from tilechain.tiling import Certificate

tm = corpus()["unary-eraser"]
ts = compile_tiles(tm)
word = "aa"

print(f"=== Accepting tiling for input '{word}' ===")
cert = build_accepting_tiling(tm, word, fuel=500)
print(f"  rectangle: {cert.width_m} columns x {cert.rows} rows, "
      f"{len(cert.placements)} placements")
f0 = initial_map(tm, word)
print(f"  tiling sum cancels the input row: {verify_zero(f0, cert, ts)}")

print()
print(render_certificate_ascii(cert))

print()
print("=== Auditing the certificate ===")
report = claims_audit(cert, f0)
print(f"  clean certificate: ok={report.ok}, flags={list(report.flags)}")

print()
print("=== A broken tiling leaves edges uncancelled ===")
cells = list(cert.placements)
gone = cells.pop(len(cells) // 2)
broken = Certificate(cells, cert.width_m, cert.rows)
print(f"  without {gone.tile.name} at ({gone.x}, {gone.y}): "
      f"cancels: {verify_zero(f0, broken, ts)}")
left = f0 + evaluate_placements(ts, broken.placements, f0.ring)
print(f"  f0 + evaluate_placements(...) keeps {len(left)} edges: the "
      f"missing tile's sides, negated:")
print(render_edgemap_ascii(left))

print()
print("=== Rebuilding it with the machine-free search ===")
forced = forced_search(ts, f0, cert.width_m, cert.rows)
same = Counter(forced.placements) == Counter(cert.placements)
print(f"  color propagation found {len(forced.placements)} placements; "
      f"identical multiset: {same}")

print()
print("=== The search is honest about non-halting inputs ===")
walker = corpus()["right-walker"]
walker_ts = compile_tiles(walker)
walker_f0 = initial_map(walker, "a")
print(f"  right-walker 'a', rectangles up to 8 x 64: "
      f"{forced_search(walker_ts, walker_f0, 8, 64)}")
