"""Turing machines, edge-colored tilings, and the chain of membership
problems their halting behavior reduces to.

The pipeline, in library order:

  documents — the one reader of the JSON documents every loader uses
  tm        — machines, simulation, validation, normalization
  tiling    — colors, tiles, tiling systems, placement certificates
  edges     — finitely supported edge-color maps and tile evaluation
  compiler  — machine -> tile set and starting map
  engine    — certificate construction, verification, audit
  deduce    — machine-free certificate search from colors alone
  modules   — membership and subset-sum instances over translated vectors
  groups    — wreath / free metabelian elements and submonoid instances
  rational  — sweep-language instances and bounded word search
  render    — ASCII and SVG diagrams
  machines  — a small corpus of concrete machines
  cli       — the command-line surface

The package root re-exports a short list of names: the machine, tile,
edge-map and certificate layers, the element types and the subset-sum
search.  Import everything else from its submodule.
"""

from .compiler import EmptyInput, compile_tiles, initial_map, machine_colors
from .deduce import MalformedInput, forced_search, parse_initial_shape
from .edges import (EdgeMap, Ring, RingMismatch, UnknownTile, Z,
                    dump_edgemap, evaluate_placements, load_edgemap,
                    ring_from_name, tile_eval)
from .engine import (build_accepting_tiling, builder_width, claims_audit,
                     default_window, verify_zero)
from .groups import MetabelianElement, WreathElement
from .machines import corpus, mini_eraser, unary_eraser
from .modules import (ModuleElement, RankMismatch, subset_sum_bounded,
                      tiling_to_subset_sum, verify_witness)
from .tiling import (C0, Certificate, Color, Placement, Tile, TilingSystem,
                     color_from_str, color_glyph, color_sort_key,
                     color_to_str, dump_certificate, dump_system, head,
                     letter, load_certificate, load_system, sort_placements,
                     state)
from .tm import (Configuration, LeftEdgeViolation, MissingTransition,
                 TuringMachine, dump_tm, initial_config, load_tm, normalize,
                 run, step, validate)

__version__ = "0.1.0"
