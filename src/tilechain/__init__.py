"""Turing machines, edge-colored tilings, and the chain of membership
problems their halting behavior reduces to.

The pipeline, in library order:

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
"""

from .compiler import EmptyInput, compile_tiles, initial_map, machine_colors
from .deduce import MalformedInput, forced_search, parse_initial_shape
from .edges import (EdgeMap, Ring, RingMismatch, UnknownTile, Z,
                    dump_edgemap, evaluate_placements, load_edgemap,
                    ring_from_name, tile_eval)
from .engine import (AuditFlag, AuditReport, build_accepting_tiling,
                     builder_width, claims_audit, default_window,
                     verify_zero)
from .groups import (METABELIAN, WREATH, BadIndex, MetabelianElement,
                     NotACycle, NotInImage, StrideTooSmall,
                     SubmonoidInstance, UnboundSymbol, WreathElement,
                     basis_change, basis_change_inv, cell_flow,
                     cells_to_flow, cells_to_word, embed_module,
                     flow_boundary, flow_decompose, flow_to_word,
                     is_circulation, make_submonoid_instance,
                     metabelian_bindings, metabelian_eval,
                     metabelian_identity, module_to_word, pow_tokens,
                     submonoid_from_dict, submonoid_to_dict, translate_flow,
                     unembed_module, verify_submonoid_certificate,
                     witness_to_submonoid_certificate, word_from_tokens,
                     wreath_bindings, wreath_eval, wreath_identity,
                     wreath_lamp)
from .machines import (corpus, mini_eraser, right_walker, two_symbol_eraser,
                       unary_eraser)
from .modules import (DuplicateShift, ModuleElement, RankMismatch,
                      SemimoduleInstance, UnknownColor, WitnessTerm,
                      certificate_to_witness, element_from_dict,
                      element_to_dict, eval_member_witness,
                      eval_subset_witness, from_edgemap, instance_from_dict,
                      instance_to_dict, member_bounded, subset_sum_bounded,
                      tiling_to_instance, tiling_to_subset_sum, to_edgemap,
                      unit, verify_witness, witness_from_dict,
                      witness_to_certificate, witness_to_dict, zero_element)
from .rational import (Nfa, RationalInstance, build_L, certificate_to_word,
                       dump_nfa, enumerate_zero_position_hits,
                       expr_from_text, expr_to_text, load_nfa,
                       make_rational_instance, nfa_accepts, nfa_from_dict,
                       nfa_to_dict, rational_bindings, rational_from_dict,
                       rational_member_bounded, rational_to_dict,
                       regex_to_nfa, word_plants)
from .render import (UnboundedSupport, render_certificate_ascii,
                     render_certificate_svg, render_edgemap_ascii,
                     render_edgemap_svg)
from .tiling import (C0, Certificate, Color, Placement, Tile, TilingSystem,
                     color_from_str, color_glyph, color_sort_key,
                     color_to_str, dump_certificate, dump_system, head,
                     letter, load_certificate, load_system, sort_placements,
                     state)
from .tm import (Configuration, LeftEdgeViolation, MissingTransition,
                 RunTrace, TuringMachine, dump_tm, initial_config, load_tm,
                 normalize, run, step, tape_extent, validate)

__version__ = "0.1.0"
