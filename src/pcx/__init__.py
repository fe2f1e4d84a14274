"""Finite-resolution topology of planar compacta on square grids.

Rasterize a compact planar set at dyadic or ternary resolution, count the
components crossing thin strips and rectangular annuli, detect local
non-connectivity through diverging crossing counts, and build finite-scale
core decompositions whose quotient graphs approximate a Peano model of the
set.  See the README for the command-line tour.
"""
from .decomposition import (ClassInfo, Decomposition, MonotoneReport,
                            PeanoReport, QuotientGraph, RelationParams,
                            RelationSeed, close_equivalence,
                            common_refinement, contract_degree_two, decompose,
                            is_simple_path, monotone_check, peano_check,
                            quotient_graph, refines, schoenflies_relation)
from .generators import (GENERATOR_BASES, GENERATOR_NAMES, GeneratorParams,
                         ParseError, emit_pbm, from_pbm,
                         generator_base, make_spec, parse_pbm,
                         random_compactum)
from .grid import (DEFAULT_MAX_LEVEL, Box, BoxOracle, Cells,
                   ComponentLabeling, ComponentMeta, DepthExceeded, ExactFill,
                   GridCompactum, GridError, Level, SetSpec, WindowError,
                   coarsen, complement_components, diameter, diameters,
                   hausdorff_distance, inverse_transform, label_components,
                   max_level, rasterize, sort_cells, TRANSFORM_IDS,
                   transform_box, transform_cells, transform_grid,
                   transform_point, transform_spec, window_cell_range)
from .schoenflies import (CrossingReport, CutWireResult, RectAnnulus,
                          ScanReport, SeparatingLoop, Strip, StripScan,
                          complement_diameter_scan, crossing_components,
                          crossing_path, cut_wire, default_strip_family,
                          schoenflies_scan, separating_curve)

__version__ = "0.1.0"

__all__ = [
    "Box", "BoxOracle", "Cells", "ClassInfo", "ComponentLabeling",
    "ComponentMeta", "CrossingReport", "CutWireResult", "Decomposition",
    "DepthExceeded", "DEFAULT_MAX_LEVEL", "ExactFill", "GENERATOR_BASES",
    "GENERATOR_NAMES", "GeneratorParams", "GridCompactum", "GridError",
    "Level", "MonotoneReport", "ParseError", "PeanoReport", "QuotientGraph",
    "RectAnnulus", "RelationParams", "RelationSeed",
    "ScanReport", "SeparatingLoop", "SetSpec", "Strip", "StripScan",
    "WindowError", "close_equivalence", "coarsen", "common_refinement",
    "complement_components", "complement_diameter_scan",
    "contract_degree_two", "crossing_components", "crossing_path", "cut_wire",
    "decompose", "default_strip_family", "diameter", "diameters",
    "emit_pbm", "from_pbm",
    "generator_base", "hausdorff_distance", "inverse_transform",
    "is_simple_path", "label_components", "make_spec", "max_level",
    "monotone_check", "parse_pbm", "peano_check", "quotient_graph",
    "random_compactum", "rasterize", "refines", "schoenflies_relation",
    "schoenflies_scan", "separating_curve", "sort_cells", "TRANSFORM_IDS",
    "transform_box", "transform_cells", "transform_grid", "transform_point",
    "transform_spec",
    "window_cell_range",
]
