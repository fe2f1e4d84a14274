#!/usr/bin/env python3
"""Byte-compare the outputs of two pcx checkouts, or of one against a manifest.

    python scripts/check_outputs.py OLD_CHECKOUT NEW_CHECKOUT
    python scripts/check_outputs.py --manifest scripts/outputs.sha256
    python scripts/check_outputs.py --write-manifest scripts/outputs.sha256

Runs a fixed list of CLI invocations through each checkout's own
`pcx.cli.run` (one subprocess per checkout, with that checkout's `src` first
on PYTHONPATH), plus library calls: `crossing_components(...).to_dict()` and
the cluster limit cells for strips and square annuli in both modes,
`complement_diameter_scan` of the carpet, the merge sets of
`schoenflies_relation` for a few parameter sets (a change in single linkage
can show there while the closed classes hide it), and `close_equivalence` of
seeded random merge sets on the carpet written as decompose JSON (which the
CLI then compares, along with two documents that are no partition),
`schoenflies_scan` over windowed strips, including a window that does not
contain K, the oracle route of `rasterize`: a fill-less box spec and its
`transform_spec` images, and the loops and errors of `separating_curve` with
the results and errors of `cut_wire`, `peano_check` over same-base
quotient graphs of four sets, and the paths of `crossing_path`.  Every output file, exit code and stderr text
is compared byte for byte; stderr texts name the output directory "{out}".
Prints one line per output and exits 0 when all are identical, 1 otherwise.
Each checkout takes about 15 s on a 2-core machine.

The manifest modes run the checkout this script lives in once.  A manifest
line holds the sha256 of an output file, its exit code and the sha256 of its
stderr text ("-" where there is none), then the output's name; the header
names the numpy and scipy versions it was written with, since float repr and
label order bind the bytes to them.  The two-checkout mode stays the tool
that shows which bytes differ.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, argv); "{out}" expands to the output directory.  Every case gets
# `--out {out}/<name>` appended, so outputs never go through stdout.  A
# spiral case without --t-max gets a short arm (--t-max 6): the default
# arm's fill would dominate the run, so only one case keeps it.  Two more
# spiral rasters reach a deeper level and the longest arm the CLI admits.
_GEN_LEVELS = (("cantor_comb", 3), ("topologist_sine", 5), ("spiral_disk", 5),
               ("sierpinski_carpet", 3), ("unit_square", 4), ("bars", 4))
_DECOMPOSE = (("cantor_comb", 3), ("topologist_sine", 5), ("spiral_disk", 4),
              ("sierpinski_carpet", 2), ("unit_square", 3), ("bars", 4))
CASES: list[tuple[str, list[str]]] = [
    ("gen_spiral_default.pbm", ["gen", "--gen", "spiral_disk", "--level", "4",
                                "--t-max", "40"]),
    ("gen_spiral_L9.pbm", ["gen", "--gen", "spiral_disk", "--level", "9"]),
    ("gen_spiral_L7_t100.pbm", ["gen", "--gen", "spiral_disk", "--level", "7",
                                "--t-max", "100"])]
for _g, _n in _GEN_LEVELS:
    CASES.append((f"gen_{_g}.pbm", ["gen", "--gen", _g, "--level", str(_n)]))
    CASES.append((f"components_{_g}.json",
                  ["components", "--gen", _g, "--level", str(_n)]))
for _dim in (1, 2):
    CASES.append((f"gen_dust{_dim}.pbm", ["gen", "--gen", "cantor_dust",
                                          "--dust-dim", str(_dim), "--level", "3"]))
    CASES.append((f"components_dust{_dim}.json",
                  ["components", "--gen", "cantor_dust", "--dust-dim", str(_dim),
                   "--level", "3"]))
for _seed in (0, 7):
    CASES.append((f"gen_blobs{_seed}.pbm", ["gen", "--gen", "random_blobs", "--ascii",
                                            "--seed", str(_seed), "--level", "5"]))
    CASES.append((f"decompose_blobs{_seed}.json",
                  ["decompose", "--gen", "random_blobs", "--seed", str(_seed),
                   "--level", "5"]))
for _g, _lv in (("cantor_comb", "2..4"), ("topologist_sine", "2..6"),
                ("spiral_disk", "2..4"), ("sierpinski_carpet", "2..3"),
                ("unit_square", "2..4"), ("bars", "3..5")):
    CASES.append((f"scan_{_g}.json", ["scan", "--gen", _g, "--levels", _lv,
                                      "--strip", "auto"]))
CASES.append(("scan_dust.json", ["scan", "--gen", "cantor_dust", "--levels", "2..4",
                                 "--strip", "h:0.3:0.7", "--strip", "v:0.1:0.5"]))
for _g, _n in _DECOMPOSE:
    for _fmt in ("json", "svg", "text"):
        CASES.append((f"decompose_{_g}.{_fmt}", ["decompose", "--gen", _g, "--level",
                                                 str(_n), "--format", _fmt]))
    CASES.append((f"quotient_{_g}.json", ["quotient", "--contract", "--gen", _g,
                                          "--level", str(_n)]))
    CASES.append((f"render_{_g}.svg", ["render", "--gen", _g, "--level", str(_n),
                                       "--format", "classes"]))
CASES += [
    ("decompose_dust.json", ["decompose", "--gen", "cantor_dust", "--level", "3"]),
    ("render_plain.svg", ["render", "--gen", "spiral_disk", "--level", "5"]),
    # the same-level route: four-cell delta builds the persistence raster
    ("quotient_comb_delta.json", ["quotient", "--contract", "--gen", "cantor_comb",
                                  "--level", "3", "--delta", repr(4 * 3.0 ** -3)]),
    # quotients with several components of distinct diameters, and with no edge
    ("quotient_blobs7.json", ["quotient", "--contract", "--gen", "random_blobs", "--seed",
                              "7", "--level", "5"]),
    ("quotient_dust.json", ["quotient", "--contract", "--gen", "cantor_dust", "--level", "3"]),
    ("decompose_comb_nmin3.json", ["decompose", "--gen", "cantor_comb", "--level", "3",
                                   "--nmin", "3", "--delta", repr(3 * 3.0 ** -3),
                                   "--family", "strips-all-offsets"]),
    ("decompose_spiral_flags.json", ["decompose", "--gen", "spiral_disk", "--t-max",
                                     "6", "--level", "5", "--family",
                                     "rect-annuli-sampled", "--stride", "4",
                                     "--deep-levels", "2", "--deep-children", "2"]),
    ("decompose_comb_flat.json", ["decompose", "--gen", "cantor_comb", "--level", "3",
                                  "--no-multi-level"]),
    ("decompose_pbm.json", ["decompose", "--in", "{out}/gen_blobs7.pbm",
                            "--level", "5"]),
    ("compare_comb.json", ["compare", "--a", "{out}/decompose_cantor_comb.json",
                           "--b", "{out}/decompose_comb_flat.json"]),
    ("compare_comb_tol.json", ["compare", "--a", "{out}/decompose_comb_flat.json",
                               "--b", "{out}/decompose_comb_nmin3.json",
                               "--tol", "0.2"]),
    ("compare_spiral_self.json", ["compare", "--a", "{out}/decompose_spiral_disk.json",
                                  "--b", "{out}/decompose_spiral_disk.json"]),
    # closures of random merge sets (written by _closures before these run)
    ("compare_closure.json", ["compare", "--a", "{out}/closure_a.json",
                              "--b", "{out}/closure_b.json"]),
    ("compare_closure_rev.json", ["compare", "--a", "{out}/closure_b.json",
                                  "--b", "{out}/closure_a.json"]),
    ("compare_closure_tol.json", ["compare", "--a", "{out}/closure_b.json",
                                  "--b", "{out}/closure_a.json",
                                  "--tol", repr(2 * 3.0 ** -4)]),
    # documents that are no partition (written by _bad_documents): overlapping
    # classes exit 3, and still do when the cells also span over the budget
    ("error_compare_overlap.json", ["compare", "--a", "{out}/overlap.json",
                                    "--b", "{out}/closure_a.json"]),
    ("error_compare_overlap_far.json", ["compare", "--a", "{out}/overlap_far.json",
                                        "--b", "{out}/overlap_far.json"]),
    ("error_nmin.json", ["decompose", "--gen", "bars", "--level", "3", "--nmin", "2"]),
    ("error_jobs.json", ["scan", "--gen", "bars", "--levels", "3", "--strip", "auto",
                         "--jobs", "0"]),
    # a strip that collapses at the lowest level; then one that collapses only
    # at level 3 ahead of it, which must still be the strip reported
    ("error_scan_collapse.json", ["scan", "--gen", "bars", "--levels", "2..4",
                                  "--strip", "h:0.3:0.7", "--strip", "v:0.2:0.22"]),
    ("error_scan_collapse_order.json", ["scan", "--gen", "bars", "--levels", "2..4",
                                        "--strip", "h:0.125:0.175",
                                        "--strip", "v:0.2:0.22"]),
    # strips that reach far past the set, counted on its cell box and a cell
    # more; a line 2**40 cells out, refused; a stride past the set's extent
    ("scan_far_strips.json", ["scan", "--gen", "unit_square", "--levels", "2..9",
                              "--strip", "h:0:1e9", "--strip", "v:-3:0.5"]),
    ("error_scan_far_line.json", ["scan", "--gen", "unit_square", "--levels", "2..3",
                                  "--strip", "h:0:1e300"]),
    ("decompose_stride_huge.json", ["decompose", "--gen", "unit_square", "--level", "3",
                                    "--stride", str(10 ** 21)]),
]
LIBRARY_OUTPUTS = ("closure_a.json", "closure_b.json", "complement_scan_carpet.json",
                   "crossing_components.json", "relation_seeds.json",
                   "scan_windowed.json", "oracle_route.json", "separation.json",
                   "peano.json", "crossing_paths.json")
# rasters for the crossing_components dump: (generator, level)
CROSSING_RASTERS = (("cantor_comb", 3), ("topologist_sine", 5), ("spiral_disk", 4),
                    ("sierpinski_carpet", 2), ("bars", 4), ("random_blobs", 5))


def _crossings(out: Path) -> None:
    from pcx import (Box, GeneratorParams, Level, RectAnnulus, crossing_components,
                     default_strip_family, make_spec, rasterize)
    doc = {}
    for gen, n in CROSSING_RASTERS:
        spec = make_spec(GeneratorParams(gen, seed=3, t_max=6.0))
        level = Level(n, spec.base)
        K = rasterize(spec, level)
        s = level.cell_size
        regions = list(default_strip_family(spec, level))
        i0, j0, i1, j1 = K.cell_bbox()
        for i in range(i0, i1 + 1, 5):
            for j in range(j0, j1 + 1, 5):
                regions.append(RectAnnulus(
                    Box((i - 6) * s, (j - 6) * s, (i + 7) * s, (j + 7) * s),
                    Box((i - 2) * s, (j - 2) * s, (i + 3) * s, (j + 3) * s)))
        rows = []
        for region in regions:
            for mode in ("intersection", "difference"):
                for n_min, delta in ((4, None), (3, 3 * s)):
                    rep = crossing_components(K, region, mode, delta=delta, n_min=n_min)
                    row = rep.to_dict()
                    row["limits"] = [c.limit.tolist() for c in rep.clusters]
                    rows.append(row)
        doc[f"{gen}_L{n}"] = rows
    (out / "crossing_components.json").write_text(
        json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# merge-set dumps: (name, generator, level, RelationParams fields), with
# delta in cells.  Four-cell delta on the comb runs the persistence check.
RELATION_CASES = (
    ("comb_L3", "cantor_comb", 3, {}),
    ("comb_L3_nmin3", "cantor_comb", 3,
     {"n_min": 3, "delta": 3, "annulus_family": "strips-all-offsets"}),
    ("comb_L3_delta4", "cantor_comb", 3, {"delta": 4}),
    # the persistence check decides these merge sets (they vanish if it fails)
    ("comb_L3_nmin3_delta4", "cantor_comb", 3, {"n_min": 3, "delta": 4}),
    ("sine_L6", "topologist_sine", 6, {}),
    ("spiral_L5", "spiral_disk", 5, {}),
    ("spiral_L5_flags", "spiral_disk", 5,
     {"annulus_family": "rect-annuli-sampled", "stride": 4, "deep_levels": 2,
      "deep_children": 2}),
    # more deep factors for the fracture-locus kernel: 3 and 81 on the comb
    # (one level deep only passes at deep_children 2), 4 on the sine
    ("comb_L3_deep1", "cantor_comb", 3, {"deep_levels": 1, "deep_children": 2}),
    ("comb_L3_deep4", "cantor_comb", 3, {"deep_levels": 4}),
    ("sine_L6_deep2_delta3", "topologist_sine", 6, {"deep_levels": 2, "delta": 3}),
    # block shapes of the deep labelling met nowhere else: f = 2 on the sine
    # (at most one label per block), and f = 8 over the many small pieces
    # and empty blocks of the random blobs (seed 0)
    ("sine_L6_deep1", "topologist_sine", 6, {"deep_levels": 1, "deep_children": 2}),
    ("blobs_L6", "random_blobs", 6, {"deep_children": 2}),
    # the same-level route away from comb L3.  These three reach it but glue
    # nothing: 316 limit-cell queries that all come back empty, a pair query
    # on two regions, and a flat run the box prefilter settles
    ("comb_L4_delta4", "cantor_comb", 4, {"delta": 4}),
    ("sine_L5_nmin3_delta4", "topologist_sine", 5, {"n_min": 3, "delta": 4}),
    ("blobs_L5_nmin3_delta6_flat", "random_blobs", 5,
     {"n_min": 3, "delta": 6, "multi_level": False}),
    # ... and these glue: 317 same-level sets on the comb, 33 on the sine
    # (persistence drops 2 of its 35), 3 on the bars
    ("comb_L4_nmin3_delta4", "cantor_comb", 4, {"n_min": 3, "delta": 4}),
    ("sine_L6_nmin3_delta6", "topologist_sine", 6, {"n_min": 3, "delta": 6}),
    ("bars_L4_nmin3_delta6_flat", "bars", 4, {"n_min": 3, "delta": 6, "multi_level": False}),
)


def _relation_seeds(out: Path) -> None:
    from pcx import (GeneratorParams, Level, RelationParams, make_spec, rasterize,
                     schoenflies_relation)
    doc = {}
    for name, gen, n, fields in RELATION_CASES:
        spec = make_spec(GeneratorParams(gen, t_max=6.0))
        K = rasterize(spec, Level(n, spec.base))
        if "delta" in fields:
            fields = dict(fields, delta=fields["delta"] * K.level.cell_size)
        doc[name] = schoenflies_relation(K, RelationParams(**fields)).to_dict()
    (out / "relation_seeds.json").write_text(
        json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _closures(out: Path) -> None:
    """Close two nested lists of seeded random merge sets on the carpet at
    level 4 and write them as decompose JSON: small sets near one cell, so
    classes span sizes on both sides of the diameter kernel's cutoff."""
    import numpy as np
    from pcx import (GeneratorParams, Level, RelationSeed, close_equivalence,
                     make_spec, rasterize)
    from pcx.cli import _dump_json, decomposition_to_payload
    K = rasterize(make_spec(GeneratorParams("sierpinski_carpet")), Level(4, 3))
    cells = K.cells()
    occupied = set(map(tuple, cells.tolist()))
    rng = np.random.default_rng(5)

    def merge_sets(count: int, reach: int) -> list[np.ndarray]:
        sets = []
        for k in rng.integers(len(cells), size=count):
            near = cells[k] + rng.integers(-reach, reach + 1,
                                           size=(int(rng.integers(0, 4)), 2))
            sets.append(np.array([cells[k].tolist()] + [
                c for c in near.tolist() if tuple(c) in occupied], dtype=np.int64))
        return sets

    fine = merge_sets(K.count // 8, 1)
    for name, sets in (("closure_a.json", fine),
                       ("closure_b.json", fine + merge_sets(K.count // 2, 2))):
        D = close_equivalence(K, RelationSeed(K.level, tuple(sets)))
        _dump_json(decomposition_to_payload(D), str(out / name))


def _bad_documents(out: Path) -> None:
    """Decompose documents whose classes overlap: two cells, and two cells
    plus one that puts the span over the cell budget."""
    for name, classes in (("overlap.json", [[[0, 0], [1, 0]], [[1, 0]]]),
                          ("overlap_far.json", [[[0, 0], [1, 0]],
                                                [[1, 0], [10 ** 7, 10 ** 7]]])):
        doc = {"level": 2, "base": 2, "classes": [{"cells": c} for c in classes]}
        (out / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _complement_scan(out: Path) -> None:
    from pcx import GeneratorParams, complement_diameter_scan, make_spec
    report = complement_diameter_scan(make_spec(GeneratorParams("sierpinski_carpet")),
                                      range(2, 6))
    (out / "complement_scan_carpet.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True) + "\n", encoding="utf-8")


def _windowed_scan(out: Path) -> None:
    """A library scan over windowed and plain strips of the comb, and the
    error of a scan whose second strip's window does not contain K."""
    from pcx import Box, GeneratorParams, GridError, Strip, make_spec, schoenflies_scan
    spec = make_spec(GeneratorParams("cantor_comb"))
    wide = Box(-0.25, -0.25, 1.25, 1.25)
    strips = [Strip("h", 0.25, 0.75, wide), Strip("v", 1 / 9, 5 / 9, wide),
              Strip("h", 0.4, 0.6), Strip("v", 0.3, 0.7, Box(-1.0, -0.5, 2.0, 1.5))]
    doc = {"scan": schoenflies_scan(spec, strips, range(2, 5)).to_dict()}
    try:
        schoenflies_scan(spec, [Strip("h", 0.25, 0.75),
                                Strip("v", 0.25, 0.75, Box(0.2, 0.2, 0.8, 0.8))],
                         range(2, 4))
    except GridError as exc:
        doc["window_error"] = f"{type(exc).__name__}: {exc}"
    (out / "scan_windowed.json").write_text(
        json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _oracle_route(out: Path) -> None:
    """Cells of `rasterize` through a closed-box oracle (no fill), on both
    bases, and of the spec under each of the 8 isometries."""
    from pcx import Box, Level, SetSpec, rasterize, transform_spec
    target = Box(0.25, -0.3, 0.7, 0.5)  # two edges on dyadic grid lines
    spec = SetSpec("box", target, lambda box: box.intersects(target))
    doc = {}
    for base, n in ((2, 3), (3, 2)):
        level = Level(n, base)
        for t in range(8):
            K = rasterize(transform_spec(spec, t), level)
            doc[f"base{base}_L{n}_t{t}"] = K.cells().tolist()
    (out / "oracle_route.json").write_text(
        json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _walk(rng, start: tuple[int, int], size: int, lo: int, hi: int) -> set:
    """4-connected random walk clipped to [lo, hi]^2."""
    cells = {start}
    i, j = start
    for _ in range(4 * size):
        if len(cells) >= size:
            break
        di, dj = ((1, 0), (-1, 0), (0, 1), (0, -1))[int(rng.integers(0, 4))]
        i, j = min(hi, max(lo, i + di)), min(hi, max(lo, j + dj))
        cells.add((i, j))
    return cells


def _separations(out: Path) -> None:
    """Loops of `separating_curve` between two seeded random walks (bricks of
    2 and 4 cells), its two geometric errors, and `cut_wire` on a few
    triples, including A or B off X's bounding box and on an empty cell."""
    import numpy as np
    from pcx import (GridCompactum, GridError, Level, cut_wire, label_components,
                     separating_curve)
    lvl = Level(7, 2)
    rng = np.random.default_rng(3)

    def grid(cells) -> GridCompactum:
        return GridCompactum.from_cells(lvl, np.array(sorted(cells), dtype=np.int64))

    def attempt(fn, *args):
        try:
            return fn(*args)
        except GridError as exc:
            return f"{type(exc).__name__}: {exc}"

    loops = []
    for _ in range(24):
        rc = int(rng.choice((2, 4)))
        P = _walk(rng, (int(rng.integers(0, 6)), int(rng.integers(0, 6))),
                  int(rng.integers(4, 40)), -2, 12)
        off = 14 + 6 * rc
        Q = {(i + off, j) for i, j in _walk(rng, (int(rng.integers(0, 6)),
                                                  int(rng.integers(-4, 8))),
                                            int(rng.integers(4, 40)), -6, 12)}
        lab = label_components(grid(P | Q), 8)
        pid, qid = lab.id_at(*min(P)), lab.id_at(*min(Q))
        loop = separating_curve(grid(P | Q), pid, qid, rc * lvl.cell_size)
        loops.append([loop.r_cells, loop.corner_cells.tolist()])
    ring = {(i, j) for i in range(12) for j in range(12)} - \
        {(i, j) for i in range(1, 11) for j in range(1, 11)}
    doc = {"loops": loops,
           "r_too_large": attempt(separating_curve, grid({(0, 0), (5, 0)}), 0, 1,
                                  8 * lvl.cell_size),
           "q_enclosed": attempt(separating_curve, grid(ring | {(5, 5)}), 0, 1,
                                 2 * lvl.cell_size)}
    X = np.array(sorted(ring | {(5, 5), (6, 5), (20, 3)}), dtype=np.int64)
    wires = []
    for A, B in (([[0, 0]], [[11, 11]]), ([[5, 5]], [[0, 3]]), ([[20, 3]], [[6, 5]]),
                 ([[0, 0], [5, 5]], [[20, 3]]), ([[40, 0]], [[0, 0]]),
                 ([[0, 0]], [[3, 3]])):
        res = attempt(cut_wire, X, np.array(A), np.array(B))
        wires.append(res if isinstance(res, str) else
                     [res.connected] + [None if c is None else c.tolist()
                                        for c in (res.component, res.side_a, res.side_b)])
    doc["cut_wire"] = wires
    (out / "separation.json").write_text(
        json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# peano_check inputs: (generator, levels), one base per list
PEANO_CASES = (("cantor_comb", (2, 3, 4)), ("topologist_sine", (3, 4, 5, 6)),
               ("sierpinski_carpet", (1, 2, 3)), ("bars", (2, 3, 4, 5)))


def _peano(out: Path) -> None:
    """The peano_check report of each set's quotient graphs over its levels."""
    from pcx import (GeneratorParams, Level, decompose, make_spec, peano_check,
                     quotient_graph, rasterize)
    doc = {}
    for gen, levels in PEANO_CASES:
        spec = make_spec(GeneratorParams(gen))
        graphs = [quotient_graph(rasterize(spec, lvl), decompose(spec, lvl))
                  for lvl in (Level(n, spec.base) for n in levels)]
        doc[gen] = peano_check(graphs, (0.5, 0.25, 0.1, 0.01)).to_dict()
    (out / "peano.json").write_text(
        json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _crossing_paths(out: Path) -> None:
    """Paths of `crossing_path` through seeded random rects with random
    blockers (a path or None each), and through a 512 x 512 rect whose two
    walls force the path up one side, across and up the other."""
    import numpy as np
    from pcx import Box, Level, crossing_path
    lvl = Level(9, 2)
    s = lvl.cell_size
    rng = np.random.default_rng(5)
    paths = []
    for _ in range(60):
        i0, j0 = (int(v) for v in rng.integers(-8, 8, size=2))
        w, h = (int(v) for v in rng.integers(2, 24, size=2))
        free = rng.random((h, w)) >= rng.uniform(0.1, 0.6)
        side = rng.random((h, w)) < 0.5
        side[:, -1], side[:, 0] = False, True  # A misses the right column, B the left
        js, is_ = np.nonzero(~free & side)
        A = np.stack([is_ + i0, js + j0], axis=1)
        js, is_ = np.nonzero(~free & ~side)
        B = np.stack([is_ + i0, js + j0], axis=1)
        path = crossing_path(Box(i0 * s, j0 * s, (i0 + w) * s, (j0 + h) * s), A, B, lvl)
        paths.append(None if path is None else path.tolist())
    n = 512
    A = np.array([[i, n // 3] for i in range(n - 1)])
    B = np.array([[i, 2 * n // 3] for i in range(1, n)])
    doc = {"random": paths, "walled": crossing_path(Box(0, 0, n * s, n * s), A, B, lvl).tolist()}
    (out / "crossing_paths.json").write_text(
        json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _argv(argv: list[str], out: Path) -> list[str]:
    argv = [a.replace("{out}", str(out)) for a in argv]
    if "spiral_disk" in argv and "--t-max" not in argv:
        argv += ["--t-max", "6"]
    return argv


def emit(out: Path) -> None:
    """Write every output of the imported pcx into `out`, plus a manifest."""
    import pcx
    from pcx.cli import run
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"pcx": str(Path(pcx.__file__).resolve().parent), "rc": {}, "stderr": {}}
    t0 = time.perf_counter()
    _closures(out)
    _bad_documents(out)
    for name, argv in CASES:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            manifest["rc"][name] = run(_argv(argv, out) + ["--out", str(out / name)])
        manifest["stderr"][name] = err.getvalue().replace(str(out), "{out}")
    _complement_scan(out)
    _crossings(out)
    _relation_seeds(out)
    _windowed_scan(out)
    _oracle_route(out)
    _separations(out)
    _peano(out)
    _crossing_paths(out)
    manifest["seconds"] = round(time.perf_counter() - t0, 1)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _run_checkout(checkout: Path, out: Path) -> dict:
    src = checkout.resolve() / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, __file__, "--emit", str(out)], env=env, check=True)
    manifest = json.loads((out / "manifest.json").read_text())
    if Path(manifest["pcx"]) != src / "pcx":
        raise SystemExit(f"{checkout}: imported pcx from {manifest['pcx']}")
    return manifest


def _names() -> list[str]:
    return [name for name, _ in CASES] + list(LIBRARY_OUTPUTS)


def _digest(data: bytes | str | None) -> str:
    if data is None:
        return "-"
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _versions() -> str:
    import numpy
    import scipy
    return f"numpy {numpy.__version__}, scipy {scipy.__version__}"


def _manifest_lines(out: Path, manifest: dict) -> list[str]:
    """One line per output: file sha256, exit code, stderr sha256, name."""
    lines = []
    for name in _names():
        path, rc = out / name, manifest["rc"].get(name)
        lines.append(f"{_digest(path.read_bytes() if path.exists() else None)}  "
                     f"{'-' if rc is None else rc}  "
                     f"{_digest(manifest['stderr'].get(name))}  {name}")
    return lines


def write_manifest(path: Path, work: Path) -> int:
    lines = _manifest_lines(work, _run_checkout(ROOT, work))
    path.write_text(f"# scripts/check_outputs.py outputs with {_versions()}\n"
                    + "\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} outputs to {path}")
    return 0


def check_manifest(path: Path, work: Path) -> int:
    text = path.read_text(encoding="utf-8").splitlines()
    want = {line.rsplit("  ", 1)[1]: line for line in text if not line.startswith("#")}
    got = _manifest_lines(work, _run_checkout(ROOT, work))
    bad = [line for line in got if want.get(line.rsplit("  ", 1)[1]) != line]
    stale = sorted(set(want) - set(_names()))
    for line in bad + [f"(not emitted)  {name}" for name in stale]:
        print(f"DIFF  {line}")
    print(f"{len(got) - len(bad)} of {len(got)} outputs match {path}")
    if bad or stale:
        print(f"manifest {text[0].lstrip('# ')}; this run: {_versions()}")
    return 1 if bad or stale else 0


def compare(old: Path, new: Path, work: Path) -> int:
    ma = _run_checkout(old, work / "old")
    mb = _run_checkout(new, work / "new")
    print(f"old: {ma['seconds']} s, new: {mb['seconds']} s")
    names = _names()
    bad = 0
    for name in names:
        a, b = work / "old" / name, work / "new" / name
        rc = (ma["rc"].get(name), mb["rc"].get(name))
        same = rc[0] == rc[1] and a.exists() == b.exists() and \
            ma["stderr"].get(name) == mb["stderr"].get(name) and \
            (not a.exists() or a.read_bytes() == b.read_bytes())
        size = a.stat().st_size if a.exists() else 0
        print(f"{'same' if same else 'DIFF'}  rc={rc[0]}/{rc[1]}  {size:>9} B  {name}")
        bad += not same
    print(f"{len(names) - bad} of {len(names)} outputs identical")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?", type=Path)
    ap.add_argument("new", nargs="?", type=Path)
    ap.add_argument("--work", type=Path, default=None,
                    help="keep outputs here (default: a temporary directory)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--manifest", type=Path, metavar="FILE",
                      help="compare this checkout's outputs with a manifest")
    mode.add_argument("--write-manifest", type=Path, metavar="FILE",
                      help="write the manifest of this checkout's outputs")
    ap.add_argument("--emit", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.emit is not None:
        emit(args.emit)
        return 0
    if args.manifest or args.write_manifest:
        if args.old is not None:
            ap.error("--manifest and --write-manifest take no checkouts")
    elif args.old is None or args.new is None:
        ap.error("give two checkouts, or --manifest FILE or --write-manifest FILE")

    def run(work: Path) -> int:
        if args.manifest is not None:
            return check_manifest(args.manifest, work)
        if args.write_manifest is not None:
            return write_manifest(args.write_manifest, work)
        return compare(args.old, args.new, work)

    if args.work is not None:
        return run(args.work)
    with tempfile.TemporaryDirectory() as tmp:
        return run(Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
