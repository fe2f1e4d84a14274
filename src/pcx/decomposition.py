"""Finite-scale core decompositions with Peano-model quotients.

A raster cell is related to another when some bounded region between two
parallel grid lines (or nested rectangles) is crossed by a whole cluster of
distinct components accumulating on a common limit set: the finite surrogate
of "infinitely many crossing components".  Two detection routes feed the
relation:

* same-level clustering: a delta-graph component (single linkage at cut
  delta) of >= n_min crossing components; their mutual limit cells are glued
  (optionally required to persist one level finer);
* deep splitting (multi-level mode): one crossing component at the working
  level that splinters into >= deep_children distinct fragments of the same
  region several levels finer is an accumulation witness; the cells meeting
  two or more fragments within delta (the fracture locus) are glued, one
  connected patch at a time.  Needs the raster's source spec to refine.

The relation is closed into an equivalence by the connected components of a
star graph over each merge set (the one csgraph routine, grid._components);
class ids are canonical (ascending by smallest row-major cell), so equal
partitions are byte-identical.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .grid import (Cells, GridCompactum, GridError, Level, SetSpec,
                   _as_cells, _at, _canonical, _cells_of, _components, _group,
                   _label_mask, _raster_range, diameters, max_level, rasterize)
from .schoenflies import (_FAR, _BlockRegions, _crossing_counts, _limit_cells, _near_cells,
                          _ranges, _runs, _single_linkage, _support, _strictly_increasing_tail)

_FAMILIES = ("strips-all-offsets", "rect-annuli-sampled", "both")


@dataclass(frozen=True)
class RelationParams:
    """Knobs for the finite accumulation detector.

    delta is in scene units (None: 2 cells at the working level).  n_min is
    the cluster size standing in for "infinitely many".  deep_levels and
    deep_children control multi-level splitting.
    """
    n_min: int = 4
    delta: float | None = None
    annulus_family: str = "both"
    stride: int = 8
    multi_level: bool = True
    deep_levels: int = 3
    deep_children: int = 3

    def __post_init__(self) -> None:
        if self.n_min < 3:
            raise GridError(f"n_min must be >= 3, got {self.n_min}")
        if self.delta is not None and not 0 < self.delta < np.inf:
            raise GridError(f"delta must be positive and finite, got {self.delta}")
        if self.annulus_family not in _FAMILIES:
            raise GridError(f"annulus_family must be one of {_FAMILIES}")
        if self.stride < 1:
            raise GridError("stride must be >= 1")
        if self.deep_levels < 1:
            raise GridError("deep_levels must be >= 1")
        if self.deep_children < 2:
            raise GridError("deep_children must be >= 2")


@dataclass(frozen=True, eq=False)
class RelationSeed:
    level: Level
    merge_sets: tuple[Cells, ...]

    def to_dict(self) -> dict:
        return {
            "level": self.level.n,
            "base": self.level.base,
            "merge_sets": [[[int(i), int(j)] for i, j in ms]
                           for ms in self.merge_sets],
        }


@dataclass(frozen=True, eq=False, slots=True)
class ClassInfo:
    id: int
    representative: tuple[int, int]  # smallest row-major cell
    cells: Cells
    size: int
    diameter: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A partition of K as columns: class k is grouped[bounds[k]:bounds[k + 1]],
    its cells row-major, and diameters[k] is its diameter."""
    level: Level
    origin: tuple[int, int]
    class_map: np.ndarray  # int32 per cell; -1 outside K
    grouped: Cells         # every cell, class by class
    bounds: np.ndarray     # class_count + 1 offsets into grouped
    diameters: np.ndarray  # float64 per class

    @property
    def class_count(self) -> int:
        return len(self.bounds) - 1

    @property
    def cell_count(self) -> int:
        return len(self.grouped)

    def class_cells(self, k: int) -> Cells:
        return self.grouped[self.bounds[k]:self.bounds[k + 1]]

    def _rows(self) -> Iterator[tuple[int, int, list[int], float]]:
        """(start, end, representative, diameter) per class, as Python values."""
        b = self.bounds.tolist()
        return zip(b, b[1:], self.grouped[self.bounds[:-1]].tolist(), self.diameters.tolist())

    @functools.cached_property
    def classes(self) -> tuple[ClassInfo, ...]:
        """One ClassInfo per class, built on first read."""
        return tuple(ClassInfo(k, tuple(r), self.grouped[i:j], j - i, d)
                     for k, (i, j, r, d) in enumerate(self._rows()))

    def class_of(self, i: int, j: int) -> int:
        return int(_at(self.class_map, self.origin, i, j))

    def cells(self) -> Cells:
        return _cells_of(self.class_map >= 0, self.origin)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.level == other.level and np.array_equal(self.bounds, other.bounds) \
            and np.array_equal(self.grouped, other.grouped)

    def to_dict(self, include_cells: bool = False) -> dict:
        cells = self.grouped.tolist() if include_cells else []
        classes = [{"id": k, "representative": r, "size": j - i, "diameter": d}
                   | ({"cells": cells[i:j]} if include_cells else {})
                   for k, (i, j, r, d) in enumerate(self._rows())]
        return {
            "level": self.level.n,
            "base": self.level.base,
            "cell_size": self.level.cell_size,
            "class_count": self.class_count,
            "classes": classes,
        }


@dataclass(frozen=True, eq=False)
class QuotientGraph:
    """Classes as nodes, joined when they contain 8-adjacent cells, as columns:
    component k is members[cbounds[k]:cbounds[k + 1]], by smallest node."""
    level: Level
    nodes: np.ndarray                # int64 0..n-1
    sizes: np.ndarray                # int64 cells per node
    diameters: np.ndarray            # float64 per node
    representatives: Cells           # one cell per node, aligned with nodes
    edges: np.ndarray                # (E, 2) int64, a < b, ascending
    members: np.ndarray              # every node, component by component
    cbounds: np.ndarray              # component count + 1 offsets into members
    component_diameters: np.ndarray  # float64 per component

    def to_dict(self) -> dict:
        m, b = self.members.tolist(), self.cbounds.tolist()
        return {
            "level": self.level.n,
            "base": self.level.base,
            "nodes": [{"id": n, "size": s, "diameter": d, "representative": r}
                      for n, s, d, r in zip(*(c.tolist() for c in (
                          self.nodes, self.sizes, self.diameters, self.representatives)))],
            "edges": self.edges.tolist(),
            "components": [m[i:j] for i, j in zip(b, b[1:])],
            "component_diameters": self.component_diameters.tolist(),
        }


# ---------------------------------------------------------------------------
# region families

def _family(K: GridCompactum, params: RelationParams, R: GridCompactum) -> np.ndarray:
    """The relation's regions, from K's cells, as a window table at the
    raster R, at K's level or finer: one int64 row per region as _window
    gives it, a cell of K f cells of R a side.  First the strips: all bands
    two cells wide, h then v, overlapping by one cell so glued bands chain
    transitively along a fiber, laterally across R's cell box and two cells
    more (0..2 for an empty R, as _lateral_range has it).  Then the square
    annuli (17x17 outer, 7x7 inner hole, 5-cell ring) centered on a
    stride-sampled subset of K's cells, row-major.  A cell is sampled when
    both coordinates sit at a stride-block edge (i mod stride in {0,
    stride-1}, same for j): that set is invariant under the 8 grid
    isometries, so the family commutes with them.  The hole is wide enough
    to sever a fattened curve bundle into one crossing piece per side, and
    the ring reaches past the sample spacing so neighbouring glue patches
    overlap and chain."""
    f, (i0, j0, i1, j1) = K.level.base ** (R.level.n - K.level.n), K.cell_bbox()
    lat = np.add(R.cell_bbox(), [-2, -2, 2, 2]) if not R.is_empty else [0, 0, 2, 2]
    rows = [np.zeros((0, 9), dtype=np.int64)]
    if params.annulus_family != "rect-annuli-sampled":
        for kind, (a, b) in enumerate(((j0, j1), (i0, i1))):
            k = np.arange(a - 1, b + 1)[:, None]
            band = np.tile(np.r_[lat, -_FAR, -_FAR, _FAR, _FAR, kind], (len(k), 1))
            band[:, [1 - kind, 3 - kind, 5 - kind]] = np.hstack([k, k + 2, k + 2]) * f - [0, 1, 0]
            rows.append(band)
    if params.annulus_family != "strips-all-offsets":
        # past K's extent every stride samples only coordinates 0 and -1
        cells, stride = K.cells(), min(params.stride, max(-i0, -j0, i1, j1) + 2)
        c = cells[((cells % stride == 0) | (cells % stride == stride - 1)).all(axis=1)]
        rows.append(np.c_[(np.tile(c, 4) + [-8, -8, 9, 9, -3, -3, 4, 4]) * f
                          - [0, 0, 1, 1, 0, 0, 1, 1], np.full(len(c), 2)])
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# relation seeding

def _crossing_pieces(blocks: _BlockRegions) -> tuple[np.ndarray, Cells, np.ndarray,
                                                     np.ndarray]:
    """The crossing pieces of a block labelling at f = 1, region by region
    and by id: their components, their cells (piece by piece, row-major, as
    a region's nodes run at f = 1) with the count of each piece's cells, and
    the bounds of each region's pieces."""
    c = blocks.order[blocks.cross[blocks.order]]
    rank = np.full(len(blocks.cross), -1)
    rank[c] = np.arange(len(c))
    nodes = np.flatnonzero(blocks.cross[blocks.comp])
    nodes = nodes[np.argsort(rank[blocks.comp[nodes]], kind="stable")]
    return (c, blocks.block(nodes), np.bincount(rank[blocks.comp[nodes]], minlength=len(c)),
            np.r_[0, np.cumsum(blocks.counts)])


def _clusters(K: GridCompactum, picked: np.ndarray, coarse: _BlockRegions,
              params: RelationParams, delta: float) -> tuple[np.ndarray, list[Cells]]:
    """The same-level merge sets of the regions picked (rows of K's family)
    that coarse, a labelling at f = 1 at K, lists: the position in picked
    of each set's region and its cells, row-major; by region, then by
    smallest id.  A region with fewer than n_min crossing pieces has no
    group and never reaches the pair query.
    Three phases serve all regions at once: the gated groups, from one
    single linkage; the persistence of every group, from one labelling one
    level finer of the regions with a group, one more linkage and one lookup
    of the parents; and the limit cells, one support query per run of groups."""
    s, n_min, windows = K.level.cell_size, params.n_min, coarse.windows
    pieces, cells, sizes, bounds = _crossing_pieces(coarse)
    members, gb = _single_linkage(cells, sizes, bounds, delta, s, n_min)
    gs = np.diff(gb)
    gx = np.searchsorted(bounds, members[gb[:-1]], side="right") - 1
    if params.multi_level and K.source is not None and K.level.n < max_level() and len(gs):
        # a group persists when a group of at least as many crossing pieces
        # of its region one level finer has a cell whose parent lies in one
        # of its members
        xs = np.unique(gx)
        K2 = rasterize(K.source, K.level.finer())
        _, cells2, sizes2, bounds2 = _crossing_pieces(
            _BlockRegions().label(K2, 1, _family(K, params, K2)[picked[xs]]))
        members2, gb2 = _single_linkage(cells2, sizes2, bounds2, delta, K2.level.cell_size, n_min)
        u, h = _ranges((np.cumsum(sizes2) - sizes2)[members2], sizes2[members2])
        h = np.searchsorted(gb2, h, side="right") - 1  # the fine group of each cell
        piece = coarse.at(xs[np.searchsorted(bounds2, members2[gb2[h]], side="right") - 1],
                          cells2[u] // K.level.base)
        group = np.full(len(coarse.cross) + 1, -1)  # the group of each piece; none at -1
        group[pieces[members]] = np.repeat(np.arange(len(gs)), gs)
        g = group[piece]
        ok = np.isin(np.arange(len(gs)), g[(g >= 0) & (np.diff(gb2)[h] >= gs[g])])
        members, gs, gx = members[np.repeat(ok, gs)], gs[ok], gx[ok]
        gb = np.r_[0, np.cumsum(gs)]
    if not len(gs):
        return gx, []
    # each group's candidates: the cells of K near its region's window
    rx, gr = np.unique(gx, return_inverse=True)
    cand = [_near_cells(K, windows[x, :4], delta, s) for x in rx.tolist()]
    cb = np.r_[0, np.cumsum([len(c) for c in cand])]
    limits = _limit_cells(np.concatenate(cand), cb[gr], cb[gr + 1], cells, sizes, members, gb,
                          (delta + 1e-9) / s, n_min)
    return gx[[len(c) > 0 for c in limits]], [c for c in limits if len(c)]


def _unit_pairs(blocks: _BlockRegions, ts: np.ndarray, coarse: _BlockRegions, factor: int,
                unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (coarse piece, deep unit) pairs of the block regions ts,
    sorted, as two arrays; the pieces are the components of coarse, whose
    first len(ts) regions are the regions ts at f = 1.  A unit counts under
    the piece that holds the parent of the first pixel of one of its
    crossing components: those parents stay 8-connected inside the region,
    hence in one coarse piece.  An annulus ring cuts a curve threading its
    hole into two crossing components, but for fragment identity the curve
    is one object (else one arc vouches for itself twice), so components of
    one `unit`, their component in the whole deep window
    (_BlockRegions.units), are one unit, which can count under several
    pieces."""
    c, x = _ranges(blocks.cbounds[ts], blocks.cbounds[ts + 1] - blocks.cbounds[ts])
    cross = blocks.cross[blocks.order[c]]
    comp, x = blocks.order[c][cross], x[cross]
    row, col = np.divmod(blocks.first[comp], blocks.shape[1] * factor)
    piece = coarse.at(x, (np.stack([col, row], axis=1) + blocks.corner) // factor)
    n = int(unit.max(initial=0)) + 1
    return np.divmod(np.unique(piece[piece >= 0] * n + unit[comp[piece >= 0]]), n)


def _fracture_loci(blocks: _BlockRegions, ts: np.ndarray, coarse: _BlockRegions,
                   factor: int, reach: float, children: int) -> tuple[np.ndarray, list[Cells]]:
    """The fracture-locus patches of the block regions ts (ascending), with
    coarse a labelling at f = 1 at the working level whose first len(ts)
    regions are the regions ts: the position in ts of each patch's region
    and the patch's cells, row-major; by region, piece and first cell.
    Three phases serve all regions at once: the (piece, unit) pairs, one
    support query per _NODES pairs and nodes, and one graph of the loci."""
    unit = blocks.units(ts[blocks.windows[ts, 8] == 2])  # the annuli
    piece_of, unit_of = _unit_pairs(blocks, ts, coarse, factor, unit)
    nk = np.bincount(piece_of, minlength=len(coarse.cross))
    # the cells of each piece with enough units (only a crossing piece holds
    # one), row-major per region (at f = 1 labels run so), to pair with each
    nodes, x = _ranges(coarse.bounds[:len(ts)], np.diff(coarse.bounds[:len(ts) + 1]))
    sel = (nk >= children)[coarse.comp[nodes]]
    x, piece, cells = x[sel], coarse.comp[nodes[sel]], coarse.block(nodes[sel])
    if not len(cells):
        return np.zeros(0, dtype=np.int64), []
    # a cell is on the fracture locus when two units reach it within delta
    # (a transversal through a split point only ever shows two local sides);
    # a unit's nodes give its blocks, and their pixels its fine cells.  A run
    # of whole regions, some _NODES pairs and nodes, at a time bounds the memory
    size, ok = blocks.bounds[ts + 1] - blocks.bounds[ts], np.zeros(len(cells), dtype=bool)
    for xa, xb in _runs(np.bincount(x, nk[piece], len(ts)) + size):
        ca, cb = np.searchsorted(x, [xa, xb])
        at, owner = _ranges(np.searchsorted(piece_of, piece[ca:cb]), nk[piece[ca:cb]])
        run = _ranges(blocks.bounds[ts[xa:xb]], size[xa:xb])[0]
        run = run[blocks.cross[blocks.comp[run]]]
        ok[ca:cb] = _support(cells[ca:cb], factor, unit[blocks.comp[run]], blocks.block(run),
                             owner, unit_of[at], reach, 2, lambda q: blocks.pixels(run[q]))
    x, piece, cells = x[ok], piece[ok], cells[ok]
    # each connected patch of a locus stands for its own limit continuum: the
    # 8-adjacent cells of one region joined.  Keys by region, then row-major,
    # in a frame a cell wider than the cells on every side, are ascending
    lo = cells.min(axis=0, initial=0) - 1
    w, h = (cells.max(axis=0, initial=0) - lo + 2).tolist()
    key = (x * h + cells[:, 1] - lo[1]) * w + cells[:, 0] - lo[0]
    to = key[:, None] + [1, w - 1, w, w + 1]
    at = np.searchsorted(key, to).clip(max=len(key) - 1)
    hit = key[at] == to
    # patch ids by first cell; a patch lies in one piece, as distinct pieces
    # are never 8-adjacent, and pieces rank by first cell too
    patch, n = _canonical(_components(len(key), np.nonzero(hit)[0], at[hit])[1])
    first = np.unique(patch, return_index=True)[1]
    order = np.lexsort((np.arange(n), coarse.first[piece[first]], x[first]))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    grouped, gb = _group(rank[patch], n, cells)
    return x[first][order], [grouped[gb[r]:gb[r + 1]] for r in range(n)]


def schoenflies_relation(K: GridCompactum, params: RelationParams | None = None,
                         jobs: int = 1) -> RelationSeed:
    """Merge sets witnessing accumulation of crossing components.

    Scans every region of the enumerated family in intersection mode.  A
    cluster of >= n_min crossing components emits its limit cells; in
    multi-level mode the cluster must persist (not shrink) one level finer.
    Additionally, any single crossing component that splits into >=
    deep_children distinct fragments of the same region deep_levels finer
    emits its fracture locus: the cells touched by at least two fragments
    within delta, one connected patch per merge set.

    No region is labelled alone, and each raster is labelled once.  The
    family is one window table per raster (_family), and no region object
    is built.  The regions are counted in batches at the working level
    (schoenflies._crossing_counts): a region with fewer than n_min crossing
    ids has no cluster, one with no crossing no witness.  The deep raster's
    budget is checked first, but it is filled only once some region
    crosses, and labelled in blocks (schoenflies._BlockRegions) for those
    regions; then one labelling at f = 1 lists the regions the deep count
    passes, then the others with n_min crossing ids.  The deep split
    (_fracture_loci) reads its first regions, and the deep labelling is
    freed; the same-level route (_clusters) reads all of them, and labels
    one level finer to test persistence.  Both routes need K.source to
    refine; without one, clusters are not filtered and deep splitting is
    off.  Merge sets come by region in family order, a region's same-level
    sets (by smallest id) before its deep ones; `jobs` has no effect.
    """
    params = params or RelationParams()
    if K.is_empty:
        return RelationSeed(K.level, ())
    s = K.level.cell_size
    delta = params.delta if params.delta is not None else 2.0 * s
    if delta < s - 1e-12:
        raise GridError(f"delta {delta} is below one cell ({s})")
    base = K.level.base

    # the deep level's budget is checked up front, even if no region crosses
    deep_n = min(K.level.n + params.deep_levels, max_level())
    deep = params.multi_level and K.source is not None and deep_n > K.level.n
    if deep:
        _raster_range(K.source, Level(deep_n, base))

    # crossing counts of every region
    windows = _family(K, params, K)
    counts = _crossing_counts(K, windows, "intersection")

    # the deep split is taken for regions with a coarse crossing; a piece
    # counts a unit once and units never outnumber deep crossing ids, so a
    # region with too few ids has no witness.  Every such region is a union
    # of whole coarse cells of the deep raster
    live, ts, blocks = np.flatnonzero(counts > 0), np.zeros(0, dtype=np.int64), None
    if deep and len(live):
        # in a list, so that the block labelling can take it over and free it
        held = [rasterize(K.source, Level(deep_n, base))]
        dcell, factor = held[0].level.cell_size, base ** (deep_n - K.level.n)
        dwins = _family(K, params, held[0])[live]
        blocks = _BlockRegions().label(held.pop(), factor, dwins)
        ts = np.flatnonzero(blocks.counts >= params.deep_children)
    # one labelling at f = 1 for both routes: the deep-gated regions first,
    # then those only the same-level gate passes
    same = np.flatnonzero(counts >= params.n_min)
    picked = np.r_[live[ts], np.setdiff1d(same, live[ts])]
    if not len(picked):
        return RelationSeed(K.level, ())
    coarse = _BlockRegions().label(K, 1, windows[picked])
    xs, sets = np.zeros(0, dtype=np.int64), []
    if len(ts):
        # a piece exploding into many deep crossing components is a witness:
        # glue its approximate limit (coarse cells supported by enough deep
        # pieces), not the whole piece, which can hold well-resolved geometry
        xs, sets = _fracture_loci(blocks, ts, coarse, factor, (delta + 1e-9) / dcell,
                                  params.deep_children)
    blocks = None  # the deep labelling is freed before the same-level route
    if len(same):
        # same-level accumulation: big clusters glue their limit cells
        ys, clusters = _clusters(K, picked, coarse, params, delta)
        xs, sets = np.r_[ys, xs], clusters + sets
    # by region in family order; stable, so same-level sets stay first
    order = np.argsort(picked[xs], kind="stable")
    return RelationSeed(K.level, tuple(sets[i] for i in order.tolist()))


# ---------------------------------------------------------------------------
# equivalence closure and partitions

def _partition_from_ids(K: GridCompactum, cells: Cells,
                        raw_ids: np.ndarray) -> Decomposition:
    """Canonical Decomposition from per-cell group keys (cells row-major)."""
    class_ids, n = _canonical(raw_ids)
    oi, oj = K.origin
    class_map = np.full(K.mask.shape, -1, dtype=np.int32)
    class_map[cells[:, 1] - oj, cells[:, 0] - oi] = class_ids.astype(np.int32)

    grouped, bounds = _group(class_ids, n, cells)
    return Decomposition(K.level, K.origin, class_map, grouped, bounds,
                         diameters(grouped, bounds, K.level.cell_size))


def close_equivalence(K: GridCompactum, seed: RelationSeed) -> Decomposition:
    """Smallest equivalence gluing every merge set; classes canonically
    numbered by their smallest row-major cell."""
    if seed.level != K.level:
        raise GridError("seed level does not match the raster")
    n = K.count
    sets = [_as_cells(ms) for ms in seed.merge_sets]
    sizes = np.array([len(ms) for ms in sets], dtype=np.int64)
    if (sizes == 0).any():
        raise GridError("empty merge set")
    ms = np.concatenate([np.zeros((0, 2), dtype=np.int64)] + sets)
    index = np.full(K.mask.shape, -1, dtype=np.int64)
    index[K.mask] = np.arange(n)
    idxs = _at(index, K.origin, ms[:, 0], ms[:, 1])
    if (idxs < 0).any():
        raise GridError("merge set cell outside K")
    # a star per merge set: its first cell joined to each of its cells
    hubs = np.repeat(idxs[np.cumsum(sizes) - sizes], sizes)
    return _partition_from_ids(K, K.cells(), _components(n, hubs, idxs)[1])


def decompose(spec: SetSpec, level: Level, params: RelationParams | None = None,
              jobs: int = 1) -> Decomposition:
    """rasterize -> schoenflies_relation -> close_equivalence.  `jobs` is
    accepted and has no effect (seeding is serial)."""
    K = rasterize(spec, level)
    seed = schoenflies_relation(K, params, jobs=jobs)
    return close_equivalence(K, seed)


# ---------------------------------------------------------------------------
# quotient graphs

_ADJ_SHIFTS = ((1, 0), (0, 1), (1, 1), (1, -1))


def _check_partition(K: GridCompactum, D: Decomposition) -> None:
    """Raise unless D partitions K: same level and origin, and D's occupied
    cells are exactly K's."""
    if D.level != K.level or D.origin != K.origin \
            or not np.array_equal(D.class_map >= 0, K.mask):
        raise GridError("decomposition does not partition this raster")


def _adjacencies(K: GridCompactum, D: Decomposition
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every 8-adjacent pair of cells of a partition D of K as row-major cell
    indices (p, q), and the class id of each cell."""
    cm = D.class_map
    H, W = cm.shape
    fg = cm >= 0
    index = np.full((H + 2, W + 2), -1, dtype=np.int32)  # -1 also on a guard ring
    index[1:-1, 1:-1][fg] = np.arange(K.count)
    p = index[1:-1, 1:-1]
    ps, qs = [], []
    for di, dj in _ADJ_SHIFTS:
        q = index[1 + dj:H + 1 + dj, 1 + di:W + 1 + di]
        both = fg & (q >= 0)
        ps.append(p[both])
        qs.append(q[both])
    return np.concatenate(ps), np.concatenate(qs), cm[fg].astype(np.int64)


def quotient_graph(K: GridCompactum, D: Decomposition) -> QuotientGraph:
    _check_partition(K, D)
    p, q, ids = _adjacencies(K, D)
    a, b = ids[p], ids[q]
    n = D.class_count
    keys = np.unique((np.minimum(a, b) * n + np.maximum(a, b))[a != b])
    comp_ids, count = _canonical(_components(n, a, b)[1])
    members, cbounds = _group(comp_ids, count, np.arange(n))
    cells, bounds = _group(comp_ids[ids], count, D.cells())
    return QuotientGraph(K.level, np.arange(n), np.diff(D.bounds), D.diameters,
                         D.grouped[D.bounds[:-1]], np.stack([keys // n, keys % n], axis=1),
                         members, cbounds, diameters(cells, bounds, K.level.cell_size))


def contract_degree_two(nodes: Iterable[int], edges: Sequence[tuple[int, int]] | np.ndarray
                        ) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Repeatedly remove vertices of degree two, until stable.

    Adjacency triangles are read as filled (clique semantics, matching the
    8-adjacency the graph was built with), so two moves are sound:

    * neighbors already adjacent: dropping the vertex collapses a filled
      triangle across its free face;
    * neighbors not adjacent and sharing no other common neighbor: dropping
      the vertex and joining the neighbors un-subdivides the chain edge.

    A chordless quadrilateral admits neither move, which is what keeps a
    genuine loop from ever contracting into a path.  The edges are pairs or
    an (E, 2) array, and each end must be a node."""
    adj: dict[int, set[int]] = {int(v): set() for v in nodes}
    try:
        for a, b in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
            adj[a].add(b)
            adj[b].add(a)
    except KeyError:
        raise GridError(f"edge ({a}, {b}) has an end that is not a node") from None
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            nbrs = adj[v]
            if len(nbrs) != 2:
                continue
            a, b = sorted(nbrs)
            if b not in adj[a] and (adj[a] & adj[b]) - {v}:
                continue  # joining a-b would fill a square that is hollow
            adj[a].discard(v)
            adj[b].discard(v)
            adj[a].add(b)
            adj[b].add(a)
            del adj[v]
            changed = True
    out_nodes = tuple(sorted(adj))
    out_edges = tuple(sorted((a, b) for a in adj for b in adj[a] if a < b))
    return out_nodes, out_edges


def is_simple_path(nodes: Sequence[int],
                   edges: Sequence[tuple[int, int]] | np.ndarray) -> bool:
    """True for a path graph: connected, acyclic, max degree 2.  A connected
    graph with one edge fewer than nodes is a tree, and a tree whose degrees
    are at most 2 is a path."""
    n, index = len(nodes), {v: k for k, v in enumerate(nodes)}
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a, b = np.array([index.get(v, -1) for v in ends.ravel().tolist()],
                    dtype=np.int64).reshape(-1, 2).T
    if (bad := np.flatnonzero((a < 0) | (b < 0))).size:
        raise GridError(f"edge {tuple(ends[bad[0]].tolist())} has an end that is not a node")
    if n == 0 or len(a) != n - 1:
        return False
    degree = np.bincount(np.concatenate([a, b]), minlength=n)
    return bool((degree <= 2).all()) and _components(n, a, b)[0] == 1


# ---------------------------------------------------------------------------
# diagnostics

@dataclass(frozen=True)
class MonotoneReport:
    all_connected: bool
    disconnected_ids: tuple[int, ...]
    quotient_components: int
    compactum_components: int

    @property
    def ok(self) -> bool:
        return self.all_connected and \
            self.quotient_components == self.compactum_components

    def to_dict(self) -> dict:
        return {
            "all_connected": self.all_connected,
            "disconnected_ids": list(self.disconnected_ids),
            "quotient_components": self.quotient_components,
            "compactum_components": self.compactum_components,
            "ok": self.ok,
        }


def monotone_check(K: GridCompactum, D: Decomposition) -> MonotoneReport:
    """Connectivity audit: every class should be one 8-connected piece and
    the quotient should have exactly as many components as K.  A violation is
    reported, never repaired — it signals bad relation parameters."""
    _check_partition(K, D)
    p, q, ids = _adjacencies(K, D)
    same = ids[p] == ids[q]
    pieces = _components(len(ids), p[same], q[same])[1]
    # a class is one 8-connected piece when its cells share one piece label
    owners = np.unique(ids * len(ids) + pieces) // len(ids)
    pieces_per_class = np.bincount(owners, minlength=D.class_count)
    bad = tuple(np.flatnonzero(pieces_per_class > 1).tolist())
    qcomp = _components(D.class_count, ids[p], ids[q])[0]
    return MonotoneReport(not bad, bad, qcomp, _label_mask(K.mask, 8)[1])


@dataclass(frozen=True)
class PeanoReport:
    levels: tuple[int, ...]
    thresholds: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]  # per threshold, per level
    stable: tuple[bool, ...]             # per threshold
    representative_scan_divergent: bool

    @property
    def ok(self) -> bool:
        return all(self.stable) and not self.representative_scan_divergent

    def to_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "thresholds": list(self.thresholds),
            "counts": [list(row) for row in self.counts],
            "stable": list(self.stable),
            "representative_scan_divergent": self.representative_scan_divergent,
            "ok": self.ok,
        }


def peano_check(graphs: Sequence[QuotientGraph],
                C_grid: Sequence[float]) -> PeanoReport:
    """Peano-compactum surrogate over quotient graphs at increasing levels.

    Property (2): for each threshold C, the number of quotient components of
    diameter >= C should stabilize (flagged when the last two levels differ).
    Property (1) surrogate: crossing counts on rasters of class
    representatives must not diverge.  The graphs must share one base.
    """
    if not graphs:
        raise GridError("peano_check needs at least one quotient graph")
    if len({g.level.base for g in graphs}) > 1:
        raise GridError("peano_check needs quotient graphs of one base")
    graphs = sorted(graphs, key=lambda g: g.level.n)
    levels = tuple(g.level.n for g in graphs)
    C = np.asarray(C_grid, dtype=np.float64).reshape(-1, 1) - 1e-12
    counts = tuple(map(tuple, np.array([(g.component_diameters >= C).sum(axis=1)
                                        for g in graphs]).T.tolist()))
    stable = tuple(row[-1] == row[-2] if len(row) >= 2 else True
                   for row in counts)

    divergent = False
    reps = [GridCompactum.from_cells(g.level, g.representatives) for g in graphs]
    if not reps[0].is_empty:
        strips = RelationParams(annulus_family="strips-all-offsets")
        ms = np.array([_crossing_counts(R, _family(reps[0], strips, R), "intersection")
                       for R in reps]).T
        divergent = any(_strictly_increasing_tail(m.tolist()) for m in ms)
    return PeanoReport(levels, tuple(float(c) for c in C_grid), counts,
                       stable, divergent)


# ---------------------------------------------------------------------------
# comparing decompositions

def _same_cells(D1: Decomposition, D2: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """The class ids of the shared cells in D1 and in D2, both row-major."""
    if D1.level != D2.level:
        raise GridError("decompositions live at different levels")
    if not np.array_equal(D1.cells(), D2.cells()):
        raise GridError("decompositions cover different cell sets")
    return tuple(D.class_map[D.class_map >= 0].astype(np.int64) for D in (D1, D2))


def refines(D1: Decomposition, D2: Decomposition, tol: float = 0.0) -> bool:
    """True when every class of D1 maps into a single class of D2.

    With tol > 0, containment is relaxed: a D1 class may spill outside its
    D2 class as long as every cell center stays within tol of it.
    """
    ids1, ids2 = _same_cells(D1, D2)
    n2 = D2.class_count + 1
    pairs = np.unique(ids1 * n2 + ids2)
    owner = pairs // n2
    split = np.flatnonzero(np.bincount(owner, minlength=D1.class_count) > 1)
    if len(split) and tol <= 0:
        return False
    s = D1.level.cell_size
    bounds = np.searchsorted(owner, np.arange(D1.class_count + 1))
    for c1 in split.tolist():
        ok = False
        pts = (D1.class_cells(c1).astype(np.float64) + 0.5) * s
        for cand in pairs[bounds[c1]:bounds[c1 + 1]] % n2:
            host = (D2.class_cells(int(cand)).astype(np.float64) + 0.5) * s
            d = cKDTree(host).query(pts)[0]
            if (d <= tol + 1e-9).all():
                ok = True
                break
        if not ok:
            return False
    return True


def common_refinement(D1: Decomposition, D2: Decomposition) -> Decomposition:
    """Classes are the nonempty pairwise intersections of D1 and D2 classes."""
    ids1, ids2 = _same_cells(D1, D2)
    keys = ids1 * (D2.class_count + 1) + ids2
    K = GridCompactum.from_cells(D1.level, D1.cells())
    return _partition_from_ids(K, K.cells(), keys)
