"""Multi-resolution rasterization of planar sets and component/metric primitives.

Cells at refinement depth n have side 1/base**n.  Cell (i, j) covers the square
[i*s, (i+1)*s] x [j*s, (j+1)*s] in scene units, s = cell size.  Foreground sets
are handled with 8-connectivity, complements with 4-connectivity, the standard
dual pairing that keeps digital Jordan-curve arguments paradox-free.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, cKDTree

Cells = np.ndarray  # (N, 2) int64 array of (i, j) lattice coordinates

DEFAULT_MAX_LEVEL = 12
# Largest bbox cell range rasterize accepts: a 100 MB mask, about 1 GB once
# labelled.  Admits base-3 level 8 and base-2 level 11 over the spiral's
# +-17/8 box; rejects base-3 level 9 and above on the unit square.
MAX_RASTER_CELLS = 10 ** 8

_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT_8 = np.ones((3, 3), dtype=bool)


class GridError(Exception):
    pass


class DepthExceeded(GridError):
    pass


class WindowError(GridError):
    pass


def max_level() -> int:
    """Deepest refinement level allowed; override with PCX_MAX_LEVEL."""
    raw = os.environ.get("PCX_MAX_LEVEL", "")
    if not raw:
        return DEFAULT_MAX_LEVEL
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise GridError(f"PCX_MAX_LEVEL must be a non-negative integer, got {raw!r}")
    return n


@dataclass(frozen=True, order=True)
class Level:
    n: int
    base: int = 2

    def __post_init__(self) -> None:
        if self.base not in (2, 3):
            raise GridError(f"base must be 2 or 3, got {self.base}")
        if self.n < 0:
            raise GridError(f"negative refinement depth {self.n}")
        if self.n > max_level():
            raise DepthExceeded(f"level {self.n} exceeds cap {max_level()}")

    @property
    def cell_size(self) -> float:
        return float(self.base) ** (-self.n)

    def finer(self, k: int = 1) -> "Level":
        return Level(self.n + k, self.base)

    def coarser(self, k: int = 1) -> "Level":
        return Level(self.n - k, self.base)


@dataclass(frozen=True)
class Box:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (-np.inf < self.x0 <= self.x1 < np.inf and -np.inf < self.y0 <= self.y1 < np.inf):
            raise GridError(f"degenerate box {self}")

    def intersects(self, other: "Box") -> bool:
        return (self.x0 <= other.x1 and other.x0 <= self.x1
                and self.y0 <= other.y1 and other.y0 <= self.y1)

    def contains_box(self, other: "Box") -> bool:
        return (self.x0 <= other.x0 and other.x1 <= self.x1
                and self.y0 <= other.y0 and other.y1 <= self.y1)

    def pad(self, margin: float) -> "Box":
        return Box(self.x0 - margin, self.y0 - margin,
                   self.x1 + margin, self.y1 + margin)


# An oracle maps a closed box to True (meets the set), False (definitely
# disjoint) or None (unknown at tolerance).  It must be conservative: never
# False for a box that meets the true set.  Only a user spec without a fill
# needs one; its raster then marks every cell whose closed box meets the set.
BoxOracle = Callable[[Box], Optional[bool]]
# An exact fill maps a Level to ((i0, j0), bool mask indexed [j - j0, i - i0]).
# The built-in sets mark the cells that overlap an area of the set in positive
# measure, and the half-open cells that a curve or segment meets.
ExactFill = Callable[[Level], tuple[tuple[int, int], np.ndarray]]


@dataclass(frozen=True)
class SetSpec:
    """A planar set as a scene box plus a rasterizer: an exact fill, which
    rasterize prefers, or else a box oracle."""
    name: str
    bbox: Box
    oracle: BoxOracle | None = None
    fill: ExactFill | None = None
    base: int = 2  # grid base the set is aligned with

    def __post_init__(self) -> None:
        if self.base not in (2, 3):
            raise GridError(f"base must be 2 or 3, got {self.base}")
        if self.fill is None and self.oracle is None:
            raise GridError(f"{self.name} has neither a fill nor an oracle")


def _as_cells(arr: np.ndarray) -> Cells:
    out = np.asarray(arr, dtype=np.int64)
    if out.size == 0:
        return out.reshape(0, 2)
    if out.ndim != 2 or out.shape[1] != 2:
        raise GridError(f"cell array must have shape (N, 2), got {out.shape}")
    return out


def sort_cells(cells: Cells) -> Cells:
    """Row-major order: by j then i, the scan order used for deterministic ids."""
    cells = _as_cells(cells)
    if len(cells) == 0:
        return cells
    order = np.lexsort((cells[:, 0], cells[:, 1]))
    return cells[order]


def _mask_of(cells: Cells) -> tuple[tuple[int, int], np.ndarray]:
    """(origin, mask) of the tightest raster holding the cells; see GridCompactum."""
    cells = _as_cells(cells)
    if len(cells) == 0:
        return (0, 0), np.zeros((0, 0), dtype=bool)
    i0, j0 = int(cells[:, 0].min()), int(cells[:, 1].min())
    h, w = int(cells[:, 1].max()) - j0 + 1, int(cells[:, 0].max()) - i0 + 1
    if h * w > MAX_RASTER_CELLS:
        raise GridError(f"cells span {h * w} cells, over the budget of {MAX_RASTER_CELLS}")
    mask = np.zeros((h, w), dtype=bool)
    mask[cells[:, 1] - j0, cells[:, 0] - i0] = True
    return (i0, j0), mask


def _cells_of(mask: np.ndarray, origin: tuple[int, int]) -> Cells:
    """The True cells of an origin-anchored mask, in row-major order."""
    js, is_ = np.nonzero(mask)
    return np.stack([is_ + origin[0], js + origin[1]], axis=1).astype(np.int64)


def _at(image: np.ndarray, origin: tuple[int, int], i, j, outside=-1) -> np.ndarray:
    """image[j - origin[1], i - origin[0]] at cells (i, j), scalars or arrays
    alike, and `outside` (cast to the image dtype) at cells off the image."""
    ii, jj = np.asarray(i) - origin[0], np.asarray(j) - origin[1]
    ok = (0 <= ii) & (ii < image.shape[1]) & (0 <= jj) & (jj < image.shape[0])
    out = np.full(ok.shape, outside, dtype=image.dtype)
    out[ok] = image[jj[ok], ii[ok]]
    return out


def _group(keys: np.ndarray, n: int, cells: Cells) -> tuple[Cells, np.ndarray]:
    """The cells ordered by key 0..n-1, input order kept inside a key, and
    the n + 1 bounds of the groups."""
    order = np.argsort(keys, kind="stable")
    return cells[order], np.searchsorted(keys[order], np.arange(n + 1))


def _canonical(raw_ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber group keys 0..n-1 in order of first occurrence."""
    _, first, inverse = np.unique(raw_ids, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inverse.ravel()], len(first)


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on 0..n-1 with edges a-b,
    as a CSR built directly: one row per node a, holding each edge once."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    graph = csr_matrix((np.ones(len(a)), b[np.argsort(a)], indptr), shape=(n, n))
    return connected_components(graph, directed=False)


@dataclass(frozen=True, eq=False)
class GridCompactum:
    """Raster of a planar compactum: an origin-anchored boolean mask.

    mask[j - origin[1], i - origin[0]] is True when cell (i, j) is occupied.
    """
    level: Level
    origin: tuple[int, int]
    mask: np.ndarray
    source: SetSpec | None = None

    @staticmethod
    def from_cells(level: Level, cells: Cells,
                   source: SetSpec | None = None) -> "GridCompactum":
        origin, mask = _mask_of(cells)
        return GridCompactum(level, origin, mask, source)

    @staticmethod
    def from_mask(level: Level, origin: tuple[int, int], mask: np.ndarray,
                  source: SetSpec | None = None) -> "GridCompactum":
        mask = np.asarray(mask, dtype=bool)
        # the bounding box from the occupied rows and columns, not every cell
        js, is_ = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        if not len(js):
            return GridCompactum(level, (0, 0), np.zeros((0, 0), dtype=bool), source)
        j0, j1, i0, i1 = int(js[0]), int(js[-1]), int(is_[0]), int(is_[-1])
        trimmed = mask[j0:j1 + 1, i0:i1 + 1]
        return GridCompactum(level, (origin[0] + i0, origin[1] + j0),
                             np.ascontiguousarray(trimmed), source)

    @functools.cached_property
    def is_empty(self) -> bool:
        """Computed once per raster: nothing writes a mask in place."""
        return self.mask.size == 0 or not self.mask.any()

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def cells(self) -> Cells:
        return _cells_of(self.mask, self.origin)

    def cell_bbox(self) -> tuple[int, int, int, int]:
        """(i0, j0, i1, j1) inclusive cell-index bounds; raises when empty."""
        if self.is_empty:
            raise GridError("empty raster has no bounding box")
        return (self.origin[0], self.origin[1],
                self.origin[0] + self.mask.shape[1] - 1,
                self.origin[1] + self.mask.shape[0] - 1)

    def contains_cell(self, i: int, j: int) -> bool:
        return bool(_at(self.mask, self.origin, i, j, False))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridCompactum):
            return NotImplemented
        return (self.level == other.level
                and np.array_equal(self.cells(), other.cells()))

    def __repr__(self) -> str:
        return (f"GridCompactum(level=Level({self.level.n}, {self.level.base}), "
                f"cells={self.count})")


def _slab(K: GridCompactum, i0: int, j0: int, i1: int, j1: int) -> np.ndarray:
    """K's occupancy over the inclusive cell rectangle as bool[nj, ni]."""
    out = np.zeros((j1 - j0 + 1, i1 - i0 + 1), dtype=bool)
    if K.is_empty:
        return out
    oi, oj = K.origin
    H, W = K.mask.shape
    si0, si1 = max(i0, oi), min(i1, oi + W - 1)
    sj0, sj1 = max(j0, oj), min(j1, oj + H - 1)
    if si0 > si1 or sj0 > sj1:
        return out
    out[sj0 - j0:sj1 - j0 + 1, si0 - i0:si1 - i0 + 1] = \
        K.mask[sj0 - oj:sj1 - oj + 1, si0 - oi:si1 - oi + 1]
    return out


def _raster_range(spec: SetSpec, level: Level) -> tuple[int, int, int, int]:
    """The cells (i0, j0, i1, j1), inclusive, that rasterize searches, once
    the depth cap and the cell budget admit them, before any fill."""
    if level.n > max_level():
        raise DepthExceeded(f"level {level.n} exceeds cap {max_level()}")
    s = level.cell_size
    # One cell of margin on every side: a closed cell box that only touches a
    # bbox edge lying on a grid line still meets the set; the oracle prunes.
    i0 = int(np.floor(spec.bbox.x0 / s)) - 1
    j0 = int(np.floor(spec.bbox.y0 / s)) - 1
    i1 = int(np.ceil(spec.bbox.x1 / s))
    j1 = int(np.ceil(spec.bbox.y1 / s))
    span = (i1 - i0 + 1) * (j1 - j0 + 1)
    if span > MAX_RASTER_CELLS:
        raise GridError(f"{spec.name} at level {level.n} (base {level.base}) spans "
                        f"{span} cells, over the budget of {MAX_RASTER_CELLS}")
    return i0, j0, i1, j1


def rasterize(spec: SetSpec, level: Level) -> GridCompactum:
    """Outer cover of spec at the given level.

    An exact fill, which every built-in set has, gives the raster directly.
    Otherwise the conservative oracle drives a subdivision search over the
    spec bounding box (boxes reported disjoint are pruned, unknowns are
    refined down to single cells and kept): closed-box semantics.
    """
    i0, j0, i1, j1 = _raster_range(spec, level)
    s = level.cell_size
    if spec.fill is not None:
        origin, mask = spec.fill(level)
        return GridCompactum.from_mask(level, origin, mask, source=spec)
    hits: list[tuple[int, int]] = []
    stack = [(i0, j0, i1 - i0 + 1, j1 - j0 + 1)]
    while stack:
        bi, bj, wi, wj = stack.pop()
        verdict = spec.oracle(Box(bi * s, bj * s, (bi + wi) * s, (bj + wj) * s))
        if verdict is False:
            continue
        if wi == 1 and wj == 1:
            hits.append((bi, bj))
            continue
        hi, hj = max(wi // 2, 1), max(wj // 2, 1)
        parts = {(bi, bj, hi if wi > 1 else 1, hj if wj > 1 else 1)}
        if wi > 1:
            parts.add((bi + hi, bj, wi - hi, hj if wj > 1 else 1))
        if wj > 1:
            parts.add((bi, bj + hj, hi if wi > 1 else 1, wj - hj))
        if wi > 1 and wj > 1:
            parts.add((bi + hi, bj + hj, wi - hi, wj - hj))
        stack.extend(sorted(parts))
    return GridCompactum.from_cells(level, np.array(sorted(hits), dtype=np.int64).reshape(-1, 2),
                                    source=spec)


def coarsen(K: GridCompactum) -> GridCompactum:
    """One-level outer coarsening: a parent cell is kept iff any child is."""
    if K.level.n < 1:
        raise GridError("already at level 0")
    parent = K.level.coarser()
    if K.is_empty:
        return GridCompactum(parent, (0, 0), np.zeros((0, 0), dtype=bool), K.source)
    cells = K.cells()
    coarse = np.unique(cells // K.level.base, axis=0)  # floor division: exact for negatives
    return GridCompactum.from_cells(parent, coarse, source=K.source)


@dataclass(frozen=True)
class ComponentMeta:
    id: int
    size: int
    cell_bbox: tuple[int, int, int, int]  # (i0, j0, i1, j1) inclusive
    diameter: float
    touches_frame: bool

    @property
    def unbounded(self) -> bool:
        return self.touches_frame


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Components as columns: component k is grouped[bounds[k]:bounds[k + 1]], its
    cells row-major, with cell box boxes[k], diameter diameters[k] and unbounded[k]
    when it touches the labeled frame.  metas is built on first read."""
    level: Level
    origin: tuple[int, int]
    labels: np.ndarray     # int32; -1 outside the labeled set
    grouped: Cells         # every labeled cell, component by component
    bounds: np.ndarray     # count + 1 offsets into grouped
    boxes: np.ndarray      # (count, 4) inclusive (i0, j0, i1, j1)
    diameters: np.ndarray  # float64 per component
    unbounded: np.ndarray  # bool per component

    @property
    def count(self) -> int:
        return len(self.bounds) - 1

    def component_cells(self, cid: int) -> Cells:
        return self.grouped[self.bounds[cid]:self.bounds[cid + 1]]

    def _rows(self) -> Iterator[tuple[int, tuple[int, ...], float, bool]]:
        """(size, box, diameter, unbounded) per component, as Python values."""
        return zip(np.diff(self.bounds).tolist(), map(tuple, self.boxes.tolist()),
                   self.diameters.tolist(), self.unbounded.tolist())

    @functools.cached_property
    def metas(self) -> tuple[ComponentMeta, ...]:
        """One ComponentMeta per component, built on first read."""
        return tuple(ComponentMeta(k, *row) for k, row in enumerate(self._rows()))

    def id_at(self, i: int, j: int) -> int:
        return int(_at(self.labels, self.origin, i, j))


def _label_mask(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    if connectivity not in (4, 8):
        raise GridError(f"connectivity must be 4 or 8, got {connectivity}")
    struct = _STRUCT_8 if connectivity == 8 else _STRUCT_4
    labels = np.empty(mask.shape, dtype=np.int32)
    n = ndimage.label(mask, structure=struct, output=labels)
    labels -= 1  # background -> -1, ids 0-based
    # scipy numbers in scan order already; renumbering by first pixel keeps ids off its internals
    fg = labels >= 0
    labels[fg] = _canonical(labels[fg])[0]
    return labels, n


def _labeling(level: Level, origin: tuple[int, int], mask: np.ndarray,
              connectivity: int) -> ComponentLabeling:
    """The components of an origin-anchored mask, as columns."""
    labels, n = _label_mask(mask, connectivity)
    fg = labels >= 0
    cells, bounds = _group(labels[fg], n, _cells_of(fg, origin))
    boxes = np.hstack([f.reduceat(cells, bounds[:-1]) for f in (np.minimum, np.maximum)])
    frame = (origin[0], origin[1], origin[0] + mask.shape[1] - 1, origin[1] + mask.shape[0] - 1)
    return ComponentLabeling(level, origin, labels, cells, bounds, boxes,
                             diameters(cells, bounds, level.cell_size),
                             (boxes == frame).any(axis=1))


def label_components(K: GridCompactum, connectivity: int = 8) -> ComponentLabeling:
    """Deterministic component labeling of an occupied-cell raster."""
    return _labeling(K.level, K.origin, K.mask, connectivity)


def _cell_span(lo: float, hi: float, s: float) -> tuple[int, int]:
    """First and last index of the cells of side s that cover [lo, hi] on
    one axis, with 1e-9 cell of slack so an end on a grid line stays put."""
    return int(np.floor(lo / s + 1e-9)), int(np.ceil(hi / s - 1e-9)) - 1


def window_cell_range(window: Box, level: Level) -> tuple[int, int, int, int]:
    """Cells whose boxes cover the window: (i0, j0, i1, j1) inclusive."""
    s = level.cell_size
    (i0, i1), (j0, j1) = _cell_span(window.x0, window.x1, s), _cell_span(window.y0, window.y1, s)
    if i1 < i0 or j1 < j0:
        raise WindowError(f"window {window} collapses at level {level.n}")
    return i0, j0, i1, j1


def complement_components(K: GridCompactum, window: Box) -> ComponentLabeling:
    """4-connected components of the window cells not in K.

    Components touching the window frame are flagged unbounded (stand-ins for
    the single unbounded complement component of the true compactum).
    """
    i0, j0, i1, j1 = window_cell_range(window, K.level)
    if not K.is_empty:
        ki0, kj0, ki1, kj1 = K.cell_bbox()
        if ki0 < i0 or kj0 < j0 or ki1 > i1 or kj1 > j1:
            raise WindowError("window smaller than K's bounding box")
    return _labeling(K.level, (i0, j0), ~_slab(K, i0, j0, i1, j1), 4)


def hausdorff_distance(a: Cells, b: Cells, cell_size: float) -> float:
    """Symmetric Hausdorff distance between cell-center clouds, scene units."""
    a, b = _as_cells(a), _as_cells(b)
    if len(a) == 0 or len(b) == 0:
        raise GridError("hausdorff_distance of an empty cell set")
    pa = (a.astype(np.float64) + 0.5) * cell_size
    pb = (b.astype(np.float64) + 0.5) * cell_size
    d_ab = cKDTree(pb).query(pa)[0].max()
    d_ba = cKDTree(pa).query(pb)[0].max()
    return float(max(d_ab, d_ba))


def diameter(a: Cells, cell_size: float) -> float:
    """Max pairwise distance over cell-box corner extremes, scene units."""
    a = _as_cells(a)
    return float(diameters(a, [0, len(a)], cell_size)[0])


_PAIR_CELLS = 64  # largest group `diameters` measures pairwise
_PAIR_CHUNK = 1 << 16  # cell pairs per batch of such groups


def _row_extremes(cells: Cells, sizes: np.ndarray) -> tuple[Cells, np.ndarray]:
    """The leftmost and rightmost cell of each row of consecutive groups of
    the given sizes, grouped alike, and the new group sizes."""
    key = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((cells[:, 0], cells[:, 1], key))
    cells, key = cells[order], key[order]
    cut = (key[1:] != key[:-1]) | (cells[1:, 1] != cells[:-1, 1])
    keep = np.r_[True, cut] | np.r_[cut, True]
    return cells[keep], np.bincount(key[keep], minlength=len(sizes))


def diameters(cells: Cells, bounds: np.ndarray, cell_size: float) -> np.ndarray:
    """Max pairwise corner distance of every group cells[bounds[k]:bounds[k+1]].

    Per axis, the farthest corners of cells a and b lie max(|hi_a - lo_b|,
    |hi_b - lo_a|) apart, with lo = c*s and hi = (c+1.0)*s.  Both terms are
    monotone in a's column, as are squaring, summing and sqrt, so a row's
    two extreme cells reach every float distance its inner cells reach:
    groups over _PAIR_CELLS cells are first cut to those.  Groups still
    over it are measured on the convex hull of their corners, which holds
    the farthest pair; the rest are bucketed by size and measured pairwise."""
    cells = _as_cells(cells)
    sizes = np.diff(np.asarray(bounds, dtype=np.int64))
    if (sizes <= 0).any():
        raise GridError("diameter of an empty cell set")
    big = sizes > _PAIR_CELLS
    ids = np.r_[np.flatnonzero(~big), np.flatnonzero(big)]  # output slot per group
    if big.any():
        cut, cut_sizes = _row_extremes(cells[np.repeat(big, sizes)], sizes[big])
        cells = np.concatenate([cells[np.repeat(~big, sizes)], cut])
        sizes = np.r_[sizes[~big], cut_sizes]
    bounds = np.r_[0, np.cumsum(sizes)]
    lo, hi = cells.T * cell_size, (cells.T + 1.0) * cell_size  # (2, N)
    out = np.empty(len(sizes))
    for m in np.unique(sizes).tolist():
        ks = np.flatnonzero(sizes == m)
        if m > _PAIR_CELLS:
            for k in ks.tolist():
                l, h = lo[:, bounds[k]:bounds[k + 1]], hi[:, bounds[k]:bounds[k + 1]]
                corners = np.concatenate([np.stack([x, y], axis=1)
                                          for x in (l[0], h[0]) for y in (l[1], h[1])])
                v = corners[ConvexHull(corners).vertices]
                out[ids[k]] = np.sqrt(((v[:, None] - v[None]) ** 2).sum(axis=2)).max()
            continue
        step = max(1, _PAIR_CHUNK // (m * m))
        for c in range(0, len(ks), step):
            idx = bounds[ks[c:c + step]][:, None] + np.arange(m)
            # per axis (g, m) -> pairs (g, m, m)
            dx, dy = (np.maximum(np.abs(h[:, :, None] - l[:, None]),
                                 np.abs(h[:, None] - l[:, :, None]))
                      for l, h in zip(lo[:, idx], hi[:, idx]))
            far = np.sqrt(dx * dx + dy * dy).reshape(len(idx), -1).max(axis=1)
            out[ids[ks[c:c + step]]] = far
    return out


# The 8 grid isometries about the scene origin, as integer matrices acting on
# (x, y).  t = 0..3 rotate by 90*t degrees CCW; t = 4..7 reflect (x -> -x)
# then rotate.
TRANSFORM_IDS = tuple(range(8))
_ISOMETRIES = np.array([[[1, 0], [0, 1]], [[0, -1], [1, 0]],
                        [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
                        [[-1, 0], [0, 1]], [[0, 1], [1, 0]],
                        [[1, 0], [0, -1]], [[0, -1], [-1, 0]]], dtype=np.int64)


def _isometry(t: int) -> np.ndarray:
    if t not in TRANSFORM_IDS:
        raise GridError(f"unknown transform {t}")
    return _ISOMETRIES[int(t)]


def transform_cells(cells: Cells, t: int) -> Cells:
    """Cell (i, j) covers [i, i+1] x [j, j+1]; M maps it to the cell whose
    lower-left corner is M(i, j) + (M(1, 1) - (1, 1)) / 2."""
    M = _isometry(t)
    return _as_cells(cells) @ M.T + (M.sum(axis=1) - 1) // 2


def transform_point(x: float, y: float, t: int) -> tuple[float, float]:
    (a, b), (c, d) = _isometry(t).tolist()
    return a * x + b * y, c * x + d * y


def inverse_transform(t: int) -> int:
    """The isometry undoing t: its matrix is the transpose of t's."""
    inv = _isometry(t).T
    return next(k for k in TRANSFORM_IDS if np.array_equal(_ISOMETRIES[k], inv))


def transform_box(box: Box, t: int) -> Box:
    xa, ya = transform_point(box.x0, box.y0, t)
    xb, yb = transform_point(box.x1, box.y1, t)
    return Box(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))


def transform_grid(K: GridCompactum, t: int) -> GridCompactum:
    """Apply one of the 8 grid isometries; exact on cell indices."""
    return GridCompactum.from_cells(K.level, transform_cells(K.cells(), t))


def transform_spec(spec: SetSpec, t: int) -> SetSpec:
    """Isometry-transformed spec whose rasterization is exactly the
    transformed rasterization of the original at every level."""
    if t == 0:
        return spec
    inv = inverse_transform(t)

    def fill(level: Level) -> tuple[tuple[int, int], np.ndarray]:
        origin, mask = spec.fill(level)
        return _mask_of(transform_cells(_cells_of(mask, origin), t))

    def oracle(box: Box) -> Optional[bool]:
        return spec.oracle(transform_box(box, inv))

    return SetSpec(name=f"{spec.name}~t{t}", bbox=transform_box(spec.bbox, t),
                   oracle=oracle if spec.oracle is not None else None,
                   fill=fill if spec.fill is not None else None, base=spec.base)
