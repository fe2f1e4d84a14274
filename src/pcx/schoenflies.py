"""Strip/annulus crossing analysis and digital separation constructions.

The central question: how many components of K (or of its complement) cross a
region bounded by two parallel grid lines or two nested grid rectangles?
Divergence of these counts under refinement is the finite-resolution signature
of a non-locally-connected set; the module also builds explicit separating
polylines on an offset brick tiling and exact crossing paths in rectangles.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .grid import (_STRUCT_4, _STRUCT_8, Box, Cells, GridCompactum, GridError,
                   Level, SetSpec, WindowError, _as_cells, _at, _canonical,
                   _cell_span, _cells_of, _components, _group,
                   _label_mask, _mask_of, _raster_range, _slab, complement_components,
                   rasterize, sort_cells, window_cell_range)


@dataclass(frozen=True)
class Strip:
    """Region between two parallel grid lines, clipped laterally by a window.

    axis "h": lines y = c1, y = c2 (the strip runs horizontally);
    axis "v": lines x = c1, x = c2.  Offsets snap to the nearest cell boundary
    of whatever raster the strip is applied to, and the snapped values are
    recorded in the resulting report.
    """
    axis: str
    c1: float
    c2: float
    window: Box | None = None

    def __post_init__(self) -> None:
        axis = {"h": "h", "horizontal": "h", "v": "v", "vertical": "v"}.get(self.axis)
        if axis is None:
            raise GridError(f"strip axis must be h or v, got {self.axis!r}")
        object.__setattr__(self, "axis", axis)
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise GridError(f"strip lines must be finite, got {self.c1} and {self.c2}")
        if not self.c1 < self.c2:
            raise GridError(f"strip needs c1 < c2, got {self.c1} >= {self.c2}")

    def snapped_lines(self, level: Level) -> tuple[int, int]:
        s = level.cell_size
        r1 = np.rint(self.c1 / s)  # a float, which an overflow leaves infinite
        r2 = np.rint(self.c2 / s)
        if r2 <= r1:
            raise GridError(f"strip [{self.c1}, {self.c2}] collapses at level {level.n}")
        if max(-r1, r2) >= _FAR:
            raise GridError(f"strip [{self.c1}, {self.c2}] reaches 2**40 cells or more "
                            f"from the origin at level {level.n}")
        return int(r1), int(r2)


@dataclass(frozen=True)
class RectAnnulus:
    """Region between two nested axis-aligned rectangles (grid-aligned)."""
    outer: Box
    inner: Box

    def __post_init__(self) -> None:
        if not self.outer.contains_box(self.inner):
            raise GridError("annulus inner box must nest inside the outer box")

    def snapped_rects(self, level: Level) -> tuple[tuple[int, int, int, int],
                                                   tuple[int, int, int, int]]:
        s = level.cell_size

        def snap(b: Box) -> tuple[int, int, int, int]:
            return (int(np.rint(b.x0 / s)), int(np.rint(b.y0 / s)),
                    int(np.rint(b.x1 / s)) - 1, int(np.rint(b.y1 / s)) - 1)

        o, i = snap(self.outer), snap(self.inner)
        if i[0] <= o[0] or i[1] <= o[1] or i[2] >= o[2] or i[3] >= o[3]:
            raise GridError("annulus boxes must nest with at least one cell between "
                            f"boundaries at level {level.n}")
        if i[2] < i[0] or i[3] < i[1]:
            raise GridError(f"annulus inner box collapses at level {level.n}")
        return o, i


Region = Strip | RectAnnulus


@dataclass(frozen=True, eq=False)
class Cluster:
    """A connected component of the delta-graph on crossing components (ids
    ascending), plus the cells supported by >= min(size, n_min) members."""
    ids: tuple[int, ...]
    limit: Cells


@dataclass(frozen=True, eq=False)
class CrossingReport:
    region: Region
    mode: str
    level: Level
    snapped: tuple[float, float] | tuple[Box, Box]
    crossing_ids: tuple[int, ...]
    m: int
    clusters: tuple[Cluster, ...]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "level": self.level.n,
            "base": self.level.base,
            "m": self.m,
            "crossing_ids": list(self.crossing_ids),
            "clusters": [{"ids": list(c.ids), "limit_cells": len(c.limit)}
                         for c in self.clusters],
        }


def _lateral_range(K: GridCompactum, strip: Strip, level: Level) -> tuple[int, int]:
    horizontal = strip.axis == "h"
    if strip.window is not None:
        w = strip.window
        lo, hi = _cell_span(*((w.x0, w.x1) if horizontal else (w.y0, w.y1)), level.cell_size)
        if not K.is_empty:
            kb = K.cell_bbox()
            k_lo, k_hi = (kb[0], kb[2]) if horizontal else (kb[1], kb[3])
            if not (lo < k_lo and k_hi < hi):
                raise WindowError("K must lie strictly inside the strip window "
                                  "in the unbounded direction")
        return lo, hi
    if K.is_empty:
        return 0, 2
    kb = K.cell_bbox()
    return (kb[0] - 2, kb[2] + 2) if horizontal else (kb[1] - 2, kb[3] + 2)


def _window(K: GridCompactum, region: Region) -> np.ndarray:
    """A region's window at raster K as one int64 row: its cells (i0, j0,
    i1, j1), the cells past its second boundary (an annulus' hole, every
    cell beyond a strip's last line out to _FAR), both inclusive, and its
    kind (0: h strip, 1: v strip, 2: annulus).  Whole families come as
    tables of such rows (decomposition._family); none reaches past _FAR."""
    if isinstance(region, Strip):
        r1, r2 = region.snapped_lines(K.level)
        lo, hi = _lateral_range(K, region, K.level)
        kind = "hv".index(region.axis)
        row = [lo, lo, hi, hi, -_FAR, -_FAR, _FAR, _FAR, kind]
        row[1 - kind], row[3 - kind], row[5 - kind] = r1, r2 - 1, r2  # lines on the axis it crosses
    elif isinstance(region, RectAnnulus):
        row = [c for rect in region.snapped_rects(K.level) for c in rect] + [2]
    else:
        raise GridError(f"unsupported region {type(region).__name__}")
    if max(map(abs, row)) > _FAR:
        raise GridError(f"{region} reaches past 2**40 cells from the origin at level {K.level.n}")
    return np.array(row, dtype=np.int64)


def _snapped(row: np.ndarray, s: float) -> tuple[float, float] | tuple[Box, Box]:
    """What a report records of a window row at cell size s: a strip's lines, an annulus' boxes."""
    r = row.tolist()
    if r[8] == 2:
        return tuple(Box(r[k] * s, r[k + 1] * s, (r[k + 2] + 1) * s, (r[k + 3] + 1) * s)
                     for k in (0, 4))
    return r[1 - r[8]] * s, (r[3 - r[8]] + 1) * s


def _tiles(windows: np.ndarray) -> np.ndarray:
    """The tile of each window row: its rows and columns, a v strip turned
    so that every strip crosses from its first row to its last, then an
    annulus' hole (row0, col0, row1, col1) inclusive in the tile, -1s for a strip."""
    size, kind = windows[:, 2:4] - windows[:, :2] + 1, windows[:, 8:]
    return np.hstack([np.where(kind == 1, size, size[:, ::-1]), np.where(
        kind == 2, windows[:, [5, 4, 7, 6]] - windows[:, [1, 0, 1, 0]], -1)])


@lru_cache(maxsize=32)
def _rings(tile: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The row-major positions in a tile (_tiles) on the two boundaries a
    crossing component meets (a strip's first and last rows; an annulus'
    outer ring and the ring around its hole), and the annulus mask (None
    for a strip)."""
    (h, w, j0, i0, j1, i1), a = tile, np.arange(tile[1])
    if j0 < 0:
        return a, a + (h - 1) * w, None
    region, outer = np.ones((h, w), dtype=bool), np.ones((h, w), dtype=bool)
    region[j0:j1 + 1, i0:i1 + 1] = outer[1:-1, 1:-1] = False
    inner = np.zeros((h, w), dtype=bool)
    inner[max(j0 - 1, 0):j1 + 2, max(i0 - 1, 0):i1 + 2] = True
    return np.flatnonzero(outer), np.flatnonzero(inner & region), region


# pixels of one canvas; a window larger than this is labelled alone
_CANVAS_PIXELS = 1 << 18


def _crossing_counts(K: GridCompactum, windows: np.ndarray, mode: str) -> np.ndarray:
    """Crossing components of each window row (_window) of one raster in
    one mode.  Windows of one tile (_tiles) are stacked as tiles of one
    canvas of at most _CANVAS_PIXELS, a blank guard row under each, and
    labelled once: no component spans two tiles under 4- or 8-connectivity."""
    struct = _STRUCT_8 if mode == "intersection" else _STRUCT_4
    counts = np.zeros(len(windows), dtype=np.int64)
    groups: dict[tuple, list[int]] = {}
    for k, tile in enumerate(map(tuple, _tiles(windows).tolist())):
        groups.setdefault(tile, []).append(k)
    boxes, turned = windows[:, :4].tolist(), (windows[:, 8] == 1).tolist()
    for tile, members in groups.items():
        (h, w), (a, b, region) = tile[:2], _rings(tile)
        per = max(1, _CANVAS_PIXELS // ((h + 1) * w))
        for c in range(0, len(members), per):
            index = members[c:c + per]
            canvas = np.zeros((len(index), h + 1, w), dtype=bool)
            for t, k in enumerate(index):
                slab = _slab(K, *boxes[k])
                canvas[t, :h] = slab.T if turned[k] else slab
            if mode == "difference":
                np.logical_not(canvas[:, :h], out=canvas[:, :h])
            if region is not None:
                canvas[:, :h] &= region
            labels = np.empty(canvas.shape, dtype=np.int32)
            n = ndimage.label(canvas.reshape(-1, w), structure=struct,
                              output=labels.reshape(-1, w))
            del canvas
            # a label on both boundaries of its tile crosses; labels never
            # span tiles, so the first boundary names each label's tile
            flat = labels.reshape(len(index), -1)
            ta, tb = flat[:, a], flat[:, b]
            tile = np.zeros(n + 1, dtype=np.int64)
            tile[ta] = np.arange(len(index))[:, None]
            hit = np.zeros((2, n + 1), dtype=bool)
            hit[0, ta] = hit[1, tb] = True
            counts[index] = np.bincount(tile[np.flatnonzero(hit[0, 1:] & hit[1, 1:]) + 1],
                                        minlength=len(index))
    return counts


# 8-connectivity inside each tile of a (tiles, f, f) stack, none across tiles
_STRUCT_TILES = np.stack([np.zeros_like(_STRUCT_8), _STRUCT_8, np.zeros_like(_STRUCT_8)])
# steps (dc, dr) to the 8 neighbouring blocks, the 4 forward ones first
_DIRS = ((1, 0), (0, 1), (1, 1), (-1, 1), (-1, 0), (0, -1), (-1, -1), (1, -1))
_SIDE = {-1: slice(1), 0: slice(None), 1: slice(-1, None)}
# bit k of _STEPS[lc + 1, hc + 2, lr + 1, hr + 2] says the step (dc, dr) = _DIRS[k] has
# lc <= dc <= hc and lr <= dr <= hr: the steps that stay within those spans of steps
_STEPS = np.zeros((4, 4, 4, 4), dtype=np.uint8)
for _k, (_dc, _dr) in enumerate(_DIRS):
    _STEPS[:_dc + 2, _dc + 2:, :_dr + 2, _dr + 2:] |= 1 << _k
_FAR = 1 << 40  # beyond every block of a raster
_NODES = 1 << 17  # pixels, nodes and seams, pairs, fine cells or probes of one batch


def _edge(tiles: np.ndarray, t: np.ndarray, dc: int, dr: int) -> np.ndarray:
    """The pixels of tiles t on their side or corner facing (dc, dr), a row each."""
    e = tiles[t, _SIDE[dr], _SIDE[dc]]
    return e.reshape(len(t), e.shape[1] * e.shape[2])


class _BlockRegions:
    """Intersection-mode components of regions that are unions of whole f x f
    blocks of a raster (block corners at multiples of f), from one labelling.

    The nonempty blocks are labelled as tiles of one stack, so labels run
    block-major and the labels of a run of blocks along a block row are one
    id range.  Seams join the labels of 8-adjacent pixels in two blocks; bit
    k of a label's exits says it has a pixel on its block's side or corner
    facing _DIRS[k].  A region's components are the graph components of its
    labels and their seams (grid._components over runs of whole regions).  One
    crosses when a label faces a block before the first boundary and one a
    block past the second: below a strip's first line and above its last
    (left and right for a v strip; its lateral range holds all of K), or
    outside an annulus' outer box and inside its hole.  Ids rank a region's
    components by first pixel, as labelling the region alone numbers them.
    """

    def label(self, K: GridCompactum, f: int, windows: np.ndarray) -> _BlockRegions:
        """Label K for the regions of a window table (rows of _window, at K);
        their frames are the rows' boxes in blocks, clipped.  A method,
        not __init__, since a constructor call would keep a raster passed
        inline alive to its end: this one frees it once the blocks are cut
        out.  Its batches count pixels, nodes and seams (_graph), or nodes."""
        (oi, oj), (H, W) = K.origin, K.mask.shape
        self.f, self.corner, self.windows = f, (oi // f * f, oj // f * f), windows
        self.shape = R, C = -(-(oj + H) // f) - oj // f, -(-(oi + W) // f) - oi // f
        (ci, cj), band = self.corner, max(1, _NODES // max(C * f * f, 1))
        # the nonempty blocks, cut out a band of block rows at a time
        full, tiles = [], []
        for r in range(0, max(R, 1), band):
            blocks = _slab(K, ci, cj + r * f, ci + C * f - 1, cj + min(r + band, R) * f - 1
                           ).reshape(-1, f, C, f).transpose(0, 2, 1, 3)
            full.append(blocks.any(axis=(2, 3)))
            tiles.append(blocks[full[-1]])
        del K, blocks  # frees the raster when the caller keeps no reference to it
        full = np.concatenate(full)
        m = int(full.sum())
        index = np.full((R, C), m)  # a block's tile; the last tile is blank
        index[full] = np.arange(m)
        self.tiles = np.zeros((m + 1, f, f), dtype=np.int32)
        self.n = n = ndimage.label(np.concatenate(tiles), _STRUCT_TILES, output=self.tiles[:m])
        del tiles
        tr, tc = np.nonzero(full)
        self.tkey = tr * C + tc
        self.start = np.r_[1, self.tiles[:m].reshape(m, f * f).max(axis=1) + 1]
        block = np.repeat(np.stack([tc, tr], axis=1).astype(np.int32), np.diff(self.start), axis=0)
        # over a run of tiles, the running max first reaches a label at its
        # first pixel, which is also its first in row-major order
        step = max(1, _NODES // (f * f))
        at = np.concatenate([np.searchsorted(
            np.maximum.accumulate(self.tiles[t:t + step].ravel()), np.arange(
                self.start[t], self.start[min(t + step, m)], dtype=np.int32)) + t * f * f
            for t in range(0, m, step)] + [np.zeros(0, dtype=np.int64)])
        t, y, x = np.unravel_index(at, (m, f, f))
        first = np.r_[0, (tr[t] * f + y) * (C * f) + tc[t] * f + x]
        exits, seams = np.zeros(n + 1, dtype=np.uint8), []
        for k, (dc, dr) in enumerate(_DIRS):
            hit = np.zeros(n + 1, dtype=bool)
            hit[_edge(self.tiles, np.arange(m), dc, dr)] = True
            exits[hit] |= np.uint8(1 << k)
            if k < 4:  # the 8-adjacent pixel pairs across a forward side or corner
                p = index[:R - dr, max(-dc, 0):C - max(dc, 0)]
                q = index[dr:, max(dc, 0):C - max(-dc, 0)]
                a, b = (_edge(self.tiles, p[(p < m) & (q < m)], dc, dr),
                        _edge(self.tiles, q[(p < m) & (q < m)], -dc, -dr))
                w = a.shape[1]
                for s in (-1, 0, 1) if w > 1 else (0,):  # each shift's label pairs, once
                    e = a[:, max(-s, 0):w - max(s, 0)], b[:, max(s, 0):w - max(-s, 0)]
                    both = (e[0] > 0) & (e[1] > 0)
                    seams.append(np.unique(e[0][both] * np.int64(n + 1) + e[1][both]))
        seam = np.unique(np.concatenate(seams))
        del seams, a, b, e, both  # freed before the graph is built
        self.seam_b = seam % (n + 1)
        self.ptr = np.searchsorted(seam // (n + 1), np.arange(n + 2))
        # the window's blocks (c0, r0, c1, r1) and those past its second boundary,
        # both inclusive: int32, clipped past every block
        self.frames = ((windows[:, :8] - np.tile(self.corner, 4)) // f).clip(
            -2, max(R, C) + 1).astype(np.int32)

        reg, self.lab, self.comp, nc = self._graph(self.frames)
        self.bounds = np.searchsorted(reg, np.arange(len(self.windows) + 1))
        # chunks of nodes, each 8 entries of its frame, bound the memory
        ends, step = np.zeros((2, len(reg)), dtype=bool), max(1, _NODES // 8)
        for a in range(0, max(len(reg), 1), step):
            g, (c, r) = self.frames[reg[a:a + step]], block[self.lab[a:a + step] - 1].T
            # bits over _DIRS: steps into the frame's box (j = 0), or past its 2nd boundary (j = 4)
            box, far = (_STEPS[(g[:, j] - c).clip(-1, 2) + 1, (g[:, j + 2] - c).clip(-2, 1) + 2,
                               (g[:, j + 1] - r).clip(-1, 2) + 1, (g[:, j + 3] - r).clip(-2, 1) + 2]
                        for j in (0, 4))
            ends[:, a:a + step] = exits[self.lab[a:a + step]] & [~(box | far), far] > 0
        del g, c, r, box, far
        hit, owner, self.first = np.zeros((2, nc), dtype=bool), np.zeros(nc, dtype=np.int64), \
            np.full(nc, R * C * f * f)
        hit[0, self.comp[ends[0]]] = hit[1, self.comp[ends[1]]] = True
        self.cross, owner[self.comp] = hit[0] & hit[1], reg
        np.minimum.at(self.first, self.comp, first[self.lab])
        # a region's components by first pixel: their ids
        self.order = np.lexsort((self.first, owner))
        self.cbounds = np.searchsorted(owner[self.order], np.arange(len(self.windows) + 1))
        self.counts = np.bincount(owner[self.cross], minlength=len(self.windows))
        return self

    def _graph(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The nodes (region, label) of the regions `frames` (the blocks
        past the second boundary left out where they lie inside), region-major
        and labels ascending, as region positions and labels, the component
        of each node, all int32, and the count of components; by runs of
        whole regions, some _NODES nodes and the seams out of them, each an
        entry of the per-edge temporaries and of the graph of grid._components."""
        (R, C), n = self.shape, self.n
        lo, hi = frames[:, :2].clip(0), np.minimum(frames[:, 2:4], [C - 1, R - 1]) + 1
        row, k = _ranges(lo[:, 1], (hi[:, 1] - lo[:, 1]).clip(0))
        c0, c1, g = lo[k, :1], hi[k, :1], frames[k]
        # a row through a hole is two runs of blocks, else one
        hole = (g[:, 5] <= row) & (row <= g[:, 7])
        cols = np.stack([c0[:, 0], np.where(hole, g[:, 4], c1[:, 0]),
                         np.where(hole, g[:, 6] + 1, c1[:, 0]), c1[:, 0]], axis=1)
        ids = self.start[np.searchsorted(self.tkey, row[:, None] * C + cols.clip(c0, c1))]
        # runs of labels (first, count), two a row, and each region's runs;
        # the seams out of a run's labels are ptr[first + count] - ptr[first]
        first, count = ids[:, ::2].ravel(), (ids[:, 1::2] - ids[:, ::2]).ravel()
        span = 2 * np.searchsorted(k, np.arange(len(frames) + 1))
        bounds = np.r_[0, np.cumsum(count)][span]
        cost = np.r_[0, np.cumsum(count + self.ptr[first + count] - self.ptr[first])][span]
        nc, (reg, lab, comp) = 0, (np.empty(bounds[-1], dtype=np.int32) for _ in range(3))
        for (a, b), (ia, ib) in ((bounds[[u, v]], span[[u, v]]) for u, v in _runs(np.diff(cost))):
            lab[a:b], x = _ranges(first[ia:ib], count[ia:ib])
            reg[a:b] = k[(x + ia) // 2]
            key = reg[a:b] * np.int64(n + 1) + lab[a:b]
            s, e = _ranges(self.ptr[lab[a:b]], self.ptr[lab[a:b] + 1] - self.ptr[lab[a:b]])
            want = key[e] - lab[a:b][e] + self.seam_b[s]
            at = np.searchsorted(key, want).clip(max=b - a - 1)
            hit = key[at] == want
            del s, key, want  # freed before the graph is built, which lowers the peak
            m, comp[a:b] = _components(b - a, e[hit], at[hit])
            del e, at, hit
            comp[a:b] += nc
            nc += m
        return reg, lab, comp, nc

    def units(self, ks: Sequence[int]) -> np.ndarray:
        """The unit of every component: for the components of the annulus
        windows ks, the component of the whole window, hole included, that
        holds it (numbered past the components); else the component itself."""
        nc = len(self.cross)
        unit = np.arange(nc)
        if not len(ks):
            return unit
        ks = np.asarray(ks, dtype=np.int64)
        frames = self.frames[ks]
        frames[:, 4:] = [0, 0, -1, -1]
        reg, lab, comp, _ = self._graph(frames)
        nodes, x = _ranges(self.bounds[ks], self.bounds[ks + 1] - self.bounds[ks])
        # both node lists run region-major with labels ascending
        at = np.searchsorted(reg * np.int64(self.n + 1) + lab, x * (self.n + 1) + self.lab[nodes])
        unit[self.comp[nodes]] = nc + comp[at]
        return unit

    def at(self, x: np.ndarray, cells: Cells) -> np.ndarray:
        """The component (int64) of region x that holds pixel (i, j), -1 where none does."""
        f, (R, C), n = self.f, self.shape, self.n
        b = cells // f - np.array(self.corner) // f
        key = np.where(((b >= 0) & (b < [C, R])).all(axis=1), b[:, 1] * C + b[:, 0], -1)
        t = np.searchsorted(self.tkey, key).clip(max=len(self.tkey) - 1)
        lab = np.where(self.tkey[t] == key, self.tiles[t, cells[:, 1] % f, cells[:, 0] % f], 0)
        # the nodes run region-major with labels ascending
        nkey = np.repeat(np.arange(len(self.windows)), np.diff(self.bounds)) * (n + 1) + self.lab
        node = np.searchsorted(nkey, x * (n + 1) + lab).clip(max=len(nkey) - 1)
        return np.where(nkey[node] == x * (n + 1) + lab, self.comp[node], np.int64(-1))

    def block(self, nodes: np.ndarray) -> Cells:
        """The block of each node as a cell f times coarser, (i, j)."""
        t = np.searchsorted(self.start, self.lab[nodes], side="right") - 1
        r, c = np.divmod(self.tkey[t], self.shape[1])
        return np.stack([c, r], axis=1) + np.array(self.corner) // self.f

    def pixels(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each pixel of the given nodes (its block's pixels of the node's
        label), node by node: the position in nodes of its node, and its
        row-major index in the block."""
        f, lab = self.f, self.lab[nodes]
        t = np.searchsorted(self.start, lab, side="right") - 1
        return np.nonzero(self.tiles[t].reshape(len(t), f * f) == lab[:, None])


def _runs(cost: np.ndarray) -> list[tuple[int, int]]:
    """Runs (a, b) of whole items tiling 0..len(cost), at most _NODES of cost
    each unless one item holds it all, an item of no cost in a run with
    cost: the batches that bound the memory of a pass over many items."""
    cum, out, a = np.r_[0, np.cumsum(cost)], [], 0
    while a < len(cost):
        least = cum[min(int(np.searchsorted(cum, cum[a], side="right")), len(cost))]
        b = int(np.searchsorted(cum, max(cum[a] + _NODES, least), side="right")) - 1
        out.append((a, b))
        a = b
    return out


def _near(box: np.ndarray, bounds: np.ndarray, delta: float, s: float) -> np.ndarray:
    """Which cell sets, given by their bounding boxes (rows x0, y0, x1, y1;
    group g's at bounds[g]:bounds[g + 1]), have another set of their group
    with all four box sides within delta, as Hausdorff <= delta needs.  A
    run of whole groups, some _NODES pairs of sets, at a time bounds the
    memory."""
    near, m = np.zeros(len(box), dtype=bool), np.diff(bounds)
    for ga, gb in _runs(m * m):
        a = np.arange(bounds[ga], bounds[gb])
        g = np.repeat(np.arange(ga, gb), m[ga:gb])
        b, q = _ranges(bounds[g], m[g])
        a = a[q]
        close = (np.abs(box[a] - box[b]) * s <= delta + 1e-9).all(axis=1) & (a != b)
        near[a[close]] = True
    return near


def _single_linkage(cells: Cells, sizes: np.ndarray, bounds: np.ndarray, delta: float,
                    s: float, at_least: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Single linkage at cut delta over the cell sets of many regions at
    once (set p holds the next sizes[p] cells, region g the sets bounds[g]
    .. bounds[g + 1] - 1): the connected components of the delta-graph,
    which joins two sets of one region when every cell of each has a cell of
    the other within delta (symmetric Hausdorff distance <= delta), that
    hold at least `at_least` sets.  Their sets ascending, and the group
    bounds, by smallest set.  One pair query takes the cells of the sets
    with a near partner, from regions with `at_least` of them, and a region
    coordinate 2 (delta + s) apart per region, so regions never pair."""
    m, at = len(sizes), np.cumsum(sizes) - sizes
    region = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    if m:  # every centre distance lies below the cells' diagonal: a longer cut joins as it does
        delta = min(delta, s * math.hypot(*(np.ptp(cells, axis=0) + 1).tolist()))
    near = _near(np.hstack([np.minimum.reduceat(cells, at), np.maximum.reduceat(cells, at)]),
                 bounds, delta, s)
    near &= (np.bincount(region[near], minlength=len(bounds) - 1) >= at_least)[region]
    keep, owner = np.repeat(near, sizes), np.repeat(np.arange(m)[near], sizes[near])
    pts = np.hstack([(cells[keep] + 0.5) * s, region[owner, None] * (2 * (delta + s))])
    p, q = cKDTree(pts).query_pairs(delta + 1e-9, output_type="ndarray").T
    p, q = np.concatenate([p, q]), owner[np.concatenate([q, p])]
    cross = owner[p] != q
    # each (cell, other set) that has a neighbour there, once
    cell, other = np.divmod(np.unique(p[cross] * m + q[cross]), m)
    # (set, other set) pairs in which every cell of the set has one, joined
    # when that holds both ways
    pair, hits = np.unique(owner[cell] * m + other, return_counts=True)
    full = pair[hits == sizes[pair // m]]
    a, b = np.divmod(full, m)
    both = np.isin(b * m + a, full)
    members, gb = _group(*_canonical(_components(m, a[both], b[both])[1]), np.arange(m))
    size = np.diff(gb)
    return members[np.repeat(size >= at_least, size)], np.r_[0, np.cumsum(size[size >= at_least])]


@lru_cache(maxsize=32)
def _spans(f: int, lim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row offsets t and column offsets lo..hi, from a cell's first fine cell
    (f per side), of the fine cells centred within sqrt(lim) half fine cells
    of its centre: in half fine cells, centres sit at 2cf + f and 2q + 1."""
    m = math.isqrt(lim)
    t = np.arange(-((m - f + 1) // 2), (m + f - 1) // 2 + 1)
    h = np.array([math.isqrt(lim - d * d) for d in (2 * t + 1 - f).tolist()])
    return t, -((h - f + 1) // 2), (h + f - 1) // 2


@lru_cache(maxsize=32)
def _disc_blocks(f: int, lim: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The disc of _spans(f, lim) by blocks (cells, f fine cells a side): the
    offsets (x, y), at most two away, of the blocks it meets, the fine cells
    it holds in each (f * f: the whole block), and how many blocks away the
    farthest block it meets lies."""
    t, lo, hi = _spans(f, lim)
    d = np.arange(-2 * f, 3 * f)[:, None]  # the fine offsets of the blocks two round
    k = (d - t[0]).clip(0, len(t) - 1)  # each offset's row of the spans, clipped
    held = ((d >= t[0]) & (d <= t[-1]) & (lo[k] <= d.T) & (d.T <= hi[k]))
    held = held.reshape(5, f, 5, f).sum(axis=(1, 3))
    y, x = np.nonzero(held)
    m = np.abs(np.stack([t, lo, hi])[:, lo <= hi] // f).max()
    return np.stack([x - 2, y - 2], axis=1), held[y, x], int(m)


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges start[k] .. start[k] + count[k] - 1 end to end, and the k of each entry."""
    k = np.repeat(np.arange(len(count)), count)
    return start[k] + np.arange(len(k)) - (np.cumsum(count) - count)[k], k


def _support(cells: Cells, f: int, bunit: np.ndarray, bcell: Cells, owner: np.ndarray,
             unit: np.ndarray, reach: float, k: int | np.ndarray,
             pixels: Callable[[np.ndarray], tuple] | None = None) -> np.ndarray:
    """Mask of the cells that at least k of their pairs reach (k for all, or
    per cell): pair p counts for cells[owner[p]] when unit unit[p] has a
    fine cell centred within `reach` fine cells of its centre (f fine cells
    per cell side).  Unit bunit[q] has a fine cell in cell bcell[q];
    pixels(qs) gives each such fine cell of rows qs as the position in qs of
    its row and its row-major index in the cell (for f = 1, None: the rows
    are the fine cells).  Each unit a pair asks about has a row.  Exact in
    integers, one disc (_disc_blocks) for both stages: a table of the units'
    cells settles a pair with a row where the disc holds a whole cell; if
    the disc ends within two cells, it drops a pair with no row where the
    disc meets a cell, and open pairs key only such rows (else all their
    unit's), some _NODES fine cells (f*f a row) and probes (len(t) a pair)
    at a time.  A probe (a row in reach) is one column span, one searchsorted
    in the sorted keys unit*H*W + row*W + col.  Units are any integers, so
    one query answers many regions when each region's units get ids of their own."""
    acc, k = np.zeros(len(cells), dtype=np.int64), np.broadcast_to(k, len(cells))
    if not len(unit):
        return acc >= k
    # a reach past the diagonal of the cells' and units' frame counts as it does
    frame = np.array([np.ptp(np.r_[cells[:, j], bcell[:, j]]) for j in (0, 1)]) + 1
    lim = int(min(2 * reach, math.hypot(*(2 * f * frame).tolist())) ** 2)
    (t, lo, hi), (off, held, m) = _spans(f, lim), _disc_blocks(f, lim)
    # only the rows of units some pair asks about, units as 0..n-1
    used, unit = np.unique(unit, return_inverse=True)
    bu = np.searchsorted(used, bunit).clip(max=len(used) - 1)
    rows = np.flatnonzero(used[bu] == bunit)
    rows = rows[np.argsort(bu[rows], kind="stable")]
    bu = bu[rows]
    at = np.searchsorted(bu, np.arange(len(used) + 1))
    rc = np.take(bcell, rows, axis=0)  # take: far quicker than fancy indexing of (n, 2) rows
    b0 = np.minimum.reduceat(rc, at[:-1])
    ext = np.maximum.reduceat(rc, at[:-1]) - b0
    # a table of each unit's box b0..b0 + ext, 2r spare cells a side: the
    # offsets of a cell within r of the box stay in it
    r = min(m, 2)
    w, h = ext[:, 0] + 1 + 4 * r, ext[:, 1] + 1 + 4 * r
    start = np.cumsum(w * h) - w * h + 2 * r * (w + 1)  # where each box's corner b0 sits
    ti = start[bu] + (rc[:, 1] - b0[bu, 1]) * w[bu] + rc[:, 0] - b0[bu, 0]
    del rc
    table, p, hits = np.zeros(int((w * h).sum()), dtype=bool), [], [ti[:0]]
    table[ti] = True
    whole, part = off[held == f * f].tolist(), off[held < f * f].tolist() if m <= 2 else []
    step = max(_NODES // 16, 1)  # runs of pairs bound the temporaries
    for a in range(0, len(owner), step):
        o, u = owner[a:a + step], unit[a:a + step]
        c = np.take(cells, o, axis=0) - np.take(b0, u, axis=0)
        g = np.maximum(*np.maximum(-c, c - np.take(ext, u, axis=0)).T)  # cells off the box
        box = np.flatnonzero(g <= r)
        i, uw, sure = start[u[box]] + c[box, 1] * w[u[box]] + c[box, 0], w[u[box]], box < 0
        for x, y in whole:
            sure |= table[i + y * uw + x]
        acc += np.bincount(o[box[sure]], minlength=len(cells))
        ask = (acc[o] < k[o]) & (g <= m)  # settled cells ask no more, nor cells out of reach
        ask[box[sure]] = False
        del c, g
        box, i, uw = box[ask[box]], i[ask[box]], uw[ask[box]]
        met = np.full(len(o), m > 2)  # past two cells, every pair left open stays open
        for j in (i + y * uw + x for x, y in part):  # else those that meet a row of their unit
            met[box[table[j]]] = True
            hits.append(j[table[j]])
        p.append(a + np.flatnonzero(ask & met))
    table[ti] = m > 2  # the rows to key: those an open pair meets; past two cells, all
    table[np.concatenate(hits)] = True
    rows, bu = rows[table[ti]], bu[table[ti]]
    at = np.searchsorted(bu, np.arange(len(used) + 1))
    del table, ti, hits
    p = np.concatenate(p)
    # the open pairs by unit; the units they ask about, with their rows
    p = p[np.argsort(unit[p], kind="stable")]
    nu, npair = np.unique(unit[p], return_counts=True)
    nrow, pat, got = at[nu + 1] - at[nu], np.r_[0, np.cumsum(npair)], np.zeros(len(p), dtype=bool)
    for a, b in _runs(nrow * (f * f) + npair * len(t)):
        qs, uq = _ranges(at[nu[a:b]], nrow[a:b])
        qs = rows[qs]
        q, e = (np.arange(len(qs)), 0) if pixels is None else pixels(qs)
        # keys in a frame of whole cells around the batch's cells, its units as 0..b-a-1
        c0 = bcell[qs].min(axis=0)
        c, (W, H) = (bcell[qs] - c0) * f, (bcell[qs].max(axis=0) - c0 + 1) * f
        keys = ((uq * H + c[:, 1]) * W + c[:, 0])[q]
        keys += (np.arange(f * f) // f * W + np.arange(f * f) % f)[e]
        del q, e
        keys.sort()
        ends = np.searchsorted(keys, np.arange(b - a + 1) * (H * W))
        u = np.repeat(np.arange(b - a), npair[a:b])
        x, y = ((np.take(cells, owner[p[pat[a]:pat[b]]], axis=0) - c0) * f).T
        r0 = np.maximum(y + t[0], keys[ends[u]] % (H * W) // W)
        r, e = _ranges(r0, (np.minimum(y + t[-1], keys[ends[u + 1] - 1] % (H * W) // W)
                            - r0 + 1).clip(0))
        key, r = u[e] * (H * W) + r * W, r - y[e] - t[0]  # r now indexes t, lo and hi
        lo_key, hi_key = key + np.maximum(x[e] + lo[r], 0), key + np.minimum(x[e] + hi[r], W - 1)
        del key, r
        first = keys[np.searchsorted(keys, lo_key).clip(max=len(keys) - 1)]
        got[pat[a] + e[(first >= lo_key) & (first <= hi_key)]] = True
        del keys, e, lo_key, hi_key, first  # freed before the next batch is built
    acc += np.bincount(owner[p[got]], minlength=len(cells))
    return acc >= k


def _limit_cells(cand: Cells, c0: np.ndarray, c1: np.ndarray, cells: Cells, sizes: np.ndarray,
                 members: np.ndarray, gb: np.ndarray, reach: float,
                 k: int | np.ndarray) -> list[Cells]:
    """The limit cells of each group g: the candidates cand[c0[g]:c1[g]]
    that at least k (one for all, or k[g]) of its sets reach within `reach`
    cells (set p holds the next sizes[p] cells; group g the sets
    members[gb[g]:gb[g + 1]], a set in one group at most).  One _support
    query per run of groups, some _NODES pairs and cells, with the sets as
    units."""
    at, gs, nc, k = np.cumsum(sizes) - sizes, np.diff(gb), c1 - c0, np.broadcast_to(k, len(c0))
    out: list[Cells] = []
    for ga, gz in _runs(nc * gs + np.add.reduceat(sizes[members], gb[:-1])):
        rows, g = _ranges(c0[ga:gz], nc[ga:gz])
        g += ga
        pos, owner = _ranges(gb[g], gs[g])  # each row paired with each set of its group
        mem = members[gb[ga]:gb[gz]]
        u, q = _ranges(at[mem], sizes[mem])
        ok = _support(cand[rows], 1, mem[q], cells[u], owner, members[pos], reach, k[g])
        bounds = np.searchsorted(g[ok], np.arange(ga, gz + 1))
        hit = cand[rows[ok]]
        out += [hit[bounds[x]:bounds[x + 1]] for x in range(gz - ga)]
    return out


def _near_cells(K: GridCompactum, box: tuple[int, int, int, int], delta: float,
                s: float) -> Cells:
    """The cells of K within delta (plus a cell) of a window's cells (i0,
    j0, i1, j1), row-major, from a slab cut to K's box."""
    r, (oi, oj), (H, W) = np.ceil(delta / s) + 1, K.origin, K.mask.shape  # r may be inf
    i0, j0, i1, j1 = np.clip(np.add(box, [-r, -r, r, r]), [oi, oj, oi - 1, oj - 1],
                             [oi + W, oj + H, oi + W - 1, oj + H - 1]).astype(np.int64).tolist()
    return _cells_of(_slab(K, i0, j0, i1, j1), (i0, j0))


def crossing_components(K: GridCompactum, region: Region,
                        mode: str = "intersection",
                        delta: float | None = None,
                        n_min: int = 4) -> CrossingReport:
    """Components of the region that meet both boundaries.

    mode "intersection" looks at K inside the region with 8-connectivity;
    mode "difference" at the region minus K with 4-connectivity.  A component
    touches a boundary line/rectangle exactly when one of its cell boxes
    meets it.  The region is labelled alone, ids ranked by first pixel in
    row-major order.  Clusters are the connected components of the
    delta-graph (single linkage at cut delta, default 2 cells), by smallest id.
    """
    s = K.level.cell_size
    if delta is None:
        delta = 2.0 * s
    if not delta >= s - 1e-12:  # nan too
        raise GridError(f"delta {delta} is below one cell ({s})")
    if mode not in ("intersection", "difference"):
        raise GridError(f"mode must be intersection or difference, got {mode!r}")
    if n_min < 1:
        raise GridError(f"n_min must be at least 1, got {n_min}")
    win = _window(K, region)
    box, origin = win[:4].tolist(), tuple(win[:2].tolist())
    image = _slab(K, *box)
    if mode == "difference":
        np.logical_not(image, out=image)
    a, b, ring = _rings(tuple(_tiles(win[None])[0].tolist()))
    if ring is not None:
        image &= ring
    labels, n = _label_mask(image, 8 if mode == "intersection" else 4)
    tile = (labels.T if win[8] == 1 else labels).ravel()
    ids = np.intersect1d(tile[a][tile[a] >= 0], tile[b][tile[b] >= 0])
    fg = labels >= 0
    labelled = _cells_of(fg, origin)
    # candidate universe for approximate limits: occupied cells near the
    # region (intersection mode reaches into K outside the region by delta;
    # difference mode stays inside the labeled window)
    candidates = _near_cells(K, box, delta, s) if mode == "intersection" else labelled
    grouped, bounds = _group(labels[fg], n, labelled)
    sizes = bounds[ids + 1] - bounds[ids]
    cells = grouped[_ranges(bounds[ids], sizes)[0]]
    members, gb = _single_linkage(cells, sizes, np.array([0, len(ids)]), delta, s)
    gs = np.diff(gb)
    limits = _limit_cells(candidates, np.zeros_like(gs), np.full_like(gs, len(candidates)), cells,
                          sizes, members, gb, (delta + 1e-9) / s, np.minimum(gs, n_min))
    clusters = tuple(Cluster(tuple(ids[members[gb[g]:gb[g + 1]]].tolist()), limits[g])
                     for g in range(len(gs)))
    return CrossingReport(region, mode, K.level, _snapped(win, s), tuple(ids.tolist()), len(ids),
                          clusters)


# ---------------------------------------------------------------------------
# scans

@dataclass(frozen=True)
class StripScan:
    strip: Strip
    levels: tuple[int, ...]
    snapped: tuple[tuple[float, float], ...]
    m_int: tuple[int, ...]
    m_diff: tuple[int, ...]
    divergent: bool

    def to_dict(self) -> dict:
        w = self.strip.window
        return {
            "axis": self.strip.axis,
            "c1": self.strip.c1,
            "c2": self.strip.c2,
            "window": None if w is None else [w.x0, w.y0, w.x1, w.y1],
            "levels": list(self.levels),
            "snapped": [list(p) for p in self.snapped],
            "m_int": list(self.m_int),
            "m_diff": list(self.m_diff),
            "divergent": self.divergent,
        }


@dataclass(frozen=True)
class LevelDiameters:
    level: int
    diameters: tuple[float, ...]  # bounded complement components, descending

    def to_dict(self) -> dict:
        return {"level": self.level, "diameters": list(self.diameters)}


@dataclass(frozen=True)
class ScanReport:
    spec_name: str
    base: int
    levels: tuple[int, ...]
    strips: tuple[StripScan, ...] = ()
    verdict: str | None = None
    diameters: tuple[LevelDiameters, ...] = ()
    diameter_flag: bool | None = None

    def to_dict(self) -> dict:
        out = {
            "spec": self.spec_name,
            "base": self.base,
            "levels": list(self.levels),
            "divergence_window": _DIVERGENCE_WINDOW,
            "strips": [s.to_dict() for s in self.strips],
            "verdict": self.verdict,
        }
        if self.diameters or self.diameter_flag is not None:
            out["complement_diameters"] = [d.to_dict() for d in self.diameters]
            out["diameter_flag"] = self.diameter_flag
        return out


def default_strip_family(spec: SetSpec, level: Level) -> list[Strip]:
    """Every axis-aligned strip two cells wide at the given level, across the
    spec's bounding box.  Offsets are multiples of this level's cell size, so
    they stay exactly aligned at every finer level of the same base."""
    (i0, j0, i1, j1), s = window_cell_range(spec.bbox, level), level.cell_size
    return [Strip(axis, k * s, (k + 2) * s) for axis, a, b in (("h", j0, j1), ("v", i0, i1))
            for k in range(a, b)]


# Levels over which a crossing count must strictly increase to diverge.
_DIVERGENCE_WINDOW = 3


def _strictly_increasing_tail(counts: Sequence[int]) -> bool:
    if len(counts) < _DIVERGENCE_WINDOW:
        return False
    tail = counts[-_DIVERGENCE_WINDOW:]
    return all(tail[t] < tail[t + 1] for t in range(len(tail) - 1))


def schoenflies_scan(spec: SetSpec, strips: Sequence[Strip],
                     levels: Iterable[int], *, jobs: int = 1) -> ScanReport:
    """Crossing counts for every (strip, level) pair with a divergence flag.

    A strip diverges when its intersection-mode counts strictly increase over
    the last _DIVERGENCE_WINDOW levels; any divergent strip yields the
    verdict "not locally connected", otherwise the verdict is "consistent
    with locally connected" (one-sided: finite resolution can never certify
    local connectedness).  Every level's depth cap and cell budget, level by
    level, are checked before any fill.  Every strip is placed at every level
    first, strip by strip, so a strip that collapses or a window that misses
    K raises for the first such pair in that order; then each (level, mode)
    is one batch of crossing counts of the window rows, each cut to K's cell
    box and a cell more (an empty K counts alike on any box).  `jobs` has no
    effect."""
    lvls = tuple(sorted(set(int(n) for n in levels)))
    if not lvls:
        raise GridError("scan needs at least one level")
    for n in lvls:  # every level's depth and budget before any fill
        _raster_range(spec, Level(n, spec.base))
    rasters = [rasterize(spec, Level(n, spec.base)) for n in lvls]
    windows = np.array([[_window(K, strip) for K in rasters] for strip in strips],
                       dtype=np.int64).reshape(len(strips), len(lvls), 9)
    cut = windows.copy()
    for x, K in enumerate(rasters):
        # past K's cell box and a cell more, a strip repeats its edge: same counts, less work
        e = np.add(K.cell_bbox() if not K.is_empty else (0, 0, 0, 0), [-1, -1, 1, 1])
        cut[:, x, :4] = cut[:, x, :4].clip(np.tile(e[:2], 2), np.tile(e[2:], 2))
    m_int, m_diff = (np.array([_crossing_counts(K, cut[:, x], mode)
                               for x, K in enumerate(rasters)]).T
                     for mode in ("intersection", "difference"))
    per_strip = [StripScan(strip, lvls, tuple(_snapped(w, K.level.cell_size)
                                               for w, K in zip(wins, rasters)),
                           tuple(mi.tolist()), tuple(md.tolist()),
                           _strictly_increasing_tail(mi.tolist()))
                 for strip, wins, mi, md in zip(strips, windows, m_int, m_diff)]
    verdict = ("not locally connected"
               if any(s.divergent for s in per_strip)
               else "consistent with locally connected")
    return ScanReport(spec.name, spec.base, lvls, tuple(per_strip), verdict)


def complement_diameter_scan(spec: SetSpec, levels: Iterable[int],
                             k: int = 10) -> ScanReport:
    """Sorted diameters of bounded complement components per level.

    Flags when the k-th largest diameter fails to strictly decrease between
    consecutive levels (a tail that refuses to shrink).  The flag is a
    diagnostic, never a verdict by itself.
    """
    lvls = tuple(sorted(set(int(n) for n in levels)))
    if not lvls:
        raise GridError("scan needs at least one level")
    if k < 1:
        raise GridError(f"k must be at least 1, got {k}")
    per_level = []
    for n in lvls:
        level = Level(n, spec.base)
        K = rasterize(spec, level)
        window = spec.bbox.pad(2 * level.cell_size)
        labeling = complement_components(K, window)
        ds = sorted(labeling.diameters[~labeling.unbounded].tolist(), reverse=True)
        per_level.append(LevelDiameters(n, tuple(ds)))
    flag = False
    for prev, cur in zip(per_level, per_level[1:]):
        if len(prev.diameters) >= k and len(cur.diameters) >= k:
            if cur.diameters[k - 1] >= prev.diameters[k - 1] - 1e-12:
                flag = True
    return ScanReport(spec.name, spec.base, lvls, (), None, tuple(per_level), flag)


# ---------------------------------------------------------------------------
# cut wire and crossing paths

@dataclass(frozen=True, eq=False)
class CutWireResult:
    connected: bool
    component: Cells | None  # when connected: the witness component
    side_a: Cells | None     # when separated: union of components meeting A
    side_b: Cells | None     # when separated: the rest of X


def _lookup_labels(labels: np.ndarray, origin: tuple[int, int],
                   cells: Cells, tag: str) -> np.ndarray:
    ids = _at(labels, origin, cells[:, 0], cells[:, 1])
    if (ids < 0).any():
        raise GridError(f"{tag} is not contained in X")
    return ids


def cut_wire(X: Cells, A: Cells, B: Cells) -> CutWireResult:
    """Either the 8-connected component of X meeting both A and B, or the
    two-sided separation (components meeting A, everything else)."""
    X, A, B = _as_cells(X), _as_cells(A), _as_cells(B)
    if len(X) == 0:
        raise GridError("cut_wire on empty X")
    if len(A) == 0 or len(B) == 0:
        raise GridError("cut_wire needs nonempty A and B")
    origin, mask = _mask_of(X)
    labels, n = _label_mask(mask, 8)
    a_ids = set(_lookup_labels(labels, origin, A, "A").tolist())
    b_ids = set(_lookup_labels(labels, origin, B, "B").tolist())
    common = a_ids & b_ids
    all_cells = _cells_of(mask, origin)
    cell_labels = labels[mask]
    if common:
        cid = min(common)
        return CutWireResult(True, sort_cells(all_cells[cell_labels == cid]),
                             None, None)
    in_a = np.isin(cell_labels, sorted(a_ids))
    return CutWireResult(False, None, sort_cells(all_cells[in_a]),
                         sort_cells(all_cells[~in_a]))


def crossing_path(rect: Box, A: Cells, B: Cells,
                  level: Level) -> Cells | None:
    """A 4-connected bottom-to-top path through rect avoiding A and B.

    Preconditions mirror the digital separation lemma: A and B are disjoint,
    A misses the rightmost column of the rect, B misses the leftmost.  By
    duality the path exists exactly when no 8-connected component of A u B
    joins the left edge to the right edge.
    """
    A, B = _as_cells(A), _as_cells(B)
    i0, j0, i1, j1 = window_cell_range(rect, level)
    W, H = i1 - i0 + 1, j1 - j0 + 1

    def local(cells: Cells, tag: str) -> np.ndarray:
        if len(cells) == 0:
            return np.zeros((0, 2), dtype=np.int64)
        out = cells - np.array([i0, j0], dtype=np.int64)
        if (out < 0).any() or (out[:, 0] >= W).any() or (out[:, 1] >= H).any():
            raise GridError(f"{tag} has cells outside the rect")
        return out

    la, lb = local(A, "A"), local(B, "B")
    if len(la) and (la[:, 0] == W - 1).any():
        raise GridError("A touches the right edge column")
    if len(lb) and (lb[:, 0] == 0).any():
        raise GridError("B touches the left edge column")
    blocked = np.zeros((H, W), dtype=bool)
    if len(la):
        blocked[la[:, 1], la[:, 0]] = True
    both = blocked.copy()
    if len(lb):
        if both[lb[:, 1], lb[:, 0]].any():
            raise GridError("A and B overlap")
        both[lb[:, 1], lb[:, 0]] = True
    free = ~both
    parent = np.full((H, W), -2, dtype=np.int64)  # -2 unvisited, -1 seed
    q: deque[tuple[int, int]] = deque()
    for i in range(W):
        if free[0, i]:
            parent[0, i] = -1
            q.append((i, 0))
    goal: tuple[int, int] | None = None
    while q:
        ci, cj = q.popleft()
        if cj == H - 1:
            goal = (ci, cj)
            break
        for di, dj in ((0, 1), (-1, 0), (1, 0), (0, -1)):
            ni, nj = ci + di, cj + dj
            if 0 <= ni < W and 0 <= nj < H and free[nj, ni] and parent[nj, ni] == -2:
                parent[nj, ni] = cj * W + ci
                q.append((ni, nj))
    if goal is None:
        return None
    path = []
    ci, cj = goal
    while True:
        path.append((ci + i0, cj + j0))
        enc = parent[cj, ci]
        if enc == -1:
            break
        ci, cj = int(enc % W), int(enc // W)
    path.reverse()
    return np.array(path, dtype=np.int64)


# ---------------------------------------------------------------------------
# separating curves on the offset brick tiling

@dataclass(frozen=True, eq=False)
class SeparatingLoop:
    """Closed polyline along cell edges, traced with the enclosed side on the
    left (counterclockwise), starting from its lexicographically least corner."""
    level: Level
    r_cells: int
    corner_cells: np.ndarray  # (N, 2) int64 lattice corners, consecutive unit steps

    @property
    def vertices(self) -> np.ndarray:
        return self.corner_cells.astype(np.float64) * self.level.cell_size

    def to_dict(self) -> dict:
        return {
            "level": self.level.n,
            "base": self.level.base,
            "r_cells": self.r_cells,
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
        }


_BRICK_DILATE = np.array([(di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1)],
                         dtype=np.int64)
# The six neighbours of brick (m, n) on an image indexed [n, m]: rows n-1..n+1,
# columns m-1..m+1.  Centrally symmetric, as ndimage.label requires.
_HEX = np.array([[0, 1, 1], [1, 1, 1], [1, 1, 0]], dtype=bool)


def _bricks_of(cells: Cells, rc: int, dilate: bool) -> np.ndarray:
    """The distinct bricks (m, n) whose closed boxes meet the closed boxes of
    the given cells, as an (N, 2) array.

    dilate=True uses closed contact (a brick merely touching a cell's
    boundary counts); dilate=False is plain containment.
    """
    pts = cells
    if dilate:
        pts = (cells[None, :, :] + _BRICK_DILATE[:, None, :]).reshape(-1, 2)
    n = pts[:, 1] // rc
    m = (pts[:, 0] - n * (rc // 2)) // rc
    return np.unique(np.stack([m, n], axis=1), axis=0)


def separating_curve(K: GridCompactum, P: int, Q: int, r: float) -> SeparatingLoop:
    """Simple closed polyline separating component P from component Q.

    Tiles the plane with r x r bricks whose rows are offset by r/2 (no four
    bricks share a corner), takes the brick-component hull of P among bricks
    meeting P's cells, and traces the boundary of its unbounded complement.
    The offset rows guarantee the trace is a single cycle; r snaps to an even
    number of cells so every corner stays on the cell lattice.  Brick
    components are labellings with the six-neighbour structure _HEX.
    """
    labels, count = _label_mask(K.mask, 8)
    if not (0 <= P < count and 0 <= Q < count) or P == Q:
        raise GridError(f"P and Q must be distinct component ids below {count}")
    s = K.level.cell_size
    rc = int(np.rint(r / s))
    if rc < 2:
        raise GridError("r must be at least two cells")
    if rc % 2:
        rc += 1
    w = rc // 2

    E = _cells_of(labels == P, K.origin)
    F = _cells_of((labels >= 0) & (labels != P), K.origin)
    eb_origin, eb = _mask_of(_bricks_of(E, rc, dilate=True))
    if _at(eb, eb_origin, *_bricks_of(F, rc, dilate=True).T, False).any():
        raise GridError("r too large: a brick meets both sides of the separation")

    # the hull A: the components of Eb holding a brick that contains a P cell
    lab = ndimage.label(eb, _HEX)[0]
    hull = np.isin(lab, _at(lab, eb_origin, *_bricks_of(E, rc, dilate=False).T))
    ns, ms = np.nonzero(hull)
    A = np.pad(hull[ns.min():ns.max() + 1, ms.min():ms.max() + 1], 2)
    m_lo, n_lo = eb_origin[0] + ms.min() - 2, eb_origin[1] + ns.min() - 2
    # W: the bricks of A's padded bounding box joined to its rim outside A
    rest = ndimage.label(~A, _HEX)[0]
    W = np.isin(rest, np.concatenate([rest[0], rest[-1], rest[:, 0], rest[:, -1]]))

    # bricks beyond the frame are unbounded-side by construction
    if not _at(W, (m_lo, n_lo), *_bricks_of(_cells_of(labels == Q, K.origin), rc,
                                            dilate=False).T, True).all():
        raise GridError("Q is not in the unbounded complement of P's brick "
                        "hull; swap P and Q or decrease r")

    # Directed boundary unit edges, A kept on the left (counterclockwise).
    succ: dict[tuple[int, int], tuple[int, int]] = {}

    def emit(a: tuple[int, int], b: tuple[int, int]) -> None:
        if a in succ:
            raise GridError("boundary trace is not a simple cycle")
        succ[a] = b

    for fn, fm in zip(*np.nonzero(A)):  # frame indices of brick (m, n)
        m, n = int(fm + m_lo), int(fn + n_lo)
        x0, y0 = m * rc + n * w, n * rc
        x1, y1 = x0 + rc, y0 + rc
        if W[fn, fm - 1]:        # left edge, walk down
            for y in range(y1, y0, -1):
                emit((x0, y), (x0, y - 1))
        if W[fn, fm + 1]:        # right edge, walk up
            for y in range(y0, y1):
                emit((x1, y), (x1, y + 1))
        for out, xa, xb in ((W[fn + 1, fm - 1], x0, x0 + w), (W[fn + 1, fm], x0 + w, x1)):
            if out:          # top edge, walk right-to-left
                for x in range(xb, xa, -1):
                    emit((x, y1), (x - 1, y1))
        for out, xa, xb in ((W[fn - 1, fm], x0, x0 + w), (W[fn - 1, fm + 1], x0 + w, x1)):
            if out:          # bottom edge, walk left-to-right
                for x in range(xa, xb):
                    emit((x, y0), (x + 1, y0))

    if not succ:
        raise GridError("empty boundary trace")
    start = min(succ)
    path = [start]
    cur = succ[start]
    while cur != start:
        path.append(cur)
        cur = succ[cur]
    if len(path) != len(succ):
        raise GridError("boundary trace split into multiple cycles")
    return SeparatingLoop(K.level, rc, np.array(path, dtype=np.int64))
