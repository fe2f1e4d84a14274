"""Shared fixtures and pure-python oracles.

Everything here is deliberately naive: dict/set BFS, O(n^2) distance scans,
fraction arithmetic.  The oracles never touch the library's own labeling,
distance, or winding code, so a bug in pcx cannot hide behind itself; only
`reference_core` labels one plain mask with `_label_mask`, and it builds that
mask without the library's window, ring or batching code.
"""
from __future__ import annotations

import textwrap
from collections import deque
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from pcx import Box, GridCompactum, Level, RectAnnulus, Strip
from pcx.grid import _cells_of, _label_mask, _slab
from pcx.schoenflies import _lateral_range, _window

settings.register_profile("pcx", deadline=None, max_examples=60)
settings.load_profile("pcx")


# ---------------------------------------------------------------------------
# ascii art rasters

def cells_from_art(art: str, origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """'#' marks an occupied cell; top line of the art is the highest row.

    origin is the (i, j) index of the bottom-left corner of the art block.
    """
    rows = textwrap.dedent(art).strip("\n").splitlines()
    out = []
    height = len(rows)
    for k, row in enumerate(rows):
        j = origin[1] + (height - 1 - k)
        for col, ch in enumerate(row):
            if ch == "#":
                out.append((origin[0] + col, j))
    return np.array(sorted(out), dtype=np.int64).reshape(-1, 2)


def grid_from_art(art: str, level: Level | None = None,
                  origin: tuple[int, int] = (0, 0)) -> GridCompactum:
    lvl = level if level is not None else Level(6, 2)
    return GridCompactum.from_cells(lvl, cells_from_art(art, origin))


# ---------------------------------------------------------------------------
# BFS oracles

NEIGHBORS_4 = ((1, 0), (-1, 0), (0, 1), (0, -1))
NEIGHBORS_8 = NEIGHBORS_4 + ((1, 1), (1, -1), (-1, 1), (-1, -1))


def bfs_components(cells, connectivity: int = 8) -> list[frozenset]:
    """Connected components as frozensets of (i, j), sorted by min cell."""
    offsets = NEIGHBORS_8 if connectivity == 8 else NEIGHBORS_4
    todo = {(int(i), int(j)) for i, j in np.asarray(cells).reshape(-1, 2)}
    comps = []
    while todo:
        seed = min(todo)
        comp = {seed}
        todo.remove(seed)
        queue = deque([seed])
        while queue:
            ci, cj = queue.popleft()
            for di, dj in offsets:
                nb = (ci + di, cj + dj)
                if nb in todo:
                    todo.remove(nb)
                    comp.add(nb)
                    queue.append(nb)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def bfs_reaches(cells, starts, goals, connectivity: int = 8) -> bool:
    """Is any goal cell reachable from any start cell inside `cells`?"""
    offsets = NEIGHBORS_8 if connectivity == 8 else NEIGHBORS_4

    def norm(x) -> set:
        if isinstance(x, (set, frozenset)):
            return {(int(i), int(j)) for i, j in x}
        return {(int(i), int(j)) for i, j in np.asarray(x).reshape(-1, 2)}

    world = norm(cells)
    start_set = norm(starts) & world
    goal_set = norm(goals) & world
    seen = set(start_set)
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        if cur in goal_set:
            return True
        ci, cj = cur
        for di, dj in offsets:
            nb = (ci + di, cj + dj)
            if nb in world and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return bool(start_set & goal_set)


def bfs_crossing_exists(rect_cells: set, blocked: set) -> bool:
    """4-connected bottom-to-top route through rect_cells avoiding blocked."""
    free = rect_cells - blocked
    if not free:
        return False
    j_lo = min(j for _, j in rect_cells)
    j_hi = max(j for _, j in rect_cells)
    frontier = deque((i, j) for i, j in free if j == j_lo)
    seen = set(frontier)
    while frontier:
        ci, cj = frontier.popleft()
        if cj == j_hi:
            return True
        for di, dj in NEIGHBORS_4:
            nb = (ci + di, cj + dj)
            if nb in free and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return False


# ---------------------------------------------------------------------------
# the relation's region family as objects

def object_family(K, family="both", stride=8):
    """The regions of schoenflies_relation as Strip and RectAnnulus objects,
    in family order: bands two cells wide from K's cell box (h, then v),
    then 17x17 annuli with 7x7 holes from a loop over K's cells, each centred
    on a cell whose coordinates both sit at a stride-block edge."""
    s, (i0, j0, i1, j1), out = K.level.cell_size, K.cell_bbox(), []
    if family != "rect-annuli-sampled":
        out += [Strip("h", k * s, (k + 2) * s) for k in range(j0 - 1, j1 + 1)]
        out += [Strip("v", k * s, (k + 2) * s) for k in range(i0 - 1, i1 + 1)]
    if family != "strips-all-offsets":
        edge = {0, stride - 1}
        for i, j in K.cells().tolist():
            if i % stride in edge and j % stride in edge:
                out.append(RectAnnulus(Box((i - 8) * s, (j - 8) * s, (i + 9) * s, (j + 9) * s),
                                       Box((i - 3) * s, (j - 3) * s, (i + 4) * s, (j + 4) * s)))
    return out


def window_table(R, regions):
    """The window rows of the regions at raster R, one _window call each."""
    return np.array([_window(R, r) for r in regions], dtype=np.int64).reshape(-1, 9)


# ---------------------------------------------------------------------------
# one region labelled alone

class RegionCore(NamedTuple):
    origin: tuple[int, int]  # the cell of labels[0, 0]
    labels: np.ndarray       # int32 ids by first pixel, row-major; -1 outside
    n: int
    crossing: tuple[int, ...]

    def crossing_cells(self) -> dict[int, np.ndarray]:
        """Cells of each crossing component, row-major, one scan per label."""
        return {cid: _cells_of(self.labels == cid, self.origin) for cid in self.crossing}


def reference_core(K, region, mode) -> RegionCore:
    """The region labelled alone: its rectangle cut out with _slab, masked to
    the ring for an annulus, labelled with _label_mask; crossing ids are the
    labels on both boundaries."""
    slab_of = (lambda m: m) if mode == "intersection" else np.logical_not
    conn = 8 if mode == "intersection" else 4
    if isinstance(region, Strip):
        r1, r2 = region.snapped_lines(K.level)
        lo, hi = _lateral_range(K, region, K.level)
        rect = (lo, r1, hi, r2 - 1) if region.axis == "h" else (r1, lo, r2 - 1, hi)
        labels, n = _label_mask(slab_of(_slab(K, *rect)), conn)
        a, b = (labels[0], labels[-1]) if region.axis == "h" else (labels[:, 0], labels[:, -1])
    else:
        (oi0, oj0, oi1, oj1), (ii0, ij0, ii1, ij1) = region.snapped_rects(K.level)
        rect = (oi0, oj0, oi1, oj1)
        ring = np.ones((oj1 - oj0 + 1, oi1 - oi0 + 1), dtype=bool)
        ring[ij0 - oj0:ij1 - oj0 + 1, ii0 - oi0:ii1 - oi0 + 1] = False
        labels, n = _label_mask(slab_of(_slab(K, *rect)) & ring, conn)
        inner = np.zeros_like(ring)
        inner[max(ij0 - oj0 - 1, 0):ij1 - oj0 + 2, max(ii0 - oi0 - 1, 0):ii1 - oi0 + 2] = True
        a = np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
        b = labels[inner & ring]
    crossing = np.intersect1d(a[a >= 0], b[b >= 0])
    return RegionCore((rect[0], rect[1]), labels, n, tuple(crossing.tolist()))


# ---------------------------------------------------------------------------
# geometry oracles

def ray_winding(corners: np.ndarray, px: float, py: float) -> int:
    """Signed winding number by counting signed crossings of the +x ray.

    corners: closed axis-parallel lattice polyline, one row per vertex, the
    closing edge implied.  (px, py) must avoid edge lines; callers use
    half-integer offsets to guarantee that.
    """
    w = 0
    n = len(corners)
    for k in range(n):
        x0, y0 = corners[k]
        x1, y1 = corners[(k + 1) % n]
        if y0 == y1:
            continue
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        if lo <= py < hi and x0 > px:
            w += 1 if y1 > y0 else -1
    return w


def brute_diameter(cells, cell_size: float) -> float:
    """Max distance over all pairs of cell-box corners; quadratic and exact."""
    pts = []
    for i, j in np.asarray(cells).reshape(-1, 2):
        for di in (0, 1):
            for dj in (0, 1):
                pts.append(((int(i) + di) * cell_size, (int(j) + dj) * cell_size))
    best = 0.0
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            dx = pts[a][0] - pts[b][0]
            dy = pts[a][1] - pts[b][1]
            best = max(best, (dx * dx + dy * dy) ** 0.5)
    return best


def brute_hausdorff(a, b, cell_size: float) -> float:
    pa = [(float(i) + 0.5, float(j) + 0.5) for i, j in np.asarray(a).reshape(-1, 2)]
    pb = [(float(i) + 0.5, float(j) + 0.5) for i, j in np.asarray(b).reshape(-1, 2)]

    def one_sided(ps, qs):
        worst = 0.0
        for x, y in ps:
            best = min((x - u) ** 2 + (y - v) ** 2 for u, v in qs)
            worst = max(worst, best)
        return worst ** 0.5

    return max(one_sided(pa, pb), one_sided(pb, pa)) * cell_size


# ---------------------------------------------------------------------------
# Cantor set arithmetic (exact, Fraction-based)

def ternary_intervals(generation: int) -> list[tuple[Fraction, Fraction]]:
    """Closed middle-thirds intervals surviving after `generation` removals."""
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(generation):
        nxt = []
        for a, b in intervals:
            w = (b - a) / 3
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        intervals = nxt
    return intervals


# ---------------------------------------------------------------------------
# hand-built wire/path suite
#
# Eight patterns, each reused by cut_wire (X = every marked cell, A = 'a's,
# B = 'b's) and by crossing_path (blockers A = 'a's, B = 'b's, the rest of the
# rect free).  Combined with the grid isometries this gives the fixed
# 64-case wire suite and a 32-case path suite (path instances only admit the
# four column-preserving transforms).

HAND_PATTERNS = {
    "bridge": """
        .....
        a###b
        .....
    """,
    "staircase_wall": """
        .....
        aab..
        ..bbb
        .....
    """,
    "broken_wire": """
        .....
        a#.#b
        .....
    """,
    "pierced_diagonal": """
        ....b
        ...b.
        ..#..
        .a...
        a....
    """,
    "diagonal_wall": """
        ....b
        ...b.
        ..b..
        .a...
        a....
    """,
    "ring": """
        .###.
        .#.#.
        a#.#b
        .#.#.
        .###.
    """,
    "u_trap": """
        .b...
        .....
        .aaa.
        .a.a.
        .....
    """,
    "comb": """
        #######
        .#.#.#.
        a#.#.#b
    """,
}

# transforms that keep columns vertical; True marks the ones that mirror the
# x direction and therefore swap the roles of A and B for crossing_path
PATH_TRANSFORMS = ((0, False), (2, True), (4, True), (6, False))


def pattern_cells(art: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, A, B) for a hand pattern; X is every marked cell."""
    rows = textwrap.dedent(art).strip("\n").splitlines()
    xs, as_, bs = [], [], []
    height = len(rows)
    for k, row in enumerate(rows):
        j = height - 1 - k
        for i, ch in enumerate(row):
            if ch in "#ab":
                xs.append((i, j))
            if ch == "a":
                as_.append((i, j))
            elif ch == "b":
                bs.append((i, j))
    to_arr = lambda lst: np.array(sorted(lst), dtype=np.int64).reshape(-1, 2)
    return to_arr(xs), to_arr(as_), to_arr(bs)


def pattern_art_size(art: str) -> tuple[int, int]:
    rows = textwrap.dedent(art).strip("\n").splitlines()
    return max(len(r) for r in rows), len(rows)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
