from __future__ import annotations

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree

from pcx import (
    Box,
    DepthExceeded,
    GeneratorParams,
    GridCompactum,
    GridError,
    Level,
    RectAnnulus,
    SetSpec,
    Strip,
    WindowError,
    complement_components,
    complement_diameter_scan,
    crossing_components,
    crossing_path,
    cut_wire,
    decompose,
    default_strip_family,
    hausdorff_distance,
    make_spec,
    rasterize,
    schoenflies_scan,
    separating_curve,
    sort_cells,
    transform_box,
    transform_cells,
    label_components,
)
from pcx import decomposition, schoenflies
from pcx.grid import _label_mask, _slab
from pcx.schoenflies import (_BlockRegions, _boundary_runs, _crossing_counts, _disc_blocks,
                             _near, _runs, _single_linkage, _snapped, _support)

from conftest import (
    HAND_PATTERNS,
    PATH_TRANSFORMS,
    bfs_components,
    bfs_crossing_exists,
    bfs_reaches,
    cells_from_art,
    grid_from_art,
    object_family,
    pattern_art_size,
    pattern_cells,
    ray_winding,
    reference_core,
    window_table,
)

LVL = Level(6, 2)
S = LVL.cell_size


# ---------------------------------------------------------------------------
# region construction

def test_strip_validation():
    with pytest.raises(GridError):
        Strip("q", 0.0, 1.0)
    with pytest.raises(GridError):
        Strip("h", 0.5, 0.5)
    assert Strip("horizontal", 0.0, 1.0).axis == "h"
    with pytest.raises(GridError):
        Strip("h", 0.0, 0.001).snapped_lines(Level(2, 2))  # collapses


def test_annulus_validation():
    with pytest.raises(GridError):
        RectAnnulus(Box(0, 0, 1, 1), Box(0.5, 0.5, 2, 2))
    ann = RectAnnulus(Box(0, 0, 1, 1), Box(0.25, 0.25, 0.75, 0.75))
    outer, inner = ann.snapped_rects(Level(3, 2))
    assert outer == (0, 0, 7, 7)
    assert inner == (2, 2, 5, 5)
    with pytest.raises(GridError):
        # inner flush against outer leaves no ring
        RectAnnulus(Box(0, 0, 1, 1), Box(0.0, 0.25, 0.75, 0.75)).snapped_rects(Level(3, 2))


# ---------------------------------------------------------------------------
# crossing components on hand shapes

def test_single_wire_crosses():
    K = grid_from_art(
        """
        ..#..
        ..#..
        ..#..
        """,
        level=LVL,
    )
    rep = crossing_components(K, Strip("h", 0.0, 3 * S))
    assert rep.m == 1
    assert rep.mode == "intersection"
    assert rep.snapped == (0.0, 3 * S)


def test_difference_mode_counts_gaps():
    # two wires cut the strip complement into three 4-connected crossers
    K = grid_from_art(
        """
        .#..#.
        .#..#.
        """,
        level=LVL,
    )
    rep_i = crossing_components(K, Strip("h", 0.0, 2 * S))
    rep_d = crossing_components(K, Strip("h", 0.0, 2 * S), mode="difference")
    assert rep_i.m == 2
    assert rep_d.m == 3


def test_diagonal_counts_differently_per_mode():
    # a diagonal chain crosses in 8-connected intersection mode, and its
    # complement still crosses in 4-connected difference mode on both sides
    K = grid_from_art(
        """
        ..#
        .#.
        #..
        """,
        level=LVL,
    )
    strip = Strip("h", 0.0, 3 * S)
    assert crossing_components(K, strip).m == 1
    assert crossing_components(K, strip, mode="difference").m == 2


def test_crossing_clusters_and_limit_cells():
    # vertical bars: columns 0, 2, 4 chain at the default delta of two cells,
    # columns 9 and 14 sit five cells apart and stay alone
    K = GridCompactum.from_cells(LVL, [(i, j) for i in (0, 2, 4, 9, 14)
                                       for j in range(10)])
    strip = Strip("h", 3 * S, 5 * S)  # rows 3 and 4

    def rows(cols_by_row):
        return [[i, j] for j in (3, 4) for i in cols_by_row] if cols_by_row else []

    rep = crossing_components(K, strip)
    assert [c.ids for c in rep.clusters] == [(0, 1, 2), (3,), (4,)]
    assert [c.limit.tolist() for c in rep.clusters] == [
        rows([2]),  # the middle bar is the only one within delta of all three
        [[9, j] for j in range(1, 7)],
        [[14, j] for j in range(1, 7)],
    ]

    # complement pieces of the window (columns -2..16): [-2, -1], [1], [3],
    # [5, 8], [10, 13], [15, 16]; only the one-cell gaps 1 and 3 chain
    rep = crossing_components(K, strip, mode="difference")
    assert [c.ids for c in rep.clusters] == [(0,), (1, 2), (3,), (4,), (5,)]
    assert [c.limit.tolist() for c in rep.clusters] == [
        rows([-2, -1, 1]), rows([1, 3]), rows([3, 5, 6, 7, 8, 10]),
        rows([8, 10, 11, 12, 13, 15]), rows([13, 15, 16])]


def test_a_delta_past_the_extent_is_saturated():
    """Every distance compared lies within K's and the region's frame, so a
    delta far beyond it (whose slab, spans and cut would outgrow memory or
    floats) gives the clusters and limit cells of one just past it; a nan
    delta is refused."""
    K = GridCompactum.from_cells(LVL, [(i, j) for i in (0, 2, 4, 9, 14)
                                       for j in range(10)])
    for region in (Strip("h", 3 * S, 5 * S),
                   RectAnnulus(Box(-S, -S, 16 * S, 11 * S), Box(3 * S, 3 * S, 6 * S, 7 * S))):
        for mode in ("intersection", "difference"):
            reps = [crossing_components(K, region, mode, d) for d in (40 * S, 1e6, 1e200)]
            assert all(r.to_dict() == reps[0].to_dict() for r in reps)
            assert all([c.limit.tolist() for c in r.clusters]
                       == [c.limit.tolist() for c in reps[0].clusters] for r in reps)
        with pytest.raises(GridError, match="below one cell"):  # no clip makes nan a size
            crossing_components(K, region, delta=math.nan)


def _linkage_reference(cells_of, delta, s):
    """Pairwise Hausdorff <= delta, then BFS from each smallest unvisited id."""
    ids = sorted(cells_of)
    near = {a: [b for b in ids if b != a and hausdorff_distance(
        cells_of[a], cells_of[b], s) <= delta + 1e-9] for a in ids}
    seen, groups = set(), []
    for root in ids:
        if root in seen:
            continue
        seen.add(root)
        group, todo = [], [root]
        while todo:
            a = todo.pop()
            group.append(a)
            for b in near[a]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        groups.append(sorted(group))
    return groups


def _linkage(regions, delta, s, at_least=1):
    """The batched linkage over regions given as {id: cells} dicts, in
    one call: each region's groups as lists of its ids."""
    ids = [sorted(r) for r in regions]
    sets = [np.asarray(r[c], dtype=np.int64).reshape(-1, 2) for r, i in zip(regions, ids) for c in i]
    bounds = np.r_[0, np.cumsum([len(i) for i in ids])]
    members, gb = _single_linkage(np.concatenate([np.zeros((0, 2), dtype=np.int64)] + sets),
                                  np.array([len(c) for c in sets], dtype=np.int64), bounds,
                                  delta, s, at_least)
    flat, out = [c for i in ids for c in i], [[] for _ in regions]
    for g in range(len(gb) - 1):
        x = int(np.searchsorted(bounds, members[gb[g]], side="right")) - 1
        out[x].append([flat[p] for p in members[gb[g]:gb[g + 1]].tolist()])
    return out


linkage_sets = st.dictionaries(
    st.integers(0, 40),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
             min_size=1, max_size=8, unique=True),
    max_size=6)


@given(st.lists(linkage_sets, min_size=1, max_size=3), st.sampled_from([2, 3]),
       st.integers(0, 5), st.sampled_from([1.0, 2 ** 0.5, 2.0, 5 ** 0.5, 2.5]),
       st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_single_linkage_matches_pairwise_hausdorff(regions, base, n, cells, at_least):
    # delta on exact lattice distances (1, sqrt 2, 2, sqrt 5 cells) makes ties;
    # the size gate keeps the groups of at least at_least ids.  The regions
    # share one patch of the plane, and one call links each of them alone
    s = Level(n, base).cell_size
    cells_of = [{cid: np.array(c, dtype=np.int64) for cid, c in r.items()} for r in regions]
    got = _linkage(cells_of, cells * s, s, at_least)
    assert got == [[g for g in _linkage_reference(r, cells * s, s) if len(g) >= at_least]
                   for r in cells_of]
    for groups in got:
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        assert all(g == sorted(g) for g in groups)


def test_single_linkage_small_cases():
    assert _linkage([{}], 2 * S, S) == [[]]
    one = {4: np.array([[0, 0], [5, 5]], dtype=np.int64)}
    assert _linkage([one], 2 * S, S) == [[[4]]]
    # 7 and 3 lie within delta of each other cell for cell; every cell of 3
    # has a cell of 1 within delta, but cell (9, 9) of 1 has none of 3
    cells_of = {7: np.array([[0, 0], [0, 1]]), 3: np.array([[1, 0], [1, 1]]),
                1: np.array([[2, 0], [2, 1], [9, 9]])}
    assert _linkage([cells_of], S, S) == [[[1], [3, 7]]]
    # sets on the same cells in two regions never link across them
    assert _linkage([one, {}, {0: one[4]}], 2 * S, S) == [[[4]], [], [[0]]]
    assert _linkage([cells_of, cells_of], S, S, 2) == [[[3, 7]], [[3, 7]]]


@given(st.lists(st.integers(0, 9) | st.just(0), max_size=40), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
@example([0, 0, 5], 1 << 17)
@example([3, 10, 0, 1], 5)
def test_runs_tile_the_items_and_bound_their_cost(cost, budget):
    """The runs tile 0..n in order; none is empty; none costs nothing when
    the total is positive; and each costs at most the budget unless one of
    its items holds all of its cost."""
    cost = np.array(cost, dtype=np.int64)
    with mock.patch.object(schoenflies, "_NODES", budget):
        runs = _runs(cost)
    cuts = [0] + [b for _, b in runs]
    assert [a for a, _ in runs] == cuts[:-1] and cuts[-1] == len(cost)
    for a, b in runs:
        assert a < b
        assert cost[a:b].sum() > 0 or cost.sum() == 0
        assert cost[a:b].sum() <= budget or cost[a:b].max() == cost[a:b].sum()


@given(st.lists(st.lists(st.tuples(*[st.integers(0, 12)] * 4), max_size=7), max_size=6),
       st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([1, 5, 1 << 17]))
@settings(max_examples=150, deadline=None)
def test_near_over_groups_matches_each_group_alone(groups, cells, budget):
    """The bounding-box prefilter over many groups at once, in runs of
    groups as small as one pair, against each group's boxes compared all
    with all."""
    box = np.array([b for g in groups for b in g], dtype=np.int64).reshape(-1, 4)
    bounds = np.cumsum([0] + [len(g) for g in groups])
    want = np.zeros(len(box), dtype=bool)
    for a, b in zip(bounds[:-1], bounds[1:]):
        close = (np.abs(box[a:b, None] - box[None, a:b]) * S <= cells * S + 1e-9).all(axis=2)
        want[a:b] = close.sum(axis=1) > 1
    with mock.patch.object(schoenflies, "_NODES", budget):
        assert np.array_equal(_near(box, bounds, cells * S, S), want)


def _support_reference(cells, s, members, delta):
    """The per-member count the kernel replaced: one cKDTree per member cell
    set (each with its own cell size), queried for every cell centre."""
    pts = (cells.astype(np.float64) + 0.5) * s
    acc = np.zeros(len(cells), dtype=np.int32)
    for mc, ms in members:
        tree = cKDTree((mc.astype(np.float64) + 0.5) * ms)
        acc += np.isfinite(tree.query(pts, distance_upper_bound=delta + 1e-9)[0])
    return acc


@given(st.sampled_from([(2, 1), (3, 1), (2, 8), (3, 27)]), st.integers(0, 4),
       st.sampled_from([1.0, 2 ** 0.5, 2.0, 5 ** 0.5, 3.0, "4/27"]),
       st.integers(0, 2 ** 32 - 1))
@example((3, 27), 2, 2.0, 0)  # 2 cells = 108 half fine cells: ties on the bound
@example((3, 27), 3, "4/27", 1)  # a user delta of 4 * 3**-3
@example((2, 8), 0, 2.5, 2)  # the disc ends on the far side of the blocks two away
@example((2, 8), 0, 2.6, 3)  # the disc passes two blocks: the table only settles
@example((2, 8), 1, 2.0, 148)  # every cell more than two blocks outside every unit's box
@settings(max_examples=150, deadline=None)
def test_support_matches_per_member_kdtrees(bf, n, d, seed):
    # delta is d cells, or 4 * 3**-3 in scene units; f fine cells per cell side
    base, f = bf
    s = Level(n, base).cell_size
    delta = 4 * 3.0 ** -3 if d == "4/27" else d * s
    rng = np.random.default_rng(seed)
    # a fine label image: labels 0..5, two of them fused into one unit and
    # one left out, as the deep split's annulus units and stray pieces are
    H, W = (int(v) for v in rng.integers(1, 3 * f + 3, size=2))
    origin = tuple(int(v) for v in rng.integers(-2 * f, 2 * f, size=2))
    labels = np.where(rng.random((H, W)) < rng.uniform(0.02, 0.4),
                      rng.integers(0, 6, size=(H, W)), -1)
    unit_of = np.array([0, 1, 2, 1, 3, -1])
    js, is_ = np.nonzero(labels >= 0)
    fine = np.stack([is_ + origin[0], js + origin[1]], axis=1)
    unit_cells = [fine[unit_of[labels[js, is_]] == u] for u in range(4)]
    present = [u for u in range(4) if len(unit_cells[u])]
    assume(present)
    # cells around the image and beyond reach, in two groups that each ask
    # about their own units
    lo = np.array(origin) // f - 4
    cells = rng.integers(lo, lo + np.array([W, H]) // f + 9,
                         size=(int(rng.integers(1, 40)), 2))
    asked = [rng.choice(present, size=int(rng.integers(1, len(present) + 1)), replace=False)
             for _ in range(2)]
    group = rng.integers(0, 2, size=len(cells))
    want = np.zeros(len(cells), dtype=np.int32)
    for g in range(2):
        want[group == g] = _support_reference(
            cells[group == g], s, [(unit_cells[u], s / f) for u in asked[g]], delta)
    owner = np.concatenate([np.repeat(np.flatnonzero(group == g), len(asked[g]))
                            for g in range(2)])
    unit = np.concatenate([np.tile(asked[g], int((group == g).sum())) for g in range(2)])
    # one row per fine cell, its block the cell holding it
    pixels = None if f == 1 else (
        lambda q: (np.arange(len(q)), fine[q, 1] % f * f + fine[q, 0] % f))
    for k in range(1, 5):
        got = _support(cells, f, unit_of[labels[js, is_]], fine // f, owner, unit,
                       (delta + 1e-9) / (s / f), k, pixels)
        assert np.array_equal(got, want >= k), (k, got, want)


@pytest.mark.parametrize("f", [1, 2, 3, 8, 27])
def test_disc_blocks_count_the_fine_cells_of_the_disc(f):
    """Each block of the disc at most two away, with the fine cells the disc
    holds in it, and the farthest block it meets, against every fine cell
    whose centre lies within sqrt(lim) half fine cells of the cell's centre;
    lims from a single fine cell to discs past three blocks."""
    for lim in sorted({*range(2 * (f % 2 == 0), 40), *range(40, 49 * f * f, f * f // 4 + 1)}):
        h = math.isqrt(lim) // 2 + 2 * f + 2
        dx, dy = np.meshgrid(np.arange(-h, h + 1), np.arange(-h, h + 1))
        inside = (2 * dx + 1 - f) ** 2 + (2 * dy + 1 - f) ** 2 <= lim
        bx, by = dx[inside] // f, dy[inside] // f
        near = (np.abs(bx) <= 2) & (np.abs(by) <= 2)
        want, count = np.unique(np.stack([bx[near], by[near]], axis=1), axis=0,
                                return_counts=True)
        off, held, m = _disc_blocks(f, lim)
        order = np.lexsort(off.T[::-1])
        assert np.array_equal(off[order], want) and np.array_equal(held[order], count), lim
        assert m == max(np.abs(bx).max(), np.abs(by).max()), lim


def test_support_keys_only_rows_an_open_pair_reaches():
    """On the spiral step (t_max 6, level 4) the deep split's support keys
    the fine cells of at most 2,000 rows: the table gate settles or drops
    most open pairs, and a unit's rows in blocks no open pair's disc meets
    stay unkeyed (keying every row of an open pair's unit takes 8,465)."""
    keyed, support = [], schoenflies._support

    def counted(*args):
        pixels = args[8]
        return support(*args[:8], lambda qs: (keyed.append(len(qs)), pixels(qs))[1])

    with mock.patch.object(decomposition, "_support", counted):
        decompose(make_spec(GeneratorParams("spiral_disk", t_max=6.0)), Level(4, 2))
    assert 0 < sum(keyed) <= 2000, sum(keyed)


@given(st.sampled_from([1, 2, 3, 8, 27]), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
@example(8, 1.0, 3, 0)  # a disc holding only its own block whole
@example(8, 3.0, 3, 0)  # a disc past the blocks two away
@settings(max_examples=80, deadline=None)
def test_batched_support_matches_per_region_support(f, d, regions, seed):
    """One query over several regions, each with units of its own and its
    windows overlapping the others', against one query per region.  Reaches
    of d cells give discs that end within the blocks one or two away and
    discs past them, and a budget of a few fine cells splits the units into
    many batches and the pairs into many runs."""
    rng = np.random.default_rng(seed)
    reach = d * f + 1e-9
    per, cells, owner, unit, bunit, fine = [], [], [], [], [], []
    for r in range(regions):
        H, W = (int(v) for v in rng.integers(1, 4 * f + 2, size=2))
        origin = np.array([-3 * f, -2 * f]) + rng.integers(0, 4 * f, size=2)
        labels = np.where(rng.random((H, W)) < rng.uniform(0.02, 0.4),
                          rng.integers(0, 4, size=(H, W)), -1)
        unit_of = rng.permutation(np.array([0, 1, 2, -1]))
        js, is_ = np.nonzero(labels >= 0)
        fc, bu = np.stack([is_, js], axis=1) + origin, unit_of[labels[js, is_]]
        present = np.unique(bu[bu >= 0])
        lo = origin // f - 3
        c = rng.integers(lo, lo + np.array([W, H]) // f + 6, size=(int(rng.integers(1, 20)), 2))
        o, u = np.repeat(np.arange(len(c)), len(present)), np.tile(present, len(c))
        for k in (1, 2):
            per.append((k, _support(c, f, bu, fc // f, o, u, reach, k, lambda q, fc=fc: (
                np.arange(len(q)), fc[q, 1] % f * f + fc[q, 0] % f))))
        # the region's units offset by 4 per region in the one query
        owner.append(o + sum(len(x) for x in cells))
        unit.append(4 * r + u)
        bunit.append(np.where(bu >= 0, 4 * r + bu, -1))
        cells.append(c)
        fine.append(fc)
    fine = np.concatenate(fine)
    for k in (1, 2):
        with mock.patch.object(schoenflies, "_NODES", int(rng.integers(1, 3 * f * f))):
            got = _support(np.concatenate(cells), f, np.concatenate(bunit), fine // f,
                           np.concatenate(owner), np.concatenate(unit), reach, k,
                           lambda q: (np.arange(len(q)), fine[q, 1] % f * f + fine[q, 0] % f))
        want = np.concatenate([m for kk, m in per if kk == k])
        assert np.array_equal(got, want), (k, got, want)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 40, 200, 1 << 18]),
       st.sampled_from(["intersection", "difference"]))
@settings(max_examples=120, deadline=None)
def test_batched_regions_match_per_region_labelling(seed, budget, mode):
    """Batched crossing counts, with canvases small enough to split a family
    and to leave windows larger than the budget alone, and each region's
    crossing_components report against the window labelled alone: windowed
    strips and annuli partly or wholly off the raster included."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 14, size=(int(rng.integers(1, 90)), 2))
    K = GridCompactum.from_cells(LVL, np.unique(cells, axis=0))
    i0, j0, i1, j1 = K.cell_bbox()
    regions = []
    for axis in "hv":
        for r in rng.integers(-2, 15, size=4).tolist():
            width = int(rng.integers(1, 4))
            regions.append(Strip(axis, r * S, (r + width) * S))
            pad = rng.integers(1, 4, size=2)
            window = Box((i0 - pad[0]) * S, (j0 - pad[1]) * S,
                         (i1 + 1 + pad[0]) * S, (j1 + 1 + pad[1]) * S)
            regions.append(Strip(axis, r * S, (r + width) * S, window=window))
    for (i, j), (o, h) in zip(rng.integers(-2, 15, size=(6, 2)).tolist() + [[40, -30]],
                              [(3, 1), (6, 2)] * 3 + [(3, 1)]):
        regions.append(RectAnnulus(Box((i - o) * S, (j - o) * S, (i + o + 1) * S, (j + o + 1) * S),
                                   Box((i - h) * S, (j - h) * S, (i + h + 1) * S, (j + h + 1) * S)))
    windows = window_table(K, regions)
    want = [reference_core(K, r, mode) for r in regions]
    with mock.patch.object(schoenflies, "_CANVAS_PIXELS", budget):
        assert _crossing_counts(K, windows, mode).tolist() == [len(w.crossing) for w in want]
    for region, win, core in zip(regions, windows, want):
        rep = crossing_components(K, region, mode)
        assert (rep.crossing_ids, rep.m, rep.snapped) == \
            (core.crossing, len(core.crossing), _snapped(win, S))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 4, 8, 9, 16, 27, 81]))
@settings(max_examples=100, deadline=None)
def test_block_engine_matches_per_window_labelling(seed, f):
    """Counts, node tables, pixel lookups, first pixels and annulus units of
    the block engine against each window labelled alone.  The raster is a few blocks of f x f cells, some
    empty, some full, some noise, trimmed so that its origin and edges fall
    off the block grid; the windows are the strip and annulus families of
    its coarse raster (the edge strips reach past the raster, and must not
    take the raster's edge row for their boundary) plus annuli partly or
    wholly off it."""
    rng = np.random.default_rng(seed)
    base = 2 if f in (1, 2, 4, 8, 16) else 3
    k = round(math.log(f, base))
    coarse, level = Level(1, base), Level(1 + k, base)
    s = level.cell_size
    (bh, bw), corner = rng.integers(1, 4, size=2), rng.integers(-3, 4, size=2) * f
    mask = np.zeros((bh * f, bw * f), dtype=bool)
    for bj in range(bh):
        for bi in range(bw):
            kind = rng.integers(3)  # empty, full or noise
            mask[bj * f:(bj + 1) * f, bi * f:(bi + 1) * f] = \
                kind == 1 or (kind == 2 and rng.random((f, f)) < rng.uniform(0.2, 0.7))
    lo, hi = rng.integers(0, f, size=2), rng.integers(0, f, size=2)
    cells = np.argwhere(mask[lo[1]:bh * f - hi[1], lo[0]:bw * f - hi[0]])[:, ::-1]
    assume(len(cells))
    K = GridCompactum.from_cells(level, cells + corner + lo)
    coarse_K = GridCompactum.from_cells(coarse, np.unique(K.cells() // f, axis=0))
    regions = object_family(coarse_K, stride=2)
    for (i, j), (o, h) in zip(rng.integers(-3, 6, size=(4, 2)).tolist() + [[0, 0]],
                              [(2, 0), (3, 1), (4, 1), (5, 2), (2, 0)]):
        i, j = i + corner[0] // f, j + corner[1] // f
        regions.append(RectAnnulus(
            Box((i - o) * f * s, (j - o) * f * s, (i + o + 1) * f * s, (j + o + 1) * f * s),
            Box((i - h) * f * s, (j - h) * f * s, (i + h + 1) * f * s, (j + h + 1) * f * s)))
    blocks = _BlockRegions().label(K, f, window_table(K, regions))
    annuli = [t for t, r in enumerate(regions) if isinstance(r, RectAnnulus)]
    units = blocks.units(annuli)
    (ci, cj), width = blocks.corner, blocks.shape[1] * f
    probes, owner = [], np.repeat(np.arange(len(regions)), np.diff(blocks.cbounds))[
        np.argsort(blocks.order)]
    for t, region in enumerate(regions):
        origin, labels, n, crossing = reference_core(K, region, "intersection")
        # each region's id image from the node table: a node's pixels carry
        # the rank of its component
        nodes = np.arange(blocks.bounds[t], blocks.bounds[t + 1])
        comps = blocks.order[blocks.cbounds[t]:blocks.cbounds[t + 1]]
        rank = np.full(len(blocks.cross), -1)
        rank[comps] = np.arange(len(comps))
        q, e = blocks.pixels(nodes)
        pix = blocks.block(nodes)[q] * f + np.stack([e % f, e // f], axis=1)
        ids = np.full(labels.shape, -1, dtype=np.int64)
        ids[pix[:, 1] - origin[1], pix[:, 0] - origin[0]] = rank[blocks.comp[nodes[q]]]
        # pixels of the window and a ring around it, for one lookup of all
        (h, w), ring = labels.shape, np.pad(labels, 1, constant_values=-2)
        js, is_ = rng.integers(-1, h + 1, size=200), rng.integers(-1, w + 1, size=200)
        lab = ring[js + 1, is_ + 1]
        probes.append((np.full(len(js), t), np.stack([is_, js], axis=1) + origin,
                       np.where(lab == -2, -2, np.append(comps, -1)[lab.clip(-1)])))
        assert blocks.counts[t] == len(crossing) == int(blocks.cross[comps].sum())
        assert tuple(np.flatnonzero(blocks.cross[comps]).tolist()) == crossing
        assert len(comps) == n and np.array_equal(ids, labels)
        # each component's first pixel, row-major in the blocks' frame
        fg = np.flatnonzero(labels.ravel() >= 0)
        first = fg[np.unique(labels.ravel()[fg], return_index=True)[1]]
        jj, ii = np.divmod(first, labels.shape[1])
        assert np.array_equal(blocks.first[comps],
                              (jj + origin[1] - cj) * width + ii + origin[0] - ci)
        if t in annuli:
            (i0, j0, i1, j1), _ = region.snapped_rects(level)
            full = _label_mask(_slab(K, i0, j0, i1, j1), 8)[0].ravel()
            # one unit per id, partitioning the ids as the whole window's
            # labels at their first pixels do
            keys, fused = full[first], units[comps]
            assert len(fused) == n
            assert len(np.unique(np.stack([keys, fused]), axis=1).T) \
                == len(np.unique(keys)) == len(np.unique(fused))
        else:
            assert np.array_equal(units[comps], comps)
    # the component each lookup names: the window's at its pixels (-1 on its
    # background), none or the window's own in the ring (-2)
    x, px, want = (np.concatenate(a) for a in zip(*probes))
    got, ring = blocks.at(x, px), want == -2
    assert np.array_equal(got[~ring], want[~ring])
    assert ((got[ring] == -1) | (owner[got[ring]] == x[ring])).all()


def reference_runs(K, row) -> int:
    """The fewer runs of K's cells along a window row's two boundaries, each
    walked cell by cell: a strip's first and last line, or an annulus' outer
    ring and the ring around its hole, cyclically (a full ring is one run)."""
    i0, j0, i1, j1, h0, k0, h1, k1, kind = row.tolist()

    def runs(path, cyclic):
        v = [K.contains_cell(i, j) for i, j in path]
        if cyclic and all(v):
            return 1
        return sum(x and not (v[k - 1] if k or cyclic else False) for k, x in enumerate(v))

    def ring(a, b, c, d):  # counterclockwise from (a, b)
        return ([(i, b) for i in range(a, c + 1)] + [(c, j) for j in range(b + 1, d + 1)]
                + [(i, d) for i in range(c - 1, a - 1, -1)] + [(a, j) for j in range(d - 1, b, -1)])

    if kind == 2:
        return min(runs(ring(i0, j0, i1, j1), True),
                   runs(ring(h0 - 1, k0 - 1, h1 + 1, k1 + 1), True))
    if kind == 0:
        return min(runs([(i, j) for i in range(i0, i1 + 1)], False) for j in (j0, j1))
    return min(runs([(i, j) for j in range(j0, j1 + 1)], False) for i in (i0, i1))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 4, 8, 9]))
@settings(max_examples=100, deadline=None)
def test_boundary_runs_bound_the_block_counts(seed, f):
    """_boundary_runs, the deep split's gate, equals the runs walked cell by
    cell and is never below the block engine's crossing count, on rasters
    of empty, full and noisy blocks off the block grid, with the strip and
    annulus families of the coarse raster (the edge strips reach past the
    raster) and annuli partly or wholly off it."""
    rng = np.random.default_rng(seed)
    base = 2 if f in (1, 2, 4, 8) else 3
    coarse, level = Level(1, base), Level(1 + round(math.log(f, base)), base)
    s = level.cell_size
    (bh, bw), corner = rng.integers(1, 5, size=2), rng.integers(-3, 4, size=2) * f
    mask = np.zeros((bh * f, bw * f), dtype=bool)
    for bj in range(bh):
        for bi in range(bw):
            kind = rng.integers(3)  # empty, full or noise
            mask[bj * f:(bj + 1) * f, bi * f:(bi + 1) * f] = \
                kind == 1 or (kind == 2 and rng.random((f, f)) < rng.uniform(0.2, 0.9))
    lo, hi = rng.integers(0, f, size=2), rng.integers(0, f, size=2)
    cells = np.argwhere(mask[lo[1]:bh * f - hi[1], lo[0]:bw * f - hi[0]])[:, ::-1]
    assume(len(cells))
    K = GridCompactum.from_cells(level, cells + corner + lo)
    regions = object_family(GridCompactum.from_cells(coarse, np.unique(K.cells() // f, axis=0)),
                            stride=2)
    for (i, j), (o, h) in zip(rng.integers(-3, 6, size=(4, 2)).tolist(),
                              [(2, 0), (3, 1), (4, 1), (5, 2)]):
        i, j = i + corner[0] // f, j + corner[1] // f
        regions.append(RectAnnulus(
            Box((i - o) * f * s, (j - o) * f * s, (i + o + 1) * f * s, (j + o + 1) * f * s),
            Box((i - h) * f * s, (j - h) * f * s, (i + h + 1) * f * s, (j + h + 1) * f * s)))
    windows = window_table(K, regions)
    runs = _boundary_runs(K, windows)
    assert runs.tolist() == [reference_runs(K, w) for w in windows]
    assert (runs >= _BlockRegions().label(K, f, windows).counts).all()


def test_strip_window_must_contain_k():
    K = grid_from_art("#####", level=LVL)
    strip = Strip("h", 0.0, S, window=Box(0.0, 0.0, 3 * S, S))
    with pytest.raises(WindowError):
        crossing_components(K, strip)
    wide = Strip("h", 0.0, S, window=Box(-S, 0.0, 6 * S, S))
    assert crossing_components(K, wide).m == 1


def test_delta_below_cell_size_rejected():
    K = grid_from_art("#", level=LVL)
    with pytest.raises(GridError):
        crossing_components(K, Strip("h", 0.0, S), delta=S / 4)


def test_unknown_mode_rejected():
    K = grid_from_art("#", level=LVL)
    with pytest.raises(GridError, match="mode"):
        crossing_components(K, Strip("h", 0.0, S), mode="sideways")


@pytest.mark.parametrize("n_min", [0, -2])
def test_n_min_below_one_rejected(n_min):
    """Below 1 every candidate would be a limit cell (136 a cluster on comb
    L3, against 30 at n_min 1); the delta and mode checks still come first."""
    K = rasterize(make_spec(GeneratorParams("cantor_comb")), Level(3, 3))
    strip = Strip("h", 0.3, 0.7)
    assert [len(c.limit) for c in crossing_components(K, strip, n_min=1).clusters] == [30] * 4
    with pytest.raises(GridError, match="n_min must be at least 1"):
        crossing_components(K, strip, n_min=n_min)
    with pytest.raises(GridError, match="below one cell"):
        crossing_components(K, strip, delta=K.level.cell_size / 4, n_min=n_min)
    with pytest.raises(GridError, match="mode"):
        crossing_components(K, strip, mode="sideways", n_min=n_min)


# ---------------------------------------------------------------------------
# strip duality fuzz: |m_int - m_diff| <= 1

cell_sets = st.lists(
    st.tuples(st.integers(0, 18), st.integers(0, 14)),
    min_size=1, max_size=80, unique=True,
)


@given(cell_sets, st.integers(0, 10), st.integers(2, 6))
def test_strip_duality_bound(cells, row, width):
    K = GridCompactum.from_cells(LVL, np.array(sorted(cells), dtype=np.int64))
    strip = Strip("h", row * S, (row + width) * S)
    m_int = crossing_components(K, strip).m
    m_diff = crossing_components(K, strip, mode="difference").m
    assert abs(m_int - m_diff) <= 1


# ---------------------------------------------------------------------------
# cut_wire: hand suite (8 patterns x 8 isometries) against the BFS oracle

@pytest.mark.parametrize("name", sorted(HAND_PATTERNS))
@pytest.mark.parametrize("t", range(8))
def test_cut_wire_hand_suite(name, t):
    X0, A0, B0 = pattern_cells(HAND_PATTERNS[name])
    X = sort_cells(transform_cells(X0, t))
    A = sort_cells(transform_cells(A0, t))
    B = sort_cells(transform_cells(B0, t))
    res = cut_wire(X, A, B)
    assert res.connected == bfs_reaches(X, A, B, 8)
    x_set = {tuple(c) for c in X.tolist()}
    if res.connected:
        comp = {tuple(c) for c in res.component.tolist()}
        assert comp <= x_set
        assert comp & {tuple(c) for c in A.tolist()}
        assert comp & {tuple(c) for c in B.tolist()}
        assert len(bfs_components(res.component, 8)) == 1
        assert res.side_a is None and res.side_b is None
    else:
        sa = {tuple(c) for c in res.side_a.tolist()}
        sb = {tuple(c) for c in res.side_b.tolist()}
        assert sa | sb == x_set and not (sa & sb)
        assert {tuple(c) for c in A.tolist()} <= sa
        assert {tuple(c) for c in B.tolist()} <= sb
        # unions of whole components never touch across the split
        assert not any(
            (abs(pa[0] - pb[0]) <= 1 and abs(pa[1] - pb[1]) <= 1)
            for pa in sa for pb in sb
        )


def test_cut_wire_input_validation():
    X = cells_from_art("###")
    with pytest.raises(GridError):
        cut_wire(X, np.array([[9, 9]]), X[:1])  # A outside X
    with pytest.raises(GridError):
        cut_wire(X, np.zeros((0, 2), dtype=np.int64), X[:1])
    with pytest.raises(GridError):
        cut_wire(np.zeros((0, 2), dtype=np.int64), X[:1], X[:1])


@given(cell_sets, st.data())
def test_cut_wire_random_matches_bfs(cells, data):
    X = np.array(sorted(cells), dtype=np.int64)
    a_idx = data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1,
                               max_size=4, unique=True))
    b_idx = data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1,
                               max_size=4, unique=True))
    A, B = X[sorted(a_idx)], X[sorted(b_idx)]
    assert cut_wire(X, A, B).connected == bfs_reaches(X, A, B, 8)


# ---------------------------------------------------------------------------
# crossing_path: hand suite and duality with 8-connected blocker spans

def path_is_valid(path, rect_range, blocked):
    i0, j0, i1, j1 = rect_range
    pts = [tuple(c) for c in path.tolist()]
    assert pts[0][1] == j0 and pts[-1][1] == j1
    for p in pts:
        assert i0 <= p[0] <= i1 and j0 <= p[1] <= j1
        assert p not in blocked
    for p, q in zip(pts, pts[1:]):
        assert abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1


def run_path_case(art, t, swap):
    W, H = pattern_art_size(art)
    _, A0, B0 = pattern_cells(art)
    rect = transform_box(Box(0, 0, W * S, H * S), t)
    A = sort_cells(transform_cells(A0, t))
    B = sort_cells(transform_cells(B0, t))
    if swap:
        A, B = B, A
    path = crossing_path(rect, A, B, LVL)
    from pcx import window_cell_range
    i0, j0, i1, j1 = window_cell_range(rect, LVL)
    rect_cells = {(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)}
    blocked = {tuple(c) for c in A.tolist()} | {tuple(c) for c in B.tolist()}
    exists = bfs_crossing_exists(rect_cells, blocked)
    assert (path is not None) == exists
    if path is not None:
        path_is_valid(path, (i0, j0, i1, j1), blocked)


@pytest.mark.parametrize("name", sorted(HAND_PATTERNS))
@pytest.mark.parametrize("t,swap", PATH_TRANSFORMS)
def test_crossing_path_hand_suite(name, t, swap):
    run_path_case(HAND_PATTERNS[name], t, swap)


def test_crossing_path_preconditions():
    rect = Box(0, 0, 4 * S, 4 * S)
    inside = np.array([[1, 1]], dtype=np.int64)
    right_col = np.array([[3, 2]], dtype=np.int64)
    left_col = np.array([[0, 2]], dtype=np.int64)
    with pytest.raises(GridError):
        crossing_path(rect, right_col, inside, LVL)  # A on the right edge
    with pytest.raises(GridError):
        crossing_path(rect, inside, left_col, LVL)  # B on the left edge
    with pytest.raises(GridError):
        crossing_path(rect, inside, inside, LVL)  # overlap
    with pytest.raises(GridError):
        crossing_path(rect, np.array([[9, 9]]), inside, LVL)  # outside rect


@given(st.integers(3, 10), st.integers(3, 10), st.data())
def test_crossing_path_random_matches_bfs(W, H, data):
    rect = Box(0, 0, W * S, H * S)
    a_cells = data.draw(st.lists(
        st.tuples(st.integers(0, W - 2), st.integers(0, H - 1)),
        max_size=12, unique=True))
    b_cells = data.draw(st.lists(
        st.tuples(st.integers(1, W - 1), st.integers(0, H - 1)),
        max_size=12, unique=True))
    a_set, b_set = set(a_cells), set(b_cells)
    assume(not (a_set & b_set))
    A = np.array(sorted(a_set), dtype=np.int64).reshape(-1, 2)
    B = np.array(sorted(b_set), dtype=np.int64).reshape(-1, 2)
    path = crossing_path(rect, A, B, LVL)
    rect_cells = {(i, j) for i in range(W) for j in range(H)}
    exists = bfs_crossing_exists(rect_cells, a_set | b_set)
    assert (path is not None) == exists
    if path is not None:
        path_is_valid(path, (0, 0, W - 1, H - 1), a_set | b_set)
    # duality: the path exists exactly when no 8-connected blocker component
    # spans the rect from its left column to its right column
    spans = any(
        min(i for i, _ in comp) == 0 and max(i for i, _ in comp) == W - 1
        for comp in bfs_components(
            np.array(sorted(a_set | b_set), dtype=np.int64).reshape(-1, 2), 8)
    ) if (a_set | b_set) else False
    assert (path is None) == spans


# ---------------------------------------------------------------------------
# scans

def test_comb_strip_scan_shape():
    spec = make_spec(GeneratorParams("cantor_comb"))
    rep = schoenflies_scan(spec, [Strip("v", 0.25, 0.75)], range(2, 6))
    (sc,) = rep.strips
    assert sc.levels == (2, 3, 4, 5)
    assert len(sc.m_int) == 4 and len(sc.snapped) == 4
    assert rep.verdict in ("not locally connected",
                           "consistent with locally connected")


def test_scan_jobs_agree():
    spec = make_spec(GeneratorParams("cantor_comb"))
    strips = [Strip("h", 0.25, 0.75), Strip("v", 0.25, 0.75)]
    a = schoenflies_scan(spec, strips, range(2, 5), jobs=1)
    b = schoenflies_scan(spec, strips, range(2, 5), jobs=4)
    for sa, sb in zip(a.strips, b.strips):
        assert sa.m_int == sb.m_int and sa.m_diff == sb.m_diff
    assert a.verdict == b.verdict


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_scan_counts_of_clipped_strips_are_those_of_the_whole_windows(seed):
    """schoenflies_scan counts each strip cut to K's cell box and a cell
    more: the same counts, in both modes, as the whole windows labelled
    with _crossing_counts, for strips partly or wholly outside K, some
    windowed, on noise (now and then empty) at two levels."""
    rng = np.random.default_rng(seed)
    masks = {n: rng.random(rng.integers(1, 12, size=2)) < rng.uniform(0, 0.7) for n in (3, 4)}
    origin = tuple(rng.integers(-4, 8, size=2).tolist())
    spec = SetSpec("noise", Box(-1, -1, 2, 2), fill=lambda level: (origin, masks[level.n]))
    s, strips = Level(3).cell_size, []
    for axis, r, width, pad in zip(rng.choice(["h", "v"], 8), rng.integers(-30, 30, size=8),
                                   rng.integers(1, 40, size=8), rng.integers(0, 3, size=8)):
        window = None if not pad else Box((-5 - pad) * s, (-5 - pad) * s, (20 + pad) * s,
                                          (20 + pad) * s)
        strips.append(Strip(str(axis), int(r) * s, int(r + width) * s, window))
    rep = schoenflies_scan(spec, strips, [3, 4])
    for x, n in enumerate((3, 4)):
        K = rasterize(spec, Level(n))
        windows = window_table(K, strips)
        for mode, got in (("intersection", "m_int"), ("difference", "m_diff")):
            assert [getattr(sc, got)[x] for sc in rep.strips] == \
                _crossing_counts(K, windows, mode).tolist()
        assert [sc.snapped[x] for sc in rep.strips] == [_snapped(w, K.level.cell_size)
                                                       for w in windows]


def test_strip_lines_past_2_pow_40_cells_are_refused():
    """A line 2**40 cells or more from the origin is refused: the scan would
    count a strip that far out as one at K's edge, but its window rows keep
    _FAR beyond every line."""
    for c1, c2 in ((0.0, 2.0 ** 38), (-(2.0 ** 38), 0.5), (0.0, 1e300)):
        with pytest.raises(GridError, match="2\\*\\*40 cells or more"):
            Strip("h", c1, c2).snapped_lines(Level(2))
    assert Strip("h", 0.0, 2.0 ** 37).snapped_lines(Level(2)) == (0, 2 ** 39)


def test_far_or_non_finite_boxes_are_refused():
    """A region box reaching past 2**40 cells, a strip line whose cell index
    overflows a float, and a box with a coordinate that is not finite all
    end in a GridError."""
    spec = make_spec(GeneratorParams("unit_square"))
    K = rasterize(spec, Level(2))
    far = "reaches past 2\\*\\*40 cells"
    for call in (
            lambda: schoenflies_scan(spec, [Strip("h", 0.2, 0.6, Box(-1e300, -1, 1e300, 2))], [2]),
            lambda: crossing_components(K, RectAnnulus(Box(-1e300, -1e300, 1e300, 1e300),
                                                       Box(0, 0, 1, 1))),
            lambda: crossing_components(K, Strip("h", 0.2, 0.6, Box(-1e13, -1, 1e13, 2)))):
        with pytest.raises(GridError, match=far):
            call()
    with pytest.raises(GridError, match="2\\*\\*40 cells or more"):
        schoenflies_scan(spec, [Strip("h", 0.0, 1e308)], [3])  # 8e308 cells: inf
    for bad in (-math.inf, math.inf, math.nan):
        for k in range(4):
            coords = [-1.0, -1.0, 2.0, 2.0]
            coords[k] = bad
            with pytest.raises(GridError, match="degenerate box"):
                Box(*coords)


def test_windows_past_a_float_or_over_the_budget_are_refused():
    """A strip window, an annulus box or a complement window whose cell
    index overflows a float, and windows over the cell budget, end in a
    GridError before any conversion or allocation, and warn of nothing."""
    K = rasterize(make_spec(GeneratorParams("unit_square")), Level(2))
    far, budget = "reaches past 2\\*\\*40 cells", "over the budget of 100000000"
    for call, match in (
            (lambda: crossing_components(K, Strip("h", 0.2, 0.6, Box(-1e308, -1, 1e308, 2))), far),
            (lambda: crossing_components(K, RectAnnulus(Box(-1e308, -1e308, 1e308, 1e308),
                                                        Box(0, 0, 1, 1))), far),
            (lambda: complement_components(K, Box(-1e300, -1e300, 1e300, 1e300)), far),
            (lambda: complement_components(K, Box(-1e7, -1e7, 1e7, 1e7)), budget),
            (lambda: crossing_components(K, Strip("h", 0, 1e9)), budget)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=match):
                call()


def test_default_family_covers_bbox():
    spec = make_spec(GeneratorParams("unit_square"))
    fam = default_strip_family(spec, Level(3, 2))
    hs = [f for f in fam if f.axis == "h"]
    vs = [f for f in fam if f.axis == "v"]
    assert len(hs) == len(vs) == 7  # width-2 strips at every interior offset
    assert min(f.c1 for f in hs) == 0.0
    assert max(f.c2 for f in hs) == 1.0


def test_scan_requires_levels():
    spec = make_spec(GeneratorParams("unit_square"))
    with pytest.raises(GridError):
        schoenflies_scan(spec, [Strip("h", 0.25, 0.75)], [])


def test_refused_scan_fills_no_level(monkeypatch):
    """Every level's depth cap and cell budget are checked, level by level,
    before any fill: the carpet's levels 2..13 stop at level 9's budget, not
    at level 13's cap, and levels 2 and 13 stop at the cap; either way no
    level is filled."""
    monkeypatch.delenv("PCX_MAX_LEVEL", raising=False)
    spec = make_spec(GeneratorParams("sierpinski_carpet"))
    spec = replace(spec, fill=mock.Mock(wraps=spec.fill))
    with pytest.raises(GridError, match=r"at level 9 \(base 3\) spans \d+ cells, over the budget"):
        schoenflies_scan(spec, [Strip("h", 0.3, 0.4)], range(2, 14))
    with pytest.raises(DepthExceeded, match="level 13 exceeds cap 12"):
        schoenflies_scan(spec, [Strip("h", 0.3, 0.4)], [2, 13])
    assert spec.fill.call_count == 0


@pytest.mark.parametrize("name", ["unit_square", "sierpinski_carpet"])
@pytest.mark.parametrize("k", [0, -1])
def test_complement_diameter_scan_refuses_k_below_one(name, k):
    """k below 1 names no k-th largest diameter: it raised IndexError on the
    unit square and compared the smallest ones on the carpet.  It is refused
    before any fill."""
    spec = make_spec(GeneratorParams(name))
    spec = replace(spec, fill=mock.Mock(wraps=spec.fill))
    with pytest.raises(GridError, match="k must be at least 1"):
        complement_diameter_scan(spec, [2, 3], k=k)
    assert spec.fill.call_count == 0


def test_complement_diameter_scan_smoke():
    spec = make_spec(GeneratorParams("sierpinski_carpet"))
    rep = complement_diameter_scan(spec, range(1, 4), k=1)
    assert [d.level for d in rep.diameters] == [1, 2, 3]
    # the largest hole never shrinks: its diameter is pinned by generation 1
    top = [d.diameters[0] for d in rep.diameters]
    assert top[0] == pytest.approx(top[-1], abs=1e-9)
    assert rep.diameter_flag is True


# ---------------------------------------------------------------------------
# separating curves

def two_blob_raster():
    return grid_from_art(
        """
        ##........##
        ##........##
        """,
        level=LVL,
    )


def loop_is_simple_closed(loop):
    c = loop.corner_cells
    pts = [tuple(p) for p in c.tolist()]
    assert len(set(pts)) == len(pts)  # no revisited corner
    ring = pts + [pts[0]]
    for p, q in zip(ring, ring[1:]):
        assert abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1  # unit lattice steps


def test_separating_curve_two_blobs():
    K = two_blob_raster()
    lab = label_components(K, 8)
    assert lab.count == 2
    loop = separating_curve(K, 0, 1, 4 * S)
    loop_is_simple_closed(loop)
    signs = set()
    for i, j in lab.component_cells(0).tolist():
        w = ray_winding(loop.corner_cells, i + 0.5, j + 0.5)
        assert w in (-1, 1)
        signs.add(w)
    assert len(signs) == 1
    for i, j in lab.component_cells(1).tolist():
        assert ray_winding(loop.corner_cells, i + 0.5, j + 0.5) == 0


def test_separating_curve_ignores_bystanders():
    K = grid_from_art(
        """
        ##....##....##
        """,
        level=LVL,
    )
    loop = separating_curve(K, 1, 2, 2 * S)
    lab = label_components(K, 8)
    for cid in (0, 2):
        for i, j in lab.component_cells(cid).tolist():
            assert ray_winding(loop.corner_cells, i + 0.5, j + 0.5) == 0
    for i, j in lab.component_cells(1).tolist():
        assert ray_winding(loop.corner_cells, i + 0.5, j + 0.5) in (-1, 1)


def test_separating_curve_errors():
    K = two_blob_raster()
    with pytest.raises(GridError):
        separating_curve(K, 0, 0, 4 * S)
    with pytest.raises(GridError):
        separating_curve(K, 0, 7, 4 * S)
    with pytest.raises(GridError):
        separating_curve(K, 0, 1, S / 2)  # radius under two cells
    with pytest.raises(GridError):
        separating_curve(K, 0, 1, 40 * S)  # bricks swallow both sides
