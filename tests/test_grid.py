from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import pcx.grid as pcx_grid
from pcx.cli import run

from pcx import (
    Box,
    ComponentMeta,
    GeneratorParams,
    DepthExceeded,
    GridCompactum,
    GridError,
    Level,
    SetSpec,
    WindowError,
    coarsen,
    complement_components,
    complement_diameter_scan,
    decompose,
    diameter,
    diameters,
    hausdorff_distance,
    inverse_transform,
    label_components,
    make_spec,
    max_level,
    rasterize,
    sort_cells,
    TRANSFORM_IDS,
    transform_cells,
    transform_grid,
    transform_point,
    transform_spec,
    window_cell_range,
)

from conftest import (
    bfs_components,
    brute_diameter,
    brute_hausdorff,
    cells_from_art,
    grid_from_art,
)

cell_lists = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    min_size=1, max_size=120, unique=True,
)


# ---------------------------------------------------------------------------
# levels and boxes

def test_cell_size_powers():
    assert Level(0, 2).cell_size == 1.0
    assert Level(3, 2).cell_size == 0.125
    assert Level(2, 3).cell_size == pytest.approx(1 / 9)


def test_level_validation():
    with pytest.raises(GridError):
        Level(1, 5)
    with pytest.raises(GridError):
        Level(-1, 2)
    with pytest.raises(DepthExceeded):
        Level(max_level() + 1, 2)


def test_level_cap_env_override(monkeypatch):
    monkeypatch.setenv("PCX_MAX_LEVEL", "4")
    assert max_level() == 4
    with pytest.raises(DepthExceeded):
        Level(5, 2)
    Level(4, 2)  # at the cap is fine


@pytest.mark.parametrize("raw", ["twelve", "4.5", "-1", " "])
def test_level_cap_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("PCX_MAX_LEVEL", raw)
    with pytest.raises(GridError, match="PCX_MAX_LEVEL"):
        max_level()
    with pytest.raises(GridError):
        Level(2, 2)


def test_box_validation_and_queries():
    with pytest.raises(GridError):
        Box(1.0, 0.0, 0.0, 1.0)
    b = Box(0.0, 0.0, 1.0, 2.0)
    assert b.intersects(Box(1.0, 0.0, 3.0, 1.0))  # shared edge counts
    assert not b.intersects(Box(1.5, 0.0, 3.0, 1.0))
    assert b.pad(0.5).contains_box(b)


def test_window_cell_range_snapping():
    lvl = Level(1, 2)
    assert window_cell_range(Box(0, 0, 1, 1), lvl) == (0, 0, 1, 1)
    assert window_cell_range(Box(0, 0, 0.5, 0.5), lvl) == (0, 0, 0, 0)
    assert window_cell_range(Box(-0.4, -0.4, 0.4, 0.4), lvl) == (-1, -1, 0, 0)


# ---------------------------------------------------------------------------
# raster container

def test_from_cells_round_trip():
    cells = np.array([[3, -2], [0, 0], [3, 5]], dtype=np.int64)
    K = GridCompactum.from_cells(Level(4, 2), cells)
    assert K.origin == (0, -2)
    assert np.array_equal(K.cells(), sort_cells(cells))
    assert K.count == 3
    assert K.contains_cell(3, 5) and not K.contains_cell(1, 1)


@pytest.mark.parametrize("far", [(10 ** 7, 10 ** 7), (10 ** 12, 0), (-3, -10 ** 12)])
def test_from_cells_refuses_spans_over_budget(far):
    # two cells this far apart would need a mask of 10**12 cells or more
    cells = np.array([[0, 0], far], dtype=np.int64)
    with pytest.raises(GridError, match="budget"):
        GridCompactum.from_cells(Level(4, 2), cells)


def test_from_mask_trims_to_content():
    mask = np.zeros((5, 7), dtype=bool)
    mask[2, 3] = True
    K = GridCompactum.from_mask(Level(3, 2), (10, 20), mask)
    assert K.origin == (13, 22)
    assert K.mask.shape == (1, 1)
    # random masks, empty and sparse ones included, trim as the tightest
    # raster of their cells does
    rng = np.random.default_rng(5)
    for _ in range(200):
        shape = tuple(int(v) for v in rng.integers(0, 12, size=2))
        mask = rng.random(shape) < rng.choice([0.0, 0.02, 0.1, 0.5, 1.0])
        origin = tuple(int(v) for v in rng.integers(-20, 20, size=2))
        K = GridCompactum.from_mask(Level(3, 2), origin, mask)
        want_origin, want = pcx_grid._mask_of(pcx_grid._cells_of(mask, origin))
        assert K.origin == want_origin and K.mask.dtype == bool
        assert K.mask.flags.c_contiguous and np.array_equal(K.mask, want)


@given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_is_empty_matches_the_mask_on_every_route(mask, origin):
    """The cached answer equals a fresh scan of the mask, whether the raster
    comes from from_mask, from_cells or the raw constructor, the empty and
    zero-size masks included."""
    level = Level(3, 2)
    for K in (GridCompactum.from_mask(level, origin, mask),
              GridCompactum.from_cells(level, pcx_grid._cells_of(mask, origin)),
              GridCompactum(level, origin, mask),
              GridCompactum(level, origin, np.zeros_like(mask)),
              GridCompactum(level, origin, np.zeros((0, mask.shape[1]), dtype=bool))):
        assert K.is_empty == (K.mask.size == 0 or not K.mask.any())
        assert K.is_empty == K.is_empty  # the cached answer, read again


def test_empty_raster():
    K = GridCompactum.from_cells(Level(2, 2), np.zeros((0, 2), dtype=np.int64))
    assert K.is_empty
    assert len(K.cells()) == 0
    with pytest.raises(GridError):
        K.cell_bbox()


def test_sort_cells_row_major():
    cells = np.array([[5, 1], [0, 2], [3, 1], [9, 0]])
    ordered = sort_cells(cells)
    assert ordered.tolist() == [[9, 0], [3, 1], [5, 1], [0, 2]]


# ---------------------------------------------------------------------------
# rasterize: oracle subdivision vs box overlap

def box_spec(target: Box) -> SetSpec:
    def oracle(b: Box):
        return b.intersects(target)
    return SetSpec("box", target, oracle)


@given(st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 0.8),
                 st.floats(0.05, 0.2), st.floats(0.05, 0.2)),
       st.integers(1, 5))
# target edges on grid lines: the touching neighbour cell must be kept
@example((0.3, 0.3, 0.2, 0.1), 2)      # upper x edge at 0.5
@example((0.0, 0.2, 0.125, 0.05), 2)   # upper y edge at 0.25
@example((0.25, 0.3, 0.15, 0.1), 2)    # lower x edge at 0.25
def test_rasterize_covers_box(params, n):
    """Oracle-driven rasterization is an outer cover of the target box."""
    x, y, w, h = params
    target = Box(x, y, x + w, y + h)
    lvl = Level(n, 2)
    s = lvl.cell_size
    K = rasterize(box_spec(target), lvl)
    got = {tuple(c) for c in K.cells().tolist()}
    for i in range(int(np.floor(x / s)) - 1, int(np.ceil((x + w) / s)) + 1):
        for j in range(int(np.floor(y / s)) - 1, int(np.ceil((y + h) / s)) + 1):
            closed_hit = target.intersects(Box(i * s, j * s, (i + 1) * s, (j + 1) * s))
            if closed_hit:
                assert (i, j) in got
    for (i, j) in got:
        assert target.intersects(Box(i * s, j * s, (i + 1) * s, (j + 1) * s))


def test_spec_needs_a_fill_or_an_oracle():
    with pytest.raises(GridError, match="neither a fill nor an oracle"):
        SetSpec("x", Box(0, 0, 1, 1))


def test_rasterize_depth_cap(monkeypatch):
    monkeypatch.setenv("PCX_MAX_LEVEL", "3")
    spec = box_spec(Box(0, 0, 1, 1))
    lvl = Level(3, 2)
    rasterize(spec, lvl)
    with pytest.raises(DepthExceeded):
        rasterize(spec, Level(3, 2).finer())


def _budget_spec(bbox: Box, base: int, max_filled: int) -> SetSpec:
    """A spec whose fill yields one cell up to level max_filled and fails
    above it, and whose oracle always fails: nothing big is ever allocated."""
    def fill(level):
        if level.n > max_filled:
            raise AssertionError(f"fill ran at level {level.n}")
        return (0, 0), np.ones((1, 1), dtype=bool)

    def oracle(box):
        raise AssertionError("oracle ran")

    return SetSpec("budget", bbox, oracle, fill=fill, base=base)


def test_rasterize_cell_budget(monkeypatch):
    monkeypatch.delenv("PCX_MAX_LEVEL", raising=False)
    unit = _budget_spec(Box(0, 0, 1, 1), 3, 8)
    for n in (10, 12):
        with pytest.raises(GridError, match="budget"):
            rasterize(unit, Level(n, 3))
        with pytest.raises(GridError, match="budget"):  # oracle route too
            rasterize(replace(unit, fill=None), Level(n, 3))
    # the largest rasters the suite and the benchmark build stay admitted:
    # base 3 level 8 on the unit square, the spiral's +-17/8 box at level 10
    assert rasterize(unit, Level(8, 3)).count == 1
    spiral_box = _budget_spec(Box(-17 / 8, -17 / 8, 17 / 8, 17 / 8), 2, 12)
    assert rasterize(spiral_box, Level(10, 2)).count == 1
    # decompose's deep raster goes through the same check
    with pytest.raises(GridError, match="budget"):
        decompose(unit, Level(7, 3))


def test_coarsen_matches_parent_division():
    cells = cells_from_art(
        """
        ##..#
        .#...
        #..##
        """,
        origin=(-2, -1),
    )
    K = GridCompactum.from_cells(Level(5, 2), cells)
    C = coarsen(K)
    assert C.level == Level(4, 2)
    want = np.unique(np.asarray(cells) // 2, axis=0)
    assert np.array_equal(C.cells(), sort_cells(want))


# ---------------------------------------------------------------------------
# labeling vs the BFS oracle

@given(cell_lists, st.sampled_from([4, 8]))
def test_label_components_matches_bfs(cells, connectivity):
    cells = np.array(sorted(set(map(tuple, cells))), dtype=np.int64)
    K = GridCompactum.from_cells(Level(6, 2), cells)
    lab = label_components(K, connectivity)
    got = sorted(
        (frozenset(map(tuple, lab.component_cells(cid).tolist()))
         for cid in range(lab.count)),
        key=min,
    )
    assert got == bfs_components(cells, connectivity)


def remapped_labels(mask, connectivity):
    """scipy's labels renumbered 0.. by first row-major position (background
    -1): the canonical numbering, made without trusting scipy's order."""
    struct = np.ones((3, 3), bool) if connectivity == 8 else \
        np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], bool)
    raw, n = ndimage.label(mask, structure=struct)
    flat = raw.ravel().astype(np.int64) - 1
    fg = np.nonzero(flat >= 0)[0]
    first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, flat[fg], fg)
    remap = np.empty(n, dtype=np.int64)
    remap[np.argsort(first, kind="stable")] = np.arange(n)
    flat[fg] = remap[flat[fg]]
    return flat.reshape(mask.shape), n


@given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                         max_side=24)),
       st.sampled_from([4, 8]))
def test_label_mask_ids_in_first_encounter_order(mask, connectivity):
    labels, n = pcx_grid._label_mask(mask, connectivity)
    want, want_n = remapped_labels(mask, connectivity)
    assert labels.dtype == np.int32 and n == want_n
    assert np.array_equal(labels, want)
    ids = labels.ravel()[labels.ravel() >= 0]
    _, first = np.unique(ids, return_index=True)
    assert np.array_equal(ids[np.sort(first)], np.arange(n))


@pytest.mark.parametrize("connectivity", [4, 8])
def test_label_mask_renumbers_permuted_ids(monkeypatch, connectivity):
    """When the labeller numbers components out of scan order, the
    renumbering still returns the canonical ids."""
    mask = np.zeros((7, 9), dtype=bool)
    mask[[0, 0, 2, 3, 3, 5, 6, 6], [1, 7, 4, 0, 8, 2, 5, 6]] = True
    want, n = remapped_labels(mask, connectivity)
    assert n >= 3
    real = ndimage.label

    def reversed_ids(mask, structure=None, output=None):
        k = real(mask, structure=structure, output=output)
        output[output > 0] = k + 1 - output[output > 0]
        return k

    monkeypatch.setattr(pcx_grid.ndimage, "label", reversed_ids)
    labels, got_n = pcx_grid._label_mask(mask, connectivity)
    assert got_n == n
    assert np.array_equal(labels, want)


@given(hnp.arrays(np.int32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                             max_side=6),
                  elements=st.integers(-1, 50)),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=20),
       st.integers(-3, 3))
def test_at_matches_per_cell_loop(image, origin, cells, outside):
    def one(i, j):
        ii, jj = i - origin[0], j - origin[1]
        if 0 <= jj < image.shape[0] and 0 <= ii < image.shape[1]:
            return int(image[jj, ii])
        return outside

    want = [one(i, j) for i, j in cells]
    arr = np.array(cells, dtype=np.int64).reshape(-1, 2)
    got = pcx_grid._at(image, origin, arr[:, 0], arr[:, 1], outside)
    assert got.dtype == image.dtype and got.tolist() == want
    assert [int(pcx_grid._at(image, origin, i, j, outside)) for i, j in cells] == want
    assert pcx_grid._at(image, origin, 0, 0).shape == ()


def test_component_metas_are_consistent():
    K = grid_from_art(
        """
        ##....#
        ##....#
        .......
        ####...
        """
    )
    lab = label_components(K, 8)
    assert lab.count == 3
    assert sum(m.size for m in lab.metas) == K.count
    for m in lab.metas:
        cells = lab.component_cells(m.id)
        assert m.size == len(cells)
        i0, j0, i1, j1 = m.cell_bbox
        assert i0 == cells[:, 0].min() and i1 == cells[:, 0].max()
        assert j0 == cells[:, 1].min() and j1 == cells[:, 1].max()


def check_columns(lab, mask, connectivity):
    """The labeling's columns and metas against a reference built one
    component at a time from _label_mask and diameter."""
    labels, n = pcx_grid._label_mask(mask, connectivity)
    assert np.array_equal(lab.labels, labels) and lab.count == n == len(lab.metas)
    (oi, oj), (h, w) = lab.origin, mask.shape
    frame = (oi, oj, oi + w - 1, oj + h - 1)
    for k, meta in enumerate(lab.metas):
        cells = pcx_grid._cells_of(labels == k, lab.origin)
        assert np.array_equal(lab.component_cells(k), cells)
        box = (int(cells[:, 0].min()), int(cells[:, 1].min()),
               int(cells[:, 0].max()), int(cells[:, 1].max()))
        touches = any(b == f for b, f in zip(box, frame))
        assert meta == ComponentMeta(k, len(cells), box,
                                     diameter(cells, lab.level.cell_size), touches)


label_masks = hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                max_side=12))


@given(label_masks, st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.sampled_from([4, 8]))
@example(np.zeros((3, 4), dtype=bool), (0, 0), 8)  # empty
@example(np.ones((1, 1), dtype=bool), (2, -3), 4)  # one cell
@example(np.eye(5, dtype=bool), (-1, 1), 4)  # diagonal: 5 components at 4, 1 at 8
def test_label_components_columns_match_per_component_reference(mask, origin, connectivity):
    K = GridCompactum.from_mask(Level(4, 2), origin, mask)
    check_columns(label_components(K, connectivity), K.mask, connectivity)


@given(label_masks, st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(*[st.integers(0, 2)] * 4))
@example(np.zeros((2, 2), dtype=bool), (0, 0), (1, 0, 0, 2))  # empty K: all one piece
@example(np.ones((1, 1), dtype=bool), (3, 3), (0, 0, 0, 0))  # one cell, the window
@example(np.ones((4, 4), dtype=bool) ^ np.pad(np.ones((2, 2), bool), 1), (0, 0),
         (0, 1, 0, 1))  # a ring on the frame: one bounded hole
def test_complement_components_columns_match_per_component_reference(mask, origin, margin):
    level = Level(4, 2)
    K = GridCompactum.from_mask(level, origin, mask)
    i0, j0, i1, j1 = (0, 0, 0, 0) if K.is_empty else K.cell_bbox()
    s = level.cell_size
    window = Box((i0 - margin[0]) * s, (j0 - margin[1]) * s,
                 (i1 + 1 + margin[2]) * s, (j1 + 1 + margin[3]) * s)
    lab = complement_components(K, window)
    assert lab.origin == (i0 - margin[0], j0 - margin[1])
    check_columns(lab, ~pcx_grid._slab(K, *pcx_grid.window_cell_range(window, level)), 4)


def test_diameter_readers_build_no_component_meta(monkeypatch, tmp_path):
    """complement_diameter_scan and `pcx components` read the columns; only
    a read of metas builds ComponentMeta."""
    real, built = pcx_grid.ComponentMeta, []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(pcx_grid, "ComponentMeta", counted)
    spec = make_spec(GeneratorParams("sierpinski_carpet"))
    assert complement_diameter_scan(spec, [2, 3], k=1).diameters[1].diameters
    assert run(["components", "--gen", "sierpinski_carpet", "--level", "2",
                "--out", str(tmp_path / "c.json")]) == 0
    assert built == []
    lab = label_components(rasterize(spec, Level(2, 3)))
    assert len(lab.metas) == len(built) == lab.count == 1


def test_complement_components_of_a_ring():
    K = grid_from_art(
        """
        #####
        #...#
        #...#
        #####
        """,
        level=Level(3, 2),
    )
    lab = complement_components(K, Box(-0.25, -0.25, 0.875, 0.75))
    holes = [m for m in lab.metas if not m.unbounded]
    outside = [m for m in lab.metas if m.unbounded]
    assert len(holes) == 1 and holes[0].size == 6
    assert len(outside) == 1


def test_complement_window_must_cover():
    K = grid_from_art("###")
    with pytest.raises(WindowError):
        complement_components(K, Box(0.0, 0.0, 0.01, 0.01))


# ---------------------------------------------------------------------------
# metrics vs brute force

@given(cell_lists)
def test_diameter_matches_brute_force(cells):
    cells = np.array(cells[:25], dtype=np.int64)
    s = Level(5, 2).cell_size
    assert diameter(cells, s) == pytest.approx(brute_diameter(cells, s), abs=1e-12)


_PAIR_CELLS = pcx_grid._PAIR_CELLS  # groups above it are cut to row extremes


def _square(side, ring=None):
    """A filled side x side square, or only its outer `ring` cells wide."""
    return [(i, j) for i in range(side) for j in range(side)
            if ring is None or min(i, j, side - 1 - i, side - 1 - j) < ring]


# row extremes of the first: exactly _PAIR_CELLS cells; of the second, one more
_CUT_TO_PAIR_CELLS = [(i, j) for j in range(_PAIR_CELLS // 2) for i in range(3)]
_CUT_PAST_PAIR_CELLS = _CUT_TO_PAIR_CELLS + [(5, -4)]


@given(st.lists(st.lists(st.tuples(st.integers(-90, 90), st.integers(-90, 90)),
                         min_size=1, max_size=300, unique=True),
                min_size=1, max_size=6),
       st.sampled_from([Level(1, 2), Level(5, 2), Level(9, 2),
                        Level(1, 3), Level(4, 3), Level(7, 3)]))
@example([[(0, 0)], [(i, -i // 3) for i in range(-40, _PAIR_CELLS - 40)],
          [(i, 7) for i in range(-60, _PAIR_CELLS - 59)]], Level(4, 3))
@example([_square(9), _square(27), [(i, 3) for i in range(300)],
          [(-2, j) for j in range(300)]], Level(7, 3))
@example([[(0, j) for j in range(80)] + [(i, 0) for i in range(1, 50)],
          _square(20, ring=4), _CUT_TO_PAIR_CELLS, _CUT_PAST_PAIR_CELLS], Level(5, 2))
def test_diameters_equal_diameter_bit_for_bit(groups, level):
    s = level.cell_size
    cells = np.concatenate([np.array(g, dtype=np.int64) for g in groups])
    bounds = np.cumsum([0] + [len(g) for g in groups])
    want = [diameter(np.array(g, dtype=np.int64), s) for g in groups]
    assert diameters(cells, bounds, s).tolist() == want  # ==, not approx
    # oracle: every cell pair, the farthest corners per axis
    far = []
    for g in groups:
        lo, hi = np.array(g) * s, (np.array(g) + 1.0) * s
        d = np.maximum(np.abs(hi[:, None] - lo[None]), np.abs(hi[None] - lo[:, None]))
        far.append(float(np.sqrt((d ** 2).sum(axis=2)).max()))
    assert want == far


def test_diameters_of_no_groups_and_empty_groups():
    one = np.array([[0, 0]], dtype=np.int64)
    assert diameters(one[:0], [0], 0.5).shape == (0,)
    with pytest.raises(GridError):
        diameters(one, [0, 0, 1], 0.5)


@given(cell_lists, cell_lists)
def test_hausdorff_matches_brute_force(a, b):
    a = np.array(a[:30], dtype=np.int64)
    b = np.array(b[:30], dtype=np.int64)
    s = Level(4, 2).cell_size
    assert hausdorff_distance(a, b, s) == pytest.approx(
        brute_hausdorff(a, b, s), abs=1e-12)


def test_metric_empty_inputs_raise():
    s = 0.5
    empty = np.zeros((0, 2), dtype=np.int64)
    one = np.array([[0, 0]], dtype=np.int64)
    with pytest.raises(GridError):
        diameter(empty, s)
    with pytest.raises(GridError):
        hausdorff_distance(one, empty, s)


# ---------------------------------------------------------------------------
# the 8 isometries

@given(cell_lists, st.sampled_from(range(8)))
def test_transform_round_trip(cells, t):
    cells = np.array(cells, dtype=np.int64)
    back = transform_cells(transform_cells(cells, t), inverse_transform(t))
    assert np.array_equal(sort_cells(back), sort_cells(cells))


@given(st.sampled_from(range(8)), st.sampled_from(range(8)),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_transforms_form_a_group_on_cells(t1, t2, cell):
    """Composing two isometries lands on some third one, for every cell."""
    c = np.array([cell], dtype=np.int64)
    composed = transform_cells(transform_cells(c, t1), t2)
    matches = [t for t in TRANSFORM_IDS
               if np.array_equal(transform_cells(c, t), composed)]
    assert matches


def test_transform_point_agrees_with_cells():
    # a cell's box corners map onto the transformed cell's box corners
    for t in TRANSFORM_IDS:
        moved = transform_cells(np.array([[2, 5]], dtype=np.int64), t)[0]
        corners = {transform_point(x, y, t) for x in (2.0, 3.0) for y in (5.0, 6.0)}
        want = {(float(moved[0] + di), float(moved[1] + dj))
                for di in (0, 1) for dj in (0, 1)}
        assert corners == want


def test_transform_grid_matches_cell_map():
    K = grid_from_art(
        """
        ..#
        ###
        """
    )
    for t in TRANSFORM_IDS:
        moved = transform_grid(K, t)
        assert np.array_equal(moved.cells(),
                              sort_cells(transform_cells(K.cells(), t)))


@pytest.mark.parametrize("base, n, target", [
    (2, 3, Box(0.25, 0.3, 0.7, 0.5)),         # two edges on grid lines
    (2, 4, Box(-0.4, 0.05, 0.15, 0.9)),
    (3, 2, Box(1 / 3, 0.2, 0.5, 2 / 3)),
    (3, 3, Box(-0.3, -0.6, 0.25, 0.1)),
])
def test_transform_spec_oracle_route_matches_transform_grid(base, n, target):
    """A fill-less spec moved by transform_spec rasterizes, through its
    wrapped oracle, to the moved raster of the original."""
    spec = replace(box_spec(target), base=base)
    level = Level(n, base)
    K = rasterize(spec, level)
    assert not K.is_empty
    for t in TRANSFORM_IDS:
        moved = transform_spec(spec, t)
        assert moved.fill is None
        assert rasterize(moved, level) == transform_grid(K, t)
