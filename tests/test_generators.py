from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from pcx import (
    GENERATOR_NAMES,
    Box,
    GeneratorParams,
    GridError,
    Level,
    ParseError,
    coarsen,
    emit_pbm,
    from_pbm,
    generator_base,
    label_components,
    make_spec,
    parse_pbm,
    rasterize,
    window_cell_range,
)
from pcx import generators

from conftest import ternary_intervals


def spec_for(name, **kw):
    return make_spec(GeneratorParams(name, **kw))


# ---------------------------------------------------------------------------
# params plumbing

def test_generator_params_validation():
    with pytest.raises(GridError):
        GeneratorParams("no_such_thing")
    with pytest.raises(GridError):
        GeneratorParams("cantor_dust", dust_dim=3)
    with pytest.raises(GridError):
        GeneratorParams("spiral_disk", t_max=0.5)
    with pytest.raises(GridError):
        generator_base("no_such_thing")


def test_base_mismatch_is_rejected():
    with pytest.raises(GridError):
        rasterize(spec_for("cantor_comb"), Level(3, 2))
    with pytest.raises(GridError):
        rasterize(spec_for("topologist_sine"), Level(3, 3))


@pytest.mark.parametrize("name", GENERATOR_NAMES)
def test_coarsen_exactness(name):
    """Rasterizing coarse equals coarsening the fine raster, for every
    built-in.  Multi-level refinement leans on this, so it is load-bearing."""
    spec = spec_for(name, seed=3)
    assert spec.fill is not None and spec.oracle is None  # fills alone rasterize
    base = generator_base(name)
    for n in (1, 2, 3):
        fine = rasterize(spec, Level(n + 1, base))
        assert coarsen(fine) == rasterize(spec, Level(n, base))


# ---------------------------------------------------------------------------
# the comb and the dusts, against exact ternary arithmetic

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_comb_teeth_are_ternary_intervals(n):
    K = rasterize(spec_for("cantor_comb"), Level(n, 3))
    side = 3 ** n
    want_cols = {int(a * side) for a, _ in ternary_intervals(n)}
    cells = K.cells()
    below_bar = cells[cells[:, 1] < side - 1]
    assert set(below_bar[:, 0].tolist()) == want_cols
    top_row = cells[cells[:, 1] == side - 1]
    assert len(top_row) == side  # the joining bar spans every column


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dust_counts_and_isolation(n):
    K2 = rasterize(spec_for("cantor_dust"), Level(n, 3))
    assert K2.count == 4 ** n
    assert label_components(K2, 8).count == 4 ** n  # every cell isolated
    K1 = rasterize(spec_for("cantor_dust", dust_dim=1), Level(n, 3))
    assert K1.count == 2 ** n
    assert K1.cells()[:, 1].max() == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_carpet_cell_count(n):
    K = rasterize(spec_for("sierpinski_carpet"), Level(n, 3))
    assert K.count == 8 ** n


def test_carpet_fill_matches_the_digit_loop():
    """The carpet built from its self-similarity against the cells whose
    ternary digits are 1 on both axes at some position, removed digit by
    digit with np.outer."""
    fill = spec_for("sierpinski_carpet").fill
    for n in range(1, 8):
        side = 3 ** n
        idx = np.arange(side, dtype=np.int64)
        removed = np.zeros((side, side), dtype=bool)
        for g in range(1, n + 1):
            mid = (idx // (3 ** (n - g))) % 3 == 1
            removed |= np.outer(mid, mid)
        origin, mask = fill(Level(n, 3))
        assert origin == (0, 0) and mask.dtype == bool and np.array_equal(mask, ~removed)


def test_square_and_bars_shapes():
    K = rasterize(spec_for("unit_square"), Level(4, 2))
    assert K.count == 16 * 16
    B = rasterize(spec_for("bars"), Level(4, 2))
    lab = label_components(B, 8)
    assert lab.count == 3
    assert len({m.size for m in lab.metas}) == 1  # congruent squares


# ---------------------------------------------------------------------------
# topologist's sine: exact column ranges

def dense_column_range(a: float, b: float) -> tuple[float, float]:
    """Min/max of sin(1/x) on [a, b] by dense sampling plus exact extrema."""
    ulo, uhi = 1.0 / b, 1.0 / a
    us = list(np.linspace(ulo, uhi, 4001))
    k = math.floor((uhi - math.pi / 2) / (2 * math.pi))
    if math.pi / 2 + 2 * math.pi * k >= ulo:
        us.append(math.pi / 2 + 2 * math.pi * k)
    k = math.floor((uhi + math.pi / 2) / (2 * math.pi))
    if -math.pi / 2 + 2 * math.pi * k >= ulo:
        us.append(-math.pi / 2 + 2 * math.pi * k)
    ys = np.sin(np.array(us))
    return float(ys.min()), float(ys.max())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sine_columns_match_dense_sampling(n):
    lvl = Level(n, 2)
    s = lvl.cell_size
    K = rasterize(spec_for("topologist_sine"), lvl)
    cells = K.cells()
    cols = 2 ** n
    bar = cells[cells[:, 0] == 0][:, 1]
    assert bar.min() == -cols and bar.max() == cols - 1  # [-1, 1] limit bar
    for i in range(1, cols):
        a = max(i * s, s / 4.0)
        b = min((i + 1) * s, 1.0)
        lo, hi = dense_column_range(a, b)
        jlo = max(int(math.floor((lo + 1.0) / s)) - cols, -cols)
        jhi = min(int(math.floor((hi + 1.0) / s)) - cols, cols - 1)
        got = cells[cells[:, 0] == i][:, 1]
        assert got.min() == jlo and got.max() == jhi
        assert len(got) == jhi - jlo + 1  # contiguous run


# ---------------------------------------------------------------------------
# spiral + disk

def test_spiral_contains_disk_and_arm():
    lvl = Level(6, 2)
    s = lvl.cell_size
    K = rasterize(spec_for("spiral_disk"), lvl)
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0, 1 - 2 * s)
        x, y = r * np.cos(theta), r * np.sin(theta)
        assert K.contains_cell(int(np.floor(x / s)), int(np.floor(y / s)))
    for t in np.linspace(0.013, 8.0, 50):
        r = 1.0 + np.exp(-t)
        x, y = r * np.cos(2 * np.pi * t), r * np.sin(2 * np.pi * t)
        assert K.contains_cell(int(np.floor(x / s)), int(np.floor(y / s)))


def test_spiral_is_deterministic():
    a = rasterize(spec_for("spiral_disk"), Level(5, 2))
    b = rasterize(spec_for("spiral_disk"), Level(5, 2))
    assert a == b


def _float_spiral(t_max):
    """The spiral samples as float64 points: one chunk of arc per unit of t
    at the canonical step, then the end point."""
    step, chunks, t = 2.0 ** -12 / 3.0, [], 0.0
    while t < t_max:
        t2 = min(t + 1.0, t_max)
        speed = math.sqrt(math.exp(-2 * t) + 4 * math.pi ** 2 * (1 + math.exp(-t)) ** 2)
        ts = np.arange(t, t2, step / speed)
        r, th = 1.0 + np.exp(-ts), 2.0 * np.pi * ts
        chunks.append(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
        t = t2
    r, th = 1.0 + math.exp(-t_max), 2.0 * math.pi * t_max
    chunks.append(np.array([[r * math.cos(th), r * math.sin(th)]]))
    return np.concatenate(chunks)


def _reference_disk(n):
    """The unit disk at level n over the spiral box: the cells whose box has
    its nearest point to the centre at distance < 1."""
    lvl = Level(n, 2)
    s = lvl.cell_size
    i0, j0, i1, j1 = window_cell_range(Box(-17 / 8, -17 / 8, 17 / 8, 17 / 8), lvl)
    mask = np.zeros((j1 - j0 + 1, i1 - i0 + 1), dtype=bool)
    di = np.arange(int(np.floor(-1.0 / s)) - 1, int(np.ceil(1.0 / s)) + 1)
    nearest = np.clip(0.0, di * s, (di + 1) * s)
    for rows in np.array_split(np.arange(len(di)), 1 + len(di) // 256):
        mask[np.ix_(di[rows] - j0, di - i0)] = \
            nearest[None, :] ** 2 + nearest[rows, None] ** 2 < 1.0
    return (i0, j0), mask


def test_spiral_fill_matches_the_float_samples():
    """Each fill equals the disk plus floor(pts / s) of the float samples, at
    every level the cell budget admits; and the cached cells are the samples'
    level-12 cells with each run of one cell kept once, in arc order."""
    disks = {n: _reference_disk(n) for n in range(1, 12)}
    for t_max, levels in ((1.5, disks), (6.0, disks), (40.0, disks), (100.0, (3, 10))):
        pts = _float_spiral(t_max)
        if t_max < 40:
            ref = np.floor(pts * 2.0 ** 12).astype(np.int32)
            keep = np.r_[True, (ref[1:] != ref[:-1]).any(axis=1)]
            got = generators._spiral_cells(t_max)
            assert got.dtype == np.int32 and np.array_equal(got, ref[keep]), t_max
            del ref, keep, got
        fill = spec_for("spiral_disk", t_max=t_max).fill
        for n in levels:
            (i0, j0), mask = disks[n]
            mask, width = mask.copy(), mask.shape[1]
            for part in np.array_split(pts, 1 + len(pts) // 2 ** 20):
                ij = np.floor(part / Level(n, 2).cell_size)  # flat index of (i, j):
                mask.ravel()[(ij @ [1.0, width] - (i0 + j0 * width)).astype(np.intp)] = True
            got_origin, got_mask = fill(Level(n, 2))
            assert got_origin == (i0, j0) and got_mask.dtype == bool, (t_max, n)
            assert got_mask.shape == mask.shape, (t_max, n)
            assert not np.logical_xor(got_mask, mask, out=mask).any(), (t_max, n)
            del mask, got_mask


def test_spiral_level_12_is_over_the_cell_budget(monkeypatch):
    """The cached cells are at level 12, which no spiral raster reaches:
    the cell budget stops rasterize there even when the level cap allows it."""
    monkeypatch.setenv("PCX_MAX_LEVEL", "12")
    with pytest.raises(GridError, match="over the budget"):
        rasterize(spec_for("spiral_disk", t_max=1.5), Level(12, 2))


def test_spiral_fill_memory():
    """The cached cells are int32, read-only and small; a warm fill holds one
    shifted copy of them, and building them holds a few arrays their size."""
    cells = generators._spiral_cells(40.0)
    assert cells.dtype == np.int32 and not cells.flags.writeable
    assert cells.nbytes <= 12 * 2 ** 20
    fill = spec_for("spiral_disk", t_max=40.0).fill
    tracemalloc.start()
    try:
        fill(Level(7, 2))
        assert tracemalloc.get_traced_memory()[1] < 16 * 2 ** 20
        tracemalloc.reset_peak()
        generators._spiral_cells.__wrapped__(40.0)  # a cold build, cache untouched
        assert tracemalloc.get_traced_memory()[1] < 32 * 2 ** 20
    finally:
        tracemalloc.stop()


def test_random_compactum_seeding():
    lvl = Level(5, 2)
    a = rasterize(spec_for("random_blobs", seed=11), lvl)
    b = rasterize(spec_for("random_blobs", seed=11), lvl)
    c = rasterize(spec_for("random_blobs", seed=12), lvl)
    assert a == b
    assert a != c
    assert not a.is_empty


# ---------------------------------------------------------------------------
# PBM wire format

def test_pbm_round_trip_both_formats():
    rng = np.random.default_rng(0)
    mask = rng.random((11, 13)) < 0.4  # width deliberately not a byte multiple
    for fmt in ("P1", "P4"):
        again = parse_pbm(emit_pbm(mask, fmt))
        assert np.array_equal(again, mask)


def test_pbm_rejects_garbage():
    with pytest.raises(ParseError):
        parse_pbm(b"P5\n2 2\n....")
    with pytest.raises(ParseError):
        parse_pbm(b"P1\n3")
    with pytest.raises(ParseError):
        parse_pbm(b"P1\n2 2\n1 0 1")  # one bit short
    with pytest.raises(ParseError):
        parse_pbm(b"P4\n16 2\nx")


def test_pbm_comments_are_skipped():
    mask = parse_pbm(b"P1\n# a comment\n2 2\n# another\n1 0\n0 1\n")
    assert mask.tolist() == [[True, False], [False, True]]


def test_from_pbm_spec_round_trips(tmp_path):
    art = np.zeros((5, 8), dtype=bool)
    art[0, :] = True   # top image row -> highest cell row
    art[:, 2] = True
    p = tmp_path / "shape.pbm"
    p.write_bytes(emit_pbm(art, "P4"))
    spec = from_pbm(str(p))
    K = rasterize(spec, Level(3, 2))  # native: 2**3 >= 8
    want = {(i, 4) for i in range(8)} | {(2, j) for j in range(5)}
    assert {tuple(c) for c in K.cells().tolist()} == want
    assert spec.name == "pbm:shape" and spec.oracle is None


def test_from_pbm_missing_file():
    with pytest.raises(ParseError):
        from_pbm("/nonexistent/nowhere.pbm")
