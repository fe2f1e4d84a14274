from __future__ import annotations

import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from pcx import (
    Box,
    Decomposition,
    GeneratorParams,
    GridCompactum,
    GridError,
    Level,
    RelationParams,
    RelationSeed,
    SetSpec,
    Strip,
    close_equivalence,
    common_refinement,
    contract_degree_two,
    decompose,
    diameter,
    hausdorff_distance,
    is_simple_path,
    label_components,
    make_spec,
    monotone_check,
    peano_check,
    quotient_graph,
    rasterize,
    refines,
    schoenflies_relation,
    sort_cells,
)

from pcx import decomposition, schoenflies
from pcx.cli import decomposition_to_payload, json_text, load_decomposition
from pcx.decomposition import ClassInfo
from pcx.decomposition import _family, _fracture_loci, _unit_pairs
from pcx.grid import _canonical, _cells_of, _label_mask, _slab, coarsen
from pcx.schoenflies import RectAnnulus, _BlockRegions, _crossing_counts, _tiles

from conftest import (bfs_components, cells_from_art, grid_from_art, object_family,
                      reference_core, window_table)

LVL = Level(6, 2)
S = LVL.cell_size


def all_singleton_seed(K):
    return RelationSeed(K.level, ())


def classes_as_sets(D: Decomposition) -> set[frozenset]:
    return {frozenset(map(tuple, c.cells.tolist())) for c in D.classes}


# ---------------------------------------------------------------------------
# params

def test_relation_params_validation():
    RelationParams()  # defaults are fine
    with pytest.raises(GridError):
        RelationParams(n_min=2)
    for delta in (0.0, float("inf"), float("nan")):
        with pytest.raises(GridError):
            RelationParams(delta=delta)
    with pytest.raises(GridError):
        RelationParams(annulus_family="nope")
    with pytest.raises(GridError):
        RelationParams(stride=0)
    with pytest.raises(GridError):
        RelationParams(deep_levels=0)
    with pytest.raises(GridError):
        RelationParams(deep_children=1)


# ---------------------------------------------------------------------------
# closing a seed into a partition

def test_empty_seed_gives_singletons():
    K = grid_from_art("###\n#.#", level=LVL)
    D = close_equivalence(K, all_singleton_seed(K))
    assert len(D.classes) == K.count
    assert all(c.size == 1 for c in D.classes)
    assert D.cell_count == K.count


def test_class_ids_follow_row_major_representatives():
    K = grid_from_art("####", level=LVL)
    seed = RelationSeed(LVL, (np.array([[2, 0], [3, 0]]),))
    D = close_equivalence(K, seed)
    # ids are assigned by the row-major rank of each class's first cell
    assert [c.representative for c in D.classes] == [(0, 0), (1, 0), (2, 0)]
    assert [c.id for c in D.classes] == [0, 1, 2]
    assert D.class_of(3, 0) == D.class_of(2, 0) == 2


def test_merge_sets_chain_transitively():
    K = grid_from_art("#####", level=LVL)
    seed = RelationSeed(LVL, (
        np.array([[0, 0], [1, 0]]),
        np.array([[1, 0], [2, 0]]),
        np.array([[4, 0], [2, 0]]),
    ))
    D = close_equivalence(K, seed)
    assert len(D.classes) == 2
    big = max(D.classes, key=lambda c: c.size)
    assert {tuple(c) for c in big.cells.tolist()} == {(0, 0), (1, 0), (2, 0), (4, 0)}


def test_seed_outside_k_is_rejected():
    K = grid_from_art("##", level=LVL)
    seed = RelationSeed(LVL, (np.array([[0, 0], [5, 5]]),))
    with pytest.raises(GridError):
        close_equivalence(K, seed)
    with pytest.raises(GridError):
        close_equivalence(K, RelationSeed(Level(3, 2), ()))  # level mismatch


def test_close_is_idempotent():
    K = grid_from_art("######", level=LVL)
    seed = RelationSeed(LVL, (np.array([[0, 0], [3, 0]]),))
    D1 = close_equivalence(K, seed)
    D2 = close_equivalence(K, seed)
    assert D1 == D2 and classes_as_sets(D1) == classes_as_sets(D2)


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                min_size=1, max_size=50, unique=True),
       st.data())
def test_closure_is_a_partition(cells, data):
    cells = np.array(sorted(cells), dtype=np.int64)
    K = GridCompactum.from_cells(LVL, cells)
    n_sets = data.draw(st.integers(0, 4))
    merge_sets = []
    for _ in range(n_sets):
        idx = data.draw(st.lists(st.integers(0, len(cells) - 1), min_size=1,
                                 max_size=5, unique=True))
        merge_sets.append(cells[sorted(idx)])
    D = close_equivalence(K, RelationSeed(LVL, tuple(merge_sets)))
    seen = {}
    for c in D.classes:
        assert c.size == len(c.cells)
        for cell in map(tuple, c.cells.tolist()):
            assert cell not in seen
            seen[cell] = c.id
            assert D.class_of(*cell) == c.id
    assert seen.keys() == {tuple(c) for c in cells.tolist()}
    # every merge set landed inside one class
    for ms in merge_sets:
        assert len({D.class_of(*c) for c in map(tuple, ms.tolist())}) == 1


def bfs_classes(cells: np.ndarray, merge_sets) -> set[frozenset]:
    """Classes by breadth-first search over cells joined through merge sets."""
    adj = {c: set() for c in map(tuple, cells.tolist())}
    for ms in merge_sets:
        members = set(map(tuple, ms.tolist()))
        for c in members:
            adj[c] |= members
    classes, seen = set(), set()
    for start in adj:
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            for nb in adj[todo.pop()] - comp:
                comp.add(nb)
                todo.append(nb)
        seen |= comp
        classes.add(frozenset(comp))
    return classes


merge_cells = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=1, max_size=30, unique=True)


@given(merge_cells, st.data())
def test_closure_matches_bfs_classes(cells, data):
    """Random merge sets, repeated cells and one-cell sets included."""
    cells = sort_cells(np.array(cells, dtype=np.int64))
    K = GridCompactum.from_cells(LVL, cells)
    picks = data.draw(st.lists(st.lists(st.integers(0, len(cells) - 1),
                                        min_size=1, max_size=6), max_size=12))
    merge_sets = tuple(cells[p] for p in picks)
    D = close_equivalence(K, RelationSeed(LVL, merge_sets))
    assert classes_as_sets(D) == bfs_classes(cells, merge_sets)
    reps = [(j, i) for i, j in (c.representative for c in D.classes)]
    assert reps == sorted(reps)  # ids ascend with the smallest row-major cell


def test_closure_rejects_empty_and_stray_merge_sets():
    K = grid_from_art("#.#", level=LVL)
    one = np.array([[0, 0]], dtype=np.int64)
    for bad in (np.zeros((0, 2), dtype=np.int64), np.array([[1, 0]]),
                np.array([[2, 0], [9, 0]]), np.array([[0, -1]])):
        with pytest.raises(GridError):
            close_equivalence(K, RelationSeed(LVL, (one, bad)))
    # an empty K admits no merge set, empty or not
    E = GridCompactum.from_cells(LVL, np.zeros((0, 2), dtype=np.int64))
    for bad in (np.zeros((0, 2), dtype=np.int64), np.array([[5, 5]])):
        with pytest.raises(GridError):
            close_equivalence(E, RelationSeed(LVL, (bad,)))
    assert close_equivalence(E, RelationSeed(LVL, ())).classes == ()


_CORNERS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64)


def eager_classes(D: Decomposition) -> list[tuple]:
    """(id, representative, cells, size, diameter) of every class, rebuilt
    from class_map alone: cells row-major, the diameter as the largest
    distance between two cell corners."""
    js, is_ = np.nonzero(D.class_map >= 0)
    ids = D.class_map[js, is_]
    cells = np.stack([is_ + D.origin[0], js + D.origin[1]], axis=1).astype(np.int64)
    rows = []
    for k in range(int(ids.max()) + 1 if len(ids) else 0):
        c = cells[ids == k]
        corners = (c[:, None] + _CORNERS).reshape(-1, 2) * D.level.cell_size
        diam = np.sqrt(((corners[:, None] - corners[None]) ** 2).sum(axis=2)).max()
        rows.append((k, (int(c[0, 0]), int(c[0, 1])), c, len(c), float(diam)))
    return rows


index_lists = st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8),
                       max_size=14)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.1, 0.5, 0.9]), index_lists,
       index_lists, st.booleans(), st.sampled_from([LVL, Level(3, 3)]),
       st.sampled_from(["close", "round trip", "common refinement"]))
@example(0, 0.0, [], [], False, LVL, "close")
@settings(max_examples=60, deadline=None, derandomize=True)
def test_lazy_classes_match_an_eager_reference(seed, density, picks_a, picks_b, whole, level,
                                               route):
    """D.classes, built on first read from the class columns, equals the
    ClassInfo tuple the closure built eagerly before: field by field, with
    types and dtypes.  The raster is a random 12 x 12 mask; `whole` glues
    every cell into one class, which can be over the 64 cells past which the
    diameter kernel first cuts a class to its row extremes."""
    mask = np.random.default_rng(seed).random((12, 12)) < density
    cells = sort_cells(np.argwhere(mask) - 6)
    K = GridCompactum.from_cells(level, cells)

    def closure(picks) -> Decomposition:
        sets = [cells[np.array(p) % len(cells)] for p in picks] if len(cells) else []
        return close_equivalence(K, RelationSeed(level, tuple(sets)))

    D = closure(picks_a + ([list(range(len(cells)))] if whole and len(cells) else []))
    if route == "round trip":
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.json"
            path.write_text(json_text(decomposition_to_payload(D)), encoding="utf-8")
            D = load_decomposition(str(path))
    elif route == "common refinement":
        D = common_refinement(D, closure(picks_b))
    want = eager_classes(D)
    if not len(cells):
        assert D.classes == () and want == []
    reps = [(j, i) for _, (i, j), *_ in want]
    assert reps == sorted(reps)  # ids ascend with the smallest row-major cell
    assert type(D.classes) is tuple and len(D.classes) == len(want) == D.class_count
    for c, (k, rep, cls_cells, size, diam) in zip(D.classes, want):
        assert type(c) is ClassInfo
        assert type(c.id) is int and c.id == k
        assert type(c.representative) is tuple and c.representative == rep
        assert all(type(v) is int for v in c.representative)
        assert c.cells.dtype == np.int64 and np.array_equal(c.cells, cls_cells)
        assert c.cells.shape == cls_cells.shape
        assert type(c.size) is int and c.size == size
        assert type(c.diameter) is float and c.diameter == diam
    assert D.classes is D.classes  # built once


# ---------------------------------------------------------------------------
# deep-split child count on label images vs the cell-list count

def reference_deep_children(core, dcore, factor, full):
    """The count made from per-piece cell lists: the deep crossing ids of each
    unit (fused by the `full` label at their first cells), and per coarse
    label id the units whose parents (every parent for a fused unit, the
    first cell's for the rest) lie in it."""
    dcells = dcore.crossing_cells()
    groups: dict[int, list[int]] = {}
    for did in dcore.crossing:
        fi, fj = dcells[did][0]
        key = did if full is None else \
            int(full[fj - dcore.origin[1], fi - dcore.origin[0]])
        groups.setdefault(key, []).append(did)
    children: dict[int, list[int]] = {}
    nj, ni = core.labels.shape
    for uid, g in enumerate(groups.values()):
        cells = np.concatenate([dcells[d] for d in g]) if len(g) > 1 \
            else dcells[g[0]][:1]
        cids = set()
        for pi, pj in (cells // factor).tolist():
            ii, jj = pi - core.origin[0], pj - core.origin[1]
            if 0 <= ii < ni and 0 <= jj < nj and core.labels[jj, ii] >= 0:
                cids.add(int(core.labels[jj, ii]))
        for cid in cids:
            children.setdefault(cid, []).append(uid)
    return list(groups.values()), children


DEEP_CORPUS = [(GeneratorParams("cantor_comb"), 3),
               (GeneratorParams("spiral_disk", t_max=6.0), 4),
               (GeneratorParams("topologist_sine"), 5),
               (GeneratorParams("sierpinski_carpet"), 2),
               (GeneratorParams("bars"), 4)]


@pytest.mark.parametrize("family", ["strips", "annuli"])
def test_deep_children_match_cell_list_count(family):
    """The batched (piece, unit) pairs of every region of a raster, from one
    call, against the cell-list count of each region alone; the pieces come
    from the block engine at f = 1.  An annulus
    takes its units both from the whole deep window labelled alone and from
    the block engine; the engine's unit pixels are the units' cells."""
    counted = fused = spread = 0
    for gp, n in DEEP_CORPUS:
        spec = make_spec(gp)
        K = rasterize(spec, Level(n, spec.base))
        deep = rasterize(spec, Level(n + 3, spec.base))
        factor = spec.base ** 3
        regions = object_family(K, "strips-all-offsets" if family == "strips"
                                else "rect-annuli-sampled")
        blocks = _BlockRegions().label(deep, factor, window_table(deep, regions))
        ts = np.arange(len(regions))
        core_list = [reference_core(K, region, "intersection") for region in regions]
        # the coarse pieces: components of the same regions labelled at f = 1,
        # as (region, id) through the region's components by first pixel
        coarse = _BlockRegions().label(K, 1, window_table(K, regions))
        region_of, cid_of = np.empty((2, len(coarse.cross)), dtype=np.int64)
        for t in ts:
            comps = coarse.order[coarse.cbounds[t]:coarse.cbounds[t + 1]]
            region_of[comps], cid_of[comps] = t, np.arange(len(comps))
        nc = len(blocks.cross)
        units = [blocks.units(ts.tolist() if family == "annuli" else [])]
        reference, by_full = {}, np.arange(nc)
        for t, region in enumerate(regions):
            dcore = reference_core(deep, region, "intersection")
            if not dcore.crossing:
                continue
            comps = blocks.order[blocks.cbounds[t]:blocks.cbounds[t + 1]]
            full = None
            if isinstance(region, RectAnnulus):
                (i0, j0, i1, j1), _ = region.snapped_rects(deep.level)
                full = _label_mask(_slab(deep, i0, j0, i1, j1), 8)[0]
                # the full label at each id's first pixel, as the id's unit
                fg = np.flatnonzero(dcore.labels.ravel() >= 0)
                firsts = np.unique(dcore.labels.ravel()[fg], return_index=True)[1]
                by_full[comps] = nc + t * full.size + full.ravel()[fg[firsts]]
            reference[t] = (dcore, comps,
                            *reference_deep_children(core_list[t], dcore, factor, full))
        if family == "annuli":
            units.append(by_full)
        for unit in units:
            piece_of, unit_of = _unit_pairs(blocks, ts, coarse, factor, unit)
            assert np.all(np.diff(piece_of * (unit.max() + 1) + unit_of) > 0)
            for t, (dcore, comps, groups, want_children) in reference.items():
                # the units of region t, numbered as its crossing ids first meet them
                local = dict(zip(unit[comps[list(dcore.crossing)]].tolist(),
                                 _canonical(unit[comps[list(dcore.crossing)]])[0].tolist()))
                mine = region_of[piece_of] == t
                got = sorted(zip(cid_of[piece_of[mine]].tolist(),
                                 [local[u] for u in unit_of[mine].tolist()]))
                assert got == sorted((c, u) for c, us in want_children.items() for u in us)
                # the units as the engine's pixels hold them
                nodes = np.arange(blocks.bounds[t], blocks.bounds[t + 1])
                nodes = nodes[blocks.cross[blocks.comp[nodes]]]
                q, e = blocks.pixels(nodes)
                cells = blocks.block(nodes)[q] * factor + np.stack([e % factor, e // factor], 1)
                uid = np.array([local[u] for u in unit[blocks.comp[nodes[q]]].tolist()])
                assert sorted(set(uid.tolist())) == list(range(len(groups)))
                dcells = dcore.crossing_cells()
                for u, g in enumerate(groups):
                    want = sort_cells(np.concatenate([dcells[d] for d in g]))
                    assert np.array_equal(sort_cells(cells[uid == u]), want)
        for t, (dcore, comps, groups, want_children) in reference.items():
            counted += 1
            fused += sum(len(g) > 1 for g in groups)
            spread += sum(len(g) > 1 and sum(uid in us for us in want_children.values()) > 1
                          for uid, g in enumerate(groups))
            # the count takes each piece by its first cell only: every parent
            # of a deep crossing piece lies in that cell's coarse piece
            dcells, core = dcore.crossing_cells(), core_list[t]
            for did in dcore.crossing:
                ii, jj = (dcells[did] // factor - core.origin).T
                assert ((0 <= ii) & (ii < core.labels.shape[1])
                        & (0 <= jj) & (jj < core.labels.shape[0])).all()
                ids = core.labels[jj, ii]
                assert (ids == ids[0]).all() and ids[0] >= 0
    assert counted > 0
    # annuli fuse pieces, and some fused unit counts under two coarse pieces
    assert (fused > 0) == (spread > 0) == (family == "annuli")


def reference_fracture_loci(K, deep, region, factor, delta, children):
    """One region's deep split in plain tools: both rasters labelled alone,
    units from the cell-list count, a k-d tree per unit, and the locus split
    by _label_mask; patches by piece, then by first cell."""
    core, dcore = (reference_core(R, region, "intersection") for R in (K, deep))
    full = None
    if isinstance(region, RectAnnulus):
        (i0, j0, i1, j1), _ = region.snapped_rects(deep.level)
        full = _label_mask(_slab(deep, i0, j0, i1, j1), 8)[0]
    groups, children_of = reference_deep_children(core, dcore, factor, full)
    dcells = dcore.crossing_cells()
    trees = [cKDTree((np.concatenate([dcells[d] for d in g]) + 0.5) * deep.level.cell_size)
             for g in groups]
    locus = np.zeros(core.labels.shape, dtype=bool)
    for cid in core.crossing:
        if len(children_of.get(cid, ())) >= children:
            js, is_ = np.nonzero(core.labels == cid)
            pts = (np.stack([is_, js], axis=1) + core.origin + 0.5) * K.level.cell_size
            hits = sum(np.isfinite(trees[u].query(pts, distance_upper_bound=delta + 1e-9)[0])
                       for u in children_of[cid])
            locus[js[hits >= 2], is_[hits >= 2]] = True
    oi, oj = core.origin
    patches, n = _label_mask(locus, 8)
    return sorted((_cells_of(patches == k, core.origin) for k in range(n)),
                  key=lambda p: core.labels[p[0, 1] - oj, p[0, 0] - oi])


def check_fracture_loci(K, deep, factor, regions, cases):
    """The batched deep split of every region that passes the deep count
    against each region split alone, for each (deep_children, delta in
    cells); the number of patches compared."""
    s = K.level.cell_size
    live = np.flatnonzero(_crossing_counts(K, window_table(K, regions), "intersection") > 0)
    blocks = _BlockRegions().label(deep, factor, window_table(deep, [regions[k] for k in live]))
    seen = 0
    for children, d in cases:
        ts = np.flatnonzero(blocks.counts >= children)
        coarse = _BlockRegions().label(K, 1, window_table(K, [regions[k] for k in live[ts]]))
        xs, patches = _fracture_loci(blocks, ts, coarse, factor,
                                     (d * s + 1e-9) / deep.level.cell_size, children)
        want = [(x, p) for x, t in enumerate(ts.tolist()) for p in
                reference_fracture_loci(K, deep, regions[live[t]], factor, d * s, children)]
        assert xs.tolist() == [x for x, _ in want]
        assert len(patches) == len(want)
        assert all(np.array_equal(a, b) for a, (_, b) in zip(patches, want))
        seen += len(want)
    return seen


@pytest.mark.parametrize("gp,n", DEEP_CORPUS)
def test_fracture_loci_match_the_per_region_split(gp, n):
    """The same patches, cells and order as each region split alone."""
    spec = make_spec(gp)
    K, deep = (rasterize(spec, Level(m, spec.base)) for m in (n, n + 3))
    seen = check_fracture_loci(K, deep, spec.base ** 3, object_family(K), ((3, 2), (2, 3)))
    assert (seen > 0) == (gp.name in ("cantor_comb", "spiral_disk", "topologist_sine"))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=12, deadline=None)
def test_fracture_loci_match_the_per_region_split_on_noise(seed, base):
    """Random combs: fine lines, broken here and there, with noise, in either
    direction.  Many pieces of a region split at once, so that their patches
    interleave and must come by piece, then by first cell."""
    rng = np.random.default_rng(seed)
    f = base ** 2
    mask = (rng.random(6 * f) < 0.3) & (rng.random((6 * f, 6 * f)) < 0.97)
    mask |= rng.random(mask.shape) < 0.03
    deep = GridCompactum.from_cells(Level(4, base),
                                    np.argwhere(mask.T if rng.random() < 0.5 else mask)[:, ::-1])
    assume(not deep.is_empty)
    K = coarsen(coarsen(deep))
    # nearly every such raster has patches (597 of the first 600 seeds)
    check_fracture_loci(K, deep, f, object_family(K, stride=2), ((2, 1), (2, 2), (3, 2)))


def test_fracture_loci_come_by_piece_before_first_cell():
    """In the strip over coarse rows 0 and 1, piece A (columns 0-1) splits
    into two arcs that come within one cell of each other only in row 1,
    piece B (columns 4-5) into two lines close in both rows: B's patch has
    the earlier first cell, but A's patch comes first, as A ranks first."""
    arcs = [(0, y) for y in range(5)] + [(1, 5), (2, 5)] + [(3, y) for y in range(5, 8)]
    arcs += [(7, y) for y in range(5)] + [(6, 5)] + [(5, y) for y in range(5, 8)]
    lines = [(x, y) for x in (18, 21) for y in range(8)]
    deep = GridCompactum.from_cells(Level(5, 2), np.array(arcs + lines))
    K = coarsen(coarsen(deep))
    strip = [Strip("h", 0.0, 2 * K.level.cell_size)]
    assert check_fracture_loci(K, deep, 4, strip, ((2, 1),)) == 2
    blocks = _BlockRegions().label(deep, 4, window_table(deep, strip))
    xs, patches = _fracture_loci(blocks, np.array([0]),
                                 _BlockRegions().label(K, 1, window_table(K, strip)), 4,
                                 (K.level.cell_size + 1e-9) / deep.level.cell_size, 2)
    assert [p.tolist() for p in patches] == [[[0, 1], [1, 1]], [[4, 0], [5, 0], [4, 1], [5, 1]]]


# ---------------------------------------------------------------------------
# the relation itself on tiny ground truths

def test_relation_on_locally_connected_square_is_empty():
    spec = make_spec(GeneratorParams("unit_square"))
    K = rasterize(spec, Level(3, 2))
    seed = schoenflies_relation(K)
    assert seed.merge_sets == ()


def test_relation_fills_the_deep_raster_only_once_a_region_crosses():
    """No region of dust L4 crosses, so decompose fills its working level
    only: the deep level's budget is checked, but its raster is never made."""
    spec = make_spec(GeneratorParams("cantor_dust"))
    spec = replace(spec, fill=mock.Mock(wraps=spec.fill))
    D = decompose(spec, Level(4, 3))
    assert [c.args for c in spec.fill.call_args_list] == [(Level(4, 3),)]
    assert D.class_count == D.cell_count == 4 ** 4


def test_relation_labels_alone_only_the_regions_that_pass_the_count_gate():
    """Same-level only, no region is labelled alone: the batched counts
    settle the regions below the gate, and those that pass it are labelled
    together, once, by the block engine at f = 1.  So the relation calls
    ndimage.label once per window shape and once more, however many regions
    pass."""
    for gen, fields in (("sierpinski_carpet", {}), ("cantor_comb", {"n_min": 3, "delta": 4})):
        spec = make_spec(GeneratorParams(gen))
        K = rasterize(spec, Level(3, spec.base))
        params = RelationParams(multi_level=False,
                                **dict(fields, delta=fields.get("delta", 2) * K.level.cell_size))
        windows = _family(K, params, K)
        gated = np.flatnonzero(_crossing_counts(K, windows, "intersection") >= params.n_min)
        with mock.patch.object(schoenflies.ndimage, "label",
                               wraps=schoenflies.ndimage.label) as label:
            seed = schoenflies_relation(K, params)
        assert 0 < len(gated) < len(windows)
        assert label.call_count == len(np.unique(_tiles(windows), axis=0)) + 1 < len(gated)
        assert bool(seed.merge_sets) == (gen == "cantor_comb")


def test_packed_wires_glue_only_where_enough_pile_up():
    """Four parallel wires two cells apart.  At delta = 4 cells every
    horizontal band sees a chained cluster of four crossing components, but
    only cells of the two INNER wires are within delta of four of them, so
    exactly those wires fuse and the outer wires stay loose."""
    cols = (0, 2, 4, 6)
    cells = np.array([(c, r) for c in cols for r in range(10)])
    K = GridCompactum.from_cells(LVL, cells)
    seed = schoenflies_relation(K, RelationParams(delta=4 * S))
    D = close_equivalence(K, seed)
    inner = D.class_of(2, 0)
    assert D.class_of(4, 9) == inner
    assert D.classes[inner].size == 20
    for r in range(10):
        assert D.classes[D.class_of(0, r)].size == 1
        assert D.classes[D.class_of(6, r)].size == 1
    # at the default delta (two cells) the pile-up is too sparse to fire
    D0 = close_equivalence(K, schoenflies_relation(K))
    assert all(c.size == 1 for c in D0.classes)


@pytest.mark.parametrize("fine_cols, persists", [
    ((0, 4, 8), True),      # parents 0, 2, 4: the coarse teeth
    ((9, 13, 17), True),    # parents 4, 6, 8: one coarse tooth
    ((20, 24, 28), False),  # parents 10, 12, 14: off the coarse teeth
])
def test_same_level_cluster_must_persist_over_its_members(fine_cols, persists):
    """Three teeth two cells apart at level 4; a fill that puts the level-5
    teeth elsewhere.  The same-level cluster glues only when a cluster of
    at least as many crossing components one level finer has a cell whose
    parent is a member of the coarse cluster."""
    def fill(level):
        cols = (0, 2, 4) if level.n == 4 else [c * 2 ** (level.n - 5) + k
                                                for c in fine_cols
                                                for k in range(2 ** (level.n - 5))]
        mask = np.zeros((2 ** level.n, 2 ** level.n), dtype=bool)
        mask[:, cols] = True
        return (0, 0), mask

    K = rasterize(SetSpec("teeth", Box(0, 0, 1, 1), fill=fill), Level(4, 2))
    same_level = dict(n_min=3, delta=2 / 16, annulus_family="strips-all-offsets")
    seed = schoenflies_relation(K, RelationParams(**same_level, deep_children=99))
    assert bool(seed.merge_sets) == persists
    flat = schoenflies_relation(K, RelationParams(**same_level, multi_level=False))
    assert flat.merge_sets  # without the persistence check the cluster glues


def test_comb_small_scale_structure():
    spec = make_spec(GeneratorParams("cantor_comb"))
    lvl = Level(3, 3)
    s = lvl.cell_size
    D = decompose(spec, lvl)
    for c in D.classes:
        width = (c.cells[:, 0].max() - c.cells[:, 0].min() + 1) * s
        assert width <= 3 * s  # no class straddles distinct teeth


def test_sine_contracts_to_a_path():
    spec = make_spec(GeneratorParams("topologist_sine"))
    lvl = Level(3, 2)
    K = rasterize(spec, lvl)
    D = decompose(spec, lvl, RelationParams(deep_levels=4))
    G = quotient_graph(K, D)
    nodes, edges = contract_degree_two(G.nodes, G.edges)
    assert is_simple_path(nodes, edges)


def _translated(spec: SetSpec, n: int, di: int, dj: int) -> SetSpec:
    """spec moved by (di, dj) cells of level n: its fill at level m is
    shifted by (di, dj) * base**(m - n) cells."""
    def fill(level):
        (i0, j0), mask = spec.fill(level)
        k = spec.base ** (level.n - n)
        return (i0 + di * k, j0 + dj * k), mask

    s, b = Level(n, spec.base).cell_size, spec.bbox
    return SetSpec(f"{spec.name}+{di},{dj}", Box(b.x0 + di * s, b.y0 + dj * s,
                                                  b.x1 + di * s, b.y1 + dj * s),
                   fill=fill, base=spec.base)


@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=60),
       st.sampled_from([Level(4, 2), Level(3, 3), Level(7, 2)]), st.integers(1, 9),
       st.sampled_from(["both", "strips-all-offsets", "rect-annuli-sampled"]),
       st.sampled_from([0, 1, 3]), st.sampled_from([1, 5]), st.integers(0, 2 ** 32 - 1))
def test_family_table_matches_the_windows_of_the_object_family(cells, level, stride, family,
                                                               finer, shrink, seed):
    """The window table of the relation's family, at K's level and at a
    raster 1 or 3 levels finer, is _window of each region object, row for
    row in family order: both bases, strides 1-9, and all three families.
    K's cells are shrunk now and then, so that strides reach past its
    extent.  The finer raster holds K's cells refined, each cut down to a
    random part, plus a few cells of its own; now and then it is empty, as
    no relation raster is."""
    K = GridCompactum.from_cells(level, np.array(cells, dtype=np.int64) // shrink)
    R, rng = K, np.random.default_rng(seed)
    if finer:
        f = level.base ** finer
        fine = K.cells() * f + rng.integers(0, f, size=(K.count, 2))
        fine = np.r_[fine, rng.integers(-30 * f, 30 * f, size=(int(rng.integers(0, 4)), 2))]
        R = GridCompactum.from_cells(level.finer(finer), fine[:0] if rng.random() < 0.1 else fine)
    got = _family(K, RelationParams(annulus_family=family, stride=stride), R)
    assert got.dtype == np.int64
    assert np.array_equal(got, window_table(R, object_family(K, family, stride)))


def test_relation_builds_no_region_object():
    """decompose and peano_check read their regions from window tables:
    they construct no Strip or RectAnnulus, on spiral L4 (t_max 6), where
    the deep split fires, or on comb L3, where both routes do."""
    made = []
    with mock.patch.object(Strip, "__post_init__", lambda self: made.append(self)), \
            mock.patch.object(RectAnnulus, "__post_init__", lambda self: made.append(self)):
        for gp, n in ((GeneratorParams("spiral_disk", t_max=6.0), 4),
                      (GeneratorParams("cantor_comb"), 3)):
            spec = make_spec(gp)
            graphs = [quotient_graph(rasterize(spec, Level(m, spec.base)),
                                     decompose(spec, Level(m, spec.base))) for m in (n - 1, n)]
            peano_check(graphs, [0.1, 0.5])
        assert made == []
        Strip("h", 0.0, 1.0)  # the watch itself sees a construction
    assert len(made) == 1


@pytest.mark.parametrize("gp,n", DEEP_CORPUS[:3])
def test_deep_split_does_not_depend_on_its_chunks(gp, n):
    """The support query, and the block labelling, taken in small batches
    (a budget of 512 fine cells or nodes) give the merge sets of the
    default ones."""
    spec = make_spec(gp)
    K = rasterize(spec, Level(n, spec.base))
    params = RelationParams(annulus_family="both", deep_children=2)
    want = schoenflies_relation(K, params).to_dict()
    assert want["merge_sets"]
    with mock.patch.object(schoenflies, "_NODES", 512):
        assert schoenflies_relation(K, params).to_dict() == want


def test_deep_split_memory():
    """A warm spiral L4 decompose, the wild-sets benchmark step with the
    largest traced peak, holds at most 7.2 MiB of traced allocations above
    its start: 5.7 MiB under numpy 2.4, against 9.8 MiB while the support
    query and the block graph cut their batches by keyed cells and by
    nodes alone."""
    spec = make_spec(GeneratorParams("spiral_disk", t_max=6.0))
    decompose(spec, Level(4))  # the spiral's cell cache is built outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        decompose(spec, Level(4))
        assert tracemalloc.get_traced_memory()[1] - start < 7.2 * 2 ** 20
    finally:
        tracemalloc.stop()


def test_deep_labelling_skips_regions_short_of_boundary_runs(monkeypatch):
    """The deep raster is block-labelled only for regions whose runs along
    both boundaries reach deep_children: never for unit_square L5 or a blob
    with no deep witness, though both have regions with a coarse crossing,
    and still for spiral L4."""
    factors, label = [], _BlockRegions.label

    def recorded(self, K, f, windows):
        factors.append(f)
        return label(self, K, f, windows)

    monkeypatch.setattr(_BlockRegions, "label", recorded)
    for name, seed, n, labels_deep in (("unit_square", 0, 5, False), ("random_blobs", 2, 6, False),
                                       ("spiral_disk", 0, 4, True)):
        spec, factors[:] = make_spec(GeneratorParams(name, seed=seed, t_max=6.0)), []
        K = rasterize(spec, Level(n))
        assert (_crossing_counts(K, _family(K, RelationParams(), K), "intersection") > 0).any()
        decompose(spec, Level(n))
        assert (8 in factors) == labels_deep, (name, factors)


@pytest.mark.parametrize("gp,n", DEEP_CORPUS)
def test_block_labelling_does_not_depend_on_its_budget(gp, n):
    """The block engine at f = 1 and at the deep factor, over both region
    families, with budgets that put every band of block rows, every chunk
    of nodes and every run of regions (nodes plus seams) on a boundary,
    gives the default labelling, id for id."""
    spec = make_spec(gp)
    K = rasterize(spec, Level(n, spec.base))
    regions = object_family(K)
    for raster, f in ((K, 1), (rasterize(spec, Level(n + 3, spec.base)), spec.base ** 3)):
        windows = window_table(raster, regions)
        want = _BlockRegions().label(raster, f, windows)
        for budget in (1, 7, 64):
            with mock.patch.object(schoenflies, "_NODES", budget):
                got = _BlockRegions().label(raster, f, windows)
            for name in ("lab", "comp", "cross", "counts", "order", "first"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (budget, f, name)


@pytest.mark.parametrize("gen,n,fields", [
    ("cantor_comb", 3, {"n_min": 3, "delta": 3}),
    ("cantor_comb", 3, {"delta": 4}),
    ("cantor_comb", 4, {"n_min": 3, "delta": 3, "multi_level": False}),
    ("topologist_sine", 5, {"n_min": 3, "delta": 4}),
    ("random_blobs", 5, {"n_min": 3, "delta": 6, "multi_level": False})])
def test_same_level_prefilter_drops_only_regions_without_a_group(gen, n, fields):
    """The bounding-box pass only spares pair-query points: with it passing
    every piece, the merge sets are the same.  Either way single linkage
    runs once at the working level when some region passes the count gate,
    and at most once more one level finer, for all regions."""
    spec = make_spec(GeneratorParams(gen))
    K = rasterize(spec, Level(n, spec.base))
    s = K.level.cell_size
    params = RelationParams(**dict(fields, delta=fields["delta"] * s))
    want = schoenflies_relation(K, params).to_dict()
    with mock.patch.object(schoenflies, "_near",
                           lambda box, bounds, delta, s: np.ones(len(box), dtype=bool)), \
            mock.patch.object(decomposition, "_single_linkage",
                              wraps=decomposition._single_linkage) as linkage:
        assert schoenflies_relation(K, params).to_dict() == want
    cell_sizes = [c.args[4] for c in linkage.call_args_list]
    gated = (_crossing_counts(K, window_table(K, object_family(K, stride=params.stride)),
                              "intersection") >= params.n_min).any()
    assert cell_sizes in (([s], [s, s / spec.base]) if gated else ([],))


def test_each_raster_is_labelled_in_blocks_once():
    """Both routes read one labelling at f = 1 of the working raster, the
    deep-gated regions first, then those only the same-level gate passes.
    On comb L3 with n_min 3 and delta 4 cells both routes emit, and the
    deep raster, the working raster and the raster one level finer that
    tests persistence are each labelled once."""
    spec = make_spec(GeneratorParams("cantor_comb"))
    K = rasterize(spec, Level(3, spec.base))
    params = RelationParams(n_min=3, delta=4 * K.level.cell_size)
    calls, emitted, label = [], {}, _BlockRegions.label

    def record(self, R, f, windows):
        calls.append((R.level.n, f))
        return label(self, R, f, windows)

    def count(name):
        route = getattr(decomposition, name)

        def call(*args):
            xs, sets = route(*args)
            emitted[name] = len(sets)
            return xs, sets
        return mock.patch.object(decomposition, name, call)

    with mock.patch.object(_BlockRegions, "label", record), count("_clusters"), \
            count("_fracture_loci"):
        seed = schoenflies_relation(K, params)
    assert emitted["_clusters"] > 0 and emitted["_fracture_loci"] > 0
    assert len(seed.merge_sets) == sum(emitted.values())
    assert sorted(calls) == [(3, 1), (4, 1), (6, 27)]


def _random_fill(seed: int, kind: str, top: int):
    """A seeded fill of base 2 over [0, 2] x [0, 1], drawn at level `top`
    and coarsened to each level at or below it (a cell holds when a finer
    one does): combs of teeth on a spine, or blobs of random boxes, with
    noise."""
    rng, size = np.random.default_rng(seed), 2 ** top
    fine = np.zeros((size, 2 * size), dtype=bool)
    if kind == "comb":
        # long teeth two to seven cells apart one level coarser, some broken:
        # mostly close, so that they cluster, with wider gaps between clusters
        cols = np.cumsum(rng.choice([2, 2, 3, 4, 6, 7], size=size)) * 2 - 4 + rng.integers(0, 2, size)
        for col in cols[cols < 2 * size].tolist():
            fine[rng.integers(size // 4):rng.integers(3 * size // 4, size + 1), col] = True
            fine[rng.integers(size), col] &= rng.random() < 0.7
        fine[rng.integers(size), :] = True
    else:
        for _ in range(rng.integers(2, 9)):
            (j, i), (h, w) = rng.integers(0, size, size=2) * [1, 2], rng.integers(1, size // 3, size=2)
            fine[j:j + h, i:i + w] = True
    fine |= rng.random(fine.shape) < 0.02

    def fill(level):
        f = 2 ** (top - level.n)
        return (0, 0), fine.reshape(size // f, f, 2 * size // f, f).any(axis=(1, 3))
    return SetSpec(f"{kind}{seed}", Box(0, 0, 2, 1), fill=fill)


def _alone(K, region):
    """The region labelled alone with ndimage.label: its crossing pieces'
    cells by id (ids ranked by first cell, row-major), and the window's
    cells (i0, j0, i1, j1)."""
    if isinstance(region, Strip):
        r1, r2 = region.snapped_lines(K.level)
        i0, j0, i1, j1 = K.cell_bbox()
        box = (i0 - 2, r1, i1 + 2, r2 - 1) if region.axis == "h" else (r1, j0 - 2, r2 - 1, j1 + 2)
    else:
        (oi0, oj0, oi1, oj1), hole = region.snapped_rects(K.level)
        box = (oi0, oj0, oi1, oj1)
    ii, jj = np.meshgrid(np.arange(box[0], box[2] + 1), np.arange(box[1], box[3] + 1))
    image = np.isin(jj * 10 ** 6 + ii, K.cells() @ [1, 10 ** 6])
    edge = (ii == box[0]) | (ii == box[2]) | (jj == box[1]) | (jj == box[3])
    if isinstance(region, Strip):
        a, b = (jj == box[1], jj == box[3]) if region.axis == "h" else (ii == box[0], ii == box[2])
    else:
        inside = (hole[0] <= ii) & (ii <= hole[2]) & (hole[1] <= jj) & (jj <= hole[3])
        near = (hole[0] - 1 <= ii) & (ii <= hole[2] + 1) & (hole[1] - 1 <= jj) & (jj <= hole[3] + 1)
        image &= ~inside
        a, b = edge, near & ~inside
    raw = ndimage.label(image, structure=np.ones((3, 3)))[0]
    values, first = np.unique(raw.ravel(), return_index=True)
    labels = np.full(raw.shape, -1)
    for rank, v in enumerate(v for v in values[np.argsort(first)].tolist() if v):
        labels[raw == v] = rank
    crossing = set(labels[a & (labels >= 0)].tolist()) & set(labels[b & (labels >= 0)].tolist())
    return {c: np.stack([ii[labels == c], jj[labels == c]], axis=1) for c in sorted(crossing)}, box


def _groups_alone(pieces, delta, s, n_min):
    """Single linkage by pairwise Hausdorff distance, groups of n_min or
    more by smallest id."""
    ids, seen, groups = sorted(pieces), set(), []
    for root in ids:
        if root in seen:
            continue
        group, todo = [], [root]
        seen.add(root)
        while todo:
            a = todo.pop()
            group.append(a)
            for b in ids:
                if b not in seen and hausdorff_distance(pieces[a], pieces[b], s) <= delta + 1e-9:
                    seen.add(b)
                    todo.append(b)
        if len(group) >= n_min:
            groups.append(sorted(group))
    return groups


def reference_same_level(K, params, delta):
    """The same-level merge sets of the relation, region by region, in plain
    tools: each region labelled alone, linkage by pairwise Hausdorff
    distance, persistence from the region labelled alone one level finer,
    and limit cells by brute-force centre distances."""
    s, reach, kc = K.level.cell_size, int(np.ceil(delta / K.level.cell_size)) + 1, K.cells()
    out = []
    for region in object_family(K, params.annulus_family, params.stride):
        pieces, box = _alone(K, region)
        groups = _groups_alone(pieces, delta, s, params.n_min)
        if groups and params.multi_level:
            K2 = rasterize(K.source, K.level.finer())
            fine = _alone(K2, region)[0]
            fine_groups = _groups_alone(fine, delta, K2.level.cell_size, params.n_min)
        for group in groups:
            if params.multi_level:
                mine = {tuple(c) for m in group for c in pieces[m].tolist()}
                if not any(tuple(c) in mine for h in fine_groups if len(h) >= len(group)
                           for m in h for c in (fine[m] // K.level.base).tolist()):
                    continue
            cand = kc[(kc[:, 0] >= box[0] - reach) & (kc[:, 0] <= box[2] + reach)
                      & (kc[:, 1] >= box[1] - reach) & (kc[:, 1] <= box[3] + reach)]
            hits = sum((np.hypot(*(cand[:, None] - pieces[m][None]).transpose(2, 0, 1)).min(axis=1)
                        * s <= delta + 1e-9) for m in group)
            if (hits >= params.n_min).any():
                out.append(cand[hits >= params.n_min])
    return out


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["comb", "blob"]), st.sampled_from([4, 3, 2]),
       st.sampled_from([3, 4]), st.sampled_from([4, 6, 3, 5, 2, 1]), st.sampled_from([True, False]),
       st.sampled_from(["both", "strips-all-offsets", "rect-annuli-sampled"]),
       st.sampled_from([2, 8]))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_same_level_route_matches_the_per_region_reference(seed, kind, n, n_min, d, multi,
                                                           family, stride):
    """The batched same-level route against each region done alone.  The
    deep split is kept out (deep_children 99), so the relation's merge sets
    are the same-level ones, in order."""
    K = rasterize(_random_fill(seed, kind, n + 1), Level(n, 2))
    assume(not K.is_empty)
    params = RelationParams(n_min=n_min, delta=d * K.level.cell_size, multi_level=multi,
                            annulus_family=family, stride=stride, deep_levels=1,
                            deep_children=99)
    got = schoenflies_relation(K, params).merge_sets
    want = reference_same_level(K, params, params.delta)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("gen,n", [("cantor_comb", 4), ("topologist_sine", 6),
                                   ("spiral_disk", 4)])
def test_translation_by_multiples_of_the_stride_keeps_the_partition(gen, n):
    """The annulus centres repeat with period `stride` (8) and strips sit at
    every offset, so moving K by 8 cells across and 16 up moves each class
    alike.  One translation covers both multiples and keeps the test cheap."""
    spec = make_spec(GeneratorParams(gen, t_max=6.0))
    lvl = Level(n, spec.base)
    D = decompose(spec, lvl)
    moved = decompose(_translated(spec, n, 8, 16), lvl)
    assert len(moved.classes) == len(D.classes)
    assert all(np.array_equal(a.cells, b.cells - [8, 16])
               for a, b in zip(D.classes, moved.classes))


def test_jobs_do_not_change_the_relation():
    spec = make_spec(GeneratorParams("topologist_sine"))
    lvl = Level(4, 2)
    a = decompose(spec, lvl, jobs=1)
    b = decompose(spec, lvl, jobs=8)
    assert a == b


# ---------------------------------------------------------------------------
# refinement order

def comb_pair():
    spec = make_spec(GeneratorParams("cantor_comb"))
    lvl = Level(2, 3)
    K = rasterize(spec, lvl)
    fine = close_equivalence(K, all_singleton_seed(K))
    merged = decompose(spec, lvl)
    return K, fine, merged


def test_refines_partial_order():
    K, fine, merged = comb_pair()
    assert refines(fine, fine)
    assert refines(merged, merged)
    assert refines(fine, merged)
    assert not refines(merged, fine) or len(merged.classes) == len(fine.classes)
    # antisymmetry: mutual refinement happens only at equality
    if refines(merged, fine):
        assert classes_as_sets(merged) == classes_as_sets(fine)


def test_refines_transitive_chain():
    K = grid_from_art("######", level=LVL)
    d0 = close_equivalence(K, all_singleton_seed(K))
    d1 = close_equivalence(K, RelationSeed(LVL, (np.array([[0, 0], [1, 0]]),)))
    d2 = close_equivalence(K, RelationSeed(LVL, (
        np.array([[0, 0], [1, 0]]), np.array([[2, 0], [3, 0]]))))
    assert refines(d0, d1) and refines(d1, d2)
    assert refines(d0, d2)


def test_refines_rejects_mismatched_rasters():
    K1 = grid_from_art("##", level=LVL)
    K2 = grid_from_art("###", level=LVL)
    d1 = close_equivalence(K1, all_singleton_seed(K1))
    d2 = close_equivalence(K2, all_singleton_seed(K2))
    with pytest.raises(GridError):
        refines(d1, d2)


def test_refines_with_tolerance():
    """Exact containment fails across a one-cell offset, tolerance absorbs it."""
    K = grid_from_art("########", level=LVL)
    left = close_equivalence(K, RelationSeed(LVL, (
        np.array([[0, 0], [1, 0], [2, 0], [3, 0]]),
        np.array([[4, 0], [5, 0], [6, 0], [7, 0]]))))
    shifted = close_equivalence(K, RelationSeed(LVL, (
        np.array([[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]]),
        np.array([[5, 0], [6, 0], [7, 0]]))))
    assert not refines(left, shifted)
    assert refines(left, shifted, tol=1.5 * S)
    assert refines(shifted, left, tol=1.5 * S)


def test_common_refinement():
    K = grid_from_art("####", level=LVL)
    ab = close_equivalence(K, RelationSeed(LVL, (
        np.array([[0, 0], [1, 0]]), np.array([[2, 0], [3, 0]]))))
    bc = close_equivalence(K, RelationSeed(LVL, (
        np.array([[1, 0], [2, 0]]),)))
    cr = common_refinement(ab, bc)
    assert refines(cr, ab) and refines(cr, bc)
    assert classes_as_sets(cr) == {
        frozenset({(0, 0)}), frozenset({(1, 0)}),
        frozenset({(2, 0)}), frozenset({(3, 0)}),
    }
    again = common_refinement(ab, ab)
    assert classes_as_sets(again) == classes_as_sets(ab)


@given(merge_cells, st.data())
def test_refines_and_common_refinement_match_per_cell_lookup(cells, data):
    cells = sort_cells(np.array(cells, dtype=np.int64))
    K = GridCompactum.from_cells(LVL, cells)

    def draw_decomposition():
        picks = data.draw(st.lists(st.lists(st.integers(0, len(cells) - 1),
                                            min_size=1, max_size=4), max_size=8))
        return close_equivalence(K, RelationSeed(LVL, tuple(cells[p] for p in picks)))

    D1, D2 = draw_decomposition(), draw_decomposition()
    pairs = {(D1.class_of(i, j), D2.class_of(i, j)) for i, j in cells.tolist()}
    assert refines(D1, D2) == (len(pairs) == len(D1.classes))
    assert len(common_refinement(D1, D2).classes) == len(pairs)
    tol = data.draw(st.sampled_from([0.5 * S, 1.5 * S, 3.0 * S]))
    want = True
    for c in D1.classes:
        hosts = sorted({D2.class_of(i, j) for i, j in c.cells.tolist()})
        if len(hosts) > 1:
            want &= any(all(min(np.hypot(*(a - b)) for b in D2.classes[h].cells) * S
                            <= tol + 1e-9 for a in c.cells) for h in hosts)
    assert refines(D1, D2, tol=tol) == want


# ---------------------------------------------------------------------------
# quotient graphs

def test_quotient_graph_edges_and_validation():
    K = grid_from_art(
        """
        ##.
        .##
        """,
        level=LVL,
    )
    seed = RelationSeed(LVL, (np.array([[0, 1], [1, 1]]),
                              np.array([[1, 0], [2, 0]])))
    D = close_equivalence(K, seed)
    G = quotient_graph(K, D)
    assert G.nodes.tolist() == [0, 1]
    assert G.edges.tolist() == [[0, 1]]  # the two dominoes share a cell edge
    assert (G.members.tolist(), G.cbounds.tolist()) == ([0, 1], [0, 2])  # one component
    other = grid_from_art("###", level=LVL)
    with pytest.raises(GridError):
        quotient_graph(other, D)


@pytest.mark.parametrize("params, n", [(GeneratorParams("random_blobs", seed=7), 5),
                                       (GeneratorParams("cantor_dust"), 3)])
def test_quotient_graph_is_columns(params, n):
    """The quotient holds int64 and float64 arrays: members and cbounds
    partition the nodes 0..n-1 into components ordered by smallest node, and
    edges is an (E, 2) array of pairs a < b in ascending order (none for the
    dust)."""
    spec = make_spec(params)
    K = rasterize(spec, Level(n, spec.base))
    D = decompose(spec, K.level)
    G = quotient_graph(K, D)
    for col in (G.nodes, G.sizes, G.edges, G.members, G.cbounds):
        assert col.dtype == np.int64
    assert G.diameters.dtype == G.component_diameters.dtype == np.float64
    nodes = np.arange(D.class_count)
    assert np.array_equal(G.nodes, nodes) and np.array_equal(np.sort(G.members), nodes)
    assert G.cbounds[0] == 0 and G.cbounds[-1] == len(nodes) and (np.diff(G.cbounds) > 0).all()
    firsts = G.members[G.cbounds[:-1]]
    assert (np.diff(firsts) > 0).all()
    assert np.array_equal(firsts, np.minimum.reduceat(G.members, G.cbounds[:-1]))
    assert len(G.component_diameters) == len(firsts)
    assert G.edges.ndim == 2 and G.edges.shape[1] == 2 and (G.edges[:, 0] < G.edges[:, 1]).all()
    keys = G.edges[:, 0] * len(nodes) + G.edges[:, 1]
    assert (np.diff(keys) > 0).all()
    comp = np.repeat(np.arange(len(firsts)), np.diff(G.cbounds))[np.argsort(G.members)]
    assert np.array_equal(comp[G.edges[:, 0]], comp[G.edges[:, 1]])
    assert len(G.edges) == (483 if params.name == "random_blobs" else 0)


def test_partition_check_compares_the_occupied_cells():
    """Two rasters of one level, frame and cell count but different cells:
    a decomposition of one does not partition the other."""
    from pcx.cli import render_svg
    K1 = GridCompactum.from_cells(LVL, np.array([[0, 0], [1, 1], [2, 0]]))
    K2 = GridCompactum.from_cells(LVL, np.array([[0, 1], [1, 0], [2, 1]]))
    D2 = close_equivalence(K2, all_singleton_seed(K2))
    assert (K1.origin, K1.mask.shape, K1.count) == (K2.origin, K2.mask.shape, K2.count)
    for check in (quotient_graph, monotone_check, render_svg):
        check(K2, D2)
        with pytest.raises(GridError, match="does not partition"):
            check(K1, D2)


def test_quotient_of_a_ring_is_a_cycle():
    K = grid_from_art(
        """
        ####
        #..#
        #..#
        ####
        """,
        level=LVL,
    )
    D = close_equivalence(K, all_singleton_seed(K))
    G = quotient_graph(K, D)
    nodes, edges = contract_degree_two(G.nodes, G.edges)
    assert not is_simple_path(nodes, edges)
    assert len(edges) >= len(nodes)  # still carries a cycle


def test_contract_degree_two_cases():
    # chain collapses
    assert contract_degree_two([1, 2, 3], [(1, 2), (2, 3)]) == ((1, 3), ((1, 3),))
    # chordless square is pinned
    n, e = contract_degree_two(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert len(n) == 4 and len(e) == 4
    # filled triangle strip zips down to an edge
    n, e = contract_degree_two(
        range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert is_simple_path(n, e)
    # branch vertices survive
    n, e = contract_degree_two(range(4), [(0, 1), (0, 2), (0, 3)])
    assert len(n) == 4
    # an (E, 2) array reads as its pairs
    assert contract_degree_two(np.arange(3), np.array([[0, 1], [1, 2]])) == ((0, 2), ((0, 2),))


def test_an_edge_off_the_nodes_is_refused():
    """An edge with an end that is not a node raises a GridError naming the
    edge, not a bare KeyError."""
    with pytest.raises(GridError, match=r"edge \(0, 1\) has an end that is not a node"):
        contract_degree_two([0], [(0, 1)])
    with pytest.raises(GridError, match=r"edge \(0, 2\) has an end that is not a node"):
        is_simple_path([0, 1], [(0, 2)])


@pytest.mark.parametrize("nodes,edges,expected", [
    ([], [], False),
    ([7], [], True),
    ([7], [(7, 7)], False),
    ([1, 2], [(1, 2)], True),
    ([5, 9, 12], [(9, 12), (5, 9)], True),  # ids need not be contiguous
    ([1, 2, 3], [(1, 2), (2, 3), (1, 3)], False),  # triangle
    ([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)], False),  # cycle
    ([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)], False),  # star, degree 3
    ([1, 2, 3, 4], [(1, 2), (3, 4)], False),  # too few edges
    # n - 1 edges and every degree <= 2: only connectivity rejects it
    ([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)], False),
], ids=["empty", "node", "node-loop", "edge", "sparse-ids", "triangle", "cycle",
        "star", "two-edges", "triangle-and-isolated"])
def test_is_simple_path_cases(nodes, edges, expected):
    assert is_simple_path(nodes, edges) is expected


# ---------------------------------------------------------------------------
# diagnostics

def test_monotone_check_passes_on_honest_decomposition():
    spec = make_spec(GeneratorParams("bars"))
    lvl = Level(4, 2)
    K = rasterize(spec, lvl)
    D = decompose(spec, lvl)
    rep = monotone_check(K, D)
    assert rep.ok and rep.all_connected
    assert rep.quotient_components == rep.compactum_components == 3


def test_monotone_check_flags_disconnected_class():
    K = grid_from_art("#.#", level=LVL)
    seed = RelationSeed(LVL, (np.array([[0, 0], [2, 0]]),))
    D = close_equivalence(K, seed)
    rep = monotone_check(K, D)
    assert not rep.all_connected
    assert rep.disconnected_ids == (0,)
    assert not rep.ok
    # the class skips its middle cell inside one piece of K
    K = grid_from_art("###", level=LVL)
    D = close_equivalence(K, seed)
    assert monotone_check(K, D).disconnected_ids == (0,)


@given(merge_cells, st.data())
def test_quotient_and_monotone_match_brute_force(cells, data):
    cells = sort_cells(np.array(cells, dtype=np.int64))
    K = GridCompactum.from_cells(LVL, cells)
    picks = data.draw(st.lists(st.lists(st.integers(0, len(cells) - 1),
                                        min_size=1, max_size=4), max_size=8))
    D = close_equivalence(K, RelationSeed(LVL, tuple(cells[p] for p in picks)))
    rep = monotone_check(K, D)
    assert rep.disconnected_ids == tuple(
        c.id for c in D.classes if len(bfs_components(c.cells, 8)) > 1)
    assert rep.compactum_components == len(bfs_components(cells, 8))
    # quotient components: unions of classes that 8-touch, i.e. K's pieces
    # glued by classes spanning them
    G = quotient_graph(K, D)
    m, cb = G.members.tolist(), G.cbounds.tolist()
    components = [m[i:j] for i, j in zip(cb, cb[1:])]
    assert rep.quotient_components == len(components)
    cls = {c: D.class_of(*c) for c in map(tuple, cells.tolist())}
    pairs = {(min(x, y), max(x, y)) for (i, j), x in cls.items()
             for di in (-1, 0, 1) for dj in (-1, 0, 1)
             if (y := cls.get((i + di, j + dj), x)) != x}
    assert G.edges.tolist() == [list(e) for e in sorted(pairs)]
    assert G.component_diameters.tolist() == [
        diameter(np.concatenate([D.classes[c].cells for c in comp]), S)
        for comp in components]
    glued = bfs_classes(cells, [np.array(sorted(p), dtype=np.int64) for p in
                                bfs_components(cells, 8)] + [c.cells for c in D.classes])
    assert {frozenset(x for c in comp for x in map(tuple, D.classes[c].cells.tolist()))
            for comp in components} == glued
    firsts = [min(comp) for comp in components]
    assert firsts == sorted(firsts)


def test_quotient_and_monotone_of_an_empty_raster():
    K = GridCompactum.from_cells(LVL, np.zeros((0, 2), dtype=np.int64))
    D = close_equivalence(K, all_singleton_seed(K))
    G = quotient_graph(K, D)
    assert G.nodes.tolist() == G.edges.tolist() == G.members.tolist() == \
        G.component_diameters.tolist() == []
    assert G.edges.shape == (0, 2) and G.cbounds.tolist() == [0]
    rep = monotone_check(K, D)
    assert rep.ok and rep.quotient_components == rep.compactum_components == 0


def test_peano_check_on_comb():
    spec = make_spec(GeneratorParams("cantor_comb"))
    graphs = []
    for n in (2, 3, 4):
        lvl = Level(n, 3)
        K = rasterize(spec, lvl)
        graphs.append(quotient_graph(K, decompose(spec, lvl)))
    rep = peano_check(graphs, C_grid=(0.5, 0.1))
    assert rep.levels == (2, 3, 4)
    assert len(rep.counts) == len(rep.thresholds) == 2
    assert all(len(row) == 3 for row in rep.counts)
    assert isinstance(rep.ok, bool)
    d = rep.to_dict()
    assert set(d) >= {"levels", "thresholds", "counts", "stable", "ok"}


def test_peano_check_refuses_mixed_bases():
    graphs = []
    for gen, n in (("cantor_comb", 3), ("bars", 4)):
        spec = make_spec(GeneratorParams(gen))
        K = rasterize(spec, Level(n, spec.base))
        graphs.append(quotient_graph(K, close_equivalence(K, all_singleton_seed(K))))
    with pytest.raises(GridError, match="one base"):
        peano_check(graphs, C_grid=(0.1,))
