"""Output checks, computed without pcx.

Every check recomputes what it compares against from first principles (own
BFS, brute-force corner distances, ternary enumeration, scipy's csgraph) or
tests a property the method must have.  None compares against a stored copy
of an earlier output.  A failed check raises CheckError.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

NOT_LC = "not locally connected"
LC = "consistent with locally connected"
_NEIGHBOURS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _row_major(cell) -> tuple[int, int]:
    return (cell[1], cell[0])


def connected8(cells: set) -> bool:
    start = next(iter(cells))
    seen, todo = {start}, deque([start])
    while todo:
        i, j = todo.popleft()
        for di, dj in _NEIGHBOURS:
            c = (i + di, j + dj)
            if c in cells and c not in seen:
                seen.add(c)
                todo.append(c)
    return len(seen) == len(cells)


def corner_diameter(cells, s: float) -> float:
    """Largest distance between two corners of the cells' boxes.  Along a
    horizontal line the distance to a fixed point is convex, so only the
    leftmost and rightmost corner of each corner row can attain the maximum;
    all pairs of those are then compared."""
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for i, j in cells:
        for y in (j, j + 1):
            lo[y] = min(lo.get(y, i), i)
            hi[y] = max(hi.get(y, i + 1), i + 1)
    pts = np.array([(lo[y], y) for y in lo] + [(hi[y], y) for y in hi],
                    dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max()) * s


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def classes_of(doc: dict) -> list[set]:
    return [set(map(tuple, c["cells"])) for c in doc["classes"]]


def check_partition(doc: dict, raster: set, s: float) -> list[set]:
    """A decomposition document partitions the raster: classes are disjoint,
    cover it, are numbered by ascending row-major representative, are each
    8-connected and carry their corner diameters (s*sqrt(2) for one cell)."""
    classes = classes_of(doc)
    require(doc["class_count"] == len(classes), "class_count disagrees with classes")
    seen: set = set()
    prev = None
    for cid, (row, cells) in enumerate(zip(doc["classes"], classes)):
        require(row["id"] == cid, f"class {cid} carries id {row['id']}")
        require(len(cells) == len(row["cells"]) == row["size"] > 0,
                f"class {cid}: size or duplicate cells")
        require(not (cells & seen), f"class {cid} overlaps an earlier class")
        seen |= cells
        rep = min(cells, key=_row_major)
        require(tuple(row["representative"]) == rep,
                f"class {cid}: representative is not its first row-major cell")
        require(prev is None or _row_major(prev) < _row_major(rep),
                f"class {cid}: ids do not ascend with the representatives")
        prev = rep
        require(connected8(cells), f"class {cid} is not 8-connected")
        want = s * math.sqrt(2.0) if len(cells) == 1 else corner_diameter(cells, s)
        require(_close(row["diameter"], want),
                f"class {cid}: diameter {row['diameter']} != {want}")
    require(seen == raster, f"classes cover {len(seen)} cells, the raster has "
                            f"{len(raster)} ({len(seen ^ raster)} differ)")
    return classes


def check_all_singletons(classes: list[set]) -> None:
    big = [k for k, c in enumerate(classes) if len(c) != 1]
    require(not big, f"{len(big)} classes are not singletons, e.g. {big[:3]}")


def ternary_columns(n: int) -> list[int]:
    """Left cell columns of the 2**n middle-thirds intervals at depth n."""
    return sorted(sum(d * 3 ** (n - 1 - k) for k, d in enumerate(digits))
                  for digits in product((0, 2), repeat=n))


def check_comb_teeth(classes: list[set], n: int) -> None:
    """Each tooth (rows below the bar) is exactly one class of 3**n - 1 cells."""
    owner = {c: k for k, cls in enumerate(classes) for c in cls}
    for col in ternary_columns(n):
        tooth = {(col, j) for j in range(3 ** n - 1)}
        cid = owner.get((col, 0))
        require(cid is not None and classes[cid] == tooth,
                f"comb tooth at column {col} is not one class of {3 ** n - 1} cells")


def check_spiral(doc: dict, classes: list[set], s: float) -> None:
    """One class spans the limit circle; far cells stay alone."""
    big = [k for k, row in enumerate(doc["classes"]) if row["diameter"] >= 2 - 4 * s]
    require(len(big) == 1, f"{len(big)} classes have diameter >= 2 - 4s")
    cells = np.array(sorted(set().union(*classes)), dtype=np.float64)
    r = np.hypot(*((cells + 0.5) * s).T)
    near = {tuple(c) for c in cells[np.abs(r - 1.0) <= s].astype(np.int64).tolist()}
    require(len(near) > 0 and len(near & classes[big[0]]) >= 0.9 * len(near),
            "the circle class holds < 90% of the cells within one cell of the circle")
    x0, y0 = cells[:, 0] * s, cells[:, 1] * s
    dx = np.maximum(np.maximum(-x0 - s, x0), 0.0)
    dy = np.maximum(np.maximum(-y0 - s, y0), 0.0)
    far = {tuple(c) for c in cells[np.hypot(dx, dy) - 1.0 > 4 * s].astype(np.int64).tolist()}
    require(len(far) > 0, "no cell lies 4 cells outside the unit circle")
    for cls in classes:
        require(len(cls) == 1 or not (cls & far),
                "a cell 4 cells outside radius 1 is not a singleton")


def adjacent_pairs(classes: list[set]) -> set[tuple[int, int]]:
    owner = {c: k for k, cls in enumerate(classes) for c in cls}
    out = set()
    for (i, j), a in owner.items():
        for di, dj in _NEIGHBOURS:
            b = owner.get((i + di, j + dj))
            if b is not None and b != a:
                out.add((min(a, b), max(a, b)))
    return out


def check_quotient(doc: dict, dec: dict, classes: list[set]) -> None:
    """Nodes mirror the decomposition's classes, edges are exactly the pairs
    of classes holding 8-adjacent cells, components follow the edges."""
    rows = dec["classes"]
    nodes = doc["nodes"]
    require([v["id"] for v in nodes] == list(range(len(rows))), "quotient node ids")
    for v, row in zip(nodes, rows):
        require(v["size"] == row["size"] and v["representative"] == row["representative"]
                and _close(v["diameter"], row["diameter"]),
                f"quotient node {v['id']} disagrees with its class")
    edges = {tuple(e) for e in doc["edges"]}
    require(len(edges) == len(doc["edges"]), "duplicate quotient edges")
    want = adjacent_pairs(classes)
    require(edges == want, f"quotient edges: {len(edges ^ want)} differ from 8-adjacency")
    n = len(rows)
    if n:
        e = np.array(sorted(want), dtype=np.int64).reshape(-1, 2)
        g = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
        _, lab = connected_components(g, directed=False)
        comps: dict[int, list[int]] = {}
        for v, c in enumerate(lab):
            comps.setdefault(int(c), []).append(v)
        want_comps = sorted(comps.values())
    else:
        want_comps = []
    require(sorted(doc["components"]) == want_comps, "quotient components")


def check_scan(doc: dict, verdict: str) -> None:
    """Duality bound on every strip and level, and the expected verdict."""
    require(doc["verdict"] == verdict, f"verdict {doc['verdict']!r}, want {verdict!r}")
    require(len(doc["strips"]) > 0, "scan has no strips")
    for st in doc["strips"]:
        for n, a, b in zip(st["levels"], st["m_int"], st["m_diff"]):
            require(abs(a - b) <= 1, f"|m_int - m_diff| = |{a} - {b}| > 1 on "
                                     f"{st['axis']}:{st['c1']}:{st['c2']} at level {n}")


def check_comb_mid_strip(doc: dict) -> None:
    """Strip h:0.25:0.75 crosses the 2**n teeth and the 2**n + 1 gaps."""
    st = doc["strips"][0]
    require((st["axis"], st["c1"], st["c2"]) == ("h", 0.25, 0.75), "mid strip missing")
    for n, a, b in zip(st["levels"], st["m_int"], st["m_diff"]):
        require((a, b) == (2 ** n, 2 ** n + 1),
                f"comb mid strip at level {n}: m_int={a}, m_diff={b}")


def check_dust_components(doc: dict, n: int) -> None:
    s = 3.0 ** -n
    cols = ternary_columns(n)
    want = sorted((i, j) for i in cols for j in cols)
    comps = doc["components"]
    require(doc["count"] == len(comps) == 4 ** n, f"dust: {doc['count']} components")
    got = sorted((c["cell_bbox"][0], c["cell_bbox"][1]) for c in comps
                 if c["size"] == 1 and c["cell_bbox"][:2] == c["cell_bbox"][2:])
    require(got == want, "dust components are not the 4**n one-cell squares")
    require(all(_close(c["diameter"], s * math.sqrt(2.0)) for c in comps),
            "dust component diameters")


def check_carpet_holes(doc: dict) -> None:
    """At level g the bounded holes are 8**(k-1) squares of diameter
    3**-k * sqrt(2), for k = 1..g."""
    for row in doc["complement_diameters"]:
        g = row["level"]
        want = sorted((3.0 ** -k * math.sqrt(2.0) for k in range(1, g + 1)
                       for _ in range(8 ** (k - 1))), reverse=True)
        got = row["diameters"]
        require(len(got) == len(want) and all(map(_close, got, want)),
                f"carpet level {g}: {len(got)} holes, want {len(want)}")


def merge_components(merge_sets, cells) -> list[set]:
    """Classes the closure must produce: components of the graph joining the
    first cell of each merge set to its other cells."""
    index = {tuple(c): k for k, c in enumerate(cells)}
    src, dst = [], []
    for ms in merge_sets:
        a = index[tuple(ms[0])]
        for c in ms[1:]:
            src.append(a)
            dst.append(index[tuple(c)])
    n = len(index)
    g = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    _, lab = connected_components(g, directed=False)
    groups: dict[int, set] = {}
    for c, k in zip(map(tuple, cells), lab):
        groups.setdefault(int(k), set()).add(c)
    return list(groups.values())


def check_same_classes(got: list[set], want: list[set], what: str) -> None:
    require(sorted(map(sorted, got)) == sorted(map(sorted, want)),
            f"{what}: partition differs")


def check_compare(doc: dict, count_a: int, count_b: int,
                  a_refines_b: bool, b_refines_a: bool) -> None:
    """Refinement verdicts as the nesting of the merge sets dictates; the
    common refinement of nested partitions is the finer one, and a
    partition compared with itself is `equal`."""
    want = (a_refines_b, b_refines_a, a_refines_b and b_refines_a,
            count_a, count_b, max(count_a, count_b))
    got = (doc["a_refines_b"], doc["b_refines_a"], doc["equal"], doc["class_count_a"],
           doc["class_count_b"], doc["common_refinement_classes"])
    require(got == want, f"compare reports {got}, want {want}")


def check_svg(text: str, cell_count: int) -> None:
    rects = text.count("<rect ")
    require(rects == cell_count, f"svg has {rects} rects for {cell_count} cells")
