"""Built-in planar compacta, each rasterized by an exact fill.

Each generator and the PBM loader return a SetSpec whose `fill` is the only
raster of the set.  A cell is marked when it overlaps an area of the set in
positive measure; measure-zero features such as curves and segments mark
the half-open cells they meet, with the scene-box top/right edge folded into
the last row/column.  No built-in spec carries a box oracle.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (Box, GridError, Level, SetSpec, _cell_span, _mask_of,
                   window_cell_range)


class ParseError(Exception):
    """Unreadable input file (PBM or JSON payloads)."""


# name: (grid base, spec maker); ternary-digit sets force base 3, the rest base 2
_GENERATORS = {
    "cantor_comb": (3, lambda p: cantor_comb()),
    "topologist_sine": (2, lambda p: topologist_sine()),
    "spiral_disk": (2, lambda p: spiral_disk(t_max=p.t_max)),
    "sierpinski_carpet": (3, lambda p: sierpinski_carpet()),
    "cantor_dust": (3, lambda p: cantor_dust(dim=p.dust_dim)),
    "unit_square": (2, lambda p: unit_square()),
    "bars": (2, lambda p: bars()),
    "random_blobs": (2, lambda p: random_compactum(p.seed)),
}
GENERATOR_NAMES = tuple(_GENERATORS)
GENERATOR_BASES = {name: base for name, (base, _) in _GENERATORS.items()}


@dataclass(frozen=True)
class GeneratorParams:
    name: str
    seed: int = 0
    dust_dim: int = 2
    t_max: float = 40.0

    def __post_init__(self) -> None:
        if self.name not in GENERATOR_NAMES:
            raise GridError(f"unknown generator {self.name!r}")
        if self.dust_dim not in (1, 2):
            raise GridError("dust_dim must be 1 or 2")
        if not 1.0 < self.t_max <= 100.0:  # about 77 k spiral samples per unit of t
            raise GridError(f"t_max must lie in (1, 100], got {self.t_max}")
        if not 0 <= self.seed < 2 ** 64:
            raise GridError(f"seed must lie in [0, 2**64), got {self.seed}")


def make_spec(params: GeneratorParams) -> SetSpec:
    return _GENERATORS[params.name][1](params)


def generator_base(name: str) -> int:
    try:
        return GENERATOR_BASES[name]
    except KeyError:
        raise GridError(f"unknown generator {name!r}") from None


def _require_base(level: Level, base: int, name: str) -> None:
    if level.base != base:
        raise GridError(f"{name} is defined on base-{base} grids, got base {level.base}")


# ---------------------------------------------------------------------------
# rectangles

def _rect_fill_cells(rects: list[tuple[float, float, float, float]],
                     level: Level) -> tuple[tuple[int, int], np.ndarray]:
    s = level.cell_size
    cols: list[tuple[int, int, int, int]] = []
    for (x0, y0, x1, y1) in rects:
        (i0, i1), (j0, j1) = _cell_span(x0, x1, s), _cell_span(y0, y1, s)
        if i1 >= i0 and j1 >= j0:
            cols.append((i0, j0, i1, j1))
    if not cols:
        return (0, 0), np.zeros((0, 0), dtype=bool)
    gi0 = min(c[0] for c in cols)
    gj0 = min(c[1] for c in cols)
    gi1 = max(c[2] for c in cols)
    gj1 = max(c[3] for c in cols)
    mask = np.zeros((gj1 - gj0 + 1, gi1 - gi0 + 1), dtype=bool)
    for (i0, j0, i1, j1) in cols:
        mask[j0 - gj0:j1 - gj0 + 1, i0 - gi0:i1 - gi0 + 1] = True
    return (gi0, gj0), mask


def unit_square() -> SetSpec:
    rects = [(0.0, 0.0, 1.0, 1.0)]
    return SetSpec("unit_square", Box(0, 0, 1, 1),
                   fill=lambda level: _rect_fill_cells(rects, level))


def bars() -> SetSpec:
    """Three disjoint squares of side 1/4 in a row, gaps 1/8."""
    rects = [(0.0, 0.375, 0.25, 0.625),
             (0.375, 0.375, 0.625, 0.625),
             (0.75, 0.375, 1.0, 0.625)]
    return SetSpec("bars", Box(0, 0.375, 1, 0.625),
                   fill=lambda level: _rect_fill_cells(rects, level))


def random_compactum(seed: int) -> SetSpec:
    """Deterministic union of six axis-aligned lattice bars with enforced gaps.

    Rectangles with sides of 2..8 steps sit on a 1/32 lattice with pairwise
    separation of at least 3 lattice steps, so components never kiss
    diagonally and stay apart under any rasterization at least as fine as the
    lattice.  A bar that finds no place in 200 draws is dropped.
    """
    rng = np.random.default_rng(np.uint64(seed))
    boxes: list[tuple[int, int, int, int]] = []
    for _ in range(6):
        for _ in range(200):
            w, h = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            x, y = int(rng.integers(0, 33 - w)), int(rng.integers(0, 33 - h))
            if all(max(qx0 - (x + w), x - qx1, qy0 - (y + h), y - qy1) >= 3
                   for (qx0, qy0, qx1, qy1) in boxes):
                boxes.append((x, y, x + w, y + h))
                break
    rects = [tuple(v / 32 for v in box) for box in boxes]

    # no rectangle placed: the fill yields the empty raster
    return SetSpec(f"random_blobs[{seed}]", Box(0, 0, 1, 1),
                   fill=lambda level: _rect_fill_cells(rects, level))


# ---------------------------------------------------------------------------
# ternary constructions

@lru_cache(maxsize=32)
def _cantor_indices(n: int) -> np.ndarray:
    """Left cell indices of the 2**n surviving ternary intervals at depth n."""
    idx = np.array([0], dtype=np.int64)
    for _ in range(n):
        idx = np.concatenate([3 * idx, 3 * idx + 2])
    idx = np.sort(idx)
    idx.setflags(write=False)
    return idx


def cantor_comb() -> SetSpec:
    """Vertical teeth over the middle-thirds set plus the joining top bar."""
    def fill(level: Level) -> tuple[tuple[int, int], np.ndarray]:
        _require_base(level, 3, "cantor_comb")
        side = 3 ** level.n
        mask = np.zeros((side, side), dtype=bool)
        mask[:, _cantor_indices(level.n)] = True
        mask[side - 1, :] = True  # segment at y = 1, folded into the top row
        return (0, 0), mask

    return SetSpec("cantor_comb", Box(0, 0, 1, 1), fill=fill, base=3)


def cantor_dust(dim: int = 2) -> SetSpec:
    """Middle-thirds dust: C x C (dim=2) or C x {0} (dim=1)."""
    if dim not in (1, 2):
        raise GridError("dust dim must be 1 or 2")

    def fill(level: Level) -> tuple[tuple[int, int], np.ndarray]:
        _require_base(level, 3, "cantor_dust")
        side = 3 ** level.n
        idx = _cantor_indices(level.n)
        if dim == 1:
            mask = np.zeros((1, side), dtype=bool)
            mask[0, idx] = True
        else:
            mask = np.zeros((side, side), dtype=bool)
            mask[np.ix_(idx, idx)] = True
        return (0, 0), mask

    return SetSpec(f"cantor_dust{dim}d", Box(0, 0, 1, 1), fill=fill, base=3)


def sierpinski_carpet() -> SetSpec:
    def fill(level: Level) -> tuple[tuple[int, int], np.ndarray]:
        _require_base(level, 3, "sierpinski_carpet")
        mask = np.ones((1, 1), dtype=bool)
        for k in range(level.n):  # level k + 1: level k tiled 3 x 3, the centre blank
            mask = np.tile(mask, (3, 3))
            mask[3 ** k:2 * 3 ** k, 3 ** k:2 * 3 ** k] = False
        return (0, 0), mask

    return SetSpec("sierpinski_carpet", Box(0, 0, 1, 1), fill=fill, base=3)


# ---------------------------------------------------------------------------
# topologist's sine curve

def _sine_range(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact min/max of sin(1/x) over [a, b] elementwise, 0 < a <= b."""
    ulo, uhi = 1.0 / b, 1.0 / a
    lo = np.minimum(np.sin(ulo), np.sin(uhi))
    hi = np.maximum(np.sin(ulo), np.sin(uhi))
    two_pi = 2.0 * np.pi
    k_max = np.floor((uhi - np.pi / 2) / two_pi)
    hi = np.where(np.pi / 2 + two_pi * k_max >= ulo, 1.0, hi)
    k_min = np.floor((uhi + np.pi / 2) / two_pi)
    lo = np.where(-np.pi / 2 + two_pi * k_min >= ulo, -1.0, lo)
    return lo, hi


def topologist_sine() -> SetSpec:
    """Closure of {(x, sin(1/x)) : 0 < x <= 1}: the curve plus {0} x [-1, 1].

    The raster clamps the curve branch at x >= cell_size/4; the limit bar is
    generated explicitly as column 0.
    """
    def fill(level: Level) -> tuple[tuple[int, int], np.ndarray]:
        _require_base(level, 2, "topologist_sine")
        s = level.cell_size
        cols = 2 ** level.n
        rows = 2 * cols
        mask = np.zeros((rows, cols), dtype=bool)
        mask[:, 0] = True  # limit bar at x = 0
        i = np.arange(cols)
        a = np.maximum(i * s, s / 4.0)
        b = np.minimum((i + 1) * s, 1.0)
        lo, hi = _sine_range(a, b)
        jlo = np.clip(np.floor((lo + 1.0) / s).astype(np.int64), 0, rows - 1)
        jhi = np.clip(np.floor((hi + 1.0) / s).astype(np.int64), 0, rows - 1)
        for col in range(cols):
            mask[jlo[col]:jhi[col] + 1, col] = True
        return (0, -rows // 2), mask

    return SetSpec("topologist_sine", Box(0, -1, 1, 1), fill=fill)


# ---------------------------------------------------------------------------
# spiral accumulating on the unit circle, glued to the closed unit disk

_SPIRAL_STEP = 2.0 ** -12 / 3.0  # canonical arc step shared by all levels
_SPIRAL_LEVEL = 12  # above 11, the deepest level the cell budget admits on the spiral box


def _spiral_points(t_max: float):
    """The spiral samples in arc order: one (m, 2) chunk per unit of t, then the end point."""
    t = 0.0
    while t < t_max:
        t2 = min(t + 1.0, t_max)
        speed = math.sqrt(math.exp(-2 * t) + 4 * math.pi ** 2 * (1 + math.exp(-t)) ** 2)
        ts = np.arange(t, t2, _SPIRAL_STEP / speed)
        r = 1.0 + np.exp(-ts)
        th = 2.0 * np.pi * ts
        yield np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        t = t2
    r_end = 1.0 + math.exp(-t_max)
    th_end = 2.0 * math.pi * t_max
    yield np.array([[r_end * math.cos(th_end), r_end * math.sin(th_end)]])


@lru_cache(maxsize=4)
def _spiral_cells(t_max: float) -> np.ndarray:
    """Level-12 cells (i, j) of the spiral samples in arc order, one per run of
    samples in one cell: read-only int32 (n, 2), 1.6 / 9.4 / 23 MiB at t_max
    6 / 40 / 100.  x * 2**12 is exact in binary floating point, so the cells
    at level n <= 12 are floor(x * 2**12) >> (12 - n) == floor(x * 2**n)."""
    chunks, last = [], np.iinfo(np.int64).min  # the key of no cell
    for pts in _spiral_points(t_max):
        cells = np.floor(pts * 2.0 ** _SPIRAL_LEVEL).astype(np.int32)
        key = cells.view(np.int64)[:, 0]  # both coordinates of a cell in one word
        chunks.append(cells[np.diff(key, prepend=last) != 0])
        last = key[-1]
    out = np.concatenate(chunks)
    out.setflags(write=False)
    return out


def spiral_disk(t_max: float = 40.0) -> SetSpec:
    """Closed unit disk union the spiral (1 + e^-t) e^(2 pi i t), t in [0, t_max].

    The truncation tail sits within e^-t_max of the unit circle, far below one
    cell at any permitted level.
    """
    bbox = Box(-17 / 8, -17 / 8, 17 / 8, 17 / 8)

    def fill(level: Level) -> tuple[tuple[int, int], np.ndarray]:
        _require_base(level, 2, "spiral_disk")
        s = level.cell_size
        i0, j0, i1, j1 = window_cell_range(bbox, level)
        mask = np.zeros((j1 - j0 + 1, i1 - i0 + 1), dtype=bool)
        # disk: positive-area overlap <=> nearest point of the cell box < 1,
        # written into its di x di block of the mask in bands of rows
        di = np.arange(int(np.floor(-1.0 / s)) - 1, int(np.ceil(1.0 / s)) + 1)
        nearest2 = np.clip(0.0, di * s, (di + 1) * s) ** 2  # same on both axes
        block = mask[di[0] - j0:di[-1] - j0 + 1, di[0] - i0:di[-1] - i0 + 1]
        for r in range(0, len(di), 128):
            block[r:r + 128] = nearest2[None, :] + nearest2[r:r + 128, None] < 1.0
        # spiral: the cached level-12 cells shifted to this level, so
        # coarsening one level equals rasterizing at the parent level;
        # repeated cells just set the same entry again
        k, cells, width = _SPIRAL_LEVEL - level.n, _spiral_cells(t_max), mask.shape[1]
        flat = (cells[:, 1] >> k) * width  # int32: the cell budget keeps it below 10**8
        flat += cells[:, 0] >> k
        flat -= j0 * width + i0
        mask.ravel()[flat] = True
        return (i0, j0), mask

    return SetSpec("spiral_disk", bbox, fill=fill)


# ---------------------------------------------------------------------------
# portable bitmaps

def _pbm_tokens(data: bytes):
    pos = 0
    while pos < len(data):
        if data[pos:pos + 1].isspace():
            pos += 1
            continue
        if data[pos:pos + 1] == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
            continue
        m = re.match(rb"[^\s#]+", data[pos:])
        yield m.group(0), pos + m.end()
        pos += m.end()


def parse_pbm(data: bytes) -> np.ndarray:
    """Decode P1/P4 into a bool array [row, col], row 0 at the image top."""
    toks = _pbm_tokens(data)
    try:
        magic, _ = next(toks)
        width, _ = next(toks)
        height, end = next(toks)
        w, h = int(width), int(height)
    except (StopIteration, ValueError):
        raise ParseError("truncated or malformed PBM header") from None
    if magic not in (b"P1", b"P4") or w <= 0 or h <= 0:
        raise ParseError(f"unsupported PBM: magic={magic!r} {width!r}x{height!r}")
    if magic == b"P1":
        bits = []
        for tok, _ in toks:
            bits.extend(tok)  # digits may be run together
        vals = [b for b in bits if b in (0x30, 0x31)]
        if len(vals) < w * h:
            raise ParseError("P1 body shorter than width*height")
        arr = np.array(vals[:w * h], dtype=np.uint8) == 0x31
        return arr.reshape(h, w)
    row_bytes = (w + 7) // 8
    body = data[end + 1:end + 1 + row_bytes * h]
    if len(body) < row_bytes * h:
        raise ParseError("P4 body shorter than expected")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(h, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :w]
    return bits.astype(bool)


def emit_pbm(mask: np.ndarray, fmt: str = "P1") -> bytes:
    """Encode a bool array [row, col] (row 0 = top) as P1 or P4."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    if fmt == "P1":
        body = "\n".join(" ".join("1" if v else "0" for v in row) for row in mask)
        return f"P1\n{w} {h}\n{body}\n".encode()
    if fmt == "P4":
        packed = np.packbits(mask.astype(np.uint8), axis=1)
        return b"P4\n" + f"{w} {h}\n".encode() + packed.tobytes()
    raise GridError(f"unknown PBM format {fmt!r}")


def from_pbm(path: str) -> SetSpec:
    """Spec whose set is the union of the black pixel boxes of a PBM file.

    The native level is the smallest n with 2**n >= max(width, height); the
    scene box spans [0, W*s] x [0, H*s] with pixel row 0 at the top.
    """
    try:
        with open(path, "rb") as fh:
            img = parse_pbm(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    h, w = img.shape
    n_native = max(int(math.ceil(math.log2(max(w, h, 1)))), 0)
    native = np.flipud(img)  # cell row j counts upward from the scene origin
    s_native = 2.0 ** -n_native
    bbox = Box(0.0, 0.0, w * s_native, h * s_native)

    def fill(level: Level) -> tuple[tuple[int, int], np.ndarray]:
        _require_base(level, 2, "pbm spec")
        if level.n >= n_native:
            f = 2 ** (level.n - n_native)
            return (0, 0), np.kron(native, np.ones((f, f), dtype=bool))
        f = 2 ** (n_native - level.n)
        js, is_ = np.nonzero(native)
        return _mask_of(np.stack([is_ // f, js // f], axis=1))

    name = os.path.splitext(os.path.basename(path))[0]
    return SetSpec(f"pbm:{name}", bbox, fill=fill)
