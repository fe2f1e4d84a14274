#!/usr/bin/env python3
"""Decompose the spiral-plus-disk example and report its class landscape.

The interesting outcome: one giant class hugging the unit circle (the
accumulation set of the spiral arm), everything else near-singleton.
Optionally writes the class-colored SVG.
"""
import argparse
import time

import numpy as np

from pcx import GeneratorParams, Level, decompose, make_spec, rasterize
from pcx.cli import render_svg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=7)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--svg", metavar="FILE", default=None)
    args = ap.parse_args()

    spec = make_spec(GeneratorParams("spiral_disk"))
    level = Level(args.level, 2)
    s = level.cell_size
    t0 = time.monotonic()
    D = decompose(spec, level, jobs=args.jobs)
    dt = time.monotonic() - t0

    big = int(D.diameters.argmax())
    cells = D.class_cells(big)
    print(f"spiral_disk at level {args.level} "
          f"(cell {s:.6g}): {D.cell_count} cells, "
          f"{D.class_count} classes in {dt:.1f}s")
    print(f"  singletons: {(np.diff(D.bounds) == 1).sum()}")
    print(f"  largest class: size {len(cells)}, diameter {D.diameters[big]:.4f} "
          f"(2 - 4s = {2 - 4 * s:.4f})")
    rad = np.hypot(*((cells.astype(float) + 0.5) * s).T)
    print(f"  its radial spread: [{rad.min():.4f}, {rad.max():.4f}] "
          "(should hug r = 1)")

    if args.svg:
        K = rasterize(spec, level)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(K, D))
        print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
