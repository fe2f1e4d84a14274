#!/usr/bin/env python3
"""Wall time, peak memory and labelling volume of `decompose`, per row.

    python scripts/decompose_rows.py [--rows sierpinski_carpet:5 cantor_comb:5 ...]

It first prints the line count of each module of `src/pcx` and their total,
as `wc -l src/pcx/*.py` gives them, the size metric the ROADMAP tracks.
Then each row (generator and level) runs twice, in fresh processes with the
default RelationParams:

* a timed run: the wall time of `decompose(spec, Level(n))`, the peak
  resident memory (`ru_maxrss`) of that process, imports included, and the
  seconds spent in the support queries (`_support`, as `schoenflies` and
  `decomposition` call it), summed over the calls;
* a counting run, with `scipy.ndimage.label` wrapped to sum the pixels and
  foreground pixels it is given, its calls and the seconds spent in it,
  the rows whose fine cells the support queries' exact stage keys, and
  under `tracemalloc` the largest peak of any block labelling
  (`schoenflies._BlockRegions.label`) and of any support query above the
  call's start.

The pixels are reported as multiples of the deep raster, the raster
`deep_levels` (3) finer that the deep split refines to.  The default rows
are the decompose rows of the ROADMAP baseline; each run of one takes 3 to
7 s on a 2-core machine.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFAULT_ROWS = ("sierpinski_carpet:5", "cantor_comb:5", "spiral_disk:7")


def _child(name: str, level: int, count: bool) -> dict:
    """One run in this process: the timed decompose, or the counted one."""
    import numpy as np
    from scipy import ndimage

    from pcx import GeneratorParams, Level, RelationParams, decompose, make_spec, rasterize
    from pcx import decomposition, schoenflies
    tally = {"calls": 0, "px": 0, "fg": 0, "label_s": 0.0, "label_mib": 0.0, "support_mib": 0.0,
             "support_s": 0.0, "support_rows": 0}
    support = schoenflies._support
    if count:
        def traced(fn, key):
            def run(*args, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = fn(*args, **kwargs)
                peak = (tracemalloc.get_traced_memory()[1] - start) / 2 ** 20
                tally[key] = max(tally[key], peak)
                return out
            return run

        schoenflies._BlockRegions.label = traced(schoenflies._BlockRegions.label, "label_mib")
        support = traced(support, "support_mib")
        tracemalloc.start()
        label = ndimage.label

        def counted(input, *args, **kwargs):
            t0 = time.perf_counter()
            out = label(input, *args, **kwargs)
            tally["label_s"] += time.perf_counter() - t0
            tally["calls"] += 1
            tally["px"] += int(input.size)
            tally["fg"] += int((input != 0).sum())
            return out

        ndimage.label = counted

    def timed(cells, f, bunit, bcell, owner, unit, reach, k, pixels=None):
        def rows(qs):  # at f = 1 (pixels None) each row is its one fine cell
            tally["support_rows"] += len(qs)
            return (np.arange(len(qs)), np.zeros(len(qs), dtype=np.int64)) \
                if pixels is None else pixels(qs)
        t0 = time.perf_counter()
        out = support(cells, f, bunit, bcell, owner, unit, reach, k, rows if count else pixels)
        tally["support_s"] += time.perf_counter() - t0
        return out

    schoenflies._support = decomposition._support = timed
    spec = make_spec(GeneratorParams(name))
    t0 = time.perf_counter()
    D = decompose(spec, Level(level, spec.base))
    row = {"wall_s": time.perf_counter() - t0, "classes": D.class_count,
           "peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "support_s": tally["support_s"]}
    if count:
        tracemalloc.stop()
        deep = rasterize(spec, Level(level + RelationParams().deep_levels, spec.base))
        row.update(tally, deep_px=int(deep.mask.size), deep_fg=deep.count)
    return row


def _line_counts() -> str:
    """Newlines per `src/pcx` module, in name order, then their total."""
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted((SRC / "pcx").glob("*.py"))}
    return ("src/pcx lines: " + ", ".join(f"{k} {v}" for k, v in counts.items())
            + f"; total {sum(counts.values())}")


def _run(name: str, level: int, count: bool) -> dict:
    """One child run, with this checkout's src first on its PYTHONPATH.  A
    child that fails prints its stderr and ends this script with exit 2."""
    argv = [sys.executable, __file__, "--child", name, str(level)]
    argv += ["--count"] if count else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    p = subprocess.run(argv, capture_output=True, text=True, env=env)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(2)
    return json.loads(p.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", nargs="+", default=list(DEFAULT_ROWS), metavar="GEN:LEVEL")
    ap.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(_child(args.child[0], int(args.child[1]), args.count)))
        return 0
    print(_line_counts())
    print(f"{'row':<22} {'wall s':>7} {'peak MiB':>9} {'classes':>8} {'label calls':>12} "
          f"{'label s':>8} {'deep Mpx':>9} {'px x deep':>10} {'fg x deep':>10} "
          f"{'blocks MiB':>11} {'support MiB':>12} {'support s':>10} {'keyed rows':>11}")
    for row in args.rows:
        name, level = row.rsplit(":", 1)
        timed, counted = _run(name, int(level), False), _run(name, int(level), True)
        print(f"{name + ' L' + level:<22} {timed['wall_s']:7.2f} {timed['peak_mib']:9.1f} "
              f"{timed['classes']:8d} {counted['calls']:12d} {counted['label_s']:8.2f} "
              f"{counted['deep_px'] / 1e6:9.2f} {counted['px'] / counted['deep_px']:10.2f} "
              f"{counted['fg'] / max(counted['deep_fg'], 1):10.2f} "
              f"{counted['label_mib']:11.1f} {counted['support_mib']:12.1f} "
              f"{timed['support_s']:10.3f} {counted['support_rows']:11d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
