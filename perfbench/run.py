"""pcx benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload wild-sets --seed 1 --seconds 20 --trace 0

Runs whole passes over the workload's steps until `--seconds` of pass time
have gone by, checks the outputs, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` times the
passes with tracing off and reports the end-to-end metrics; `--trace 1` runs
traced passes and reports the per-layer metrics, and writes the spans to
`perfbench/out/`.  Exits 2 when the checkout's own pcx cannot be imported.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3


def _parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("wild-sets", "tame-sets", "closure-compare"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None,
                    help="override the worker count of the workload's commands")
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit (used to time set-up)")
    return ap.parse_args(argv)


def _import_workloads():
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import pcx from this checkout: {exc}", file=sys.stderr)
        sys.exit(2)
    if not workloads.pcx_is_local():
        print("perfbench: the imported pcx is not this checkout's src/pcx", file=sys.stderr)
        sys.exit(2)
    return workloads


def _time_setup(args) -> list[float]:
    """Wall time of whole fresh processes that only set the workload up:
    interpreter start, importing pcx, building specs, inputs and rasters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def main(argv=None) -> int:
    args = _parse(argv)
    out = HERE / "out" / f"{args.workload}-{os.getpid()}"
    wl = _import_workloads()
    if args.setup_only:
        wl.build(args.workload, args.seed, out, jobs=args.jobs)
        shutil.rmtree(out, ignore_errors=True)
        return 0
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    setup = [] if args.trace else _time_setup(args)

    workload = wl.build(args.workload, args.seed, out, jobs=args.jobs)
    steps = workload.steps
    pass_times, slowest, per_layer, spans = [], [], [], []
    step_times = {st.name: [] for st in steps}
    failures: dict[str, str] = {}
    digests: list[list[str]] = []
    attempted = failed = 0
    try:
        spent = 0.0
        while not pass_times or spent < args.seconds:
            tracer = Tracer() if args.trace else None
            times = []
            for st in steps:
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        rc = st.run()
                    else:
                        tracer.job = st.name
                        st.traced(tracer)
                        rc = 0
                except Exception as exc:  # a crash in pcx is a failed operation
                    rc = f"{type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - t0)
                attempted += 1
                if rc != 0:
                    failed += 1
                    failures.setdefault(st.name, rc if isinstance(rc, str) else f"exit {rc}")
            for st, t in zip(steps, times):
                step_times[st.name].append(t)
            pass_times.append(sum(times))
            slowest.append(max(times))
            spent += pass_times[-1]
            digests.append([_digest(st.out) for st in steps])
            if tracer is not None:
                per_layer.append(layer_metrics(tracer.spans))
                spans += [dict(sp, **{"pass": len(per_layer) - 1}) for sp in tracer.spans]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = {}
        for k, st in enumerate(steps):
            if st.name in failures:
                continue
            if any(d[k] != digests[0][k] for d in digests):
                problems[st.name] = "output differs between passes"
                continue
            try:
                st.check()
            except Exception as exc:  # report every failed check, then go on
                problems[st.name] = f"{type(exc).__name__}: {exc}"
        if args.trace:
            tracer_out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            tracer_out.write_text(json.dumps(spans) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for name, msg in {**failures, **problems}.items():
        print(f"perfbench: {name}: {msg}", file=sys.stderr)
    info = {"passes": len(pass_times), "pass_s": pass_times,
            "step_median_s": {k: statistics.median(v) for k, v in step_times.items()}}
    if setup:
        info["setup_s"] = setup
    print(json.dumps(info))

    if args.trace:
        metrics = {name: {"value": statistics.median(m[name] for m in per_layer),
                          "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "slowest_job_s": {"value": statistics.median(slowest), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
