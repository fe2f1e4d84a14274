"""The benchmark's three workloads, built from a seed.

Each workload is a list of steps.  A step has two ways to run:

* `run()`: the timed route.  A CLI step calls `pcx.cli.run(argv)` in
  process, exactly as a user runs the command; a library step calls the
  public function a user would call, with tracing off.
* `traced(tracer)`: the same work through the public functions of each
  module, one span per call, every `SetSpec.fill` wrapped so that the fills
  pcx makes internally (deep and persistence rasters) are timed too.

Both routes write the same output file, which `check()` then verifies with
the independent checks of `checks.py`.

Importing this module puts the checkout's own `src/` first on `sys.path`,
so the benchmark always measures the pcx it sits next to.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pcx  # noqa: E402
from pcx import (GeneratorParams, Level, RelationParams, RelationSeed,  # noqa: E402
                 Strip, close_equivalence, common_refinement,
                 complement_components, complement_diameter_scan,
                 contract_degree_two, decompose, default_strip_family,
                 is_simple_path, label_components, make_spec, monotone_check,
                 quotient_graph, rasterize, refines, schoenflies_relation,
                 schoenflies_scan)
from pcx import cli  # noqa: E402

import checks  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

NULL = NullTracer()


def pcx_is_local() -> bool:
    """True when the imported pcx is the checkout's, not an installed copy."""
    return Path(pcx.__file__).resolve().parent == SRC / "pcx"


@dataclass
class Step:
    name: str
    out: Path
    run: Callable[[], int]               # timed route; returns an exit code
    traced: Callable[[Tracer], None]     # traced route
    check: Callable[[], None]            # raises checks.CheckError


@dataclass
class Workload:
    name: str
    steps: list[Step]


# ---------------------------------------------------------------------------
# shared helpers

def _json_text(payload: dict) -> str:
    # the CLI's own encoding, so both routes write identical bytes
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _emit(tr, path: Path, render: Callable[[], str]) -> None:
    """Encode and write one output, as the CLI's emitters do."""
    with tr.span("cli.emit") as attrs:
        data = render().encode("utf-8")
        path.write_bytes(data)
    attrs["bytes"] = len(data)


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _args(argv: list[str]):
    return cli.build_parser().parse_args(argv)


def _spec(a, tr=NULL):
    spec = make_spec(GeneratorParams(a.gen, seed=a.seed, dust_dim=a.dust_dim,
                                     t_max=a.t_max))
    return dataclasses.replace(spec, fill=tr.timed_fill(spec.fill))


def _relation_params(a) -> RelationParams:
    return RelationParams(n_min=a.nmin, delta=a.delta, annulus_family=a.family,
                          stride=a.stride, multi_level=a.multi_level,
                          deep_levels=a.deep_levels, deep_children=a.deep_children)


def _levels(text: str) -> tuple[int, ...]:
    lo, hi = text.split("..")
    return tuple(range(int(lo), int(hi) + 1))


def _strips(a, spec) -> list[Strip]:
    if a.strip == ["auto"]:
        return default_strip_family(spec, Level(min(_levels(a.levels)), spec.base))
    return [Strip(ax, float(c1), float(c2))
            for ax, c1, c2 in (t.split(":") for t in a.strip)]


def region_count(K, params: RelationParams) -> int:
    """Regions schoenflies_relation scans, by the family rules: two-cell
    strips at every offset across K's bounding box (plus one on each side),
    and square annuli centred on the cells sitting at a stride-block edge."""
    if K.is_empty:
        return 0
    i0, j0, i1, j1 = K.cell_bbox()
    n = 0
    if params.annulus_family in ("strips-all-offsets", "both"):
        n += (j1 - j0 + 2) + (i1 - i0 + 2)
    if params.annulus_family in ("rect-annuli-sampled", "both"):
        c = K.cells()
        edge = np.isin(c % params.stride, (0, params.stride - 1))
        n += int(np.count_nonzero(edge[:, 0] & edge[:, 1]))
    return n


# ---------------------------------------------------------------------------
# traced mirrors of the CLI subcommands

def _rasterize(tr, spec, level):
    with tr.span("grid.rasterize"):
        return rasterize(spec, level)


def _decompose(tr, spec, level, params, jobs):
    K = _rasterize(tr, spec, level)
    with tr.span("decomposition.relation", regions=region_count(K, params)) as attrs:
        seed = schoenflies_relation(K, params, jobs=jobs)
    attrs["merge_sets"] = len(seed.merge_sets)
    attrs["merge_cells"] = sum(len(m) for m in seed.merge_sets)
    return _close(tr, K, seed)


def _close(tr, K, seed):
    with tr.span("decomposition.close") as attrs:
        D = close_equivalence(K, seed)
    attrs["classes"] = len(D.classes)
    return D


def _traced_decompose(a, tr, out: Path) -> None:
    spec = _spec(a, tr)
    D = _decompose(tr, spec, Level(a.level, spec.base), _relation_params(a), a.jobs)
    _emit(tr, out, lambda: _json_text(cli.decomposition_to_payload(D)))


def _quotient_payload(tr, K, D, contract: bool) -> dict:
    with tr.span("decomposition.quotient"):
        G = quotient_graph(K, D)
        payload = {"schema": cli.SCHEMA, "command": "quotient", **G.to_dict()}
    with tr.span("decomposition.monotone"):
        payload["monotone"] = monotone_check(K, D).to_dict()
    if contract:
        with tr.span("decomposition.quotient"):
            nodes, edges = contract_degree_two(G.nodes, G.edges)
            payload["contracted"] = {"nodes": list(nodes),
                                     "edges": [list(e) for e in edges],
                                     "is_simple_path": is_simple_path(nodes, edges)}
    return payload


def _traced_quotient(a, tr, out: Path) -> None:
    spec = _spec(a, tr)
    level = Level(a.level, spec.base)
    K = _rasterize(tr, spec, level)  # the CLI rasterizes here and in decompose
    D = _decompose(tr, spec, level, _relation_params(a), a.jobs)
    payload = _quotient_payload(tr, K, D, a.contract)
    _emit(tr, out, lambda: _json_text(payload))


def _traced_scan(a, tr, out: Path) -> None:
    spec = _spec(a, tr)
    strips = _strips(a, spec)
    levels = _levels(a.levels)
    with tr.span("schoenflies.scan", pairs=len(strips) * len(levels)):
        report = schoenflies_scan(spec, strips, levels, jobs=a.jobs)
    _emit(tr, out, lambda: _json_text({"schema": cli.SCHEMA, "command": "scan",
                                       **report.to_dict()}))


def _traced_components(a, tr, out: Path) -> None:
    spec = _spec(a, tr)
    K = _rasterize(tr, spec, Level(a.level, spec.base))
    with tr.span("grid.label") as attrs:
        lab = label_components(K, connectivity=8)
    attrs["components"] = lab.count
    payload = {
        "schema": cli.SCHEMA, "command": "components", "level": K.level.n,
        "base": K.level.base, "cell_size": K.level.cell_size, "count": lab.count,
        "components": [{"id": m.id, "size": m.size, "cell_bbox": list(m.cell_bbox),
                        "diameter": m.diameter, "touches_frame": m.touches_frame}
                       for m in lab.metas],
    }
    _emit(tr, out, lambda: _json_text(payload))


def library_step(name: str, out: Path, fn: Callable[[Tracer], None],
                 check: Callable[[], None]) -> Step:
    """A library call: the same function on both routes, untraced when timed."""
    def run() -> int:
        fn(NULL)
        return 0
    return Step(name, out, run, fn, check)


_TRACED = {"decompose": _traced_decompose, "quotient": _traced_quotient,
           "scan": _traced_scan, "components": _traced_components}


def cli_step(argv: list[str], out: Path, check: Callable[[dict, object], None]) -> Step:
    """A CLI command: timed through pcx.cli.run, traced through its mirror."""
    full = argv + ["--out", str(out)]
    a = _args(full)
    return Step(" ".join(argv), out,
                run=lambda: cli.run(full),
                traced=lambda tr: _TRACED[a.command](a, tr, out),
                check=lambda: check(_load_json(out), a))


# ---------------------------------------------------------------------------
# checks that need the raster the program works on

def _raster_cells(a) -> set:
    spec = _spec(a)
    return set(map(tuple, rasterize(spec, Level(a.level, spec.base)).cells().tolist()))


def check_decomposition(extra: Callable | None = None) -> Callable:
    def check(doc: dict, a) -> None:
        s = Level(a.level, pcx.generator_base(a.gen)).cell_size
        classes = checks.check_partition(doc, _raster_cells(a), s)
        if extra is not None:
            extra(doc, classes, a)
    return check


def check_quotient(doc: dict, a) -> None:
    """Rebuild the decomposition the quotient was taken of, check it as a
    partition, then check the graph against the benchmark's adjacency."""
    spec = _spec(a)
    level = Level(a.level, spec.base)
    dec = cli.decomposition_to_payload(decompose(spec, level, _relation_params(a)))
    classes = checks.check_partition(dec, _raster_cells(a), level.cell_size)
    checks.check_quotient(doc, dec, classes)


def check_scan(verdict: str, mid_strip: bool = False) -> Callable:
    def check(doc: dict, a) -> None:
        checks.check_scan(doc, verdict)
        if mid_strip:
            checks.check_comb_mid_strip(doc)
    return check


def _spiral(doc, classes, a) -> None:
    checks.check_spiral(doc, classes, Level(a.level, 2).cell_size)


def _teeth(doc, classes, a) -> None:
    checks.check_comb_teeth(classes, a.level)


def _singletons(doc, classes, a) -> None:
    checks.check_all_singletons(classes)


# ---------------------------------------------------------------------------
# workloads

def _strip_arg(axis: str, rng: np.random.Generator) -> str:
    # The width is fixed, so every seed labels regions of the same size; 0.3
    # keeps two cells at level 2 (cell 1/9).
    c1 = rng.uniform(0.02, 0.65)
    return f"{axis}:{c1:.4f}:{c1 + 0.3:.4f}"


def wild_sets(seed: int, out: Path, tiny: bool = False, jobs: int = 2) -> Workload:
    """Non-locally-connected compacta: accumulation witnesses fire, the deep
    split, persistence and spiral fill all run.  The seed draws the two
    extra strips of the comb's fixed-strip scan."""
    rng = np.random.default_rng(seed)
    spiral, comb, comb_q, sine, comb_hi, sine_hi = \
        (3, 2, 2, 4, 4, 5) if tiny else (4, 3, 3, 6, 6, 9)
    j = ["--jobs", str(jobs)]
    comb_delta = repr(4 * 3.0 ** -comb_q)  # four cells
    steps = [
        cli_step(["decompose", "--gen", "spiral_disk", "--t-max", "6",
                  "--level", str(spiral)] + j, out / "spiral.json",
                 check_decomposition(_spiral)),
        cli_step(["decompose", "--gen", "cantor_comb", "--level", str(comb)] + j,
                 out / "comb.json", check_decomposition(_teeth)),
        cli_step(["quotient", "--contract", "--gen", "cantor_comb",
                  "--level", str(comb_q), "--delta", comb_delta] + j,
                 out / "comb_quotient.json", check_quotient),
        cli_step(["quotient", "--contract", "--gen", "topologist_sine",
                  "--level", str(sine)] + j, out / "sine_quotient.json",
                 check_quotient),
        cli_step(["scan", "--gen", "cantor_comb", "--levels", f"2..{comb_hi}",
                  "--strip", "auto"] + j, out / "comb_scan_auto.json",
                 check_scan(checks.NOT_LC)),
        cli_step(["scan", "--gen", "cantor_comb", "--levels", f"2..{comb_hi}",
                  "--strip", "h:0.25:0.75", "--strip", _strip_arg("h", rng),
                  "--strip", _strip_arg("v", rng)] + j, out / "comb_scan_mid.json",
                 check_scan(checks.NOT_LC, mid_strip=True)),
        cli_step(["scan", "--gen", "topologist_sine", "--levels", f"2..{sine_hi}",
                  "--strip", "auto"] + j, out / "sine_scan_auto.json",
                 check_scan(checks.NOT_LC)),
    ]
    return Workload("wild-sets", steps)


def _complement_step(levels: tuple[int, ...], out: Path) -> Step:
    """complement_diameter_scan has no CLI command; it runs as a library
    call and writes the diameters it found."""
    spec = make_spec(GeneratorParams("sierpinski_carpet"))

    def doc(rows) -> str:
        return _json_text({"levels": list(levels), "complement_diameters": rows})

    def run() -> int:
        report = complement_diameter_scan(spec, levels)
        _emit(NULL, out, lambda: doc(report.to_dict()["complement_diameters"]))
        return 0

    def traced(tr) -> None:
        wrapped = dataclasses.replace(spec, fill=tr.timed_fill(spec.fill))
        rows = []
        for n in levels:
            level = Level(n, 3)
            K = _rasterize(tr, wrapped, level)
            with tr.span("grid.label") as attrs:
                lab = complement_components(K, spec.bbox.pad(2 * level.cell_size))
            attrs["components"] = lab.count
            ds = sorted((m.diameter for m in lab.metas if not m.unbounded), reverse=True)
            rows.append({"level": n, "diameters": ds})
        _emit(tr, out, lambda: doc(rows))

    return Step(f"complement_diameter_scan sierpinski_carpet {levels[0]}..{levels[-1]}",
                out, run, traced, lambda: checks.check_carpet_holes(_load_json(out)))


def tame_sets(seed: int, out: Path, tiny: bool = False, jobs: int = 1) -> Workload:
    """Locally connected or totally disconnected compacta: every region is
    labelled but no merge set is emitted, so clustering and closure unions
    are bypassed.  The seed draws the three random_blobs seeds."""
    blob_seeds = np.random.default_rng(seed).integers(0, 2 ** 31, size=3)
    carpet, square, blobs, dust, carpet_hi, square_hi, dust_c, holes_hi = \
        (2, 3, 4, 2, 3, 4, 3, 3) if tiny else (3, 5, 6, 4, 6, 9, 5, 5)
    j = ["--jobs", str(jobs)]
    dec = check_decomposition(_singletons)
    steps = [cli_step(["decompose", "--gen", "sierpinski_carpet", "--level", str(carpet)] + j,
                      out / "carpet.json", dec),
             cli_step(["decompose", "--gen", "unit_square", "--level", str(square)] + j,
                      out / "square.json", dec)]
    steps += [cli_step(["decompose", "--gen", "random_blobs", "--seed", str(b),
                        "--level", str(blobs)] + j, out / f"blobs{k}.json", dec)
              for k, b in enumerate(blob_seeds)]
    steps += [
        cli_step(["decompose", "--gen", "cantor_dust", "--level", str(dust)] + j,
                 out / "dust.json", dec),
        cli_step(["scan", "--gen", "sierpinski_carpet", "--levels", f"2..{carpet_hi}",
                  "--strip", "auto"] + j, out / "carpet_scan.json", check_scan(checks.LC)),
        cli_step(["scan", "--gen", "unit_square", "--levels", f"2..{square_hi}",
                  "--strip", "auto"] + j, out / "square_scan.json", check_scan(checks.LC)),
        cli_step(["components", "--gen", "cantor_dust", "--level", str(dust_c)],
                 out / "dust_components.json",
                 lambda doc, a: checks.check_dust_components(doc, a.level)),
        _complement_step(tuple(range(2, holes_hi + 1)), out / "carpet_holes.json"),
    ]
    return Workload("tame-sets", steps)


def random_merge_sets(K, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random walks of 1..3 king moves inside K: small 8-connected merge sets
    (repeated cells allowed, as the closure accepts them)."""
    cells = K.cells()
    occupied = set(map(tuple, cells.tolist()))
    moves = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
    out = []
    while len(out) < count:
        walk = [tuple(cells[rng.integers(len(cells))])]
        for _ in range(int(rng.integers(1, 4))):
            i, j = walk[-1]
            nxt = [(i + di, j + dj) for di, dj in moves if (i + di, j + dj) in occupied]
            walk.append(nxt[rng.integers(len(nxt))])
        out.append(np.array(walk, dtype=np.int64))
    return out


def closure_compare(seed: int, out: Path, tiny: bool = False, jobs: int = 1) -> Workload:
    """One fixed raster, two nested sets of random merge sets from the seed:
    closure, decomposition JSON both ways, compare, quotient and render.
    Fills and the whole of schoenflies are bypassed."""
    rng = np.random.default_rng(seed)
    level = Level(2 if tiny else 4, 3)
    K = rasterize(make_spec(GeneratorParams("sierpinski_carpet")), level)
    count = K.count // 8
    fine = random_merge_sets(K, count, rng)
    coarse = fine + random_merge_sets(K, count, rng)
    s = level.cell_size

    @functools.cache
    def want(key: str) -> list[set]:
        return checks.merge_components(fine if key == "a" else coarse, K.cells())

    state: dict = {}
    paths = {k: out / f"closure_{k}.json" for k in "ab"}

    def close_step(key: str, merge_sets) -> Step:
        seed_ = RelationSeed(level, tuple(merge_sets))

        def traced(tr) -> None:
            D = _close(tr, K, seed_)
            state[key] = D
            _emit(tr, paths[key], lambda: _json_text(cli.decomposition_to_payload(D)))

        def check() -> None:
            doc = _load_json(paths[key])
            raster = set(map(tuple, K.cells().tolist()))
            got = checks.check_partition(doc, raster, s)
            checks.check_same_classes(got, want(key), f"closure {key}")
            loaded = [set(map(tuple, c.cells.tolist()))
                      for c in cli.load_decomposition(str(paths[key])).classes]
            checks.check_same_classes(loaded, got, f"closure {key} loaded back")

        return library_step(f"close_equivalence {key} + decompose JSON", paths[key],
                            traced, check)

    def compare_step(x: str, y: str) -> Step:
        path = out / f"compare_{x}{y}.json"
        argv = ["compare", "--a", str(paths[x]), "--b", str(paths[y])]

        def traced(tr) -> None:
            with tr.span("cli.load"):
                A = cli.load_decomposition(str(paths[x]))
                B = cli.load_decomposition(str(paths[y]))
            with tr.span("decomposition.refines"):
                ab, ba = refines(A, B), refines(B, A)
            with tr.span("decomposition.common_refinement"):
                common = len(common_refinement(A, B).classes)
            _emit(tr, path, lambda: _json_text({
                "schema": cli.SCHEMA, "command": "compare", "a_refines_b": ab,
                "b_refines_a": ba, "equal": ab and ba, "class_count_a": len(A.classes),
                "class_count_b": len(B.classes), "common_refinement_classes": common,
                "tol": 0.0}))

        def check() -> None:
            count = {k: len(want(k)) for k in "ab"}
            checks.require(count["b"] < count["a"], "the coarse merge sets add no union")
            checks.check_compare(_load_json(path), count[x], count[y],
                                 a_refines_b=(x == "a" or y == "b"),
                                 b_refines_a=(y == "a" or x == "b"))

        return Step(" ".join(argv[:1] + [x, y]), path,
                    lambda: cli.run(argv + ["--out", str(path)]), traced, check)

    quotient_path = out / "closure_quotient.json"
    svg_path = out / "closure_b.svg"

    def quotient(tr) -> None:
        payload = _quotient_payload(tr, K, state["b"], False)
        _emit(tr, quotient_path, lambda: _json_text(payload))

    def quotient_check() -> None:
        dec = _load_json(paths["b"])
        checks.check_quotient(_load_json(quotient_path), dec, checks.classes_of(dec))

    def render(tr) -> None:
        _emit(tr, svg_path, lambda: cli.render_svg(K, state["b"]))

    steps = [close_step("a", fine), close_step("b", coarse),
             compare_step("a", "b"), compare_step("b", "a"), compare_step("a", "a"),
             library_step("quotient_graph + monotone_check b", quotient_path,
                          quotient, quotient_check),
             library_step("render_svg b with classes", svg_path, render,
                          lambda: checks.check_svg(svg_path.read_text(encoding="utf-8"),
                                                   K.count))]
    return Workload("closure-compare", steps)


FACTORIES = {"wild-sets": wild_sets, "tame-sets": tame_sets,
            "closure-compare": closure_compare}
WORKLOADS = tuple(FACTORIES)


def build(name: str, seed: int, out: Path, tiny: bool = False,
          jobs: int | None = None) -> Workload:
    """Set a workload up; `jobs` overrides the worker count of its commands."""
    out.mkdir(parents=True, exist_ok=True)
    make = FACTORIES[name]
    return make(seed, out, tiny) if jobs is None else make(seed, out, tiny, jobs)
