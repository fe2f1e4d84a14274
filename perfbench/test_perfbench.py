"""Quick tests of the benchmark itself: every workload runs at a tiny size on
both routes, and every check rejects a deliberately corrupted output.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import workloads  # first: puts the checkout's src/ on sys.path
import checks
from tracing import LAYER_UNITS, Tracer, _self_times, layer_metrics

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def tiny_run(request, tmp_path_factory):
    """Run a tiny workload on the timed route and on the traced route."""
    timed = workloads.build(request.param, 5, tmp_path_factory.mktemp("timed"), tiny=True)
    traced = workloads.build(request.param, 5, tmp_path_factory.mktemp("traced"), tiny=True)
    for st in timed.steps:
        assert st.run() == 0, st.name
    tracer = Tracer()
    for st in traced.steps:
        tracer.job = st.name
        st.traced(tracer)
    return timed, traced, tracer


def test_tiny_workload_passes_its_checks(tiny_run):
    timed, traced, _ = tiny_run
    for st in timed.steps + traced.steps:
        st.check()


def test_both_routes_write_the_same_bytes(tiny_run):
    timed, traced, _ = tiny_run
    for a, b in zip(timed.steps, traced.steps):
        assert a.out.read_bytes() == b.out.read_bytes(), a.name


def test_traced_run_reports_every_layer_metric(tiny_run):
    timed, _, tracer = tiny_run
    m = layer_metrics(tracer.spans)
    assert set(m) == set(LAYER_UNITS)
    assert all(v >= 0 for v in m.values())
    assert m["cli.output_bytes"] == sum(st.out.stat().st_size for st in timed.steps)
    if timed.name == "closure-compare":
        assert m["generators.fill_calls"] == 0 and m["cli.load_s"] > 0
    else:
        assert m["generators.fill_calls"] > 0 and m["generators.cells_per_s"] > 0
    if timed.name == "tame-sets":
        assert m["decomposition.merge_sets"] == 0 and m["grid.label_s"] > 0
    if timed.name == "wild-sets":
        assert m["decomposition.merge_sets"] > 0


def test_run_py_prints_a_result(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "closure-compare", "--seed", "3", "--seconds", "0",
                           "--trace", "1"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 7
    assert set(result["metrics"]) == set(LAYER_UNITS)


def test_run_py_fails_without_pcx(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "wild-sets",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# checks reject corrupted outputs

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of the tiny wild-sets, tame-sets and closure-compare passes."""
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, tmp_path_factory.mktemp(name), tiny=True)
        for st in wl.steps:
            assert st.run() == 0
            out[st.out.name] = (st, st.out)
    return out


def _load(outputs, name):
    return json.loads(outputs[name][1].read_text())


def _rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


def _partition_args(doc):
    raster = set().union(*checks.classes_of(doc))
    return raster, doc["cell_size"]


def test_partition_rejects_merged_classes(outputs):
    doc = _load(outputs, "comb.json")
    raster, s = _partition_args(doc)
    checks.check_partition(doc, raster, s)
    bad = copy.deepcopy(doc)
    a, b = bad["classes"][0], bad["classes"].pop(1)
    a["cells"] += b["cells"]
    a["size"] += b["size"]
    bad["class_count"] -= 1
    for k, row in enumerate(bad["classes"]):
        row["id"] = k
    _rejects(checks.check_partition, bad, raster, s)


def test_partition_rejects_wrong_diameter(outputs):
    doc = _load(outputs, "spiral.json")
    raster, s = _partition_args(doc)
    for pick in (0, max(range(doc["class_count"]), key=lambda k: doc["classes"][k]["size"])):
        bad = copy.deepcopy(doc)
        bad["classes"][pick]["diameter"] += s / 8
        _rejects(checks.check_partition, bad, raster, s)


def test_partition_rejects_dropped_cell(outputs):
    doc = _load(outputs, "spiral.json")
    raster, s = _partition_args(doc)
    bad = copy.deepcopy(doc)
    big = max(bad["classes"], key=lambda r: r["size"])
    big["cells"].pop()
    big["size"] -= 1
    _rejects(checks.check_partition, bad, raster, s)


def test_partition_rejects_disconnected_class(outputs):
    doc = _load(outputs, "carpet.json")
    raster, s = _partition_args(doc)
    bad = copy.deepcopy(doc)
    first, last = bad["classes"][0], bad["classes"].pop()
    first["cells"] += last["cells"]
    first["size"] += 1
    first["diameter"] = checks.corner_diameter(map(tuple, first["cells"]), s)
    bad["class_count"] -= 1
    _rejects(checks.check_partition, bad, raster, s)


def test_comb_teeth_reject_a_split_tooth(outputs):
    doc = _load(outputs, "comb.json")
    classes = checks.classes_of(doc)
    checks.check_comb_teeth(classes, doc["level"])
    tooth = next(c for c in classes if (0, 0) in c)
    classes.remove(tooth)
    classes += [tooth - {(0, 0)}, {(0, 0)}]
    _rejects(checks.check_comb_teeth, classes, doc["level"])


def test_spiral_rejects_a_glued_far_cell(outputs):
    doc = _load(outputs, "spiral.json")
    s = doc["cell_size"]
    classes = checks.classes_of(doc)
    checks.check_spiral(doc, classes, s)
    far = max(range(len(classes)), key=lambda k: max(abs(i) + abs(j) for i, j in classes[k]))
    (i, j), = classes[far]
    nb = next(k for k, c in enumerate(classes)
              if k != far and any(abs(i - a) <= 1 and abs(j - b) <= 1 for a, b in c))
    classes[nb] = classes[nb] | classes.pop(far)
    _rejects(checks.check_spiral, doc, classes, s)


def test_quotient_rejects_a_dropped_or_added_edge(outputs):
    dec = _load(outputs, "closure_b.json")
    doc = _load(outputs, "closure_quotient.json")
    classes = checks.classes_of(dec)
    checks.check_quotient(doc, dec, classes)
    dropped = copy.deepcopy(doc)
    dropped["edges"].pop()
    _rejects(checks.check_quotient, dropped, dec, classes)
    added = copy.deepcopy(doc)
    present = set(map(tuple, doc["edges"]))
    added["edges"].append(next(list(p) for p in combinations(range(len(classes)), 2)
                               if p not in present))
    _rejects(checks.check_quotient, added, dec, classes)


def test_scan_rejects_duality_break_and_wrong_verdict(outputs):
    doc = _load(outputs, "comb_scan_mid.json")
    checks.check_scan(doc, checks.NOT_LC)
    checks.check_comb_mid_strip(doc)
    bad = copy.deepcopy(doc)
    bad["strips"][1]["m_diff"][0] = bad["strips"][1]["m_int"][0] + 2
    _rejects(checks.check_scan, bad, checks.NOT_LC)
    _rejects(checks.check_scan, doc, checks.LC)
    bad = copy.deepcopy(doc)
    bad["strips"][0]["m_int"][-1] -= 1
    _rejects(checks.check_comb_mid_strip, bad)


def test_dust_rejects_a_missing_component(outputs):
    doc = _load(outputs, "dust_components.json")
    checks.check_dust_components(doc, doc["level"])
    bad = copy.deepcopy(doc)
    bad["components"].pop()
    bad["count"] -= 1
    _rejects(checks.check_dust_components, bad, doc["level"])


def test_carpet_holes_reject_a_wrong_diameter(outputs):
    doc = _load(outputs, "carpet_holes.json")
    checks.check_carpet_holes(doc)
    bad = copy.deepcopy(doc)
    bad["complement_diameters"][-1]["diameters"][-1] *= 1.5
    _rejects(checks.check_carpet_holes, bad)


def test_closure_classes_reject_a_merged_pair(outputs):
    doc = _load(outputs, "closure_a.json")
    got = checks.classes_of(doc)
    checks.check_same_classes(got, list(got), "same")
    merged = [got[0] | got[1]] + got[2:]
    _rejects(checks.check_same_classes, merged, got, "merged")


def test_compare_rejects_a_flipped_verdict(outputs):
    doc = _load(outputs, "compare_ab.json")
    na, nb = doc["class_count_a"], doc["class_count_b"]
    checks.check_compare(doc, na, nb, True, False)
    bad = dict(doc, b_refines_a=True)
    _rejects(checks.check_compare, bad, na, nb, True, False)
    bad = dict(doc, common_refinement_classes=nb)
    _rejects(checks.check_compare, bad, na, nb, True, False)


def test_svg_rejects_a_missing_rect(outputs):
    st, path = outputs["closure_b.svg"]
    text = path.read_text()
    st.check()
    cells = text.count("<rect ")
    _rejects(checks.check_svg, text.replace("<rect ", "<!-- ", 1), cells)


def test_corner_diameter_matches_all_pairs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cells = {tuple(c) for c in rng.integers(-6, 7, size=(int(rng.integers(1, 30)), 2))}
        corners = [(i + a, j + b) for i, j in cells for a in (0, 1) for b in (0, 1)]
        want = max(math.dist(p, q) for p in corners for q in corners) * 0.5
        assert math.isclose(checks.corner_diameter(cells, 0.5), want)


def test_self_time_subtracts_overlapping_children():
    spans = [{"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None, "attrs": {}},
             {"id": 1, "name": "f", "start": 1.0, "end": 4.0, "parent": 0, "attrs": {}},
             {"id": 2, "name": "f", "start": 3.0, "end": 5.0, "parent": 0, "attrs": {}},
             {"id": 3, "name": "f", "start": 9.0, "end": 12.0, "parent": 0, "attrs": {}}]
    assert _self_times(spans) == [5.0, 3.0, 2.0, 3.0]
