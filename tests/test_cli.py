import contextlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import pcx
from pcx import GridCompactum, Level, parse_pbm, rasterize, from_pbm
from pcx import decomposition
from pcx.cli import (build_parser, decomposition_json, decomposition_to_payload, json_text,
                     load_decomposition, render_svg, run)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = run(argv + ["--out", str(out)])
    assert rc == 0, f"pcx {' '.join(argv)} -> rc {rc}"
    return out


def load_json(path):
    data = json.loads(path.read_text())
    assert data["schema"] == "pcx/1"
    return data


# ---------------------------------------------------------------------------
# plumbing & exit codes

ENTRY_ARGV = ["components", "--gen", "unit_square", "--level", "2"]


def test_installed_entry_point_runs():
    """The declared `pcx` entry point starts in a fresh interpreter.

    Driven through `python -m pcx`, which runs the same `pcx.cli:main` and
    needs no install; the imported checkout goes first on PYTHONPATH.
    """
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["pcx"] == "pcx.cli:main"
    src = str(Path(pcx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    p = subprocess.run([sys.executable, "-m", "pcx", *ENTRY_ARGV],
                       capture_output=True, text=True, env=env)
    assert p.returncode == 0
    assert json.loads(p.stdout)["count"] == 1


@pytest.mark.skipif(shutil.which("pcx") is None,
                    reason="no pcx executable on PATH (package not installed)")
def test_pcx_executable_runs():
    p = subprocess.run(["pcx", *ENTRY_ARGV], capture_output=True, text=True)
    assert p.returncode == 0
    assert json.loads(p.stdout)["count"] == 1


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("pcx ")]


def test_readme_commands_parse():
    """Every `pcx ...` line of the README's shell blocks is valid CLI usage.
    Only parsed, never run: the quick start decomposes at level 7."""
    commands = _readme_commands()
    assert len(commands) >= 3
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"README command `pcx {' '.join(argv)}` exits {exc.code}")


# out-of-range numbers that parse: each exits 2 with one `pcx: error:` line
_RANGE_ERRORS = [
    ["decompose", "--gen", "bars", "--level", "3", "--delta", "inf"],
    ["decompose", "--gen", "bars", "--level", "3", "--delta", "nan"],
    ["scan", "--gen", "bars", "--levels", "3", "--strip", "h:0:inf"],
    ["scan", "--gen", "unit_square", "--levels", "2", "--strip", "h:0:1e300"],
    ["compare", "--a", "a.json", "--b", "b.json", "--tol", "nan"],
    ["compare", "--a", "a.json", "--b", "b.json", "--tol", "inf"],
    ["compare", "--a", "a.json", "--b", "b.json", "--tol", "-0.5"],
    ["gen", "--gen", "spiral_disk", "--level", "2", "--t-max", "nan"],
    ["gen", "--gen", "spiral_disk", "--level", "2", "--t-max", "inf"],
    ["gen", "--gen", "spiral_disk", "--level", "2", "--t-max", "2000"],
    ["gen", "--gen", "random_blobs", "--level", "2", "--seed", "-1"],
    ["gen", "--gen", "random_blobs", "--level", "2", "--seed", str(10 ** 23)],
]


@pytest.mark.parametrize("argv,code", [
    (["gen", "--gen", "nope", "--level", "2"], 2),            # bad choice
    (["gen", "--gen", "unit_square"], 2),                     # missing --level
    (["gen", "--gen", "unit_square", "--level", "99"], 2),    # too deep
    (["scan", "--gen", "bars", "--levels", "6..2",
      "--strip", "auto"], 2),                                 # empty range
    (["scan", "--gen", "bars", "--levels", "3",
      "--strip", "diag:0:1"], 2),                             # bad strip axis
    (["decompose", "--gen", "bars", "--level", "3",
      "--nmin", "2"], 2),                                     # nmin too small
    (["decompose", "--gen", "bars", "--level", "3",
      "--jobs", "0"], 2),                                     # jobs < 1
    (["components", "--in", "/no/such/file.pbm", "--level", "3"], 3),
] + [(argv, 2) for argv in _RANGE_ERRORS])
def test_exit_codes(argv, code):
    assert run(argv) == code


@pytest.mark.parametrize("argv", _RANGE_ERRORS)
def test_out_of_range_numbers_give_one_error_line(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"pcx: error: [^\n]+\n", captured.err), captured.err


def test_a_delta_past_the_extent_glues_as_the_extent_does(capsys):
    """A delta beyond the set's extent is saturated: every distance the
    relation compares lies below it, so each accepted delta, however large,
    gives the bytes of a delta as wide as the set."""
    for gen, level, deltas in (("cantor_comb", "2", ("2", "1e6", "1e200")),
                               ("topologist_sine", "3", ("2", "1e6"))):
        outs = []
        for delta in deltas:
            assert run(["decompose", "--gen", gen, "--level", level, "--delta", delta]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[0] and outs.count(outs[0]) == len(outs)


def test_a_stride_past_the_extent_samples_as_the_extent_does(capsys):
    """Past the set's extent every stride samples the same annulus centres,
    so a stride too large for int64 gives the bytes of --stride 1000."""
    for gen, level in (("unit_square", "3"), ("cantor_comb", "3")):
        outs = []
        for stride in ("1000", str(10 ** 21)):
            assert run(["decompose", "--gen", gen, "--level", level, "--stride", stride]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[0] and outs[0] == outs[1]


def test_a_huge_level_range_stops_past_the_cap(monkeypatch, capsys):
    """A range is cut one level past the cap, where the scan fails anyway:
    the scan exits 2 with the cap error instead of listing every level."""
    monkeypatch.setenv("PCX_MAX_LEVEL", "4")
    assert run(["scan", "--gen", "bars", "--levels", "2..1000000000000",
                "--strip", "auto"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "pcx: error: level 5 exceeds cap 4\n")


def test_parse_error_on_garbage_pbm(tmp_path):
    bad = tmp_path / "bad.pbm"
    bad.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 16)
    assert run(["components", "--in", str(bad), "--level", "2"]) == 3


def test_json_is_sorted_and_newline_terminated(tmp_path):
    out = run_to_file(tmp_path, "c.json",
                      ["components", "--gen", "bars", "--level", "4"])
    text = out.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              ensure_ascii=False, indent=2) + "\n"


def test_stdout_matches_file_output(tmp_path, capsys):
    argv = ["components", "--gen", "cantor_dust", "--level", "3"]
    assert run(argv) == 0
    streamed = capsys.readouterr().out
    out = run_to_file(tmp_path, "dust.json", argv)
    assert streamed == out.read_text()


def _stdout_payload(argv):
    """The JSON document a CLI command prints, parsed back."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    return json.loads(buf.getvalue())


_JSON_STRINGS = st.text(st.sampled_from('ab"\\{}[],: \n\x01éü中🙂'), max_size=8)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 12, 10 ** 12)
                 | st.floats() | _JSON_STRINGS)


def _json_values(depth):
    """Scalars, and lists and dicts of values nested up to `depth` deep."""
    if depth == 0:
        return _JSON_SCALARS
    kids = _json_values(depth - 1)
    return (_JSON_SCALARS | st.lists(kids, max_size=4)
            | st.dictionaries(_JSON_STRINGS, kids, max_size=4))


@given(_json_values(4))
@example({"\\\\\"": ["\\\"[", "\\\\", {}], "": [[], {"a": []}]})
@example([float("nan"), float("inf"), -float("inf"), -7, 1.5e-300, 2e+300, True, None])
@example(_stdout_payload(["decompose", "--gen", "bars", "--level", "3"]))
@example(_stdout_payload(["quotient", "--gen", "bars", "--level", "3", "--contract"]))
@example(_stdout_payload(["scan", "--gen", "unit_square", "--levels", "2..3",
                          "--strip", "auto"]))
@example(_stdout_payload(["components", "--gen", "sierpinski_carpet", "--level", "2"]))
def test_json_text_is_json_dumps_with_indent(payload):
    assert json_text(payload) == json.dumps(payload, sort_keys=True,
                                            ensure_ascii=False, indent=2) + "\n"


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]), st.booleans())
@example(0, 2, True)
def test_decomposition_json_is_the_payload_text(seed, base, glue_all):
    """The decompose document written from the columns is the dict payload's
    text, byte for byte: random closures on random rasters of both bases
    (distinct classes sharing a diameter, one class over 64 cells when all
    is glued), and the empty raster."""
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 15, size=2)
    mask = rng.random((h, w)) < rng.uniform(0, 1)
    K = GridCompactum.from_mask(Level(int(rng.integers(0, 6)), base),
                                tuple(rng.integers(-9, 9, size=2).tolist()), mask)
    cells = K.cells()
    sets = [cells[rng.integers(len(cells), size=int(rng.integers(1, 4)))]
            for _ in range(len(cells) // 3)] + ([cells] if glue_all and len(cells) else [])
    D = decomposition.close_equivalence(K, decomposition.RelationSeed(K.level, tuple(sets)))
    assert decomposition_json(D) == json_text(decomposition_to_payload(D))


def test_decomposition_json_of_an_empty_raster_and_a_large_class():
    for K, sets in ((GridCompactum.from_cells(Level(3, 3), np.zeros((0, 2))), ()),
                    (GridCompactum.from_mask(Level(4), (-3, 2), np.ones((9, 8), dtype=bool)),
                     (np.argwhere(np.ones((9, 8)))[:, ::-1] + [-3, 2],))):
        D = decomposition.close_equivalence(K, decomposition.RelationSeed(K.level, sets))
        assert D.class_count == len(sets)
        assert decomposition_json(D) == json_text(decomposition_to_payload(D))


# ---------------------------------------------------------------------------
# gen / components round trips

def test_gen_pbm_round_trip(tmp_path):
    p4 = run_to_file(tmp_path, "sq.pbm",
                     ["gen", "--gen", "unit_square", "--level", "3"])
    p1 = run_to_file(tmp_path, "sq.txt",
                     ["gen", "--gen", "unit_square", "--level", "3", "--ascii"])
    m4 = parse_pbm(p4.read_bytes())
    m1 = parse_pbm(p1.read_bytes())
    assert p4.read_bytes().startswith(b"P4")
    assert p1.read_bytes().startswith(b"P1")
    assert np.array_equal(m1, m4)
    assert m4.shape == (8, 8) and m4.all()

    spec = from_pbm(str(p4))
    K = rasterize(spec, Level(3, 2))
    assert K == rasterize(spec, Level(3, 2))
    assert K.count == 64

    out = run_to_file(tmp_path, "sq.json",
                      ["components", "--in", str(p4), "--level", "3"])
    data = load_json(out)
    assert data["count"] == 1
    assert data["components"][0]["size"] == 64


def test_gen_header_carries_anchor(tmp_path):
    out = run_to_file(tmp_path, "sine.pbm",
                      ["gen", "--gen", "topologist_sine", "--level", "3"])
    header = out.read_bytes().split(b"\n")[1]
    assert header.startswith(b"# pcx origin=")
    assert b"level=3" in header and b"base=2" in header


def test_components_reports_all_bars(tmp_path):
    out = run_to_file(tmp_path, "bars.json",
                      ["components", "--gen", "bars", "--level", "4"])
    data = load_json(out)
    assert data["count"] == 3 and len(data["components"]) == 3
    sizes = {c["size"] for c in data["components"]}
    assert len(sizes) == 1  # congruent bars


# ---------------------------------------------------------------------------
# scan

def test_scan_auto_family(tmp_path):
    out = run_to_file(tmp_path, "scan.json",
                      ["scan", "--gen", "cantor_comb", "--levels", "2..4",
                       "--strip", "auto"])
    data = load_json(out)
    assert data["command"] == "scan"
    assert data["levels"] == [2, 3, 4]
    assert data["strips"]
    assert data["verdict"] in ("not locally connected",
                               "consistent with locally connected")
    one = data["strips"][0]
    assert {"axis", "c1", "c2", "m_int", "m_diff", "divergent"} <= set(one)


def test_scan_explicit_strip_counts(tmp_path):
    out = run_to_file(tmp_path, "comb.json",
                      ["scan", "--gen", "cantor_comb", "--levels", "2..5",
                       "--strip", "h:0.25:0.75"])
    strip = load_json(out)["strips"][0]
    assert strip["m_int"] == [4, 8, 16, 32]
    assert strip["m_diff"] == [5, 9, 17, 33]
    assert strip["divergent"] is True


def test_scan_strip_far_past_the_set(tmp_path):
    """h:0:1e9 reaches some 5e11 cells past the unit square at level 9.  The
    scan counts it on the square's cell box and a cell more, with the same
    counts: no piece of the square crosses it, one piece of the complement
    does."""
    out = run_to_file(tmp_path, "far.json", ["scan", "--gen", "unit_square", "--levels", "2..9",
                                             "--strip", "h:0:1e9"])
    (strip,) = load_json(out)["strips"]
    assert (strip["m_int"], strip["m_diff"]) == ([0] * 8, [1] * 8)
    assert strip["snapped"] == [[0.0, 1e9]] * 8


def test_scan_of_a_blank_pbm(tmp_path):
    """An empty raster has no cell box; each strip still counts no piece of
    the set and one of its complement, however far it reaches."""
    blank = tmp_path / "blank.pbm"
    blank.write_bytes(b"P1\n4 4\n" + b"0 0 0 0\n" * 4)
    out = run_to_file(tmp_path, "blank.json", ["scan", "--in", str(blank), "--levels", "2..3",
                                               "--strip", "h:0.2:0.5", "--strip", "v:-3:0.5"])
    strips = load_json(out)["strips"]
    assert [(s["m_int"], s["m_diff"]) for s in strips] == [([0, 0], [1, 1])] * 2
    assert [s["snapped"] for s in strips] == [[[0.25, 0.5]] * 2, [[-3.0, 0.5]] * 2]


# ---------------------------------------------------------------------------
# decompose / compare

def test_decompose_json_round_trip(tmp_path):
    out = run_to_file(tmp_path, "d.json",
                      ["decompose", "--gen", "cantor_comb", "--level", "2"])
    data = load_json(out)
    assert data["command"] == "decompose"
    assert data["base"] == 3 and data["level"] == 2
    assert data["class_count"] == len(data["classes"])
    assert abs(data["cell_size"] - 3.0 ** -2) < 1e-15
    D = load_decomposition(str(out))
    assert len(D.classes) == data["class_count"]
    assert D.level == Level(2, 3)

    cmp_out = run_to_file(tmp_path, "cmp.json",
                          ["compare", "--a", str(out), "--b", str(out)])
    verdict = load_json(cmp_out)
    assert verdict["equal"] is True
    assert verdict["a_refines_b"] and verdict["b_refines_a"]
    assert verdict["common_refinement_classes"] == data["class_count"]


def test_compare_with_tolerance_is_never_equal(tmp_path):
    a = run_to_file(tmp_path, "a.json",
                    ["decompose", "--gen", "unit_square", "--level", "2"])
    out = run_to_file(tmp_path, "t.json",
                      ["compare", "--a", str(a), "--b", str(a), "--tol", "0.1"])
    verdict = load_json(out)
    assert verdict["a_refines_b"] and not verdict["equal"]


def test_compare_rejects_overlapping_classes(tmp_path):
    doc = {"level": 2, "base": 2, "classes": [
        {"cells": [[0, 0], [1, 0]]}, {"cells": [[1, 0]]}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["compare", "--a", str(bad), "--b", str(bad)]) == 3


def test_compare_refuses_cells_spanning_over_budget(tmp_path, capsys):
    doc = {"level": 2, "base": 2, "classes": [
        {"cells": [[0, 0]]}, {"cells": [[10 ** 7, 10 ** 7]]}]}
    far = tmp_path / "far.json"
    far.write_text(json.dumps(doc))
    assert run(["compare", "--a", str(far), "--b", str(far)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pcx: error:") and "budget" in err
    assert len(err.splitlines()) == 1


def test_compare_reports_an_overlap_before_the_cell_budget(tmp_path, capsys):
    """Overlapping classes whose cells also span over the budget are no
    partition (exit 3): the overlap is found before any raster is sized."""
    doc = {"level": 2, "base": 2, "classes": [
        {"cells": [[0, 0], [1, 0]]}, {"cells": [[1, 0], [10 ** 7, 10 ** 7]]}]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["compare", "--a", str(bad), "--b", str(bad)]) == 3
    assert capsys.readouterr().err == \
        f"pcx: input error: {bad}: classes overlap — not a partition\n"


def test_compare_quotient_and_emitters_build_no_class_info(tmp_path, monkeypatch):
    """compare (with and without --tol), the decompose payload, quotient_graph,
    monotone_check and render_svg read the class columns: none of them builds
    a ClassInfo."""
    def refuse(*args, **kwargs):
        raise AssertionError("a ClassInfo was built")

    monkeypatch.setattr(decomposition, "ClassInfo", refuse)
    comb = ["--gen", "cantor_comb", "--level", "3"]
    a = run_to_file(tmp_path, "a.json", ["decompose", *comb, "--no-multi-level"])
    b = run_to_file(tmp_path, "b.json", ["decompose", *comb, "--nmin", "3", "--delta",
                                         repr(3 * 3.0 ** -3), "--family",
                                         "strips-all-offsets"])
    for tol in ([], ["--tol", "0.2"]):
        verdict = load_json(run_to_file(tmp_path, "cmp.json",
                                        ["compare", "--a", str(a), "--b", str(b), *tol]))
        assert not verdict["equal"]
    # b's classes split over a's, so the --tol run measures them against a's
    assert verdict["a_refines_b"] and not verdict["b_refines_a"]
    D = load_decomposition(str(a))
    K = GridCompactum.from_cells(D.level, D.cells())
    assert decomposition_to_payload(D)["class_count"] == D.class_count
    assert len(decomposition.quotient_graph(K, D).nodes) == D.class_count
    assert decomposition.monotone_check(K, D).ok
    assert render_svg(K, D).count("<rect") == D.cell_count
    with pytest.raises(AssertionError, match="ClassInfo"):
        D.classes


@pytest.mark.parametrize("edit", [
    lambda doc: doc["classes"][0]["cells"][0].__setitem__(0, 2 ** 70),
    lambda doc: doc["classes"][0]["cells"].__setitem__(0, [0.5, 0]),
    lambda doc: doc["classes"][0]["cells"].__setitem__(0, [True, False]),
    lambda doc: doc.__setitem__("level", 1.7),
    lambda doc: doc.__setitem__("base", 2.0),
    lambda doc: doc["classes"].append({"cells": []}),
    lambda doc: doc["classes"][0]["cells"].append([True, False]),
    lambda doc: doc["classes"][0].__setitem__("cells", [[5, 5, 5], [6, 6, 6]]),
], ids=["huge-cell", "float-cell", "bool-cell", "float-level", "float-base",
        "empty-class", "bool-among-int-cells", "three-value-cells"])
def test_compare_refuses_documents_it_cannot_round_trip(tmp_path, capsys, edit):
    good = run_to_file(tmp_path, "good.json",
                       ["decompose", "--gen", "bars", "--level", "2"])
    doc = load_json(good)
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["compare", "--a", str(bad), "--b", str(good)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"pcx: input error: {bad}") and len(err.splitlines()) == 1


def test_decompose_text_format(tmp_path):
    out = run_to_file(tmp_path, "d.txt",
                      ["decompose", "--gen", "bars", "--level", "3",
                       "--format", "text"])
    lines = out.read_text().splitlines()
    assert lines[0].endswith("classes at level 3 (cell_size 0.125)")
    assert all(l.strip().startswith("class ") for l in lines[1:])


def test_relation_flags_change_the_result(tmp_path):
    base = run_to_file(tmp_path, "sine.json",
                       ["decompose", "--gen", "topologist_sine", "--level", "3",
                        "--deep-levels", "4"])
    off = run_to_file(tmp_path, "off.json",
                      ["decompose", "--gen", "topologist_sine", "--level", "3",
                       "--no-multi-level"])
    assert load_json(off)["class_count"] > load_json(base)["class_count"]


# ---------------------------------------------------------------------------
# quotient

def test_quotient_with_contraction(tmp_path):
    out = run_to_file(tmp_path, "q.json",
                      ["quotient", "--gen", "topologist_sine", "--level", "3",
                       "--deep-levels", "4", "--contract"])
    data = load_json(out)
    assert data["command"] == "quotient"
    assert data["monotone"]["ok"] is True
    con = data["contracted"]
    assert con["is_simple_path"] is True
    assert len(con["nodes"]) == len(con["edges"]) + 1


# ---------------------------------------------------------------------------
# SVG

def svg_root(path):
    return ET.fromstring(path.read_text())


def test_render_plain_svg_structure(tmp_path):
    out = run_to_file(tmp_path, "sq.svg",
                      ["render", "--gen", "sierpinski_carpet", "--level", "2"])
    root = svg_root(out)
    assert root.tag.endswith("svg")
    assert root.get("viewBox") == "0 0 9 9"
    assert float(root.get("width")) <= 1024.0 + 1e-6
    rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
    assert len(rects) == 64  # 8^2 carpet cells
    assert all(r.get("width") == "1" for r in rects)


def test_render_classes_coloring(tmp_path):
    plain = run_to_file(tmp_path, "p.svg",
                        ["render", "--gen", "bars", "--level", "3"])
    classes = run_to_file(tmp_path, "c.svg",
                          ["render", "--gen", "bars", "--level", "3",
                           "--format", "classes"])
    fills_p = {g.get("fill") for g in
               svg_root(plain).iter("{http://www.w3.org/2000/svg}g")
               if g.get("fill")}
    fills_c = {g.get("fill") for g in
               svg_root(classes).iter("{http://www.w3.org/2000/svg}g")
               if g.get("fill")}
    assert fills_p == {"#1a1a1a"}
    assert len(fills_c) > 1 and "#1a1a1a" not in fills_c


def test_render_empty_raster():
    K = GridCompactum.from_cells(Level(3, 2), np.zeros((0, 2), dtype=np.int64))
    svg = render_svg(K)
    assert 'viewBox="0 0 1 1"' in svg and "<rect" not in svg


def test_svg_y_axis_points_up(tmp_path):
    # topologist's sine: the vertical bar hugs x=0, the curve trails right;
    # the lowest scene row must land on the LARGEST svg y
    out = run_to_file(tmp_path, "s.svg",
                      ["render", "--gen", "unit_square", "--level", "1"])
    ys = [int(r.get("y")) for r in
          svg_root(out).findall(".//{http://www.w3.org/2000/svg}rect")]
    assert sorted(ys) == [0, 0, 1, 1]


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("argv", [
    ["scan", "--gen", "topologist_sine", "--levels", "2..4", "--strip", "auto"],
    ["decompose", "--gen", "topologist_sine", "--level", "3"],
    ["decompose", "--gen", "cantor_comb", "--level", "2", "--format", "svg"],
    ["quotient", "--gen", "cantor_comb", "--level", "2", "--contract"],
])
def test_outputs_do_not_depend_on_worker_count(tmp_path, argv):
    a = run_to_file(tmp_path, "a.out", argv + ["--jobs", "1"])
    b = run_to_file(tmp_path, "b.out", argv + ["--jobs", "8"])
    assert a.read_bytes() == b.read_bytes()


def test_gen_is_byte_stable(tmp_path):
    a = run_to_file(tmp_path, "a.pbm",
                    ["gen", "--gen", "random_blobs", "--level", "5",
                     "--seed", "11"])
    b = run_to_file(tmp_path, "b.pbm",
                    ["gen", "--gen", "random_blobs", "--level", "5",
                     "--seed", "11"])
    c = run_to_file(tmp_path, "c.pbm",
                    ["gen", "--gen", "random_blobs", "--level", "5",
                     "--seed", "12"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
