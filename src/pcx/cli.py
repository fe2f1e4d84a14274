"""Command-line front end: generation, scans, decompositions, rendering.

Exit codes: 0 success, 2 usage error (bad flags/parameters), 3 input parse
error.  Mathematical verdicts (divergence, connectivity, refinement) are data
in the JSON output, never exit codes.  All JSON is UTF-8 with sorted keys
under a top-level ``"schema": "pcx/1"``; SVG output is SVG 1.1, at most
1024 px on the longer side, and byte-stable for a fixed configuration
regardless of worker count.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import zlib
from itertools import chain
from typing import Sequence

import numpy as np

from .decomposition import (_FAMILIES, Decomposition, RelationParams, _check_partition,
                            _partition_from_ids, close_equivalence, contract_degree_two,
                            is_simple_path, monotone_check, quotient_graph,
                            schoenflies_relation)
from .generators import (GENERATOR_NAMES, GeneratorParams, ParseError,
                         emit_pbm, from_pbm, make_spec)
from .grid import (DepthExceeded, GridCompactum, GridError, Level, SetSpec,
                   WindowError, label_components, max_level, rasterize)
from .schoenflies import Strip, default_strip_family, schoenflies_scan

SCHEMA = "pcx/1"


# ---------------------------------------------------------------------------
# argv plumbing

def _parse_levels(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if ".." in tok:
            a, b = tok.split("..", 1)
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError(f"empty level range {tok!r}")
            out.extend(range(lo, max(lo, min(hi, max_level() + 1)) + 1))  # scans fail past it
        else:
            out.append(int(tok))
    if not out or any(n < 0 for n in out):
        raise ValueError(f"bad level list {text!r}")
    return tuple(out)


def _parse_strip(text: str) -> Strip:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("h", "v", "horizontal", "vertical"):
        raise ValueError(f"strip must look like h:<c1>:<c2>, got {text!r}")
    return Strip(parts[0], float(parts[1]), float(parts[2]))


def _spec_for(args: argparse.Namespace) -> SetSpec:
    if args.input_path is not None:
        return from_pbm(args.input_path)
    return make_spec(GeneratorParams(name=args.gen, seed=args.seed,
                                     dust_dim=args.dust_dim, t_max=args.t_max))


def _raster_for(args: argparse.Namespace) -> GridCompactum:
    spec = _spec_for(args)
    return rasterize(spec, Level(args.level, spec.base))


def _decompose(args: argparse.Namespace) -> tuple[GridCompactum, Decomposition]:
    """The raster at args.level and its decomposition, rasterized once."""
    params = RelationParams(n_min=args.nmin, delta=args.delta,
                            annulus_family=args.family, stride=args.stride,
                            multi_level=args.multi_level,
                            deep_levels=args.deep_levels,
                            deep_children=args.deep_children)
    K = _raster_for(args)
    return K, close_equivalence(K, schoenflies_relation(K, params))


def _emit_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_bytes(data: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


_JSON_KIND = np.zeros(256, dtype=np.int8)  # per byte: 1 opens, 2 closes, 3 comma, 4 colon
_JSON_KIND[list(b"[{]},:")] = [1, 1, 2, 2, 3, 4]


def json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\\n",
    byte for byte: the C encoder's compact text, re-indented in one
    vectorised pass over its UTF-8 bytes."""
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")).encode()
    b = np.frombuffer(text, dtype=np.uint8)
    quote = b == ord('"')
    if b"\\" in text:  # a quote is escaped when an odd run of backslashes ends before it
        idx = np.arange(len(b))
        run = idx - np.maximum.accumulate(np.where(b == ord("\\"), -1, idx))
        quote &= np.r_[0, run[:-1]] % 2 == 0
    kind = _JSON_KIND.take(b)
    kind[np.logical_xor.accumulate(quote)] = 0  # bytes inside strings
    opens, closes = kind == 1, kind == 2
    depth = np.cumsum(opens.view(np.int8) - closes.view(np.int8), dtype=np.int32)
    shut = np.r_[closes[1:], False]  # a close follows: "[]" and "{}" stay shut
    at = np.flatnonzero((opens ^ shut) | (kind == 3))  # a newline and indent after these
    gap = (kind == 4).astype(np.int32)  # one space after a colon
    gap[at] = 1 + 2 * np.minimum(depth[at], depth[at + 1])
    pos = np.arange(len(b))
    pos[1:] += np.cumsum(gap[:-1])
    out = np.full(int(pos[-1]) + 2, ord(" "), dtype=np.uint8)
    out[pos] = b
    out[pos[at] + 1] = out[-1] = ord("\n")
    return out.tobytes().decode()


def _dump_json(payload: dict, out: str | None) -> None:
    _emit_text(json_text(payload), out)


# ---------------------------------------------------------------------------
# decomposition JSON round-trip

def decomposition_to_payload(D: Decomposition) -> dict:
    payload = D.to_dict(include_cells=True)
    payload["schema"] = SCHEMA
    payload["command"] = "decompose"
    return payload


def load_decomposition(path: str) -> Decomposition:
    """Rebuild a Decomposition from `pcx decompose` JSON output."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    try:
        n, base = data["level"], data["base"]
        if type(n) is not int or type(base) is not int:
            raise ParseError(f"{path}: level and base must be JSON integers")
        level = Level(n, base)
        lists = [cls["cells"] for cls in data["classes"]]
        flat = list(chain.from_iterable(lists))
        kinds = set(map(type, chain.from_iterable(flat)))
        cells = np.array(flat, dtype=None if flat else np.int64).reshape(len(flat), 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} is not a decomposition document: {exc}") from exc
    if kinds - {int} or cells.dtype.kind != "i" or not all(lists):
        # no float, bool or over-int64 cells, no empty class: name the first culprit
        k = next(k for k, c in enumerate(lists) if not c or np.asarray(c).dtype.kind != "i"
                 or set(map(type, chain.from_iterable(c))) - {int})
        raise ParseError(f"{path}: class {k} is not a non-empty list of integer cells")
    raw = np.repeat(np.arange(len(lists)), [len(c) for c in lists])
    order = np.lexsort((cells[:, 0], cells[:, 1]))  # row-major, as from_cells has it
    cells, raw = cells[order], raw[order]
    if (cells[1:] == cells[:-1]).all(axis=1).any():  # checked before the budget
        raise ParseError(f"{path}: classes overlap — not a partition")
    return _partition_from_ids(GridCompactum.from_cells(level, cells), cells, raw)


# ---------------------------------------------------------------------------
# SVG rendering

def _class_color(cid: int) -> str:
    hue = zlib.crc32(f"class:{cid}".encode()) % 360
    return f"hsl({hue},62%,52%)"


def render_svg(K: GridCompactum, D: Decomposition | None = None) -> str:
    """One unit rect per cell, y flipped so the scene's up is up.  With a
    decomposition, cells are colored by a stable hash of their class id."""
    if D is not None:
        _check_partition(K, D)
    head = '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
    if K.is_empty:
        return (f'{head} width="16" height="16" viewBox="0 0 1 1">\n'
                '  <g id="cells"/>\n</svg>\n')
    i0, j0, i1, j1 = K.cell_bbox()
    w, h = i1 - i0 + 1, j1 - j0 + 1
    scale = 1024.0 / max(w, h)
    pw, ph = f"{w * scale:.3f}", f"{h * scale:.3f}"
    lines = [f'{head} width="{pw}" height="{ph}" viewBox="0 0 {w} {h}" '
             'shape-rendering="crispEdges">',
             '  <g id="cells">']
    if D is None:
        groups: list[tuple[str, np.ndarray]] = [("#1a1a1a", K.cells())]
    else:
        groups = [(_class_color(k), D.class_cells(k)) for k in range(D.class_count)]
    for color, cells in groups:
        lines.append(f'    <g fill="{color}">')
        lines += [f'      <rect x="{i - i0}" y="{j1 - j}" width="1" height="1"/>'
                  for i, j in cells.tolist()]
        lines.append('    </g>')
    lines.append('  </g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_gen(args: argparse.Namespace) -> int:
    K = _raster_for(args)
    mask = K.mask if not K.is_empty else np.zeros((1, 1), dtype=bool)
    data = emit_pbm(np.flipud(mask), "P1" if args.ascii_pbm else "P4")
    comment = (f"# pcx origin={K.origin[0]},{K.origin[1]} level={K.level.n} "
               f"base={K.level.base}\n").encode("ascii")
    magic, rest = data.split(b"\n", 1)
    _emit_bytes(magic + b"\n" + comment + rest, args.out)
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    K = _raster_for(args)
    lab = label_components(K, connectivity=8)
    payload = {
        "schema": SCHEMA,
        "command": "components",
        "level": K.level.n,
        "base": K.level.base,
        "cell_size": K.level.cell_size,
        "count": lab.count,
        "components": [{"id": k, "size": n, "cell_bbox": b, "diameter": d, "touches_frame": u}
                       for k, (n, b, d, u) in enumerate(lab._rows())],
    }
    _dump_json(payload, args.out)
    return 0


def _resolve_strips(args: argparse.Namespace, spec: SetSpec) -> list[Strip]:
    if args.strip == ["auto"]:
        return default_strip_family(spec, Level(min(args.levels), spec.base))
    return [_parse_strip(t) for t in args.strip]


def _cmd_scan(args: argparse.Namespace) -> int:
    spec = _spec_for(args)
    strips = _resolve_strips(args, spec)
    report = schoenflies_scan(spec, strips, args.levels)
    payload = {"schema": SCHEMA, "command": "scan", **report.to_dict()}
    _dump_json(payload, args.out)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    K, D = _decompose(args)
    if args.format == "svg":
        _emit_text(render_svg(K, D), args.out)
    elif args.format == "text":
        lines = [f"{D.class_count} classes at level {K.level.n} "
                 f"(cell_size {K.level.cell_size:.8g})"]
        lines += [f"  class {k}: size={j - i} diameter={d:.8g} rep=({r[0]},{r[1]})"
                  for k, (i, j, r, d) in enumerate(D._rows())]
        _emit_text("\n".join(lines) + "\n", args.out)
    else:
        _dump_json(decomposition_to_payload(D), args.out)
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    K, D = _decompose(args)
    G = quotient_graph(K, D)
    payload = {"schema": SCHEMA, "command": "quotient", **G.to_dict()}
    payload["monotone"] = monotone_check(K, D).to_dict()
    if args.contract:
        nodes, edges = contract_degree_two(G.nodes, G.edges)
        payload["contracted"] = {
            "nodes": list(nodes),
            "edges": [list(e) for e in edges],
            "is_simple_path": is_simple_path(nodes, edges),
        }
    _dump_json(payload, args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .decomposition import common_refinement, refines
    if not 0 <= args.tol < np.inf:
        raise GridError(f"tol must be finite and >= 0, got {args.tol}")
    A = load_decomposition(args.path_a)
    B = load_decomposition(args.path_b)
    a_ref_b = refines(A, B, tol=args.tol)
    b_ref_a = refines(B, A, tol=args.tol)
    payload = {
        "schema": SCHEMA,
        "command": "compare",
        "a_refines_b": a_ref_b,
        "b_refines_a": b_ref_a,
        "equal": a_ref_b and b_ref_a and args.tol == 0.0,
        "class_count_a": A.class_count,
        "class_count_b": B.class_count,
        "common_refinement_classes": common_refinement(A, B).class_count,
        "tol": args.tol,
    }
    _dump_json(payload, args.out)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    if args.format == "classes":
        K, D = _decompose(args)
    else:
        K, D = _raster_for(args), None
    _emit_text(render_svg(K, D), args.out)
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "components": _cmd_components,
    "scan": _cmd_scan,
    "decompose": _cmd_decompose,
    "quotient": _cmd_quotient,
    "compare": _cmd_compare,
    "render": _cmd_render,
}


# ---------------------------------------------------------------------------
# parser

def _add_source_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--gen", choices=GENERATOR_NAMES, help="built-in generator")
    g.add_argument("--in", dest="input_path", metavar="FILE.pbm",
                   help="PBM (P1/P4) input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dust-dim", type=int, choices=(1, 2), default=2)
    p.add_argument("--t-max", type=float, default=40.0)


def _add_relation_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nmin", type=int, default=4)
    p.add_argument("--delta", type=float, default=None,
                   help="cluster distance in scene units (default: 2 cells)")
    p.add_argument("--family", default="both", choices=_FAMILIES)
    p.add_argument("--stride", type=int, default=8)
    p.add_argument("--no-multi-level", dest="multi_level", action="store_false")
    p.add_argument("--deep-levels", type=int, default=3)
    p.add_argument("--deep-children", type=int, default=3)


_JOBS_HELP = "accepted, no effect: every command runs serially (must be >= 1)"


@functools.cache  # one parser per process, shared by every caller: do not modify it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pcx",
        description="Finite-resolution scans and core decompositions of "
                    "planar compacta on dyadic/ternary grids.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="rasterize a set and emit PBM")
    _add_source_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--ascii", dest="ascii_pbm", action="store_true",
                   help="P1 text instead of P4 binary")
    p.add_argument("--out", default=None)

    p = sub.add_parser("components", help="8-connected component report")
    _add_source_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scan", help="crossing-count scan over levels")
    _add_source_args(p)
    p.add_argument("--levels", required=True,
                   help="e.g. 2..6 or 3 or 2,4,6")
    p.add_argument("--strip", action="append", required=True, metavar="SPEC",
                   help="h:<c1>:<c2> / v:<c1>:<c2>, or auto (repeatable)")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("decompose", help="finite-scale core decomposition")
    _add_source_args(p)
    _add_relation_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--format", default="json", choices=("json", "svg", "text"))
    p.add_argument("--out", default=None)

    p = sub.add_parser("quotient", help="quotient graph of a decomposition")
    _add_source_args(p)
    _add_relation_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--contract", action="store_true",
                   help="also emit the degree-2 contraction")
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="refinement relations of two "
                                       "decomposition JSON files")
    p.add_argument("--a", dest="path_a", required=True)
    p.add_argument("--b", dest="path_b", required=True)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("render", help="SVG of a raster, optionally colored "
                                      "by decomposition classes")
    _add_source_args(p)
    _add_relation_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.add_argument("--format", default="plain", choices=("plain", "classes"))
    p.add_argument("--out", default=None)
    return ap


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "scan":  # the level list first, then the jobs check
            args.levels = _parse_levels(args.levels)
        if getattr(args, "jobs", 1) < 1:
            raise GridError("jobs must be >= 1")
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"pcx: input error: {exc}", file=sys.stderr)
        return 3
    except (GridError, DepthExceeded, WindowError, ValueError) as exc:
        print(f"pcx: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pcx: io error: {exc}", file=sys.stderr)
        return 3


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
