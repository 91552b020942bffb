"""Batch command line over the EMG text format.

Exit codes: 0 success, 1 property violation or census flag, 2 malformed
input, usage error or a file that cannot be read or written, 3 vertex
guard or sweep state bound exceeded.  ``--guard`` bounds the vertices on
the verbs whose cost is kernel search (``color``, ``critical``, ``cut``,
``census``); the verbs that one frontier sweep answers (``count``,
``extendset``, ``dominates``) take no guard, and the sweep's own bound on
its frontier colorings stops them instead.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Optional, Sequence

from . import analysis, coloring, families, surgery
from .embedding import (
    EmbeddedGraph,
    emit_emg,
    parse_emg,
    parse_emg_stream,
)
from .errors import (
    CatalogTooSmall,
    CylColorError,
    EMGParseError,
    FileAccessError,
    TooLarge,
)


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise EMGParseError(f"{path}: byte {exc.start} is not ASCII") from None
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc.strerror}") from None


def _load(path: Optional[str]) -> EmbeddedGraph:
    return parse_emg(_read_input(path))


def _write(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise FileAccessError(f"cannot write {path}: {exc.strerror}") from None


def _precolor_arg(text: str) -> dict[int, int]:
    """One --precolor value: comma separated v=c pairs."""
    out: dict[int, int] = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        k, _, v = chunk.partition("=")
        try:
            out[int(k)] = int(v)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"malformed entry {chunk!r} (expected v=c)"
            ) from None
    return out


def _vertices_arg(text: str) -> tuple[int, ...]:
    """A comma separated vertex list (--face, --q2, --q3)."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed vertex list {text!r} (expected v1,v2,...)"
        ) from None


def _count_arg(what: str, least: int):
    """The argparse type of a count flag: an integer of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed {what} {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{what} {value} is below {least}")
        return value

    return parse


_jobs_arg = _count_arg("worker count", 1)
_bound_arg = _count_arg("bound", 0)
_guard_arg = _count_arg("guard", 0)


def _parse_precolor(items: list[dict[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for item in items:
        out.update(item)
    return out


# Each --family name of `gen` and `census` with the generator it calls on
# the parsed flags.  The generators check their own bounds.  A framed-tw
# patch bound is read as max_internal, whether `--max-internal` or census's
# `--patch-bound` set it.
_FAMILIES = {
    "thomas-walls": lambda a: [families.thomas_walls(a.n)],
    "reduced": lambda a: [families.reduced_thomas_walls(a.n)[0]],
    "patches": lambda a: families.generate_patches(a.max_internal),
    "hexagon-disks": lambda a: families.generate_hexagon_disks(a.max_internal),
    "quad33": lambda a: families.generate_quad33(a.max_vertices),
    "near-quad33": lambda a: families.generate_near_quad33(a.max_vertices),
    "framed-tw": lambda a: families.generate_framed_patched(a.max_vertices, a.max_internal),
    "grid": lambda a: [families.cylinder_grid(a.width, a.layers)],
}


def _cmd_gen(args) -> int:
    graphs = _FAMILIES[args.family](args)
    if args.out_dir:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise FileAccessError(f"cannot make {args.out_dir}: {exc.strerror}") from None
        for g in graphs:
            name = hashlib.sha256(analysis.canonical_form(g)).hexdigest()[:16]
            _write(emit_emg(g), os.path.join(args.out_dir, f"{name}.emg"))
    else:
        _write("".join(emit_emg(g) for g in graphs), args.out)
    return 0


def _cmd_color(args) -> int:
    g = _load(args.input)
    if g.n > args.guard:
        raise TooLarge(f"{g.n} vertices exceeds guard {args.guard} (use --guard)")
    psi = coloring.Precoloring(_parse_precolor(args.precolor))
    result = coloring.extend(g, psi)
    if result is None:
        _write("UNSAT\n", args.out)
    else:
        lines = [f"color {v} {result[v]}" for v in sorted(result)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_count(args) -> int:
    g = _load(args.input)
    psi = coloring.Precoloring(_parse_precolor(args.precolor))
    _write(f"{coloring.count_colorings(g, psi)}\n", args.out)
    return 0


def _cmd_extendset(args) -> int:
    g = _load(args.input)
    es = coloring.extendable_set(g)
    lines = ["domain " + " ".join(map(str, es.ring_domain))]
    for member in sorted(es.members):
        lines.append("member " + " ".join(map(str, member)))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_critical(args) -> int:
    g = _load(args.input)
    report = analysis.is_critical(g, guard=args.guard)
    if report.is_critical:
        _write("critical=1\n", args.out)
    else:
        kind, detail = report.witness
        _write(f"critical=0 witness={kind}:{detail}\n", args.out)
    return 0


def _cmd_dominates(args) -> int:
    g1 = _load(args.input)
    g2 = parse_emg(_read_input(args.other))
    verdict = coloring.dominates(g1, g2)
    _write(f"dominates={int(verdict)}\n", args.out)
    return 0


def _cmd_classify(args) -> int:
    g = _load(args.input)
    try:
        w = analysis.recognize(g, args.catalog_bound, args.patch_bound)
    except CatalogTooSmall as exc:
        # the catalog cannot vouch for NEITHER: flag it, as census does
        print(f"note: {exc}", file=sys.stderr)
        _write("verdict=UNKNOWN\n", args.out)
        return 1
    _write(f"verdict={analysis.VERDICT_NAMES[w.verdict]}\n", args.out)
    return 0


def _cmd_faces(args) -> int:
    g = _load(args.input)
    fl = g.faces
    stats = analysis.face_deficiency(g)
    lines = []
    for i, f in enumerate(fl.faces):
        tag = " hole" if i in fl.ring_faces else ""
        lines.append(f"face {len(f)} " + " ".join(map(str, f)) + tag)
    lines.append(f"def_int={stats.deficiency_internal}")
    lines.append(f"def_all={stats.deficiency_all}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_chain(args) -> int:
    g = _load(args.input)
    cd = surgery.chain_decompose(g)
    lines = [f"chain n={cd.n}"]
    for i, c in enumerate(cd.cutting_cycles):
        lines.append(f"cycle {i}: " + " ".join(map(str, c)))
    _write("\n".join(lines) + "\n", args.out)
    violations = surgery.audit_chain(g, cd)
    return 1 if violations else 0


def _cmd_identify(args) -> int:
    g = _load(args.input)
    out = surgery.identify_across_face(g, args.face, args.diagonal)
    _write(emit_emg(out), args.out)
    return 0


def _cmd_contract_ladder(args) -> int:
    g = _load(args.input)
    out = surgery.ladder_contract(g, args.q2, args.q3)
    _write(emit_emg(out), args.out)
    return 0


def _cmd_cut(args) -> int:
    g = _load(args.input)
    out = surgery.cut_step(g, args.d0, guard=args.guard)
    _write(emit_emg(out), args.out)
    return 0


def _cmd_attach_ring(args) -> int:
    g = _load(args.input)
    out = families.attach_pendant_ring(g, args.vertex)
    _write(emit_emg(out), args.out)
    return 0


def _cmd_census(args) -> int:
    if args.family == "stdin":
        graphs = parse_emg_stream(_read_input(args.input))
    else:
        graphs = _FAMILIES[args.family](args)
    report = analysis.census(
        graphs,
        guard=args.guard,
        catalog_bound=args.catalog_bound,
        patch_bound=args.max_internal,
        jobs=args.jobs,
    )
    _write("\n".join(report.lines()) + "\n", args.out)
    return 1 if report.has_flags else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cylcolor",
        description="Exact 3-coloring toolkit for triangle-free graphs "
        "in the sphere, disk, and cylinder (EMG format in, EMG or text out).",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--in", dest="input", default=None, help="EMG input (default stdin)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    def guarded(sp):
        sp.add_argument("--guard", type=_guard_arg, default=22, help="vertex guard: larger graphs exit 3")

    sp = sub.add_parser("gen", help="generate a graph family as an EMG stream")
    sp.add_argument("--family", required=True, choices=list(_FAMILIES))
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--max-internal", type=int, default=2)
    sp.add_argument("--max-vertices", type=int, default=8)
    sp.add_argument("--width", type=int, default=4)
    sp.add_argument("--layers", type=int, default=3)
    sp.add_argument("--out", default=None)
    sp.add_argument("--out-dir", default=None, help="write one EMG file per graph")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("color", help="find a 3-coloring extending a precoloring")
    common(sp)
    guarded(sp)
    sp.add_argument(
        "--precolor", action="append", default=[], type=_precolor_arg,
        help="v=c pairs, comma separated",
    )
    sp.set_defaults(func=_cmd_color)

    sp = sub.add_parser("count", help="count 3-colorings extending a precoloring")
    common(sp)
    sp.add_argument("--precolor", action="append", default=[], type=_precolor_arg)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("extendset", help="list extendable ring precolorings")
    common(sp)
    sp.set_defaults(func=_cmd_extendset)

    sp = sub.add_parser("critical", help="test criticality relative to the rings")
    common(sp)
    guarded(sp)
    sp.set_defaults(func=_cmd_critical)

    sp = sub.add_parser("dominates", help="does the first graph dominate the second")
    common(sp)
    sp.add_argument("--other", required=True, help="EMG path of the second graph")
    sp.set_defaults(func=_cmd_dominates)

    sp = sub.add_parser("classify", help="recognize the construction family")
    common(sp)
    sp.add_argument("--catalog-bound", type=_bound_arg, default=20)
    sp.add_argument("--patch-bound", type=_bound_arg, default=4)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("faces", help="list faces and face-length statistics")
    common(sp)
    sp.set_defaults(func=_cmd_faces)

    sp = sub.add_parser("chain", help="maximum chain decomposition")
    common(sp)
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("identify", help="identify a diagonal across a 4-face")
    common(sp)
    sp.add_argument("--face", required=True, type=_vertices_arg, help="v1,v2,v3,v4")
    sp.add_argument("--diagonal", default="13", choices=["13", "24"])
    sp.set_defaults(func=_cmd_identify)

    sp = sub.add_parser("contract-ladder", help="contract the staircase between two layers")
    common(sp)
    sp.add_argument("--q2", required=True, type=_vertices_arg, help="comma separated layer cycle")
    sp.add_argument("--q3", required=True, type=_vertices_arg, help="comma separated layer cycle")
    sp.set_defaults(func=_cmd_contract_ladder)

    sp = sub.add_parser("cut", help="one cutting step (introduce a short cycle)")
    common(sp)
    guarded(sp)
    sp.add_argument("--d0", type=int, required=True)
    sp.set_defaults(func=_cmd_cut)

    sp = sub.add_parser("attach-ring", help="attach a pendant 4-ring at a vertex")
    common(sp)
    sp.add_argument("--vertex", type=int, required=True)
    sp.set_defaults(func=_cmd_attach_ring)

    sp = sub.add_parser("census", help="classification census over a family")
    sp.add_argument("--family", required=True, choices=["quad33", "framed-tw", "stdin"])
    sp.add_argument("--in", dest="input", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--max-vertices", type=int, default=8)
    sp.add_argument("--guard", type=_guard_arg, default=22)
    sp.add_argument("--catalog-bound", type=_bound_arg, default=20)
    sp.add_argument(
        "--patch-bound", dest="max_internal", metavar="PATCH_BOUND", type=_bound_arg, default=4
    )
    sp.add_argument("--jobs", type=_jobs_arg, default=1)
    sp.set_defaults(func=_cmd_census)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EMGParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CylColorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
