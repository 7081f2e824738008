"""Command-line entry points.

Subcommands build diagrams, check properties, compute congruence
lattices, enumerate the family with claim verification, search for
congruence-lattice representations, and export DOT. Reports go to
stdout as JSON; diagrams and DOT go to files. Exit status: 0 success
and all claims hold, 1 claim violation or search mismatch, 2 invalid
input or usage.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, io
from .campaign import (
    EnumSpec,
    boundary_ideal_facts,
    enumerate_family,
    search_representation,
    verify_claims,
)
from .congruence import at_most_two_covers, congruence_lattice, dual_atom_count, ji_congruences
from .construct import (
    GridSpec,
    cell_at,
    grid,
    insert_fork,
    rectangular_profile,
    run_script,
)
from .diagram import is_graded, is_semimodular, is_slim
from .errors import LatticeError, NotRectangular, ValidationError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2

PROP_NAMES = ("slim", "sm", "graded", "rect", "p1", "p2", "prime-ideals")

P2_HOLDS = "holds"
P2_EXEMPT = "exempt"
P2_FAILS = "fails"


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _cmd_grid(args) -> int:
    diagram = grid(GridSpec(args.p, args.q))
    out = Path(args.out) if args.out else Path(f"grid-{args.p}x{args.q}.json")
    io.save(diagram, out)
    _emit({"written": str(out), "n": diagram.n})
    return EXIT_OK


def _cmd_fork(args) -> int:
    diagram = io.load(args.input)
    result = insert_fork(diagram, cell_at(diagram, args.cell))
    in_path = Path(args.input)
    out = Path(args.out) if args.out else in_path.with_name(
        f"{in_path.stem}-fork{args.cell}.json"
    )
    io.save(result.diagram, out)
    _emit({
        "written": str(out),
        "n": result.diagram.n,
        "m": result.m,
        "left_leg": list(result.left_leg),
        "right_leg": list(result.right_leg),
    })
    return EXIT_OK


def _cmd_script(args) -> int:
    script = io.load_script(args.input)
    final, trace = run_script(script)
    in_path = Path(args.input)
    out = Path(args.out) if args.out else in_path.with_name(f"{in_path.stem}-result.json")
    io.save(final, out)
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for i, stage in enumerate(trace):
            io.save(stage, trace_dir / f"stage-{i:03d}.json")
    _emit({"written": str(out), "n": final.n, "stages": len(trace)})
    return EXIT_OK


def _cmd_check(args) -> int:
    diagram = io.load(args.input)
    props = args.props.split(",") if args.props else list(PROP_NAMES)
    for prop in props:
        if prop not in PROP_NAMES:
            raise ValidationError(f"unknown property {prop!r}; choose from {','.join(PROP_NAMES)}")
    report: dict = {}
    violated = False
    lattice_ji = functools.cache(lambda: ji_congruences(diagram))
    for prop in props:
        if prop == "slim":
            report["slim"] = is_slim(diagram)
            violated |= not report["slim"]
        elif prop == "sm":
            report["sm"] = is_semimodular(diagram)
            violated |= not report["sm"]
        elif prop == "graded":
            report["graded"] = is_graded(diagram)
            violated |= not report["graded"]
        elif prop == "rect":
            try:
                profile = rectangular_profile(diagram)
                report["rect"] = True
                report["c_l"] = profile.c_l
                report["c_r"] = profile.c_r
            except NotRectangular as exc:
                report["rect"] = False
                report["rect_reason"] = str(exc)
                violated = True
        elif prop == "p1":
            report["p1"] = at_most_two_covers(lattice_ji().up)
            violated |= not report["p1"]
        elif prop == "p2":
            if diagram.n <= 2:
                report["p2"] = P2_EXEMPT
            else:
                count = dual_atom_count(lattice_ji().up)
                report["p2"] = P2_HOLDS if count >= 2 else P2_FAILS
                report["dual_atoms"] = count
                violated |= count < 2
        elif prop == "prime-ideals":
            ok, detail = _prime_ideal_prop(diagram, lattice_ji)
            report["prime_ideals"] = ok
            report["prime_ideals_detail"] = detail
            violated |= not ok
    _emit(report)
    return EXIT_VIOLATION if violated else EXIT_OK


def _prime_ideal_prop(diagram, lattice_ji) -> tuple[bool, dict]:
    try:
        profile = rectangular_profile(diagram)
    except NotRectangular as exc:
        return False, {"reason": f"not rectangular: {exc}"}
    return boundary_ideal_facts(diagram, profile, lattice_ji())


def _cmd_con(args) -> int:
    diagram = io.load(args.input)
    if args.ji:
        ji = ji_congruences(diagram)
        covers = [[i, j] for i, ups in enumerate(ji.cover_lists()) for j in ups]
        _emit({"count": len(ji), "members": _block_lists(ji.members), "covers": covers})
    elif args.dual_atoms:
        atoms = ji_congruences(diagram).dual_atoms()
        _emit({"dual_atoms": len(atoms), "members": _block_lists(atoms)})
    else:
        con = congruence_lattice(diagram)
        _emit({"size": len(con), "congruences": _block_lists(con.members)})
    return EXIT_OK


def _block_lists(parts) -> list[list[list[int]]]:
    return [[list(b) for b in part.blocks()] for part in parts]


def _enum_spec(args) -> EnumSpec:
    return EnumSpec(
        p_max=args.pmax,
        q_max=args.qmax,
        max_forks=args.max_forks,
        max_elements=args.max_elements,
        max_classes=args.max_classes,
    )


def _cmd_enumerate(args) -> int:
    spec = _enum_spec(args)
    family = enumerate_family(spec)
    report = verify_claims(family)
    out_dir = Path(args.out)
    diagrams_dir = out_dir / "diagrams"
    diagrams_dir.mkdir(parents=True, exist_ok=True)
    classes = []
    for entry in family.members():
        digest = hashlib.sha256(entry.key).hexdigest()[:12]
        io.save(entry.diagram, diagrams_dir / f"{digest}.json")
        classes.append({
            "digest": digest,
            "file": f"diagrams/{digest}.json",
            "script": entry.script.to_obj(),
            **entry.stats(),
        })
    index_obj = {
        "tool_version": __version__,
        "enum_spec": spec.to_obj(),
        "classes": classes,
    }
    (out_dir / "index.json").write_text(io.canonical_json(index_obj), encoding="utf-8")
    (out_dir / "report.json").write_text(
        io.canonical_json(report.to_obj()), encoding="utf-8"
    )
    _emit(report.to_obj())
    return EXIT_OK if report.ok() else EXIT_VIOLATION


def _cmd_search(args) -> int:
    target = io.load(args.input)
    spec = _enum_spec(args)
    result = search_representation(target, spec)
    obj = result.to_obj()
    obj["enum_spec"] = spec.to_obj()
    obj["tool_version"] = __version__
    _emit(obj)
    # Replays each witness script and applies the scan's own J-order
    # comparison; tests check that comparison against the full Con L.
    for script in result.witnesses:
        replay, _ = run_script(script)
        if not result.matches(replay):
            print(f"error: witness {script.to_obj()} failed re-verification", file=sys.stderr)
            return EXIT_VIOLATION
    return EXIT_OK


def _cmd_render(args) -> int:
    diagram = io.load(args.input)
    text = io.render_dot(diagram)
    Path(args.dot).write_text(text, encoding="utf-8")
    _emit({"written": args.dot, "nodes": diagram.n})
    return EXIT_OK


def _add_bounds(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pmax", type=int, default=4)
    parser.add_argument("--qmax", type=int, default=4)
    parser.add_argument("--max-forks", type=int, default=3)
    parser.add_argument("--max-elements", type=int, default=40)
    parser.add_argument("--max-classes", type=int, default=100_000)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimfork",
        description="Build slim rectangular lattices by fork insertion and "
        "machine-check congruence-lattice properties over the family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("grid", help="write a grid diagram document")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("fork", help="insert a fork at a covering square")
    p.add_argument("input")
    p.add_argument("--cell", type=int, required=True, help="bottom element id of the square")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fork)

    p = sub.add_parser("script", help="run a fork script")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--trace-dir")
    p.set_defaults(func=_cmd_script)

    p = sub.add_parser("check", help="check structural and congruence properties")
    p.add_argument("input")
    p.add_argument("--props", help="comma list: " + ",".join(PROP_NAMES))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("con", help="print the congruence lattice")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ji", action="store_true")
    group.add_argument("--dual-atoms", dest="dual_atoms", action="store_true")
    p.set_defaults(func=_cmd_con)

    p = sub.add_parser("enumerate", help="enumerate the family and verify claims")
    _add_bounds(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("search", help="search congruence-lattice representations")
    p.add_argument("input")
    _add_bounds(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("render", help="export a diagram as DOT")
    p.add_argument("input")
    p.add_argument("--dot", required=True)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.func(args)
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
