"""File format and command surface.

Systems are stored as JSON objects (a strict subset of common structured
text: objects, arrays, numbers, strings):

    {"points": 4, "maps": [[1, 2, 2, 2], [1, 3, 3, 3]]}

``points`` is either a count or a list of distinct names; map entries
may use names when names are given.  Points are 0-indexed throughout.
Reports are JSON with a stable field order (command, decision, witness,
timing_ms, version); two runs on identical inputs differ at most in the
timing field.  Exit codes: 0 affirmative decision, 1 negative decision,
2 usage or validation error.

The SEED environment variable (default 7) fixes the sampling of ``lift``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import random
import sys
import time
from typing import Any, Optional, Sequence

import numpy as np

from . import __version__
from .conjugacy import (
    IncompatibleSystemsError,
    PartitionWitness,
    decide_conjugate,
    decide_partition,
    decide_piecewise,
    verify_partition_witness,
)
from .dynsys import FiniteSystem, ranges_pairwise_disjoint, restrict, colored_graph
from .fixtures import (
    FOUR_POINT_OVERLAP,
    FOUR_POINT_SPLIT_A,
    FOUR_POINT_SPLIT_B,
    TWO_POINT_CONSTANT,
    TWO_POINT_MIXED,
)
from .freeprod import U1nMatrix, lift_dual_check, sample_ball_points
from .quotient import entry_signature, local_signature, signatures_equivalent
from .reps import build_truncated_fock, check_ck_relations, decide_tensor_vs_semicrossed, row_norm
from .semicrossed import SemicrossedElement, apply_hom, partition_isomorphism


class FormatError(ValueError):
    """A system or matrix file fails validation."""


# ---- system files -------------------------------------------------------------


def parse_system(text: str) -> FiniteSystem:
    """Parse a system file, with field-level diagnostics on malformed input."""
    system, _ = parse_system_record(text)
    return system


def parse_system_record(text: str) -> tuple[FiniteSystem, Optional[list[str]]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid structured text: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    if "points" not in data or "maps" not in data:
        raise FormatError("fields 'points' and 'maps' are required")

    points = data["points"]
    names: Optional[list[str]] = None
    if isinstance(points, int) and not isinstance(points, bool):
        size = points
    elif isinstance(points, list):
        if not all(isinstance(p, str) for p in points):
            raise FormatError("field 'points': names must all be strings")
        if len(set(points)) != len(points):
            dup = sorted({p for p in points if points.count(p) > 1})
            raise FormatError(f"field 'points': duplicate names {dup}")
        names = list(points)
        size = len(names)
    else:
        raise FormatError("field 'points' must be a count or a list of names")
    if size < 1:
        raise FormatError("field 'points': need at least one point")

    labels = data.get("labels")
    if labels is not None:
        if names is not None:
            raise FormatError("give either named points or a labels list, not both")
        if not (isinstance(labels, list) and len(labels) == size):
            raise FormatError(f"field 'labels' must list {size} names")
        if not all(isinstance(v, str) for v in labels):
            raise FormatError("field 'labels': names must all be strings")
        if len(set(labels)) != len(labels):
            raise FormatError("field 'labels': duplicate names")
        names = list(labels)

    maps = data["maps"]
    if not isinstance(maps, list) or not maps:
        raise FormatError("field 'maps' must be a nonempty list of maps")
    index = {name: k for k, name in enumerate(names)} if names else {}
    tables = []
    for i, table in enumerate(maps):
        if not isinstance(table, list) or len(table) != size:
            raise FormatError(f"field 'maps'[{i}]: expected {size} entries")
        row = []
        for x, value in enumerate(table):
            if isinstance(value, str):
                if value not in index:
                    raise FormatError(f"field 'maps'[{i}][{x}]: unknown point name {value!r}")
                row.append(index[value])
            elif isinstance(value, int) and not isinstance(value, bool):
                if not (0 <= value < size):
                    raise FormatError(
                        f"field 'maps'[{i}][{x}]: image {value} out of range 0..{size - 1}"
                    )
                row.append(value)
            else:
                raise FormatError(f"field 'maps'[{i}][{x}]: not a point")
        tables.append(tuple(row))
    return FiniteSystem(size=size, tables=tuple(tables)), names


def dump_system(system: FiniteSystem, names: Optional[Sequence[str]] = None) -> str:
    """Canonical file text; parse(dump(s)) reproduces s and dump is stable."""
    record: dict[str, Any] = {}
    if names is None:
        record["points"] = system.size
    else:
        if len(names) != system.size or len(set(names)) != len(names):
            raise FormatError(f"need {system.size} distinct names")
        record["points"] = list(names)
    record["maps"] = [list(t) for t in system.tables]
    return json.dumps(record)


def parse_u1n(text: str) -> U1nMatrix:
    """Matrix file: {"n": N, "matrix": [[[re, im], ...], ...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid structured text: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "matrix" not in data:
        raise FormatError("fields 'n' and 'matrix' are required")
    n = data["n"]
    rows = data["matrix"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError("field 'n' must be a positive count")
    if not (
        isinstance(rows, list)
        and len(rows) == n + 1
        and all(isinstance(row, list) and len(row) == n + 1 for row in rows)
    ):
        raise FormatError(f"field 'matrix' must be {n + 1}x{n + 1}")
    if not all(_is_pair(entry) for row in rows for entry in row):
        raise FormatError("field 'matrix' must hold [re, im] pairs of numbers")
    try:
        return U1nMatrix(n=n, matrix=np.array([[complex(*e) for e in row] for row in rows]))
    except (ValueError, OverflowError) as exc:
        raise FormatError(str(exc)) from None


def _is_pair(entry: Any) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    )


def dump_u1n(x: U1nMatrix) -> str:
    return json.dumps(
        {
            "n": x.n,
            "matrix": [
                [[value.real, value.imag] for value in row] for row in x.matrix.tolist()
            ],
        }
    )


# ---- witness serialization ----------------------------------------------------


def _scalar_json(value) -> list[str]:
    return [str(value.re), str(value.im)]


def _element_json(element: SemicrossedElement) -> list[list[Any]]:
    out = []
    for word in sorted(element.terms, key=lambda w: (len(w), w)):
        coeff = element.terms[word]
        out.append([list(word), [_scalar_json(v) for v in coeff.values]])
    return out


def _plain(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _witness_json(witness) -> dict[str, Any]:
    """A decider's witness as a JSON object, one key per dataclass field."""
    return {f.name: _plain(getattr(witness, f.name)) for f in dataclasses.fields(witness)}


def witness_to_partition(data: dict[str, Any]) -> PartitionWitness:
    """Rebuild a witness from its report form, for replaying verification."""
    return PartitionWitness(
        gamma=tuple(data["gamma"]), alpha=tuple(tuple(p) for p in data["alpha"])
    )


# ---- commands ------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _cmd_check(args) -> tuple[bool, Any]:
    if args.recolor and args.mode != "conjugate":
        raise FormatError("--recolor applies only to --mode conjugate")
    a = parse_system(_read(args.system_a))
    b = parse_system(_read(args.system_b))
    if args.mode == "conjugate":
        witness = decide_conjugate(a, b, allow_recolor=args.recolor)
    elif args.mode == "piecewise":
        witness = decide_piecewise(a, b)
    else:
        witness = decide_partition(a, b)
    if witness is None:
        return False, None
    return True, _witness_json(witness)


def _cmd_signature(args) -> tuple[Optional[bool], Any]:
    system = parse_system(_read(args.system))
    if args.point is not None:
        sig = local_signature(system, args.point)
    else:
        sig = entry_signature(restrict(system, range(system.size)))
    return None, {"signature": list(sig)}


def _cmd_signature_compare(args) -> tuple[bool, Any]:
    a = parse_system(_read(args.system_a))
    b = parse_system(_read(args.system_b))
    if args.point is not None:
        s1 = local_signature(a, args.point)
        s2 = local_signature(b, args.point)
    else:
        s1 = entry_signature(restrict(a, range(a.size)))
        s2 = entry_signature(restrict(b, range(b.size)))
    same = signatures_equivalent(s1, s2)
    return same, {"left": list(s1), "right": list(s2)}


def _cmd_tensor(args) -> tuple[bool, Any]:
    system = parse_system(_read(args.system))
    decision = decide_tensor_vs_semicrossed(system)
    if decision.isomorphic:
        bumps = [
            [1 if not v.is_zero() else 0 for v in bump.values]
            for bump in decision.bump_functions
        ]
        return True, {"bumps": bumps}
    z, (x1, i), (x2, j) = decision.overlap
    rep = decision.obstruction
    norm = row_norm([rep.generator_image(k) for k in range(system.arity)])
    return False, {
        "overlap": {"point": z, "preimages": [[x1, i], [x2, j]]},
        "row_norm": norm,
    }


def _cmd_iso_build(args) -> tuple[bool, Any]:
    a = parse_system(_read(args.system_a))
    b = parse_system(_read(args.system_b))
    witness = decide_partition(a, b)
    if witness is None:
        return False, None
    forward, reverse = partition_isomorphism(a, b, witness)
    round_trip_ok = all(
        apply_hom(reverse, apply_hom(forward, SemicrossedElement.generator(a, i)))
        == SemicrossedElement.generator(a, i)
        for i in range(a.arity)
    )
    return True, {
        **_witness_json(witness),
        "forward_generators": [_element_json(e) for e in forward.generator_images],
        "reverse_generators": [_element_json(e) for e in reverse.generator_images],
        "round_trip_on_generators": round_trip_ok,
    }


def _cmd_lift(args) -> tuple[bool, Any]:
    x = parse_u1n(_read(args.u1n))
    if args.degree < 0:
        raise FormatError("--degree must be nonnegative")
    if args.samples < 1:
        raise FormatError("--samples must be positive")
    rng = random.Random(_seed())
    points = sample_ball_points(rng, x.n, args.samples, radius=0.9)
    report = lift_dual_check(x, args.degree, points)
    certified = report.deviation <= report.certified_tail + 1e-10
    return certified, {
        "deviation": report.deviation,
        "certified_tail": report.certified_tail,
        "samples": args.samples,
    }


def _cmd_fock(args) -> tuple[bool, Any]:
    system = parse_system(_read(args.system))
    if args.subset is not None:
        items = args.subset.split(",")
        if not all(v.isascii() and v.isdigit() for v in items):
            raise FormatError("--subset must be a comma-separated list of points")
        subset = [int(v) for v in items]
        if len(set(subset)) != len(subset):
            raise FormatError("--subset lists a point twice")
    else:
        subset = list(range(system.size))
    if args.depth < 1:
        raise FormatError("--depth must be at least 1")
    graph = colored_graph(restrict(system, subset))
    family = build_truncated_fock(graph, args.depth)
    report = check_ck_relations(family)
    ok = report.passed_exact_relations and report.defect_structure_ok
    return ok, {
        "dimension": family.dim,
        "relations": {
            "initial_projections": report.initial_projections_ok,
            "orthogonality": report.orthogonality_ok,
            "defect_structure": report.defect_structure_ok,
            "monochrome_cuntz": report.monochrome_cuntz_ok,
        },
        "defects": [
            {
                "colour": d.colour,
                "vertex": d.vertex,
                "vacuum_positions": list(d.vacuum_positions),
                "off_colour_positions": list(d.off_colour_positions),
            }
            for d in report.defects
        ],
    }


def _cmd_selftest(_args) -> tuple[bool, Any]:
    checks: list[tuple[str, bool]] = []

    piecewise = decide_piecewise(TWO_POINT_MIXED, TWO_POINT_CONSTANT)
    checks.append(("two-point pair is piecewise matchable", piecewise is not None))
    checks.append(
        ("two-point pair is not partition matchable",
         decide_partition(TWO_POINT_MIXED, TWO_POINT_CONSTANT) is None)
    )
    checks.append(
        ("two-point signatures separate",
         not signatures_equivalent(
             local_signature(TWO_POINT_MIXED, 0), local_signature(TWO_POINT_CONSTANT, 0)
         ))
    )
    disjoint, overlap = ranges_pairwise_disjoint(FOUR_POINT_OVERLAP)
    checks.append(("overlap fixture has overlapping ranges at point 1",
                   not disjoint and overlap == (0, 1, 1)))
    witness = decide_partition(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B)
    ok = witness is not None and verify_partition_witness(
        FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, witness
    ).passed
    checks.append(("split fixtures carry a verified partition witness", ok))
    decision = decide_tensor_vs_semicrossed(FOUR_POINT_OVERLAP)
    rep = decision.obstruction
    norm = row_norm([rep.generator_image(k) for k in range(2)])
    checks.append(
        ("overlap fixture row norm is sqrt(2)", abs(norm - math.sqrt(2)) < 1e-12)
    )
    all_ok = all(ok for _, ok in checks)
    return all_ok, {"checks": [{"name": name, "ok": ok} for name, ok in checks]}


# ---- driver ---------------------------------------------------------------------


def _seed() -> int:
    return int(os.environ.get("SEED", "7"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures inside run_command
        raise FormatError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="dynalg", description="finite dynamical system toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a conjugacy notion between two systems")
    check.add_argument("--mode", choices=["conjugate", "piecewise", "partition"], required=True)
    check.add_argument("--recolor", action="store_true",
                       help="allow one global colour permutation (conjugate mode only)")
    check.add_argument("system_a")
    check.add_argument("system_b")
    check.set_defaults(func=_cmd_check)

    signature = sub.add_parser("signature", help="entry signature of a system")
    signature.add_argument("system")
    signature.add_argument("--point", type=int, default=None,
                           help="local signature at this point instead of the full system")
    signature.set_defaults(func=_cmd_signature)

    sig_cmp = sub.add_parser("signature-compare", help="compare entry signatures")
    sig_cmp.add_argument("system_a")
    sig_cmp.add_argument("system_b")
    sig_cmp.add_argument("--point", type=int, default=None)
    sig_cmp.set_defaults(func=_cmd_signature_compare)

    tensor = sub.add_parser("tensor-vs-semicrossed",
                            help="decide whether the two completions coincide")
    tensor.add_argument("system")
    tensor.set_defaults(func=_cmd_tensor)

    iso = sub.add_parser("iso-build", help="build the isomorphism pair from a partition witness")
    iso.add_argument("system_a")
    iso.add_argument("system_b")
    iso.set_defaults(func=_cmd_iso_build)

    lift = sub.add_parser("lift", help="lift a U(1,n) matrix and check its boundary map")
    lift.add_argument("--u1n", required=True, help="matrix file")
    lift.add_argument("--degree", type=int, required=True)
    lift.add_argument("--samples", type=int, required=True)
    lift.set_defaults(func=_cmd_lift)

    fock = sub.add_parser("fock", help="truncated path-space family of a restriction")
    fock.add_argument("system")
    fock.add_argument("--subset", default=None, help="comma-separated point list")
    fock.add_argument("--depth", type=int, required=True)
    fock.set_defaults(func=_cmd_fock)

    selftest = sub.add_parser("selftest", help="run the built-in fixture checks")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def run_command(argv: Sequence[str]) -> tuple[dict[str, Any], int]:
    """Execute one command; returns (report, exit code) without printing."""
    started = time.perf_counter()
    command_echo = list(argv)

    def report(decision, witness, error=None) -> dict[str, Any]:
        out: dict[str, Any] = {"command": command_echo, "decision": decision}
        if witness is not None:
            out["witness"] = witness
        if error is not None:
            out["error"] = error
        out["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        out["version"] = __version__
        return out

    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        decision, witness = args.func(args)
    except (FormatError, IncompatibleSystemsError, ValueError) as exc:
        return report(None, None, error=str(exc)), 2
    if decision is None:
        return report(None, witness), 0
    return report(bool(decision), witness), 0 if decision else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    report, code = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
