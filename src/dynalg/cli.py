"""File format and command surface.

Systems are stored as JSON objects (a strict subset of common structured
text: objects, arrays, numbers, strings):

    {"points": 4, "maps": [[1, 2, 2, 2], [1, 3, 3, 3]]}

``points`` is either a count or a list of distinct names; map entries
may use names when names are given.  Points are 0-indexed throughout.
This module parses JSON and resolves names; ``FiniteSystem`` checks the
tables, library functions check the flags, and any ``ValueError`` exits 2.
Each command's arguments are declared once, in ``_COMMANDS``.  A well-formed
command line is read from that table in one pass; argparse, built from the
same table, reads every other line and words all help text and usage errors.
Integer flags and ``--subset`` items are ASCII digits only.
Commands reach the library through the package (``dynalg.reps``), which
imports a module on first use, so a command loads only the layers it
calls.  Only ``lift`` and ``selftest`` load numpy: ``tensor-vs-semicrossed``
reports the obstruction's row norm exactly, off the first row of its
generator images (:meth:`dynalg.reps.NestRep.generator_row_norm`), and
``fock`` checks the path-space relations on partial maps, so neither builds
a dense matrix.
Reports are JSON with a stable field order (command, decision, witness,
timing_ms, version); two runs on identical inputs differ at most in the
timing field, and :func:`read_witness` turns a ``check`` or ``iso-build``
report back into its decider's witness.  Exit codes: 0 affirmative
decision, 1 negative decision, 2 usage or validation error, 4 a fault of
the program (a report with a null decision and the error, the traceback
on stderr); 3 is kept for a decision left undecided.  A help
request (-h, --help) is a report with a null decision and the help text
in its ``usage`` field, exit 0, which :func:`main` prints as plain text.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import random
import stat
import sys
import time
from typing import Any, Optional, Sequence

import dynalg

from . import __version__
from .dynsys import (
    FiniteSystem, _int_in, _is_int, colored_graph, entry_signature, full_subsystem, local_signature,
    ranges_pairwise_disjoint, restrict, signatures_equivalent,
)


class FormatError(ValueError):
    """A system or matrix file fails validation."""


# ---- system files -------------------------------------------------------------


def parse_system(text: str) -> FiniteSystem:
    """Parse a system file, with field-level diagnostics on malformed input."""
    system, _ = parse_system_record(text)
    return system


_DECODER = json.JSONDecoder()
_BLANK = " \t\n\r"  # the whitespace JSON allows around a value


def _load_json(text: str) -> Any:
    """The parsed text; malformed or too deeply nested text is a :class:`FormatError`,
    and so is an integer past the interpreter's digit limit for conversion.

    One scan by the decoder's ``raw_decode``, which refuses what
    :func:`json.loads` refuses with the same message, without its two
    whitespace regex passes.
    """
    try:
        if text[:1] == "\ufeff":
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data, end = _DECODER.raw_decode(text, len(text) - len(text.lstrip(_BLANK)))
        if end != len(text) and (rest := text[end:].lstrip(_BLANK)):
            raise json.JSONDecodeError("Extra data", text, len(text) - len(rest))
        return data
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"not valid structured text: {exc}") from None


def parse_system_record(text: str) -> tuple[FiniteSystem, Optional[list[str]]]:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    if "points" not in data or "maps" not in data:
        raise FormatError("fields 'points' and 'maps' are required")

    points, labels, maps = data["points"], data.get("labels"), data["maps"]
    names: Optional[list[str]] = None
    if type(points) is int or _is_int(points):  # a plain int spares the call
        size = points
    elif isinstance(points, list):
        names = _distinct_strings("points", points)
        size = len(names)
    else:
        raise FormatError("field 'points' must be a count or a list of names")
    if labels is not None:
        if names is not None:
            raise FormatError("give either named points or a labels list, not both")
        names = _distinct_strings("labels", labels)
        if len(names) != size:
            raise FormatError(f"field 'labels' must list {size} names")

    index = {} if names is None else {name: k for k, name in enumerate(names)}
    try:  # without point names, FiniteSystem alone checks the tables
        tables = maps if names is None else [_resolved(i, table, index) for i, table in enumerate(_lists(maps))]
        return FiniteSystem(size=size, tables=tables), names
    except (TypeError, ValueError) as exc:
        # Only a refusal is diagnosed: the maps' shape, then a string entry, then the table error.
        for i, table in enumerate(_lists(maps)):
            _resolved(i, table, index)
        raise FormatError(str(exc)) from None


def _lists(maps: Any) -> list:
    if not (isinstance(maps, list) and all(isinstance(table, list) for table in maps)):
        raise FormatError("field 'maps' must be a list of lists")
    return maps


def _resolved(i: int, table: list, index: dict[str, int]) -> list:
    """Map ``i`` with its point names replaced by their indices."""
    row = []
    for x, value in enumerate(table):
        if isinstance(value, str):
            if value not in index:
                raise FormatError(f"field 'maps'[{i}][{x}]: unknown point name {value!r}")
            value = index[value]
        row.append(value)
    return row


def _distinct_strings(field: str, values: Any) -> list[str]:
    if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
        raise FormatError(f"field '{field}' must be a list of strings")
    if len(set(values)) != len(values):
        raise FormatError(f"field '{field}': duplicate names")
    return values


def dump_system(system: FiniteSystem, names: Optional[Sequence[str]] = None) -> str:
    """Canonical file text; parse(dump(s)) reproduces s and dump is stable."""
    if names is not None:
        if not all(isinstance(name, str) for name in names):
            raise FormatError("point names must be strings")
        if len(names) != system.size or len(set(names)) != len(names):
            raise FormatError(f"need {system.size} distinct names")
    points = system.size if names is None else list(names)
    return json.dumps({"points": points, "maps": [list(t) for t in system.tables]})


def parse_u1n(text: str) -> dynalg.freeprod.U1nMatrix:
    """Matrix file: {"n": N, "matrix": [[[re, im], ...], ...]}."""
    data = _load_json(text)
    if not isinstance(data, dict) or "n" not in data or "matrix" not in data:
        raise FormatError("fields 'n' and 'matrix' are required")
    rows = data["matrix"]
    try:  # every refusal below is a FormatError
        n = _int_in(data["n"], "field 'n'", 1)
        if not (
            isinstance(rows, list)
            and len(rows) == n + 1
            and all(isinstance(row, list) and len(row) == n + 1 for row in rows)
        ):
            raise FormatError(f"field 'matrix' must be {n + 1}x{n + 1}")
        if not all(isinstance(entry, list) and len(entry) == 2 for row in rows for entry in row):
            raise FormatError("field 'matrix' must hold [re, im] pairs of numbers")
        import numpy as np  # lift alone reads a matrix file

        part = dynalg.freeprod._as_finite
        matrix = np.array([
            [complex(part(re, f"matrix[{r}][{c}] real part").real, part(im, f"matrix[{r}][{c}] imaginary part").real)
             for c, (re, im) in enumerate(row)]
            for r, row in enumerate(rows)
        ])  # a complex ndarray of finite entries, which U1nMatrix converts whole
        return dynalg.freeprod.U1nMatrix(n=n, matrix=matrix)
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc)) from None


def dump_u1n(x: dynalg.freeprod.U1nMatrix) -> str:
    return json.dumps(
        {
            "n": x.n,
            "matrix": [
                [[value.real, value.imag] for value in row] for row in x.matrix.tolist()
            ],
        }
    )


# ---- witness serialization ----------------------------------------------------


def _element_json(element: dynalg.semicrossed.SemicrossedElement) -> list[list[Any]]:
    # Each value's parts printed straight off its (a, b, d) triple.
    text, out = dynalg.scalars._ratio_text, []
    for word in sorted(element.terms, key=lambda w: (len(w), w)):
        coeff = element.terms[word]
        out.append([list(word), [[text(a, d), text(b, d)] for a, b, d in coeff._triples]])
    return out


# Each witness field has a fixed depth: gamma and recolor are permutations
# (recolor may be None), alpha is one permutation per point.
_FIELD_DEPTH = {"gamma": 1, "recolor": 1, "alpha": 2}
# The witness class of each check mode; an iso-build witness is a partition witness.
_KINDS = {"conjugate": "ConjugacyWitness", "piecewise": "PiecewiseWitness", "partition": "PartitionWitness"}


def _nested(value, depth: int, kind: type):
    """``value`` with its one or two levels of sequences rebuilt as ``kind``; None
    stays, and so does an inner item that is no tuple or list, for the witness
    check to refuse."""
    if value is None:
        return None
    return kind(value) if depth == 1 else kind(kind(v) if isinstance(v, (tuple, list)) else v for v in value)


def _witness_json(witness) -> dict[str, Any]:
    """A decider's witness as a JSON object, one key per dataclass field."""
    return {
        f.name: _nested(getattr(witness, f.name), _FIELD_DEPTH[f.name], list)
        for f in dataclasses.fields(witness)
    }


def read_witness(report: dict[str, Any]):
    """The decider's witness behind a ``check`` or ``iso-build`` report, or None
    when the report has none; the inverse of :func:`_witness_json`.

    The witness JSON does not say its kind (piecewise and partition witnesses
    look alike), so the kind comes from the echoed command line, read by the
    same table as the command itself.  A report of any other command raises
    :class:`FormatError`, and so does a malformed one, naming the field:
    ``command`` must be a list of strings and ``witness`` an object holding
    every field of its kind, each a list (``recolor`` may be null).  Any
    fault inside a field is left to :func:`dynalg.conjugacy.verify_witness`.
    """
    command = report.get("command") if isinstance(report, dict) else None
    if not (isinstance(command, list) and all(isinstance(item, str) for item in command)):
        raise FormatError("field 'command' must be a list of strings")
    args = _parse_args(command)
    if args.func not in (_cmd_check, _cmd_iso_build):
        raise FormatError(f"a {command[0]} report carries no decider witness")
    if "witness" not in report:
        return None
    kind = getattr(dynalg.conjugacy, _KINDS[getattr(args, "mode", "partition")])
    data, names = report["witness"], [f.name for f in dataclasses.fields(kind)]
    if not isinstance(data, dict):
        raise FormatError("field 'witness' must be an object")
    for name in names:
        if name not in data or not (isinstance(data[name], list) or name == "recolor" and data[name] is None):
            raise FormatError(f"witness field '{name}' must be a list" + " or null" * (name == "recolor"))
    return kind(*(_nested(data[name], _FIELD_DEPTH[name], tuple) for name in names))


# ---- commands ------------------------------------------------------------------


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError.

    One read, sized by ``fstat``, takes a regular file whole; a file that
    reads longer than its size (a pipe, or one still growing) is read on
    to its end.  A directory is refused as :func:`open` refuses it, naming
    the path.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            data = os.read(fd, status.st_size + 1)
            if len(data) > status.st_size:
                chunks = [data]
                while chunk := os.read(fd, 1 << 16):
                    chunks.append(chunk)
                data = b"".join(chunks)
        finally:
            os.close(fd)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    return data.decode("utf-8")


def _cmd_check(args) -> tuple[bool, Any]:
    if args.recolor and args.mode != "conjugate":
        raise FormatError("--recolor applies only to --mode conjugate")
    a = parse_system(_read(args.system_a))
    b = parse_system(_read(args.system_b))
    if args.mode == "conjugate":
        witness = dynalg.conjugacy.decide_conjugate(a, b, allow_recolor=args.recolor)
    elif args.mode == "piecewise":
        witness = dynalg.conjugacy.decide_piecewise(a, b)
    else:
        witness = dynalg.conjugacy.decide_partition(a, b)
    if witness is None:
        return False, None
    return True, _witness_json(witness)


def _signature(system: FiniteSystem, point: Optional[int]) -> tuple:
    """The local signature at ``point``, or the full entry signature without one."""
    if point is not None:
        return local_signature(system, point)
    return entry_signature(full_subsystem(system))


def _cmd_signature(args) -> tuple[Optional[bool], Any]:
    system = parse_system(_read(args.system))
    return None, {"signature": list(_signature(system, args.point))}


def _cmd_signature_compare(args) -> tuple[bool, Any]:
    s1 = _signature(parse_system(_read(args.system_a)), args.point)
    s2 = _signature(parse_system(_read(args.system_b)), args.point)
    return signatures_equivalent(s1, s2), {"left": list(s1), "right": list(s2)}


def _cmd_tensor(args) -> tuple[bool, Any]:
    system = parse_system(_read(args.system))
    decision = dynalg.reps.decide_tensor_vs_semicrossed(system)
    if decision.isomorphic:
        bumps = [
            [1 if a or b else 0 for a, b, _ in bump._triples]
            for bump in decision.bump_functions
        ]
        return True, {"bumps": bumps}
    z, (x1, i), (x2, j) = decision.overlap
    return False, {
        "overlap": {"point": z, "preimages": [[x1, i], [x2, j]]},
        "row_norm": decision.obstruction.generator_row_norm(),
    }


def _cmd_iso_build(args) -> tuple[bool, Any]:
    a = parse_system(_read(args.system_a))
    b = parse_system(_read(args.system_b))
    witness = dynalg.conjugacy.decide_partition(a, b)
    if witness is None:
        return False, None
    semicrossed = dynalg.semicrossed
    forward, reverse = semicrossed.partition_isomorphism(a, b, witness)
    images, generator = forward.generator_images, semicrossed.SemicrossedElement.generator
    return True, {
        **_witness_json(witness),
        "forward_generators": [_element_json(e) for e in images],
        "reverse_generators": [_element_json(e) for e in reverse.generator_images],
        "round_trip_on_generators": all(
            semicrossed.apply_hom(reverse, image) == generator(a, i) for i, image in enumerate(images)
        ),
    }


def _cmd_lift(args) -> tuple[bool, Any]:
    x = parse_u1n(_read(args.u1n))
    freeprod = dynalg.freeprod
    freeprod.check_lift_work(x.n, args.degree, args.samples)  # before drawing the samples
    rng = random.Random(7)  # a fixed seed, so two runs draw the same points
    points = freeprod.sample_ball_points(rng, x.n, args.samples, radius=0.9)
    report = freeprod.lift_dual_check(x, args.degree, points)
    certified = report.deviation <= report.certified_tail + 1e-10
    return certified, {
        "deviation": report.deviation,
        "certified_tail": report.certified_tail,
        "samples": args.samples,
    }


def _cmd_fock(args) -> tuple[bool, Any]:
    system = parse_system(_read(args.system))
    if args.subset is not None:
        try:
            subset = [_digits(v) for v in args.subset.split(",")]
        except argparse.ArgumentTypeError:
            raise FormatError("--subset must be a comma-separated list of points") from None
    else:
        subset = list(range(system.size))
    graph = colored_graph(restrict(system, subset))
    family = dynalg.reps.build_truncated_fock(graph, args.depth)
    report = dynalg.reps.check_ck_relations(family)
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
    conjugacy, fixtures, reps = dynalg.conjugacy, dynalg.fixtures, dynalg.reps
    mixed, constant = fixtures.TWO_POINT_MIXED, fixtures.TWO_POINT_CONSTANT
    split_a, split_b = fixtures.FOUR_POINT_SPLIT_A, fixtures.FOUR_POINT_SPLIT_B
    checks: list[tuple[str, bool]] = []

    piecewise = conjugacy.decide_piecewise(mixed, constant)
    checks.append(("two-point pair is piecewise matchable", piecewise is not None))
    checks.append(
        ("two-point pair is not partition matchable",
         conjugacy.decide_partition(mixed, constant) is None)
    )
    checks.append(
        ("two-point signatures separate",
         not signatures_equivalent(local_signature(mixed, 0), local_signature(constant, 0)))
    )
    disjoint, overlap = ranges_pairwise_disjoint(fixtures.FOUR_POINT_OVERLAP)
    checks.append(("overlap fixture has overlapping ranges at point 1",
                   not disjoint and overlap == (0, 1, 1)))
    witness = conjugacy.decide_partition(split_a, split_b)
    ok = witness is not None and conjugacy.verify_witness(split_a, split_b, witness).passed
    checks.append(("split fixtures carry a verified partition witness", ok))
    decision = reps.decide_tensor_vs_semicrossed(fixtures.FOUR_POINT_OVERLAP)
    rep = decision.obstruction
    norm = reps.row_norm([rep.generator_image(k) for k in range(2)])
    checks.append(
        ("overlap fixture row norm is sqrt(2)", abs(norm - math.sqrt(2)) < 1e-12)
    )
    all_ok = all(ok for _, ok in checks)
    return all_ok, {"checks": [{"name": name, "ok": ok} for name, ok in checks]}


# ---- driver ---------------------------------------------------------------------


def _digits(text: str) -> int:
    """The integer that ``text`` spells in ASCII digits; the one rule for integer text.

    Signs, spaces, underscores and non-ASCII digits, all of which ``int``
    reads, are refused, for every integer flag and each ``--subset`` item, and
    so is a digit string past the interpreter's integer conversion limit.
    """
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# Each command's help line, handler and arguments, declared once; an argument
# is its flag or positional name and its add_argument keywords, in help order.
# _build_parser hands the keywords to argparse as they stand; _read_args reads
# the same keywords, and only these: type, choices, required,
# action="store_true", default and help.
_COMMANDS: dict[str, tuple[str, Any, tuple[tuple[str, dict[str, Any]], ...]]] = {
    "check": ("decide a conjugacy notion between two systems", _cmd_check, (
        ("--mode", {"choices": ["conjugate", "piecewise", "partition"], "required": True}),
        ("--recolor", {"action": "store_true",
                       "help": "allow one global colour permutation (conjugate mode only)"}),
        ("system_a", {}),
        ("system_b", {}),
    )),
    "signature": ("entry signature of a system", _cmd_signature, (
        ("system", {}),
        ("--point", {"type": _digits, "default": None,
                     "help": "local signature at this point instead of the full system"}),
    )),
    "signature-compare": ("compare entry signatures", _cmd_signature_compare, (
        ("system_a", {}),
        ("system_b", {}),
        ("--point", {"type": _digits, "default": None}),
    )),
    "tensor-vs-semicrossed": (
        "decide whether the two completions coincide", _cmd_tensor, (("system", {}),)),
    "iso-build": ("build the isomorphism pair from a partition witness", _cmd_iso_build, (
        ("system_a", {}),
        ("system_b", {}),
    )),
    "lift": ("lift a U(1,n) matrix and check its boundary map", _cmd_lift, (
        ("--u1n", {"required": True, "help": "matrix file"}),
        ("--degree", {"type": _digits, "required": True}),
        ("--samples", {"type": _digits, "required": True}),
    )),
    "fock": ("truncated path-space family of a restriction", _cmd_fock, (
        ("system", {}),
        ("--subset", {"default": None, "help": "comma-separated point list"}),
        ("--depth", {"type": _digits, "required": True}),
    )),
    "selftest": ("run the built-in fixture checks", _cmd_selftest, ()),
}


def _spec(command: str) -> tuple:
    """How :func:`_read_args` reads ``command``, taken from its declared table
    once: its handler; each flag's dest, whether it is a switch, its converter
    and its choices; the positionals' names; the required flags' dests; and
    each optional flag's dest and default."""
    _, func, declared = _COMMANDS[command]
    flags, positionals, required, defaults = {}, [], [], []
    for name, options in declared:
        if name[0] != "-":
            positionals.append(name)
            continue
        dest, switch = name.lstrip("-").replace("-", "_"), options.get("action") == "store_true"
        flags[name] = (dest, switch, options.get("type"), options.get("choices"))
        if options.get("required"):
            required.append(dest)
        else:
            defaults.append((dest, options.get("default", False if switch else None)))
    return func, flags, tuple(positionals), frozenset(required), tuple(defaults)


_SPECS = {command: _spec(command) for command in _COMMANDS}


def _read_args(command: str, tokens: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``command``'s parser gives for a well-formed line, read in one pass.

    Reads exact flag names, one value after each value flag, switches and
    positionals in order, and checks each value with its converter and choices.
    Anything else is None: a help request, an abbreviated flag, ``--flag=value``,
    ``--``, a repeated flag, any other token or value that starts with ``-``, a
    value the converter or choices refuse, a missing or an extra argument.  The
    command's argparse parser then reads the line, so argparse alone words help
    and usage errors.
    """
    func, flags, positionals, required, defaults = _SPECS[command]
    values: dict[str, Any] = {"func": func}
    count = 0  # positionals read
    tokens = iter(tokens)
    for token in tokens:
        if token[:1] != "-":
            if count == len(positionals):
                return None
            values[positionals[count]] = token
            count += 1
            continue
        flag = flags.get(token)
        if flag is None or flag[0] in values:
            return None
        dest, switch, convert, choices = flag
        if switch:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-":
            return None
        if convert is not None:
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse catches
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if count < len(positionals) or not required <= values.keys():
        return None
    for dest, default in defaults:
        values.setdefault(dest, default)
    args = argparse.Namespace()
    vars(args).update(values)
    return args


class _Help(Exception):
    """A -h/--help request, carrying the help text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures inside run_command
        raise FormatError(message)

    def print_help(self, file=None):  # and the help text too
        raise _Help(self.format_help())


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of a command line: from the table in one pass when it is well
    formed, else from argparse, which words help and every usage error."""
    if not (argv and argv[0] in _COMMANDS):  # no command, an unknown one or --help
        return _build_parser()[0].parse_args(list(argv))
    args = _read_args(argv[0], argv[1:])
    return _build_parser()[1][argv[0]].parse_args(list(argv[1:])) if args is None else args


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each command's own parser, by command name."""
    parser = _Parser(prog="dynalg", description="finite dynamical system toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, func, declared) in _COMMANDS.items():
        own = sub.add_parser(command, help=help_line)
        for name, options in declared:
            own.add_argument(name, **options)
        own.set_defaults(func=func)
    return parser, sub.choices


def _report(command: list, started: float, decision, witness=None, **text) -> dict[str, Any]:
    """A report in its stable field order; ``text`` is an error or the usage."""
    out: dict[str, Any] = {"command": command, "decision": decision}
    if witness is not None:
        out["witness"] = witness
    out.update(text)
    out["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    out["version"] = __version__
    return out


def run_command(argv: Sequence[str]) -> tuple[dict[str, Any], int]:
    """Execute one command; returns (report, exit code) without printing.

    Every item of ``argv`` must be a string; any other item exits 2, and the
    report echoes it by its ``repr``.
    """
    started = time.perf_counter()
    for k, item in enumerate(argv):
        if not isinstance(item, str):
            echo = [a if isinstance(a, str) else repr(a) for a in argv]  # the report stays JSON
            return _report(echo, started, None, error=f"argv[{k}] must be a string, not {type(item).__name__}"), 2
    try:
        args = _parse_args(argv)
        decision, witness = args.func(args)
    except _Help as request:
        return _report(list(argv), started, None, usage=request.args[0]), 0
    except ValueError as exc:  # FormatError and IncompatibleSystemsError among them
        return _report(list(argv), started, None, error=str(exc)), 2
    if decision is None:
        return _report(list(argv), started, None, witness), 0
    return _report(list(argv), started, bool(decision), witness), 0 if decision else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and print its report; the exit code.

    A fault of the program itself, any exception but a ``ValueError``, must
    not read as a negative decision: it prints a report with a null decision
    and an error naming the exception, sends the traceback to stderr, and
    exits 4.
    """
    argv = sys.argv[1:] if argv is None else argv
    started = time.perf_counter()
    try:
        report, code = run_command(argv)
    except Exception as exc:
        import traceback

        traceback.print_exc()
        report, code = _report(list(argv), started, None, error=f"internal error: {type(exc).__name__}: {exc}"), 4
    sys.stdout.write(report["usage"] if "usage" in report else json.dumps(report, indent=2) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
