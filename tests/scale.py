"""Process-level checks: every gate that starts the CLI, and the scale targets.

Run from the repository root, with no options:

    PYTHONPATH=src python tests/scale.py

Each row of :data:`ROWS` writes its input files, starts one fresh
interpreter per run with ``PYTHONPATH`` set to ``src``, and holds every
run to the row's exit code and timeout; its post-checks then read the
runs' output in this process.  A row prints one JSON line: its name, the
exit code of each run (null for a run killed at the timeout), the runs'
wall time ``wall_s``, ``ok``, and on failure ``error``.  The script exits 1
and names each failed row, else 0.  pytest does not collect this file.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import dynalg.conjugacy
from dynalg.cli import dump_system, dump_u1n, main, parse_system, read_witness
from dynalg.conjugacy import verify_witness
from dynalg.dynsys import FiniteSystem
from dynalg.freeprod import BallMobius, mobius_to_u1n
from dynalg.reps import nest_rep_exists
from dynalg.scalars import ONE
from dynalg.semicrossed import sc_multiply

from oracles import (
    classed_pair, cycle_pair, indegree_shifted_pair, indegrees, make_rng, orbit_apply, random_element,
    random_mapping_pair, random_system, relabelled_pair,
)

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent


class Failed(Exception):
    """A row's run or post-check fell short; the message says how."""


def expect(condition: object, message: str) -> None:
    """Raise :class:`Failed` unless the condition holds; unlike assert, it holds under ``python -O``."""
    if not condition:
        raise Failed(message)


@dataclass(frozen=True)
class Result:
    """What a row's runs left: its input files by name, and each run's output."""

    files: Mapping[str, str]
    outs: Sequence[str]
    errs: Sequence[str]

    def report(self) -> dict:
        return json.loads(self.outs[0])

    def system(self, name: str) -> FiniteSystem:
        return parse_system(Path(self.files[name]).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Row:
    """One process-level check.

    ``argv`` follows the interpreter, and an item ``{name}`` stands for the
    path of input file ``name``; :func:`cli` and :func:`call` build it.
    ``inputs`` returns the text of each input file by name.  The row runs
    once per entry of ``envs``, each added to this process's environment.
    Every run must exit ``exit`` within ``timeout`` seconds, and each
    post-check, given the :class:`Result`, raises to fail the row; the
    post-checks together must also finish within ``timeout``.
    """

    name: str
    argv: tuple[str, ...]
    inputs: Callable[[], Mapping[str, str]] = dict
    exit: int = 0
    timeout: float = 60.0
    envs: tuple[Mapping[str, str], ...] = ({},)
    checks: tuple[Callable[[Result], None], ...] = ()


def cli(*args: str) -> tuple[str, ...]:
    return ("-m", "dynalg.cli", *args)


def call(function: Callable[[], None]) -> tuple[str, ...]:
    """Runs a function of this module, which raises to exit 1 (or exits as it chooses)."""
    return ("-c", f"import sys; sys.path.insert(0, {str(TESTS)!r}); import scale; scale.{function.__name__}()")


# ---- post-checks -----------------------------------------------------------------


def says(text: str) -> Callable[[Result], None]:
    def check(run: Result) -> None:
        expect(text in run.outs[0], f"the output does not say {text!r}")
    return check


def starts_with(text: str) -> Callable[[Result], None]:
    def check(run: Result) -> None:
        expect(run.outs[0].startswith(text), f"the output does not start with {text!r}")
    return check


def imports_none(pattern: str) -> Callable[[Result], None]:
    """No line of ``-X importtime``'s table, on stderr, matches the pattern."""
    def check(run: Result) -> None:
        found = re.search(pattern, run.errs[0], re.MULTILINE)
        expect(found is None, f"imported a module it never calls: {found and found.group(0)!r}")
    return check


def replay(run: Result) -> None:
    """The report's witness, read back by read_witness, verifies against the inputs a and b."""
    expect(verify_witness(run.system("a"), run.system("b"), read_witness(run.report())).passed, "the witness fails")


def refuted(run: Result) -> None:
    """Every run printed a negative decision: exit 1 alone would also pass a crash."""
    expect(all(json.loads(out)["decision"] is False for out in run.outs), "no negative decision")


def round_trip(run: Result) -> None:
    """An iso-build report's round trip holds, with one generator image per map each way."""
    maps = len(json.loads(Path(run.files["a"]).read_text(encoding="utf-8"))["maps"])
    built = run.report()["witness"]
    expect(built["round_trip_on_generators"] is True, "the round trip fails")
    expect(len(built["forward_generators"]) == len(built["reverse_generators"]) == maps, "not one image per map")


def same_reports(run: Result) -> None:
    """Every run printed the same report, apart from its timing_ms line."""
    kept = [[line for line in out.splitlines() if not line.startswith('  "timing_ms": ')] for out in run.outs]
    expect(all(lines == kept[0] for lines in kept), "the reports differ")


def crash_reported(run: Result) -> None:
    """The report of a crash: a null decision, the error naming the exception, and a traceback."""
    report = run.report()
    expect(report["decision"] is None, f"decision {report['decision']!r}")
    expect(report["error"].startswith("internal error: KeyError: "), f"error {report['error']!r}")
    expect(run.errs[0].startswith("Traceback"), "no traceback on stderr")


def fock_relations_hold(run: Result) -> None:
    witness = run.report()["witness"]
    expect(witness["dimension"] == 131068, f"dimension {witness['dimension']}")
    expect(len(witness["relations"]) == 4 and all(witness["relations"].values()), f"relations {witness['relations']}")


# ---- inputs and library calls ------------------------------------------------------

SPLIT_A = '{"points":4,"maps":[[1,0,2,3],[0,1,3,2]]}\n'  # the FOUR_POINT_SPLIT pair
SPLIT_B = '{"points":4,"maps":[[1,0,3,2],[0,1,2,3]]}\n'
ROTATION = '{"points":4,"maps":[[1,2,3,0],[3,0,1,2]]}\n'
NAMED = '{"points":["p","q","r","s"],"maps":[["q","p","r","s"],["p","q","s","r"]]}\n'  # SPLIT_A by name


def split() -> dict[str, str]:
    return {"a": SPLIT_A, "b": SPLIT_B}


def rotation() -> dict[str, str]:
    return {"rotation": ROTATION}


def deep() -> dict[str, str]:
    return {"deep": '{"points": 2, "maps": ' + "[" * 100000 + "]" * 100000 + "}\n"}


def hash_seed_inputs() -> dict[str, str]:
    involution = dump_u1n(mobius_to_u1n(BallMobius.involution([0.3, 0.2j])))
    return {"named": NAMED, "split_b": SPLIT_B, "rotation": ROTATION, "involution": involution}


def dumped(a: FiniteSystem, b: FiniteSystem) -> dict[str, str]:
    return {"a": dump_system(a), "b": dump_system(b)}


@functools.lru_cache(maxsize=None)
def relabelled_10000() -> dict[str, str]:
    return dumped(*relabelled_pair(make_rng(10000), 10000, 2))


@functools.lru_cache(maxsize=None)
def random_mapping_400() -> dict[str, str]:
    """t = [rng.randrange(400) ...] with rng = random.Random(400), relabelled by
    random.Random(5).shuffle; 2-map tables do not show this input's wall."""
    return dumped(*random_mapping_pair(400))


@functools.lru_cache(maxsize=None)
def random_mapping_1000() -> dict[str, str]:
    """random_mapping_pair(1000): without looking one edge ahead the search ran past 10 s."""
    return dumped(*random_mapping_pair(1000))


@functools.lru_cache(maxsize=None)
def cycles_192() -> dict[str, str]:
    """64 3-cycles against a relabelled copy: in-degree 1 everywhere, so refinement separates nothing."""
    return dumped(*cycle_pair(192, 3, 3, seed=192))


@functools.lru_cache(maxsize=None)
def cycles_3000() -> dict[str, str]:
    """1,000 3-cycles against a relabelled copy: refinement separates nothing, so every mode searches at scale."""
    return dumped(*cycle_pair(3000, 3, 3, seed=3000))


@functools.lru_cache(maxsize=None)
def one_map_classed_200(seed: int) -> dict[str, str]:
    """One map on 200 points in three classes, partition-matched by construction."""
    a, b, _, _ = classed_pair(random.Random(seed), 200, 1, 3)
    return dumped(a, b)


@functools.lru_cache(maxsize=None)
def arity_12() -> dict[str, str]:
    return dumped(*relabelled_pair(make_rng(1000), 1000, 12))


@functools.lru_cache(maxsize=None)
def classed_200() -> dict[str, str]:
    """Three maps on 200 points in two classes, partition-matched by construction."""
    a, b, _, _ = classed_pair(random.Random(2), 200, 3, 2)
    return dumped(a, b)


@functools.lru_cache(maxsize=None)
def classed_200_arity_8() -> dict[str, str]:
    """Eight maps on 200 points in six classes, so most images collide: a
    chronological walk over its 1,600 colour positions ran past 10 s here."""
    a, b, _, _ = classed_pair(random.Random(0), 200, 8, 6)
    return dumped(a, b)


@functools.lru_cache(maxsize=None)
def classed_2_maps(size: int, classes: int, seed: int) -> dict[str, str]:
    """Two maps in classes, where map i of b joins other colours than map i of a: only --recolor matches."""
    a, b, _, _ = classed_pair(random.Random(seed), size, 2, classes)
    return dumped(a, b)


@functools.lru_cache(maxsize=None)
def indegree_shifted_100000() -> dict[str, str]:
    a, b = indegree_shifted_pair(make_rng(100000), 100000, 2)
    expect(sorted(indegrees(a)) != sorted(indegrees(b)), "the in-degrees balance")
    return dumped(a, b)


def exact_products() -> None:
    """pi_x(a b) = pi_x(a) pi_x(b) in the orbit representation, at three
    points of a random 3-map system on 2,000 points."""
    rng = make_rng(2000)
    system = random_system(rng, 2000, 3)
    a, b = (random_element(rng, system, 8, terms=12) for _ in range(2))
    product = sc_multiply(a, b)
    for x in rng.sample(range(2000), 3):
        for u in ((), (2,), (0, 1)):
            expect(orbit_apply(product, x, {u: ONE}) == orbit_apply(a, x, orbit_apply(b, x, {u: ONE})),
                   f"pi_x(a b) differs from pi_x(a) pi_x(b) at x = {x}, word {u}")


def crashing_check() -> None:
    """main on a check whose decider raises KeyError: it exits with main's code."""
    def crash(a, b):
        raise KeyError("injected")

    dynalg.conjugacy.decide_partition = crash
    with tempfile.TemporaryDirectory(prefix="dynalg-crash-") as folder:
        paths = [str(Path(folder, name)) for name in ("a.json", "b.json")]
        for path, text in zip(paths, (SPLIT_A, SPLIT_B)):
            Path(path).write_text(text, encoding="utf-8")
        code = main(["check", "--mode", "partition", *paths])
    sys.exit(code)


def nest_rep_past_the_colours() -> None:
    """100 listed points that every one of 99 colours sends to the base get no distinct colours."""
    system = FiniteSystem(101, ((0,) * 101,) * 99)
    expect(nest_rep_exists(system, 0, range(1, 101)) is None, "found distinct colours")


# ---- the table -----------------------------------------------------------------------

MODES = ("conjugate", "piecewise", "partition")
HASH_SEEDS = ({"PYTHONHASHSEED": "1"}, {"PYTHONHASHSEED": "2"})
# check and the signature commands count off the tables: no compression, no exact scalars
OFF_THE_TABLES = r"\| +(numpy|dynalg\.(freeprod|reps|semicrossed|quotient|scalars|wordpoly))$"
# the path-space commands read partial maps and the obstruction's first row
OFF_THE_PARTIAL_MAPS = r"\| +(numpy|dynalg\.freeprod)$"


def checked(name: str, inputs: Callable[[], Mapping[str, str]], modes: Sequence[str] = MODES) -> list[Row]:
    """check in each of the modes within 10 s, every witness replayed."""
    return [Row(f"{name}: check --mode {mode}", cli("check", "--mode", mode, "{a}", "{b}"), inputs, timeout=10,
                checks=(replay,)) for mode in modes]


def decided(name: str, inputs: Callable[[], Mapping[str, str]]) -> list[Row]:
    """check in every mode and iso-build within 10 s each, every witness replayed."""
    return [
        *checked(name, inputs),
        Row(f"{name}: iso-build", cli("iso-build", "{a}", "{b}"), inputs, timeout=10, checks=(round_trip, replay)),
    ]


def flags(args: tuple[str, ...]) -> str:
    """The command line without its file names, to name a row."""
    return " ".join(arg for arg in args if not arg.startswith("{"))


def started(args: tuple[str, ...], pattern: str, exit: int = 0) -> Row:
    return Row(f"start-up: {flags(args)}", ("-X", "importtime", *cli(*args)), split, exit,
               checks=(imports_none(pattern),) + (refuted,) * (exit == 1))


def hash_seeded(args: tuple[str, ...], exit: int = 0) -> Row:
    return Row(f"hash seeds: {flags(args)}", cli(*args), hash_seed_inputs, exit, envs=HASH_SEEDS,
               checks=(same_reports,) + (refuted,) * (exit == 1))


ROWS: tuple[Row, ...] = (
    Row("selftest", cli("selftest")),
    started(("check", "--mode", "partition", "{a}", "{b}"), OFF_THE_TABLES),
    started(("signature", "{a}"), OFF_THE_TABLES),
    started(("signature-compare", "{a}", "{b}"), OFF_THE_TABLES),
    started(("fock", "{a}", "--depth", "3"), OFF_THE_PARTIAL_MAPS),
    started(("tensor-vs-semicrossed", "{a}"), OFF_THE_PARTIAL_MAPS, exit=1),
    Row("usage: no command", cli(), exit=2),
    Row("usage: no-such-command", cli("no-such-command"), exit=2),
    Row("usage: check without files", cli("check"), exit=2),
    Row("usage: 100,000 nested brackets", cli("signature", "{deep}"), deep, exit=2),
    Row("usage: --depth 1_0", cli("fock", "{rotation}", "--depth", "1_0"), rotation, exit=2),
    Row("usage: --help", cli("--help"), checks=(starts_with("usage:"),)),
    Row("usage: a directory as a system file", cli("signature", str(TESTS)), exit=2,
        checks=(says(f"cannot read {TESTS}: [Errno 21] Is a directory: '{TESTS}'"),)),
    Row("crash: exit 4 with a report", call(crashing_check), exit=4, timeout=10, checks=(crash_reported,)),
    # lines the declared table does not read still go through argparse
    Row("usage: --dep 3", cli("fock", "{rotation}", "--dep", "3"), rotation),
    Row("usage: --depth=3", cli("fock", "{rotation}", "--depth=3"), rotation),
    Row("usage: --depth of 5,000 digits", cli("fock", "{rotation}", "--depth", "1" * 5000), rotation, exit=2,
        checks=(says("invalid int value"),)),
    hash_seeded(("check", "--mode", "conjugate", "--recolor", "{named}", "{split_b}"), exit=1),
    hash_seeded(("check", "--mode", "piecewise", "{named}", "{split_b}")),
    hash_seeded(("check", "--mode", "partition", "{named}", "{split_b}")),
    hash_seeded(("iso-build", "{named}", "{split_b}")),
    hash_seeded(("fock", "{rotation}", "--depth", "6")),
    hash_seeded(("lift", "--u1n", "{involution}", "--degree", "12", "--samples", "40")),
    hash_seeded(("signature", "{named}")),
    hash_seeded(("tensor-vs-semicrossed", "{named}"), exit=1),
    *decided("relabelled n=10000", relabelled_10000),
    Row("relabelled n=10000: check --mode conjugate --recolor",
        cli("check", "--mode", "conjugate", "--recolor", "{a}", "{b}"), relabelled_10000, timeout=10, checks=(replay,)),
    *decided("random mapping n=400", random_mapping_400),
    *checked("random mapping n=1000", random_mapping_1000),
    *checked("3-cycles against 3-cycles n=192", cycles_192),
    *checked("3-cycles against 3-cycles n=3000", cycles_3000),
    Row("3-cycles against 3-cycles n=3000: check --mode conjugate --recolor",
        cli("check", "--mode", "conjugate", "--recolor", "{a}", "{b}"), cycles_3000, timeout=10, checks=(replay,)),
    *(row for seed in (3, 12) for row in checked(f"classed 1 map n=200 seed {seed}",
                                                 functools.partial(one_map_classed_200, seed), ("partition",))),
    *checked("classed 3 maps n=200", classed_200, ("partition",)),
    Row("classed 3 maps n=200: iso-build", cli("iso-build", "{a}", "{b}"), classed_200, timeout=10,
        checks=(round_trip, replay)),
    *checked("classed 8 maps n=200", classed_200_arity_8, ("partition",)),
    Row("classed 8 maps n=200: iso-build", cli("iso-build", "{a}", "{b}"), classed_200_arity_8, timeout=10,
        checks=(round_trip, replay)),
    # no map of b joins the colour pairs of any map of a, so the seeded masks refute the pair at the root;
    # unseeded, the search entered 10.6 M nodes
    Row("classed 8 maps n=200: check --mode conjugate --recolor", cli("check", "--mode", "conjugate", "--recolor",
        "{a}", "{b}"), classed_200_arity_8, exit=1, timeout=10, checks=(refuted,)),
    # without --recolor, map i of a may only go to map i of b, whose colour pairs differ, so the pair is refuted
    # at the root; before plain conjugacy seeded its masks too, the first pair ran past 200 s
    *(Row(f"classed 2 maps n={size} classes {classes} seed {seed}: check --mode conjugate",
          cli("check", "--mode", "conjugate", "{a}", "{b}"), functools.partial(classed_2_maps, size, classes, seed),
          exit=1, timeout=10, checks=(refuted,)) for size, classes, seed in ((25, 4, 0), (23, 3, 0), (23, 3, 14))),
    Row("classed 2 maps n=25 classes 4 seed 0: check --mode conjugate --recolor",
        cli("check", "--mode", "conjugate", "--recolor", "{a}", "{b}"), functools.partial(classed_2_maps, 25, 4, 0),
        timeout=10, checks=(replay,)),
    # 12! = 479,001,600 colour permutations, which no mode lists
    *(Row(f"arity 12: {flags(args)}", cli(*args), arity_12, timeout=10, checks=(replay,))
      for args in (("check", "--mode", "piecewise", "{a}", "{b}"), ("check", "--mode", "partition", "{a}", "{b}"),
                   ("check", "--mode", "conjugate", "--recolor", "{a}", "{b}"),
                   ("check", "--mode", "conjugate", "{a}", "{b}"))),
    *(Row(f"in-degree shifted n=100000: check --mode {mode}", cli("check", "--mode", mode, "{a}", "{b}"),
          indegree_shifted_100000, exit=1, timeout=10, checks=(refuted,)) for mode in MODES),
    Row("exact products n=2000", call(exact_products), timeout=10),
    Row("fock --depth 14", cli("fock", "{rotation}", "--depth", "14"), rotation, timeout=10,
        checks=(fock_relations_hold,)),
    Row("nest_rep_exists: 100 points, 99 colours", call(nest_rep_past_the_colours), timeout=10),
)


# ---- the runner ----------------------------------------------------------------------


def run_row(row: Row, folder: Path) -> dict:
    """Run one row in an empty folder; its JSON line as a dict."""
    exits: list[Optional[int]] = []
    wall = 0.0
    error = None
    try:
        files = {}
        for name, text in row.inputs().items():
            files[name] = str(folder / f"{name}.json")
            Path(files[name]).write_text(text, encoding="utf-8")
        argv = [sys.executable, *(item.format_map(files) for item in row.argv)]
        outs, errs = [], []
        for env in row.envs:
            begun = time.perf_counter()
            try:
                done = subprocess.run(
                    argv, stdin=subprocess.DEVNULL, capture_output=True, encoding="utf-8", errors="replace",
                    timeout=row.timeout, env={**os.environ, "PYTHONPATH": str(SRC), **env},
                )
            except subprocess.TimeoutExpired:
                exits.append(None)
                raise Failed(f"killed at the {row.timeout:g} s timeout") from None
            finally:
                wall += time.perf_counter() - begun
            exits.append(done.returncode)
            if done.returncode != row.exit:
                last = "".join(f"; {line[:200]}" for line in done.stderr.strip().splitlines()[-1:])
                raise Failed(f"exit {done.returncode}, expected {row.exit}{last}")
            outs.append(done.stdout)
            errs.append(done.stderr)
        begun = time.perf_counter()
        result = Result(files, outs, errs)
        for check in row.checks:
            check(result)
        spent = time.perf_counter() - begun
        expect(spent <= row.timeout, f"post-checks took {spent:.1f} s, past the {row.timeout:g} s timeout")
    except Exception as exc:  # a failed run or post-check, or a fault in the row itself
        error = str(exc) if isinstance(exc, Failed) else f"{type(exc).__name__}: {exc}"
    line = {"name": row.name, "exit": exits, "wall_s": round(wall, 3), "ok": error is None}
    if error is not None:
        line["error"] = error
    return line


def run(rows: Sequence[Row]) -> int:
    """Print each row's JSON line; 1 naming each failed row on stderr, else 0."""
    failed = []
    with tempfile.TemporaryDirectory(prefix="dynalg-scale-") as scratch:
        for k, row in enumerate(rows):
            folder = Path(scratch, str(k))
            folder.mkdir()
            line = run_row(row, folder)
            print(json.dumps(line), flush=True)
            if not line["ok"]:
                failed.append(row.name)
    if failed:
        print(f"{len(failed)} of {len(rows)} rows failed: " + "; ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("scale.py takes no options")
    sys.exit(run(ROWS))
