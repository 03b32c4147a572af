"""Seeded, fixed lists of operations for each workload.

``build(name, seed, directory)`` draws the workload's inputs from a
``random.Random`` seeded with the workload name and seed, writes the
input files into ``directory`` and returns the list of operations.  The
list has the same length and the same kinds, in the same order, for
every seed; only the systems, elements and matrices drawn change.

An operation is one CLI command called in-process through
``dynalg.cli.run_command``, or one library call where no command covers
the work.  Library functions are looked up on their modules at call
time, so a tracer that replaces them sees every call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from dynalg import cli, conjugacy, dynsys, freeprod, quotient, scalars, semicrossed
import checks

# Sizes and counts of every list; see README.md for the reasons.
# Inputs of this size come from a fixed seed, the same in every run: each
# n = 8 search takes 0.2-2.5 s and the cost varies by 15-30 % between
# drawn systems, so a few seeded ones would set the run-to-run spread.
FIXED_SIZE = 8
FOUND_STRATA = {5: 16, 6: 16, 7: 3, 8: 1}  # relabellings per size, spread over search order
REFUTED_DRAWS = {  # size: (pairs per draw, draws); "partition/point-field" is a scrambled pair
    5: (8, ("conjugate", "partition", "piecewise", "partition/point-field")),
    6: (8, ("conjugate", "partition", "piecewise", "partition/point-field")),
    7: (4, ("conjugate", "partition", "piecewise", "partition/point-field")),
    8: (1, ("conjugate", "piecewise", "partition/point-field")),
}
ISO_STRATA = {4: 8, 5: 8, 6: 8}
ROUND_TRIPS = 96
TRIPLES = 96
QUOTIENTS = 96
FP_PRODUCTS = 96
ABELIANIZATIONS = 96
LIFT_DEGREE = 25
LIFT_SAMPLES = 30
LIFTS_PER_N = 6  # involutions and rotations each, for n = 1, 2, 3
FOCK_FULL = ((3, 2, 5), (4, 2, 5), (5, 2, 4), (4, 3, 3), (3, 3, 3), (6, 2, 3))  # (points, arity, depth)
FOCK_SUBSETS = 12
TENSOR_SYSTEMS = 24
SIGNATURE_SYSTEMS = 24

# Matrices mixing a nontrivial centre with a nontrivial unitary part.  The
# lift of such a matrix is valid, but dynalg.freeprod.lift_dual_check
# compares it only with four conjugation variants of the matrix and so
# reports it uncertified.  These inputs are fixed, not seeded, so the
# operations fail in the same number in every run.
MIXED_LIFTS = (((0.5,), 0.7), ((0.3, 0.2j), 0.9))  # (centre, rotation angle)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` judges its output."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], Any] = lambda out: out
    known_fault: bool = False


def cli_digest(out) -> str:
    report, code = out
    return json.dumps({k: v for k, v in report.items() if k != "timing_ms"}, sort_keys=True) + f"/{code}"


def cli_op(kind, label, argv, check, known_fault=False) -> Op:
    argv = list(argv)
    return Op(kind, label, lambda: cli.run_command(argv), check, cli_digest, known_fault)


class Files:
    """Writes input files, named by a running counter."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, text: str) -> str:
        path = self.directory / f"in{self.count:04d}.json"
        self.count += 1
        path.write_text(text, encoding="utf-8")
        return str(path)

    def system(self, tables) -> str:
        return self.write(json.dumps({"points": len(tables[0]), "maps": [list(t) for t in tables]}))


# ---- systems ------------------------------------------------------------------


def random_tables(rng, n, m):
    return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(m))


def unrank(rank: int, n: int) -> tuple[int, ...]:
    """The permutation at ``rank`` in lexicographic order."""
    items = list(range(n))
    out = []
    for k in range(n, 0, -1):
        q, rank = divmod(rank, math.factorial(k - 1))
        out.append(items.pop(q))
    return tuple(out)


def relabel(a, gamma, alpha):
    """The system b with tau_{alpha_x(i)}(gamma x) = gamma(sigma_i x)."""
    n, m = len(a[0]), len(a)
    b = [[0] * n for _ in range(m)]
    for x in range(n):
        for i in range(m):
            b[alpha[x][i]][gamma[x]] = gamma[a[i][x]]
    return tuple(tuple(t) for t in b)


def classed_tables(rng, n, m):
    """A system with several collision classes: class t maps into its own image set."""
    k = 2 if n < 6 else 3
    points = list(range(n))
    targets = list(range(n))
    rng.shuffle(points)
    rng.shuffle(targets)
    cuts = [0] + sorted(rng.sample(range(1, n), k - 1)) + [n]
    image_cuts = [0] + sorted(rng.sample(range(1, n), k - 1)) + [n]
    tables = [[0] * n for _ in range(m)]
    for t in range(k):
        images = targets[image_cuts[t]:image_cuts[t + 1]]
        for x in points[cuts[t]:cuts[t + 1]]:
            for i in range(m):
                tables[i][x] = rng.choice(images)
    return tuple(tuple(row) for row in tables)


def class_field(rng, a):
    """A colour field constant on each collision class."""
    perms = list(itertools.permutations(range(len(a))))
    alpha = [None] * len(a[0])
    for cls in checks.collision_classes(a):
        p = rng.choice(perms)
        for x in cls:
            alpha[x] = p
    return alpha


def stratum_gamma(n, s, strata):
    """Relabelling at the middle of stratum s of the lexicographic order."""
    return unrank((2 * s + 1) * math.factorial(n) // (2 * strata), n)


# ---- search workloads -------------------------------------------------------------


def check_argv(mode, path_a, path_b):
    if mode == "conjugate":
        return ["check", "--mode", "conjugate", "--recolor", path_a, path_b]
    return ["check", "--mode", mode, path_a, path_b]


def found_check(mode, a, b):
    def check(out):
        report, code = out
        w = report.get("witness")
        if code != 0 or report.get("decision") is not True or w is None:
            return False
        if mode == "conjugate":
            return checks.conjugates(a, b, w["gamma"], w["recolor"])
        alpha = [tuple(p) for p in w["alpha"]]
        if mode == "piecewise":
            return checks.matches_pointwise(a, b, w["gamma"], alpha)
        if not checks.partition_saturated(a, b, w["gamma"], alpha):
            return False
        if len(a[0]) <= 5:
            return checks.least_partition_witness(a, b) == (tuple(w["gamma"]), tuple(alpha))
        return True

    return check


def refuted_check(out):
    report, code = out
    return code == 1 and report.get("decision") is False and "witness" not in report


def search_found(seeded, fixed, files):
    ops = []
    for n, strata in FOUND_STRATA.items():
        rng = fixed if n == FIXED_SIZE else seeded
        for s in range(strata):
            m = 2 + s % 2
            perms = list(itertools.permutations(range(m)))
            gamma = stratum_gamma(n, s, strata)
            a = random_tables(rng, n, m)
            beta = rng.choice(perms[1:])
            pairs = [("recolour", a, relabel(a, gamma, [beta] * n), ("conjugate", "partition", "piecewise"))]
            a = classed_tables(rng, n, m)
            pairs.append(("class-field", a, relabel(a, gamma, class_field(rng, a)), ("partition", "piecewise")))
            a = random_tables(rng, n, m)
            alpha = [rng.choice(perms) for _ in range(n)]
            pairs.append(("point-field", a, relabel(a, gamma, alpha), ("piecewise",)))
            for how, a, b, modes in pairs:
                pa, pb = files.system(a), files.system(b)
                for mode in modes:
                    ops.append(cli_op(
                        f"check-{mode}", f"{how} n={n} m={m} stratum {s}/{strata}",
                        check_argv(mode, pa, pb), found_check(mode, a, b)))
    return ops


def refuted_pair(rng, n, m, mode, scrambled):
    perms = list(itertools.permutations(range(m)))
    while True:
        a = random_tables(rng, n, m)
        if scrambled:
            gamma = list(range(n))
            rng.shuffle(gamma)
            b = relabel(a, gamma, [rng.choice(perms) for _ in range(n)])
        else:
            b = random_tables(rng, n, m)
        certificate = checks.refutation(mode, a, b)
        if certificate is not None:
            return a, b, certificate


def search_refuted(seeded, fixed, files):
    ops = []
    for n, (count, draws) in REFUTED_DRAWS.items():
        rng = fixed if n == FIXED_SIZE else seeded
        for s in range(count):
            m = 2 + (n + s) % 2
            for draw in draws:
                mode, _, how = draw.partition("/")
                a, b, certificate = refuted_pair(rng, n, m, mode, how == "point-field")
                how = how or "random"
                ops.append(cli_op(
                    f"check-{mode}", f"{how} n={n} m={m} refuted by {certificate}",
                    check_argv(mode, files.system(a), files.system(b)), refuted_check))
    return ops


# ---- algebra workload ---------------------------------------------------------------


def exact_scalar(rng):
    return scalars.RationalComplex(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    )


def random_element(rng, system, a, lengths):
    """A normal-form element with one term per word length, as a program
    object and as checks' plain dict."""
    n, m = len(a[0]), len(a)
    out = {}
    for length in lengths:
        word = tuple(rng.randrange(m) for _ in range(length))
        out[word] = semicrossed.FunctionCoeff(tuple(exact_scalar(rng) for _ in range(n)))
    element = semicrossed.SemicrossedElement.make(system, out)
    return element, plain_element(element)


def plain_element(element):
    return {
        w: tuple((v.re, v.im) for v in c.values) for w, c in element.terms.items()
    }


def plain_quotient(matrix):
    pts = matrix.points
    return {
        (pts[y], pts[x]): {tuple(tuple(e) for e in w): (c.re, c.im) for w, c in entry.terms.items()}
        for y, row in enumerate(matrix.entries)
        for x, entry in enumerate(row)
        if entry.terms
    }


def matchable_pair(rng, n, m, gamma):
    """A class-field pair with the construction's witness (gamma, alpha)."""
    a = classed_tables(rng, n, m)
    alpha = tuple(class_field(rng, a))
    return a, relabel(a, gamma, alpha), gamma, alpha


def iso_check(a, b):
    n, m = len(a[0]), len(a)

    def check(out):
        report, code = out
        w = report.get("witness")
        if code != 0 or report.get("decision") is not True or not w:
            return False
        gamma, alpha = w["gamma"], [tuple(p) for p in w["alpha"]]
        return (
            w["round_trip_on_generators"] is True
            and checks.partition_saturated(a, b, gamma, alpha)
            and w["forward_generators"]
            == [checks.forward_generator_json(n, m, gamma, alpha, i) for i in range(m)]
            and w["reverse_generators"]
            == [checks.reverse_generator_json(n, m, alpha, j) for j in range(m)]
        )

    return check


def polyball_points(rng, signature, count):
    out = []
    for _ in range(count):
        blocks = []
        for size in signature:
            v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(size)])
            blocks.append(tuple(v / np.linalg.norm(v) * 0.95 * rng.random()))
        out.append(tuple(blocks))
    return out


def dyadic_poly(rng, signature, max_degree, terms):
    slots = [(i, j) for i, size in enumerate(signature) for j in range(size)]
    out = {}
    for _ in range(terms):
        word = tuple(rng.choice(slots) for _ in range(rng.randint(0, max_degree)))
        out[word] = complex(rng.randint(-16, 16) / 8, rng.randint(-16, 16) / 8)
    return freeprod.FPPoly.make(signature, out)


def fp_product_check(p, q, points):
    def check(r):
        scale = sum(abs(c) for c in p.terms.values()) * sum(abs(c) for c in q.terms.values())
        return all(
            checks.close(checks.fp_eval(r.terms, z), checks.fp_eval(p.terms, z) * checks.fp_eval(q.terms, z), scale)
            for z in points
        )

    return check


def abelian_check(p, points):
    slots = sum(p.signature)

    def check(ab):
        scale = sum(abs(c) for c in p.terms.values())
        return all(len(k) == slots for k in ab) and all(
            checks.close(checks.commutative_eval(ab, z), checks.fp_eval(p.terms, z), scale) for z in points
        )

    return check


def u1n_from_ball_map(centre, unitary) -> np.ndarray:
    """diag(1, U) times the matrix of the involution at ``centre``."""
    a = np.asarray(centre, dtype=complex)
    n = a.shape[0]
    norm_sq = float(np.vdot(a, a).real)
    s = math.sqrt(1.0 - norm_sq)
    if norm_sq == 0.0:
        block = -np.eye(n, dtype=complex)
    else:
        proj = np.outer(a, a.conj()) / norm_sq
        block = -(proj + s * (np.eye(n) - proj))
    x = np.zeros((n + 1, n + 1), dtype=complex)
    x[0, 0] = 1.0
    x[0, 1:] = -a.conj()
    x[1:, 0] = a
    x[1:, 1:] = block
    u = np.eye(n + 1, dtype=complex)
    u[1:, 1:] = unitary
    return u @ (x / s)


def unitary_from(rng, n):
    """A seeded unitary: QR of a Gaussian matrix, phases fixed."""
    g = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)])
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def lift_check(x, sample_rng):
    samples = checks.ball_samples(sample_rng, x.shape[0] - 1, 12, 0.9)
    inverse = np.linalg.inv(x)

    def check(out):
        report, code = out
        w = report.get("witness")
        if code != 0 or report.get("decision") is not True or not w:
            return False
        series = freeprod.voiculescu_lift(freeprod.U1nMatrix(n=x.shape[0] - 1, matrix=x), LIFT_DEGREE)
        tail = w["certified_tail"]
        return all(
            np.max(np.abs(np.array([checks.series_value(s, lam) for s in series]) - checks.frac_linear(inverse, lam)))
            <= tail + 1e-10
            for lam in samples
        )

    return check


def u1n_json(x: np.ndarray) -> str:
    return json.dumps({"n": x.shape[0] - 1, "matrix": [[[v.real, v.imag] for v in row] for row in x.tolist()]})


def algebra(rng, fixed, files):
    ops = []
    for n, strata in ISO_STRATA.items():
        for s in range(strata):
            a, b, _, _ = matchable_pair(rng, n, 2 + s % 2, stratum_gamma(n, s, strata))
            ops.append(cli_op("iso-build", f"n={n} stratum {s}/{strata}",
                              ["iso-build", files.system(a), files.system(b)], iso_check(a, b)))

    # The homomorphisms come from the fixed seed: how many colours each
    # generator image mixes sets the cost of a round trip several-fold.
    homs = []
    for k, n in enumerate((4, 5, 6, 4, 5, 6)):
        gamma = list(range(n))
        fixed.shuffle(gamma)
        a, b, gamma, alpha = matchable_pair(fixed, n, 2 + k % 2, tuple(gamma))
        sa, sb = dynsys.FiniteSystem(n, a), dynsys.FiniteSystem(n, b)
        witness = conjugacy.PartitionWitness(gamma=gamma, alpha=alpha)
        homs.append((a, sa, semicrossed.partition_isomorphism(sa, sb, witness)))
    for k in range(ROUND_TRIPS):
        a, sa, (fwd, rev) = homs[k % len(homs)]
        element, plain = random_element(rng, sa, a, [(k + 2 * t) % 6 for t in range(3)])
        ops.append(Op(
            "round-trip", f"n={len(a[0])} terms={len(plain)}",
            lambda f=fwd, r=rev, e=element: semicrossed.apply_hom(r, semicrossed.apply_hom(f, e)),
            lambda out, p=plain: plain_element(out) == p, plain_element))

    for k in range(TRIPLES):
        n, m = 4 + k % 3, 2 + k % 2
        a = random_tables(rng, n, m)
        sa = dynsys.FiniteSystem(n, a)
        parts = [random_element(rng, sa, a, [(k + t + u) % 3 for t in range(3)]) for u in range(3)]
        e1, e2, e3 = (e for e, _ in parts)
        ops.append(Op(
            "sc-triple", f"n={n} m={m}",
            lambda e1=e1, e2=e2, e3=e3: semicrossed.sc_multiply(semicrossed.sc_multiply(e1, e2), e3),
            lambda out, a=a, ps=[p for _, p in parts]: plain_element(out) == checks.triple_product(a, *ps),
            plain_element))

    for k in range(QUOTIENTS):
        n, m = 5 + k % 3, 2 + k % 2
        a = random_tables(rng, n, m)
        sa = dynsys.FiniteSystem(n, a)
        subset = tuple(sorted(rng.sample(range(n), rng.randint(2, n - 1))))
        element, plain = random_element(rng, sa, a, [(k + t) % 5 for t in range(4)])
        ops.append(Op(
            "quotient-map", f"n={n} subset={len(subset)}",
            lambda sa=sa, sub=subset, e=element: quotient.quotient_map(dynsys.restrict(sa, sub), e),
            lambda out, a=a, sub=subset, p=plain: plain_quotient(out) == checks.compression(a, sub, p),
            plain_quotient))

    signatures = ((2, 2), (1, 2, 1), (3,))
    for k in range(FP_PRODUCTS):
        sig = signatures[k % 3]
        p, q = dyadic_poly(rng, sig, 4, 24), dyadic_poly(rng, sig, 4, 24)
        ops.append(Op(
            "fp-multiply", f"signature={sig}",
            lambda p=p, q=q: freeprod.fp_multiply(p, q),
            fp_product_check(p, q, polyball_points(rng, sig, 3)), lambda r: r.terms))
    for k in range(ABELIANIZATIONS):
        sig = signatures[k % 3]
        p = dyadic_poly(rng, sig, 5, 200)
        ops.append(Op(
            "abelianize", f"signature={sig}",
            lambda p=p: freeprod.abelianize(p), abelian_check(p, polyball_points(rng, sig, 3))))

    lift_argv = ["--degree", str(LIFT_DEGREE), "--samples", str(LIFT_SAMPLES)]
    for n in (1, 2, 3):
        for k in range(LIFTS_PER_N):
            centre = checks.ball_samples(rng, n, 1, 0.6)[0]
            x = u1n_from_ball_map(centre, np.eye(n))
            ops.append(cli_op("lift", f"involution n={n}", ["lift", "--u1n", files.write(u1n_json(x))] + lift_argv,
                              lift_check(x, rng)))
            x = u1n_from_ball_map(np.zeros(n), unitary_from(rng, n))
            ops.append(cli_op("lift", f"rotation n={n}", ["lift", "--u1n", files.write(u1n_json(x))] + lift_argv,
                              lift_check(x, rng)))
    for centre, angle in MIXED_LIFTS:
        n = len(centre)
        c, s = math.cos(angle), math.sin(angle)
        unitary = np.array([[c + 1j * s]]) if n == 1 else np.array([[c, -s], [s, c]])
        x = u1n_from_ball_map(centre, unitary)
        ops.append(cli_op("lift", f"mixed n={n} (fixed)", ["lift", "--u1n", files.write(u1n_json(x))] + lift_argv,
                          lift_check(x, fixed), known_fault=True))
    return ops


# ---- path-space workload ------------------------------------------------------------


def fock_check(a, subset, depth):
    def check(out):
        report, code = out
        w = report.get("witness")
        return (
            code == 0
            and report.get("decision") is True
            and w is not None
            and all(w["relations"].values())
            and len(w["relations"]) == 4
            and w["dimension"] == checks.walk_dimension(a, subset, depth)
        )

    return check


def tensor_check(a):
    def check(out):
        report, code = out
        w = report.get("witness")
        if w is None or report.get("decision") is not checks.ranges_disjoint(a):
            return False
        if report["decision"]:
            return code == 0 and w["bumps"] == [
                [1 if x in set(t) else 0 for x in range(len(t))] for t in a
            ]
        z = w["overlap"]["point"]
        (x1, i), (x2, j) = w["overlap"]["preimages"]
        return (
            code == 1
            and i != j
            and a[i][x1] == z
            and a[j][x2] == z
            and abs(w["row_norm"] - math.sqrt(2.0)) <= 1e-12
        )

    return check


def disjoint_tables(rng, n, m):
    """A system whose map ranges are pairwise disjoint."""
    targets = list(range(n))
    rng.shuffle(targets)
    cuts = [0] + sorted(rng.sample(range(1, n), m - 1)) + [n]
    return tuple(
        tuple(rng.choice(targets[cuts[i]:cuts[i + 1]]) for _ in range(n)) for i in range(m)
    )


def path_space(rng, _fixed, files):
    ops = []
    for n, m, depth in FOCK_FULL:
        a = random_tables(rng, n, m)
        subset = tuple(range(n))
        ops.append(cli_op("fock", f"full n={n} m={m} depth={depth}",
                          ["fock", files.system(a), "--depth", str(depth)], fock_check(a, subset, depth)))
    for k in range(FOCK_SUBSETS):
        n, m, depth = 6 + k % 3, 2 + k % 2, 4 - k % 2
        a = random_tables(rng, n, m)
        subset = tuple(sorted(rng.sample(range(n), 3 + k // 2 % 2)))
        ops.append(cli_op(
            "fock", f"subset {len(subset)}/{n} m={m} depth={depth}",
            ["fock", files.system(a), "--subset", ",".join(map(str, subset)), "--depth", str(depth)],
            fock_check(a, subset, depth)))
    for k in range(TENSOR_SYSTEMS):
        n, m = 3 + k % 4, 2 + k % 2
        a = disjoint_tables(rng, n, m) if k % 2 else random_tables(rng, n, m)
        ops.append(cli_op("tensor-vs-semicrossed", f"n={n} m={m}",
                          ["tensor-vs-semicrossed", files.system(a)], tensor_check(a)))
    for k in range(SIGNATURE_SYSTEMS):
        n, m = 3 + k % 4, 2 + k % 2
        a = random_tables(rng, n, m)
        ops.append(cli_op(
            "signature", f"n={n} m={m}", ["signature", files.system(a)],
            lambda out, a=a: out[1] == 0 and out[0].get("witness", {}).get("signature") == checks.indegree_signature(a)))
    return ops


WORKLOADS = {
    "search-found": search_found,
    "search-refuted": search_refuted,
    "algebra": algebra,
    "path-space": path_space,
}


def build(name: str, seed: int, directory: Path) -> list[Op]:
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), random.Random(f"{name}:fixed"), Files(directory))
