"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one operation of each corrupted kind through the benchmark's own
runner: a partition witness with two entries of gamma swapped, a refuted
decision flipped to affirmative, and a round trip with one coefficient
perturbed.  Each must be reported as a failed operation, and the same
operations uncorrupted must pass.  Exits 0 when all do.
"""

import copy
import dataclasses
import sys
from fractions import Fraction

import run


def corrupted(op, change):
    return dataclasses.replace(op, run=lambda: change(op.run()))


def swap_gamma(out):
    report, code = copy.deepcopy(out)
    gamma = report["witness"]["gamma"]
    gamma[0], gamma[1] = gamma[1], gamma[0]
    return report, code


def flip_verdict(out):
    report, _ = copy.deepcopy(out)
    report["decision"] = True
    return report, 0


def perturb_coefficient(element):
    from dynalg import scalars, semicrossed

    terms = dict(element.terms)
    word = next(iter(terms))
    values = list(terms[word].values)
    values[0] = values[0] + scalars.RationalComplex(Fraction(1, 7))
    terms[word] = semicrossed.FunctionCoeff(tuple(values))
    return semicrossed.SemicrossedElement.make(element.system, terms)


def first(ops, kind, label_part):
    return next(op for op in ops if op.kind == kind and label_part in op.label)


def main() -> int:
    workloads = run.import_program()
    inputs = run.OUT / "inputs" / "selftest"
    found = workloads.build("search-found", 0, inputs / "found")
    refuted = workloads.build("search-refuted", 0, inputs / "refuted")
    algebra = workloads.build("algebra", 0, inputs / "algebra")
    cases = [
        ("partition witness with gamma entries swapped",
         first(found, "check-partition", "n=5"), swap_gamma),
        ("refuted decision flipped", first(refuted, "check-partition", "n=5"), flip_verdict),
        ("round trip with a perturbed coefficient", first(algebra, "round-trip", ""), perturb_coefficient),
    ]
    ok = True
    for name, op, change in cases:
        _, _, clean = run.run_ops([op], 1)
        _, _, bad = run.run_ops([corrupted(op, change)], 1)
        passed = not clean and len(bad) == 1
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: clean failures {len(clean)}, corrupted failures {len(bad)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
