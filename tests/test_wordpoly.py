"""The shared kernel builds results already in normal form.

Every result of the kernel must equal its class's validating ``make``
of its own terms: no zero coefficient survives, every word is valid
over the operand's context, and free-product coefficients stay Python
``complex``.
"""

import random
from fractions import Fraction

from dynalg.freeprod import FPPoly, fp_gauge
from dynalg.quotient import EdgeGenerator, FreeEdgePoly
from dynalg.scalars import ONE, ZERO, RationalComplex
from dynalg.semicrossed import SemicrossedElement, gauge
from dynalg.wordpoly import cesaro_mean, fourier_component

from oracles import random_dyadic_poly, random_element, random_system


def remade(p):
    if isinstance(p, SemicrossedElement):
        return SemicrossedElement.make(p.system, p.terms)
    if isinstance(p, FPPoly):
        assert all(type(c) is complex for c in p.terms.values())
        return FPPoly.make(p.signature, p.terms)
    return FreeEdgePoly.make(p.terms)


def kernel_results(p, q, scalars):
    """Every kernel operation on p and q, with operands that cancel."""
    for left, right in ((p, q), (p, p), (q, p)):
        yield left + right
        yield left - right
        yield left * right
        yield left + (-right)
    for value in scalars:
        yield p.scale(value)
    for k in range(p.degree + 2):
        yield fourier_component(p, k)
        yield cesaro_mean(p, k + 1)


def random_edge_poly(rng):
    edges = [EdgeGenerator(x, y, c) for x in range(2) for y in range(2) for c in range(2)]
    terms = {}
    for _ in range(4):
        word = tuple(rng.choice(edges) for _ in range(rng.randint(0, 3)))
        terms[word] = RationalComplex(rng.randint(-2, 2), rng.randint(-2, 2))
    return FreeEdgePoly.make(terms)


def test_kernel_results_are_in_normal_form():
    rng = random.Random(61)
    exact = (ZERO, ONE, RationalComplex(-1), RationalComplex(Fraction(1, 2), 3), 2)
    for _ in range(30):
        system = random_system(rng, rng.randint(1, 4), rng.randint(1, 3))
        p, q = (random_element(rng, system, 3) for _ in range(2))
        results = list(kernel_results(p, q, exact))
        for z in (ONE, ZERO, RationalComplex(0, 1)):
            results.append(gauge(p, [z] * system.arity))

        signature = rng.choice(((1,), (2, 1), (1, 1, 2)))
        f, g = (random_dyadic_poly(rng, signature, 3) for _ in range(2))
        results += kernel_results(f, g, (0, 1, -1.5, 0.25j, Fraction(1, 3)))
        for value in (0.0, 0.5j, 1):
            results.append(fp_gauge(f, [[value] * n for n in signature]))

        e, h = random_edge_poly(rng), random_edge_poly(rng)
        results += kernel_results(e, h, exact)

        for r in results:
            assert r == remade(r)
