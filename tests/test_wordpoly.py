"""The shared kernel builds results already in normal form.

Every result of the kernel must equal its class's validating ``make``
of its own terms: no zero coefficient survives, every word is valid
over the operand's context, and free-product coefficients stay Python
``complex``.  Products must equal the pair-by-pair oracle, float
coefficients bit for bit, with the words in the oracle's order.
"""

import random
import re
from fractions import Fraction

import pytest

from dynalg.conjugacy import PartitionWitness
from dynalg.freeprod import FPPoly, fp_gauge
from dynalg.quotient import FreeEdgePoly
from dynalg.scalars import ONE, ZERO, RationalComplex
from dynalg.semicrossed import (
    CovariantHom, FunctionCoeff, SemicrossedElement, apply_hom, gauge, pullback, sc_multiply,
)
from dynalg.wordpoly import cesaro_mean, fourier_component

from oracles import classed_pair, pulled_product, random_dyadic_poly, random_element, random_system


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
    edges = [(x, y, c) for x in range(2) for y in range(2) for c in range(2)]
    terms = {}
    for _ in range(4):
        word = tuple(rng.choice(edges) for _ in range(rng.randint(0, 3)))
        terms[word] = RationalComplex(rng.randint(-2, 2), rng.randint(-2, 2))
    return FreeEdgePoly.make(terms)


def assert_exact_coefficients(coeffs):
    """Public-API checks on exact function coefficients: each is remade
    from its values, with an equal hash, and each value from its parts."""
    for f in coeffs:
        again = FunctionCoeff(f.values)
        assert again == f and hash(again) == hash(f)
        assert all(v == RationalComplex(v.re, v.im) for v in f.values)


def test_kernel_results_are_in_normal_form():
    rng = random.Random(61)
    # The homs and their elements come from a second stream, so the first
    # draws the same inputs as it did before they were added.
    hom_rng = random.Random(66)
    exact = (ZERO, ONE, RationalComplex(-1), RationalComplex(Fraction(1, 2), 3), 2)
    for _ in range(30):
        system = random_system(rng, rng.randint(1, 4), rng.randint(1, 3))
        p, q = (random_element(rng, system, 3) for _ in range(2))
        results = list(kernel_results(p, q, exact))
        for z in (ONE, ZERO, RationalComplex(0, 1)):
            results.append(gauge(p, [z] * system.arity))

        a, b, gamma, alpha = classed_pair(hom_rng, hom_rng.randint(4, 6), hom_rng.randint(1, 3), hom_rng.randint(1, 3))
        hom = CovariantHom(a, b, PartitionWitness(gamma=gamma, alpha=alpha))
        u, v = (random_element(hom_rng, a, 3) for _ in range(2))
        images = [apply_hom(hom, r) for r in kernel_results(u, v, exact)]
        pulled = [pullback(c, w, system) for r in results for w, c in r.terms.items()]
        for r in results + images:
            # An exact cancellation leaves no zero coefficient behind.
            assert all(r.terms.values())
            assert_exact_coefficients(r.terms.values())
        assert_exact_coefficients(pulled)

        signature = rng.choice(((1,), (2, 1), (1, 1, 2)))
        f, g = (random_dyadic_poly(rng, signature, 3) for _ in range(2))
        results += kernel_results(f, g, (0, 1, -1.5, 0.25j, Fraction(1, 3)))
        for value in (0.0, 0.5j, 1):
            results.append(fp_gauge(f, [[value] * n for n in signature]))

        e, h = random_edge_poly(rng), random_edge_poly(rng)
        edge_results = list(kernel_results(e, h, exact))
        assert all(c == RationalComplex(c.re, c.im) for r in edge_results for c in r.terms.values())
        results += edge_results

        for r in results:
            assert r == remade(r)


def test_exact_cancellations_store_no_zero():
    """(1 + x)(x - 1) = x x - 1 and (1 + x) + (x - 1) = 2 x in each kernel:
    terms cancel exactly in the product and in the sum, and every term
    cancels in a - a, a + (-a) and 0 a.  Free-product coefficients carry
    signed zeros, so some cancelled coefficients have -0.0 parts."""
    x_fp = ((0, 0),)
    f = FPPoly.make((1,), {(): complex(1.0, -0.0), x_fp: 1.0})
    g = FPPoly.make((1,), {x_fp: complex(1.0, -0.0), (): complex(-1.0, -0.0)})
    x_edge = ((0, 1, 0),)
    e = FreeEdgePoly.make({(): ONE, x_edge: ONE})
    h = FreeEdgePoly.make({x_edge: ONE, (): RationalComplex(-1)})
    system = random_system(random.Random(65), 3, 1)
    one = FunctionCoeff.one(3)
    p = SemicrossedElement.make(system, {(): one, (0,): one})
    q = SemicrossedElement.make(system, {(0,): one, (): -one})
    for left, right, x in ((f, g, x_fp), (e, h, x_edge), (p, q, (0,))):
        product, total = left * right, left + right
        assert set(product.terms) == {(), x + x} and set(total.terms) == {x}
        results = [product, total, left - left, left + (-left), right.scale(-0.0 if left is f else 0)]
        for r in results:
            assert all(r.terms.values()) and r == remade(r)
        assert [r.terms for r in results[2:]] == [{}, {}, {}]
    # A coefficient that vanishes only at some points is not zero, and stays.
    partial = p - SemicrossedElement.make(system, {(0,): FunctionCoeff((ONE, ZERO, ONE))})
    assert partial.terms[(0,)] == FunctionCoeff((ZERO, ONE, ZERO)) and partial == remade(partial)


def sparse_pair(rng, system):
    """Two elements whose coefficients vanish at some points, with the empty
    word on both sides, and a colour i whose word s_i cancels in their product."""
    i = rng.randrange(system.arity)
    p, q = (random_element(rng, system, 3) for _ in range(2))
    p_terms, q_terms = (
        {w: FunctionCoeff(tuple(ZERO if rng.random() < 0.4 else v for v in c.values)) for w, c in e.terms.items()}
        for e in (p, q)
    )
    f, g = (
        FunctionCoeff(tuple(RationalComplex(rng.randint(1, 5), rng.randint(-3, 3)) for _ in range(system.size)))
        for _ in range(2)
    )
    # (1 f + s_i 1)(s_i g - 1 (f o sigma_i) g) has no s_i term.
    p_terms.update({(): f, (i,): FunctionCoeff.one(system.size)})
    q_terms.update({(i,): g, (): -(pullback(f, (i,), system) * g)})
    return SemicrossedElement.make(system, p_terms), SemicrossedElement.make(system, q_terms), i


def float_poly(rng, signature):
    """A free-product polynomial whose coefficients mix signed zeros,
    dyadic values and inexact floats, so sums depend on their order."""
    slots = [(i, j) for i, n in enumerate(signature) for j in range(n)]
    parts = (0.0, -0.0, 1.0, -0.5, 0.1, -1 / 3, 2.5e-8, 7.0)
    terms = {}
    for _ in range(rng.randint(1, 8)):
        word = tuple(rng.choice(slots) for _ in range(rng.randint(0, 2)))
        terms[word] = complex(rng.choice(parts), rng.choice(parts))
    return FPPoly.make(signature, terms)


def test_product_matches_pair_by_pair_oracle():
    rng = random.Random(62)
    for _ in range(60):
        system = random_system(rng, rng.randint(1, 6), rng.randint(1, 3))
        p, q, i = sparse_pair(rng, system)
        assert () in p.terms and () in q.terms
        assert (i,) not in sc_multiply(p, q).terms
        for left, right in ((p, q), (q, p), (p, p), (p, SemicrossedElement.unit(system))):
            product = sc_multiply(left, right)
            assert product == pulled_product(left, right)
            assert list(product.terms) == list(pulled_product(left, right).terms)
            for coeff in product.terms.values():
                assert type(coeff.values) is tuple
                assert all(type(v) is RationalComplex for v in coeff.values)

        signature = rng.choice(((1,), (2, 1), (1, 1, 2)))
        f, g = float_poly(rng, signature), float_poly(rng, signature)
        for left, right in ((f, g), (g, f), (f, f)):
            product, oracle = left * right, pulled_product(left, right)
            # Equal reprs in equal order: bit-identical floats, words stored as the oracle meets them.
            assert [(w, repr(c)) for w, c in product.terms.items()] == [
                (w, repr(c)) for w, c in oracle.terms.items()
            ]

        e, h = random_edge_poly(rng), random_edge_poly(rng)
        for left, right in ((e, h), (h, e), (e, e - h)):
            assert left * right == pulled_product(left, right)
            assert list((left * right).terms) == list(pulled_product(left, right).terms)


def test_product_rejects_operands_over_other_contexts():
    rng = random.Random(63)
    a = random_system(rng, 3, 2)
    b = random_system(rng, 3, 2)
    while b == a:
        b = random_system(rng, 3, 2)
    p = random_element(rng, a, 2)
    for other in (random_element(rng, b, 2), SemicrossedElement.unit(b), random_dyadic_poly(rng, (2,))):
        with pytest.raises(ValueError, match="different contexts"):
            p * other
        with pytest.raises(ValueError, match="different contexts"):
            p + other
    f, g = random_dyadic_poly(rng, (2, 1)), random_dyadic_poly(rng, (1, 2))
    for left, right in ((f, g), (g, f), (f, FreeEdgePoly.scalar(ONE))):
        with pytest.raises(ValueError, match="different contexts"):
            left * right


def test_component_degree_and_cesaro_order_must_be_ints():
    p = random_dyadic_poly(random.Random(64), (2,), 3)
    for k in (True, 1.5, 1.0, "1", None, -1):
        with pytest.raises(ValueError, match=rf"^component degree must be an int >= 0, got {re.escape(repr(k))}$"):
            fourier_component(p, k)
    for k in (True, 1.5, 1.0, "1", None, 0):
        with pytest.raises(ValueError, match=rf"^Cesaro order must be an int >= 1, got {re.escape(repr(k))}$"):
            cesaro_mean(p, k)
    assert cesaro_mean(p, 1) == fourier_component(p, 0)
