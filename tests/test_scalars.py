import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynalg import cli
from dynalg.dynsys import FiniteSystem
from dynalg.scalars import ONE, ZERO, RationalComplex, qc
from dynalg.semicrossed import FunctionCoeff, SemicrossedElement
from oracles import FractionPairComplex


def test_basic_arithmetic():
    a = qc("1/2", "1/3")
    b = qc(2, -1)
    assert a + b == qc("5/2", "-2/3")
    assert a - a == ZERO
    assert a * ONE == a
    assert -a == qc("-1/2", "-1/3")


def test_multiplication_and_division_are_exact():
    rng = random.Random(11)
    for _ in range(200):
        a = qc(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        b = qc(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        if not b.is_zero():
            assert (a / b) * b == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a * b).abs_sq() == a.abs_sq() * b.abs_sq()


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_coercion_and_powers():
    assert RationalComplex.coerce(3) == qc(3)
    assert RationalComplex.coerce(Fraction(1, 2)) == qc("1/2")
    with pytest.raises(TypeError):
        RationalComplex.coerce(0.5)
    i = qc(0, 1)
    assert i ** 2 == qc(-1)
    assert i ** -1 == qc(0, -1)
    assert complex(qc("1/2", "-1/4")) == 0.5 - 0.25j


def test_integer_mixing():
    assert 2 * qc("1/2") == ONE
    assert qc(1) + 1 == qc(2)
    assert 1 - qc(0, 1) == qc(1, -1)


# ---- the (a, b, d) normal form against the two-Fraction oracle ---------------

numerators = st.one_of(st.just(0), st.integers(-12, 12), st.integers(-(2 ** 90), 2 ** 90))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70))
rationals = st.builds(Fraction, numerators, denominators)
parts = st.tuples(rationals, rationals)


def normal_form(z):
    return z._a, z._b, z._d


def assert_canonical(z):
    a, b, d = normal_form(z)
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert (a, b, d) == (0, 0, 1)


def assert_agrees(new, old):
    """A RationalComplex result equals the oracle's, in value and in print."""
    assert type(new) is RationalComplex
    assert_canonical(new)
    assert (new.re, new.im) == (old.re, old.im)
    assert type(new.re) is Fraction and type(new.im) is Fraction
    assert repr(new) == repr(old)
    assert new.is_zero() == old.is_zero() and bool(new) == bool(old)
    assert complex(new) == complex(old)


def both(p):
    return RationalComplex(*p), FractionPairComplex(*p)


def raises_like(op, new_args, old_args):
    """Run op on both classes: each returns a value or both raise ZeroDivisionError."""
    try:
        old = op(*old_args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(*new_args)
        return None, None
    return op(*new_args), old


@settings(max_examples=300, derandomize=True, database=None)
@given(parts, parts, st.integers(-5, 5))
def test_field_operations_match_fraction_pair_oracle(p, q, k):
    z, zo = both(p)
    w, wo = both(q)
    assert_agrees(z, zo)
    for op in (
        lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y,
        lambda x, y: x + k, lambda x, y: k + x, lambda x, y: x - k, lambda x, y: k - x,
        lambda x, y: x * k, lambda x, y: k * x, lambda x, y: x / k, lambda x, y: k / x,
        lambda x, y: x * Fraction(k, 7), lambda x, y: x + Fraction(k, 3),
    ):
        new, old = raises_like(op, (z, w), (zo, wo))
        if old is not None:
            assert_agrees(new, old)
    assert_agrees(-z, -zo)
    assert_agrees(z.conjugate(), zo.conjugate())
    assert z.abs_sq() == zo.abs_sq() and type(z.abs_sq()) is Fraction
    for e in range(-3, 4):
        new, old = raises_like(lambda x: x ** e, (z,), (zo,))
        if old is not None:
            assert_agrees(new, old)


@settings(max_examples=200, derandomize=True, database=None)
@given(parts, parts)
def test_equality_and_hash_follow_the_normal_form(p, q):
    z, zo = both(p)
    w, wo = both(q)
    assert (z == w) == (zo == wo) and (z != w) == (zo != wo)
    # Equal values reached by different routes are one normal form.
    for same in ((z + w) - w, z * 1, z * w / w if w else z, -(-z), z.conjugate().conjugate()):
        assert same == z and hash(same) == hash(z) and normal_form(same) == normal_form(z)
    assert len({z, (z + w) - w}) == 1
    # Like the dataclass it replaces, a scalar equals only scalars.
    assert (z == p[0]) is False and (ONE == 1) is False


def test_zero_has_one_normal_form():
    for zero in (ZERO, qc(0), qc("0/5", Fraction(0, 3)), qc("1/3") - qc("1/3"),
                 qc("2/7", "-1/9") * ZERO, -ZERO, ZERO.conjugate(), qc(5, 5) + qc(-5, -5)):
        assert normal_form(zero) == (0, 0, 1) and zero == ZERO and hash(zero) == hash(ZERO)
    assert normal_form(ONE) == (1, 0, 1)
    assert normal_form(qc("1/2", "1/3")) == (3, 2, 6)
    assert normal_form(qc("-2/4", "3/6")) == (-1, 1, 2)


def test_inputs_are_exact_only():
    for bad in (True, False, 0.1, 0.5, 1j, None, [1], qc(1), np.int64(1)):
        with pytest.raises(TypeError):
            RationalComplex(bad)
        with pytest.raises(TypeError):
            qc(bad)
        with pytest.raises(TypeError):
            qc(0, bad)
    for bad in (True, False, 0.1, 1j, None, "1/2", np.int64(1)):
        with pytest.raises(TypeError):
            RationalComplex.coerce(bad)
        with pytest.raises(TypeError):
            ONE + bad
    for bad in (True, 0.1, 1j, None, "1/2"):
        with pytest.raises(TypeError):
            bad * ONE
    # numpy scalars defer to RationalComplex on either side.
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(np.int64(1), ONE)
        with pytest.raises(TypeError):
            op(ONE, np.int64(1))
    with pytest.raises(TypeError):
        FunctionCoeff((ONE, True))
    assert RationalComplex("1/3", "-2") == qc(Fraction(1, 3), -2)
    assert RationalComplex(Fraction(6, 4)) == qc("3/2")
    coeff = FunctionCoeff([1, Fraction(1, 2)])
    assert coeff.values == (ONE, qc("1/2")) and type(coeff.values) is tuple


def test_scalars_are_immutable():
    z = qc("1/2", "1/3")
    for target in (z, ZERO, ONE):
        before = normal_form(target)
        for name in ("re", "im", "_a", "_b", "_d", "extra"):
            with pytest.raises(AttributeError):
                setattr(target, name, 7)
        for name in ("_a", "re"):
            with pytest.raises(AttributeError):
                delattr(target, name)
        assert normal_form(target) == before
    assert normal_form(ZERO) == (0, 0, 1) and normal_form(ONE) == (1, 0, 1)


def test_serialization():
    z = qc("1/2", "1/3")
    assert cli._scalar_json(z) == ["1/2", "1/3"]
    assert cli._scalar_json(qc(-3)) == ["-3", "0"]
    assert cli._scalar_json(ZERO) == ["0", "0"]
    assert repr(z) == "(1/2+1/3i)" and repr(qc(0, "-1/4")) == "-1/4i" and repr(qc(2)) == "2"
    for clone in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert clone == z and normal_form(clone) == normal_form(z)


def test_semicrossed_hash_agrees_with_equality_across_routes():
    sys = FiniteSystem(3, ((1, 2, 0), (0, 0, 1)))
    f = FunctionCoeff((qc("1/2", "1/3"), qc(-4), qc(0, "5/6")))
    g = FunctionCoeff((qc("2/3"), qc("1/4", "-1/4"), ONE))
    a = SemicrossedElement.make(sys, {(0,): f, (1, 0): g})
    b = SemicrossedElement.make(sys, {(1,): g, (): f})
    # The same element reached through different intermediate denominators.
    route = (a * b + b * a) - b * a
    assert route == a * b and hash(route) == hash(a * b)
    assert a.scale(qc(3, 1)).scale(qc(3, 1) ** -1) == a
    assert hash(a.scale(qc(3, 1)).scale(qc(3, 1) ** -1)) == hash(a)
