import copy
import dataclasses
import enum
import operator
import pickle
import re
import random
import time
from fractions import Fraction

import pytest

from dynalg.conjugacy import PartitionWitness, decide_partition, decide_piecewise
from dynalg.dynsys import evaluate_word
from dynalg.fixtures import (
    FOUR_POINT_SPLIT_A,
    FOUR_POINT_SPLIT_B,
    TWO_POINT_CONSTANT,
    TWO_POINT_MIXED,
)
from dynalg.freeprod import FPPoly
from dynalg.quotient import FreeEdgePoly
from dynalg.scalars import ONE, qc
from dynalg.semicrossed import (
    CovariantHom,
    FunctionCoeff,
    SemicrossedElement,
    apply_hom,
    cesaro_mean,
    covariance_defects,
    fourier_component,
    gauge,
    identity_hom,
    partition_isomorphism,
    pullback,
    sc_multiply,
)

from oracles import (
    classed_pair,
    direct_triple_product,
    make_rng,
    multiplicative_hom_image,
    orbit_apply,
    orbit_relabel,
    random_dyadic_poly,
    random_element,
    random_system,
    scrambled_pair,
)


def chi(size, subset):
    return FunctionCoeff.indicator(size, subset)


def test_pullback_examples():
    chi0 = chi(2, {0})
    assert pullback(chi0, (1,), TWO_POINT_MIXED) == chi(2, {1})
    assert pullback(chi0, (), TWO_POINT_MIXED) == chi0
    const = FunctionCoeff.constant(2, qc(5))
    assert pullback(const, (0, 1, 1), TWO_POINT_MIXED) == const


def test_pullback_matches_evaluate_word():
    rng = random.Random(13)
    for _ in range(100):
        sys = random_system(rng, rng.randint(1, 6), rng.randint(1, 3))
        f = FunctionCoeff(tuple(rng.randint(-5, 5) for _ in range(sys.size)))
        word = tuple(rng.randrange(sys.arity) for _ in range(rng.randint(0, 5)))
        expected = tuple(f.values[evaluate_word(sys, word, x)] for x in range(sys.size))
        assert pullback(f, word, sys).values == expected
    with pytest.raises(ValueError):
        pullback(FunctionCoeff.one(2), (2,), TWO_POINT_MIXED)


def test_elements_hash_consistently_with_equality():
    rng = random.Random(3)
    a = random_element(rng, TWO_POINT_MIXED, 3)
    copy = SemicrossedElement.make(TWO_POINT_MIXED, dict(reversed(list(a.terms.items()))))
    unit = SemicrossedElement.unit(TWO_POINT_MIXED)
    assert copy == a and hash(copy) == hash(a)
    assert hash(sc_multiply(unit, a)) == hash(a)
    members = {a, copy, unit, SemicrossedElement.unit(TWO_POINT_MIXED)}
    assert members == {a, unit} and len(members) == 2
    assert SemicrossedElement.unit(TWO_POINT_CONSTANT) not in members

    # The other word polynomials share the kernel's hash.
    p = random_dyadic_poly(rng, (2, 1))
    q = FPPoly.make((2, 1), dict(reversed(list(p.terms.items()))))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    signed = FPPoly.make((1,), {(): complex(-0.0, 1.0)})
    assert signed == FPPoly.make((1,), {(): 1j}) and hash(signed) == hash(FPPoly.make((1,), {(): 1j}))
    e1 = FreeEdgePoly.generator((0, 1, 0))
    e2 = FreeEdgePoly.generator((1, 0, 1))
    assert e1 * e2 + e2 * e1 == e2 * e1 + e1 * e2
    assert hash(e1 * e2 + e2 * e1) == hash(e2 * e1 + e1 * e2)
    assert {e1, e1.scale(ONE), e2} == {e1, e2}


def test_covariance_relation_example():
    # chi_{0} s_1 = s_1 chi_{1} on the two-point mixed system
    f = SemicrossedElement.from_function(TWO_POINT_MIXED, chi(2, {0}))
    s1 = SemicrossedElement.generator(TWO_POINT_MIXED, 1)
    lhs = sc_multiply(f, s1)
    assert lhs == SemicrossedElement.monomial(TWO_POINT_MIXED, (1,), chi(2, {1}))


def test_unit_and_system_mismatch():
    a = random_element(random.Random(1), TWO_POINT_MIXED, 2)
    unit = SemicrossedElement.unit(TWO_POINT_MIXED)
    assert sc_multiply(unit, a) == a
    assert sc_multiply(a, unit) == a
    other = SemicrossedElement.unit(TWO_POINT_CONSTANT)
    with pytest.raises(ValueError):
        sc_multiply(a, other)


def test_associativity_against_direct_expansion():
    rng = random.Random(2)
    for _ in range(40):
        a = random_element(rng, FOUR_POINT_SPLIT_A, 2, terms=3)
        b = random_element(rng, FOUR_POINT_SPLIT_A, 2, terms=3)
        c = random_element(rng, FOUR_POINT_SPLIT_A, 2, terms=3)
        direct = direct_triple_product(a, b, c)
        assert sc_multiply(sc_multiply(a, b), c) == direct
        assert sc_multiply(a, sc_multiply(b, c)) == direct


def test_normal_form_uniqueness_by_subtraction():
    rng = random.Random(3)
    for _ in range(30):
        a = random_element(rng, TWO_POINT_MIXED, 3)
        b = random_element(rng, TWO_POINT_MIXED, 3)
        prod = sc_multiply(a, b)
        again = sc_multiply(a, b)
        assert (prod - again).is_zero()
        assert prod == again


def test_gauge_examples_and_multiplicativity():
    sys = TWO_POINT_MIXED
    rng = random.Random(4)
    ones = [ONE, ONE]
    zeros = [qc(0), qc(0)]
    a = random_element(rng, sys, 2)
    assert gauge(a, ones) == a
    f = SemicrossedElement.from_function(sys, chi(2, {0}))
    g = SemicrossedElement.monomial(sys, (0,), FunctionCoeff.constant(2, qc(3)))
    assert gauge(f + g, zeros) == f
    for _ in range(25):
        zs = [qc(Fraction(3, 5), Fraction(4, 5)), qc(Fraction(-1, 2), Fraction(1, 3))]
        x = random_element(rng, sys, 2)
        y = random_element(rng, sys, 2)
        assert gauge(sc_multiply(x, y), zs) == sc_multiply(gauge(x, zs), gauge(y, zs))


def test_gauge_rejects_large_parameters():
    a = SemicrossedElement.unit(TWO_POINT_MIXED)
    with pytest.raises(ValueError):
        gauge(a, [qc(2), ONE])


def test_gauge_injectivity_coefficientwise():
    rng = random.Random(5)
    zs = [qc(Fraction(1, 2)), qc(0, Fraction(-3, 4))]
    for _ in range(20):
        a = random_element(rng, TWO_POINT_MIXED, 3)
        assert gauge(a, zs).is_zero() == a.is_zero()
        assert set(gauge(a, zs).terms) == set(a.terms)


def test_fourier_components():
    sys = TWO_POINT_MIXED
    f = SemicrossedElement.from_function(sys, chi(2, {0}))
    g = SemicrossedElement.monomial(sys, (0,), FunctionCoeff.constant(2, qc(2)))
    a = f + g
    assert fourier_component(a, 0) == f
    assert fourier_component(a, 1) == g
    assert fourier_component(a, 2).is_zero()
    rng = random.Random(6)
    for _ in range(20):
        b = random_element(rng, sys, 4)
        # components reassemble the element and are mutually annihilating
        total = SemicrossedElement.zero(sys)
        for k in range(b.degree + 1):
            total = total + fourier_component(b, k)
        assert total == b
        for k in range(b.degree + 1):
            for j in range(b.degree + 1):
                piece = fourier_component(fourier_component(b, k), j)
                if j != k:
                    assert piece.is_zero()
        # components commute with gauge scaling
        zs = [qc(Fraction(3, 5), Fraction(4, 5)), qc(Fraction(1, 3))]
        for k in range(b.degree + 1):
            assert fourier_component(gauge(b, zs), k) == gauge(
                fourier_component(b, k), zs
            )


def test_cesaro_mean_formula_and_bound():
    sys = TWO_POINT_MIXED
    rng = random.Random(7)
    f = SemicrossedElement.from_function(sys, chi(2, {1}))
    for k in range(1, 6):
        assert cesaro_mean(f, k) == f
    for _ in range(15):
        a = random_element(rng, sys, 5)
        d = a.degree
        max_sq = max(
            (v.abs_sq() for coeff in a.terms.values() for v in coeff.values),
            default=Fraction(0),
        )
        for k in list(range(1, 12)) + [50, 100]:
            mean = cesaro_mean(a, k)
            expected = SemicrossedElement.zero(sys)
            for i in range(min(k - 1, d) + 1):
                expected = expected + fourier_component(a, i).scale(Fraction(k - i, k))
            assert mean == expected
            if d == 0:
                assert mean == a
                continue
            deviation = a - mean
            bound_sq = Fraction(d, k) ** 2 * max_sq
            for coeff in deviation.terms.values():
                for v in coeff.values:
                    assert v.abs_sq() <= bound_sq
    with pytest.raises(ValueError):
        cesaro_mean(f, 0)


def test_identity_hom_and_covariance_checker():
    hom = identity_hom(FOUR_POINT_SPLIT_A)
    a = random_element(random.Random(8), FOUR_POINT_SPLIT_A, 3)
    assert apply_hom(hom, a) == a
    assert covariance_defects(hom) == []


def test_covariance_checker_names_the_failing_pairs():
    # The identity witness does not intertwine the two split systems: the
    # maps agree on points 0 and 1 and differ on 2 and 3.  The hom is built
    # unverified, as partition_isomorphism builds its reverse.
    identity = PartitionWitness(gamma=(0, 1, 2, 3), alpha=((0, 1),) * 4)
    with pytest.raises(ValueError, match="witness fails verification"):
        CovariantHom(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, identity)
    hom = object.__new__(CovariantHom)
    hom.__dict__.update(source=FOUR_POINT_SPLIT_A, target=FOUR_POINT_SPLIT_B, witness=identity)
    assert covariance_defects(hom) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_apply_hom_is_linear_in_the_points():
    # A row of values is built once per image word, not once per (term,
    # point) pair; with a row per pair this took about 4.4 s (2-core VM).
    system = random_system(random.Random(14), 20_000, 2)
    hom = identity_hom(system)
    generators = [SemicrossedElement.generator(system, i) for i in range(2)]
    started = time.perf_counter()
    for s in generators:
        assert apply_hom(hom, apply_hom(hom, s)) == s
    assert time.perf_counter() - started < 1.0


def test_inputs_of_the_wrong_size_or_system_are_rejected():
    a = SemicrossedElement.generator(TWO_POINT_MIXED, 0)
    for zs in ([ONE], [ONE, ONE, ONE]):
        with pytest.raises(ValueError, match=f"need 2 gauge parameters, got {len(zs)}"):
            gauge(a, zs)
    with pytest.raises(ValueError, match="different system"):
        apply_hom(identity_hom(TWO_POINT_CONSTANT), a)
    with pytest.raises(ValueError, match=r"^component degree must be an int >= 0, got -1$"):
        fourier_component(a, -1)
    with pytest.raises(ValueError, match="coefficient has 3 values, system has 2 points"):
        SemicrossedElement.make(TWO_POINT_MIXED, {(): FunctionCoeff.one(3)})


def test_pointwise_operations_name_both_sizes():
    f, g = FunctionCoeff.one(2), FunctionCoeff.one(3)
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((f, g), (g, f)):
            with pytest.raises(ValueError, match=f"coefficients have {left.size} and {right.size} values"):
                op(left, right)
    assert f * qc(2) == f + f and (f - f).is_zero()


def test_coefficient_sums_take_only_coefficients():
    # A scalar is added point by point only through a constant coefficient;
    # any other operand is a TypeError, as a scalar on the left of * is.
    f = FunctionCoeff((1,))
    for other in (1, Fraction(1, 2), ONE, None, "1", (ONE,)):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(f, other)
            with pytest.raises(TypeError):
                op(other, f)
    with pytest.raises(TypeError):
        2 * f
    assert f + FunctionCoeff.constant(1, 1) == f * 2 == FunctionCoeff((2,))


def test_coefficients_are_values():
    f = FunctionCoeff((qc("1/2", 1), 0, Fraction(-3, 4)))
    for name in ("values", "size", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, ())
    for clone in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert clone == f and hash(clone) == hash(f) and clone.values == f.values
    assert f.values == (qc("1/2", 1), qc(0), qc("-3/4")) and type(f.values) is tuple
    assert repr(f) == "FunctionCoeff(values=((1/2+1i), 0, -3/4))"


def test_partition_isomorphism_requires_valid_witness():
    from dynalg.conjugacy import PartitionWitness

    bad = PartitionWitness(gamma=(0, 1), alpha=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        partition_isomorphism(TWO_POINT_MIXED, TWO_POINT_CONSTANT, bad)


def test_partition_isomorphism_generator_images():
    witness = decide_partition(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B)
    forward, reverse = partition_isomorphism(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, witness)
    # V_{0,0} = {0,1}, V_{0,1} = {2,3}: forward s_0 = t_0 chi_{0,1} + t_1 chi_{2,3}
    expected = SemicrossedElement.make(
        FOUR_POINT_SPLIT_B,
        {(0,): chi(4, {0, 1}), (1,): chi(4, {2, 3})},
    )
    assert forward.generator_images[0] == expected
    assert covariance_defects(forward) == []
    assert covariance_defects(reverse) == []

    identity_witness = decide_partition(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_A)
    fwd, _ = partition_isomorphism(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_A, identity_witness)
    for i in range(2):
        assert fwd.generator_images[i] == SemicrossedElement.generator(FOUR_POINT_SPLIT_A, i)


def test_partition_isomorphism_round_trip_exactly():
    witness = decide_partition(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B)
    forward, reverse = partition_isomorphism(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, witness)
    for i in range(2):
        s = SemicrossedElement.generator(FOUR_POINT_SPLIT_A, i)
        assert apply_hom(reverse, apply_hom(forward, s)) == s
        t = SemicrossedElement.generator(FOUR_POINT_SPLIT_B, i)
        assert apply_hom(forward, apply_hom(reverse, t)) == t
    rng = random.Random(9)
    for _ in range(30):
        a = random_element(rng, FOUR_POINT_SPLIT_A, 3)
        assert apply_hom(reverse, apply_hom(forward, a)) == a
        b = random_element(rng, FOUR_POINT_SPLIT_B, 3)
        assert apply_hom(forward, apply_hom(reverse, b)) == b


def test_reverse_hom_pulls_back_along_gamma():
    # the reverse map sends f to f o gamma and t_j to sum_i s_i chi_{V_{i,j}}
    rng = random.Random(10)
    checked = 0
    for _ in range(80):
        a, b = scrambled_pair(rng, rng.randint(2, 6), rng.randint(1, 3))
        witness = decide_partition(a, b)
        if witness is None:
            continue
        checked += 1
        _, reverse = partition_isomorphism(a, b, witness)
        for x in range(a.size):
            assert reverse.point_mass_images[witness.gamma[x]] == chi(a.size, {x})
        for j in range(a.arity):
            expected = SemicrossedElement.make(
                a, {(i,): chi(a.size, witness.index_set(i, j)) for i in range(a.arity)}
            )
            assert reverse.generator_images[j] == expected
        assert covariance_defects(reverse) == []
    assert checked > 20


def _partition_homs(rng, pairs):
    """The hom pairs of the partition-matchable scrambled pairs among ``pairs`` draws."""
    homs = []
    for _ in range(pairs):
        a, b = scrambled_pair(rng, rng.randint(2, 6), rng.randint(1, 3))
        witness = decide_partition(a, b)
        if witness is not None:
            homs.append(partition_isomorphism(a, b, witness))
    return homs


def test_partition_isomorphism_verifies_both_witnesses(monkeypatch):
    # both homs come from the one constructor, so each verifies its witness
    import dynalg.semicrossed as semicrossed

    checked = []
    verify = semicrossed.verify_witness

    def counted(a, b, witness):
        checked.append((a, b, witness))
        return verify(a, b, witness)

    monkeypatch.setattr(semicrossed, "verify_witness", counted)
    homs = _partition_homs(random.Random(12), 40)
    assert len(homs) > 10
    assert len(checked) == 2 * len(homs)
    assert checked == [(h.source, h.target, h.witness) for pair in homs for h in pair]
    for forward, reverse in homs:
        assert reverse.witness == forward.witness.inverse()
        assert (reverse.source, reverse.target) == (forward.target, forward.source)


def test_apply_hom_matches_multiplicative_oracle():
    rng = random.Random(11)
    pairs = _partition_homs(rng, 80)
    assert len(pairs) > 20
    for forward, reverse in pairs:
        for hom in (forward, reverse, identity_hom(forward.source)):
            for _ in range(2):
                element = random_element(rng, hom.source, 5)
                assert apply_hom(hom, element) == multiplicative_hom_image(hom, element)


def test_apply_hom_is_multiplicative_and_linear():
    rng = random.Random(12)
    pairs = _partition_homs(rng, 60)
    assert len(pairs) > 15
    for pair in pairs:
        for hom in pair:
            x = random_element(rng, hom.source, 3)
            y = random_element(rng, hom.source, 3)
            assert apply_hom(hom, x * y) == apply_hom(hom, x) * apply_hom(hom, y)
            assert apply_hom(hom, x - y) == apply_hom(hom, x) - apply_hom(hom, y)


def test_covariant_hom_is_its_verified_witness():
    assert [f.name for f in dataclasses.fields(CovariantHom)] == ["source", "target", "witness"]
    bad = PartitionWitness(gamma=(0, 1), alpha=((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="witness fails verification"):
        CovariantHom(TWO_POINT_MIXED, TWO_POINT_CONSTANT, bad)
    with pytest.raises(ValueError):
        CovariantHom(TWO_POINT_MIXED, TWO_POINT_MIXED, PartitionWitness((0, 0), ((0, 1),) * 2))
    witness = decide_partition(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B)
    assert CovariantHom(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, witness).witness == witness
    # a piecewise witness that intertwines but is not preimage-saturated carries no hom
    piecewise = decide_piecewise(TWO_POINT_MIXED, TWO_POINT_CONSTANT)
    with pytest.raises(TypeError, match="^a hom is carried by a PartitionWitness, not PiecewiseWitness$"):
        CovariantHom(TWO_POINT_MIXED, TWO_POINT_CONSTANT, piecewise)


def test_repr_lists_terms_by_word_length():
    assert repr(SemicrossedElement.zero(TWO_POINT_MIXED)) == "SemicrossedElement(0)"
    a = SemicrossedElement.generator(TWO_POINT_MIXED, 1) + SemicrossedElement.from_function(
        TWO_POINT_MIXED, chi(2, [0])
    )
    assert repr(a) == "SemicrossedElement(1*['1', '0'] + s1*['1', '1'])"


def test_coefficient_difference_adds_the_negation():
    f = FunctionCoeff((qc(1, 2), qc("1/3", 1), ONE))
    g = FunctionCoeff((ONE, qc(-1, "2/5"), qc(0, 0)))
    assert f - g == f + (-g) == FunctionCoeff((qc(0, 2), qc("4/3", "3/5"), ONE))
    assert (f - f).is_zero()


@pytest.mark.parametrize("size", [200, 2000])
def test_orbit_representation_checks_products_at_large_sizes(size):
    """pi_x(a b) = pi_x(a) pi_x(b) on a few basis vectors e_u at three points."""
    rng = make_rng(size)
    system = random_system(rng, size, 2)
    a, b = (random_element(rng, system, 3, terms=6) for _ in range(2))
    product, swapped = sc_multiply(a, b), sc_multiply(b, a)
    words = [(), (1,), (0, 1), (1, 1, 0)]
    caught = 0
    for x in rng.sample(range(size), 3):
        for u in words:
            expected = orbit_apply(a, x, orbit_apply(b, x, {u: ONE}))
            assert orbit_apply(product, x, {u: ONE}) == expected
            caught += orbit_apply(swapped, x, {u: ONE}) != expected
    # The check tells b a from a b at every point and vector.
    assert caught == 3 * len(words)


@pytest.mark.parametrize("size", [200, 2000])
def test_orbit_representation_checks_apply_hom_at_large_sizes(size):
    """pi_{gamma x}(phi(a)) U_x = U_x pi_x(a), where U_x relabels words along their walks from x."""
    rng = make_rng(size + 1)
    a, b, gamma, alpha = classed_pair(rng, size, 3, 5)
    assert len(set(alpha)) > 1
    hom = CovariantHom(a, b, PartitionWitness(gamma=gamma, alpha=alpha))
    element = random_element(rng, a, 3, terms=6)
    image = apply_hom(hom, element)
    for x in rng.sample(range(size), 3):
        for u in [(), (2,), (0, 1), (1, 2, 0)]:
            got = orbit_apply(image, gamma[x], {orbit_relabel(a, alpha, x, u): ONE})
            moved = orbit_apply(element, x, {u: ONE})
            assert got == {orbit_relabel(a, alpha, x, w): c for w, c in moved.items()}


def test_coefficient_sizes_follow_the_integer_rule():
    # the one int rule, dynsys._int_in, and a message naming the value
    for size in (-1, True, False, 2.0, "3", None):
        with pytest.raises(ValueError, match=rf"^size must be an int >= 0, got {re.escape(repr(size))}$"):
            FunctionCoeff.constant(size, 1)
        with pytest.raises(ValueError, match=rf"^size must be an int >= 0, got {re.escape(repr(size))}$"):
            FunctionCoeff.indicator(size, [0])

    class K(enum.IntEnum):
        TWO = 2

    assert FunctionCoeff.indicator(K.TWO, [0]).values == (ONE, qc(0))
    assert FunctionCoeff.constant(K.TWO, 3) == FunctionCoeff((qc(3), qc(3)))
    assert FunctionCoeff.constant(0, 1).values == FunctionCoeff.indicator(0, []).values == ()


def test_indicator_subsets_are_int_points():
    for item in (True, 1.0, 7, 3, -1, "1", None):
        with pytest.raises(ValueError, match=rf"^subset item must be an int in 0\.\.2, got {re.escape(repr(item))}$"):
            FunctionCoeff.indicator(3, [0, item])

    class K(enum.IntEnum):
        ONE = 1

    assert FunctionCoeff.indicator(3, iter([K.ONE, 2])).values == (qc(0), ONE, ONE)
    assert FunctionCoeff.indicator(3, set()).is_zero()
    # the one point-set rule, dynsys._point_set: a repeated point is named
    for size, subset in ((2, [1, 1]), (3, iter([K.ONE, 2, 1]))):
        with pytest.raises(ValueError, match=r"^subset item 1 is listed twice$"):
            FunctionCoeff.indicator(size, subset)


def test_element_coefficients_must_be_function_coeffs():
    system = TWO_POINT_MIXED
    for coeff in (1, ONE, (ONE, ONE), None):
        with pytest.raises(TypeError, match=rf"^coefficient {re.escape(repr(coeff))} is not a FunctionCoeff$"):
            SemicrossedElement.make(system, {(): coeff})
    f = FunctionCoeff.constant(system.size, 2)
    assert SemicrossedElement.make(system, {(): f}) == SemicrossedElement.from_function(system, f)

