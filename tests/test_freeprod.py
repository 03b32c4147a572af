import cmath
import enum
import math
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import dynalg.freeprod

from dynalg.freeprod import (
    BallMobius,
    FPPoly,
    PolyballAuto,
    PolyballPoint,
    MAX_LIFT_TERMS,
    U1nMatrix,
    abelianize,
    check_lift_work,
    eval_character,
    fp_gauge,
    fp_multiply,
    frac_linear,
    kernel_eval,
    lift_dual_check,
    mobius_apply,
    mobius_to_u1n,
    permutation_lift,
    polyball_auto_apply,
    sample_ball_points,
    voiculescu_lift,
)
from dynalg.reps import row_norm
from dynalg.scalars import qc
from dynalg.wordpoly import cesaro_mean, fourier_component
from oracles import (
    creation_operators, lift_at, looped_ball_samples, looped_lift_deviation, truncated_series_value,
)

SIG = (2, 3)


def gen(block, index, signature=SIG):
    return FPPoly.generator(signature, block, index)


def random_poly(rng, signature=SIG, max_degree=3, terms=5):
    out = {}
    slots = [(i, j) for i, n in enumerate(signature) for j in range(n)]
    for _ in range(terms):
        length = rng.randint(0, max_degree)
        word = tuple(rng.choice(slots) for _ in range(length))
        out[word] = out.get(word, 0) + complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return FPPoly.make(signature, out)


def max_coeff(p: FPPoly) -> float:
    """The largest coefficient modulus of a polynomial, 0 for zero."""
    return max((abs(c) for c in p.terms.values()), default=0.0)


def random_point(rng, signature=SIG, radius=0.7):
    blocks = tuple(tuple(sample_ball_points(rng, n, 1, radius)[0]) for n in signature)
    return PolyballPoint(blocks)


# ---- polynomial algebra ------------------------------------------------------


def test_fp_multiply_examples():
    unit = FPPoly.unit(SIG)
    p = gen(0, 1)
    assert fp_multiply(unit, p) == p
    ab = fp_multiply(gen(0, 0), gen(1, 0))
    ba = fp_multiply(gen(1, 0), gen(0, 0))
    assert list(ab.terms) != list(ba.terms)
    with pytest.raises(ValueError):
        fp_multiply(p, FPPoly.unit((2, 2)))


def test_fp_multiply_associative():
    rng = random.Random(12)
    for _ in range(30):
        a, b, c = (random_poly(rng, max_degree=2, terms=3) for _ in range(3))
        left = fp_multiply(fp_multiply(a, b), c)
        right = fp_multiply(a, fp_multiply(b, c))
        assert set(left.terms) == set(right.terms)
        assert all(abs(left.terms[w] - right.terms[w]) < 1e-12 for w in left.terms)


def test_eval_character_examples():
    p = fp_multiply(FPPoly.generator((1, 1), 0, 0), FPPoly.generator((1, 1), 1, 0))
    point = PolyballPoint(((0.5,), (0.2,)))
    assert abs(eval_character(p, point) - 0.1) < 1e-15

    rng = random.Random(13)
    for _ in range(30):
        a = random_poly(rng, max_degree=4)
        b = random_poly(rng, max_degree=4)
        lam = random_point(rng)
        assert abs(
            eval_character(fp_multiply(a, b), lam)
            - eval_character(a, lam) * eval_character(b, lam)
        ) < 1e-10

    origin = PolyballPoint(((0.0, 0.0), (0.0, 0.0, 0.0)))
    q = random_poly(rng)
    assert eval_character(q, origin) == q.terms.get((), 0)


def test_abelianize_examples():
    a, b = gen(0, 0), gen(0, 1)
    commutator = fp_multiply(a, b) - fp_multiply(b, a)
    assert abelianize(commutator) == {}
    assert abelianize(gen(0, 0)) != {}


def test_abelianize_kernel_iff_characters_vanish():
    from oracles import random_dyadic_poly

    rng = random.Random(14)
    for _ in range(50):
        p = random_dyadic_poly(rng, SIG, max_degree=4, terms=4)
        u = random_dyadic_poly(rng, SIG, max_degree=1, terms=2)
        v = random_dyadic_poly(rng, SIG, max_degree=1, terms=2)
        w = random_dyadic_poly(rng, SIG, max_degree=2, terms=2)
        kernel_element = fp_multiply(fp_multiply(u, v) - fp_multiply(v, u), w)
        assert abelianize(kernel_element) == {}
        for q, expect_zero in ((kernel_element, True), (p, abelianize(p) == {})):
            values = [
                abs(eval_character(q, random_point(rng))) for _ in range(40)
            ]
            if expect_zero:
                assert max(values, default=0.0) < 1e-10
            elif not q.is_zero():
                assert max(values) >= 1e-10


def test_kernel_eval():
    origin = PolyballPoint(((0.0,),))
    z = PolyballPoint(((0.3,),))
    assert kernel_eval(origin, z) == 1.0
    half = PolyballPoint(((0.5,),))
    assert abs(kernel_eval(half, half) - 4.0 / 3.0) < 1e-15
    two_blocks = PolyballPoint(((0.5,), (0.2, 0.1)))
    per_block = kernel_eval(
        PolyballPoint(((0.5,),)), PolyballPoint(((0.5,),))
    ) * kernel_eval(
        PolyballPoint(((0.2, 0.1),)), PolyballPoint(((0.2, 0.1),))
    )
    assert abs(kernel_eval(two_blocks, two_blocks) - per_block) < 1e-14
    boundary = PolyballPoint(((1.0,),))
    with pytest.raises(ValueError):
        kernel_eval(boundary, boundary)


def test_permutation_lift():
    sig = (2, 2, 1)
    p = FPPoly.generator(sig, 0, 1)
    assert permutation_lift((0, 1, 2), p) == p
    lifted = permutation_lift((1, 0, 2), p)
    assert list(lifted.terms) == [((1, 1),)]
    with pytest.raises(ValueError):
        permutation_lift((1, 2, 0), p)  # sizes 2,2,1 do not allow this cycle

    rng = random.Random(15)
    sig = (2, 2, 2)
    for _ in range(20):
        q = random_poly(rng, signature=sig)
        alpha = tuple(rng.sample(range(3), 3))
        lam = random_point(rng, signature=sig)
        mu = PolyballPoint(tuple(lam.blocks[alpha[i]] for i in range(3)))
        assert abs(
            eval_character(permutation_lift(alpha, q), lam) - eval_character(q, mu)
        ) < 1e-10
        inverse = tuple(alpha.index(i) for i in range(3))
        assert permutation_lift(inverse, permutation_lift(alpha, q)) == q
        # composition at the character level
        beta = tuple(rng.sample(range(3), 3))
        composed = permutation_lift(beta, permutation_lift(alpha, q))
        gamma = tuple(beta[alpha[i]] for i in range(3))
        assert composed == permutation_lift(gamma, q)


def test_abelianized_kernel_invariant_under_permutation_lift():
    rng = random.Random(16)
    sig = (2, 2)
    for _ in range(20):
        u = random_poly(rng, signature=sig, max_degree=1, terms=2)
        v = random_poly(rng, signature=sig, max_degree=1, terms=2)
        kernel_element = fp_multiply(u, v) - fp_multiply(v, u)
        assert abelianize(kernel_element) == {}
        assert abelianize(permutation_lift((1, 0), kernel_element)) == {}


def test_fp_gauge_and_components():
    rng = random.Random(17)
    zs = [(0.5 + 0.1j, -0.3j), (0.9, 0.2 + 0.2j, 1.0)]
    for _ in range(20):
        p = random_poly(rng, max_degree=4)
        total = FPPoly.zero(SIG)
        for k in range(p.degree + 1):
            total = total + fourier_component(p, k)
        assert total == p
        gauged = fp_gauge(p, zs)
        assert set(gauged.terms) == set(p.terms)  # all parameters nonzero
        q = cesaro_mean(p, 100)
        diff = p - q
        assert max_coeff(diff) <= p.degree / 100 * max_coeff(p) + 1e-12


# ---- ball automorphisms -------------------------------------------------------


def test_mobius_apply_examples():
    m = BallMobius.involution([0.5])
    assert abs(mobius_apply(m, [0.0])[0] - 0.5) < 1e-15
    assert abs(mobius_apply(m, [0.5])[0]) < 1e-15

    rng = random.Random(18)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = np.array(sample_ball_points(rng, n, 1, 0.8)[0])
        m = BallMobius.involution(a)
        lam = np.array(sample_ball_points(rng, n, 1, 0.99)[0])
        assert np.linalg.norm(mobius_apply(m, mobius_apply(m, lam)) - lam) < 1e-12
        assert np.linalg.norm(mobius_apply(m, lam)) < 1.0 + 1e-12


def test_ball_mobius_validation():
    with pytest.raises(ValueError):
        BallMobius(a=np.array([1.0]), unitary=np.eye(1))
    with pytest.raises(ValueError):
        BallMobius(a=np.array([0.1, 0.2]), unitary=np.eye(3))
    with pytest.raises(ValueError):
        BallMobius(a=np.array([0.1]), unitary=np.array([[2.0]]))


def test_mobius_to_u1n_scalar_example():
    m = BallMobius.involution([0.5])
    x = mobius_to_u1n(m)
    assert abs(frac_linear(x, [0.2])[0] - 1.0 / 3.0) < 1e-14


def test_mobius_to_u1n_identity_map():
    ident = BallMobius(a=np.zeros(2), unitary=-np.eye(2))
    x = mobius_to_u1n(ident)
    assert np.linalg.norm(x.matrix - np.eye(3)) < 1e-14


def test_mobius_to_u1n_structure_and_postcondition():
    rng = random.Random(19)
    j2 = np.diag([1.0, -1.0, -1.0]).astype(complex)
    for _ in range(40):
        a = np.array(sample_ball_points(rng, 2, 1, 0.8)[0])
        theta = rng.uniform(0, 2 * math.pi)
        u = np.array(
            [
                [cmath.exp(1j * theta), 0],
                [0, cmath.exp(-0.5j * theta)],
            ]
        )
        m = BallMobius(a=a, unitary=u)
        x = mobius_to_u1n(m)
        assert np.linalg.norm(x.matrix.conj().T @ j2 @ x.matrix - j2) < 1e-12
        assert abs(abs(x.x0) ** 2 - np.linalg.norm(x.eta2) ** 2 - 1) < 1e-12
        assert abs(abs(x.x0) ** 2 - np.linalg.norm(x.eta1) ** 2 - 1) < 1e-12
        assert abs(x.x0) > np.linalg.norm(x.eta1)
        for p in sample_ball_points(rng, 2, 5, 0.95):
            lam = np.array(p)
            assert np.linalg.norm(frac_linear(x, lam) - mobius_apply(m, lam)) < 1e-10


def test_frac_linear_examples_and_ball_preservation():
    ident = U1nMatrix(n=2, matrix=np.eye(3, dtype=complex))
    lam = np.array([0.3, -0.2j])
    assert np.linalg.norm(frac_linear(ident, lam) - lam) < 1e-15

    rot = U1nMatrix(n=1, matrix=np.diag([1.0, cmath.exp(1j * 0.8)]))
    assert abs(frac_linear(rot, [0.4])[0] - 0.4 * cmath.exp(1j * 0.8)) < 1e-15

    rng = random.Random(20)
    a = np.array(sample_ball_points(rng, 2, 1, 0.7)[0])
    x = mobius_to_u1n(BallMobius.involution(a))
    for p in sample_ball_points(rng, 2, 1000, 0.999):
        assert np.linalg.norm(frac_linear(x, np.array(p))) < 1.0

    with pytest.raises(ValueError):
        U1nMatrix(n=1, matrix=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_polyball_auto_apply():
    m0 = BallMobius.involution([0.2, 0.1])
    m1 = BallMobius.involution([-0.3, 0.0])
    auto = PolyballAuto(block_maps=(m0, m1), block_perm=(1, 0))
    point = PolyballPoint(((0.5, 0.0), (0.0, 0.4)))
    image = polyball_auto_apply(auto, point)
    assert np.allclose(image.blocks[0], mobius_apply(m0, (0.0, 0.4)))
    assert np.allclose(image.blocks[1], mobius_apply(m1, (0.5, 0.0)))
    with pytest.raises(ValueError):
        PolyballAuto(
            block_maps=(BallMobius.involution([0.1]), m1), block_perm=(1, 0)
        )


# ---- the series lift ------------------------------------------------------------


def test_voiculescu_lift_identity_and_rotation():
    ident = U1nMatrix(n=2, matrix=np.eye(3, dtype=complex))
    series = voiculescu_lift(ident, 7)
    for j, s in enumerate(series):
        assert s.certified_tail == 0.0
        assert s.as_polynomial().terms == {((0, j),): 1.0 + 0.0j}

    rot = U1nMatrix(n=1, matrix=np.diag([1.0, cmath.exp(1j * math.pi / 2)]))
    (s,) = voiculescu_lift(rot, 5)
    assert s.certified_tail == 0.0
    terms = s.as_polynomial().terms
    assert set(terms) == {((0, 0),)}
    assert abs(abs(terms[((0, 0),)]) - 1.0) < 1e-15


def test_voiculescu_lift_tail_formula():
    m = BallMobius.involution([0.5])
    x = mobius_to_u1n(m)
    order = 30
    (s,) = voiculescu_lift(x, order)
    q = np.linalg.norm(x.eta2) / abs(x.x0)
    affine = np.linalg.norm(x.x1.conj()[:, 0]) + abs(x.eta1[0])
    assert abs(q - 0.5) < 1e-14
    expected = affine / abs(x.x0) * q ** (order + 1) / (1 - q)
    assert abs(s.certified_tail - expected) < 1e-18
    assert s.certified_tail < 1e-6


def test_series_factored_evaluation_matches_polynomial():
    rng = random.Random(22)
    for _ in range(10):
        a = np.array(sample_ball_points(rng, 2, 1, 0.6)[0])
        x = mobius_to_u1n(BallMobius.involution(a))
        series = voiculescu_lift(x, 6)
        for s in series:
            poly = s.as_polynomial()
            for p in sample_ball_points(rng, 2, 5, 0.9):
                point = PolyballPoint((tuple(p),))
                assert abs(s.evaluate(point) - eval_character(poly, point)) < 1e-12


def test_lift_dual_check_examples():
    ident = U1nMatrix(n=2, matrix=np.eye(3, dtype=complex))
    rng = random.Random(24)
    report = lift_dual_check(ident, 5, sample_ball_points(rng, 2, 10, 0.9))
    assert report.deviation < 1e-14

    rot = U1nMatrix(n=1, matrix=np.diag([1.0, cmath.exp(1j * math.pi / 2)]))
    report = lift_dual_check(rot, 5, [[0.3]])
    assert report.deviation < 1e-12

    with pytest.raises(ValueError):
        lift_dual_check(ident, 5, [[0.95, 0.0]])


def test_certified_tails_are_python_floats():
    # abs() of a numpy entry is a numpy scalar; the tail must not carry one
    ident = U1nMatrix(n=2, matrix=np.eye(3, dtype=complex))
    mixed = mobius_to_u1n(BallMobius(a=np.array([0.3, 0.2j]), unitary=np.eye(2)))
    for x in (ident, mixed):
        for s in voiculescu_lift(x, 5):
            assert type(s.certified_tail) is float
        report = lift_dual_check(x, 5, sample_ball_points(random.Random(26), 2, 3, 0.9))
        assert type(report.certified_tail) is float and type(report.deviation) is float
    assert repr(lift_dual_check(ident, 5, [[0.1, 0.2]])).endswith("certified_tail=0.0)")


def test_lift_dual_check_mixed_matrices_certify():
    # A nontrivial centre together with a nontrivial unitary part; the lift
    # realises the action of X^-1, so the deviation stays within the tail.
    rng = random.Random(7)
    for centre, angle in (((0.5,), 0.7), ((0.3, 0.2j), 0.9)):
        n = len(centre)
        c, s = math.cos(angle), math.sin(angle)
        unitary = np.array([[c + 1j * s]]) if n == 1 else np.array([[c, -s], [s, c]])
        x = mobius_to_u1n(BallMobius(a=np.array(centre), unitary=unitary))
        report = lift_dual_check(x, 25, sample_ball_points(rng, n, 30, 0.9))
        assert report.certified_tail < 1e-7
        assert report.deviation <= report.certified_tail + 1e-10


def test_non_finite_inputs_rejected():
    nan = float("nan")
    with pytest.raises(ValueError, match="finite"):
        U1nMatrix(n=1, matrix=np.array([[nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        BallMobius(a=np.array([nan]), unitary=np.eye(1))
    with pytest.raises(ValueError, match="finite"):
        BallMobius(a=np.array([0.1]), unitary=np.array([[nan]]))
    with pytest.raises(ValueError, match="is not finite"):
        PolyballPoint(((nan, 0.0),))


def test_lift_dual_check_involutions_certify():
    rng = random.Random(25)
    for n in (1, 2, 3):
        a = np.array(sample_ball_points(rng, n, 1, 0.5)[0])
        x = mobius_to_u1n(BallMobius.involution(a))
        samples = sample_ball_points(rng, n, 50, 0.9)
        report = lift_dual_check(x, 25, samples)
        assert report.certified_tail <= 1e-6
        assert report.deviation <= report.certified_tail + 1e-10


def test_lift_dual_check_needs_samples_and_bounded_work():
    ident = U1nMatrix(n=2, matrix=np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match=r"^sample count must be an int >= 1, got 0$"):
        lift_dual_check(ident, 5, [])
    check_lift_work(3, 25, 30)  # the largest lift the benchmark runs
    for n, samples in ((1, 1), (2, 30), (3, 1000)):
        # the largest admitted order, then one more
        order = (MAX_LIFT_TERMS - 300 * samples) // (1 + n * samples) - 1
        check_lift_work(n, order, samples)
        with pytest.raises(ValueError, match="work limit"):
            check_lift_work(n, order + 1, samples)
    with pytest.raises(ValueError, match=r"^truncation order must be an int >= 0, got -5$"):
        check_lift_work(1, -5, 10**9)  # a negative order cannot shrink the work count
    with pytest.raises(ValueError, match="work limit"):
        lift_dual_check(ident, 10**9, [[0.1, 0.2]])
    # past 20 digits an order or a count is named by its digit count: 10**400 once made a
    # 514-character message, and past 4,300 digits Python refused to print the number
    limit = f"passes the work limit ({MAX_LIFT_TERMS} series terms); use a smaller degree or fewer samples"
    for args, message in (
        ((1, 10**19, 1), f"a lift of order 10000000000000000000 at 1 samples {limit}"),
        ((1, 10**400, 1), f"a lift of order <401-digit int> at 1 samples {limit}"),
        ((1, 10**5000, 1), f"a lift of order <5001-digit int> at 1 samples {limit}"),
        ((1, 1, 10**5000), f"a lift of order 1 at <5001-digit int> samples {limit}"),
    ):
        with pytest.raises(ValueError) as error:
            check_lift_work(*args)
        assert str(error.value) == message


def test_lift_check_space_does_not_grow_with_order():
    x = mobius_to_u1n(BallMobius.involution([0.5]))
    order = (MAX_LIFT_TERMS - 300) // 2 - 1  # the largest order admitted at n = 1, one sample
    tracemalloc.start()
    try:
        report = lift_dual_check(x, order, [[0.3]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the order + 1 coefficients alone would take over 100 MB
    assert report.certified_tail == 0.0 and report.deviation < 1e-15


def test_lift_dual_check_rejects_malformed_samples():
    # Each bad sample is a ValueError before any series arithmetic, so no
    # RuntimeWarning escapes and no NaN deviation comes back.
    nan, inf = float("nan"), float("inf")
    x = mobius_to_u1n(BallMobius.involution([0.3, 0.2j]))
    cases = (
        ([[nan, 0.1]], "is not finite"),
        ([[0.1, 0.2], [0.1, complex(0.0, nan)]], "is not finite"),
        ([[inf, 0.1]], "is not finite"),
        ([[0.1, -inf]], "is not finite"),
        ([[0.1, 0.2, 0.3]], r"signature \(3,\) does not match \(2,\)"),
        ([[0.1, 0.2], [0.3]], r"signature \(1,\) does not match \(2,\)"),
        ([[0.3], [0.1, 0.2]], r"signature \(1,\) does not match \(2,\)"),
        ([[0.1, 0.2], [0.95, 0.0]], r"norm 0\.9500 > 0\.9"),
    )
    for samples, message in cases:
        with pytest.raises(ValueError, match=message):
            lift_dual_check(x, 5, samples)
        if len({len(p) for p in samples}) == 1:
            with pytest.raises(ValueError, match=message):
                lift_dual_check(x, 5, np.array(samples, dtype=complex))


def random_mobius(rng, n, kind="mixed"):
    """A seeded involution, rotation or mixed automorphism of the n-ball."""
    a = np.zeros(n) if kind == "rotation" else np.array(sample_ball_points(rng, n, 1, 0.8)[0])
    if kind == "involution":
        return BallMobius.involution(a)
    g = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)])
    q, r = np.linalg.qr(g)
    return BallMobius(a=a, unitary=q * (np.diag(r) / np.abs(np.diag(r))))


def random_u1n(rng, n, kind):
    """A seeded involution, rotation or mixed matrix in U(1, n)."""
    return mobius_to_u1n(random_mobius(rng, n, kind))


def test_lift_array_pass_matches_looped_oracle():
    rng = random.Random(31)
    for case in range(45):
        n = 1 + case % 3
        x = random_u1n(rng, n, ("involution", "rotation", "mixed")[case // 3 % 3])
        order = (0, 60)[case] if case < 2 else rng.randint(0, 60)
        samples = sample_ball_points(rng, n, (1, 40)[case % 2] if case < 4 else rng.randint(1, 40))
        report = lift_dual_check(x, order, samples)
        assert abs(report.deviation - looped_lift_deviation(x, order, samples)) <= 1e-12
        for s in voiculescu_lift(x, order):
            for p in samples:
                point = PolyballPoint((tuple(p),))
                assert abs(s.evaluate(point) - truncated_series_value(s, point)) <= 1e-12


# The lift as an operator map: compressing to the words of length <= D is
# multiplicative on the analytic algebra, so these identities hold exactly there.


def test_lift_at_truncated_creation_operators_leaves_a_rank_one_defect():
    rng = random.Random(52)
    for n, depth in ((1, 6), (2, 4), (3, 3)):
        ops = creation_operators(n, depth)
        for _ in range(3):
            phi = lift_at(random_u1n(rng, n, "mixed"), ops)
            # I - sum Phi_j Phi_j* compresses the rank-one defect of a pure row isometry
            eigenvalues = np.linalg.eigvalsh(np.eye(len(ops[0])) - sum(p @ p.conj().T for p in phi))
            assert np.abs(eigenvalues[:-1]).max() <= 1e-12
            assert eigenvalues[-1] > 0.5


def test_lift_composes_as_the_reversed_matrix_product():
    rng = random.Random(53)
    for n, depth in ((1, 6), (2, 4), (3, 3)):
        ops = creation_operators(n, depth)
        for _ in range(2):
            x, y = random_u1n(rng, n, "mixed"), random_u1n(rng, n, "mixed")
            composed = lift_at(x, lift_at(y, ops))
            yx = lift_at(U1nMatrix(n=n, matrix=y.matrix @ x.matrix), ops)
            xy = lift_at(U1nMatrix(n=n, matrix=x.matrix @ y.matrix), ops)
            assert max(np.abs(c - e).max() for c, e in zip(composed, yx)) <= 1e-12
            assert max(np.abs(c - e).max() for c, e in zip(composed, xy)) > 1e-3


def _polyball_lift(matrices, perm, rows):
    """Block i's lifted generators at the row of block perm[i]."""
    return [lift_at(x, rows[perm[i]]) for i, x in enumerate(matrices)]


def test_polyball_lift_composes_blocks_and_permutations():
    # T^A at T^B is T^C: block i of C has matrix X^B_{pA[i]} X^A_i and reads
    # block pB[pA[i]], by the one-block identity applied block by block.
    rng = random.Random(54)
    for sizes, perm_a, perm_b in (((1, 1, 1), (1, 2, 0), (1, 0, 2)), ((2, 2), (1, 0), (1, 0))):
        ops = creation_operators(sum(sizes), 3)  # 40 and 85 rows
        starts = np.cumsum((0,) + sizes)
        rows = [ops[start:stop] for start, stop in zip(starts, starts[1:])]
        perm_c = [perm_b[k] for k in perm_a]
        for _ in range(2):
            a, b = (PolyballAuto(tuple(random_mobius(rng, n) for n in sizes), p) for p in (perm_a, perm_b))
            xa, xb = ([mobius_to_u1n(m) for m in auto.block_maps] for auto in (a, b))
            composed = _polyball_lift(xa, a.block_perm, _polyball_lift(xb, b.block_perm, rows))

            def distance(factors, perm):
                products = [U1nMatrix(n=x.n, matrix=x.matrix @ y.matrix) for x, y in factors]
                expected = _polyball_lift(products, perm, rows)
                return max(np.abs(c - e).max() for t, u in zip(composed, expected) for c, e in zip(t, u))

            factors = [(xb[k], xa[i]) for i, k in enumerate(perm_a)]
            assert distance(factors, perm_c) <= 1e-12
            # the factors of each block swapped, or B's matrix taken at block i
            assert distance([(x, y) for y, x in factors], perm_c) > 1e-3
            assert distance(list(zip(xb, xa)), perm_c) > 1e-3
            if len(sizes) == 3:  # two blocks' permutations commute
                assert distance(factors, [perm_a[k] for k in perm_b]) > 1e-3


def test_sample_ball_points_matches_looped_draws():
    for n in (1, 2, 3):
        for count in (0, 1, 7, 40):
            for radius in (0.5, 0.9, 0.999):
                rng, ref = random.Random(100 * n + count), random.Random(100 * n + count)
                points = sample_ball_points(rng, n, count, radius)
                expected = np.array(looped_ball_samples(ref, n, count, radius)).reshape(count, n)
                assert points.shape == (count, n)
                assert np.abs(points - expected).max(initial=0.0) <= 1e-15
                assert rng.getstate() == ref.getstate()

    class ZeroGauss(random.Random):
        def gauss(self, mu=0.0, sigma=1.0):
            return 0.0

    # An all-zero draw is the centre and takes no radius draw.
    rng, ref = ZeroGauss(3), ZeroGauss(3)
    assert not sample_ball_points(rng, 2, 4).any()
    assert looped_ball_samples(ref, 2, 4) == [(0j, 0j)] * 4
    assert rng.getstate() == ref.getstate() == ZeroGauss(3).getstate()


def test_ball_samples_need_int_sizes():
    # n and count are checked before any draw, so the generator is untouched
    rng = random.Random(5)
    for n, count, message in (
        (0, 3, r"dimension must be an int >= 1, got 0"),
        (-1, 3, r"dimension must be an int >= 1, got -1"),
        (2.0, 3, r"dimension must be an int >= 1, got 2\.0"),
        (True, 3, r"dimension must be an int >= 1, got True"),
        (2, -1, r"sample count must be an int >= 0, got -1"),
        (2, 1.5, r"sample count must be an int >= 0, got 1\.5"),
        (2, False, r"sample count must be an int >= 0, got False"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_ball_points(rng, n, count)
    assert rng.getstate() == random.Random(5).getstate()
    assert sample_ball_points(rng, 2, 0).shape == (0, 2)


def test_signatures_and_symbols_must_be_ints():
    for signature in ((2.7,), (True,), (0,), (2, -1)):
        with pytest.raises(ValueError, match=rf"^block size must be an int >= 1, got {re.escape(repr(signature[-1]))}$"):
            FPPoly.make(signature, {})
    # every polyball object reads its block sizes by the same rule
    for refused in (
        lambda: PolyballPoint(((),)),
        lambda: PolyballPoint(((0.5,), ())),
        lambda: BallMobius.involution([]),
        lambda: BallMobius(a=np.zeros(0), unitary=np.eye(0)),
    ):
        with pytest.raises(ValueError, match=r"^(block size|dimension) must be an int >= 1, got 0$"):
            refused()
    for empty in (
        lambda: FPPoly.make((), {}),
        lambda: PolyballPoint(()),
        lambda: PolyballAuto((), ()),
    ):
        with pytest.raises(ValueError, match="^a block signature needs at least one block$"):
            empty()
    mobius = BallMobius.involution([0.5])
    assert PolyballAuto((mobius,), (0,)).block_maps == (mobius,)
    for symbol, what in (
        ((False, True), r"symbol block must be an int in 0\.\.0, got False"),
        ((0, 1.0), r"symbol index must be an int in 0\.\.1, got 1\.0"),
        ((0.0, 1), r"symbol block must be an int in 0\.\.0, got 0\.0"),
        ((0, 2), r"symbol index must be an int in 0\.\.1, got 2"),
        ((1, 0), r"symbol block must be an int in 0\.\.0, got 1"),
        ((-1, 0), r"symbol block must be an int in 0\.\.0, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{what}$"):
            FPPoly.make((2,), {(symbol,): 1})
    assert FPPoly.make([2], {((0, 1),): 1}).signature == (2,)



@pytest.mark.parametrize("build, message", [
    (lambda: FPPoly.make((1,), {(): [1]}), r"^coefficient \[1\] is not a number$"),
    (lambda: FPPoly.unit((1,)).scale(None), r"^scale factor None is not a number$"),
    (lambda: fp_gauge(FPPoly.unit((1,)), [[None]]), r"^gauge parameter None is not a number$"),
    (lambda: PolyballPoint(((None,),)), r"^block 0 coordinate None is not a number$"),
], ids=["list-coefficient", "none-scale", "none-gauge", "none-coordinate"])
def test_values_complex_cannot_read_are_named_as_not_numbers(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_coefficients_are_finite_numbers():
    for coeff in ("2", "1+2j", "nan", True, False, np.bool_(True)):
        with pytest.raises(TypeError, match="is not a number"):
            FPPoly.make((1,), {(): coeff})
    for coeff in (math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0), np.float64("nan")):
        with pytest.raises(ValueError, match="is not finite"):
            FPPoly.make((1,), {(): coeff})

    class K(enum.IntEnum):
        THREE = 3

    # Every numeric input read before is still read, as a Python complex.
    for coeff, value in (
        (2, 2), (K.THREE, 3), (-0.5, -0.5), (1.5j, 1.5j), (Fraction(1, 4), 0.25), (Decimal("0.5"), 0.5),
        (qc(1, "1/2"), 1 + 0.5j), (np.int64(3), 3), (np.float32(0.5), 0.5), (np.complex128(2j), 2j),
    ):
        p = FPPoly.make((1,), {(): coeff})
        assert type(p.terms[()]) is complex and p.terms[()] == value
    for zero in (0, 0.0, -0.0j, Fraction(0), np.float64(-0.0)):
        assert FPPoly.make((1,), {(): zero}).terms == {}


def test_ball_coordinates_and_centres_follow_the_coefficient_rule():
    # the rule of FPPoly.make: no text or bools, and finite
    mobius = BallMobius.involution([0.5])
    unit = U1nMatrix(n=1, matrix=np.eye(2))
    entry_points = {
        "PolyballPoint": lambda v: PolyballPoint(((v,),)),
        "involution": lambda v: BallMobius.involution([v]),
        "BallMobius": lambda v: BallMobius(a=[v], unitary=np.eye(1)),
        "mobius_apply": lambda v: mobius_apply(mobius, [v]),
        "frac_linear": lambda v: frac_linear(unit, [v]),
    }
    for name, call in entry_points.items():
        for bad in ("0.5", np.str_("0.5"), True, np.True_):
            with pytest.raises(TypeError, match="is not a number"):
                call(bad)
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            with pytest.raises(ValueError, match="is not finite"):
                call(bad)
        # every number read before is still read
        for good in (0, 0.5, 0.5j, Fraction(1, 2), Decimal("0.5"), np.int64(0), np.float32(0.5)):
            call(good)
    assert PolyballPoint(((Fraction(1, 2), np.float32(0.25)),)).blocks == ((0.5, 0.25),)
    assert BallMobius.involution(np.array([0.25])).a.tolist() == [0.25]


class _Unit(enum.IntEnum):
    ONE = 1


# Numbers of modulus below 0.9 and of modulus 1, each with the complex it reads as.
_SMALL = (
    (0, 0), (0.5, 0.5), (0.5j, 0.5j), (complex(0.3, -0.4), complex(0.3, -0.4)), (Fraction(1, 2), 0.5),
    (Decimal("0.5"), 0.5), (np.int64(0), 0), (np.float32(0.5), 0.5), (np.complex128(0.5j), 0.5j),
)
_UNIT = (
    (1, 1), (_Unit.ONE, 1), (-1.0, -1), (1j, 1j), (Fraction(-1), -1), (Decimal("1"), 1),
    (np.int64(1), 1), (np.float32(-1), -1), (np.complex128(-1j), -1j),
)


def test_every_float_entry_point_follows_one_number_rule():
    centre = BallMobius(a=[0.0], unitary=np.eye(1))
    unit = U1nMatrix(n=1, matrix=np.eye(2))
    mixed = mobius_to_u1n(BallMobius(a=[0.5], unitary=[[1j]]))
    # name: (the value the entry point reads from v, the numbers it takes)
    entry_points = {
        "PolyballPoint": (lambda v: PolyballPoint(((v,),)).blocks[0][0], _SMALL),
        "BallMobius centre": (lambda v: BallMobius(a=[v], unitary=np.eye(1)).a[0], _SMALL),
        "BallMobius unitary": (lambda v: BallMobius(a=[0.0], unitary=[[v]]).unitary[0, 0], _UNIT),
        "involution": (lambda v: BallMobius.involution([v]).a[0], _SMALL),
        "mobius_apply": (lambda v: -mobius_apply(centre, [v])[0], _SMALL),
        "frac_linear": (lambda v: frac_linear(unit, [v])[0], _SMALL),
        "U1nMatrix": (lambda v: U1nMatrix(n=1, matrix=[[1, 0], [0, v]]).matrix[1, 1], _UNIT),
        "lift_dual_check": (lambda v: lift_dual_check(mixed, 5, [[v]]).deviation, _SMALL),
        "fp_gauge": (lambda v: fp_gauge(gen(0, 0, (1,)), [[v]]).terms.get(((0, 0),), 0), _SMALL + _UNIT),
        "FPPoly.scale": (lambda v: FPPoly.unit((1,)).scale(v).terms.get((), 0), _SMALL + _UNIT),
        "row_norm": (lambda v: row_norm([[[v, 0.0]]]), _SMALL + _UNIT),
    }
    for name, (read, numbers) in entry_points.items():
        for bad in ("0.5", np.str_("0.5"), True, np.True_):
            with pytest.raises(TypeError, match="is not a number"):
                read(bad)
        for bad in (math.nan, math.inf, complex(0.0, -math.inf), 10**400):
            with pytest.raises(ValueError, match="is not finite"):
                read(bad)
        # every number read before reads as the complex it stands for
        for value, expected in numbers:
            assert read(value) == read(complex(expected)), (name, value)
    # an ndarray is read whole, and a list mixing bools with numbers value by value
    samples = np.array([[0.5], [0.25j]])
    assert lift_dual_check(mixed, 5, samples) == lift_dual_check(mixed, 5, samples.tolist())
    with pytest.raises(TypeError, match="True is not a number"):
        U1nMatrix(n=1, matrix=[[1, 0], [0, True]])
    with pytest.raises(TypeError, match="True is not a number"):
        lift_dual_check(_U1N_2, 3, [[0.1, True]])
    x = np.eye(2, dtype=complex)
    assert U1nMatrix(n=1, matrix=x).matrix is not x  # a copy, as frozen fields need


def test_ball_map_checks_refuse_entries_that_overflow():
    # X*JX and U*U overflow to inf or nan here; warnings are errors under pytest
    huge = [[1e200, 1e200], [1e200, -1e200]]
    for matrix in ([[1e200, 0], [0, 1]], huge):
        with pytest.raises(ValueError, match="X\\*JX = J"):
            U1nMatrix(n=1, matrix=matrix)
    for unitary in ([[1e200, 0], [0, 1]], huge):
        with pytest.raises(ValueError, match="not unitary"):
            BallMobius(a=[0.0, 0.0], unitary=unitary)


def test_arithmetic_results_keep_finite_coefficients():
    big = FPPoly.unit((1,)).scale(1e200)
    overflows = {
        "scale": lambda: big.scale(1e200),
        "fp_multiply": lambda: fp_multiply(big, big),
        "fp_gauge": lambda: fp_gauge(FPPoly.generator((1,), 0, 0).scale(1e200), [[1e200]]),
        "sum": lambda: big.scale(1e108) + big.scale(1e108),
        "difference": lambda: big.scale(1e108) - big.scale(-1e108),
        "abelianize": lambda: abelianize(
            FPPoly.make((2,), {((0, 0), (0, 1)): 1e308, ((0, 1), (0, 0)): 1e308})
        ),
        "eval_character": lambda: eval_character(
            FPPoly.make((1,), {(): 1e308, ((0, 0),): 1e308}), PolyballPoint(((1.0,),))
        ),
    }
    for name, call in overflows.items():
        with pytest.raises(ValueError, match="overflowed"):
            call()
    # large results that stay in range pass, including those whose coefficient sum overflows
    assert fp_multiply(big, big.scale(1e-100)).terms == {(): 1e300}
    pair = FPPoly.make((2,), {((0, 0),): 1e308, ((0, 1),): 1e308})
    assert (pair * FPPoly.unit((2,))).terms == pair.terms
    assert (pair + FPPoly.zero((2,))).terms == pair.terms
    assert big.scale(1e108).terms == {(): 1e308}
    assert (big.scale(1e108) - big.scale(1e108)).terms == {}


def test_ball_sample_radius_is_a_real_number_in_the_unit_interval():
    rng = random.Random(5)
    for radius, error in (
        (1.5, ValueError), (-0.5, ValueError), (0, ValueError), (0.5j, ValueError),
        (math.nan, ValueError), (math.inf, ValueError),
        (True, TypeError), (np.True_, TypeError), ("0.5", TypeError),
    ):
        with pytest.raises(error, match="radius"):
            sample_ball_points(rng, 2, 3, radius=radius)
    assert rng.getstate() == random.Random(5).getstate()  # refused before any draw
    for radius in (1, Fraction(9, 10), np.float64(0.9), 0.9):
        samples = sample_ball_points(random.Random(6), 2, 50, radius)
        assert (np.linalg.norm(samples, axis=1) < radius).all()
        assert np.array_equal(samples, sample_ball_points(random.Random(6), 2, 50, float(radius)))


def test_int_subclasses_are_ints_for_sizes_and_symbols():
    # as FiniteSystem accepts them: only bool among int subclasses is refused
    class K(enum.IntEnum):
        ZERO = 0
        ONE = 1
        TWO = 2

    p = FPPoly.make((K.ONE, K.TWO), {((K.ONE, K.ONE), (K.ZERO, K.ZERO)): 1})
    assert p == FPPoly.make((1, 2), {((1, 1), (0, 0)): 1})
    assert U1nMatrix(n=K.ONE, matrix=np.eye(2)).n == 1
    assert len(voiculescu_lift(U1nMatrix(n=K.ONE, matrix=np.eye(2)), K.TWO)) == 1


def test_block_permutations_must_be_int_permutations():
    m0 = BallMobius.involution([0.2, 0.1])
    m1 = BallMobius.involution([-0.3, 0.0])
    p = FPPoly.generator((2, 2), 0, 1)
    for perm in ((True, False), (1.0, 0.0), (0, 0), (0,), ("1", "0")):
        with pytest.raises(ValueError, match="not a permutation of the blocks"):
            PolyballAuto(block_maps=(m0, m1), block_perm=perm)
        with pytest.raises(ValueError, match="not a permutation of the blocks"):
            permutation_lift(perm, p)
    with pytest.raises(ValueError, match="pairs block 0"):
        permutation_lift((1, 0), FPPoly.generator((2, 1), 0, 1))


def test_u1n_size_must_be_an_int_of_at_least_one():
    for n in (True, 1.0, 0, -1, "1", None):
        with pytest.raises(ValueError, match="n must be an int"):
            U1nMatrix(n=n, matrix=np.eye(2))
    assert U1nMatrix(n=1, matrix=np.eye(2)).n == 1


# ---- one shape rule for every entry point ----------------------------------------

_PAIR = (0.1, 0.2)
_TRIPLE = PolyballPoint(((0.1, 0.2, 0.3),))
_U1N_2 = U1nMatrix(n=2, matrix=np.eye(3, dtype=complex))
_MOBIUS_2 = BallMobius.involution([0.1, 0.2])

# Each entry point given a point of signature (3,) where (2,) belongs.
SHAPE_ERRORS = {
    "eval_character": lambda: eval_character(gen(0, 0, (2,)), _TRIPLE),
    "kernel_eval": lambda: kernel_eval(PolyballPoint((_PAIR,)), _TRIPLE),
    "NCSeries.evaluate": lambda: voiculescu_lift(_U1N_2, 3)[0].evaluate(_TRIPLE),
    "frac_linear": lambda: frac_linear(_U1N_2, _TRIPLE.blocks[0]),
    "lift samples": lambda: lift_dual_check(_U1N_2, 3, [_PAIR, _TRIPLE.blocks[0]]),
    "fp_gauge": lambda: fp_gauge(gen(0, 0, (2,)), [(1, 1, 1)]),
    "mobius_apply": lambda: mobius_apply(_MOBIUS_2, _TRIPLE.blocks[0]),
    "polyball_auto_apply": lambda: polyball_auto_apply(
        PolyballAuto(block_maps=(_MOBIUS_2,), block_perm=(0,)), _TRIPLE
    ),
}


@pytest.mark.parametrize("call", SHAPE_ERRORS.values(), ids=list(SHAPE_ERRORS))
def test_every_entry_point_checks_the_block_signature(call):
    with pytest.raises(ValueError, match=r"^point signature \(3,\) does not match \(2,\)$"):
        call()


# ---- one ball rule for every entry point -----------------------------------------

_X2 = mobius_to_u1n(_MOBIUS_2)

# Each entry point: (a call on a 2-vector v, the radius of its ball, the name
# of v in its errors).  The centre alone lies in the open ball.
BALL_ENTRY_POINTS = {
    "PolyballPoint": (lambda v: eval_character(gen(0, 1, (2,)), PolyballPoint((v,))), 1, "block 0"),
    "BallMobius centre": (lambda v: BallMobius(a=v, unitary=np.eye(2)), 1, "centre"),
    "involution": (lambda v: BallMobius.involution(v), 1, "centre"),
    "mobius_apply": (lambda v: mobius_apply(_MOBIUS_2, v), 1, "point"),
    "frac_linear": (lambda v: frac_linear(_X2, v), 1, "point"),
    "lift samples list": (lambda v: lift_dual_check(_X2, 3, [_PAIR, v]), 0.9, "sample 1"),
    "lift samples ndarray": (lambda v: lift_dual_check(_X2, 3, np.array([v])), 0.9, "sample"),
}


@pytest.mark.parametrize("name", BALL_ENTRY_POINTS)
def test_every_ball_entry_point_follows_one_ball_rule(name):
    call, radius, row = BALL_ENTRY_POINTS[name]
    centre = "centre" in row
    past = ">=" if centre else ">"
    for scale in (1.5, 1 + 1e-9):  # past the radius, and past its one tolerance of 1e-12
        with pytest.raises(ValueError, match=rf"^{row} has norm {scale * radius:.4f} {past} {radius:g}$"):
            call((0.0, scale * radius))
    # on the sphere, up to the tolerance: refused only as a centre
    for sphere in ((0.6 * radius, 0.8j * radius), (0.0, (1 + 1e-13) * radius)):
        if centre:
            with pytest.raises(ValueError, match=r"^centre has norm 1\.0000 >= 1$"):
                call(sphere)
        else:
            call(sphere)
    # a ragged row is named, not left to numpy's message; an ndarray cannot be ragged
    if "ndarray" not in name:
        with pytest.raises(ValueError, match=rf"^{row} coordinates must all have one shape$"):
            call((0.6, [0.8]))
    # a norm past the float range reads as inf, with no numpy warning (warnings are errors here)
    for huge in ((1e200, 0.0), (0.0, complex(1e308, 1e308))):
        with pytest.raises(ValueError, match=rf"^{row} has norm inf {past} {radius:g}$"):
            call(huge)
    # the length of a centre sets the dimension; every other vector must match it
    if not centre:
        with pytest.raises(ValueError, match=r"^point signature \(3,\) does not match \(2,\)$"):
            call((0.1, 0.2, 0.3))


def test_a_row_gets_one_verdict_however_it_is_given():
    # Norms within a few ulps of the closed radius's tolerance: a tuple of
    # floats (read coordinate by coordinate), the same row as an ndarray and
    # as one of two rows (read by numpy) are accepted or refused together.
    rng = random.Random(12)
    edge = 1 + 1e-12
    for _ in range(200):
        v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rng.randint(1, 5))])
        v *= edge / np.linalg.norm(v)
        for k in range(-3, 4):
            row = v * (1 + k * 2.0**-52)
            verdicts = set()
            for rows in ((tuple(row.tolist()),), row[None, :], [tuple(row.tolist()), row]):
                try:
                    dynalg.freeprod._ball_rows(rows, len(row), "point")
                    verdicts.add(True)
                except ValueError:
                    verdicts.add(False)
            assert len(verdicts) == 1


def test_gauge_tuples_need_one_row_per_block():
    p = gen(0, 0)
    with pytest.raises(ValueError, match=r"signature \(2,\) does not match \(2, 3\)"):
        fp_gauge(p, [(1, 1)])
    assert fp_gauge(p, [(0.5, 1), (1, 1, 1)]) == p.scale(0.5)


def test_mobius_at_the_centre_is_minus_its_unitary():
    unitary = np.array([[0, 1j], [1, 0]], dtype=complex)
    m = BallMobius(a=np.zeros(2), unitary=unitary)
    lam = np.array([0.3, -0.4j])
    assert np.array_equal(mobius_apply(m, lam), -(unitary @ lam))
    assert np.allclose(frac_linear(mobius_to_u1n(m), lam), mobius_apply(m, lam), atol=1e-15)


def test_u1n_matrix_must_match_its_size():
    with pytest.raises(ValueError, match="matrix must be 3x3"):
        U1nMatrix(n=2, matrix=np.eye(2))


def test_ragged_samples_of_the_right_size_are_rejected():
    # Both samples flatten to two coordinates but do not stack into one array.
    with pytest.raises(ValueError, match="samples must all have one shape"):
        lift_dual_check(_U1N_2, 3, [[0.1, 0.2], [[0.1], [0.2]]])


def test_lift_order_must_be_a_nonnegative_int():
    for order in (True, 2.5, -1, "3", None):
        with pytest.raises(ValueError, match=rf"^truncation order must be an int >= 0, got {re.escape(repr(order))}$"):
            voiculescu_lift(_U1N_2, order)
    for order in (2**1023, 10**400):  # the bound names no 308-digit number
        with pytest.raises(ValueError, match=r"^truncation order must be below 2\*\*1023$"):
            voiculescu_lift(_U1N_2, order)
    assert voiculescu_lift(_U1N_2, 2**1023 - 1)[0].certified_tail == 0.0
    with pytest.raises(ValueError, match="truncation order"):
        lift_dual_check(_U1N_2, 2.5, [_PAIR])
    (s,) = voiculescu_lift(U1nMatrix(n=1, matrix=np.eye(2)), 0)
    assert s.order == 0 and s.evaluate(PolyballPoint(((0.5,),))) == 0.5
