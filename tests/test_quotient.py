import enum
import random
import re

import pytest

from dynalg.dynsys import (
    FiniteSystem,
    entry_signature,
    full_subsystem,
    local_signature,
    restrict,
    signatures_equivalent,
)
from dynalg.fixtures import (
    FOUR_POINT_OVERLAP,
    TWO_POINT_CONSTANT,
    TWO_POINT_MIXED,
)
from dynalg.quotient import FreeEdgePoly, quotient_map
from dynalg.scalars import ONE, qc
from dynalg.semicrossed import FunctionCoeff, SemicrossedElement, pullback, sc_multiply

from oracles import matrix_product_quotient, random_element, random_system, scrambled_pair


def test_quotient_of_generator_places_edge_generators():
    sub = full_subsystem(TWO_POINT_CONSTANT)
    s0 = SemicrossedElement.generator(TWO_POINT_CONSTANT, 0)
    mat = quotient_map(sub, s0)
    assert mat.entry(0, 0) == FreeEdgePoly.generator((0, 0, 0))
    assert mat.entry(0, 1) == FreeEdgePoly.generator((1, 0, 0))
    assert mat.entry(1, 0).is_zero() and mat.entry(1, 1).is_zero()


def test_quotient_of_function_is_diagonal():
    sub = restrict(FOUR_POINT_OVERLAP, {1, 2, 3})
    f = FunctionCoeff((qc(9), qc(2), qc(3), qc(5)))
    mat = quotient_map(sub, SemicrossedElement.from_function(FOUR_POINT_OVERLAP, f))
    for y in (1, 2, 3):
        for x in (1, 2, 3):
            entry = mat.entry(y, x)
            if x == y:
                assert entry == FreeEdgePoly.scalar(f.values[x])
            else:
                assert entry.is_zero()


def test_column_vanishing_outside_subset():
    # restrict the overlap system to {0, 1}: colour 0 sends 1 to 2, outside
    sub = restrict(FOUR_POINT_OVERLAP, {0, 1})
    s0 = quotient_map(sub, SemicrossedElement.generator(FOUR_POINT_OVERLAP, 0))
    assert s0.column_is_zero(1)
    assert not s0.column_is_zero(0)


def test_quotient_multiplicativity_against_matrix_product():
    rng = random.Random(21)
    for _ in range(100):
        sys = random_system(rng, rng.randint(2, 4), rng.randint(1, 3))
        subset = rng.sample(range(sys.size), rng.randint(1, sys.size))
        sub = restrict(sys, subset)
        a = random_element(rng, sys, 2, terms=3)
        b = random_element(rng, sys, 2, terms=3)
        assert quotient_map(sub, sc_multiply(a, b)) == quotient_map(sub, a) @ quotient_map(sub, b)


def test_quotient_map_matches_matrix_product_oracle_on_random_systems():
    rng = random.Random(22)
    for _ in range(150):
        sys = random_system(rng, rng.randint(1, 6), rng.randint(1, 3))
        sub = restrict(sys, rng.sample(range(sys.size), rng.randint(1, sys.size)))
        element = random_element(rng, sys, 4, terms=rng.randint(1, 6))
        assert quotient_map(sub, element) == matrix_product_quotient(sub, element)


def test_walks_that_leave_the_subset_contribute_nothing():
    # the 3-cycle 0 -> 1 -> 2 -> 0 on the subset {0, 2}: s_0 s_0 walks 0 -> 1 -> 2,
    # leaving the subset and coming back, and 2 -> 0 -> 1 ends outside
    cycle = FiniteSystem(size=3, tables=((1, 2, 0),))
    sub = restrict(cycle, {0, 2})
    one = FunctionCoeff.one(3)
    twice = SemicrossedElement.monomial(cycle, (0, 0), one)
    assert all(entry.is_zero() for row in quotient_map(sub, twice).entries for entry in row)
    thrice = quotient_map(sub, SemicrossedElement.monomial(cycle, (0, 0, 0), one))
    assert thrice.entry(0, 0).is_zero() and thrice.entry(2, 2).is_zero()
    once = quotient_map(sub, SemicrossedElement.monomial(cycle, (0,), one))
    assert once.entry(0, 2) == FreeEdgePoly.generator((2, 0, 0))

    rng = random.Random(23)
    reentered = 0
    for _ in range(150):
        sys = random_system(rng, rng.randint(3, 6), rng.randint(1, 3))
        subset = rng.sample(range(sys.size), rng.randint(2, sys.size - 1))
        sub = restrict(sys, subset)
        word = tuple(rng.randrange(sys.arity) for _ in range(rng.randint(1, 4)))
        element = SemicrossedElement.monomial(sys, word, FunctionCoeff.one(sys.size))
        mat = quotient_map(sub, element)
        assert mat == matrix_product_quotient(sub, element)
        for x in subset:
            visited = [x]
            for letter in reversed(word):
                visited.append(sys.tables[letter][visited[-1]])
            stays = set(visited) <= set(subset)
            reentered += not stays and visited[-1] in subset
            assert mat.column_is_zero(x) != stays
            if stays:
                steps = [
                    (visited[k], visited[k + 1], letter)
                    for k, letter in enumerate(reversed(word))
                ]
                edge_word = tuple(reversed(steps))
                assert mat.entry(visited[-1], x) == FreeEdgePoly.make({edge_word: ONE})
    assert reentered > 0


def test_quotient_map_matches_oracle_when_terms_cancel():
    rng = random.Random(24)
    for _ in range(60):
        sys = random_system(rng, rng.randint(2, 5), rng.randint(1, 3))
        sub = restrict(sys, rng.sample(range(sys.size), rng.randint(1, sys.size)))
        p = random_element(rng, sys, 3, terms=4)
        r = random_element(rng, sys, 3, terms=3)
        # the terms of p cancel in (r - p) + p
        total = (r - p) + p
        assert total == r
        assert quotient_map(sub, total) == quotient_map(sub, r) == matrix_product_quotient(sub, r)
        zero = quotient_map(sub, p - p)
        assert zero == matrix_product_quotient(sub, p - p)
        assert all(entry.is_zero() for row in zero.entries for entry in row)
        # a coefficient vanishing at a point zeroes that point's column
        kept = rng.sample(range(sys.size), rng.randint(0, sys.size))
        mask = FunctionCoeff.indicator(sys.size, kept)
        masked = p * SemicrossedElement.from_function(sys, mask)
        compressed = quotient_map(sub, masked)
        assert compressed == matrix_product_quotient(sub, masked)
        for x in sub.points:
            if mask.values[x].is_zero():
                assert compressed.column_is_zero(x)


def test_quotient_covariance_identity():
    sys = TWO_POINT_MIXED
    sub = full_subsystem(sys)
    for i in range(sys.arity):
        s = SemicrossedElement.generator(sys, i)
        for x in range(sys.size):
            f = FunctionCoeff.indicator(sys.size, {x})
            lhs = quotient_map(sub, sc_multiply(SemicrossedElement.from_function(sys, f), s))
            rhs = quotient_map(
                sub,
                sc_multiply(s, SemicrossedElement.from_function(sys, pullback(f, (i,), sys))),
            )
            assert lhs == rhs


def test_edge_words_compose_along_the_graph():
    sub = full_subsystem(TWO_POINT_MIXED)
    s0 = SemicrossedElement.generator(TWO_POINT_MIXED, 0)
    s1 = SemicrossedElement.generator(TWO_POINT_MIXED, 1)
    mat = quotient_map(sub, sc_multiply(s1, s0))
    for y in range(2):
        for x in range(2):
            for word in mat.entries[y][x].terms:
                for left, right in zip(word, word[1:]):
                    # edges are (source, target, colour), outermost first
                    assert left[0] == right[1]


def test_matrix_points_are_ints_of_the_subset():
    # the one integer rule, dynsys._is_int, and a message naming the value
    sub = restrict(FiniteSystem(size=3, tables=((1, 2, 0),)), {0, 1})
    mat = quotient_map(sub, SemicrossedElement.generator(sub.parent, 0))
    for point in (True, False, 1.0, 2, 5, -1, "0", None):
        message = rf"^point {re.escape(repr(point))} is not in the subset \[0, 1\]$"
        with pytest.raises(ValueError, match=message):
            mat.entry(point, 0)
        with pytest.raises(ValueError, match=re.escape(repr(point))):
            mat.entry(1, point)
        with pytest.raises(ValueError, match=re.escape(repr(point))):
            mat.column_is_zero(point)

    class K(enum.IntEnum):
        ZERO = 0
        ONE = 1

    assert mat.entry(K.ONE, K.ZERO) == mat.entry(1, 0) == FreeEdgePoly.generator((0, 1, 0))
    assert mat.column_is_zero(K.ONE) and not mat.column_is_zero(0)


def test_entry_signature_examples():
    assert entry_signature(full_subsystem(TWO_POINT_MIXED)) == (1, 1, 1, 1)
    assert entry_signature(full_subsystem(TWO_POINT_CONSTANT)) == (2, 2)
    isolated = restrict(FiniteSystem(size=2, tables=((1, 0),)), {0})
    assert entry_signature(isolated) == ()


def test_local_signature_examples():
    assert local_signature(TWO_POINT_MIXED, 0) == (1, 1, 1, 1)
    assert local_signature(TWO_POINT_CONSTANT, 0) == (2, 2)
    fixed = FiniteSystem(size=1, tables=((0,),))
    assert local_signature(fixed, 0) == (1,)


def test_signatures_equivalent():
    assert not signatures_equivalent((1, 1, 1, 1), (2, 2))
    assert signatures_equivalent((2, 1), (1, 2))
    assert signatures_equivalent((), ())


def test_signature_entries_sum_to_edge_count():
    from dynalg.dynsys import colored_graph

    rng = random.Random(35)
    for _ in range(40):
        sys = random_system(rng, rng.randint(1, 6), rng.randint(1, 3))
        subset = rng.sample(range(sys.size), rng.randint(1, sys.size))
        sub = restrict(sys, subset)
        assert sum(entry_signature(sub)) == len(colored_graph(sub).edges)


def test_signature_invariance_under_conjugacy():
    rng = random.Random(33)
    for _ in range(40):
        a, b = scrambled_pair(rng, rng.randint(2, 5), rng.randint(1, 3), constant_recolor=True)
        # constant recolourings come from a conjugacy after recolouring, so
        # whole-system signatures agree
        assert signatures_equivalent(
            entry_signature(full_subsystem(a)), entry_signature(full_subsystem(b))
        )


def test_signature_invariance_on_corresponding_subsets():
    # same-index conjugation: signatures of matching subsets agree exactly
    rng = random.Random(34)
    for _ in range(40):
        a = random_system(rng, rng.randint(2, 5), rng.randint(1, 3))
        gamma = list(range(a.size))
        rng.shuffle(gamma)
        tables = tuple(
            tuple(gamma[a.tables[i][gamma.index(y)]] for y in range(a.size))
            for i in range(a.arity)
        )
        b = FiniteSystem(size=a.size, tables=tables)
        subset = rng.sample(range(a.size), rng.randint(1, a.size))
        image = [gamma[x] for x in subset]
        assert signatures_equivalent(
            entry_signature(restrict(a, subset)), entry_signature(restrict(b, image))
        )


def test_quotient_rejects_foreign_elements():
    sub = full_subsystem(TWO_POINT_MIXED)
    foreign = SemicrossedElement.unit(TWO_POINT_CONSTANT)
    with pytest.raises(ValueError):
        quotient_map(sub, foreign)


def test_quotient_matrices_must_share_their_points():
    a = quotient_map(restrict(FOUR_POINT_OVERLAP, [0, 1]), SemicrossedElement.unit(FOUR_POINT_OVERLAP))
    b = quotient_map(restrict(FOUR_POINT_OVERLAP, [2, 3]), SemicrossedElement.unit(FOUR_POINT_OVERLAP))
    for op in (lambda: a + b, lambda: a @ b):
        with pytest.raises(ValueError, match="different point sets"):
            op()
    assert (a + a).points == (a @ a).points == (0, 1)


def test_free_edge_poly_arithmetic():
    e1 = FreeEdgePoly.generator((0, 1, 0))
    e2 = FreeEdgePoly.generator((1, 0, 1))
    prod = e1 * e2
    assert list(prod.terms) == [((0, 1, 0), (1, 0, 1))]
    assert (e1 + e1.scale(qc(-1))).is_zero()
    assert e1.scale(ONE) == e1


def test_edge_generators_are_read_by_the_edge_rule():
    # a generator is the one-edge word, refused where make refuses it
    assert FreeEdgePoly.generator((0, 1, 0)) == FreeEdgePoly.make({((0, 1, 0),): ONE})
    for edge in ("x", (1, 2, True), (0, 1), (0, 1.0, 0), None):
        word = (edge,)
        with pytest.raises(ValueError, match=rf"^edge word {re.escape(repr(word))} is not a tuple of"):
            FreeEdgePoly.generator(edge)


def test_edge_polys_read_exact_coefficients_and_edge_triples():
    # coefficients by RationalComplex.coerce, as FunctionCoeff reads them
    assert FreeEdgePoly.make({(): 1}) == FreeEdgePoly.scalar(qc(1)) == FreeEdgePoly.scalar(1)
    assert FreeEdgePoly.make({((0, 1, 0),): 2, (): 0}).terms == {((0, 1, 0),): qc(2)}
    for coeff in (0.5, 1j, "1", None):
        with pytest.raises(TypeError, match="exact complex scalar"):
            FreeEdgePoly.make({(): coeff})
    # a word is a tuple of (source, target, colour) triples of ints
    for word in (("x",), ((0, 1),), ((0, 1, 0, 2),), ((0, 1, True),), ((0, 1.0, 0),), (0, 1, 0), "abc", None):
        with pytest.raises(ValueError, match=rf"^edge word {re.escape(repr(word))} is not a tuple of"):
            FreeEdgePoly.make({word: ONE})

    class K(enum.IntEnum):
        ONE = 1

    assert FreeEdgePoly.make({((0, K.ONE, 0),): ONE}) == FreeEdgePoly.generator((0, 1, 0))
