import itertools
import random

import pytest

from dynalg.dynsys import (
    FiniteSystem,
    colored_graph,
    equivalence_classes,
    evaluate_word,
    full_subsystem,
    map_range,
    ranges_pairwise_disjoint,
    restrict,
    validate_word,
)
from dynalg.fixtures import (
    FOUR_POINT_OVERLAP,
    FOUR_POINT_SPLIT_A,
    TWO_POINT_CONSTANT,
    TWO_POINT_MIXED,
)
from dynalg.quotient import local_signature
from dynalg.reps import build_colour_rep, nest_rep_exists
from dynalg.semicrossed import SemicrossedElement

from oracles import random_system


def test_system_validation():
    with pytest.raises(ValueError):
        FiniteSystem(size=2, tables=((0, 2),))
    with pytest.raises(ValueError):
        FiniteSystem(size=2, tables=((0,),))
    with pytest.raises(ValueError):
        FiniteSystem(size=0, tables=(()))
    with pytest.raises(ValueError):
        FiniteSystem(size=2, tables=())


def test_system_validation_rejects_non_integers():
    with pytest.raises(ValueError, match="not a point"):
        FiniteSystem(2, ((0.0, 1.0), (1, 0)))
    with pytest.raises(ValueError, match="not a point"):
        FiniteSystem(size=1, tables=((False,),))
    with pytest.raises(ValueError, match="not an integer"):
        FiniteSystem(size=True, tables=((0,),))
    with pytest.raises(ValueError, match="not an integer"):
        FiniteSystem(size=2.0, tables=((0, 1),))


def test_evaluate_word_examples():
    assert evaluate_word(TWO_POINT_MIXED, (), 1) == 1
    assert evaluate_word(TWO_POINT_MIXED, (1, 1), 0) == 0
    assert evaluate_word(FOUR_POINT_OVERLAP, (0, 1), 0) == 2
    with pytest.raises(ValueError):
        evaluate_word(TWO_POINT_MIXED, (2,), 0)
    with pytest.raises(ValueError):
        evaluate_word(TWO_POINT_MIXED, (0,), 5)


def test_points_and_colours_must_be_ints():
    a = TWO_POINT_MIXED
    # A bool or a float that names a valid index is still rejected.
    for call in (
        lambda: evaluate_word(a, (1,), True),
        lambda: evaluate_word(a, (1.0,), 0),
        lambda: validate_word(a, (0, False)),
        lambda: map_range(a, True),
        lambda: restrict(a, [0.5]),
        lambda: restrict(a, [0, True]),
        lambda: local_signature(a, True),
        lambda: local_signature(a, 2),
        lambda: SemicrossedElement.generator(a, True),
        lambda: build_colour_rep(a, True, []),
        lambda: nest_rep_exists(a, 1.0, [0]),
        lambda: nest_rep_exists(a, 0, [True]),
    ):
        with pytest.raises(ValueError):
            call()


def test_word_composition_law():
    rng = random.Random(5)
    for _ in range(50):
        sys = random_system(rng, rng.randint(1, 6), rng.randint(1, 3))
        u = tuple(rng.randrange(sys.arity) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randrange(sys.arity) for _ in range(rng.randint(0, 4)))
        for x in range(sys.size):
            assert evaluate_word(sys, u + v, x) == evaluate_word(
                sys, u, evaluate_word(sys, v, x)
            )


def test_map_range_examples():
    assert map_range(FOUR_POINT_OVERLAP, 0) == {1, 2}
    assert map_range(FOUR_POINT_OVERLAP, 1) == {1, 3}
    identity3 = FiniteSystem(size=3, tables=((0, 1, 2),))
    assert map_range(identity3, 0) == {0, 1, 2}


def test_ranges_pairwise_disjoint():
    disjoint, witness = ranges_pairwise_disjoint(FOUR_POINT_OVERLAP)
    assert not disjoint and witness == (0, 1, 1)
    sub_standalone = FiniteSystem(size=3, tables=((1, 1, 1), (2, 2, 2)))
    assert ranges_pairwise_disjoint(sub_standalone) == (True, None)
    single = FiniteSystem(size=4, tables=((1, 2, 2, 2),))
    assert ranges_pairwise_disjoint(single) == (True, None)


def test_equivalence_classes_fixtures():
    assert equivalence_classes(TWO_POINT_MIXED) == (frozenset({0, 1}),)
    assert equivalence_classes(FOUR_POINT_SPLIT_A) == (
        frozenset({0, 1}),
        frozenset({2, 3}),
    )


def test_equivalence_classes_single_map_collapses_to_preimages():
    sys = FiniteSystem(size=5, tables=((0, 0, 3, 3, 4),))
    classes = {frozenset(c) for c in equivalence_classes(sys)}
    assert classes == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4})}


def _naive_closure(sys):
    # pairwise iteration straight from the definition, no union-find
    classes = [{x} for x in range(sys.size)]
    changed = True
    while changed:
        changed = False
        for c1, c2 in itertools.combinations(list(classes), 2):
            if any(
                sys.tables[i][x] == sys.tables[j][z]
                for i in range(sys.arity)
                for j in range(sys.arity)
                for x in c1
                for z in c2
            ):
                classes.remove(c1)
                classes.remove(c2)
                classes.append(c1 | c2)
                changed = True
                break
    return {frozenset(c) for c in classes}


def test_equivalence_classes_fixed_point_and_minimality():
    rng = random.Random(17)
    for _ in range(60):
        sys = random_system(rng, rng.randint(1, 5), rng.randint(1, 3))
        classes = equivalence_classes(sys)
        assert {frozenset(c) for c in classes} == _naive_closure(sys)
        for cls in classes:
            union = {
                x
                for i in range(sys.arity)
                for j in range(sys.arity)
                for x in range(sys.size)
                if sys.tables[i][x] in {sys.tables[j][z] for z in cls}
            }
            assert union == set(cls)


def test_restrict_examples():
    sub = restrict(FOUR_POINT_OVERLAP, {1, 2, 3})
    assert sub.points == (1, 2, 3)
    assert colored_graph(sub).edges == (
        (1, 2, 0), (2, 2, 0), (3, 2, 0), (1, 3, 1), (2, 3, 1), (3, 3, 1)
    )
    whole = full_subsystem(TWO_POINT_MIXED)
    assert len(colored_graph(whole).edges) == TWO_POINT_MIXED.size * TWO_POINT_MIXED.arity
    single = restrict(TWO_POINT_CONSTANT, {0})
    assert colored_graph(single).edges == ((0, 0, 0),)
    with pytest.raises(ValueError):
        restrict(TWO_POINT_MIXED, set())
    with pytest.raises(ValueError):
        restrict(TWO_POINT_MIXED, {0, 7})


def test_colored_graph_examples():
    g = colored_graph(full_subsystem(TWO_POINT_MIXED))
    assert set(g.edges) == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
    g2 = colored_graph(full_subsystem(TWO_POINT_CONSTANT))
    assert set(g2.edges) == {(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)}
    loop = colored_graph(full_subsystem(FiniteSystem(size=1, tables=((0,),))))
    assert loop.edges == ((0, 0, 0),)


def test_colored_graph_is_sorted_and_counts_edges():
    rng = random.Random(23)
    for _ in range(40):
        sys = random_system(rng, rng.randint(1, 6), rng.randint(1, 3))
        subset = sorted(
            rng.sample(range(sys.size), rng.randint(1, sys.size))
        )
        sub = restrict(sys, subset)
        g = colored_graph(sub)
        assert list(g.edges) == sorted(g.edges, key=lambda e: (e[2], e[0]))
        expected = sum(
            1
            for i in range(sys.arity)
            for x in subset
            if sys.tables[i][x] in set(subset)
        )
        assert len(g.edges) == expected
        for colour in range(sub.arity):
            sources = [e[0] for e in g.edges if e[2] == colour]
            assert len(sources) == len(set(sources))
