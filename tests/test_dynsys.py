import enum
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from dynalg import cli
from dynalg.conjugacy import PartitionWitness
from dynalg.dynsys import (
    EdgeColoredGraph,
    FiniteSystem,
    check_colour,
    check_point,
    colored_graph,
    equivalence_classes,
    evaluate_word,
    full_subsystem,
    local_signature,
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
from dynalg.freeprod import FPPoly, U1nMatrix, check_lift_work, sample_ball_points, voiculescu_lift
from dynalg.reps import NestRep, build_truncated_fock, nest_rep_exists
from dynalg.semicrossed import FunctionCoeff, SemicrossedElement
from dynalg.wordpoly import cesaro_mean, fourier_component

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
    with pytest.raises(ValueError, match=r"^image of 0 under map 0 must be an int in 0\.\.1, got 0\.0$"):
        FiniteSystem(2, ((0.0, 1.0), (1, 0)))
    with pytest.raises(ValueError, match=r"^image of 0 under map 0 must be an int in 0\.\.0, got False$"):
        FiniteSystem(size=1, tables=((False,),))
    with pytest.raises(ValueError, match=r"^size must be an int >= 1, got True$"):
        FiniteSystem(size=True, tables=((0,),))
    with pytest.raises(ValueError, match=r"^size must be an int >= 1, got 2\.0$"):
        FiniteSystem(size=2.0, tables=((0, 1),))


def test_system_validation_names_the_first_bad_entry():
    for table, message in [
        ((0, -1), "image of 1 under map 1 must be an int in 0..1, got -1"),
        ((0, 1.0), "image of 1 under map 1 must be an int in 0..1, got 1.0"),
        ((True, 0), "image of 0 under map 1 must be an int in 0..1, got True"),
        ((2, 1.0), "image of 0 under map 1 must be an int in 0..1, got 2"),
    ]:
        with pytest.raises(ValueError) as error:
            FiniteSystem(2, ((1, 0), table))
        assert str(error.value) == message


def test_system_validation_accepts_int_subclasses():
    class Point(enum.IntEnum):
        P = 0
        Q = 1

    system = FiniteSystem(2, ((Point.Q, Point.P), (0, 1)))
    assert system == FiniteSystem(2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match=r"^image of 0 under map 0 must be an int in 0\.\.0, got <Point\.Q: 1>$"):
        FiniteSystem(1, ((Point.Q,),))


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
        lambda: NestRep(a, True, ()),
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
    # a point set is read by one rule, dynsys._point_set: distinct points
    assert restrict(FOUR_POINT_OVERLAP, iter([3, 1])).points == (1, 3)
    for subset in ([0, 0], [1, 0, 1]):
        with pytest.raises(ValueError, match=rf"^point {subset[-1]} is listed twice$"):
            restrict(TWO_POINT_MIXED, subset)


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


def test_edge_colored_graph_rejects_what_it_cannot_represent():
    # (0, 5, 0) ends outside the vertices and (0, 1, 3) has no colour 3, so no
    # path-space family over this graph could check either edge
    with pytest.raises(ValueError, match=r"edge \(0, 5, 0\) has 5, which is not a vertex"):
        EdgeColoredGraph(vertices=(0, 1), edges=((0, 5, 0), (0, 1, 3)), colours=1)
    bad = [
        (((0, 1), ((0, 1, 3),), 1), r"^colour of the edge from 0 to 1 must be an int in 0\.\.0, got 3$"),
        (((0, 1), ((0, 1, -1),), 2), r"^colour of the edge from 0 to 1 must be an int in 0\.\.1, got -1$"),
        (((0, 1), ((0, 1, True),), 2), r"^colour of the edge from 0 to 1 must be an int in 0\.\.1, got True$"),
        (((0, 1), ((7, 1, 0),), 1), r"has 7, which is not a vertex"),
        (((0, 1), ((True, 1, 0),), 1), r"has True, which is not a vertex"),
        (((0, 1, 0), (), 1), r"vertex 0 is listed twice"),
        (((0, 1.0), (), 1), r"vertex 1.0 is not an integer"),
        (((0, 1), ([0, 1, 0],), 1), r"is not a \(source, target, colour\) triple"),
        (((0, 1), ((0, 1),), 1), r"is not a \(source, target, colour\) triple"),
        (((0,), (), -1), r"^colours must be an int >= 0, got -1$"),
        (((0,), (), True), r"^colours must be an int >= 0, got True$"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            EdgeColoredGraph(*args)
    # repeated edges and edge-free graphs stay legal
    assert EdgeColoredGraph((0, 1), ((0, 1, 0), (0, 1, 0)), 1).edges == ((0, 1, 0), (0, 1, 0))
    assert EdgeColoredGraph((3,), (), 0).vertices == (3,)


def test_edge_colored_graph_stores_tuples():
    # as FiniteSystem stores its tables, so graphs built from lists compare and hash
    graph = EdgeColoredGraph((0, 1), ((0, 1, 0),), 1)
    for vertices, edges in (([0, 1], [(0, 1, 0)]), (range(2), iter([(0, 1, 0)]))):
        built = EdgeColoredGraph(vertices, edges, 1)
        assert built == graph and hash(built) == hash(graph)
        assert type(built.vertices) is type(built.edges) is tuple


_U1N_1_ROWS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_GRAPH = colored_graph(full_subsystem(TWO_POINT_MIXED))
_POLY = FPPoly.generator((2,), 0, 1)
_REP = NestRep(FOUR_POINT_OVERLAP, 1, ((0, 0), (0, 1)))
_WITNESS = PartitionWitness(gamma=(0, 1, 2, 3), alpha=((0, 1), (1, 0), (0, 1), (1, 0)))


def _parse_u1n_n(n):
    # the parsed file, so values no JSON text spells reach the rule too
    with mock.patch.object(cli, "_load_json", return_value={"n": n, "matrix": _U1N_1_ROWS}):
        return cli.parse_u1n("")


# (entry point, call on the value, what, low, high): every int read in a range
_INT_SITES = [
    ("FiniteSystem size", lambda v: FiniteSystem(v, ((0,),)), "size", 1, None),
    ("FiniteSystem entry", lambda v: FiniteSystem(2, ((0, v),)), "image of 1 under map 0", 0, 2),
    ("EdgeColoredGraph colours", lambda v: EdgeColoredGraph((0,), (), v), "colours", 0, None),
    ("EdgeColoredGraph edge colour", lambda v: EdgeColoredGraph((0, 1), ((0, 1, v),), 2),
     "colour of the edge from 0 to 1", 0, 2),
    ("check_point", lambda v: check_point(FOUR_POINT_OVERLAP, v), "point", 0, 4),
    ("check_colour", lambda v: check_colour(FOUR_POINT_OVERLAP, v), "colour", 0, 2),
    ("validate_word", lambda v: validate_word(FOUR_POINT_OVERLAP, (0, v)), "colour", 0, 2),
    ("NestRep base", lambda v: NestRep(FOUR_POINT_OVERLAP, v, ()), "point", 0, 4),
    ("NestRep.generator_image", _REP.generator_image, "colour", 0, 2),
    ("PartitionWitness.index_set i", lambda v: _WITNESS.index_set(v, 0), "colour i", 0, 2),
    ("PartitionWitness.index_set j", lambda v: _WITNESS.index_set(0, v), "colour j", 0, 2),
    ("FunctionCoeff.constant size", lambda v: FunctionCoeff.constant(v, 1), "size", 0, None),
    ("FunctionCoeff.indicator size", lambda v: FunctionCoeff.indicator(v, []), "size", 0, None),
    ("FunctionCoeff.indicator item", lambda v: FunctionCoeff.indicator(3, [v]), "subset item", 0, 3),
    ("FPPoly.make signature", lambda v: FPPoly.make((2, v), {}), "block size", 1, None),
    ("FPPoly.make symbol block", lambda v: FPPoly.make((2, 3), {((v, 0),): 1}), "symbol block", 0, 2),
    ("FPPoly.make symbol index", lambda v: FPPoly.make((2, 3), {((1, v),): 1}), "symbol index", 0, 3),
    ("U1nMatrix n", lambda v: U1nMatrix(n=v, matrix=np.eye(2)), "n", 1, None),
    ("voiculescu_lift order", lambda v: voiculescu_lift(U1nMatrix(n=1, matrix=np.eye(2)), v),
     "truncation order", 0, None),
    ("check_lift_work n", lambda v: check_lift_work(v, 2, 3), "dimension", 1, None),
    ("check_lift_work order", lambda v: check_lift_work(2, v, 3), "truncation order", 0, None),
    ("check_lift_work samples", lambda v: check_lift_work(2, 2, v), "sample count", 1, None),
    ("sample_ball_points n", lambda v: sample_ball_points(random.Random(1), v, 2), "dimension", 1, None),
    ("sample_ball_points count", lambda v: sample_ball_points(random.Random(1), 2, v),
     "sample count", 0, None),
    ("build_truncated_fock depth", lambda v: build_truncated_fock(_GRAPH, v), "depth", 1, None),
    ("fourier_component", lambda v: fourier_component(_POLY, v), "component degree", 0, None),
    ("cesaro_mean", lambda v: cesaro_mean(_POLY, v), "Cesaro order", 1, None),
    ("parse_u1n n", _parse_u1n_n, "field 'n'", 1, None),
]


@pytest.mark.parametrize("site, call, what, low, high", _INT_SITES, ids=[row[0] for row in _INT_SITES])
def test_every_int_entry_point_follows_one_int_rule(site, call, what, low, high):
    span = f">= {low}" if high is None else f"in {low}..{high - 1}"
    refused = [True, 2.0, Fraction(2), "2", np.int64(2), low - 1] + ([] if high is None else [high])
    # past 20 digits an int is named by its digit count; 5,001 digits pass the str conversion limit
    huge = [
        (-(10**20) + 1, "-99999999999999999999"),
        (-(10**20), "-<21-digit int>"),
        (-(10**5000), "-<5001-digit int>"),
    ]
    if high is not None:
        huge.append((10**5000, "<5001-digit int>"))
    for value, shown in [(value, repr(value)) for value in refused] + huge:
        with pytest.raises(ValueError) as error:
            call(value)
        assert str(error.value) == f"{what} must be an int {span}, got {shown}"
    bound = enum.IntEnum("Bound", {"LOW": low})
    for value in [bound.LOW, low] + ([] if high is None else [high - 1]):
        call(value)
