import dataclasses
import itertools
import random
import time
import tracemalloc
from collections import Counter
from functools import partial

import pytest

import dynalg.conjugacy
from dynalg.conjugacy import (
    ConjugacyWitness,
    IncompatibleSystemsError,
    MalformedWitnessError,
    PartitionWitness,
    PiecewiseWitness,
    _fibre_groups as fibre_groups,
    _partition_alpha_field,
    _refined_colours,
    decide_conjugate,
    decide_partition,
    decide_piecewise,
    verify_witness,
)
from dynalg.dynsys import FiniteSystem, equivalence_classes, fibre_sizes, local_signature
from dynalg.fixtures import (
    FOUR_POINT_SPLIT_A,
    FOUR_POINT_SPLIT_B,
    TWO_POINT_CONSTANT,
    TWO_POINT_MIXED,
)

from oracles import (
    brute_force_conjugate,
    brute_force_partition,
    brute_force_piecewise,
    classed_pair,
    cycle_pair,
    disjoint_union,
    fitting_partition,
    indegree_shifted_pair,
    indegrees,
    intertwines_at,
    least_rotation,
    make_rng,
    one_map_canonical_form,
    one_map_conjugate,
    padded_pair,
    pairwise_alpha_field,
    partition_conditions_hold,
    pairwise_verify_partition_witness,
    random_mapping_pair,
    random_system,
    relabelled_pair,
    repeated_map_pair,
    restricted_local_signature,
    scrambled_pair,
    stable_refined_colours,
)
from test_nesting import drawn_pair


def test_incompatible_systems_raise():
    small = FiniteSystem(size=2, tables=((0, 1),))
    with pytest.raises(IncompatibleSystemsError):
        decide_conjugate(small, TWO_POINT_MIXED)
    with pytest.raises(IncompatibleSystemsError):
        decide_partition(TWO_POINT_MIXED, FiniteSystem(size=3, tables=((0, 1, 2), (0, 1, 2))))


def test_conjugate_examples():
    assert decide_conjugate(TWO_POINT_MIXED, TWO_POINT_CONSTANT) is None
    assert decide_conjugate(TWO_POINT_MIXED, TWO_POINT_CONSTANT, allow_recolor=True) is None
    assert decide_conjugate(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, allow_recolor=True) is None
    witness = decide_conjugate(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_A)
    assert witness.gamma == (0, 1, 2, 3) and witness.recolor is None


def test_conjugate_recolor_finds_swapped_colours():
    a = TWO_POINT_MIXED
    b = FiniteSystem(size=2, tables=(TWO_POINT_MIXED.tables[1], TWO_POINT_MIXED.tables[0]))
    assert decide_conjugate(a, b) is None
    witness = decide_conjugate(a, b, allow_recolor=True)
    assert witness is not None and witness.recolor == (1, 0)


def test_piecewise_examples():
    witness = decide_piecewise(TWO_POINT_MIXED, TWO_POINT_CONSTANT)
    assert witness is not None
    assert witness.gamma == (0, 1)
    assert witness.alpha == ((0, 1), (1, 0))
    assert decide_piecewise(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B) is not None
    same = decide_piecewise(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_A)
    assert same.gamma == (0, 1, 2, 3)
    assert all(p == (0, 1) for p in same.alpha)


def test_partition_examples():
    assert decide_partition(TWO_POINT_MIXED, TWO_POINT_CONSTANT) is None
    witness = decide_partition(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B)
    assert witness is not None
    assert witness.gamma == (0, 1, 2, 3)
    assert witness.alpha == ((0, 1), (0, 1), (1, 0), (1, 0))
    identity = decide_partition(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_A)
    assert identity.gamma == (0, 1, 2, 3)
    assert all(p == (0, 1) for p in identity.alpha)


def test_verify_witness_examples():
    witness = decide_partition(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B)
    assert verify_witness(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, witness).passed

    # pointwise-valid but preimage-violating witness on the two-point pair
    sneaky = PartitionWitness(gamma=(0, 1), alpha=((0, 1), (1, 0)))
    report = verify_witness(TWO_POINT_MIXED, TWO_POINT_CONSTANT, sneaky)
    assert not report.passed
    assert {f.condition for f in report.failures} == {"tau-preimage"}

    identity = PartitionWitness(gamma=(0, 1), alpha=((0, 1), (0, 1)))
    assert verify_witness(TWO_POINT_MIXED, TWO_POINT_MIXED, identity).passed


def test_verify_witness_rejects_malformed():
    with pytest.raises(MalformedWitnessError):
        verify_witness(
            TWO_POINT_MIXED,
            TWO_POINT_MIXED,
            PartitionWitness(gamma=(0, 0), alpha=((0, 1), (0, 1))),
        )
    with pytest.raises(MalformedWitnessError):
        verify_witness(
            TWO_POINT_MIXED,
            TWO_POINT_MIXED,
            PartitionWitness(gamma=(0, 1), alpha=((0, 1),)),
        )
    with pytest.raises(MalformedWitnessError):
        verify_witness(
            TWO_POINT_MIXED,
            TWO_POINT_MIXED,
            PartitionWitness(gamma=(0, 1), alpha=((0, 0), (0, 1))),
        )
    # every permutation, and the alpha field, is a tuple or a list: a dict or an int is none
    for witness, message in (
        (ConjugacyWitness(gamma={0: 0, 1: 1}, recolor=None), r"^gamma has type dict, not a tuple or list$"),
        (ConjugacyWitness(gamma=5, recolor=None), r"^gamma has type int, not a tuple or list$"),
        (ConjugacyWitness(gamma=(0,), recolor=None), r"^gamma is not a bijection of 0\.\.1: its length is 1$"),
        (ConjugacyWitness(gamma=(0, 1), recolor=3), r"^recolor has type int, not a tuple or list$"),
        (ConjugacyWitness(gamma=(0, 1), recolor=range(2)), r"^recolor has type range, not a tuple or list$"),
        (PiecewiseWitness(gamma=(0, 1), alpha=(0, 1)), r"^alpha\[0\] has type int, not a tuple or list$"),
        (PartitionWitness(gamma=(0, 1), alpha=5), r"^alpha field has type int, not a tuple or list$"),
        (PartitionWitness(gamma=(0, 1), alpha={0: (0, 1), 1: (0, 1)}), r"^alpha field has type dict, not a tuple or list$"),
    ):
        with pytest.raises(MalformedWitnessError, match=message):
            verify_witness(TWO_POINT_MIXED, TWO_POINT_MIXED, witness)


@pytest.mark.parametrize(
    "gamma, alpha",
    [
        ((True, False), ((0, 1), (0, 1))),
        ((1.0, 0.0), ((0, 1), (0, 1))),
        ((0, 1), ((0, 1.0), (0, 1))),
        ((0, 1), ((False, True), (0, 1))),
    ],
    ids=["bool-gamma", "float-gamma", "float-alpha", "bool-alpha"],
)
def test_verify_witness_rejects_entries_that_are_not_ints(gamma, alpha):
    with pytest.raises(MalformedWitnessError):
        verify_witness(
            TWO_POINT_MIXED, TWO_POINT_MIXED, PartitionWitness(gamma=gamma, alpha=alpha)
        )


def test_partition_agrees_with_oracle_on_small_systems():
    rng = random.Random(101)
    for trial in range(120):
        size = rng.randint(1, 4)
        if trial % 3 == 0:
            a, b = scrambled_pair(rng, size, 2, constant_recolor=(trial % 6 == 0))
        else:
            a, b = random_system(rng, size, 2), random_system(rng, size, 2)
        expected = brute_force_partition(a, b)
        got = decide_partition(a, b)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert (got.gamma, got.alpha) == expected


def test_witness_soundness_random():
    rng = random.Random(31)
    found = 0
    for _ in range(200):
        a, b = scrambled_pair(rng, rng.randint(2, 5), rng.randint(1, 3))
        witness = decide_partition(a, b)
        if witness is not None:
            found += 1
            assert verify_witness(a, b, witness).passed
    assert found > 20  # the generator must actually exercise the verifier


def test_implication_chain_random():
    rng = random.Random(47)
    for trial in range(150):
        size, arity = rng.randint(1, 5), rng.randint(1, 3)
        if trial % 2 == 0:
            a, b = scrambled_pair(rng, size, arity, constant_recolor=(trial % 4 == 0))
        else:
            a, b = random_system(rng, size, arity), random_system(rng, size, arity)
        conj = decide_conjugate(a, b)
        part = decide_partition(a, b)
        piece = decide_piecewise(a, b)
        if conj is not None:
            assert part is not None
        if part is not None:
            assert piece is not None
        # cross-check the ends of the chain against the naive searches
        assert (piece is not None) == (brute_force_piecewise(a, b) is not None)
        assert (conj is not None) == (brute_force_conjugate(a, b) is not None)


def _small_pair(rng, trial):
    size, arity = rng.randint(1, 5), rng.randint(1, 3)
    if trial % 3 == 0:
        return random_system(rng, size, arity), random_system(rng, size, arity)
    return scrambled_pair(rng, size, arity, constant_recolor=(trial % 3 == 2))


def test_piecewise_witness_is_the_oracles_first():
    rng = random.Random(211)
    found = 0
    for trial in range(150):
        a, b = _small_pair(rng, trial)
        witness = decide_piecewise(a, b)
        got = None if witness is None else (witness.gamma, witness.alpha)
        assert got == brute_force_piecewise(a, b)
        found += got is not None
    assert found > 50


def test_conjugate_witness_is_the_oracles_first():
    rng = random.Random(223)
    found = {False: 0, True: 0}
    for trial in range(150):
        a, b = _small_pair(rng, trial)
        for allow in (False, True):
            witness = decide_conjugate(a, b, allow_recolor=allow)
            got = None if witness is None else (witness.gamma, witness.recolor)
            assert got == brute_force_conjugate(a, b, allow_recolor=allow)
            found[allow] += got is not None
    assert found[False] > 10 and found[True] > 30


def test_equal_maps_take_the_oracles_least_recolouring():
    # a has two or three equal maps beside the others, so at a leaf their
    # shared masks are equal and hold as many bits; b is either a's
    # relabelled copy with its maps shuffled, or a second system of that shape
    rng = random.Random(227)
    found = Counter()
    for trial in range(90):
        size, arity = rng.randint(1, 6), rng.randint(2, 4)
        a, b = repeated_map_pair(rng, size, arity, related=trial % 3 != 2)
        for allow in (False, True):
            witness = decide_conjugate(a, b, allow_recolor=allow)
            got = None if witness is None else (witness.gamma, witness.recolor)
            assert got == brute_force_conjugate(a, b, allow_recolor=allow)
            found[allow, got is not None] += 1
    assert len(found) == 4 and min(found.values()) > 10, found


# ---- sizes the oracles cannot reach -------------------------------------------


def _relabel(system, perm, recolor=None):
    """The system read through the point bijection perm (and a global recolouring)."""
    recolor = recolor or tuple(range(system.arity))
    tables = [[0] * system.size for _ in range(system.arity)]
    for i, table in enumerate(system.tables):
        for x, y in enumerate(table):
            tables[recolor[i]][perm[x]] = perm[y]
    return FiniteSystem(size=system.size, tables=tuple(map(tuple, tables)))


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def _verdicts(a, b):
    return (
        decide_piecewise(a, b) is not None,
        decide_partition(a, b) is not None,
        decide_conjugate(a, b) is not None,
        decide_conjugate(a, b, allow_recolor=True) is not None,
    )


def _large_pairs(seed):
    rng = random.Random(seed)
    for trial in range(36):
        size, arity = rng.randint(10, 24), 1 + trial % 3
        kind = trial % 4
        if kind == 0:
            a, b = random_system(rng, size, arity), random_system(rng, size, arity)
        elif kind == 1:
            a, b = scrambled_pair(rng, size, arity)
        else:
            a = random_system(rng, size, arity)
            b = _relabel(a, _shuffled(rng, range(size)), _shuffled(rng, range(arity)))
        yield rng, a, b


def test_large_scrambled_pairs_are_piecewise_matched():
    rng = random.Random(307)
    for _ in range(20):
        a, b = scrambled_pair(rng, rng.randint(10, 24), rng.randint(1, 3))
        witness = decide_piecewise(a, b)
        assert witness is not None and verify_witness(a, b, witness).passed


def test_large_recoloured_copies_are_conjugate():
    rng = random.Random(311)
    for trial in range(20):
        size, arity = rng.randint(10, 24), 1 + trial % 3
        a = random_system(rng, size, arity)
        b = _relabel(a, _shuffled(rng, range(size)), _shuffled(rng, range(arity)))
        witness = decide_conjugate(a, b, allow_recolor=True)
        assert witness is not None and verify_witness(a, b, witness).passed


def test_large_verdicts_survive_relabelling():
    for rng, a, b in _large_pairs(317):
        expected = _verdicts(a, b)
        a2 = _relabel(a, _shuffled(rng, range(a.size)))
        b2 = _relabel(b, _shuffled(rng, range(b.size)))
        assert _verdicts(a2, b2) == expected


def test_large_partition_witnesses_verify():
    found = 0
    for _, a, b in _large_pairs(331):
        witness = decide_partition(a, b)
        if witness is not None:
            found += 1
            assert verify_witness(a, b, witness).passed
    assert found >= 18


def _admissible(a, b, gamma, points):
    """The alpha, least first, with tau_{alpha(i)}(gamma x) = gamma(sigma_i x) for x in points."""
    return [
        alpha
        for alpha in itertools.permutations(range(a.arity))
        if all(intertwines_at(a, b, gamma, x, alpha) for x in points)
    ]


def test_large_witnesses_take_the_least_admissible_permutations():
    rng = random.Random(401)
    ties = 0
    for trial in range(36):
        size, arity = rng.randint(10, 24), 1 + trial % 3
        constant = trial % 2 == 1
        a, b = scrambled_pair(rng, size, arity, constant_recolor=constant)
        piecewise = decide_piecewise(a, b)
        for x in range(size):
            admissible = _admissible(a, b, piecewise.gamma, [x])
            assert piecewise.alpha[x] == admissible[0]
            ties += len(admissible) > 1
        conjugate = decide_conjugate(a, b, allow_recolor=True)
        assert conjugate is not None or not constant
        if conjugate is not None:
            assert conjugate.recolor == _admissible(a, b, conjugate.gamma, range(size))[0]
    assert ties > 0


def test_equal_maps_take_the_least_admissible_recolouring_at_large_sizes():
    # Beta ties only where maps coincide, so the brute-force test of the
    # least recolouring on such pairs stops at n = 6; here they run past it.
    rng = random.Random(409)
    ties = 0
    for trial in range(24):
        size, arity = rng.randint(20, 200), rng.randint(2, 4)
        a, b = repeated_map_pair(rng, size, arity)
        witness = decide_conjugate(a, b, allow_recolor=True)
        assert verify_witness(a, b, witness).passed
        admissible = _admissible(a, b, witness.gamma, range(size))
        assert witness.recolor == admissible[0]
        ties += len(admissible) > 1
    assert ties > 0


def test_inverse_witness_verifies_backwards():
    found = 0
    for _, a, b in _large_pairs(332):
        witness = decide_partition(a, b)
        if witness is None:
            continue
        found += 1
        inverse = witness.inverse()
        assert verify_witness(b, a, inverse).passed
        assert inverse.inverse() == witness
        for i in range(a.arity):
            for j in range(a.arity):
                image = {witness.gamma[x] for x in witness.index_set(i, j)}
                assert inverse.index_set(j, i) == image
    assert found >= 18


def test_inverse_refuses_a_malformed_witness():
    # each of these once inverted to a witness of the right shape, or raised IndexError
    for gamma, alpha in (
        ((0, 0), ((0,), (0,))),  # gamma is no bijection
        ((0, 1), ((0, 0), (0, 1))),  # alpha_0 is no permutation
        ((1, 0), ((True, False), (0, 1))),  # bools are not colours
        ((0, 1), ((0,),)),  # one alpha_x for two points
        ((1, 0), ((0, 1), (0,))),  # alpha_x of two lengths
        ((0, 1), 5),  # the alpha field is no tuple or list
        (5, ((0, 1), (0, 1))),  # gamma is no tuple or list
        ((0, 1), (0, 1)),  # alpha_0 is no tuple or list
        ({0: 0, 1: 1}, ((0, 1), (0, 1))),  # a dict is no permutation
    ):
        with pytest.raises(MalformedWitnessError):
            PartitionWitness(gamma=gamma, alpha=alpha).inverse()
        with pytest.raises(MalformedWitnessError):
            PartitionWitness(gamma=gamma, alpha=alpha).index_set(0, 0)
    witness = PartitionWitness(gamma=(1, 2, 0), alpha=((1, 0), (0, 1), (1, 0)))
    assert witness.inverse() == PartitionWitness(gamma=(2, 0, 1), alpha=((1, 0), (1, 0), (0, 1)))
    assert PartitionWitness(gamma=(), alpha=()).inverse() == PartitionWitness(gamma=(), alpha=())

def test_single_class_partition_implies_recoloured_conjugacy():
    rng = random.Random(53)
    checked = 0
    for _ in range(300):
        a, b = scrambled_pair(rng, rng.randint(2, 5), 2)
        if len(equivalence_classes(a)) != 1:
            continue
        witness = decide_partition(a, b)
        if witness is None:
            continue
        checked += 1
        assert decide_conjugate(a, b, allow_recolor=True) is not None
    assert checked > 10


def test_signature_necessity_for_found_witnesses():
    rng = random.Random(59)
    for _ in range(80):
        a, b = scrambled_pair(rng, rng.randint(2, 5), rng.randint(1, 3))
        witness = decide_partition(a, b)
        if witness is None:
            continue
        for x in range(a.size):
            assert local_signature(a, x) == local_signature(b, witness.gamma[x])


def test_signature_seeds_prune_tiled_piecewise_pairs():
    # Piecewise matched but not partition matched: the fibre sizes, like
    # the local signatures, differ at every point, so the partition search
    # refutes at the root.
    a, b = disjoint_union(*[TWO_POINT_MIXED] * 6), disjoint_union(*[TWO_POINT_CONSTANT] * 6)
    started = time.perf_counter()
    assert decide_partition(a, b) is None
    assert time.perf_counter() - started < 0.25
    witness = decide_piecewise(a, b)
    assert witness is not None and verify_witness(a, b, witness).passed


def _kernel_pairs(rng, trials):
    """Independent, scrambled and relabelled pairs, n <= 12 and arity 1-3."""
    for trial in range(trials):
        size, arity = rng.randint(1, 12), rng.randint(1, 3)
        kind = trial % 3
        if kind == 0:
            yield random_system(rng, size, arity), random_system(rng, size, arity)
        elif kind == 1:
            yield scrambled_pair(rng, size, arity)
        else:
            yield relabelled_pair(rng, size, arity)


def test_local_signatures_match_restricted_oracle():
    rng = make_rng(61)
    for a, b in _kernel_pairs(rng, 120):
        for system in (a, b):
            expected = [restricted_local_signature(system, x) for x in range(system.size)]
            assert [local_signature(system, x) for x in range(system.size)] == expected


def _blocks(colours):
    """The joint partition, numbered by first occurrence over both sides."""
    ids: dict = {}
    return [ids.setdefault(c, len(ids)) for c in colours[0] + colours[1]]


def test_refinement_matches_run_to_stability_oracle():
    # the graph with map colours forgotten, the graph keyed by map index,
    # and the forgotten one seeded by fibre sizes
    rng = make_rng(67)
    for a, b in _kernel_pairs(rng, 300):
        n = a.size
        fibres = fibre_sizes(a) + fibre_sizes(b)
        for mode, seeds, ordered in (
            ("piecewise", [0] * (2 * n), False),
            ("conjugate", [0] * (2 * n), True),
            ("partition", fibres, False),
        ):
            colours = _refined_colours(a, b, mode)
            stable = stable_refined_colours(a, b, seeds, ordered)
            if colours is None:
                assert stable is None
            elif stable is None:
                assert len(set(colours[0])) == n
            else:
                assert _blocks(colours) == _blocks(stable)


def test_refinement_stops_at_a_discrete_partition_the_next_round_refutes():
    # In-degrees 3 and 1 pair a0 with b0 and a1 with b1; the images of a0
    # (0 twice) and of b0 (0 and 1) then differ in the first round, which
    # the discrete stop never runs.
    a = FiniteSystem(size=2, tables=((0, 0), (0, 1)))
    b = FiniteSystem(size=2, tables=((0, 0), (1, 0)))
    assert stable_refined_colours(a, b, indegrees(a) + indegrees(b)) is None
    assert _refined_colours(a, b, "piecewise") == ([0, 1], [0, 1])
    assert decide_piecewise(a, b) is None


def test_indegree_in_the_seeds_leaves_the_stable_partition_unchanged():
    # Every equitable partition is constant on in-degree, which is why the
    # deciders may refine by in-degree before anything else.
    rng = make_rng(71)
    for a, b in _kernel_pairs(rng, 300):
        degree = indegrees(a) + indegrees(b)
        signatures = [local_signature(system, x) for system in (a, b) for x in range(a.size)]
        for seeds in ([0] * (2 * a.size), signatures):
            plain = stable_refined_colours(a, b, seeds)
            with_degree = stable_refined_colours(a, b, list(zip(seeds, degree)))
            if plain is None or with_degree is None:
                assert plain is with_degree is None
            else:
                assert _blocks(plain) == _blocks(with_degree)


def test_fibre_sizes_are_computed_only_for_pairs_whose_indegrees_balance(monkeypatch):
    calls = []

    def counted(system):
        calls.append(system)
        return fibre_sizes(system)

    monkeypatch.setattr(dynalg.conjugacy, "fibre_sizes", counted)
    rng = make_rng(79)
    seen = Counter()
    for a, b in _kernel_pairs(rng, 300):
        calls.clear()
        witness = decide_partition(a, b)
        degree = indegrees(a)
        balanced = sorted(degree) == sorted(indegrees(b))
        # in-degree alone may already pair every point, which stops refinement
        kind = "refuted" if not balanced else "discrete" if len(set(degree)) == a.size else "balanced"
        seen[kind] += 1
        if kind == "balanced":
            assert calls == [a, b]
        else:
            assert calls == []
        if kind == "refuted":
            assert witness is None
    assert len(seen) == 3
    a, b = indegree_shifted_pair(make_rng(2000), 2000, 2)
    calls.clear()
    assert decide_conjugate(a, b, allow_recolor=True) is None
    assert decide_piecewise(a, b) is None
    assert decide_partition(a, b) is None
    assert calls == []


def test_fibre_sizes_count_each_fibre_through_a_point():
    rng = make_rng(83)
    for a, b in _kernel_pairs(rng, 60):
        for system in (a, b):
            expected = [
                tuple(sorted(table.count(table[x]) for table in system.tables)) for x in range(system.size)
            ]
            assert fibre_sizes(system) == expected


def _fibre_groups(system):
    """(z, F) -> the colours i, least first, whose fibre sigma_i^-1(z) is the non-empty set F."""
    groups = {}
    for i, table in enumerate(system.tables):
        for z in set(table):
            groups.setdefault((z, frozenset(x for x, y in enumerate(table) if y == z)), []).append(i)
    return groups


def test_every_partition_witness_maps_fibre_sizes_onto_fibre_sizes():
    # A partition witness maps each sigma_i-fibre of x onto the tau_j-fibre of
    # gamma(x), j = alpha_x(i), which is why decide_partition refines by them.
    # So on each fibre F of z, the colours whose fibre at z is F take exactly
    # the colours whose fibre at gamma(z) is gamma(F), which is how the
    # partition leaf reads its field.  Every witness of each pair is listed:
    # gamma, then each field whose alpha_x intertwine at x, kept when the
    # preimage conditions hold.
    rng = make_rng(89)
    witnesses = 0
    for trial in range(200):
        size, arity = rng.randint(1, 5), rng.randint(1, 3)
        a, b = scrambled_pair(rng, size, arity) if trial % 2 else relabelled_pair(rng, size, arity)
        perms = list(itertools.permutations(range(arity)))
        fa, fb = fibre_sizes(a), fibre_sizes(b)
        ga, gb = _fibre_groups(a), _fibre_groups(b)
        for gamma in itertools.permutations(range(size)):
            fitting = [[p for p in perms if intertwines_at(a, b, gamma, x, p)] for x in range(size)]
            for alpha in itertools.product(*fitting):
                if partition_conditions_hold(a, b, gamma, alpha):
                    witnesses += 1
                    assert [fb[g] for g in gamma] == fa, (a, b, gamma, alpha)
                    for (z, fibre), colours in ga.items():
                        image = gb.get((gamma[z], frozenset(gamma[x] for x in fibre)), [])
                        assert all(sorted(alpha[x][i] for i in colours) == image for x in fibre), (a, b, gamma, alpha)
    assert witnesses > 300


def _admissible_masks(a, b, gamma):
    """Bit j of masks[x][i] set exactly when tau_j(gamma x) = gamma(sigma_i x)."""
    return [
        [sum(1 << j for j, tau in enumerate(b.tables) if tau[gamma[x]] == gamma[sigma[x]]) for sigma in a.tables]
        for x in range(a.size)
    ]


def _allowed(perms, masks):
    """The permutations, in order, with alpha(i) in masks[i] for every colour i."""
    return [p for p in perms if all(mask >> j & 1 for mask, j in zip(masks, p))]


def test_bucketed_colour_field_matches_pairwise_oracle():
    rng = make_rng(73)
    found = refused = 0
    for a, b in _kernel_pairs(rng, 240):
        perms = list(itertools.permutations(range(a.arity)))
        gamma = list(range(a.size))
        rng.shuffle(gamma)
        witness = decide_piecewise(a, b)
        for g in {tuple(gamma), witness.gamma if witness else tuple(gamma)}:
            # the oracle searches every field that intertwines, the leaf reads its groups
            field = _partition_alpha_field(fibre_groups(a.tables), fibre_groups(b.tables), g, a.arity)
            expected = pairwise_alpha_field(a, b, g, [_allowed(perms, row) for row in _admissible_masks(a, b, g)])
            assert (field.alpha if field else None) == expected
            assert field is None or field.gamma == g
            found += field is not None
            refused += field is None
    assert found > 50 and refused > 50, (found, refused)


def test_bucketed_verifier_matches_pairwise_oracle():
    rng = make_rng(79)
    failing = preimage = 0
    for a, b in _kernel_pairs(rng, 240):
        perms = list(itertools.permutations(range(a.arity)))
        candidates = []
        witness = decide_partition(a, b)
        if witness is not None:
            candidates.append(witness)
            alpha = list(witness.alpha)
            alpha[rng.randrange(a.size)] = rng.choice(perms)
            candidates.append(PartitionWitness(gamma=witness.gamma, alpha=tuple(alpha)))
        gamma = list(range(a.size))
        rng.shuffle(gamma)
        candidates.append(
            PartitionWitness(gamma=tuple(gamma), alpha=tuple(rng.choice(perms) for _ in gamma))
        )
        for candidate in candidates:
            report = verify_witness(a, b, candidate)
            assert report == pairwise_verify_partition_witness(a, b, candidate)
            failing += not report.passed
            preimage += sum(f.condition.endswith("preimage") for f in report.failures) > 1
    assert failing > 50 and preimage > 20


def test_a_bad_witness_on_one_fibre_gets_one_failure_per_point():
    # sigma_0 = tau_0 sends all n points to 0, so listing every disagreeing
    # pair would name about n^2 / 2 pairs per preimage condition
    n = 1000
    system = FiniteSystem(size=n, tables=((0,) * n, tuple(range(n))))
    alpha = tuple((1, 0) if x % 2 == 0 else (0, 1) for x in range(n))
    report = verify_witness(system, system, PartitionWitness(gamma=tuple(range(n)), alpha=alpha))
    counts = Counter(f.condition for f in report.failures)
    # both colours of every even point but 0, and every odd point once per map
    assert counts == {"intertwining": n - 2, "sigma-preimage": n // 2, "tau-preimage": n // 2}
    assert len(report.failures) <= 3 * system.arity * n


def _oracle_holds(a, b, witness) -> bool:
    """The witness's condition as the oracles state it."""
    gamma = witness.gamma
    if isinstance(witness, ConjugacyWitness):
        beta = witness.recolor or tuple(range(a.arity))
        return all(intertwines_at(a, b, gamma, x, beta) for x in range(a.size))
    if isinstance(witness, PiecewiseWitness):
        return all(intertwines_at(a, b, gamma, x, witness.alpha[x]) for x in range(a.size))
    return partition_conditions_hold(a, b, gamma, witness.alpha)


def test_verify_witness_matches_the_oracles_on_every_candidate():
    # every gamma and every colour field at n <= 3 and arity <= 2
    rng = make_rng(89)
    verdicts = Counter()
    for size, arity in itertools.product((1, 2, 3), (1, 2)):
        perms = list(itertools.permutations(range(arity)))
        for trial in range(8):
            if trial % 2:
                a, b = scrambled_pair(rng, size, arity, constant_recolor=trial % 4 == 1)
            else:
                a, b = random_system(rng, size, arity), random_system(rng, size, arity)
            for gamma in itertools.permutations(range(size)):
                candidates = [ConjugacyWitness(gamma, None)]
                candidates += [ConjugacyWitness(gamma, beta) for beta in perms]
                for alpha in itertools.product(perms, repeat=size):
                    candidates += [PiecewiseWitness(gamma, alpha), PartitionWitness(gamma, alpha)]
                for candidate in candidates:
                    passed = verify_witness(a, b, candidate).passed
                    assert passed == _oracle_holds(a, b, candidate), (a, b, candidate)
                    verdicts[type(candidate).__name__, passed] += 1
    assert len(verdicts) == 6 and min(verdicts.values()) > 20, verdicts


def _mutants(rng, witness, size):
    """The witness with two gamma entries swapped, and with one colour permutation changed."""
    for _ in range(4):
        gamma = list(witness.gamma)
        x, y = rng.sample(range(size), 2)
        gamma[x], gamma[y] = gamma[y], gamma[x]
        yield dataclasses.replace(witness, gamma=tuple(gamma))
        if isinstance(witness, ConjugacyWitness):
            yield dataclasses.replace(witness, recolor=(witness.recolor or (0, 1))[::-1])
        else:
            alpha = list(witness.alpha)
            x = rng.randrange(size)
            alpha[x] = alpha[x][::-1]
            yield dataclasses.replace(witness, alpha=tuple(alpha))


def test_mutated_witnesses_fail_or_meet_the_oracle():
    rng = make_rng(97)
    failed = Counter()
    for _ in range(3):
        a, b = relabelled_pair(rng, 200, 2)
        for mode, witness in (
            ("conjugate", decide_conjugate(a, b)),
            ("recolor", decide_conjugate(a, b, allow_recolor=True)),
            ("piecewise", decide_piecewise(a, b)),
            ("partition", decide_partition(a, b)),
        ):
            assert verify_witness(a, b, witness).passed
            for mutant in _mutants(rng, witness, a.size):
                passed = verify_witness(a, b, mutant).passed
                assert passed == _oracle_holds(a, b, mutant), (mode, mutant)
                failed[mode] += not passed
    assert len(failed) == 4 and min(failed.values()) > 0, failed
    with pytest.raises(MalformedWitnessError, match=r"^recolor is not a colour permutation of 0\.\.1: recolor\[1\] = 0 repeats recolor\[0\]$"):
        verify_witness(a, b, ConjugacyWitness(gamma=tuple(range(a.size)), recolor=(0, 0)))
    with pytest.raises(TypeError, match="^tuple is not a witness$"):
        verify_witness(a, b, (witness.gamma, witness.alpha))


def test_deciders_keep_no_copy_per_level():
    # Narrowing in place with an undo trail keeps O(n) lists alive; a
    # copied list of n lists per level peaks at about 70 MB here.
    a, b = relabelled_pair(make_rng(2000), 3000, 2)
    for decide in (decide_piecewise, decide_partition):
        tracemalloc.start()
        try:
            assert decide(a, b) is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (decide.__name__, peak)


def test_conjugate_mode_builds_no_colour_permutations_without_recolouring():
    # arity 9 has 362,880 colour permutations, and building their list
    # peaked at about 43 MB here; the search itself needs under 2 MB
    a, b = relabelled_pair(make_rng(1000), 1000, 9)
    tracemalloc.start()
    try:
        witness = decide_conjugate(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert witness.recolor is None and verify_witness(a, b, witness).passed


# ---- padded pairs: verdicts known by construction at n = 2,006 ---------------

# Two 3-cycles against one 6-cycle, each beside an identity map.
TWO_TRIANGLES = FiniteSystem(size=6, tables=((1, 2, 0, 4, 5, 3), tuple(range(6))))
HEXAGON = FiniteSystem(size=6, tables=((1, 2, 3, 4, 5, 0), tuple(range(6))))

_MODES = {
    "conjugate": decide_conjugate,
    "recolor": partial(decide_conjugate, allow_recolor=True),
    "piecewise": decide_piecewise,
    "partition": decide_partition,
}


def test_cycle_core_balances_indegrees_and_no_oracle_matches_it():
    assert sorted(indegrees(TWO_TRIANGLES)) == sorted(indegrees(HEXAGON))
    assert brute_force_conjugate(TWO_TRIANGLES, HEXAGON) is None
    assert brute_force_conjugate(TWO_TRIANGLES, HEXAGON, allow_recolor=True) is None
    assert brute_force_piecewise(TWO_TRIANGLES, HEXAGON) is None
    assert brute_force_partition(TWO_TRIANGLES, HEXAGON) is None


@pytest.mark.parametrize("mode", _MODES)
def test_padded_cycle_pair_is_refuted_and_its_control_found(mode):
    # The in-degree count cannot refute the padded pair: the search must.
    c = random_system(make_rng(2000), 2000, 2)
    a, b = padded_pair(TWO_TRIANGLES, HEXAGON, c, random.Random(1))
    assert sorted(indegrees(a)) == sorted(indegrees(b))
    assert _MODES[mode](a, b) is None
    a, b = padded_pair(TWO_TRIANGLES, TWO_TRIANGLES, c, random.Random(1))
    witness = _MODES[mode](a, b)
    assert witness is not None and verify_witness(a, b, witness).passed


# ---- colour masks: no colour permutation is listed -----------------------------


@pytest.mark.parametrize("arity, size", [(10, 20), (12, 20), (12, 1000)], ids=["10", "12", "12-n1000"])
@pytest.mark.parametrize("mode", _MODES)
def test_many_maps_are_decided_in_every_mode(mode, arity, size):
    # 12! = 479,001,600 colour permutations; when every mode but plain
    # conjugacy listed them, these pairs were refused before any search
    a, b = relabelled_pair(make_rng(1000), size, arity)
    started = time.perf_counter()
    witness = _MODES[mode](a, b)
    assert time.perf_counter() - started < 1
    assert witness is not None and verify_witness(a, b, witness).passed
    tracemalloc.start()  # a second run, as tracing slows every allocation
    try:
        assert _MODES[mode](a, b) == witness
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def _wide_pairs(rng, trials, max_size):
    """Random, scrambled, relabelled and classed pairs, n <= max_size and arity 4-6.

    With this many maps the images of a point collide at most points, so
    a point's colour masks share bits.
    """
    for trial in range(trials):
        size, arity = rng.randint(1, max_size), rng.randint(4, 6)
        kind = trial % 4
        if kind == 0:
            yield random_system(rng, size, arity), random_system(rng, size, arity)
        elif kind == 1:
            yield scrambled_pair(rng, size, arity, constant_recolor=trial % 8 == 1)
        elif kind == 2:
            yield relabelled_pair(rng, size, arity)
        else:
            yield classed_pair(rng, size, arity, rng.randint(1, size))[:2]


def test_wide_pairs_match_the_brute_force_oracles():
    rng = make_rng(401)
    verdicts = Counter()
    for a, b in _wide_pairs(rng, 80, 5):
        for allow in (False, True):
            witness = decide_conjugate(a, b, allow_recolor=allow)
            got = None if witness is None else (witness.gamma, witness.recolor)
            assert got == brute_force_conjugate(a, b, allow_recolor=allow)
            verdicts["recolor" if allow else "conjugate", got is not None] += 1
        witness = decide_piecewise(a, b)
        got = None if witness is None else (witness.gamma, witness.alpha)
        assert got == brute_force_piecewise(a, b)
        verdicts["piecewise", got is not None] += 1
    for a, b in _wide_pairs(rng, 120, 3):
        witness = decide_partition(a, b)
        got = None if witness is None else (witness.gamma, witness.alpha)
        assert got == fitting_partition(a, b)
        assert got is None or partition_conditions_hold(a, b, *got)
        verdicts["partition", got is not None] += 1
    assert len(verdicts) == 8 and min(verdicts.values()) > 10, verdicts


def test_colliding_maps_match_the_fitting_oracle():
    # Classed pairs at arity 4-6: every map sends a class into an image block
    # of its own, so most images collide and a point may allow every colour
    # permutation.  Odd trials pair two independent classed systems instead of
    # a system and its copy, which the search mostly refutes.
    rng = make_rng(409)
    verdicts = Counter()
    for trial in range(120):
        size, arity = rng.randint(1, 5), rng.randint(4, 6)
        a, b = classed_pair(rng, size, arity, rng.randint(1, size))[:2]
        if trial % 2:
            b = classed_pair(rng, size, arity, rng.randint(1, size))[0]
        witness = decide_partition(a, b)
        got = None if witness is None else (witness.gamma, witness.alpha)
        assert got == fitting_partition(a, b)
        verdicts[got is not None] += 1
    assert len(verdicts) == 2 and min(verdicts.values()) > 20, verdicts


def test_six_maps_through_one_point_need_no_field_search():
    # Four points send all six maps to one point, so each allows all 720
    # colour permutations: a walk over the field positions that backtracks
    # chronologically re-enumerates them, for minutes on this classed pair.
    a = FiniteSystem(size=6, tables=(
        (3, 5, 1, 2, 0, 4), (3, 5, 1, 2, 0, 4), (3, 5, 1, 2, 0, 1),
        (3, 5, 1, 2, 0, 1), (3, 5, 4, 2, 0, 4), (3, 5, 1, 2, 0, 4),
    ))
    b = FiniteSystem(size=6, tables=(
        (4, 5, 3, 1, 0, 4), (2, 5, 3, 1, 0, 4), (2, 5, 3, 1, 0, 2),
        (4, 5, 3, 1, 0, 4), (2, 5, 3, 1, 0, 4), (2, 5, 3, 1, 0, 4),
    ))
    started = time.perf_counter()
    witness = decide_partition(a, b)
    assert time.perf_counter() - started < 1
    assert witness is not None and verify_witness(a, b, witness).passed


def test_two_colours_cannot_share_one_matching_colour(monkeypatch):
    # sigma_0 = sigma_1 sends each point of a to the other, twice; tau_0 and
    # tau_1 send each point of b to both points.  In-degrees balance and
    # refinement separates nothing, so only the search can refute: two maps
    # of a join each pair of points, and one map of b joins its image, so
    # the pair check refuses every gamma before a leaf.
    a = FiniteSystem(size=2, tables=((1, 0), (1, 0)))
    b = FiniteSystem(size=2, tables=((0, 1), (1, 0)))
    read = []
    monkeypatch.setattr(dynalg.conjugacy, "_least_fit", lambda masks: read.append(masks) or (0, 1))
    assert _refined_colours(a, b, "piecewise") == ([0, 0], [0, 0])
    assert brute_force_piecewise(a, b) is None
    assert decide_piecewise(a, b) is None
    assert read == []
    assert decide_conjugate(a, b, allow_recolor=True) is decide_partition(a, b) is None


def test_a_refused_partition_leaf_passes_to_the_next_gamma(monkeypatch):
    # gamma = (1, 0, 2) passes every pair check, but no colour field meets
    # the preimage conditions there, so its leaf refuses it and the search
    # goes on to (2, 0, 1), which has one.  A partition leaf stands in for
    # a --recolor one: no seeded pair was found whose refused recolor leaf
    # is followed by a witness.
    a = FiniteSystem(size=3, tables=((2, 2, 2), (1, 0, 1), (0, 1, 0)))
    b = FiniteSystem(size=3, tables=((0, 2, 2), (1, 1, 1), (2, 0, 0)))
    leaf = dynalg.conjugacy._partition_alpha_field
    leaves = []
    monkeypatch.setattr(dynalg.conjugacy, "_partition_alpha_field",
                        lambda *args: leaves.append(leaf(*args)) or leaves[-1])
    witness = decide_partition(a, b)
    assert leaves[0] is None and len(leaves) == 2
    assert (witness.gamma, witness.alpha) == brute_force_partition(a, b) == ((2, 0, 1), ((1, 2, 0),) * 3)


def _counted(monkeypatch, name):
    """Replace the conjugacy helper ``name`` by one that lists the first argument of each call."""
    helper = getattr(dynalg.conjugacy, name)
    calls = []
    monkeypatch.setattr(dynalg.conjugacy, name, lambda first, *rest: calls.append(first) or helper(first, *rest))
    return calls


def test_the_fibre_groups_are_built_once_per_partition_call(monkeypatch):
    # The pair of the test above reaches two leaves; the groups of a and b
    # are built at the first and read again at the second.
    a = FiniteSystem(size=3, tables=((2, 2, 2), (1, 0, 1), (0, 1, 0)))
    b = FiniteSystem(size=3, tables=((0, 2, 2), (1, 1, 1), (2, 0, 0)))
    leaves = _counted(monkeypatch, "_partition_alpha_field")
    built = _counted(monkeypatch, "_fibre_groups")
    assert decide_partition(a, b).gamma == (2, 0, 1)
    assert len(leaves) == 2 and built == [a.tables, b.tables]


def test_a_pair_refuted_before_any_leaf_builds_no_fibre_groups(monkeypatch):
    built = _counted(monkeypatch, "_fibre_groups")
    a, b = indegree_shifted_pair(make_rng(43), 30, 2)
    assert sorted(indegrees(a)) != sorted(indegrees(b))
    assert decide_partition(a, b) is None
    assert built == []


def test_a_discretely_refined_pair_goes_straight_to_its_leaf(monkeypatch):
    # Refinement leaves one point of each side per class in every mode, so
    # gamma is forced: no search state is built on a's side, and only the
    # piecewise leaf reads b's join masks.
    a, b = relabelled_pair(make_rng(47), 60, 2)
    joined = _counted(monkeypatch, "_joins")
    for mode, decide in (
        ("conjugate", decide_conjugate),
        ("recolor", partial(decide_conjugate, allow_recolor=True)),
        ("piecewise", decide_piecewise),
        ("partition", decide_partition),
    ):
        _, colours = _refined_colours(a, b, mode)
        assert len(set(colours)) == a.size, mode
        joined.clear()
        witness = decide(a, b)
        assert witness is not None and verify_witness(a, b, witness).passed, mode
        assert joined == ([b.tables] if mode == "piecewise" else []), mode


def test_each_searched_gamma_passes_the_plain_conjugacy_and_piecewise_checks(monkeypatch):
    # The pair check holds the mask of b's maps joining gamma(p) to gamma(y)
    # to as many bits as the maps of a joining p to y, and plain conjugacy's
    # shared masks keep map i's own bit on every such pair, which is all the
    # two deciders then ask of gamma.  So each call in these modes yields
    # exactly one gamma, even where refinement leaves the search to run.
    gammas = dynalg.conjugacy._gammas
    yielded = []

    def counted(*args):
        for gamma in gammas(*args):
            yielded.append(gamma)
            yield gamma

    monkeypatch.setattr(dynalg.conjugacy, "_gammas", counted)
    # Each point of {0, 1} sends two maps to itself and one to the other,
    # each point of {2, 3} one to itself and two to the other, and b holds
    # the two blocks the other way round: the supports agree and
    # refinement separates nothing, so only the bit count of the pair
    # check keeps the search from yielding gamma = (0, 1, 2, 3).
    blocks = (FiniteSystem(size=4, tables=((0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2))),
              FiniteSystem(size=4, tables=((0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 3, 2))))
    for a, b in (cycle_pair(12, 3, 3, seed=12), cycle_pair(48, 3, 3, seed=48), random_mapping_pair(200), blocks):
        for mode, decide in (("conjugate", decide_conjugate), ("piecewise", decide_piecewise)):
            _, colours = _refined_colours(a, b, mode)
            assert len(set(colours)) < a.size, (a.size, mode)
            yielded.clear()
            witness = decide(a, b)
            assert witness is not None and verify_witness(a, b, witness).passed, (a.size, mode)
            assert yielded == [witness.gamma], (a.size, mode)


def test_recolouring_narrows_the_shared_masks_to_the_first_witness(monkeypatch):
    # Nesting seed 6 (n = 20, 4 maps) is recolour conjugate.  Each pair the
    # search completes cuts map i's shared mask to the maps of b joining
    # the pair's image, so the first gamma yielded is already a witness; a
    # search that only asked the two masks to meet yielded 4,321 gammas
    # before it.
    gammas = dynalg.conjugacy._gammas
    yielded = []

    def counted(*args):
        for gamma in gammas(*args):
            yielded.append(gamma)
            yield gamma

    monkeypatch.setattr(dynalg.conjugacy, "_gammas", counted)
    a, b, _ = drawn_pair(6, True)
    assert (a.size, a.arity) == (20, 4)
    witness = decide_conjugate(a, b, allow_recolor=True)
    assert witness is not None and verify_witness(a, b, witness).passed
    assert yielded == [witness.gamma]


# Both pairs are piecewise matched by construction, refined to one point of
# each side per class in every mode, and neither conjugate, recolour
# conjugate nor partition matched, so each leaf must refuse its forced
# gamma by itself.  Found by a scan over scrambled_pair(rng, size, arity),
# rng = make_rng(seed), size, arity = rng.randint(2, 5), rng.randint(2, 3),
# at seeds 0-399 with SEED unset: seed 3 is the first that is not recolour
# conjugate, and seed 4 the next that is not partition matched.
FORCED_REFUSALS = {
    "seed 3": (((1, 2, 1), (2, 2, 0)), ((2, 2, 0), (2, 0, 1))),
    "seed 4": (((0, 2, 1), (1, 0, 0), (0, 0, 1)), ((0, 2, 0), (1, 0, 1), (0, 0, 1))),
}


@pytest.mark.parametrize("tables", FORCED_REFUSALS.values(), ids=list(FORCED_REFUSALS))
def test_each_leaf_refuses_a_forced_gamma_that_fails_its_notion(tables):
    a, b = (FiniteSystem(size=3, tables=t) for t in tables)
    for mode in ("conjugate", "recolor", "piecewise", "partition"):
        _, colours = _refined_colours(a, b, mode)
        assert len(set(colours)) == a.size, mode
    piecewise = decide_piecewise(a, b)
    assert (piecewise.gamma, piecewise.alpha) == brute_force_piecewise(a, b)
    assert decide_conjugate(a, b) is brute_force_conjugate(a, b) is None
    assert decide_conjugate(a, b, allow_recolor=True) is brute_force_conjugate(a, b, allow_recolor=True) is None
    assert decide_partition(a, b) is brute_force_partition(a, b) is None


def test_the_partition_leaf_sorts_the_image_of_each_fibre():
    # Both maps of a fix 0 and both maps of b fix 1, so gamma(0) = 1 and
    # the least witness has gamma = (1, 0, 2).  It lists the fibre
    # (0, 1, 2) of a in the order (1, 0, 2), which b's group at 1 lists
    # as (0, 1, 2): a lookup that kept gamma's order would refuse it.
    a = FiniteSystem(size=3, tables=((0, 0, 0), (0, 0, 0)))
    b = FiniteSystem(size=3, tables=((1, 1, 1), (1, 1, 1)))
    witness = decide_partition(a, b)
    assert (witness.gamma, witness.alpha) == brute_force_partition(a, b) == ((1, 0, 2), ((0, 1),) * 3)


def test_a_leaf_whose_equal_maps_outnumber_their_match_is_passed_over(monkeypatch):
    # a = (f, f, g, g) and b = (f, g, e, e') with e and e' each f at some
    # points and g at the others, so every point has the same images on
    # both sides and every pair check passes.  The seeds and the narrowing
    # leave map 0 and map 1 of a each one bit (map 0 of b), and maps 2 and
    # 3 each one bit (map 1 of b): two maps hold each one-bit mask, so the
    # least fit leaves a -1 and the leaf admits no beta.
    a = FiniteSystem(size=4, tables=((3, 1, 0, 3), (3, 1, 0, 3), (3, 0, 2, 0), (3, 0, 2, 0)))
    b = FiniteSystem(size=4, tables=((3, 1, 0, 3), (3, 0, 2, 0), (3, 1, 2, 3), (3, 0, 0, 0)))
    fit = dynalg.conjugacy._least_fit
    leaves = []
    monkeypatch.setattr(dynalg.conjugacy, "_least_fit", lambda masks: leaves.append(fit(masks)) or leaves[-1])
    assert decide_conjugate(a, b, allow_recolor=True) is None
    assert brute_force_conjugate(a, b, allow_recolor=True) is None
    assert leaves and all(-1 in beta for beta in leaves)


def _map_kinds(system, colours):
    """For each map, the sorted (colour, image colour) pairs it joins."""
    return [sorted(zip(colours, map(colours.__getitem__, table))) for table in system.tables]


@pytest.mark.parametrize("size, classes, seed", [(25, 4, 0), (23, 3, 0), (23, 3, 14)])
def test_classed_pairs_whose_maps_join_other_colours_are_refuted_at_once(size, classes, seed):
    # Without recolouring, map i of a may only go to map i of b, which
    # here joins other colours, so refinement on the graph keyed by map
    # index refutes the pair at the root, while refinement with the map
    # colours forgotten balances; refuting only in the search, plain
    # conjugacy ran past 200 s on the first pair.
    a, b, _, _ = classed_pair(random.Random(seed), size, 2, classes)
    colours = stable_refined_colours(a, b, [0] * (2 * size))
    assert colours is not None
    assert any(p != q for p, q in zip(_map_kinds(a, colours[0]), _map_kinds(b, colours[1])))
    assert _refined_colours(a, b, "conjugate") is None
    started = time.perf_counter()
    assert decide_conjugate(a, b) is None
    assert time.perf_counter() - started < 1
    witness = decide_conjugate(a, b, allow_recolor=True)
    assert witness is not None and verify_witness(a, b, witness).passed


def test_index_keyed_refinement_refutes_only_non_conjugate_pairs():
    # Refinement keyed by map index refutes no conjugate pair, and refines
    # at least as far as with the map colours forgotten, so it refutes
    # every pair that one refutes.  Keying the preimage colours by map
    # index too refutes some pairs that sorted preimage colours, run to
    # stability, leave balanced.
    rng = make_rng(89)
    stronger = 0  # pairs refuted with the map indices kept, but not with them forgotten
    by_map = 0  # pairs refuted with map-keyed preimages, but not with sorted preimage colours
    for trial in range(600):
        size, arity = rng.randint(1, 6), rng.randint(2, 3)
        kind = trial % 4
        if kind == 0:
            a, b = random_system(rng, size, arity), random_system(rng, size, arity)
        elif kind == 1:
            a, b = scrambled_pair(rng, size, arity)
        elif kind == 2:
            a, b, _, _ = classed_pair(rng, size, arity, min(size, 2))
        else:
            a, b = repeated_map_pair(rng, size, arity)
        forgotten = _refined_colours(a, b, "piecewise")
        if _refined_colours(a, b, "conjugate") is None:
            assert brute_force_conjugate(a, b) is None
            stronger += forgotten is not None
            seeds = indegrees(a) + indegrees(b)
            by_map += stable_refined_colours(a, b, seeds, ordered=True, keyed_preimages=False) is not None
        else:
            assert forgotten is not None
    assert stronger > 0 and by_map > 0, (stronger, by_map)


# ---- one map: every notion is isomorphism of functional digraphs ------------


def test_one_map_canonical_form_counts_functional_digraphs():
    # OEIS A001372: functional digraphs on n unlabelled points, n = 1..6
    ids: dict = {}
    counts = [
        len({one_map_canonical_form(t, ids) for t in itertools.product(range(n), repeat=n)})
        for n in range(1, 7)
    ]
    assert counts == [1, 3, 7, 19, 47, 130]


def test_booth_rotation_is_the_least():
    rng = random.Random(83)
    for _ in range(500):
        seq = [rng.randrange(3) for _ in range(rng.randint(1, 12))]
        k = least_rotation(seq)
        assert seq[k:] + seq[:k] == min(seq[i:] + seq[:i] for i in range(len(seq)))


def _one_map_verdicts(a, b):
    """Each decider's verdict on a one-map pair, every witness replayed."""
    verdicts = []
    for decide in (decide_conjugate, decide_piecewise, decide_partition):
        witness = decide(a, b)
        verdicts.append(witness is not None)
        if witness is None:
            continue
        assert verify_witness(a, b, witness).passed
        if decide is decide_conjugate:
            assert witness.recolor is None
    return verdicts


@pytest.mark.parametrize("n", [100, 200, 400, 1000])
def test_deciders_find_relabelled_random_mappings(n):
    a, b = random_mapping_pair(n)
    assert one_map_conjugate(a, b)
    assert _one_map_verdicts(a, b) == [True] * 3


def test_deciders_agree_with_the_one_map_oracle_on_perturbed_pairs():
    # One entry of the relabelled copy is redirected; the oracle says
    # whether the pair is still conjugate.
    verdicts = Counter()
    for n in (3, 4, 5, 6, 8, 12, 20, 50, 100, 1000):
        a, b = random_mapping_pair(n)
        rng = random.Random(n + 1)
        for _ in range(12):
            table = list(b.tables[0])
            x = rng.randrange(n)
            table[x] = rng.choice([y for y in range(n) if y != table[x]])
            c = FiniteSystem(size=n, tables=(tuple(table),))
            expected = one_map_conjugate(a, c)
            if n <= 6:
                assert expected == (brute_force_conjugate(a, c) is not None)
            assert _one_map_verdicts(a, c) == [expected] * 3
            verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_cycle_pairs_match_exactly_when_the_cycle_lengths_agree():
    # the verdict by construction, against the brute-force oracles at n = 6
    # and the one-map canonical form up to n = 600
    for k, l in itertools.product(_divisors(6), repeat=2):
        a, b = cycle_pair(6, k, l, seed=k * 7 + l)
        assert sorted(indegrees(a)) == sorted(indegrees(b))
        found = [
            brute_force_conjugate(a, b) is not None,
            brute_force_conjugate(a, b, allow_recolor=True) is not None,
            brute_force_piecewise(a, b) is not None,
            brute_force_partition(a, b) is not None,
        ]
        assert found == [k == l] * 4, (k, l)
    for n in (12, 60, 210, 600):
        for k, l in itertools.product(_divisors(n)[:6], repeat=2):
            assert one_map_conjugate(*cycle_pair(n, k, l, seed=n + k + l)) == (k == l), (n, k, l)
    with pytest.raises(ValueError):
        cycle_pair(6, 4, 3, seed=1)


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("n, k, l", [(12, 3, 3), (6, 3, 6), (12, 3, 6)])
def test_deciders_give_the_cycle_pair_verdicts(mode, n, k, l):
    # every point has in-degree 1 and refinement separates nothing, so the
    # search alone decides; 3-cycles against 6-cycles at n = 18 take 8-10 s
    a, b = cycle_pair(n, k, l, seed=n)
    witness = _MODES[mode](a, b)
    assert (witness is not None) == (k == l)
    assert witness is None or verify_witness(a, b, witness).passed


# ---- two maps: ROADMAP item 5's class counts ---------------------------------

# Classes of 2-map systems on n points, in the order conjugate, conjugate
# with recolouring, partition, piecewise.
TWO_MAP_CLASSES = {1: (1, 1, 1, 1), 2: (10, 7, 7, 6), 3: (129, 74, 74, 44)}


def _two_map_class_counts(n, matched):
    """Class counts of every 2-map system on n points, one per notion, each
    system decided against one representative of every class found so far."""
    counts = []
    for same in matched:
        representatives = []
        for tables in itertools.product(itertools.product(range(n), repeat=n), repeat=2):
            system = FiniteSystem(size=n, tables=tables)
            if not any(same(r, system) for r in representatives):
                representatives.append(system)
        counts.append(len(representatives))
    return tuple(counts)


@pytest.mark.parametrize("n", sorted(TWO_MAP_CLASSES))
def test_two_map_class_counts(n):
    deciders = (
        lambda a, b: decide_conjugate(a, b) is not None,
        lambda a, b: decide_conjugate(a, b, allow_recolor=True) is not None,
        lambda a, b: decide_partition(a, b) is not None,
        lambda a, b: decide_piecewise(a, b) is not None,
    )
    assert _two_map_class_counts(n, deciders) == TWO_MAP_CLASSES[n]
    if n <= 2:  # the brute-force oracles take seconds at n = 3
        oracles = (
            lambda a, b: brute_force_conjugate(a, b) is not None,
            lambda a, b: brute_force_conjugate(a, b, allow_recolor=True) is not None,
            lambda a, b: brute_force_partition(a, b) is not None,
            lambda a, b: brute_force_piecewise(a, b) is not None,
        )
        assert _two_map_class_counts(n, oracles) == TWO_MAP_CLASSES[n]
