import random
import time

import pytest

from dynalg.conjugacy import (
    IncompatibleSystemsError,
    MalformedWitnessError,
    PartitionWitness,
    decide_conjugate,
    decide_partition,
    decide_piecewise,
    verify_partition_witness,
)
from dynalg.dynsys import FiniteSystem, equivalence_classes
from dynalg.fixtures import (
    FOUR_POINT_SPLIT_A,
    FOUR_POINT_SPLIT_B,
    TWO_POINT_CONSTANT,
    TWO_POINT_MIXED,
)
from dynalg.quotient import local_signature

from oracles import (
    brute_force_conjugate,
    brute_force_partition,
    brute_force_piecewise,
    random_system,
    scrambled_pair,
)


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
    assert verify_partition_witness(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, witness).passed

    # pointwise-valid but preimage-violating witness on the two-point pair
    sneaky = PartitionWitness(gamma=(0, 1), alpha=((0, 1), (1, 0)))
    report = verify_partition_witness(TWO_POINT_MIXED, TWO_POINT_CONSTANT, sneaky)
    assert not report.passed
    assert {f.condition for f in report.failures} == {"tau-preimage", "tau-saturation"}

    identity = PartitionWitness(gamma=(0, 1), alpha=((0, 1), (0, 1)))
    assert verify_partition_witness(TWO_POINT_MIXED, TWO_POINT_MIXED, identity).passed


def test_verify_witness_rejects_malformed():
    with pytest.raises(MalformedWitnessError):
        verify_partition_witness(
            TWO_POINT_MIXED,
            TWO_POINT_MIXED,
            PartitionWitness(gamma=(0, 0), alpha=((0, 1), (0, 1))),
        )
    with pytest.raises(MalformedWitnessError):
        verify_partition_witness(
            TWO_POINT_MIXED,
            TWO_POINT_MIXED,
            PartitionWitness(gamma=(0, 1), alpha=((0, 1),)),
        )
    with pytest.raises(MalformedWitnessError):
        verify_partition_witness(
            TWO_POINT_MIXED,
            TWO_POINT_MIXED,
            PartitionWitness(gamma=(0, 1), alpha=((0, 0), (0, 1))),
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
            assert verify_partition_witness(a, b, witness).passed
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
        assert witness is not None
        gamma, alpha = witness.gamma, witness.alpha
        for x in range(a.size):
            for i in range(a.arity):
                assert gamma[a.tables[i][x]] == b.tables[alpha[x][i]][gamma[x]]


def test_large_recoloured_copies_are_conjugate():
    rng = random.Random(311)
    for trial in range(20):
        size, arity = rng.randint(10, 24), 1 + trial % 3
        a = random_system(rng, size, arity)
        b = _relabel(a, _shuffled(rng, range(size)), _shuffled(rng, range(arity)))
        witness = decide_conjugate(a, b, allow_recolor=True)
        assert witness is not None
        gamma, beta = witness.gamma, witness.recolor
        for i in range(arity):
            for x in range(size):
                assert gamma[a.tables[i][x]] == b.tables[beta[i]][gamma[x]]


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
            assert verify_partition_witness(a, b, witness).passed
    assert found >= 18


def test_inverse_witness_verifies_backwards():
    found = 0
    for _, a, b in _large_pairs(332):
        witness = decide_partition(a, b)
        if witness is None:
            continue
        found += 1
        inverse = witness.inverse()
        assert verify_partition_witness(b, a, inverse).passed
        assert inverse.inverse() == witness
        for i in range(a.arity):
            for j in range(a.arity):
                image = {witness.gamma[x] for x in witness.index_set(i, j)}
                assert inverse.index_set(j, i) == image
    assert found >= 18


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


def _tiled(system: FiniteSystem, copies: int) -> FiniteSystem:
    """The disjoint union of ``copies`` copies of ``system``."""
    n = system.size
    return FiniteSystem(
        size=n * copies,
        tables=tuple(
            tuple(c * n + y for c in range(copies) for y in table) for table in system.tables
        ),
    )


def test_signature_seeds_prune_tiled_piecewise_pairs():
    # Piecewise matched but not partition matched: the local signatures
    # differ at every point, so the partition search refutes at the root.
    a, b = _tiled(TWO_POINT_MIXED, 6), _tiled(TWO_POINT_CONSTANT, 6)
    started = time.perf_counter()
    assert decide_partition(a, b) is None
    assert time.perf_counter() - started < 0.25
    witness = decide_piecewise(a, b)
    assert witness is not None
    gamma, alpha = witness.gamma, witness.alpha
    for x in range(a.size):
        for i in range(a.arity):
            assert gamma[a.tables[i][x]] == b.tables[alpha[x][i]][gamma[x]]
