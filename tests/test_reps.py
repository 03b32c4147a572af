import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from dynalg.dynsys import EdgeColoredGraph, FiniteSystem, colored_graph, full_subsystem, restrict
from dynalg.fixtures import (
    FOUR_POINT_OVERLAP,
    THREE_POINT_DISJOINT,
    TWO_POINT_CONSTANT,
    TWO_POINT_MIXED,
)
from dynalg.reps import (
    CKFamily,
    MAX_FOCK_SIZE,
    InvalidSlotError,
    NestRep,
    build_truncated_fock,
    check_ck_relations,
    decide_tensor_vs_semicrossed,
    nest_rep_exists,
    rep_apply,
    row_norm,
)
from dynalg.scalars import qc
from dynalg.semicrossed import FunctionCoeff, SemicrossedElement, identity_hom, pullback, sc_multiply

from oracles import (
    compress_block,
    creation_maps,
    dense_ck_report,
    dense_edge_operator,
    fock_words,
    random_element,
    random_system,
    scan_ck_report,
    scan_edge_map,
    sorted_fock_basis,
    vertex_projection,
)

LOOP_GRAPH = EdgeColoredGraph(vertices=(0,), edges=((0, 0, 0),), colours=1)


# ---- first-row representations -------------------------------------------------


def test_nest_rep_examples():
    rep = NestRep(TWO_POINT_CONSTANT, 0, [(0, 0), (1, 0)])
    assert rep.slots == ((0, 0), (1, 0))  # stored as a tuple
    assert np.array_equal(rep.generator_image(0).real, [[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    assert not rep.generator_image(1).any()

    rep2 = NestRep(FOUR_POINT_OVERLAP, 1, [(0, 0), (0, 1)])
    assert np.array_equal(rep2.generator_image(0).real[0], [0, 1, 0])
    assert np.array_equal(rep2.generator_image(1).real[0], [0, 0, 1])

    empty = NestRep(TWO_POINT_MIXED, 1, [])
    assert empty.dim == 1
    f = FunctionCoeff((qc(3), qc(7)))
    assert np.array_equal(empty.function_image(f), [[7.0]])


def test_nest_rep_rejects_bad_slots():
    with pytest.raises(InvalidSlotError, match=r"^slot \(1, 1\): map 1 sends 1 to 3, not 2$"):
        NestRep(FOUR_POINT_OVERLAP, 2, [(1, 1)])
    # a colour past the arity, and a slot its map does not send to the base
    with pytest.raises(InvalidSlotError, match=r"^slot \(0, 5\): colour must be an int in 0\.\.1, got 5$"):
        NestRep(FOUR_POINT_OVERLAP, 1, ((0, 0), (0, 5), (3, 1)))
    with pytest.raises(InvalidSlotError, match=r"^slot \(3, 1\): map 1 sends 3 to 3, not 1$"):
        NestRep(FOUR_POINT_OVERLAP, 1, ((0, 0), (3, 1)))
    # repeated colours are accepted
    rep = NestRep(TWO_POINT_CONSTANT, 0, [(0, 0), (1, 0)])
    assert rep.m == 2


def test_nest_rep_slots_must_be_int_points_and_colours():
    # map 0 of TWO_POINT_MIXED sends 1 to 1, so (1, 0) is a valid slot at base 1
    assert NestRep(TWO_POINT_MIXED, 1, [(1, 0)]).slots == ((1, 0),)
    for slot, error in (
        ((True, 0), "point must be an int in 0..1, got True"),
        ((1, False), "colour must be an int in 0..1, got False"),
        ((1.0, 0), "point must be an int in 0..1, got 1.0"),
        ((1, 0.0), "colour must be an int in 0..1, got 0.0"),
        ((2, 0), "point must be an int in 0..1, got 2"),
        ((1, 2), "colour must be an int in 0..1, got 2"),
        ((-1, 0), "point must be an int in 0..1, got -1"),
        (("1", 0), "point must be an int in 0..1, got '1'"),
    ):
        message = f"slot ({slot[0]!r}, {slot[1]!r}): {error}"
        with pytest.raises(InvalidSlotError, match=f"^{re.escape(message)}$"):
            NestRep(TWO_POINT_MIXED, 1, [slot])


def test_function_images_need_one_value_per_point():
    rep = NestRep(FOUR_POINT_OVERLAP, 1, [(0, 0), (0, 1)])
    hom = identity_hom(FOUR_POINT_OVERLAP)
    for size in (2, 3, 5, 6):
        f = FunctionCoeff.constant(size, 1)
        message = f"coefficient has {size} values, system has 4 points"
        for image in (rep.function_image, hom.function_image, lambda f: pullback(f, (0,), FOUR_POINT_OVERLAP)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                image(f)


def test_rep_apply_function_and_products():
    rep = NestRep(FOUR_POINT_OVERLAP, 1, [(0, 0), (0, 1)])
    sys = FOUR_POINT_OVERLAP
    f = FunctionCoeff((qc(2), qc(3), qc(5), qc(7)))
    diag = rep_apply(rep, SemicrossedElement.from_function(sys, f))
    assert np.array_equal(diag, np.diag([3.0, 2.0, 2.0]))

    # s_{c1} chi_{x1} has a single 1 in the first row
    single = sc_multiply(
        SemicrossedElement.generator(sys, 0),
        SemicrossedElement.from_function(sys, FunctionCoeff.indicator(4, {0})),
    )
    mat = rep_apply(rep, single)
    assert np.count_nonzero(mat) == 1 and mat[0, 1] == 1.0

    with pytest.raises(ValueError):
        rep_apply(rep, SemicrossedElement.unit(TWO_POINT_MIXED))


def test_rep_apply_covariance_random_functions():
    rep = NestRep(FOUR_POINT_OVERLAP, 1, [(0, 0), (0, 1)])
    sys = FOUR_POINT_OVERLAP
    rng = random.Random(41)
    for _ in range(100):
        values = tuple(qc(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4))
        f = FunctionCoeff(values)
        for i in range(2):
            s = SemicrossedElement.generator(sys, i)
            lhs = rep_apply(rep, sc_multiply(SemicrossedElement.from_function(sys, f), s))
            rhs = rep_apply(
                rep,
                sc_multiply(s, SemicrossedElement.from_function(sys, pullback(f, (i,), sys))),
            )
            assert np.array_equal(lhs, rhs)


def test_first_row_pattern_is_an_algebra():
    rng = random.Random(43)
    for _ in range(50):
        dim = rng.randint(1, 5)

        def pattern():
            m = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                m[k, k] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                m[0, k] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return m

        prod = pattern() @ pattern()
        off = prod.copy()
        off[0, :] = 0
        np.fill_diagonal(off, 0)
        assert not off.any()


def test_nest_rep_images_stay_in_pattern():
    rng = random.Random(44)
    for _ in range(30):
        sys = random_system(rng, rng.randint(2, 4), rng.randint(1, 3))
        base = rng.randrange(sys.size)
        slots = []
        for p in range(sys.size):
            for c in range(sys.arity):
                if sys.tables[c][p] == base:
                    slots.append((p, c))
        if not slots:
            continue
        rep = NestRep(sys, base, slots)
        el = random_element(rng, sys, 3)
        mat = rep_apply(rep, el)
        off = mat.copy()
        off[0, :] = 0
        np.fill_diagonal(off, 0)
        assert np.max(np.abs(off)) == 0.0


def test_distinct_colour_images_are_contractions():
    rng = random.Random(45)
    for _ in range(40):
        sys = random_system(rng, rng.randint(2, 4), rng.randint(1, 3))
        base = rng.randrange(sys.size)
        preimages = [p for p in range(sys.size) for _ in range(1)]
        assignment = nest_rep_exists(sys, base, preimages)
        if assignment is None:
            continue
        assert len(set(assignment)) == len(assignment)
        rep = NestRep(sys, base, list(zip(preimages, assignment)))
        for k in range(sys.arity):
            norm = np.linalg.norm(rep.generator_image(k), 2)
            assert norm in (0.0, 1.0)


def test_nest_rep_exists_examples():
    assert nest_rep_exists(FOUR_POINT_OVERLAP, 1, [0, 0]) == (0, 1)
    assert nest_rep_exists(FOUR_POINT_OVERLAP, 2, [1, 1]) is None
    assert nest_rep_exists(FOUR_POINT_OVERLAP, 1, []) == ()


def test_row_norm_examples():
    iso = np.eye(3, dtype=complex)
    assert abs(row_norm([iso]) - 1.0) < 1e-15
    rep = NestRep(FOUR_POINT_OVERLAP, 1, [(0, 0), (0, 1)])
    mats = [rep.generator_image(k) for k in range(2)]
    assert abs(row_norm(mats) - math.sqrt(2)) < 1e-12
    assert row_norm([np.zeros((2, 2))] * 3) == 0.0
    with pytest.raises(ValueError):
        row_norm([np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(ValueError):
        row_norm([])
    # every entry must be a matrix: no scalar, vector or 3-D array is read as one
    for mats, k, shape in (
        ([5], 0, ()),
        ([[1, 1]], 0, (2,)),
        ([np.zeros((2, 2)), np.zeros(2)], 1, (2,)),
        ([np.eye(2), np.zeros((2, 1, 1))], 1, (2, 1, 1)),
    ):
        message = f"entry {k} has shape {shape}, not that of a matrix"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            row_norm(mats)


def test_row_norm_two_routes():
    rng = random.Random(46)
    for _ in range(40):
        rows = rng.randint(1, 4)
        shapes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        mats = [
            np.array(
                [
                    [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            for cols in shapes
        ]
        direct = row_norm(mats)
        gram = sum(m @ m.conj().T for m in mats)
        independent = math.sqrt(max(np.linalg.eigvalsh(gram).max(), 0.0))
        assert abs(direct - independent) < 1e-10


def test_generator_row_norm_is_the_dense_row_norm():
    rng = random.Random(49)
    seen: Counter = Counter()
    for _ in range(300):
        sys = random_system(rng, rng.randint(1, 4), rng.randint(1, 3))
        base = rng.randrange(sys.size)
        admissible = [(p, c) for c in range(sys.arity) for p in range(sys.size) if sys.tables[c][p] == base]
        if not admissible:
            continue
        slots = [rng.choice(admissible) for _ in range(rng.randint(1, 3))]
        rep = NestRep(sys, base, slots)
        dense = row_norm([rep.generator_image(k) for k in range(sys.arity)])
        assert abs(rep.generator_row_norm() - dense) <= 1e-12
        colours = [c for _, c in slots]
        seen["repeated colour"] += len(set(colours)) < len(colours)
        seen["slot at the base"] += base in (p for p, _ in slots)
        seen[("arity", sys.arity)] += 1
        seen[("slots", len(slots))] += 1
    assert len(seen) == 8 and all(seen.values()), seen
    assert NestRep(TWO_POINT_MIXED, 0, []).generator_row_norm() == 0.0


def test_shared_base_point_forces_row_norm_obstruction():
    rng = random.Random(48)
    for _ in range(40):
        sys = random_system(rng, rng.randint(2, 5), rng.randint(2, 3))
        disjoint, witness = __import__("dynalg").ranges_pairwise_disjoint(sys)
        if disjoint:
            continue
        i, j, z = witness
        x1 = min(x for x in range(sys.size) if sys.tables[i][x] == z)
        x2 = min(x for x in range(sys.size) if sys.tables[j][x] == z)
        rep = NestRep(sys, z, [(x1, i), (x2, j)])
        mats = [rep.generator_image(k) for k in range(sys.arity)]
        assert row_norm(mats) >= math.sqrt(2) - 1e-12
        for m in mats:
            assert np.linalg.norm(m, 2) <= 1.0 + 1e-12


def test_decide_tensor_vs_semicrossed():
    overlap = decide_tensor_vs_semicrossed(FOUR_POINT_OVERLAP)
    assert not overlap.isomorphic
    assert overlap.overlap == (1, (0, 0), (0, 1))
    mats = [overlap.obstruction.generator_image(k) for k in range(2)]
    assert abs(row_norm(mats) - math.sqrt(2)) < 1e-12
    assert overlap.obstruction.generator_row_norm() == math.sqrt(2)

    disjoint = decide_tensor_vs_semicrossed(THREE_POINT_DISJOINT)
    assert disjoint.isomorphic
    bumps = disjoint.bump_functions
    for i, bump in enumerate(bumps):
        image = {THREE_POINT_DISJOINT.tables[i][x] for x in range(3)}
        assert all(bump.values[y] == qc(1) for y in image)
    assert all((bumps[0] * bumps[1]).values[x] == qc(0) for x in range(3))

    single = decide_tensor_vs_semicrossed(FiniteSystem(size=3, tables=((1, 2, 0),)))
    assert single.isomorphic


# ---- truncated path-space families ----------------------------------------------


def test_build_truncated_fock_counts():
    fam = build_truncated_fock(LOOP_GRAPH, 3)
    assert fam.dim == 4  # vacuum, e, ee, eee
    mixed = build_truncated_fock(colored_graph(full_subsystem(TWO_POINT_MIXED)), 2)
    assert mixed.dim == 2 + 4 + 8
    empty = build_truncated_fock(
        EdgeColoredGraph(vertices=(0, 1), edges=(), colours=1), 2
    )
    assert empty.dim == 2
    report = check_ck_relations(empty)
    assert report.passed_exact_relations and report.defect_structure_ok
    with pytest.raises(ValueError):
        build_truncated_fock(LOOP_GRAPH, 0)


def test_fock_depth_must_be_an_int_proper():
    mixed = colored_graph(full_subsystem(TWO_POINT_MIXED))
    # a float or bool depth is refused, not rounded up to a level count or read as 1
    for depth in (2.5, 2.0, True, False, "2", None):
        with pytest.raises(ValueError, match=rf"^depth must be an int >= 1, got {re.escape(repr(depth))}$"):
            build_truncated_fock(mixed, depth)
    for depth in (0, -1):
        with pytest.raises(ValueError, match=rf"^depth must be an int >= 1, got {depth}$"):
            build_truncated_fock(mixed, depth)
    assert build_truncated_fock(mixed, 3).depth == 3


def test_fock_basis_is_bounded():
    # the loop's paths have lengths 0..depth, so its basis stores
    # (depth + 1)(depth + 2) / 2 path entries
    fam = build_truncated_fock(LOOP_GRAPH, 2046)
    assert sum(1 + len(edges) for _, edges in fam.basis) <= MAX_FOCK_SIZE
    for depth in (2047, 10**9):
        with pytest.raises(ValueError, match="smaller depth"):
            build_truncated_fock(LOOP_GRAPH, depth)


def test_loop_family_shift_structure():
    fam = build_truncated_fock(LOOP_GRAPH, 3)
    s = fam.edge_operator((0, 0, 0))
    # nilpotent shift: vacuum -> e -> ee -> eee -> 0
    assert np.array_equal(s @ s @ s @ s, np.zeros((4, 4), dtype=np.int64))
    assert np.count_nonzero(s) == 3
    report = check_ck_relations(fam)
    assert report.initial_projections_ok and report.orthogonality_ok
    assert report.monochrome_cuntz_ok and report.defect_structure_ok
    (defect,) = report.defects
    assert defect.vacuum_positions and not defect.off_colour_positions


def test_one_vertex_family_carries_the_left_creation_maps():
    # n loops at one vertex: a path is the word of its edge colours, outermost first
    for n, depth in ((1, 6), (2, 5), (3, 3)):
        graph = EdgeColoredGraph(vertices=(0,), edges=tuple((0, 0, j) for j in range(n)), colours=n)
        family = build_truncated_fock(graph, depth)
        position = {w: k for k, w in enumerate(fock_words(n, depth))}
        word_at = [position[tuple(e[2] for e in edges)] for _, edges in family.basis]
        assert sorted(word_at) == list(range(len(position)))
        for j, pairs in enumerate(creation_maps(n, depth)):
            assert {word_at[k]: word_at[v] for k, v in family.edge_map((0, 0, j)).items()} == pairs


def test_two_point_mixed_family_relations():
    fam = build_truncated_fock(colored_graph(full_subsystem(TWO_POINT_MIXED)), 2)
    report = check_ck_relations(fam)
    assert report.initial_projections_ok
    assert report.orthogonality_ok
    assert report.monochrome_cuntz_ok
    assert report.defect_structure_ok
    # colour defects at depth 2 hold the vacuum and the off-colour length-2 tails
    for defect in report.defects:
        assert len(defect.vacuum_positions) == 1
        assert defect.off_colour_positions


def test_fock_relations_on_random_graphs():
    rng = random.Random(49)
    for _ in range(20):
        sys = random_system(rng, rng.randint(1, 3), rng.randint(1, 2))
        subset = rng.sample(range(sys.size), rng.randint(1, sys.size))
        graph = colored_graph(restrict(sys, subset))
        fam = build_truncated_fock(graph, rng.randint(1, 3))
        report = check_ck_relations(fam)
        assert report.passed_exact_relations
        assert report.defect_structure_ok


def _random_families(rng, count, max_depth=3):
    for _ in range(count):
        sys = random_system(rng, rng.randint(1, 4), rng.randint(1, 3))
        subset = rng.sample(range(sys.size), rng.randint(1, sys.size))
        yield build_truncated_fock(colored_graph(restrict(sys, subset)), rng.randint(1, max_depth))


def _perturbed(fam):
    """Families on which some relation fails."""
    perturbed = [
        # the longest paths are no longer reached by any edge
        CKFamily(fam.graph, fam.depth - 1, fam.basis),
        # a repeated vacuum is sent twice onto the same path
        CKFamily(fam.graph, fam.depth, fam.basis + fam.basis[:1]),
    ]
    if fam.graph.edges:
        # a repeated edge overlaps its own image
        graph = EdgeColoredGraph(
            fam.graph.vertices, fam.graph.edges + fam.graph.edges[:1], fam.graph.colours
        )
        perturbed.append(CKFamily(graph, fam.depth, fam.basis))
        perturbed.extend(_repeated_paths(fam))
    return perturbed


def _repeated_paths(fam):
    """A non-vacuum path listed twice: its first copy is covered by no edge."""
    first_edge_path = next(p for p in fam.basis if p[1])
    return [
        CKFamily(fam.graph, fam.depth, fam.basis + fam.basis[-1:]),
        CKFamily(fam.graph, fam.depth, fam.basis + (first_edge_path,)),
    ]


def test_ck_report_matches_dense_oracle_on_random_graphs():
    for fam in _random_families(random.Random(61), 60):
        assert check_ck_relations(fam) == dense_ck_report(fam)
        for e in fam.graph.edges:
            assert np.array_equal(fam.edge_operator(e), dense_edge_operator(fam, e))


def test_ck_report_matches_dense_oracle_on_perturbed_families():
    rng = random.Random(62)
    failed = {"initial": 0, "orthogonality": 0, "structure": 0, "monochrome": 0}
    for fam in _random_families(rng, 60):
        basis = list(fam.basis)
        rng.shuffle(basis)
        shuffled = CKFamily(fam.graph, fam.depth, tuple(basis))
        # positions move but the relations still hold
        report = check_ck_relations(shuffled)
        assert report == dense_ck_report(shuffled)
        assert report.passed_exact_relations and report.defect_structure_ok
        for other in _perturbed(fam):
            report = check_ck_relations(other)
            assert report == dense_ck_report(other)
            failed["initial"] += not report.initial_projections_ok
            failed["orthogonality"] += not report.orthogonality_ok
            failed["structure"] += not report.defect_structure_ok
            failed["monochrome"] += not report.monochrome_cuntz_ok
        for other in _repeated_paths(fam) if fam.graph.edges else ():
            assert not check_ck_relations(other).defect_structure_ok
    assert all(failed.values()), failed


def test_built_family_maps_equal_a_scan_of_its_basis():
    # the build records the grading and edge images as it places the paths;
    # a family over the same basis finds them by scanning and looking up
    for fam in _random_families(random.Random(66), 40, max_depth=5):
        scanned = CKFamily(fam.graph, fam.depth, fam.basis)
        assert "_by_range" in vars(fam) and "_by_range" not in vars(scanned)
        assert fam._by_range == scanned._by_range
        for e in fam.graph.edges:
            assert fam.edge_map(e) == scanned.edge_map(e) == scan_edge_map(fam, e)
        assert check_ck_relations(fam) == check_ck_relations(scanned)


def _raised(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_fock_build_and_check_match_scan_oracles_to_depth_6():
    rng = random.Random(63)
    failed = raised = 0
    for fam in _random_families(rng, 80, max_depth=6):
        assert fam.basis == sorted_fock_basis(fam.graph, fam.depth)
        basis = list(fam.basis)
        rng.shuffle(basis)
        shuffled = CKFamily(fam.graph, fam.depth, tuple(basis))
        for other in [fam, shuffled] + _perturbed(fam):
            report = check_ck_relations(other)
            assert report == scan_ck_report(other)
            failed += not (report.passed_exact_relations and report.defect_structure_ok)
        if fam.dim - len(fam.graph.vertices) >= 2:
            # two paths gone: the first listed edge lacking a path names it
            holed = list(fam.basis)
            for _ in range(2):
                holed.pop(rng.randrange(len(fam.graph.vertices), len(holed)))
            holed = CKFamily(fam.graph, fam.depth, tuple(holed))
            message = _raised(lambda: scan_ck_report(holed))
            assert "lacks the path" in message
            assert _raised(lambda: check_ck_relations(holed)) == message
            raised += 1
    assert failed and raised


def test_fock_basis_does_not_depend_on_graph_order():
    graphs = [
        # vertices unsorted, edges neither in (colour, source) nor in sorted order
        EdgeColoredGraph(
            vertices=(2, 0, 1),
            edges=((2, 0, 1), (0, 1, 0), (1, 2, 1), (0, 0, 1), (2, 2, 0), (1, 0, 0)),
            colours=2,
        ),
        EdgeColoredGraph(vertices=(5, 3), edges=((5, 3, 0), (3, 5, 0), (3, 3, 1)), colours=2),
    ]
    rng = random.Random(64)
    for fam in _random_families(rng, 30, max_depth=4):
        vertices, edges = list(fam.graph.vertices), list(fam.graph.edges)
        rng.shuffle(vertices)
        rng.shuffle(edges)
        graphs.append(EdgeColoredGraph(tuple(vertices), tuple(edges), fam.graph.colours))
    for graph in graphs:
        for depth in (1, 3, 5):
            fam = build_truncated_fock(graph, depth)
            assert fam.basis == sorted_fock_basis(graph, depth)
            assert check_ck_relations(fam) == scan_ck_report(fam)


def test_incomplete_basis_is_rejected():
    fam = build_truncated_fock(colored_graph(full_subsystem(TWO_POINT_MIXED)), 2)
    deeper = CKFamily(fam.graph, fam.depth + 1, fam.basis)
    edge = fam.graph.edges[0]
    for call in (lambda: deeper.edge_map(edge), lambda: deeper.edge_operator(edge),
                 lambda: check_ck_relations(deeper)):
        with pytest.raises(ValueError, match="lacks the path"):
            call()


def test_edge_map_rejects_a_non_edge():
    fam = build_truncated_fock(colored_graph(full_subsystem(TWO_POINT_MIXED)), 2)
    with pytest.raises(ValueError, match="is not an edge of the graph"):
        fam.edge_map((0, 0, 1))


def test_projections_resolve_identity():
    fam = build_truncated_fock(colored_graph(full_subsystem(TWO_POINT_CONSTANT)), 2)
    total = sum(vertex_projection(fam, v) for v in fam.graph.vertices)
    assert np.array_equal(total, np.eye(fam.dim, dtype=np.int64))


def test_compress_block():
    fam = build_truncated_fock(LOOP_GRAPH, 3)
    p = vertex_projection(fam, 0)
    block = compress_block(fam, p, 0, 0)
    assert np.array_equal(block, np.eye(4, dtype=np.int64))

    mixed = build_truncated_fock(colored_graph(full_subsystem(TWO_POINT_MIXED)), 2)
    edge = (0, 1, 1)
    s = mixed.edge_operator(edge)
    assert compress_block(mixed, s, 0, 1).any()
    # a diagonal matrix has no cross block
    assert not compress_block(mixed, vertex_projection(mixed, 0), 0, 1).any()
    with pytest.raises(ValueError):
        compress_block(mixed, s, 0, 7)
