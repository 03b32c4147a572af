import argparse
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynalg import cli
from dynalg.cli import (
    FormatError,
    dump_system,
    dump_u1n,
    main,
    parse_system,
    parse_system_record,
    parse_u1n,
    read_witness,
    run_command,
)
from dynalg.conjugacy import decide_conjugate, decide_partition, decide_piecewise, verify_witness
from dynalg.dynsys import FiniteSystem, entry_signature, full_subsystem
from dynalg.fixtures import (
    FOUR_POINT_OVERLAP,
    FOUR_POINT_SPLIT_A,
    FOUR_POINT_SPLIT_B,
    TWO_POINT_CONSTANT,
    TWO_POINT_MIXED,
)
from dynalg.freeprod import BallMobius, mobius_to_u1n
from dynalg.reps import MAX_FOCK_SIZE

from oracles import make_rng, relabelled_pair


_FIXTURES = {
    "mixed": TWO_POINT_MIXED,
    "const": TWO_POINT_CONSTANT,
    "overlap": FOUR_POINT_OVERLAP,
    "split_a": FOUR_POINT_SPLIT_A,
    "split_b": FOUR_POINT_SPLIT_B,
}


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, system in _FIXTURES.items():
        p = tmp_path / f"{name}.json"
        p.write_text(dump_system(system))
        paths[name] = str(p)
    return paths


# ---- file format ---------------------------------------------------------------


def test_parse_system_examples():
    assert parse_system('{"points":2,"maps":[[0,1],[1,0]]}') == TWO_POINT_MIXED
    assert parse_system('{"points":4,"maps":[[1,2,2,2],[1,3,3,3]]}') == FOUR_POINT_OVERLAP
    with pytest.raises(FormatError, match=r"^image of 1 under map 0 must be an int in 0\.\.1, got 2$"):
        parse_system('{"points":2,"maps":[[0,2]]}')
    with pytest.raises(FormatError, match="not valid structured text"):
        parse_system("{points: oops}")
    with pytest.raises(FormatError, match="expected 2 entries"):
        parse_system('{"points":2,"maps":[[0,1],[1]]}')
    with pytest.raises(FormatError, match="required"):
        parse_system('{"points":2}')


def test_parse_system_rejects_booleans():
    with pytest.raises(FormatError, match="count or a list"):
        parse_system_record('{"points": true, "maps": [[false]]}')
    with pytest.raises(FormatError, match=r"^image of 0 under map 0 must be an int in 0\.\.0, got False$"):
        parse_system_record('{"points": 1, "maps": [[false]]}')
    with pytest.raises(FormatError, match=r"^image of 1 under map 0 must be an int in 0\.\.1, got True$"):
        parse_system('{"points": 2, "maps": [[0, true]]}')


def test_parse_system_names_and_labels():
    system, names = parse_system_record(
        '{"points":["p","q"],"maps":[["q","p"],["p","q"]]}'
    )
    assert system == FiniteSystem(size=2, tables=((1, 0), (0, 1)))
    assert names == ["p", "q"]
    with pytest.raises(FormatError, match="duplicate"):
        parse_system('{"points":["p","p"],"maps":[[0,1]]}')
    system2, names2 = parse_system_record(
        '{"points":2,"maps":[[0,1]],"labels":["a","b"]}'
    )
    assert names2 == ["a", "b"]
    with pytest.raises(FormatError, match="unknown point name"):
        parse_system('{"points":["p","q"],"maps":[["r","p"]]}')


def test_labels_that_are_lists_exit_2(tmp_path):
    path = tmp_path / "labels.json"
    path.write_text('{"points": 2, "labels": [[1], [2]], "maps": [[0, 1]]}')
    report, code = run_command(["signature", str(path)])
    assert code == 2 and "strings" in report["error"]


def test_labels_that_are_numbers_are_rejected():
    # 1 and "1" are distinct JSON values but would print as the same name
    with pytest.raises(FormatError, match="strings"):
        parse_system_record('{"points": 2, "labels": [1, "1"], "maps": [[0, 1]]}')


def test_system_records_name_their_fault():
    for text, message in [
        ("[1, 2]", "top level must be an object"),
        ('{"points": ["p", "q"], "labels": ["a", "b"], "maps": [["p", "q"]]}', "not both"),
        ('{"points": 2, "labels": ["a"], "maps": [[0, 1]]}', "must list 2 names"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_system_record(text)
    for names in (["p"], ["p", "p"], ["p", "q", "r"]):
        with pytest.raises(FormatError, match="need 2 distinct names"):
            dump_system(TWO_POINT_MIXED, names)


def test_dump_system_writes_only_names_the_parser_reads():
    for names in ([1, 2], ["a", 1], [True, False]):
        with pytest.raises(FormatError, match="must be a list of strings"):
            parse_system_record(json.dumps({"points": names, "maps": [[0, 1], [1, 0]]}))
        with pytest.raises(FormatError, match="point names must be strings"):
            dump_system(TWO_POINT_MIXED, names)


def test_round_trip_bit_exact():
    for system in (TWO_POINT_MIXED, FOUR_POINT_OVERLAP, FOUR_POINT_SPLIT_B):
        text = dump_system(system)
        assert parse_system(text) == system
        assert dump_system(parse_system(text)) == text
    named = dump_system(TWO_POINT_MIXED, names=["p", "q"])
    system, names = parse_system_record(named)
    assert dump_system(system, names) == named


def test_u1n_round_trip():
    x = mobius_to_u1n(BallMobius.involution([0.3, 0.1]))
    text = dump_u1n(x)
    x2 = parse_u1n(text)
    assert np.allclose(x.matrix, x2.matrix)
    with pytest.raises(FormatError):
        parse_u1n('{"n":1,"matrix":[[[1,0],[0,0]],[[0,0],[2,0]]]}')  # not in U(1,1)


def test_parse_u1n_rejects_malformed():
    ident = '[[[1,0],[0,0]],[[0,0],[1,0]]]'
    assert np.array_equal(parse_u1n('{"n":1,"matrix":%s}' % ident).matrix, np.eye(2))
    for text, message in [
        ('{"n":true,"matrix":[[[1,0]]]}', "^field 'n' must be an int >= 1, got True$"),
        ('{"n":1,"matrix":[[[1,0,5],[0,0]],[[0,0],[1,0]]]}', "pairs"),
        ('{"n":1,"matrix":[[[true,0],[0,0]],[[0,0],[1,0]]]}', r"^matrix\[0\]\[0\] real part True is not a number$"),
        ('{"n":1,"matrix":[[["1",0],[0,0]],[[0,0],[1,0]]]}', r"^matrix\[0\]\[0\] real part '1' is not a number$"),
        ('{"n":1,"matrix":[[[1,0],[0,0]],[[0,0]]]}', "2x2"),
        ('{"n":1,"matrix":[[[NaN,0],[0,0]],[[0,0],[1,0]]]}', "finite"),
        ('{"n":1,"matrix":[[[1e999,0],[0,0]],[[0,0],[1,0]]]}', "finite"),
        ('{"n":1,"matrix":[[[1,0],[0,0]],[[0,1e400],[1,0]]]}', r"^matrix\[1\]\[0\] imaginary part inf is not finite$"),
        ('{"n":1,"matrix":[[[1%s,0],[0,0]],[[0,0],[1,0]]]}' % ("0" * 400), r"^matrix\[0\]\[0\] real part <401-digit int> is not finite$"),
        ('{"n":1', "not valid structured text"),
        ('{"n":1}', "'n' and 'matrix' are required"),
        ("[1]", "'n' and 'matrix' are required"),
    ]:
        with pytest.raises(FormatError, match=message):
            parse_u1n(text)


@st.composite
def named_systems(draw):
    size = draw(st.integers(1, 6))
    point = st.integers(0, size - 1)
    tables = draw(st.lists(st.lists(point, min_size=size, max_size=size), min_size=1, max_size=3))
    names = draw(st.none() | st.lists(st.text(max_size=4), min_size=size, max_size=size, unique=True))
    return FiniteSystem(size=size, tables=tuple(map(tuple, tables))), names


@settings(max_examples=60, derandomize=True, database=None)
@given(named_systems())
def test_parse_system_inverts_dump(case):
    system, names = case
    text = dump_system(system, names)
    assert parse_system(text) == system
    assert parse_system_record(text) == (system, names)


@st.composite
def u1n_matrices(draw):
    n = draw(st.integers(1, 3))
    part = st.integers(-20, 20).map(lambda k: k / 64)
    centre = [complex(draw(part), draw(part)) for _ in range(n)]
    theta = draw(st.floats(0, 2 * math.pi))
    unitary = np.diag([complex(math.cos(k * theta), math.sin(k * theta)) for k in range(1, n + 1)])
    return mobius_to_u1n(BallMobius(a=np.array(centre), unitary=unitary))


@settings(max_examples=60, derandomize=True, database=None)
@given(u1n_matrices())
def test_parse_u1n_inverts_dump(x):
    text = dump_u1n(x)
    parsed = parse_u1n(text)
    assert parsed.n == x.n and np.array_equal(parsed.matrix, x.matrix)
    assert dump_u1n(parsed) == text


IDENTITY_U1N = '{"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'
TWO_POINTS = '{"points": 2, "maps": [[0, 1]]}'

# name: (file text, command line that the file's path completes)
MALFORMED = {
    "points 0": ('{"points": 0, "maps": [[0]]}', ["signature"]),
    "points -1": ('{"points": -1, "maps": [[0]]}', ["signature"]),
    "points true": ('{"points": true, "maps": [[0]]}', ["signature"]),
    "points 2.0": ('{"points": 2.0, "maps": [[0, 1]]}', ["signature"]),
    "maps []": ('{"points": 2, "maps": []}', ["signature"]),
    "maps 5": ('{"points": 2, "maps": 5}', ["signature"]),
    "maps [5]": ('{"points": 2, "maps": [5]}', ["signature"]),
    "maps [[0]]": ('{"points": 2, "maps": [[0]]}', ["signature"]),
    "entry 1.0": ('{"points": 2, "maps": [[0, 1.0]]}', ["signature"]),
    "entry true": ('{"points": 2, "maps": [[0, true]]}', ["signature"]),
    "entry [1]": ('{"points": 2, "maps": [[0, [1]]]}', ["signature"]),
    "entry 2": ('{"points": 2, "maps": [[0, 2]]}', ["signature"]),
    "entry unknown name": ('{"points": ["p", "q"], "maps": [["p", "r"]]}', ["signature"]),
    "--depth 0": (TWO_POINTS, ["fock", "--depth", "0"]),
    "--degree -1": (IDENTITY_U1N, ["lift", "--degree", "-1", "--samples", "5", "--u1n"]),
    "--samples 0": (IDENTITY_U1N, ["lift", "--degree", "5", "--samples", "0", "--u1n"]),
}


@pytest.mark.parametrize("text, command", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_inputs_exit_2(tmp_path, text, command):
    path = tmp_path / "input.json"
    path.write_text(text)
    report, code = run_command([*command, str(path)])
    assert code == 2 and report["error"]


# ---- commands -------------------------------------------------------------------


def test_witnesses_list_their_fields_in_order(files):
    report, _ = run_command(["check", "--mode", "conjugate", files["mixed"], files["mixed"]])
    assert list(report["witness"].items()) == [("gamma", [0, 1]), ("recolor", None)]
    report, _ = run_command(
        ["check", "--mode", "conjugate", "--recolor", files["mixed"], files["mixed"]]
    )
    assert list(report["witness"].items()) == [("gamma", [0, 1]), ("recolor", [0, 1])]
    for mode in ("piecewise", "partition"):
        report, _ = run_command(["check", "--mode", mode, files["split_a"], files["split_b"]])
        assert list(report["witness"]) == ["gamma", "alpha"]
        assert all(isinstance(p, list) for p in report["witness"]["alpha"])
    report, _ = run_command(["iso-build", files["split_a"], files["split_b"]])
    assert list(report["witness"])[:2] == ["gamma", "alpha"]


def test_check_partition_negative(files):
    report, code = run_command(["check", "--mode", "partition", files["mixed"], files["const"]])
    assert code == 1
    assert report["decision"] is False
    assert "witness" not in report


def test_check_piecewise_affirmative(files):
    report, code = run_command(["check", "--mode", "piecewise", files["mixed"], files["const"]])
    assert code == 0
    assert report["decision"] is True
    assert report["witness"] == {"gamma": [0, 1], "alpha": [[0, 1], [1, 0]]}


def test_check_decides_large_relabelled_pairs_in_every_mode(tmp_path):
    # The searches keep an explicit stack: depth n must not reach the recursion limit.
    a, b = relabelled_pair(make_rng(2000), 2000, 2)
    paths = []
    for name, system in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(dump_system(system))
        paths.append(str(path))
    limit = sys.getrecursionlimit()
    for mode in ("conjugate", "piecewise", "partition"):
        report, code = run_command(["check", "--mode", mode, *paths])
        assert code == 0 and report["decision"] is True
        witness = read_witness(report)
        assert verify_witness(a, b, witness).passed, mode
        assert getattr(witness, "recolor", None) is None  # no recolouring without --recolor
    assert sys.getrecursionlimit() == limit


def test_check_conjugate_modes(files):
    _, code = run_command(["check", "--mode", "conjugate", files["mixed"], files["const"]])
    assert code == 1
    _, code = run_command(
        ["check", "--mode", "conjugate", "--recolor", files["mixed"], files["const"]]
    )
    assert code == 1
    report, code = run_command(["check", "--mode", "conjugate", files["mixed"], files["mixed"]])
    assert code == 0 and report["witness"]["gamma"] == [0, 1]


def test_recolor_is_rejected_outside_conjugate_mode(files):
    for mode in ("partition", "piecewise"):
        report, code = run_command(
            ["check", "--mode", mode, "--recolor", files["mixed"], files["const"]]
        )
        assert code == 2 and "--recolor" in report["error"], mode


def test_partition_witness_replays(files):
    report, code = run_command(
        ["check", "--mode", "partition", files["split_a"], files["split_b"]]
    )
    assert code == 0
    witness = read_witness(report)
    assert verify_witness(FOUR_POINT_SPLIT_A, FOUR_POINT_SPLIT_B, witness).passed


def test_read_witness_gives_back_the_deciders_witness(files, tmp_path):
    # the swapped-colour copy of the mixed pair is conjugate only after recolouring
    swapped = FiniteSystem(size=2, tables=TWO_POINT_MIXED.tables[::-1])
    (tmp_path / "swapped.json").write_text(dump_system(swapped))
    files, systems = {**files, "swapped": str(tmp_path / "swapped.json")}, {**_FIXTURES, "swapped": swapped}
    deciders = {
        ("check", "--mode", "conjugate"): decide_conjugate,
        ("check", "--mode", "conjugate", "--recolor"): lambda a, b: decide_conjugate(a, b, allow_recolor=True),
        ("check", "--mode=conjugate", "--recolor"): lambda a, b: decide_conjugate(a, b, allow_recolor=True),
        ("check", "--mode", "piecewise"): decide_piecewise,
        ("check", "--mode=piecewise"): decide_piecewise,  # argparse reads this line
        ("check", "--mode", "partition"): decide_partition,
        ("iso-build",): decide_partition,
    }
    found = 0
    for pair in (("mixed", "mixed"), ("mixed", "const"), ("mixed", "swapped"), ("split_a", "split_b"),
                 ("split_a", "split_a"), ("overlap", "split_b")):
        a, b = (systems[name] for name in pair)
        for command, decide in deciders.items():
            report, _ = run_command([*command, *(files[name] for name in pair)])
            witness = decide(a, b)
            assert read_witness(report) == witness, (command, pair)
            found += witness is not None
    assert found > 15
    report, _ = run_command(["signature", files["mixed"]])
    with pytest.raises(FormatError, match="^a signature report carries no decider witness$"):
        read_witness(report)


def test_tensor_vs_semicrossed_command(files, tmp_path):
    report, code = run_command(["tensor-vs-semicrossed", files["overlap"]])
    assert code == 1
    assert report["witness"]["overlap"]["point"] == 1
    assert report["witness"]["row_norm"] == math.sqrt(2)

    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text('{"points":3,"maps":[[1,1,1],[2,2,2]]}')
    report, code = run_command(["tensor-vs-semicrossed", str(disjoint)])
    assert code == 0
    assert report["witness"]["bumps"] == [[0, 1, 0], [0, 0, 1]]


def test_signature_commands(files):
    report, code = run_command(["signature", files["mixed"], "--point", "0"])
    assert code == 0 and report["witness"]["signature"] == [1, 1, 1, 1]
    report, code = run_command(["signature", files["const"], "--point", "0"])
    assert report["witness"]["signature"] == [2, 2]
    report, code = run_command(
        ["signature-compare", files["mixed"], files["const"], "--point", "0"]
    )
    assert code == 1 and report["decision"] is False


def test_signature_without_a_point_is_the_entry_signature(files):
    report, code = run_command(["signature", files["overlap"]])
    assert code == 0 and report["witness"]["signature"] == [1, 1, 3, 3]
    assert entry_signature(full_subsystem(FOUR_POINT_OVERLAP)) == (1, 1, 3, 3)


def test_iso_build_command(files):
    report, code = run_command(["iso-build", files["split_a"], files["split_b"]])
    assert code == 0
    assert report["witness"]["round_trip_on_generators"] is True
    # generator images serialize as (word, coefficient-vector) pairs
    forward = report["witness"]["forward_generators"]
    assert forward[0] == [
        [[0], [["1", "0"], ["1", "0"], ["0", "0"], ["0", "0"]]],
        [[1], [["0", "0"], ["0", "0"], ["1", "0"], ["1", "0"]]],
    ]
    report, code = run_command(["iso-build", files["mixed"], files["const"]])
    assert code == 1


def test_lift_command(files, tmp_path):
    x = mobius_to_u1n(BallMobius.involution([0.4, -0.2]))
    path = tmp_path / "x.json"
    path.write_text(dump_u1n(x))
    report, code = run_command(
        ["lift", "--u1n", str(path), "--degree", "25", "--samples", "20"]
    )
    assert code == 0
    assert report["decision"] is True
    assert list(report["witness"]) == ["deviation", "certified_tail", "samples"]
    assert report["witness"]["deviation"] <= report["witness"]["certified_tail"] + 1e-10

    mixed = BallMobius(a=np.array([0.5]), unitary=np.array([[complex(math.cos(0.7), math.sin(0.7))]]))
    path.write_text(dump_u1n(mobius_to_u1n(mixed)))
    report, code = run_command(["lift", "--u1n", str(path), "--degree", "25", "--samples", "30"])
    assert code == 0 and report["decision"] is True

    path.write_text('{"n":1,"matrix":[[[NaN,0],[0,0]],[[0,0],[1,0]]]}')
    report, code = run_command(["lift", "--u1n", str(path), "--degree", "25", "--samples", "30"])
    assert code == 2 and "finite" in report["error"]

    # finite entries whose X*JX overflows; any numpy warning would fail the test
    path.write_text('{"n":1,"matrix":[[[1e200,0],[0,0]],[[0,0],[1,0]]]}')
    report, code = run_command(["lift", "--u1n", str(path), "--degree", "25", "--samples", "30"])
    assert code == 2 and "X*JX = J" in report["error"]


def test_lift_rejects_work_past_limit_quickly(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(IDENTITY_U1N)
    for degree, samples in ((10**9, 30), (25, 10**9)):
        argv = ["lift", "--u1n", str(path), "--degree", str(degree), "--samples", str(samples)]
        report, code = run_command(argv)
        assert code == 2 and "work limit" in report["error"]
        assert report["timing_ms"] < 1000


def test_fock_command(files):
    report, code = run_command(["fock", files["mixed"], "--depth", "2"])
    assert code == 0
    assert report["witness"]["dimension"] == 14
    report, code = run_command(
        ["fock", files["overlap"], "--subset", "1,2,3", "--depth", "2"]
    )
    assert code == 0


def test_fock_reaches_depth_8(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_text('{"points":4,"maps":[[1,2,3,0],[3,0,1,2]]}')
    report, code = run_command(["fock", str(path), "--depth", "8"])
    assert code == 0
    assert report["witness"]["dimension"] == 2044
    assert list(report["witness"]["relations"].values()) == [True] * 4


def test_fock_stops_once_no_path_extends(tmp_path):
    # on {0, 1} the only edge is 0 -> 1, so no path is longer than 1
    path = tmp_path / "acyclic.json"
    path.write_text('{"points": 3, "maps": [[1, 2, 2]]}')
    report, code = run_command(["fock", str(path), "--subset", "0,1", "--depth", str(10**9)])
    assert code == 0
    assert report["witness"]["dimension"] == 3
    assert report["timing_ms"] < 1000


def test_fock_rejects_depth_past_basis_limit(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_text('{"points":4,"maps":[[1,2,3,0],[3,0,1,2]]}')
    report, code = run_command(["fock", str(path), "--depth", "20"])
    assert code == 2 and "smaller depth" in report["error"]
    assert report["timing_ms"] < 10000


def test_fock_depth_15_is_refused_before_any_path_is_built(tmp_path):
    # two bijections of 4 points have 4 * 2^L paths of length L, each
    # stored as 1 + L entries: depth 14 fits the limit and depth 15 does not
    assert sum((1 + n) * 4 * 2**n for n in range(15)) <= MAX_FOCK_SIZE
    assert sum((1 + n) * 4 * 2**n for n in range(16)) > MAX_FOCK_SIZE
    path = tmp_path / "rotation.json"
    path.write_text('{"points":4,"maps":[[1,2,3,0],[3,0,1,2]]}')

    def traced(depth):
        tracemalloc.start()
        try:
            out = run_command(["fock", str(path), "--depth", str(depth)])
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The refusal peaks at a few KB; the 8,188 paths of depth 10 alone take
    # about 2 MB, so a build of even part of depth 15 would pass the bound.
    (report, code), refused_peak = traced(15)
    assert code == 2 and "smaller depth" in report["error"]
    assert refused_peak < 64 * 1024
    (report, code), built_peak = traced(10)
    assert code == 0 and report["witness"]["dimension"] == 8188
    assert built_peak > 1024 * 1024


def test_fock_rejects_malformed_subset(files):
    for subset in ("", "1,", "1_0", "+1", " 1", "1" * 5000):
        report, code = run_command(["fock", files["overlap"], "--subset", subset, "--depth", "2"])
        assert code == 2 and "comma-separated" in report["error"], subset


@pytest.mark.parametrize(
    "text", ["1_0", "+3", " 3", "3 ", "\u0663", "-1", "0x3", "", pytest.param("1" * 5000, id="5000 digits")]
)
def test_integer_flags_take_ascii_digits_only(files, tmp_path, text):
    # the rule --subset items already follow; int() reads the first five, and
    # refuses the last one past its 4,300-digit limit
    u1n = tmp_path / "u1n.json"
    u1n.write_text(IDENTITY_U1N)
    system = files["overlap"]
    for argv in (
        ["fock", system, "--depth", text],
        ["signature", system, "--point", text],
        ["signature-compare", system, system, "--point", text],
        ["lift", "--u1n", str(u1n), "--degree", text, "--samples", "2"],
        ["lift", "--u1n", str(u1n), "--degree", "2", "--samples", text],
    ):
        report, code = run_command(argv)
        assert code == 2 and report["error"].endswith(f"invalid int value: {text!r}"), argv
    padded, code = run_command(["fock", system, "--depth", "0002"])
    assert code == 0 and padded["witness"] == run_command(["fock", system, "--depth", "2"])[0]["witness"]


def test_fock_rejects_repeated_subset_points(files):
    report, code = run_command(["fock", files["overlap"], "--subset", "1,1", "--depth", "2"])
    assert code == 2 and "twice" in report["error"]


def test_selftest_command():
    report, code = run_command(["selftest"])
    assert code == 0
    assert report["decision"] is True
    assert all(check["ok"] for check in report["witness"]["checks"])


def test_usage_and_validation_errors(files):
    _, code = run_command(["check", "--mode", "bogus", files["mixed"], files["const"]])
    assert code == 2
    _, code = run_command(["no-such-command"])
    assert code == 2
    report, code = run_command(["check", "--mode", "partition", files["mixed"], "/nope.json"])
    assert code == 2 and "error" in report
    small = files["mixed"]
    report, code = run_command(["check", "--mode", "partition", small, files["overlap"]])
    assert code == 2  # incompatible sizes
    report, code = run_command(["signature", files["mixed"], "--point", "9"])
    assert code == 2


def test_usage_errors_keep_the_top_level_message(files):
    """A command's own parser fails with the message the full parser gives."""
    parser, _ = cli._build_parser()
    a, b = files["mixed"], files["const"]
    for argv in (
        [],
        ["no-such-command"],
        ["check"],
        ["check", "--mode", "bogus", a, b],
        ["check", "--mode", "partition", a],
        ["check", "--mode", "partition", a, b, "extra"],
        ["fock", a],
        ["signature", a, "--point", "x"],
    ):
        report, code = run_command(argv)
        with pytest.raises(FormatError) as expected:
            parser.parse_args(argv)
        assert code == 2 and report["error"] == str(expected.value), argv


def test_argparse_reads_what_the_declared_table_does_not(files):
    """Abbreviations, ``=`` forms, a repeated flag and ``--`` keep argparse's reading."""
    a = files["mixed"]
    for argv, plain in (
        (["fock", a, "--dep", "3"], ["fock", a, "--depth", "3"]),
        (["fock", a, "--depth=3"], ["fock", a, "--depth", "3"]),
        (["check", "--mode", "conjugate", "--mode", "partition", a, a], ["check", "--mode", "partition", a, a]),
    ):
        assert cli._read_args(argv[0], argv[1:]) is None, argv
        report, code = run_command(argv)
        expected, expected_code = run_command(plain)
        assert code == expected_code == 0 and report["witness"] == expected["witness"], argv
    argv = ["fock", "--", a, "--depth", "3"]
    report, code = run_command(argv)
    with pytest.raises(FormatError) as expected:
        cli._build_parser()[1]["fock"].parse_args(argv[1:])
    assert code == 2 and report["error"] == str(expected.value) == "the following arguments are required: --depth"


def test_argv_items_must_be_strings(files):
    system = files["overlap"]
    for argv, message, echo in (
        (["fock", system, "--depth", 3], "argv[3] must be a string, not int", ["fock", system, "--depth", "3"]),
        (["fock", system.encode(), "--depth", "2"], "argv[1] must be a string, not bytes",
         ["fock", repr(system.encode()), "--depth", "2"]),
        ([None], "argv[0] must be a string, not NoneType", ["None"]),
    ):
        report, code = run_command(argv)
        assert code == 2 and report["error"] == message, argv
        assert json.loads(json.dumps(report))["command"] == echo


@st.composite
def command_lines(draw):
    """A command and a line of its declared arguments, in any order, with up to two edits.

    An edit drops up to two tokens and may put in their place one flag, an
    abbreviation, an ``=`` form, ``--``, ``-h``, ``-1`` or a plain value.
    """
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    declared = cli._COMMANDS[command][2]
    paths = ["x.json", "y.json", "1,2", ""]
    pieces = []
    for name, options in declared:
        if options.get("action") == "store_true":
            pieces += [[name]] * draw(st.integers(0, 1))
        elif name.startswith("-") and not options.get("required") and draw(st.booleans()):
            continue
        else:
            value = st.sampled_from(
                [*options["choices"], "bogus"] if "choices" in options
                else ["3", "0", "0002", "1_0"] if "type" in options
                else paths
            )
            pieces.append([name, draw(value)] if name.startswith("-") else [draw(value)])
    tokens = [token for piece in draw(st.permutations(pieces)) for token in piece]
    flags = [name for name, _ in declared if name.startswith("-")]
    words = st.sampled_from([
        *flags, *(flag[:k] for flag in flags for k in range(3, len(flag))),
        *(f"{flag}={value}" for flag in flags for value in ("3", "partition")),
        "--", "-h", "--help", "-1", "-", "--bogus", "3", "partition", *paths,
    ])
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at + draw(st.integers(0, 2))] = draw(st.lists(words, max_size=1))
    return command, tokens


@settings(max_examples=400, derandomize=True, database=None)
@given(command_lines())
def test_read_args_agrees_with_argparse(line):
    command, tokens = line
    read = cli._read_args(command, tokens)
    if read is not None:
        assert vars(read) == vars(cli._build_parser()[1][command].parse_args(tokens)), tokens


def test_read_args_reads_plain_lines_in_any_order():
    for _, _, declared in cli._COMMANDS.values():  # the only keywords _read_args reads
        assert all(set(options) <= {"type", "choices", "required", "action", "default", "help"}
                   for _, options in declared)
    for command, tokens in (
        ("check", ["--mode", "partition", "a.json", "b.json"]),
        ("check", ["a.json", "--recolor", "b.json", "--mode", "conjugate"]),
        ("signature", ["--point", "0002", "a.json"]),
        ("signature-compare", ["a.json", "b.json"]),
        ("lift", ["--samples", "5", "--u1n", "m.json", "--degree", "25"]),
        ("fock", ["a.json", "--subset", "", "--depth", "3"]),
        ("selftest", []),
    ):
        read = cli._read_args(command, tokens)
        assert read is not None and vars(read) == vars(cli._build_parser()[1][command].parse_args(tokens))


def _reference_parser():
    """The argparse construction the command table replaced, kept as the help-text reference."""
    digits = cli._digits
    parser = argparse.ArgumentParser(prog="dynalg", description="finite dynamical system toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="decide a conjugacy notion between two systems")
    check.add_argument("--mode", choices=["conjugate", "piecewise", "partition"], required=True)
    check.add_argument("--recolor", action="store_true",
                       help="allow one global colour permutation (conjugate mode only)")
    check.add_argument("system_a")
    check.add_argument("system_b")
    signature = sub.add_parser("signature", help="entry signature of a system")
    signature.add_argument("system")
    signature.add_argument("--point", type=digits, default=None,
                           help="local signature at this point instead of the full system")
    sig_cmp = sub.add_parser("signature-compare", help="compare entry signatures")
    sig_cmp.add_argument("system_a")
    sig_cmp.add_argument("system_b")
    sig_cmp.add_argument("--point", type=digits, default=None)
    tensor = sub.add_parser("tensor-vs-semicrossed", help="decide whether the two completions coincide")
    tensor.add_argument("system")
    iso = sub.add_parser("iso-build", help="build the isomorphism pair from a partition witness")
    iso.add_argument("system_a")
    iso.add_argument("system_b")
    lift = sub.add_parser("lift", help="lift a U(1,n) matrix and check its boundary map")
    lift.add_argument("--u1n", required=True, help="matrix file")
    lift.add_argument("--degree", type=digits, required=True)
    lift.add_argument("--samples", type=digits, required=True)
    fock = sub.add_parser("fock", help="truncated path-space family of a restriction")
    fock.add_argument("system")
    fock.add_argument("--subset", default=None, help="comma-separated point list")
    fock.add_argument("--depth", type=digits, required=True)
    sub.add_parser("selftest", help="run the built-in fixture checks")
    return parser, sub.choices


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_texts_are_unchanged(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)  # argparse wraps help to the terminal width
    parser, commands = cli._build_parser()
    reference, reference_commands = _reference_parser()
    assert parser.format_help() == reference.format_help()
    assert parser.format_usage() == reference.format_usage()
    assert list(commands) == list(reference_commands)
    for name, command in commands.items():
        assert command.format_help() == reference_commands[name].format_help(), name


def test_help_is_returned_not_printed(capsys):
    for argv in (["--help"], ["-h"], ["check", "--help"], ["fock", "x.json", "-h"]):
        report, code = run_command(argv)
        assert code == 0 and report["decision"] is None, argv
        assert report["usage"].startswith("usage: dynalg"), argv
        assert list(report) == ["command", "decision", "usage", "timing_ms", "version"]
    assert capsys.readouterr() == ("", "")
    assert main(["check", "--help"]) == 0
    out = capsys.readouterr().out
    assert out == cli._build_parser()[1]["check"].format_help()


def test_deeply_nested_files_exit_2(tmp_path):
    nest = "[" * 100_000 + "]" * 100_000
    system = tmp_path / "system.json"
    system.write_text('{"points": 2, "maps": %s}' % nest)
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"n": 1, "matrix": %s}' % nest)
    for argv in (["signature", str(system)], ["lift", "--degree", "2", "--samples", "2", "--u1n", str(matrix)]):
        report, code = run_command(argv)
        assert code == 2 and report["error"].startswith("not valid structured text"), argv


def test_system_files_are_read_as_strict_utf8(tmp_path):
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(b'{"points": 2,\r\n "maps": [[1, 0]]}\r\n')
    report, code = run_command(["signature", str(crlf)])
    assert code == 0 and report["witness"]["signature"]
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"points": ["\u00e9", "b"], "maps": [[1, 0]]}'.encode("latin-1"))
    report, code = run_command(["signature", str(latin)])
    assert code == 2 and "utf-8" in report["error"]


def test_names_in_a_file_without_names_are_unknown():
    with pytest.raises(FormatError, match=r"'maps'\[0\]\[1\]: unknown point name 'p'"):
        parse_system('{"points": 2, "maps": [[0, "p"]]}')
    # named before any table fault, as when names were resolved first
    with pytest.raises(FormatError, match=r"'maps'\[1\]\[0\]: unknown point name 'p'"):
        parse_system('{"points": 2, "maps": [[0, -1], ["p", 0]]}')


def test_reports_are_deterministic_up_to_timing(files):
    r1, _ = run_command(["check", "--mode", "partition", files["split_a"], files["split_b"]])
    r2, _ = run_command(["check", "--mode", "partition", files["split_a"], files["split_b"]])
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert json.dumps(r1) == json.dumps(r2)
    assert list(r1) == ["command", "decision", "witness", "version"]


def test_main_prints_report(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] is True
