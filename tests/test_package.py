"""What importing dynalg loads: each module is imported on first use.

The loading tests run in fresh interpreters, since this process has
imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynalg

SRC = Path(__file__).resolve().parents[1] / "src"

# The FOUR_POINT_SPLIT pair, a partition-matchable pair of systems.
SPLIT_A = '{"points": 4, "maps": [[1, 0, 2, 3], [0, 1, 3, 2]]}'
SPLIT_B = '{"points": 4, "maps": [[1, 0, 3, 2], [0, 1, 2, 3]]}'

HEAVY = ("numpy", "dynalg.freeprod", "dynalg.reps", "dynalg.semicrossed")


def loaded_after(code: str, *args: str) -> set[str]:
    """The modules among HEAVY and dynalg's own that a fresh interpreter has loaded after ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {m for m in json.loads(done.stdout.splitlines()[-1]) if m in HEAVY or m.startswith("dynalg")}


def test_importing_the_package_loads_no_module():
    assert loaded_after("import dynalg") == {"dynalg"}


RUN = "import sys\nfrom dynalg.cli import run_command\nprint(run_command(sys.argv[1:])[1])"


@pytest.mark.parametrize("command, allowed", [
    (["check", "--mode", "partition", "{a}", "{b}"], set()),
    (["check", "--mode", "conjugate", "--recolor", "{a}", "{b}"], set()),
    (["signature", "{a}"], set()),
    (["signature-compare", "{a}", "{b}"], set()),
    (["iso-build", "{a}", "{b}"], {"dynalg.semicrossed"}),
])
def test_commands_load_only_the_layers_they_call(tmp_path, command, allowed):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(SPLIT_A)
    b.write_text(SPLIT_B)
    argv = [arg.format(a=a, b=b) for arg in command]
    assert loaded_after(RUN, *argv) & set(HEAVY) == allowed


def test_path_space_commands_load_numpy_when_they_run(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(SPLIT_A)
    assert loaded_after("import dynalg.cli") & set(HEAVY) == set()
    assert loaded_after(RUN, "fock", str(a), "--depth", "2") >= set(HEAVY)


def test_submodules_load_on_attribute_access():
    assert loaded_after("import dynalg\ndynalg.quotient") == {
        "dynalg", "dynalg.dynsys", "dynalg.quotient", "dynalg.scalars", "dynalg.wordpoly",
    }
    assert loaded_after("import dynalg\ndynalg.decide_partition") == {
        "dynalg", "dynalg.conjugacy", "dynalg.dynsys", "dynalg.matching", "dynalg.quotient",
        "dynalg.scalars", "dynalg.wordpoly",
    }


def test_every_export_is_the_object_its_module_defines():
    assert len(dynalg.__all__) == len(set(dynalg.__all__)) == 72
    for name in dynalg.__all__:
        value = getattr(dynalg, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert value.__module__.startswith("dynalg."), name
    assert dynalg.reps is sys.modules["dynalg.reps"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dynalg.no_such_name  # noqa: B018


def test_star_import_and_dir_list_the_exports():
    namespace: dict = {}
    exec("from dynalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dynalg.__all__)
    listed = dir(dynalg)
    assert set(dynalg.__all__) <= set(listed)
    assert {"cli", "conjugacy", "fixtures", "freeprod", "reps", "__version__"} <= set(listed)
    assert listed == sorted(listed)
