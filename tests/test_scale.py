import json

import scale
from scale import Row, cli, says


def test_the_runner_reports_each_way_a_row_fails(capsys):
    rows = (
        Row("passes", cli("--help"), checks=(says("usage:"),)),
        Row("wrong exit", cli("check")),
        Row("failed post-check", cli("--help"), checks=(says("no such text"),)),
        Row("timeout", ("-c", "import time; time.sleep(60)"), timeout=0.5),
    )
    assert scale.run(rows) == 1
    captured = capsys.readouterr()
    lines = {line["name"]: line for line in map(json.loads, captured.out.splitlines())}
    assert list(lines) == [row.name for row in rows]
    assert lines["passes"]["ok"] is True and lines["passes"]["exit"] == [0]
    assert lines["wrong exit"]["ok"] is False and lines["wrong exit"]["exit"] == [2]
    assert lines["wrong exit"]["error"].startswith("exit 2, expected 0")
    assert lines["failed post-check"]["ok"] is False
    assert lines["failed post-check"]["error"] == "the output does not say 'no such text'"
    assert lines["timeout"]["ok"] is False and lines["timeout"]["exit"] == [None]
    assert lines["timeout"]["error"] == "killed at the 0.5 s timeout"
    assert captured.err == "3 of 4 rows failed: wrong exit; failed post-check; timeout\n"


def test_row_names_are_distinct():
    names = [row.name for row in scale.ROWS]
    assert len(set(names)) == len(names)
