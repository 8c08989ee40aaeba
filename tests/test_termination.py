"""What the ordering is for: an oriented system terminates.

`tests/data/loops` holds systems with an infinite reduction, written out in
each file's header: no choice of parameters may orient them, so `check`
and the exhaustive `search` both exit 1. `tests/data/positive` holds
recursors over strictly positive types: each is oriented under the
parameters it declares, and every rule's trace replays."""
import re

import pytest

from conftest import ROOT
from horpo import cli

DATA = ROOT / "tests" / "data"
LOOPS = sorted((DATA / "loops").glob("*.horpo"))
POSITIVE = sorted((DATA / "positive").glob("*.horpo"))


@pytest.mark.parametrize("path", LOOPS, ids=lambda p: p.stem)
@pytest.mark.parametrize("command", ["check", "search"])
def test_looping_system_is_never_oriented(path, command, capsys):
    assert cli.main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    last = out.splitlines()[-1]
    assert last in ("status: failure", "search: exhausted without orienting all rules")


@pytest.mark.parametrize("path", POSITIVE, ids=lambda p: p.stem)
def test_strictly_positive_recursor_is_oriented(path, capsys):
    assert cli.main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    rules = len(re.findall(r"^rule ", path.read_text(), re.M))
    assert out.count(" : oriented\n") == rules
    for k in range(1, rules + 1):
        # trace replays the rule's proof before it prints it
        assert cli.main(["trace", str(path), "-r", str(k)]) == 0
        assert capsys.readouterr().err == ""
