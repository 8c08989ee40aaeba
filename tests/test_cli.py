import subprocess
import sys

import pytest

from conftest import CORPUS
from horpo import cli
from horpo.engine import Engine, EngineError


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(CORPUS / "brouwer.horpo")],
        ["search", str(CORPUS / "brouwer_search.horpo")],
        ["properties", str(CORPUS / "nat_rec.horpo")],
        ["trace", str(CORPUS / "brouwer.horpo"), "-r", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_engine_error_is_one_line_and_exit_2(argv, monkeypatch, capsys):
    def fail(self, x, s, t):
        raise EngineError("recursion guard exceeded")

    monkeypatch.setattr(Engine, "_gt_cases", fail)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: recursion guard exceeded\n"


def _tower_file(tmp_path, lhs_depth, rhs_depth):
    nest = lambda k: "c(" * k + "z" + ")" * k
    path = tmp_path / "deep.horpo"
    path.write_text(
        "sort N ;\nfun z : [] -> N ;\nfun c : [N] -> N ;\n"
        "rule %s -> %s ;\n" % (nest(lhs_depth), nest(rhs_depth))
    )
    return path


# c^1200(z) is too deep for the parser; c^160(z) > c^80(z) parses but is too
# deep for the engine's recursion, which validate and properties never reach
DEEP_CASES = [
    (1200, 0, "check"),
    (1200, 0, "trace"),
    (1200, 0, "validate"),
    (1200, 0, "search"),
    (1200, 0, "properties"),
    (160, 80, "check"),
    (160, 80, "trace"),
    (160, 80, "search"),
]


@pytest.mark.parametrize(
    "lhs_depth,rhs_depth,command",
    DEEP_CASES,
    ids=["%d-%s" % (c[0], c[2]) for c in DEEP_CASES],
)
def test_deep_input_is_one_line_and_exit_2(tmp_path, lhs_depth, rhs_depth, command):
    path = _tower_file(tmp_path, lhs_depth, rhs_depth)
    proc = subprocess.run(
        [sys.executable, "-m", "horpo.cli", command, str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: input nested too deeply\n"
