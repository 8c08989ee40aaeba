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
