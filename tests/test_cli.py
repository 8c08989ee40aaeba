import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import CORPUS, ROOT, rebuild
from horpo import cli, harness
from horpo.engine import Engine
from horpo.traces import Trace


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
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(Engine, "gt", fail)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: input nested too deeply\n"


def _tower_file(tmp_path, lhs_depth, rhs_depth):
    nest = lambda k: "c(" * k + "z" + ")" * k
    path = tmp_path / "deep.horpo"
    path.write_text(
        "sort N ;\nfun z : [] -> N ;\nfun c : [N] -> N ;\n"
        "rule %s -> %s ;\n" % (nest(lhs_depth), nest(rhs_depth))
    )
    return path


# c^1200(z) is too deep for the parser; c^300(z) > c^150(z) parses but is too
# deep for the engine's recursion, which validate and properties never reach
DEEP_CASES = [
    (1200, 0, "check"),
    (1200, 0, "trace"),
    (1200, 0, "validate"),
    (1200, 0, "search"),
    (1200, 0, "properties"),
    (300, 150, "check"),
    (300, 150, "trace"),
    (300, 150, "search"),
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


INPUT_ERRORS = {
    "duplicate-sort": ("sort N ; sort N ;\n", "duplicate sort 'N'"),
    "sort-arity": (
        "sort Pair / 2 ;\nfun f : [Pair] -> Pair ;\n",
        "sort 'Pair' expects 2 argument(s), got 0",
    ),
    "apply-data": (
        "sort Ord ;\nfun 0 : [] -> Ord ;\nfun f : [Ord] -> Ord ;\n"
        "var X : Ord ;\nrule f(@(0, X)) -> X ;\n",
        "cannot apply term of type Ord",
    ),
    "apply-domain": (
        "sort Nat ;\nsort Ord ;\nfun 0 : [] -> Ord ;\n"
        "fun g : [Nat -> Ord] -> Ord ;\nvar F : Nat -> Ord ;\n"
        "rule g(F) -> @(F, 0) ;\n",
        "application domain mismatch: Nat vs Ord",
    ),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_error_is_one_line_and_exit_2(name, tmp_path, capsys):
    text, message = INPUT_ERRORS[name]
    path = tmp_path / "bad.horpo"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("lhs_depth,rhs_depth", [(240, 120), (220, 0)])
def test_deep_tower_is_decided(tmp_path, lhs_depth, rhs_depth):
    # one tower level costs the engine 3 frames on case 1a and 5 on case 1b
    # (`test_frames_per_tower_level_are_pinned`), and the replay 1 per trace
    # level; c^247(z) > c^123(z) is the deepest decided, so a sixth frame
    # per 1b level fails c^240(z) > c^120(z). c^300(z) > c^150(z) above is
    # left too deep
    path = _tower_file(tmp_path, lhs_depth, rhs_depth)
    proc = subprocess.run(
        [sys.executable, "-m", "horpo.cli", "check", str(path)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith(" : oriented\nstatus: success\n")


def test_nested_binders_validate(tmp_path):
    # f(x) -> L(300), where L(0) = x and L(k) = @(\y:N. L(k-1), x): each
    # node's facts are set by its constructor from its children's, with no
    # recursion of their own
    rhs = "x"
    for _ in range(300):
        rhs = "@(\\y:N. %s, x)" % rhs
    path = tmp_path / "binders.horpo"
    path.write_text(
        "sort N ;\nfun f : [N] -> N ;\nvar x : N ;\nrule f(x) -> %s ;\n" % rhs
    )
    proc = subprocess.run(
        [sys.executable, "-m", "horpo.cli", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("status: valid\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(CORPUS / "brouwer.horpo")],
        ["check", str(CORPUS / "brouwer.horpo"), "--format", "json", "--traces"],
        ["trace", str(CORPUS / "brouwer.horpo"), "-r", "3"],
        ["search", str(CORPUS / "brouwer_search.horpo")],
    ],
    ids=["check", "check-json-traces", "trace", "search"],
)
def test_trace_failing_replay_is_one_line_and_exit_2(argv, monkeypatch, capsys):
    # a 4a root claims a freed variable on the right under an empty bound
    # set, which no rule's trace may do
    orient = Engine.orient_rule

    def forged(self, lhs, rhs):
        trace = orient(self, lhs, rhs)
        return trace and rebuild(trace, label="4a", children=())

    monkeypatch.setattr(Engine, "orient_rule", forged)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: trace fails replay: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "command",
    [["trace", "--format", "json"], ["check", "--traces", "--format", "json"]],
    ids=["trace", "check-traces"],
)
def test_shared_trace_json_is_the_stdlib_text(tmp_path, command):
    # c^14(z) > c^7(z): 99 distinct trace nodes, 1,853 once unfolded
    path = _tower_file(tmp_path, 14, 7)
    proc = subprocess.run(
        [sys.executable, "-m", "horpo.cli", *command, str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout) > 1_900_000
    expected = json.dumps(json.loads(proc.stdout), sort_keys=True, indent=2) + "\n"
    assert proc.stdout == expected


def test_golden_trace_json_is_byte_identical():
    # the parsed JSON is compared in test_acceptance; here the bytes are
    argv = ["trace", str(CORPUS / "brouwer.horpo"), "-r", "3", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "horpo.cli", *argv], capture_output=True
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    golden = ROOT / "tests" / "data" / "brouwer_rule3_trace.json"
    assert proc.stdout == golden.read_bytes()


def test_golden_trace_text_is_byte_identical():
    argv = ["trace", str(CORPUS / "brouwer.horpo"), "-r", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "horpo.cli", *argv], capture_output=True
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    golden = ROOT / "tests" / "data" / "brouwer_rule3_trace.txt"
    assert proc.stdout == golden.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_search_answer_failing_its_check_is_one_line_and_exit_2(
    fmt, monkeypatch, capsys
):
    # no precedence and the declared sorts unordered: brouwer's rules stay
    # unoriented, so the answer must not be printed
    answer = ((), ()), ((), ()), {}
    monkeypatch.setattr(harness, "search_params", lambda problem: answer)
    assert cli.main(["search", str(CORPUS / "brouwer.horpo"), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: search result fails its check\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_properties_findings_exit_1(fmt, monkeypatch, capsys):
    # an ordering that orients every pair: irreflexivity fails, and no
    # trace it makes replays
    monkeypatch.setattr(Engine, "gt", lambda self, x, s, t: Trace("4a", s, t, x))
    argv = ["properties", str(CORPUS / "nat_rec.horpo"), "--samples", "30"]
    assert cli.main(argv + ["--seed", "3", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "json":
        report = json.loads(out)
        assert report["status"] == "failure"
        findings = report["findings"]
    else:
        *lines, last = out.splitlines()
        assert last == "status: failure"
        assert all(line.startswith("finding: ") for line in lines)
        findings = [line[len("finding: ") :] for line in lines]
    assert {f.split(":")[0] for f in findings} == {
        "irreflexivity",
        "beta-trace",
        "eta-trace",
        "trace-trace",
    }


@pytest.mark.parametrize(
    "option", [["--samples", "-3"], ["--exhaustive-size", "-2"], ["--samples", "abc"]]
)
def test_properties_rejects_a_bad_count_with_exit_2(option, capsys):
    argv = ["properties", str(CORPUS / "nat_rec.horpo"), *option]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument %s: " % option[0] in err


def test_properties_accepts_zero_samples(capsys):
    argv = ["properties", str(CORPUS / "nat_rec.horpo"), "--samples", "0"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "status: success\n"


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.horpo")), ids=lambda p: p.stem)
def test_json_mode_prints_json_on_every_exit_code(path, capsys):
    rules = len(re.findall(r"^rule ", path.read_text(), re.M))
    commands = [
        ["check"],
        ["check", "--traces"],
        ["validate"],
        ["search"],
        ["properties", "--samples", "10"],
    ]
    commands += [["trace", "-r", str(k)] for k in range(1, rules + 2)]
    for command in commands:
        argv = [command[0], str(path), *command[1:], "--format", "json"]
        cli.main(argv)
        out, _ = capsys.readouterr()
        if out:
            json.loads(out)


def test_json_failure_shapes(capsys):
    path = str(CORPUS / "not_orientable.horpo")
    assert cli.main(["trace", path, "-r", "1", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "index": 1,
        "lhs": "f(N)",
        "rhs": "f(s(N))",
        "verdict": "not-oriented",
    }
    assert cli.main(["search", path, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"status": "exhausted"}


def test_trace_reports_an_unoriented_rule_as_its_check_entry(capsys):
    path = str(CORPUS / "brouwer_search.horpo")
    assert cli.main(["check", path, "--format", "json"]) == 1
    entries = json.loads(capsys.readouterr().out)["rules"]
    assert cli.main(["check", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    unoriented = [e["index"] for e in entries if e["verdict"] == "not-oriented"]
    assert unoriented
    for k in unoriented:
        assert cli.main(["trace", path, "-r", str(k), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == entries[k - 1]
        assert cli.main(["trace", path, "-r", str(k)]) == 1
        assert capsys.readouterr().out == lines[k - 1] + "\n"


def test_closed_stdout_ends_the_run_quietly(tmp_path):
    # c^24(z) > c^12(z): about 10 MB of text, far more than a pipe holds
    path = _tower_file(tmp_path, 24, 12)
    proc = subprocess.Popen(
        [sys.executable, "-m", "horpo.cli", "trace", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(100).startswith(b"case ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


# Every subcommand on every problem file, in both formats: the sha256 of each
# call's (exit code, stdout, stderr). Regenerate the file after an intended
# change of output with `PYTHONPATH=src python3 tests/test_cli.py`.
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"
DIGEST_COMMANDS = (
    ["check"],
    ["check", "--traces"],
    ["trace", "-r", "1"],
    ["trace", "-r", "2"],
    ["validate"],
    ["search"],
    ["properties", "--samples", "20", "--seed", "3"],
    ["properties", "--exhaustive-size", "3"],
)


def _cli_digests() -> dict[str, str]:
    """Each call, as its argv joined by spaces with the file relative to the
    repository root (the working directory), and its digest."""
    files = sorted(
        p.relative_to(ROOT).as_posix()
        for d in ("corpus", "tests/data")
        for p in (ROOT / d).rglob("*.horpo")
    )
    digests = {}
    for path in files:
        for command in DIGEST_COMMANDS:
            for fmt in ("text", "json"):
                argv = [command[0], path, *command[1:], "--format", fmt]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                call = json.dumps([code, out.getvalue(), err.getvalue()])
                digests[" ".join(argv)] = hashlib.sha256(call.encode()).hexdigest()
    return digests


def test_cli_output_matches_its_digests(monkeypatch):
    assert DIGESTS.exists(), "missing; run PYTHONPATH=src python3 tests/test_cli.py"
    expected = json.loads(DIGESTS.read_text())
    monkeypatch.chdir(ROOT)
    actual = _cli_digests()
    differ = sorted(
        call for call in expected.keys() | actual.keys()
        if expected.get(call) != actual.get(call)
    )
    assert not differ, "output differs for %d call(s):\n%s" % (
        len(differ), "\n".join(differ)
    )


if __name__ == "__main__":
    os.chdir(ROOT)
    DIGESTS.write_text(json.dumps(_cli_digests(), indent=2) + "\n")
