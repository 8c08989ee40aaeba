"""What one CLI call imports: `check`, `trace` and `validate` load neither
`dataclasses` (nor `inspect`, which only it pulls in) nor the harness;
`search` and `properties` load the harness, and still no `dataclasses`.
Only module names are compared, never timings. The probe lists the modules
the call added to those the interpreter loaded at start-up, which on some
installations already include `inspect`."""
import subprocess
import sys

import pytest

from conftest import ROOT

# runs one command, then lists on stderr every module it loaded
PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from horpo.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(*sorted(set(sys.modules) - before), sep='\\n', file=sys.stderr)\n"
    "sys.exit(code)\n"
)

COMMANDS = {
    "check": ["check"],
    "trace": ["trace", "-r", "1"],
    "validate": ["validate"],
    "search": ["search"],
    "properties": ["properties", "--samples", "2"],
}


def _modules(argv):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv, "corpus/brouwer.horpo"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


@pytest.mark.parametrize("command", ["check", "trace", "validate"])
def test_deciding_commands_load_no_harness(command):
    loaded = _modules(COMMANDS[command])
    assert "horpo.cli" in loaded
    assert {"dataclasses", "inspect", "horpo.harness"} & loaded == set()


@pytest.mark.parametrize("command", ["search", "properties"])
def test_harness_commands_load_no_dataclasses(command):
    loaded = _modules(COMMANDS[command])
    assert "horpo.harness" in loaded
    assert "dataclasses" not in loaded
