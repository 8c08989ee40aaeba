"""Seeded fuzz of the command line: random token streams and mutated corpus
files through every subcommand, in process, and every input file of the
repository besides. Whatever the input, the exit code is a documented one,
nothing but SystemExit escapes, and stdout is the same on a rerun."""
import contextlib
import io
import json
import random
import re

import pytest

from conftest import CORPUS, ROOT
from horpo import cli

VOCAB = [
    "sort", "order", "fun", "prec", "status", "var", "rule", "mul", "lex",
    "N", "Nat", "List", "f", "g", "s", "x", "X", "F", "0", "2", "@", "->",
    "(", ")", "[", "]", ",", ";", ":", ".", "<", ">", "=", "\\", "/", "λ",
    "#", "$",
]
CORPUS_FILES = sorted(CORPUS.glob("*.horpo"))


def _tokens(text):
    text = re.sub(r"#[^\n]*", "", text)
    return re.findall(r"->|[\w']+|\S", text)


def _render(tokens):
    # one statement a line, so that a forged `#` comments out only its own
    return " ".join(tokens).replace(" ; ", " ;\n")


def _random_stream(rng):
    return _render([rng.choice(VOCAB) for _ in range(rng.randint(0, 40))])


def _mutant(rng):
    """A corpus file with one or two edits: a token deleted, doubled,
    replaced or swapped, an identifier renamed to another of the file, or a
    whole statement dropped, repeated or moved."""
    tokens = _tokens(rng.choice(CORPUS_FILES).read_text())
    keywords = {"sort", "order", "fun", "prec", "status", "var", "rule"}
    is_name = lambda t: re.fullmatch(r"[\w']+", t) and t not in keywords
    names = sorted({t for t in tokens if is_name(t)})
    for _ in range(rng.randint(1, 2)):
        if not tokens:
            break
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        op = rng.randrange(8)
        if op == 0:
            del tokens[i]
        elif op == 1:
            tokens.insert(i, tokens[i])
        elif op == 2:
            tokens[i] = rng.choice(VOCAB)
        elif op == 3:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op in (4, 5):
            at = [k for k, t in enumerate(tokens) if is_name(t)]
            if at:
                tokens[rng.choice(at)] = rng.choice(names)
        else:
            starts = [0] + [k + 1 for k, t in enumerate(tokens[:-1]) if t == ";"]
            statements = [tokens[a:b] for a, b in zip(starts, starts[1:] + [None])]
            statement = statements.pop(rng.randrange(len(statements)))
            if op == 7:  # moved, or repeated in place of a dropped one
                statements.insert(rng.randrange(len(statements) + 1), statement)
            statements.insert(rng.randrange(len(statements) + 1), statement)
            tokens = [t for st in statements for t in st]
    return _render(tokens)


def _inputs(seed, n):
    rng = random.Random(seed)
    return [_random_stream(rng) if k % 3 == 0 else _mutant(rng) for k in range(n)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


COMMANDS = [
    ["check"],
    ["trace", "-r", "2"],
    ["validate"],
    ["search"],
    ["properties", "--samples", "3"],
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzzed_input_exits_documented_codes(tmp_path, seed):
    path = tmp_path / "fuzz.horpo"
    for k, text in enumerate(_inputs(seed, 50)):
        path.write_text(text, encoding="utf-8")
        fmt = ["--format", "json" if k % 2 else "text"]
        for command in COMMANDS:
            argv = [command[0], str(path), *fmt, *command[1:]]
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in err, (argv, text)
            if code == 2 and not out:
                assert err.startswith("error: ") or err.startswith("axiom violation: ")
            assert _run(argv)[1] == out, (argv, text)


INPUTS = sorted(
    p for d in ("corpus", "tests/data") for p in (ROOT / d).rglob("*") if p.is_file()
)
GATE_COMMANDS = [
    ["check"],
    ["check", "--traces"],
    ["trace", "-r", "1"],
    ["validate"],
    ["search"],
    ["properties", "--samples", "5"],
]


def test_every_input_exits_a_documented_code(tmp_path):
    bad_utf8 = tmp_path / "bad_utf8.horpo"
    bad_utf8.write_bytes(b"\xff\xfe")
    unreadable = [tmp_path / "missing.horpo", tmp_path, bad_utf8]
    for path in INPUTS + unreadable:
        for command in GATE_COMMANDS:
            for fmt in ("text", "json"):
                argv = [command[0], str(path), *command[1:], "--format", fmt]
                code, out, err = _run(argv)
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err, argv
                if fmt == "json" and out:
                    json.loads(out)
                assert _run(argv) == (code, out, err), argv
                if path in unreadable:
                    assert (code, out) == (2, ""), argv
                    assert err.startswith("error: ") and err.count("\n") == 1, argv
