"""Command-line interface.

    horpo check FILE       orient every rule; report per-rule verdicts
    horpo trace FILE -r K  print the proof trace for rule K
    horpo validate FILE    parse + ordering-parameter sanity checks only
    horpo search FILE      search sort order / precedence / statuses
    horpo properties FILE  randomized metatheory probes

Exit codes: 0 success, 1 a check failed (rule not oriented, property
finding, search exhausted), 2 invalid input or parameters, a file that
cannot be read (missing, a directory, or not UTF-8), input nested too
deeply for the recursive term walks, a proof trace that fails replay, or
search parameters that fail their check: one `error:` line on stderr, or
one `axiom violation:` line per violated axiom. A closed stdout ends the
run quietly, with the command's own exit code.
"""
from __future__ import annotations

import argparse
import os
import sys

from .problems import (
    Problem,
    ProblemError,
    check_problem,
    dump_json,
    orient,
    parameter_statements,
    parse_problem,
    report_to_jsonable,
    report_to_text,
    rule_entry,
    rule_line,
)
from .traces import TraceError, trace_to_jsonable, trace_to_text
from .typeorder import SortOrder, validate_axioms


class _Failure(Exception):
    """A command's own failure; its message is the `error:` line."""


# Each failure a command may raise, with its `error:` line; all exit 2.
_ERRORS = {
    OSError: "{}",  # the file is missing, a directory, or unreadable
    UnicodeDecodeError: "{}",  # the file is not UTF-8
    ProblemError: "{}",
    _Failure: "{}",
    TraceError: "trace fails replay: {}",
    RecursionError: "input nested too deeply",
}


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _axiom_lines(violations) -> list[str]:
    return ["axiom violation: %s" % v for v in violations]


def _axioms_violated(problem) -> bool:
    """Report each violated type-order axiom on stderr; True if any is."""
    violations = validate_axioms(problem.ctx.sort_order, problem.ctx.universe)
    for line in _axiom_lines(violations):
        print(line, file=sys.stderr)
    return bool(violations)


def _cmd_check(args):
    problem = _load(args.file)
    report = check_problem(problem)
    if report.axiom_violations:
        lines = _axiom_lines(report.axiom_violations) + ["status: invalid"]
        return 2, report_to_jsonable(problem, report, False), lines
    doc = report_to_jsonable(problem, report, args.traces)
    return (0 if report.ok else 1), doc, report_to_text(problem, report).splitlines()


def _cmd_trace(args):
    problem = _load(args.file)
    if not 1 <= args.rule <= len(problem.rules):
        raise _Failure("rule index out of range")
    if _axioms_violated(problem):
        return 2, None, None
    trace = orient(problem.ctx, problem.rules[args.rule - 1])
    if trace is None:
        entry = rule_entry(problem, args.rule, "not-oriented")
        return 1, entry, [rule_line(entry)]
    # lazy: the text unfolds every shared subtrace, so only text mode pays it
    return 0, trace_to_jsonable(trace), map(trace_to_text, [trace])


def _cmd_validate(args):
    problem = _load(args.file)
    violations = validate_axioms(problem.ctx.sort_order, problem.ctx.universe)
    status = "invalid" if violations else "valid"
    doc = {"violations": list(violations), "status": status}
    lines = _axiom_lines(violations) + ["status: " + status]
    return (2 if violations else 0), doc, lines


def _cmd_search(args):
    from .harness import search_params  # only search and properties load it

    problem = _load(args.file)
    found = search_params(problem)
    if found is None:
        lines = ["search: exhausted without orienting all rules"]
        return 1, {"status": "exhausted"}, lines
    (sort_strict, sort_equiv), (prec_strict, prec_equiv), statuses = found
    # the answer is printed only once every rule's trace under it replays
    sorts = sorted(s.name for s in problem.sig.sorts)
    checked = Problem(
        problem.sig, SortOrder(sorts, sort_strict, sort_equiv), prec_strict,
        prec_equiv, statuses, problem.vars, problem.rules,
    )
    if not check_problem(checked).ok:
        raise _Failure("search result fails its check")
    doc = {
        "sort_order": {"strict": sort_strict, "equiv": sort_equiv},
        "precedence": {"strict": prec_strict, "equiv": prec_equiv},
        "statuses": statuses,
        "status": "success",
    }
    return 0, doc, parameter_statements(*found)


def _cmd_properties(args):
    from .harness import exhaustive_check, run_properties

    problem = _load(args.file)
    if _axioms_violated(problem):
        return 2, None, None
    ctx, env, size = problem.ctx, problem.vars, args.exhaustive_size
    findings = run_properties(ctx, env, args.samples, args.seed)
    for ty in ctx.universe if size else ():
        findings += exhaustive_check(ctx, env, ty, size)
    status = "failure" if findings else "success"
    doc = {"findings": [str(f) for f in findings], "status": status}
    lines = ["finding: %s" % f for f in findings] + ["status: " + status]
    return (1 if findings else 0), doc, lines


def count(text: str) -> int:
    """A count option's value; below zero, argparse reports it and exits 2."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("%s is negative" % text)
    return n


# (name, help, command, its options besides FILE and --format)
_COMMANDS = (
    ("check", "orient every rule of a problem file", _cmd_check, [
        ("--traces", {"action": "store_true", "help": "include traces in JSON output"}),
    ]),
    ("trace", "print the proof trace for one rule", _cmd_trace, [
        ("-r --rule", {"type": int, "default": 1, "help": "1-based rule index"}),
    ]),
    ("validate", "check the ordering parameters only", _cmd_validate, []),
    ("search", "search parameters that orient all rules", _cmd_search, []),
    ("properties", "randomized metatheory probes", _cmd_properties, [
        ("--samples", {"type": count, "default": 50}),
        ("--seed", {"type": int, "default": 0}),
        ("--exhaustive-size", {"type": count, "default": 0, "help": "also enumerate "
                               "all terms up to this size and cross-check"}),
    ]),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="horpo",
        description="Orient higher-order rewrite rules with a recursive "
        "path ordering and emit replayable proof traces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, command, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("file")
        for flags, kwargs in options:
            p.add_argument(*flags.split(), **kwargs)
        p.set_defaults(func=command)

    args = parser.parse_args(argv)
    try:
        # each command returns (exit code, JSON object, text lines); a None
        # object leaves stdout empty, as the command reported on stderr
        code, doc, lines = args.func(args)
        if doc is None:
            out = ""
        elif args.format == "json":
            out = dump_json(doc)
        else:
            out = "".join(line + "\n" for line in lines)
    except tuple(_ERRORS) as exc:
        message = next(m for t, m in _ERRORS.items() if isinstance(exc, t))
        print("error: " + message.format(exc), file=sys.stderr)
        return 2
    try:
        print(out, end="", flush=True)
    except BrokenPipeError:
        # the reader is gone, and stdout is flushed again at exit: to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
