"""Command-line interface.

    horpo check FILE       orient every rule; report per-rule verdicts
    horpo trace FILE -r K  print the proof trace for rule K
    horpo validate FILE    parse + ordering-parameter sanity checks only
    horpo search FILE      search sort order / precedence / statuses
    horpo properties FILE  randomized metatheory probes

Exit codes: 0 success, 1 a check failed (rule not oriented, property
finding, search exhausted), 2 invalid input or parameters, input nested
too deeply for the recursive term walks, an internal engine error, a
proof trace that fails replay, or search parameters that fail their check.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .engine import EngineError
from .harness import GenConfig, exhaustive_check, run_properties, search_params
from .problems import (
    ProblemError,
    check_problem,
    dump_json,
    orient,
    parameter_statements,
    parse_problem,
    report_to_jsonable,
    report_to_text,
)
from .terms import term_str
from .traces import TraceError, trace_to_jsonable, trace_to_text
from .typeorder import SortOrder, validate_axioms


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse_problem(text)
    except ProblemError as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)


def _axioms_violated(problem) -> bool:
    """Report each violated type-order axiom on stderr; True if any is."""
    violations = validate_axioms(problem.ctx.sort_order, problem.ctx.universe)
    for v in violations:
        print("axiom violation: %s" % v, file=sys.stderr)
    return bool(violations)


def _cmd_check(args) -> int:
    problem = _load(args.file)
    report = check_problem(problem)
    if report.axiom_violations:
        if args.format == "json":
            print(dump_json(report_to_jsonable(problem, report, False)), end="")
        else:
            for v in report.axiom_violations:
                print("axiom violation: %s" % v)
            print("status: invalid")
        return 2
    if args.format == "json":
        print(dump_json(report_to_jsonable(problem, report, args.traces)), end="")
    else:
        print(report_to_text(problem, report), end="")
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    problem = _load(args.file)
    if not 1 <= args.rule <= len(problem.rules):
        print("error: rule index out of range", file=sys.stderr)
        return 2
    if _axioms_violated(problem):
        return 2
    rule = problem.rules[args.rule - 1]
    trace = orient(problem.ctx, rule)
    if trace is None:
        lhs, rhs, verdict = term_str(rule.lhs), term_str(rule.rhs), "not-oriented"
        if args.format == "json":
            entry = {"index": args.rule, "lhs": lhs, "rhs": rhs, "verdict": verdict}
            print(dump_json(entry), end="")
        else:
            print("rule %d: %s -> %s : %s" % (args.rule, lhs, rhs, verdict))
        return 1
    if args.format == "json":
        print(dump_json(trace_to_jsonable(trace)), end="")
    else:
        print(trace_to_text(trace))
    return 0


def _cmd_validate(args) -> int:
    problem = _load(args.file)
    violations = validate_axioms(problem.ctx.sort_order, problem.ctx.universe)
    if args.format == "json":
        print(
            dump_json(
                {
                    "violations": list(violations),
                    "status": "valid" if not violations else "invalid",
                }
            ),
            end="",
        )
    else:
        for v in violations:
            print("axiom violation: %s" % v)
        print("status: %s" % ("valid" if not violations else "invalid"))
    return 0 if not violations else 2


def _cmd_search(args) -> int:
    problem = _load(args.file)
    found = search_params(problem)
    if found is None:
        if args.format == "json":
            print(dump_json({"status": "exhausted"}), end="")
        else:
            print("search: exhausted without orienting all rules")
        return 1
    (sort_strict, sort_equiv), (prec_strict, prec_equiv), statuses = found
    # the answer is printed only once every rule's trace under it replays
    sorts = sorted(s.name for s in problem.sig.sorts)
    checked = dataclasses.replace(
        problem,
        sort_order=SortOrder(sorts, sort_strict, sort_equiv),
        prec_strict=prec_strict,
        prec_equiv=prec_equiv,
        statuses=statuses,
    )
    if not check_problem(checked).ok:
        print("error: search result fails its check", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            dump_json(
                {
                    "sort_order": {
                        "strict": [list(p) for p in sort_strict],
                        "equiv": [list(p) for p in sort_equiv],
                    },
                    "precedence": {
                        "strict": [list(p) for p in prec_strict],
                        "equiv": [list(p) for p in prec_equiv],
                    },
                    "statuses": statuses,
                    "status": "success",
                }
            ),
            end="",
        )
    else:
        for line in parameter_statements(*found):
            print(line)
    return 0


def _cmd_properties(args) -> int:
    problem = _load(args.file)
    if _axioms_violated(problem):
        return 2
    findings = run_properties(
        problem.ctx,
        problem.vars,
        samples=args.samples,
        seed=args.seed,
        config=GenConfig(),
    )
    if args.exhaustive_size:
        for ty in problem.ctx.universe:
            findings += exhaustive_check(
                problem.ctx, problem.vars, ty, max_size=args.exhaustive_size
            )
    if args.format == "json":
        print(
            dump_json(
                {
                    "findings": [str(f) for f in findings],
                    "status": "success" if not findings else "failure",
                }
            ),
            end="",
        )
    else:
        for f in findings:
            print("finding: %s" % f)
        print("status: %s" % ("success" if not findings else "failure"))
    return 0 if not findings else 1


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

    p = sub.add_parser(
        "check", help="orient every rule of a problem file", parents=[common]
    )
    p.add_argument("file")
    p.add_argument(
        "--traces", action="store_true", help="include traces in JSON output"
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "trace", help="print the proof trace for one rule", parents=[common]
    )
    p.add_argument("file")
    p.add_argument("-r", "--rule", type=int, default=1, help="1-based rule index")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "validate", help="check the ordering parameters only", parents=[common]
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "search", help="search parameters that orient all rules", parents=[common]
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "properties", help="randomized metatheory probes", parents=[common]
    )
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--exhaustive-size",
        type=int,
        default=0,
        help="also enumerate all terms up to this size and cross-check",
    )
    p.set_defaults(func=_cmd_properties)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TraceError as exc:
        print("error: trace fails replay: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
