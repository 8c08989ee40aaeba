"""The four workloads: what each sets up, its items and their known answers.

An item is one unit of timed work with an expected answer. `decide` does
the work through horpo's public functions, wrapping every call in a span,
and returns the answer together with exact work counts. The runner compares
the answer with `expect` and the counts with those of the first batch.
"""
from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "data" / "brouwer_rule3_trace.json"

# An item that takes longer than this is stopped and counts as failed. The
# slowest item takes about 2 s on the seed code; the replay cliff (tower
# k=32, 85 s) would be caught.
ITEM_LIMIT_S = 30.0
# Property runs use fixed sampling seeds so that every run seed asks for the
# same work; the run seed renames the inputs. 7 runs of 29 samples per file
# (203 samples) instead of one of 200 give a batch of 25 similar items, so
# the latency percentiles sit on many samples of like cost.
PROPERTIES_SEEDS = tuple(range(7, 14))
PROPERTIES_SAMPLES = 29
EXHAUSTIVE_SIZE = 5


@dataclass
class Item:
    id: str
    expect: object
    decide: Callable  # (tracer, limit in seconds) -> (answer, counts)
    family: str = ""


@dataclass
class Horpo:
    """horpo's modules, freshly imported."""

    problems: object
    context: object
    typeorder: object
    accessibility: object
    engine: object
    traces: object
    harness: object


def import_horpo() -> Horpo:
    """Import horpo from the checkout's `src`, dropping any earlier import so
    that each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "horpo" or m.startswith("horpo.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("horpo")
    mod = lambda name: importlib.import_module("horpo." + name)
    return Horpo(
        mod("problems"), mod("context"), mod("typeorder"), mod("accessibility"),
        mod("engine"), mod("traces"), mod("harness"),
    )


def tree_nodes(trace) -> int:
    """Nodes of the trace with shared subtraces unfolded."""
    memo: dict[int, int] = {}

    def go(t) -> int:
        key = id(t)
        if key not in memo:
            memo[key] = 1 + sum(go(c) for c in t.children)
        return memo[key]

    return go(trace)


def dag_nodes(trace) -> int:
    """Distinct trace nodes, by identity."""
    seen: set[int] = set()
    stack = [trace]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.children)
    return len(seen)


def json_nodes(obj: dict) -> int:
    count, stack = 0, [obj]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node["children"])
    return count


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.setup_counts: dict[str, int] = {}

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def items(self) -> list[Item]:
        raise NotImplementedError

    # shared steps of the in-process set-ups

    def _parse(self, tracer, texts: dict[str, str]) -> dict:
        """Parse each text, rebuild its ordering context and count rules
        and universe types."""
        h = self.h
        out = {}
        rules = universe = 0
        for key, text in texts.items():
            with tracer.span("problems.parse_problem", key):
                problem = h.problems.parse_problem(text)
            with tracer.span("context.build", key):
                h.context.OrderingContext.build(
                    problem.sig,
                    problem.sort_order,
                    problem.prec_strict,
                    problem.prec_equiv,
                    problem.statuses,
                    extra_types=tuple(problem.vars.values()),
                )
            rules += len(problem.rules)
            universe += len(problem.ctx.universe)
            out[key] = problem
        self.setup_counts = {"rules": rules, "universe_types": universe}
        return out

    def _validate(self, tracer, ctx, item: str | None = None) -> list[str]:
        with tracer.span("typeorder.validate_axioms", item):
            return self.h.typeorder.validate_axioms(ctx.sort_order, ctx.universe)

    def _orient(self, tracer, ctx, rule, item: str | None = None):
        engine = self.h.engine.Engine(ctx)
        with tracer.span("engine.orient_rule", item):
            trace = engine.orient_rule(rule.lhs, rule.rhs)
        return trace, len(engine.memo)


def _corpus_renamed(rng: random.Random, name: str) -> str:
    return gen.rename((CORPUS / (name + ".horpo")).read_text(), rng)


# ---------------------------------------------------------------------------


class CliCorpus(Workload):
    name = "cli-corpus"
    why = (
        "every subcommand as a subprocess on the corpus files: startup, import "
        "and parse dominate, so engine changes should not move it"
    )
    SUBCOMMANDS = ("check", "trace", "validate", "search", "properties")
    # Expected exit codes, by file then subcommand (trace is for rule 1).
    EXPECT = {
        "bad_freevar": (2, 2, 2, 2, 2),
        "brouwer": (0, 0, 0, 0, 0),
        "brouwer_search": (1, 0, 0, 0, 0),
        "cyclic_sorts": (2, 2, 2, 0, 2),
        "empty": (0, 2, 0, 0, 0),
        "map": (0, 0, 0, 0, 0),
        "nat_rec": (0, 0, 0, 0, 0),
        "not_orientable": (1, 1, 0, 1, 0),
    }

    def _spawn(self, args: list[str], limit: float) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable] + args,
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=limit,
        )

    def _run_code(self, code: str) -> None:
        done = self._spawn(["-c", code], ITEM_LIMIT_S)
        if done.returncode != 0:
            raise RuntimeError("spawn failed: %s" % done.stderr.decode()[-300:])

    def setup(self, tracer) -> None:
        if tracer.enabled:
            # the bare interpreter, the floor under every call; traced runs
            # only, since set-up time is the spawn plus the import
            with tracer.span("cli.spawn_bare"):
                self._run_code("pass")
        with tracer.span("cli.spawn_import"):
            self._run_code("import horpo.cli")

    def items(self) -> list[Item]:
        calls = [(sub, f) for f in sorted(self.EXPECT) for sub in self.SUBCOMMANDS]
        formats = ["text", "json"] * (len(calls) // 2)
        random.Random(self.seed).shuffle(formats)
        self.first_stdout: dict[str, bytes] = {}
        golden = GOLDEN.read_bytes()
        items = []
        for (sub, f), fmt in zip(calls, formats):
            argv = [sub, "corpus/%s.horpo" % f, "--format", fmt]
            if sub == "trace":
                argv[2:2] = ["-r", "1"]
            code = self.EXPECT[f][self.SUBCOMMANDS.index(sub)]
            items.append(self._item("%s:%s:%s" % (sub, f, fmt), sub, argv, code, None))
        argv = ["trace", "corpus/brouwer.horpo", "-r", "3", "--format", "json"]
        items.append(self._item("trace:brouwer-r3:golden", "trace", argv, 0, golden))
        for f in ("brouwer", "map", "nat_rec"):
            argv = ["check", "corpus/%s.horpo" % f, "--traces", "--format", "json"]
            items.append(self._item("check:%s:traces" % f, "check", argv, 0, None))
        argv = ["properties", "corpus/nat_rec.horpo", "--exhaustive-size", "4"]
        items.append(self._item("properties:nat_rec:exhaustive", "properties", argv, 0, None))
        return items

    def _item(self, item_id, sub, argv, code, golden) -> Item:
        main = "import sys; from horpo.cli import main; sys.exit(main())"

        def decide(tracer, limit):
            with tracer.span("cli." + sub):
                done = self._spawn(["-c", main] + argv, limit)
            out = done.stdout
            if b"Traceback" in done.stderr:
                return "traceback", {}
            first = self.first_stdout.setdefault(item_id, out)
            if out != first:
                return "stdout differs from the first batch", {}
            if golden is not None and out != golden:
                return "stdout differs from the golden trace", {}
            if done.returncode == 0 and "json" in argv:
                json.loads(out)
            return done.returncode, {"calls": 1, "stdout_bytes": len(out)}

        return Item(item_id, code, decide, family=sub)


# ---------------------------------------------------------------------------


class DeepOrient(Workload):
    name = "deep-orient"
    why = (
        "fresh-engine orient_rule on seeded scaling families: engine, "
        "accessibility and terms do almost all the work"
    )

    def setup(self, tracer) -> None:
        self.h = import_horpo()
        self.cases = gen.cases(self.seed, gen.DEEP_SIZES)
        self.problems = self._parse(tracer, {c.id: c.text for c in self.cases})

    def items(self) -> list[Item]:
        return [
            Item(c.id, c.expect, self._decider(self.problems[c.id]), c.family)
            for c in self.cases
        ]

    def _decider(self, problem):
        acc = self.h.accessibility

        def decide(tracer, limit):
            # what check_problem does for one rule, plus the candidate
            # enumeration case 1a makes on each argument of the lhs
            ctx = problem.ctx
            if self._validate(tracer, ctx):
                return "invalid", {}
            (rule,) = problem.rules
            candidates = 0
            for arg in getattr(rule.lhs, "args", ()):
                with tracer.span("accessibility.acc_candidates"):
                    found = acc.acc_candidates(
                        ctx.acc, ctx.sort_order, ctx.min_types, arg, False
                    )
                candidates += len(found)
            trace, memo = self._orient(tracer, ctx, rule)
            oriented = trace is not None
            return gen.ORIENTED if oriented else gen.NOT_ORIENTED, {
                "candidates": candidates,
                "memo_entries": memo,
                "oriented": int(oriented),
                "not_oriented": int(not oriented),
            }

        return decide


# ---------------------------------------------------------------------------


class ReplayEmit(Workload):
    name = "replay-emit"
    why = (
        "check_trace and JSON emission of traces made in set-up: traces does "
        "all the timed work, the engine none"
    )
    CORPUS_FILES = ("brouwer", "map", "nat_rec")

    def setup(self, tracer) -> None:
        self.h = import_horpo()
        rng = random.Random(self.seed)
        texts = {f: _corpus_renamed(rng, f) for f in self.CORPUS_FILES}
        for c in gen.cases(self.seed, gen.REPLAY_SIZES):
            texts[c.id] = c.text
        problems = self._parse(tracer, texts)
        # one item per problem: every rule's trace, made here
        self.traces = {}
        memo_total = oriented = 0
        for key, problem in problems.items():
            if self._validate(tracer, problem.ctx, key):
                raise RuntimeError("%s: axiom violations" % key)
            self.traces[key] = (problem.ctx, [])
            for i, rule in enumerate(problem.rules, start=1):
                trace, memo = self._orient(tracer, problem.ctx, rule, key)
                if trace is None:
                    raise RuntimeError("%s rule %d: not oriented" % (key, i))
                memo_total += memo
                oriented += 1
                self.traces[key][1].append(trace)
        self.setup_counts.update(
            memo_entries=memo_total, oriented=oriented, not_oriented=0
        )

    def items(self) -> list[Item]:
        return [
            Item(key, "replayed", self._decider(ctx, traces), key.split("-")[0])
            for key, (ctx, traces) in self.traces.items()
        ]

    def _decider(self, ctx, traces):
        tr, dump_json = self.h.traces, self.h.problems.dump_json
        shape = [(dag_nodes(t), tree_nodes(t)) for t in traces]

        def decide(tracer, limit):
            json_bytes = 0
            for trace, (_, tree) in zip(traces, shape):
                try:
                    with tracer.span("traces.check_trace"):
                        tr.check_trace(ctx, trace, "gt", ())
                except tr.TraceError as exc:
                    return "rejected: %s" % exc, {}
                with tracer.span("traces.trace_to_jsonable"):
                    obj = tr.trace_to_jsonable(trace)
                with tracer.span("problems.dump_json"):
                    text = dump_json(obj)
                if json_nodes(obj) != tree:
                    return "emitted %d nodes, expected %d" % (json_nodes(obj), tree), {}
                json_bytes += len(text.encode())
            return "replayed", {
                "dag_nodes": sum(d for d, _ in shape),
                "tree_nodes": sum(t for _, t in shape),
                "json_bytes": json_bytes,
            }

        return decide


# ---------------------------------------------------------------------------


class SearchProps(Workload):
    name = "search-props"
    why = (
        "the harness: parameter search that finds or exhausts, random "
        "property probes and exhaustive small-term checks"
    )
    PROPERTY_FILES = ("nat_rec", "brouwer", "map")
    EXHAUSTIVE_FILES = ("brouwer", "nat_rec")

    def setup(self, tracer) -> None:
        self.h = import_horpo()
        rng = random.Random(self.seed)
        variants = gen.search_variants((CORPUS / "brouwer_search.horpo").read_text())
        texts = {"search-" + k: gen.rename(v, rng) for k, v in variants.items()}
        for f in self.PROPERTY_FILES:
            texts[f] = _corpus_renamed(rng, f)
        self.problems = self._parse(tracer, texts)
        self.exhaustive_terms = {
            key: sum(
                len(self.h.harness.enumerate_terms(p.sig, p.vars, ty, EXHAUSTIVE_SIZE))
                for ty in p.ctx.universe
            )
            for key, p in self.problems.items()
            if key in self.EXHAUSTIVE_FILES
        }

    def items(self) -> list[Item]:
        items = [
            Item("search-found", "found", self._search("search-found"), "search_found"),
            Item("search-exhausted", "exhausted", self._search("search-exhausted"), "search_exhausted"),
        ]
        items += [
            Item("exhaustive-" + f, "clean", self._exhaustive(f), "exhaustive")
            for f in self.EXHAUSTIVE_FILES
        ]
        items += [
            Item("properties-%s-%d" % (f, seed), "clean", self._properties(f, seed), "properties")
            for f in self.PROPERTY_FILES
            for seed in PROPERTIES_SEEDS
        ]
        return items

    def _search(self, key: str):
        h, problem = self.h, self.problems[key]

        def decide(tracer, limit):
            with tracer.span("harness.search_params"):
                found = h.harness.search_params(problem)
            if found is None:
                return "exhausted", {}
            # re-orient every rule under the returned parameters with a
            # fresh engine, and replay each trace
            (sort_strict, sort_equiv), (prec_strict, prec_equiv), statuses = found
            sorts = sorted(s.name for s in problem.sig.sorts)
            with tracer.span("context.build"):
                ctx = h.context.OrderingContext.build(
                    problem.sig,
                    h.typeorder.SortOrder(sorts, sort_strict, sort_equiv),
                    prec_strict,
                    prec_equiv,
                    statuses,
                    extra_types=tuple(problem.vars.values()),
                )
            if self._validate(tracer, ctx):
                return "found parameters that break the type-order axioms", {}
            memo_total = 0
            for i, rule in enumerate(problem.rules, start=1):
                trace, memo = self._orient(tracer, ctx, rule)
                if trace is None:
                    return "found parameters that leave rule %d unoriented" % i, {}
                try:
                    with tracer.span("traces.check_trace"):
                        h.traces.check_trace(ctx, trace, "gt", ())
                except h.traces.TraceError as exc:
                    return "rule %d trace rejected: %s" % (i, exc), {}
                memo_total += memo
            return "found", {
                "memo_entries": memo_total,
                "oriented": len(problem.rules),
                "search_pairs": sum(map(len, (sort_strict, sort_equiv, prec_strict, prec_equiv))),
            }

        return decide

    def _properties(self, key: str, seed: int):
        h, problem = self.h, self.problems[key]

        def decide(tracer, limit):
            if self._validate(tracer, problem.ctx):
                return "invalid", {}
            with tracer.span("harness.run_properties"):
                findings = h.harness.run_properties(
                    problem.ctx,
                    problem.vars,
                    samples=PROPERTIES_SAMPLES,
                    seed=seed,
                    config=h.harness.GenConfig(),
                )
            if findings:
                return "findings: %s" % "; ".join(map(str, findings[:3])), {}
            return "clean", {"properties_findings": 0}

        return decide

    def _exhaustive(self, key: str):
        h, problem = self.h, self.problems[key]

        def decide(tracer, limit):
            # every type of the universe, as `properties --exhaustive-size`
            findings = []
            for ty in problem.ctx.universe:
                with tracer.span("harness.exhaustive_check"):
                    findings += h.harness.exhaustive_check(
                        problem.ctx, problem.vars, ty, max_size=EXHAUSTIVE_SIZE
                    )
            if findings:
                return "findings: %s" % "; ".join(map(str, findings[:3])), {}
            return "clean", {"exhaustive_terms": self.exhaustive_terms[key]}

        return decide


WORKLOADS = {w.name: w for w in (CliCorpus, DeepOrient, ReplayEmit, SearchProps)}
