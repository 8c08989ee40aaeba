#!/usr/bin/env python3
"""horpo's benchmark: time to a correct verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; horpo is imported from `src/` (or spawned
with it on PYTHONPATH), stdlib only. One process, one thread, closed loop:
the workload's batch of items is decided again and again for S seconds,
each item checked against its known answer. `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics from spans recorded
around every call into horpo. Human-readable lines come first; the last
line of stdout is one JSON object. Details, spans included, go to
`.perfbench_out/` in the checkout. Exit code 0 when every item was right,
1 when any failed, 2 when horpo cannot be found.

See perfbench/NOTES.md for why each workload and metric is there.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans as spanlib
from workloads import ITEM_LIMIT_S, ROOT, SRC, WORKLOADS, CliCorpus

OUT = ROOT / ".perfbench_out"
# Times are reported in reference seconds: the raw time scaled by
# REFERENCE_S / (the time the fixed reference loop took around it). A
# shared 2-core box drifts between fast and slow states (pure-Python work
# varied by 25-70% between two-second windows on one), and the reference
# loop slows down with it, so the ratio holds steady where the raw time
# does not. Raw times are kept in the details file.
REFERENCE_S = 0.0015
SETUP_REPEATS = 7
# At least two batches (stdout and work counts are compared between them)
# and at least this many items, so that p90 has ten samples beyond it.
MIN_BATCHES = 2
MIN_SAMPLES = 100
# Every run stops starting items after this long, so that it exits within
# 180 s even when each item hits its limit.
RUN_BUDGET_S = 150.0
LAYERS = (
    "bench", "cli", "problems", "context", "typeorder",
    "accessibility", "engine", "traces", "harness",
)


class OverLimit(Exception):
    pass


def _reference_tree(depth: int) -> dict:
    children = [_reference_tree(depth - 1), _reference_tree(depth - 2)] if depth > 1 else []
    return {"label": "n%d" % depth, "lhs": "f(" * depth + "z" + ")" * depth, "children": children}


REFERENCE_TREE = _reference_tree(9)


def reference_s() -> float:
    """Seconds taken by a fixed slice of interpreter work of the kind the
    program does: an indented JSON dump of a fixed tree, which runs the
    pure-Python encoder (recursion, generators, small strings). It is the
    fastest of three tries, so that a cold cache or an interrupt does not
    count. Of the loops tried, this one tracked orienting, replaying and
    property runs best."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        json.dumps(REFERENCE_TREE, indent=2, sort_keys=True)
        best = min(best, time.perf_counter() - start)
    return best


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise OverLimit in the running code once `seconds` have passed."""

    def expire(signum, frame):
        raise OverLimit("over the %.1f s limit" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Run:
    """One run of one workload: set-up, the batch loop, and its records."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, flip=()):
        self.started = time.perf_counter()
        self.budget_end = self.started + RUN_BUDGET_S
        self.workload = WORKLOADS[workload](seed)
        self.seconds = seconds
        self.trace = trace
        self.flip = set(flip)
        self.tracer = spanlib.Tracer() if trace else spanlib.NullTracer()
        self.null = spanlib.NullTracer()
        self.setup_s: list[float] = []
        self.walls = {"plain": [], "traced": []}
        self.latencies: list[float] = []
        # raw (unscaled) times, and the scale of each set-up and item
        self.raw = {"setup_s": [], "walls": [], "latencies": [], "references": []}
        self.scales: dict[tuple[str, str | None], float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.items = []

    def set_up(self) -> None:
        for i in range(SETUP_REPEATS):
            self.tracer.round = "setup-%d" % i
            gc.collect()
            before = reference_s()
            start = time.perf_counter()
            with time_limit(ITEM_LIMIT_S), self.tracer.span("bench.setup", "setup"):
                self.workload.setup(self.tracer)
            raw = time.perf_counter() - start
            scale = 2 * REFERENCE_S / (before + reference_s())
            self.scales[(self.tracer.round, None)] = scale
            self.raw["setup_s"].append(raw)
            self.setup_s.append(raw * scale)
        self.items = self.workload.items()
        unknown = self.flip - {item.id for item in self.items}
        if unknown:
            raise SystemExit("error: no item named %s" % ", ".join(sorted(unknown)))

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        min_batches = max(MIN_BATCHES, -(-MIN_SAMPLES // len(self.items)))
        batch = 0
        while True:
            # traced runs alternate plain and traced batches, so that the
            # tracing overhead is measured in the same process
            traced = self.trace and batch % 2 == 1
            tracer = self.tracer if traced else self.null
            self.tracer.round = "batch-%d" % batch
            # every batch starts from an empty collector, so the program's
            # own collections fall at the same points in every batch
            gc.collect()
            start = time.perf_counter()
            refs = [reference_s()]
            raws = []
            for item in self.items:
                raws.append(self._decide(item, tracer))
                refs.append(reference_s())
            wall = 0.0
            for i, (item, raw) in enumerate(zip(self.items, raws)):
                # the reference times of up to six gaps around the item
                # (refs[i] is just before it, refs[i + 1] just after)
                scale = REFERENCE_S / statistics.mean(refs[max(0, i - 2) : i + 4])
                self.scales[(self.tracer.round, item.id)] = scale
                self.latencies.append(raw * scale)
                wall += raw * scale
            self.walls["traced" if traced else "plain"].append(wall)
            self.raw["latencies"].extend(raws)
            self.raw["walls"].append(sum(raws))
            self.raw["references"].append(refs)
            batch += 1
            now = time.perf_counter()
            elapsed = now - start
            if now + elapsed > self.budget_end:
                break
            if batch >= min_batches and now + elapsed > deadline:
                break

    def _decide(self, item, tracer) -> float:
        """Decide one item and check it; returns its raw seconds."""
        self.attempted += 1
        limit = min(ITEM_LIMIT_S, self.budget_end - time.perf_counter())
        expect = ("flipped", item.expect) if item.id in self.flip else item.expect
        start = time.perf_counter()
        error = None
        try:
            if limit <= 0:
                raise OverLimit("run budget spent")
            # subprocess items stop their child at `limit`; the alarm is
            # the backstop for in-process work
            with time_limit(limit + 1.0), tracer.span("bench.item", item.id):
                answer, counts = item.decide(tracer, limit)
            if answer != expect:
                error = "expected %r, got %r" % (expect, answer)
            elif self.counts.setdefault(item.id, counts) != counts:
                error = "work counts %r differ from the first batch's %r" % (
                    counts, self.counts[item.id],
                )
        except (OverLimit, subprocess.TimeoutExpired) as exc:
            error = "over the time limit: %s" % exc
        except Exception as exc:  # any crash is a wrong answer, not a stop
            error = "%s: %s" % (type(exc).__name__, exc)
        if error is not None:
            self.failed += 1
            self.errors.append("%s: %s" % (item.id, error))
        return time.perf_counter() - start

    # -- metrics ---------------------------------------------------------

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.workload.name == "cli-corpus" else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        lat = self.latencies
        p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "wall_s": (statistics.median(self.walls["plain"]), "s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_p90_ms": (1e3 * p90, "ms"),
            "peak_rss_mb": (self.peak_rss_mb(), "MB"),
            "verified_share": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        spans = self.tracer.spans
        family = {item.id: item.family for item in self.items}
        traced_rounds = sorted({s.round for s in spans if s.round.startswith("batch-")})
        setup_rounds = sorted({s.round for s in spans if s.round.startswith("setup-")})

        def scaled(s) -> float:
            scale = self.scales.get((s.round, s.item)) or self.scales[(s.round, None)]
            return (s.end - s.start) * scale

        def seconds(names, fam=None) -> float:
            """Median over rounds of the time in spans named `names`, over
            traced batches when they have such spans, else over set-ups."""
            chosen = [s for s in spans if s.name in names and (fam is None or family.get(s.item) == fam)]
            rounds = traced_rounds if any(s.round in traced_rounds for s in chosen) else setup_rounds
            if not chosen or not rounds:
                return 0.0
            per_round = {r: 0.0 for r in rounds}
            for s in chosen:
                if s.round in per_round:
                    per_round[s.round] += scaled(s)
            return statistics.median(per_round.values())

        totals = dict(self.workload.setup_counts)
        by_family: dict[str, dict[str, int]] = {}
        for item_id, counts in self.counts.items():
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
                fam = by_family.setdefault(family[item_id], {})
                fam[key] = fam.get(key, 0) + value

        def count(key, fam=None) -> int:
            return (by_family.get(fam, {}) if fam else totals).get(key, 0)

        def rate(n, secs) -> float:
            return n / secs if secs > 0 else 0.0

        bare = seconds({"cli.spawn_bare"})
        out = {
            "cli.interpreter_s": (bare, "s"),
            "cli.import_s": (seconds({"cli.spawn_import"}) - bare if bare else 0.0, "s"),
            "cli.calls": (count("calls"), "count"),
            "cli.stdout_bytes": (count("stdout_bytes"), "bytes"),
        }
        for sub in CliCorpus.SUBCOMMANDS:
            out["cli.%s_s" % sub] = (seconds({"cli." + sub}), "s")
        orient_s = seconds({"engine.orient_rule"})
        replay_s = seconds({"traces.check_trace"})
        out.update({
            "problems.parse_s": (seconds({"problems.parse_problem"}), "s"),
            "problems.rules": (count("rules"), "count"),
            "context.build_s": (seconds({"context.build"}), "s"),
            "context.universe_types": (count("universe_types"), "count"),
            "typeorder.validate_axioms_s": (seconds({"typeorder.validate_axioms"}), "s"),
            "accessibility.candidates_s": (seconds({"accessibility.acc_candidates"}), "s"),
            "accessibility.candidates": (count("candidates"), "count"),
            "engine.orient_s": (orient_s, "s"),
            "engine.memo_entries": (count("memo_entries"), "count"),
            "engine.goals_per_s": (rate(count("memo_entries"), orient_s), "1/s"),
            "engine.oriented": (count("oriented"), "count"),
            "engine.not_oriented": (count("not_oriented"), "count"),
        })
        for fam in gen.DEEP_SIZES:
            out["engine.orient_s." + fam] = (seconds({"engine.orient_rule"}, fam), "s")
            out["engine.memo_entries." + fam] = (count("memo_entries", fam), "count")
        out.update({
            "traces.replay_s": (replay_s, "s"),
            "traces.emit_s": (seconds({"traces.trace_to_jsonable", "problems.dump_json"}), "s"),
            "traces.dag_nodes": (count("dag_nodes"), "count"),
            "traces.tree_nodes": (count("tree_nodes"), "count"),
            "traces.json_bytes": (count("json_bytes"), "bytes"),
            "traces.replay_nodes_per_s": (rate(count("tree_nodes"), replay_s), "1/s"),
            "harness.search_s.found": (seconds({"harness.search_params"}, "search_found"), "s"),
            "harness.search_s.exhausted": (seconds({"harness.search_params"}, "search_exhausted"), "s"),
            "harness.search_pairs": (count("search_pairs"), "count"),
            "harness.properties_s": (seconds({"harness.run_properties"}), "s"),
            "harness.properties_findings": (count("properties_findings"), "count"),
            "harness.exhaustive_s": (seconds({"harness.exhaustive_check"}), "s"),
            "harness.exhaustive_terms": (count("exhaustive_terms"), "count"),
        })
        selfs = spanlib.self_times(spans, scaled)
        for layer in LAYERS:
            values = [selfs.get(r, {}).get(layer, 0.0) for r in traced_rounds]
            out["self_s." + layer] = (statistics.median(values) if values else 0.0, "s")
        traced = statistics.median(self.walls["traced"]) if self.walls["traced"] else 0.0
        out["tracing.overhead_s"] = (traced - statistics.median(self.walls["plain"]), "s")
        per_batch = [sum(1 for s in spans if s.round == r) for r in traced_rounds]
        out["tracing.spans"] = (statistics.median(per_batch) if per_batch else 0, "count")
        return out

    def write_details(self, metrics) -> Path:
        OUT.mkdir(exist_ok=True)
        path = OUT / ("%s-seed%d-trace%d.json" % (self.workload.name, self.workload.seed, self.trace))
        details = {
            "workload": self.workload.name,
            "why": self.workload.why,
            "seed": self.workload.seed,
            "seconds": self.seconds,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "setup_s": self.setup_s,
            "batch_walls_s": self.walls,
            "latencies_s": self.latencies,
            "raw": self.raw,
            "reference_s": REFERENCE_S,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "setup_counts": self.workload.setup_counts,
            "counts": self.counts,
            "spans": spanlib.to_jsonable(self.tracer.spans),
        }
        path.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
        return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--flip", action="append", default=[], metavar="ITEM",
        help="expect the opposite answer for this item (self-test of the checks)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "horpo" / "__init__.py").is_file():
        print("error: horpo sources not found under %s" % SRC, file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.flip)
    try:
        run.set_up()
    except Exception as exc:
        print("error: set-up failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    run.measure()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    path = run.write_details(metrics)

    print("workload %s (seed %d): %s" % (run.workload.name, args.seed, run.workload.why))
    print(
        "items attempted %d, failed %d, failed_share %.4f; batches %d plain + %d traced; "
        "latency samples %d; set-ups %d"
        % (
            run.attempted, run.failed, run.failed / run.attempted,
            len(run.walls["plain"]), len(run.walls["traced"]),
            len(run.latencies), len(run.setup_s),
        )
    )
    for error in run.errors[:10]:
        print("FAILED %s" % error)
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    print("details: %s" % path.relative_to(ROOT))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
