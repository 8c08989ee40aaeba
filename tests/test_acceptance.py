"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line via pytest -v. Tolerances are pinned
in-line; no criterion is allowed any failures unless the assertion says so.
"""
import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from conftest import load, make_toy_ctx
from horpo.engine import Engine
from horpo.harness import (
    beta_step,
    enumerate_terms,
    eta_step,
    gen_term,
    inject_beta_redex,
    inject_eta_redex,
    search_params,
)
from horpo.context import OrderingContext
from horpo.terms import Arrow, Data, Fun, Var, substitute, term_str, ty_str
from horpo.typeorder import ty_eq, validate_axioms

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "brouwer_rule3_trace.json"


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "horpo.cli", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


def labels(node):
    return [node["label"], [labels(c) for c in node["children"]]]


def test_criterion_1_brouwer_recursor_golden_trace():
    start = time.perf_counter()
    res = cli("check", "corpus/brouwer.horpo")
    elapsed = time.perf_counter() - start
    assert res.returncode == 0, res.stdout + res.stderr
    assert elapsed < 1.0  # tolerance: hard 1 s wall clock
    assert res.stdout.count("oriented") == 3

    res = cli("trace", "corpus/brouwer.horpo", "-r", "3", "--format", "json")
    got = json.loads(res.stdout)
    golden = json.loads(GOLDEN.read_text())
    assert got == golden  # structural + aux equality against the committed trace

    # shape spelled out: root 1c; two reflexive accessible-subterm subgoals
    # (W then F); one 4b stripping the abstraction into a 1b comparison whose
    # multiset witness is the strict composite on lim(F), with the freed
    # variable resolved by 4a
    assert got["label"] == "1c"
    kids = got["children"]
    assert [k["label"] for k in kids] == ["1a", "1a", "4b"]
    assert kids[0]["aux"]["w"] == "W"
    assert kids[1]["aux"]["w"] == "F"
    inner_1b = kids[2]["children"][0]
    assert inner_1b["label"] == "1b"
    inner_labels = [c["label"] for c in inner_1b["children"]]
    assert inner_labels[-1] == "mulExt"
    first = inner_1b["children"][0]
    assert first["label"] == "1c"  # rec(lim(F),...) > @(F,n) under X={n}
    assert [c["label"] for c in first["children"]] == ["1a", "4a"]
    mul = inner_1b["children"][-1]
    assert [c["label"] for c in mul["children"]] == ["accApply"]
    assert mul["children"][0]["lhs"] == "lim(F)"


def test_criterion_2_beta_eta_functionality():
    rng = random.Random(20260825)
    beta_total = beta_fail = eta_total = eta_fail = 0
    for problem in (load("brouwer.horpo"), load("nat_rec.horpo")):
        sig, env, ctx = problem.sig, problem.vars, problem.ctx
        tys = sorted({ty_str(t): t for t in env.values()}.items())
        for _ in range(250):
            ty = rng.choice(tys)[1]
            s = gen_term(sig, env, ty, rng)
            s = inject_beta_redex(sig, env, s, rng)
            t = next(beta_step(s), None)
            assert t is not None, term_str(s)
            beta_total += 1
            if Engine(ctx).gt_type((), s, t) is None:
                beta_fail += 1
            if eta_total < 200:
                e = inject_eta_redex(s, rng)
                r = next(eta_step(e), None) if e is not None else None
                if r is not None:
                    eta_total += 1
                    if Engine(ctx).gt_type((), e, r) is None:
                        eta_fail += 1
    assert beta_total >= 500 and beta_fail == 0  # tolerance: 0 failures
    assert eta_total >= 200 and eta_fail == 0


def test_criterion_3_exhaustive_irreflexivity_and_termination():
    ctx = make_toy_ctx()
    N = Data("N")
    env = {"x": N, "F": Arrow(N, N)}
    terms = enumerate_terms(ctx.sig, env, N, 4) + enumerate_terms(
        ctx.sig, env, Arrow(N, N), 4
    )
    assert len(terms) >= 50
    engine = Engine(ctx)
    reflexive = 0
    for s in terms:
        for t in terms:
            # ends, as test_every_engine_goal_decreases_the_measure shows
            engine.gt((), s, t)
        if engine.gt((), s, s) is not None:
            reflexive += 1
    assert reflexive == 0  # tolerance: 0 violations


def _rule_pairs():
    for name in ("brouwer.horpo", "nat_rec.horpo", "map.horpo"):
        p = load(name)
        for rule in p.rules:
            yield p, rule.lhs, rule.rhs


def test_criterion_4_stability():
    rng = random.Random(77)
    checked = violations = 0
    pairs = list(_rule_pairs())
    while checked < 200:
        p, s, t = pairs[checked % len(pairs)]
        gamma = {
            name: gen_term(p.sig, p.vars, ty, rng, size=3)
            for name, ty in p.vars.items()
            if rng.random() < 0.8
        }
        assert Engine(p.ctx).gt_type((), s, t) is not None
        s2, t2 = substitute(s, gamma), substitute(t, gamma)
        if Engine(p.ctx).gt_type((), s2, t2) is None:
            violations += 1
        checked += 1
    assert checked >= 200 and violations == 0  # tolerance: 0 violations


def test_criterion_5_monotonicity():
    rng = random.Random(78)
    checked = violations = 0
    pairs = list(_rule_pairs())
    while checked < 200:
        p, s, t = pairs[checked % len(pairs)]
        slots = [
            (f, i)
            for f in p.sig.funs
            for i, at in enumerate(f.arg_tys)
            if ty_eq(p.ctx.sort_order, at, s.ty)
        ]
        f, i = slots[rng.randrange(len(slots))]
        fillers = [
            gen_term(p.sig, p.vars, at, rng, size=3)
            for j, at in enumerate(f.arg_tys)
            if j != i
        ]
        def wrap(u):
            args = fillers[:i] + [u] + fillers[i:]
            return Fun(f.name, tuple(args), f.out_ty)
        assert Engine(p.ctx).gt_type((), s, t) is not None
        if Engine(p.ctx).gt_type((), wrap(s), wrap(t)) is None:
            violations += 1
        checked += 1
    assert checked >= 200 and violations == 0  # tolerance: 0 violations


def test_criterion_6_type_order_axioms():
    brouwer = load("brouwer.horpo")
    assert validate_axioms(brouwer.ctx.sort_order, brouwer.ctx.universe) == []
    res = cli("check", "corpus/cyclic_sorts.horpo")
    assert res.returncode == 2
    assert "well-foundedness" in res.stdout + res.stderr
    for name in ("brouwer.horpo", "nat_rec.horpo", "map.horpo", "empty.horpo",
                 "not_orientable.horpo", "brouwer_search.horpo"):
        p = load(name)
        assert p.ctx.min_types, name
        for a in p.ctx.universe:
            for b in p.ctx.universe:
                if ty_eq(p.ctx.sort_order, a, b):
                    assert isinstance(a, Arrow) == isinstance(b, Arrow), name


def test_criterion_7_quadratic_memo_growth():
    from horpo.terms import FunDecl, Signature, SortDecl
    from horpo.typeorder import SortOrder

    N = Data("N")
    sig = Signature((SortDecl("N"),), (FunDecl("c", (N,), N), FunDecl("z", (), N)))
    ctx = OrderingContext.build(sig, SortOrder(("N",)))

    def tower(k):
        t = Fun("z", (), N)
        for _ in range(k):
            t = Fun("c", (t,), N)
        return t

    counts = []
    for k in (8, 16, 32, 64):
        engine = Engine(ctx)
        assert engine.orient_rule(tower(k), tower(k // 2)) is not None
        counts.append(len(engine.memo))
    for small, big in zip(counts, counts[1:]):
        assert big / small <= 4.5  # tolerance pinned at 4.5x per doubling


def test_criterion_8_parameter_search():
    start = time.perf_counter()
    found = search_params(load("brouwer_search.horpo"))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0  # tolerance: 60 s wall clock
    assert found is not None
    (sort_strict, sort_equiv), (prec_strict, prec_equiv), statuses = found
    problem = load("brouwer_search.horpo")
    from horpo.typeorder import SortOrder

    order = SortOrder(sorted(s.name for s in problem.sig.sorts), sort_strict, sort_equiv)
    ctx = OrderingContext.build(
        problem.sig, order, prec_strict, prec_equiv, statuses,
        extra_types=tuple(problem.vars.values()),
    )
    for rule in problem.rules:
        assert Engine(ctx).orient_rule(rule.lhs, rule.rhs) is not None


def test_criterion_9_byte_determinism():
    commands = [
        ("check", "corpus/brouwer.horpo", "--format", "json", "--traces"),
        ("trace", "corpus/brouwer.horpo", "-r", "3", "--format", "json"),
        ("validate", "corpus/brouwer.horpo", "--format", "json"),
        ("search", "corpus/brouwer_search.horpo", "--format", "json"),
        ("properties", "corpus/nat_rec.horpo", "--samples", "40", "--seed", "3"),
        ("check", "corpus/map.horpo"),
    ]
    for cmd in commands:
        a = cli(*cmd)
        b = cli(*cmd)
        assert a.stdout == b.stdout and a.returncode == b.returncode, cmd
