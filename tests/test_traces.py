import dataclasses
import json

import pytest

from horpo.engine import Engine
from horpo.problems import check_problem, parse_problem, verify_report_traces
from horpo.terms import Abs, Arrow, Data, Fun, Var
from horpo.traces import (
    Trace,
    TraceError,
    check_trace,
    trace_to_jsonable,
    trace_to_text,
)

Nat = Data("Nat")


def test_all_corpus_traces_replay(brouwer, nat_rec, map_problem):
    for p in (brouwer, nat_rec, map_problem):
        report = check_problem(p)
        verify_report_traces(p, report)  # raises on any bad node


def test_rule3_text_root_line(brouwer):
    tr = Engine(brouwer.ctx).orient_rule(brouwer.rules[2].lhs, brouwer.rules[2].rhs)
    first = trace_to_text(tr).splitlines()[0]
    assert first == (
        "case 1c: rec(lim(F),U,V,W) > @(@(W,F),\\n:Nat.rec(@(F,n),U,V,W))"
    )


def test_refl_serialization(brouwer):
    n = Var("n", Nat)
    tr = Engine(brouwer.ctx).ge((), n, n)
    assert trace_to_text(tr) == "refl: n >= n"
    obj = trace_to_jsonable(tr)
    assert obj["label"] == "refl"
    assert obj["lhs"] == "n" and obj["rhs"] == "n"
    assert obj["children"] == []


def test_serialization_is_stable(brouwer):
    tr = Engine(brouwer.ctx).orient_rule(brouwer.rules[2].lhs, brouwer.rules[2].rhs)
    a = json.dumps(trace_to_jsonable(tr), sort_keys=True)
    b = json.dumps(trace_to_jsonable(tr), sort_keys=True)
    assert a == b


def _rule3_trace(problem):
    return Engine(problem.ctx).orient_rule(problem.rules[2].lhs, problem.rules[2].rhs)


def test_validator_rejects_wrong_label(brouwer):
    tr = _rule3_trace(brouwer)
    bad = dataclasses.replace(tr, label="1b")
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, bad, "gt", ())


def test_validator_rejects_tampered_rhs(brouwer):
    tr = _rule3_trace(brouwer)
    bad = dataclasses.replace(tr, rhs=brouwer.rules[0].rhs)
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, bad, "gt", ())


def test_validator_rejects_dropped_child(brouwer):
    tr = _rule3_trace(brouwer)
    bad = dataclasses.replace(tr, children=tr.children[:-1])
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, bad, "gt", ())


def test_validator_rejects_wrong_bound_set(brouwer):
    tr = _rule3_trace(brouwer)
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, tr, "gt", (("q", Nat),))


def test_validator_rejects_refl_for_strict_goal(brouwer):
    n = Var("n", Nat)
    refl = Trace("refl", n, n, ())
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, refl, "gt", ())
    # but it is fine for a non-strict goal
    check_trace(brouwer.ctx, refl, "ge", ())


def test_validator_rejects_broken_multiset_cover(brouwer):
    tr = _rule3_trace(brouwer)

    def strip_cover(node):
        if node.label == "mulExt":
            return dataclasses.replace(
                node,
                children=(),
                aux=tuple(
                    (k, () if k == "cover" else v) for k, v in node.aux
                ),
            )
        return dataclasses.replace(
            node, children=tuple(strip_cover(c) for c in node.children)
        )

    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, strip_cover(tr), "gt", ())


def test_validator_never_calls_engine(brouwer, monkeypatch):
    # replaying a trace must not fall back to search
    import horpo.traces as traces_mod

    tr = _rule3_trace(brouwer)
    monkeypatch.setattr(
        Engine, "_gt", lambda *a, **k: pytest.fail("validator invoked the engine")
    )
    check_trace(brouwer.ctx, tr, "gt", ())
    del traces_mod


def _forged_goals(nat_rec):
    """Two traces whose fresh name `N` is free in the goal, so that a
    right-hand `N` is treated as a freed variable or as the bound one."""
    N = Var("N", Nat)
    succ = lambda t: Fun("succ", (t,), Nat)
    zero = Fun("z", (), Nat)
    lam = lambda body: Abs("x", Nat, body, Arrow(Nat, body.ty))
    # 4b: succ(z) > \x.N, with the child succ(z) > N closed by 4a under X={N}
    s4, t4 = succ(zero), lam(N)
    forged4b = Trace(
        "4b", s4, t4, (), (Trace("4a", s4, N, (("N", Nat),)),), (("fresh", "N"),)
    )
    # 3b: \x.succ(N) > \x.x, with the engine's own trace for succ(N) > N
    s3, t3 = lam(succ(N)), lam(Var("x", Nat))
    child = Engine(nat_rec.ctx).gt((), succ(N), N)
    assert child is not None
    forged3b = Trace("3b", s3, t3, (), (child,), (("fresh", "N"),))
    return [forged4b, forged3b]


@pytest.mark.parametrize("which", [0, 1], ids=["4b", "3b"])
def test_validator_rejects_fresh_name_free_in_goal(nat_rec, which):
    forged = _forged_goals(nat_rec)[which]
    assert Engine(nat_rec.ctx).gt((), forged.lhs, forged.rhs) is None
    with pytest.raises(TraceError, match="occurs free"):
        check_trace(nat_rec.ctx, forged, "gt", ())


LEX_PROBLEM = (
    "sort N ;\nfun z : [] -> N ;\nfun s : [N] -> N ;\nfun f : [N, N] -> N ;\n"
    "prec f > s ;\nstatus f lex ;\nvar x : N ;\nvar y : N ;\n"
    "rule f(x, s(y)) -> f(x, y) ;\nrule f(s(x), s(y)) -> f(x, y) ;\n"
)


def _with_aux(node, **aux):
    return dataclasses.replace(
        node, aux=tuple((k, aux.get(k, v)) for k, v in node.aux)
    )


def test_lex_extension_traces_replay():
    p = parse_problem(LEX_PROBLEM)
    for rule, pos in zip(p.rules, (1, 0)):
        tr = Engine(p.ctx).orient_rule(rule.lhs, rule.rhs)
        assert tr.label == "1b"
        assert tr.children[-1].label == "lexExt"
        assert tr.children[-1].get("pos") == pos
        check_trace(p.ctx, tr, "gt", ())


def test_validator_rejects_lex_prefix_not_alpha_equal():
    # f(s(x),s(y)) > f(x,y) decreases at position 0; claiming position 1
    # asserts that s(x) and x are equal
    p = parse_problem(LEX_PROBLEM)
    tr = Engine(p.ctx).orient_rule(p.rules[1].lhs, p.rules[1].rhs)
    forged = dataclasses.replace(
        tr, children=tr.children[:-1] + (_with_aux(tr.children[-1], pos=1),)
    )
    with pytest.raises(TraceError, match="prefix not alpha-equal"):
        check_trace(p.ctx, forged, "gt", ())


def _case_3a_trace(nat_rec):
    """\\x:Nat.succ(z) > z under X = {x}, proved by case 3a."""
    zero = Fun("z", (), Nat)
    s = Abs("x", Nat, Fun("succ", (zero,), Nat), Arrow(Nat, Nat))
    x = (("x", Nat),)
    tr = Engine(nat_rec.ctx).gt(x, s, zero)
    assert tr.label == "3a" and tr.get("fresh") != "x"
    return tr, x


def test_case_3a_trace_replays(nat_rec):
    tr, x = _case_3a_trace(nat_rec)
    check_trace(nat_rec.ctx, tr, "gt", x)


def test_validator_rejects_3a_fresh_name_in_bound_set(nat_rec):
    tr, x = _case_3a_trace(nat_rec)
    with pytest.raises(TraceError, match="collides with the bound set"):
        check_trace(nat_rec.ctx, _with_aux(tr, fresh="x"), "gt", x)


def _tower(k):
    """c^k(z) > c^(k/2)(z): the engine's memo shares most of the trace."""
    nest = lambda n: "c(" * n + "z" + ")" * n
    p = parse_problem(
        "sort N ;\nfun z : [] -> N ;\nfun c : [N] -> N ;\n"
        "rule %s -> %s ;\n" % (nest(k), nest(k // 2))
    )
    rule = p.rules[0]
    return p, Engine(p.ctx).orient_rule(rule.lhs, rule.rhs)


def _paths(trace):
    """The distinct nodes by identity, parents before children, and the
    number of unfolded occurrences of each."""
    order, seen = [], set()

    def visit(t):
        if id(t) not in seen:
            seen.add(id(t))
            for c in t.children:
                visit(c)
            order.append(t)

    visit(trace)
    order.reverse()
    paths = {id(trace): 1}
    for t in order:
        for c in t.children:
            paths[id(c)] = paths.get(id(c), 0) + paths[id(t)]
    return paths, {id(t): t for t in order}


def test_replay_visits_each_distinct_goal_once(monkeypatch):
    import horpo.traces as traces_mod

    p, tr = _tower(14)
    paths, nodes = _paths(tr)
    assert sum(paths.values()) > 15 * len(nodes)  # 1,853 unfolded, 99 distinct
    # the distinct goals reached, and each run of a node's local check: every
    # check but refl's (a leaf) counts the node's children once
    goals, visits = set(), []
    replay, expect = traces_mod._check_goal, traces_mod._expect_children

    def reaching(ctx, trace, kind, x, done):
        if trace.label != "refl":
            goals.add((id(trace), kind, x))
        replay(ctx, trace, kind, x, done)

    def visiting(trace, n):
        if trace.label not in ("mulExt", "lexExt"):  # part of the parent's check
            visits.append(id(trace))
        expect(trace, n)

    monkeypatch.setattr(traces_mod, "_check_goal", reaching)
    monkeypatch.setattr(traces_mod, "_expect_children", visiting)
    check_trace(p.ctx, tr, "gt", ())
    assert len(visits) == len(goals) <= 2 * len(nodes)
    assert set(visits) == {
        i for i, t in nodes.items() if t.label not in ("refl", "mulExt", "lexExt")
    }


def _replace_node(trace, target, forged):
    """The trace with node `target` replaced by `forged` at every position,
    keeping every other node shared as it was."""
    made = {}

    def go(t):
        if t is target:
            return forged
        if id(t) not in made:
            made[id(t)] = dataclasses.replace(
                t, children=tuple(go(c) for c in t.children)
            )
        return made[id(t)]

    return go(trace)


def test_forged_node_inside_a_shared_subtrace_raises():
    p, tr = _tower(14)
    paths, nodes = _paths(tr)
    # the strict node reached along the most paths, below the root
    target = max(
        (t for t in nodes.values() if t.label == "1b" and t is not tr),
        key=lambda t: paths[id(t)],
    )
    assert paths[id(target)] > 1
    forged = _replace_node(tr, target, dataclasses.replace(target, label="1c"))
    check_trace(p.ctx, _replace_node(tr, target, target), "gt", ())
    with pytest.raises(TraceError, match="strictly smaller head symbol"):
        check_trace(p.ctx, forged, "gt", ())


REUSE_PROBLEM = (
    "sort N ;\nfun a : [] -> N ;\nfun f : [N] -> N ;\n"
    "fun g : [N, N -> N] -> N ;\nprec f > g ;\n"
)


def test_node_reused_under_another_bound_set_is_replayed_again():
    # f(a) > g(a, \z.a) by 1c: the children are f(a) > a under X = {} and,
    # by 4b, f(a) > a under X = {z}
    p = parse_problem(REUSE_PROBLEM)
    N = Data("N")
    a = Fun("a", (), N)
    s = Fun("f", (a,), N)
    lam = Abs("z", N, a, Arrow(N, N))
    t = Fun("g", (a, lam), N)
    xz = (("z", N),)
    engine = Engine(p.ctx)
    outer, inner = engine.gt((), s, a), engine.gt(xz, s, a)

    def root(first, second):
        fourb = Trace("4b", s, lam, (), (second,), (("fresh", "z"),))
        return Trace("1c", s, t, (), (first, fourb))

    check_trace(p.ctx, root(outer, inner), "gt", ())
    # the same node object under X = {} and X = {z}: valid only under the
    # first, so the second occurrence must still be replayed
    with pytest.raises(TraceError, match="differs from goal X"):
        check_trace(p.ctx, root(outer, outer), "gt", ())
    with pytest.raises(TraceError, match="differs from goal X"):
        check_trace(p.ctx, root(inner, inner), "gt", ())


def test_jsonable_shares_dicts_and_unfolds_to_the_tree():
    _, tr = _tower(14)
    paths, nodes = _paths(tr)
    obj = trace_to_jsonable(tr)
    count, dicts, stack = 0, set(), [obj]
    while stack:
        node = stack.pop()
        count += 1
        dicts.add(id(node))
        stack.extend(node["children"])
    assert count == sum(paths.values())
    assert len(dicts) == len(nodes)
