import dataclasses
import json

import pytest

from horpo.engine import Engine
from horpo.problems import check_problem, verify_report_traces
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
