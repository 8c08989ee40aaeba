from horpo.accessibility import (
    acc_candidates,
    acc_ge,
    acc_gt,
    acc_indices,
    accessible,
)
from horpo.harness import enumerate_terms
from horpo.terms import Abs, App, Arrow, Data, Fun, Var, subterms

Nat = Data("Nat")
Ord = Data("Ord")
A = Data("A")


def test_acc_indices_brouwer(brouwer):
    sig, order = brouwer.sig, brouwer.ctx.sort_order
    assert acc_indices(sig.fun("lim"), order) == {1}
    assert acc_indices(sig.fun("s"), order) == {1}
    assert acc_indices(sig.fun("0"), order) == frozenset()
    # rec: only the A-typed argument survives; Ord and the functionals
    # mention data types not below A
    assert acc_indices(sig.fun("rec"), order) == {2}


def test_app_has_no_accessible_positions(brouwer):
    assert brouwer.ctx.acc["@"] == frozenset()


def test_accessible(brouwer):
    acc = brouwer.ctx.acc
    F = Var("F", Arrow(Nat, Ord))
    limF = Fun("lim", (F,), Ord)
    assert accessible(acc, F, limF)
    # nested through accessible positions
    N = Var("N", Ord)
    assert accessible(acc, N, Fun("s", (Fun("s", (N,), Ord),), Ord))
    # @ is opaque
    n = Var("n", Nat)
    assert not accessible(acc, n, App(F, n, Ord))
    # U is accessible in rec(0,U,V,W) at the A position
    U = Var("U", A)
    rec0 = Fun("rec", (Fun("0", (), Ord), U, Var("V"), Var("W")), A)
    assert accessible(acc, U, rec0)


def test_acc_gt_basics(brouwer):
    ctx = brouwer.ctx
    F = Var("F", Arrow(Nat, Ord))
    limF = Fun("lim", (F,), Ord)
    assert acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, limF, F)
    # strict: nothing is acc-above itself
    assert not acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, limF, limF)
    assert acc_ge(ctx.acc, ctx.sort_order, ctx.min_types, limF, limF)


def test_acc_gt_minimal_type_subterm(brouwer):
    ctx = brouwer.ctx
    F = Var("F", Arrow(Nat, Ord))
    n = Var("n", Nat)
    appFn = App(F, n, Ord)
    # Nat is minimal, n is a strict subterm whose free vars are free in the whole
    assert acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, appFn, n)


def test_acc_gt_respects_bound_variables(brouwer):
    ctx = brouwer.ctx
    # a variable bound inside s is not free in s, so it is unreachable even
    # though its type is minimal
    x = Var("x", Nat)
    body = Abs("x", Nat, x, Arrow(Nat, Nat))
    s = Fun("lim", (Abs("x", Nat, Fun("0", (), Ord), Arrow(Nat, Ord)),), Ord)
    assert not acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, s, x)
    del body


def test_acc_gt_implies_strict_subterm(brouwer):
    ctx = brouwer.ctx
    rhs = brouwer.rules[2].rhs
    for s in subterms(brouwer.rules[2].lhs):
        for v in subterms(rhs):
            if acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, s, v):
                from horpo.terms import alpha_eq, strict_subterms

                assert any(alpha_eq(v, u) for u in strict_subterms(s))


def test_acc_candidates_order(brouwer):
    ctx = brouwer.ctx
    F = Var("F", Arrow(Nat, Ord))
    limF = Fun("lim", (F,), Ord)
    cands = acc_candidates(ctx.acc, ctx.sort_order, ctx.min_types, limF, strict=False)
    assert cands[0] == limF  # reflexive candidate first
    assert F in cands
    strict = acc_candidates(ctx.acc, ctx.sort_order, ctx.min_types, limF, strict=True)
    assert limF not in strict


def test_acc_gt_agrees_with_strict_candidates(brouwer, nat_rec, map_problem):
    # v is acc-below s exactly when some strict candidate of s is alpha-equal
    # to v, over rule subterms and all small enumerated terms
    for p in (brouwer, nat_rec, map_problem):
        ctx = p.ctx
        pool = [u for r in p.rules for side in (r.lhs, r.rhs) for u in subterms(side)]
        pool += [
            t for ty in ctx.universe for t in enumerate_terms(p.sig, p.vars, ty, 4)
        ]
        for s in pool:
            below = {
                w.alpha_class
                for w in acc_candidates(ctx.acc, ctx.sort_order, ctx.min_types, s, True)
            }
            for v in pool:
                want = v.alpha_class in below
                assert acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, s, v) == want
