from horpo.accessibility import (
    acc_candidates,
    acc_ge,
    acc_gt,
    acc_indices,
)
from conftest import CORPUS, load
from horpo.context import OrderingContext
from horpo.harness import enumerate_terms
from horpo.problems import orient, parse_problem
from horpo.terms import (
    Abs,
    App,
    Arrow,
    Data,
    Fun,
    FunDecl,
    Var,
    alpha_eq,
    free_vars,
    subterms,
)
from horpo.typeorder import SortOrder, is_minimal_type

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


def test_a_non_data_output_has_no_accessible_positions(brouwer):
    # Ord would be accessible in c if c's output were Ord rather than Nat -> Ord
    c = FunDecl("c", (Ord,), Arrow(Nat, Ord))
    assert acc_indices(c, brouwer.ctx.sort_order) == frozenset()


def test_an_output_inside_a_sort_argument_is_not_accessible():
    # the polarity of List's parameter is unknown, so Ord in List(Ord)
    # counts as neither positive nor negative
    order = SortOrder(("List", "Ord"), (("Ord", "List"),))
    c = FunDecl("c", (Data("List", (Ord,)),), Ord)
    assert acc_indices(c, order) == frozenset()


def test_accessible(brouwer):
    # with no minimal types, only reach through accessible positions can
    # make a subterm acc-below
    view = (brouwer.ctx.acc, brouwer.ctx.sort_order, ())
    F = Var("F", Arrow(Nat, Ord))
    limF = Fun("lim", (F,), Ord)
    assert acc_gt(*view, limF, F) is F
    # nested through accessible positions
    N = Var("N", Ord)
    assert acc_gt(*view, Fun("s", (Fun("s", (N,), Ord),), Ord), N) is N
    # nothing is reached below an abstraction or an application
    lam = Abs("n", Nat, App(F, Var("n", Nat), Ord), Arrow(Nat, Ord))
    assert acc_candidates(*view, Fun("lim", (lam,), Ord), True) == [lam]
    # U is accessible in rec(0,U,V,W) at the A position
    U = Var("U", A)
    rec0 = Fun("rec", (Fun("0", (), Ord), U, Var("V"), Var("W")), A)
    assert acc_gt(*view, rec0, U) is U


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
    F = Var("F", Arrow(Nat, Ord))
    s = Fun("lim", (Abs("x", Nat, App(F, x, Ord), Arrow(Nat, Ord)),), Ord)
    assert not acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, s, x)


_CAPTURE = (
    "sort N ; fun h : [N] -> N ; fun g : [N -> N] -> N ; fun f : [N, N] -> N ;"
    " fun k : [N] -> N ; var y : N ; rule k(f(y, g(\\%s:N. h(%s)))) -> k(h(y)) ;"
)


def test_acc_below_is_alpha_invariant():
    # the bound h(y) is not the free h(y): a free y of the left side gives
    # the binder's spelling no say in the verdict
    for name in ("y", "z"):
        p = parse_problem(_CAPTURE % (name, name))
        assert orient(p.ctx, p.rules[0]) is None, name
    p = parse_problem(_CAPTURE % ("y", "y"))
    ctx, (k_arg,), (h_y,) = p.ctx, p.rules[0].lhs.args, p.rules[0].rhs.args
    view = (ctx.acc, ctx.sort_order, ctx.min_types)
    assert acc_gt(*view, k_arg, h_y) is None
    assert h_y.alpha_class not in {
        w.alpha_class for w in acc_candidates(*view, k_arg, True)
    }


def test_acc_gt_implies_strict_subterm(brouwer):
    ctx = brouwer.ctx
    rhs = brouwer.rules[2].rhs
    for s in subterms(brouwer.rules[2].lhs):
        for v in subterms(rhs):
            if acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, s, v):
                assert any(alpha_eq(v, u) for u in [*subterms(s)][1:])


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
    # to v, over rule subterms and all small enumerated terms; the witness is
    # the one the uncached walk finds
    for p in (brouwer, nat_rec, map_problem):
        pool = [u for r in p.rules for side in (r.lhs, r.rhs) for u in subterms(side)]
        pool += [
            t for ty in p.ctx.universe for t in enumerate_terms(p.sig, p.vars, ty, 4)
        ]
        for s in pool:
            for view in _views(p.ctx):
                below = {w.alpha_class for w in acc_candidates(*view, s, True)}
                for v in pool:
                    got = acc_gt(*view, s, v)
                    assert (got is not None) == (v.alpha_class in below)
                    assert got is _oracle_gt(*view, s, v)


# The uncached walk `acc_candidates` and `acc_gt` made before the candidate
# list was cached on the base term: the oracle for the cached answers. It
# has its own recursive reach and pre-order walk, so it shares no walk with
# the code it judges.


def _oracle_reach(acc, s):
    out = set()
    for i in acc[s.sym]:
        arg = s.args[i - 1]
        out.add(arg.alpha_class)
        if isinstance(arg, Fun):
            out |= _oracle_reach(acc, arg)
    return out


def _oracle_strict_subterms(t, bound=frozenset()):
    """The strict subterms of `t`, in pre-order, but for those with a free
    variable that a binder of `t` above them binds."""
    if isinstance(t, Abs):
        parts, bound = (t.body,), bound | {t.var}
    elif isinstance(t, App):
        parts = (t.fn, t.arg)
    else:
        parts = t.args if isinstance(t, Fun) else ()
    for u in parts:
        if not free_vars(u) & bound:
            yield u
        yield from _oracle_strict_subterms(u, bound)


def _oracle_below(acc, order, min_types, s):
    if not isinstance(s, (Fun, App)):
        return None
    reach = _oracle_reach(acc, s) if isinstance(s, Fun) else set()
    fv_s = free_vars(s)
    return lambda v: v.alpha_class in reach or (
        is_minimal_type(order, min_types, v.ty) and free_vars(v) <= fv_s
    )


def _oracle_candidates(acc, order, min_types, s, strict):
    out, seen = [], set()
    if not strict:
        out.append(s)
        seen.add(s.alpha_class)
    below = _oracle_below(acc, order, min_types, s)
    if below is not None:
        for v in _oracle_strict_subterms(s):
            if v.alpha_class not in seen and below(v):
                out.append(v)
                seen.add(v.alpha_class)
    return out


def _oracle_gt(acc, order, min_types, s, v):
    below = _oracle_below(acc, order, min_types, s)
    if below is None:
        return None
    return next(
        (u for u in _oracle_strict_subterms(s) if alpha_eq(v, u) and below(u)),
        None,
    )


def _corpus_problems():
    return [
        load(path.name)
        for path in sorted(CORPUS.glob("*.horpo"))
        if path.name != "bad_freevar.horpo"
    ]


def _views(ctx):
    # one table under its own inputs and under a changed sort order or set
    # of minimal types: a cache keyed on the table alone answers stale
    flat = SortOrder(ctx.sort_order.elements)
    return [
        (ctx.acc, ctx.sort_order, ctx.min_types),
        (ctx.acc, ctx.sort_order, ()),
        (ctx.acc, flat, ctx.min_types),
    ]


def _same(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_cached_candidates_match_the_uncached_walk(brouwer, nat_rec, map_problem):
    bases = [
        (p.ctx, u)
        for p in _corpus_problems()
        for r in p.rules
        for side in (r.lhs, r.rhs)
        for u in subterms(side)
    ]
    bases += [
        (p.ctx, u)
        for p in (brouwer, nat_rec, map_problem)
        for ty in p.ctx.universe
        for t in enumerate_terms(p.sig, p.vars, ty, 4)
        for u in subterms(t)
    ]
    for ctx, s in bases:
        for view in _views(ctx):
            for strict in (True, False):
                got = acc_candidates(*view, s, strict)
                assert _same(got, _oracle_candidates(*view, s, strict))


def test_each_context_gets_its_own_candidates(brouwer):
    limF = brouwer.rules[2].lhs.args[0]
    F = limF.args[0]
    assert (limF.sym, F) == ("lim", Var("F", Arrow(Nat, Ord)))
    nat_above = OrderingContext.build(
        brouwer.sig, SortOrder(brouwer.ctx.sort_order.elements, (("Nat", "Ord"),))
    )
    want = {id(brouwer.ctx): [F], id(nat_above): []}
    for ctxs in ((brouwer.ctx, nat_above), (nat_above, brouwer.ctx)):
        for ctx in ctxs + ctxs:
            got = acc_candidates(ctx.acc, ctx.sort_order, ctx.min_types, limF, True)
            assert _same(got, want[id(ctx)])
            w = acc_gt(ctx.acc, ctx.sort_order, ctx.min_types, limF, F)
            assert w is (F if want[id(ctx)] else None)


def test_mutating_candidates_leaves_the_cache_alone(brouwer):
    ctx = brouwer.ctx
    limF = brouwer.rules[2].lhs.args[0]
    args = (ctx.acc, ctx.sort_order, ctx.min_types, limF)
    for strict in (True, False):
        got = acc_candidates(*args, strict)
        want = list(got)
        got.append(limF)
        del got[0]
        assert _same(acc_candidates(*args, strict), want)
