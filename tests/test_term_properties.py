"""Property tests for the term-layer steps the engine, the trace checker and
the harness share: opening a binder, substitution, the beta and eta reducts,
and printing.

Terms are seeded by `gen_term` over the brouwer, map and nat_rec signatures;
hypothesis draws the problem, the type, the seed and the size. The runs are
derandomized, so every run checks the same examples.
"""
import random
from itertools import count

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load
from horpo.harness import (
    GenError,
    beta_step,
    eta_step,
    gen_term,
    inject_beta_redex,
    inject_eta_redex,
)
from horpo.problems import parse_problem, print_problem
from horpo.terms import (
    Abs,
    App,
    Arrow,
    Fun,
    TypingError,
    Var,
    all_names,
    alpha_eq,
    beta_reduct,
    eta_reduct,
    free_vars,
    fresh_var,
    open_abs,
    subterms,
    substitute,
    term_str,
    typecheck,
)
from test_alpha_classes import rename_binders, walker_alpha_eq

PROBLEMS = {name: load(name + ".horpo") for name in ("brouwer", "map", "nat_rec")}

derandomized = settings(
    derandomize=True, max_examples=100, deadline=None, database=None
)


@st.composite
def seeded_terms(draw, max_size=8):
    """A problem and a well-typed term over its signature and variables."""
    p = PROBLEMS[draw(st.sampled_from(sorted(PROBLEMS)))]
    ty = draw(st.sampled_from(p.ctx.universe))
    seed = draw(st.integers(0, 2**16))
    size = draw(st.integers(1, max_size))
    try:
        t = gen_term(p.sig, p.vars, ty, random.Random(seed), size=size)
    except GenError:
        assume(False)
    return p, t, seed


def naive_substitute(t, subst):
    """Substitution with no renaming; correct when no binder of `t` is free
    in the range of `subst`."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if isinstance(t, Fun):
        return Fun(t.sym, tuple(naive_substitute(a, subst) for a in t.args), t.ty)
    if isinstance(t, App):
        return App(naive_substitute(t.fn, subst), naive_substitute(t.arg, subst), t.ty)
    inner = {k: v for k, v in subst.items() if k != t.var}
    return Abs(t.var, t.var_ty, naive_substitute(t.body, inner), t.ty)


@derandomized
@given(seeded_terms(), st.integers(0, 3))
def test_open_abs_then_rebind_is_alpha_equal(case, pick):
    _, t, _ = case
    for u in subterms(t):
        if not isinstance(u, Abs):
            continue
        # a brand-new name, or one bound inside the body, which forces
        # open_abs to rename the inner binder to avoid capturing it
        inner = sorted(all_names(u) - free_vars(u))
        z = inner[pick % len(inner)] if pick and inner else fresh_var("z", all_names(u))
        body = open_abs(u, z)
        assert body.ty == u.body.ty
        rebound = Abs(z, u.var_ty, body, u.ty)
        assert alpha_eq(rebound, u)
        assert walker_alpha_eq(rebound, u)


@derandomized
@given(seeded_terms(max_size=12), st.integers(0, 2**16))
def test_substitute_avoids_capture_and_keeps_types(case, seed):
    p, t, _ = case
    rng = random.Random(seed)
    # binders drawn from two names, which the range may mention free; the
    # renamed term is kept when it is still well-typed
    pool = ["x#0", "x#1"]
    env = {**p.vars, **{name: rng.choice(p.ctx.universe) for name in pool}}
    renamed = rename_binders(t, lambda _: rng.choice(pool))
    try:
        if typecheck(p.sig, env, renamed) == renamed:
            t = renamed
    except TypingError:
        pass
    subst = {}
    for name in sorted(free_vars(t)):
        try:
            subst[name] = gen_term(p.sig, env, p.vars[name], rng, size=3)
        except GenError:
            pass
    got = substitute(t, subst)
    # with every binder renamed apart, no renaming is needed
    fresh = count()
    apart = rename_binders(t, lambda _: "b%d" % next(fresh))
    assert walker_alpha_eq(got, naive_substitute(apart, subst))
    assert typecheck(p.sig, env, got) == got


@derandomized
@given(seeded_terms())
def test_reducts_agree_with_one_step_reduction(case):
    p, t, seed = case
    rng = random.Random(seed)
    t = inject_beta_redex(p.sig, p.vars, t, rng)
    t = inject_eta_redex(t, rng) or t
    for step, reduct in ((beta_step, beta_reduct), (eta_step, eta_reduct)):
        for u in subterms(t):
            steps, r = step(u), reduct(u)
            # one step per redex position, the root's first
            assert len(steps) == sum(reduct(v) is not None for v in subterms(u))
            if r is not None:
                assert steps[0] == r
            assert all(s.ty == u.ty for s in steps)
    # near-redexes \x.@(w, x) where x may be free in w, which blocks the step
    ty = rng.choice([a for a in p.ctx.universe if isinstance(a, Arrow)])
    x = Var(fresh_var("x", all_names(t)), ty.dom)
    try:
        w = gen_term(p.sig, {**p.vars, x.name: ty.dom}, ty, rng, size=4)
    except GenError:
        w = None
    if w is not None:
        near = Abs(x.name, ty.dom, App(w, x, ty.cod), ty)
        assert eta_reduct(near) == (w if x.name not in free_vars(w) else None)
    fresh = count()
    for u in subterms(t):
        r = eta_reduct(u)
        if r is not None:
            x = Var(u.var, u.var_ty)
            assert u.var not in free_vars(r)
            assert alpha_eq(Abs(u.var, u.var_ty, App(r, x, u.body.ty), u.ty), u)
        r = beta_reduct(u)
        if r is not None:
            apart = rename_binders(u.fn.body, lambda _: "b%d" % next(fresh))
            assert r.ty == u.ty
            assert walker_alpha_eq(r, naive_substitute(apart, {u.fn.var: u.arg}))


@derandomized
@given(seeded_terms())
def test_print_parse_typecheck_round_trips(case):
    p, t, _ = case
    # generated binder names carry the reserved separator, which the parser
    # rejects; rename them to unused plain identifiers first
    fresh = count()
    printable = rename_binders(t, lambda _: "b%d" % next(fresh))
    text = print_problem(p) + "rule %s -> %s ;\n" % ((term_str(printable),) * 2)
    parsed = parse_problem(text).rules[-1].lhs
    assert parsed == typecheck(p.sig, p.vars, parsed)
    assert alpha_eq(parsed, t)
    assert parsed.ty == t.ty
