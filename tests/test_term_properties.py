"""Property tests for the term-layer steps the engine, the trace checker and
the harness share: opening a binder, substitution, the beta and eta reducts,
and printing; and for the values the term layer caches (opened binders,
printed types, a signature's tables), against the computations they replace.

Terms are seeded by `gen_term` over the brouwer, map and nat_rec signatures;
hypothesis draws the problem, the type, the seed and the size. The runs are
derandomized, so every run checks the same examples.
"""
import random
from itertools import count

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load, typecheck
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
    Data,
    Fun,
    TypingError,
    Var,
    alpha_eq,
    beta_reduct,
    eta_reduct,
    free_vars,
    fresh_var,
    open_abs,
    subterms,
    substitute,
    term_str,
    ty_str,
)
from test_alpha_classes import rename_binders, walker_alpha_eq
from test_problems import PARSED

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
        inner = sorted(u.all_names - free_vars(u))
        z = inner[pick % len(inner)] if pick and inner else fresh_var("z", u.all_names)
        body = open_abs(u, z)
        assert body.ty == u.body.ty
        rebound = Abs(z, u.var_ty, body, u.ty)
        assert alpha_eq(rebound, u)
        assert walker_alpha_eq(rebound, u)


@derandomized
@given(seeded_terms(), st.integers(0, 3))
def test_open_abs_is_built_once_per_name(case, pick):
    _, t, _ = case
    for u in subterms(t):
        if not isinstance(u, Abs):
            continue
        inner = sorted(u.all_names - free_vars(u))
        z = inner[pick % len(inner)] if pick and inner else fresh_var("z", u.all_names)
        body = open_abs(u, z)
        assert open_abs(u, z) is body
        assert alpha_eq(body, substitute(u.body, {u.var: Var(z, u.var_ty)}))
        # another name gets a body of its own, in which that name is free
        z2 = fresh_var("z", u.all_names | {z})
        other = open_abs(u, z2)
        if u.var in free_vars(u.body):
            assert z in free_vars(body) and z2 not in free_vars(body)
            assert z2 in free_vars(other) and z not in free_vars(other)
        else:
            assert body is other is u.body


def _printed(ty):
    """A fresh print of `ty`: the definition that `ty_str` caches."""
    if isinstance(ty, Data):
        args = ",".join(map(_printed, ty.args))
        return "%s(%s)" % (ty.sort, args) if args else ty.sort
    dom = _printed(ty.dom)
    dom = "(%s)" % dom if isinstance(ty.dom, Arrow) else dom
    return "%s -> %s" % (dom, _printed(ty.cod))


types = st.recursive(
    st.builds(Data, st.sampled_from(["N", "Ord"])),
    lambda inner: st.one_of(
        st.builds(Arrow, inner, inner),
        st.builds(Data, st.just("P"), st.lists(inner, min_size=1, max_size=2).map(tuple)),
    ),
    max_leaves=6,
)


@derandomized
@given(types)
def test_cached_type_print_is_a_fresh_print(ty):
    # the first read prints and caches; the second reads the cache
    assert ty_str(ty) == _printed(ty)
    assert ty_str(ty) == _printed(ty)
    assert ty_str(Arrow(ty, ty)) == _printed(Arrow(ty, ty))


@pytest.mark.parametrize("path", PARSED, ids=lambda p: p.stem)
def test_signature_tables_are_the_scans_they_replace(path):
    p = parse_problem(path.read_text())
    sig = p.sig
    tys = [t for f in sig.funs for t in (*f.arg_tys, f.out_ty)]
    assert sig.fun_types == tuple(dict.fromkeys(tys))
    for ty in (*p.ctx.universe, Data("undeclared")):
        assert sig.funs_by_out.get(ty, []) == [f for f in sig.funs if f.out_ty == ty]


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


def _assert_kept(t, got, name):
    """Each largest part of `t` in which `name` is not free is `got`'s part
    at the same place, by identity."""
    if name not in free_vars(t):
        assert got is t
    elif isinstance(t, Fun):
        for a, b in zip(t.args, got.args):
            _assert_kept(a, b, name)
    elif isinstance(t, App):
        _assert_kept(t.fn, got.fn, name)
        _assert_kept(t.arg, got.arg, name)
    elif isinstance(t, Abs):
        _assert_kept(t.body, got.body, name)


@derandomized
@given(seeded_terms(max_size=12))
def test_substitute_rebuilds_only_the_paths_it_changes(case):
    p, t, _ = case
    for name in sorted(free_vars(t)):
        # a name t does not hold: nothing is renamed, so the shapes match
        got = substitute(t, {name: Var(fresh_var(name, t.all_names), p.vars[name])})
        _assert_kept(t, got, name)


@derandomized
@given(seeded_terms())
def test_all_names_hold_every_identifier(case):
    _, t, _ = case
    for u in subterms(t):
        names = {v.name for v in subterms(u) if isinstance(v, Var)}
        names |= {v.var for v in subterms(u) if isinstance(v, Abs)}
        assert u.all_names == names
        if not u.abstractions and not isinstance(u, Var):
            assert u.all_names is u.free_vars


@derandomized
@given(seeded_terms())
def test_reducts_agree_with_one_step_reduction(case):
    p, t, seed = case
    rng = random.Random(seed)
    t = inject_beta_redex(p.sig, p.vars, t, rng)
    t = inject_eta_redex(t, rng) or t
    for step, reduct in ((beta_step, beta_reduct), (eta_step, eta_reduct)):
        for u in subterms(t):
            steps, r = list(step(u)), reduct(u)
            # one step per redex position, the root's first
            assert len(steps) == sum(reduct(v) is not None for v in subterms(u))
            if r is not None:
                assert steps[0] == r
            assert all(s.ty == u.ty for s in steps)
    # near-redexes \x.@(w, x) where x may be free in w, which blocks the step
    ty = rng.choice([a for a in p.ctx.universe if isinstance(a, Arrow)])
    x = Var(fresh_var("x", t.all_names), ty.dom)
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
