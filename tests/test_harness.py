import random

import pytest

from horpo.harness import (
    GenConfig,
    GenError,
    beta_step,
    enumerate_terms,
    eta_step,
    exhaustive_check,
    gen_term,
    inject_beta_redex,
    run_properties,
    search_params,
)
from horpo.problems import parse_problem
from horpo.terms import (
    Abs,
    App,
    Arrow,
    Data,
    Fun,
    FunDecl,
    Signature,
    SortDecl,
    Var,
    alpha_eq,
    ty_str,
    typecheck,
)

Nat = Data("Nat")


def test_gen_term_deterministic(brouwer):
    a = gen_term(brouwer.sig, brouwer.vars, Data("Ord"), random.Random(1))
    b = gen_term(brouwer.sig, brouwer.vars, Data("Ord"), random.Random(1))
    assert alpha_eq(a, b)


def test_gen_term_well_typed(brouwer):
    rng = random.Random(5)
    for _ in range(100):
        ty = rng.choice([Data("Ord"), Data("A"), Arrow(Nat, Data("Ord"))])
        t = gen_term(brouwer.sig, brouwer.vars, ty, rng)
        assert ty_str(typecheck(brouwer.sig, brouwer.vars, t).ty) == ty_str(ty)


def test_gen_term_uninhabited():
    sig = Signature((SortDecl("E"),), (FunDecl("f", (Data("E"),), Data("E")),))
    with pytest.raises(GenError):
        gen_term(sig, {}, Data("E"), random.Random(0), GenConfig(max_tries=20))


def test_gen_term_size_one_constant():
    sig = Signature((SortDecl("N"),), (FunDecl("z", (), Data("N")),))
    t = gen_term(sig, {}, Data("N"), random.Random(0), size=1)
    assert t == Fun("z", (), Data("N"))


def test_beta_step_examples():
    n = Var("n", Nat)
    redex = App(Abs("x", Nat, Var("x", Nat), Arrow(Nat, Nat)), n, Nat)
    assert beta_step(redex) == [n]
    assert beta_step(Fun("0", (), Data("Ord"))) == []


def test_eta_step_example():
    F = Var("F", Arrow(Nat, Nat))
    eta = Abs("x", Nat, App(F, Var("x", Nat), Nat), Arrow(Nat, Nat))
    assert eta_step(eta) == [F]
    # x free in the function part blocks the step
    G = Var("x", Arrow(Nat, Nat))
    no = Abs("x", Nat, App(G, Var("x", Nat), Nat), Arrow(Nat, Nat))
    assert all(not isinstance(r, Var) for r in eta_step(no))


def test_reducts_preserve_type(brouwer):
    rng = random.Random(11)
    for _ in range(50):
        t = gen_term(brouwer.sig, brouwer.vars, Data("A"), rng)
        t = inject_beta_redex(brouwer.sig, brouwer.vars, t, rng)
        for r in beta_step(t):
            assert ty_str(r.ty) == ty_str(t.ty)
            assert ty_str(typecheck(brouwer.sig, brouwer.vars, r).ty) == ty_str(t.ty)


def test_run_properties_clean(brouwer):
    findings = run_properties(brouwer.ctx, brouwer.vars, samples=60, seed=2)
    assert findings == []


def test_run_properties_catches_sabotage(brouwer):
    findings = run_properties(
        brouwer.ctx,
        brouwer.vars,
        samples=60,
        seed=2,
        disabled_cases=frozenset({"2c"}),
    )
    assert any(f.prop == "beta" for f in findings)


def test_enumerate_terms_small(toy_ctx, toy_env):
    terms = enumerate_terms(toy_ctx.sig, toy_env, Data("N"), 3)
    keys = {str(t.size) + ":" + str(t) for t in terms}
    assert len(keys) == len(terms)  # no duplicates
    assert any(t == Fun("z", (), Data("N")) for t in terms)
    assert all(t.size <= 3 for t in terms)


def test_exhaustive_small_check(toy_ctx, toy_env):
    assert exhaustive_check(toy_ctx, toy_env, Data("N"), max_size=3) == []


def test_search_single_rule():
    p = parse_problem(
        "sort N ;\nfun f : [N] -> N ;\nfun g : [N] -> N ;\nvar X : N ;\n"
        "rule f(X) -> g(X) ;\n"
    )
    found = search_params(p)
    assert found is not None
    (_, _), (prec_strict, _), _ = found
    assert ("f", "g") in prec_strict


def test_search_exhausts_on_embedding():
    p = parse_problem(
        "sort N ;\nfun f : [N] -> N ;\nfun g : [N] -> N ;\nvar X : N ;\n"
        "rule g(X) -> f(g(X)) ;\n"
    )
    assert search_params(p) is None


def test_search_deterministic():
    from conftest import load

    a = search_params(load("brouwer_search.horpo"))
    b = search_params(load("brouwer_search.horpo"))
    assert a == b and a is not None
