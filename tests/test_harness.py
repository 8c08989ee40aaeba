import random
from itertools import product

import pytest

from conftest import (
    CORPUS,
    ROOT,
    level_assignments_by_filter,
    load,
    typecheck,
    weak_orders_by_filter,
)
from horpo import harness
from horpo.context import LEX, MUL, OrderingContext
from horpo.engine import Engine
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
    term_str,
    ty_str,
)
from horpo.traces import Trace
from horpo.typeorder import QuasiOrder, SortOrder, validate_axioms

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


def test_gen_term_uninhabited(monkeypatch):
    # a request makes one attempt: one outermost _gen call, then GenError
    sig = Signature((SortDecl("E"),), (FunDecl("f", (Data("E"),), Data("E")),))
    gen, depth, attempts = harness._gen, 0, 0

    def counted(*args):
        nonlocal depth, attempts
        attempts += depth == 0
        depth += 1
        try:
            return gen(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(harness, "_gen", counted)
    with pytest.raises(GenError):
        gen_term(sig, {}, Data("E"), random.Random(0))
    assert attempts == 1


def test_gen_term_size_one_constant():
    sig = Signature((SortDecl("N"),), (FunDecl("z", (), Data("N")),))
    t = gen_term(sig, {}, Data("N"), random.Random(0), size=1)
    assert t == Fun("z", (), Data("N"))


def test_wrapped_sides_are_well_typed(brouwer, nat_rec, map_problem):
    wrapped = 0
    for p in (brouwer, nat_rec, map_problem):
        tys = [ty for f in p.sig.funs for ty in f.arg_tys]
        for seed in range(30):
            rng = random.Random(seed)
            ty = rng.choice(tys)
            try:
                s = gen_term(p.sig, p.vars, ty, rng)
                t = gen_term(p.sig, p.vars, ty, rng)
            except GenError:
                continue
            sides = harness._wrap_context(p.sig, s, t, rng)
            if sides is not None:
                wrapped += 1
                for side in sides:
                    assert typecheck(p.sig, p.vars, side) == side
    assert wrapped > 0


def test_beta_step_examples():
    n = Var("n", Nat)
    redex = App(Abs("x", Nat, Var("x", Nat), Arrow(Nat, Nat)), n, Nat)
    assert list(beta_step(redex)) == [n]
    assert list(beta_step(Fun("0", (), Data("Ord")))) == []


def test_eta_step_example():
    F = Var("F", Arrow(Nat, Nat))
    eta = Abs("x", Nat, App(F, Var("x", Nat), Nat), Arrow(Nat, Nat))
    assert list(eta_step(eta)) == [F]
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


def test_run_properties_clean(brouwer, monkeypatch):
    made = []

    class Counted(Engine):
        def __init__(self, ctx):
            made.append(ctx)
            super().__init__(ctx)

    monkeypatch.setattr(harness, "Engine", Counted)
    # with a config, as the benchmark calls it
    findings = run_properties(
        brouwer.ctx, brouwer.vars, samples=60, seed=2, config=GenConfig()
    )
    assert findings == []
    # one engine answers every probe of the run; only shrinking makes more
    assert made == [brouwer.ctx]


@pytest.mark.parametrize("name", ["mendler", "nested_copy"])
def test_run_properties_skips_a_beta_probe_without_a_small_argument(name):
    # for some sample, one attempt at size 2 builds no redex argument of the
    # drawn type under the problem's variables: gen_term raises GenError, and
    # only that beta probe is skipped
    path = ROOT / "tests" / "data" / "loops" / (name + ".horpo")
    problem = parse_problem(path.read_text())
    for seed in (0, 3, 7):
        assert run_properties(problem.ctx, problem.vars, seed=seed) == []


def test_run_properties_catches_sabotage(brouwer, monkeypatch):
    monkeypatch.setattr(Engine, "_case_2c", lambda self, x, s, t: None)
    findings = run_properties(brouwer.ctx, brouwer.vars, samples=60, seed=2)
    assert any(f.prop == "beta" for f in findings)


def _every_pair_oriented(self, x, s, t):
    # 4a claims a freed variable on the right, so replay rejects every trace
    return Trace("4a", s, t, x)


def _shallow_strict_subterms(t):
    """The strict subterms of `t` that no binder encloses."""
    parts = (t.fn, t.arg) if isinstance(t, App) else getattr(t, "args", ())
    for u in parts:
        yield u
        yield from _shallow_strict_subterms(u)


def test_run_properties_reports_an_ordering_that_orients_everything(
    nat_rec, monkeypatch
):
    monkeypatch.setattr(Engine, "gt", _every_pair_oriented)
    shrunk, shrink = [], harness._shrink

    def recording(check, t):
        shrunk.append(shrink(check, t))
        return shrunk[-1]

    monkeypatch.setattr(harness, "_shrink", recording)
    findings = run_properties(nat_rec.ctx, nat_rec.vars, samples=30, seed=3)
    assert {f.prop for f in findings} == {
        "irreflexivity",
        "beta-trace",
        "eta-trace",
        "trace-trace",
    }
    assert "beta-trace: case 4a needs a freed variable on the right" in map(
        str, findings
    )
    irreflexive = [str(f) for f in findings if f.prop == "irreflexivity"]
    assert irreflexive == ["irreflexivity: %s > itself" % term_str(u) for u in shrunk]
    # the shrink replaced every compound subterm it may reach by a variable
    assert any(u.size > 1 and isinstance(u, Fun) for u in shrunk)
    for u in shrunk:
        assert all(v.size <= 1 for v in _shallow_strict_subterms(u))


def test_exhaustive_check_reports_an_ordering_that_orients_everything(
    nat_rec, monkeypatch
):
    monkeypatch.setattr(Engine, "gt", _every_pair_oriented)
    findings = exhaustive_check(nat_rec.ctx, nat_rec.vars, Nat, max_size=4)
    assert {f.prop for f in findings} == {
        "irreflexivity",
        "antisymmetry",
        "termination",
    }
    assert "irreflexivity: z > itself" in map(str, findings)
    assert "antisymmetry: z and succ(z) dominate each other" in map(str, findings)
    assert [f.prop for f in findings].count("termination") == 1
    # each unordered pair is reported once, not again in the other order
    pairs = [
        frozenset(f.detail.removesuffix(" dominate each other").split(" and "))
        for f in findings
        if f.prop == "antisymmetry"
    ]
    assert len(set(pairs)) == len(pairs) > 1


# 89 terms of type N up to size 7
CHAIN_PROBLEM = (
    "sort N ;\nfun z : [] -> N ;\nfun s : [N] -> N ;\nfun f : [N, N] -> N ;\n"
    "prec f > s ;\n"
)


def _orients_successors(terms, succ):
    """An `Engine.gt` that orients s > t exactly when t is the term at
    position succ[i] of `terms` and s the one at position i."""
    pos = {term_str(t): i for i, t in enumerate(terms)}

    def gt(self, x, s, t):
        if succ.get(pos[term_str(s)]) == pos[term_str(t)]:
            return Trace("1a", s, t, x)
        return None

    return gt


def test_exhaustive_check_passes_a_long_acyclic_chain(monkeypatch):
    p = parse_problem(CHAIN_PROBLEM)
    terms = enumerate_terms(p.ctx.sig, p.vars, Data("N"), 7)
    assert len(terms) >= 52
    chain = {i: i + 1 for i in range(len(terms) - 1)}
    monkeypatch.setattr(Engine, "gt", _orients_successors(terms, chain))
    assert exhaustive_check(p.ctx, p.vars, Data("N"), max_size=7) == []


def test_exhaustive_check_reports_a_cycle_through_a_term_on_it(monkeypatch):
    # the first term reaches the cycle 1 > 2 > 3 > 1 but is not on it
    p = parse_problem(CHAIN_PROBLEM)
    terms = enumerate_terms(p.ctx.sig, p.vars, Data("N"), 4)
    monkeypatch.setattr(
        Engine, "gt", _orients_successors(terms, {0: 1, 1: 2, 2: 3, 3: 1})
    )
    findings = exhaustive_check(p.ctx, p.vars, Data("N"), max_size=4)
    assert [f.prop for f in findings] == ["termination"]
    on_cycle = {"cycle through %s" % term_str(terms[i]) for i in (1, 2, 3)}
    assert findings[0].detail in on_cycle


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
    a = search_params(load("brouwer_search.horpo"))
    b = search_params(load("brouwer_search.horpo"))
    assert a == b and a is not None


def test_search_skips_precedence_classes_of_mixed_arity():
    # putting f and c in one class would orient the rule, but their
    # arities differ
    p = parse_problem(
        "sort N ;\nfun f : [N] -> N ;\nfun c : [] -> N ;\nrule f(c) -> c ;\n"
    )
    (_, _), (prec_strict, prec_equiv), _ = search_params(p)
    assert prec_strict == (("f", "c"),) and prec_equiv == ()


LIMIT = (
    "sort Nat ;\nsort Ord ;\nfun lim : [Nat -> Ord] -> Ord ;\n"
    "fun g : [Ord, Nat] -> Ord ;\n%s"
    "var F : Nat -> Ord ;\nvar n : Nat ;\nrule g(lim(F), n) -> @(F, n) ;\n"
)
# p brings Ord -> Nat, Nat -> Nat and Ord -> Ord into the universe, where
# Ord > Nat breaks arrow monotonicity
P_DECL = "fun p : [Ord -> Nat, Nat -> Nat, Ord -> Ord] -> Nat ;\n"


def test_search_skips_sort_orders_breaking_the_axioms(monkeypatch):
    (sort_strict, sort_equiv), _, _ = search_params(parse_problem(LIMIT % ""))
    assert (sort_strict, sort_equiv) == ((("Ord", "Nat"),), ())
    with_p = parse_problem(LIMIT % P_DECL)
    assert search_params(with_p) is None
    # without the axiom check, the search settles on an order breaking them
    monkeypatch.setattr(harness, "validate_axioms", lambda order, universe: [])
    (sort_strict, sort_equiv), _, _ = search_params(with_p)
    order = SortOrder(("Nat", "Ord"), sort_strict, sort_equiv)
    assert validate_axioms(order, with_p.ctx.universe)


def test_level_assignments_match_the_filter_and_count_ordered_partitions():
    counts = []
    for n in range(7):
        got = list(harness._level_assignments([None] * n))
        counts.append(len(got))
        assert got == list(level_assignments_by_filter([None] * n))
    # the empty list has one assignment, the empty one
    assert counts == [1, 1, 3, 13, 75, 541, 4683]
    # no level holds two kinds
    for kinds in ([0, 1], [0, 1, 2], [0, 1, 2, 0, 1], [0, 0, 1, 1, 0, 1]):
        assert list(harness._level_assignments(kinds)) == list(
            level_assignments_by_filter(kinds)
        )


def test_search_finds_the_same_parameters_as_the_filter(monkeypatch):
    problems = [
        load(path.name)
        for path in sorted(CORPUS.glob("*.horpo"))
        if path.name != "bad_freevar.horpo"
    ]
    found = [search_params(p) for p in problems]
    # both the sort orders and the precedences are level assignments
    monkeypatch.setattr(harness, "_level_assignments", level_assignments_by_filter)
    assert found == [search_params(p) for p in problems]
    assert sum(f is not None for f in found) == len(problems) - 1


def _search_by_generate_and_test(problem):
    """Reference search: the same enumeration as `search_params`, with one
    engine per candidate and no outcome reused across candidates."""
    sig = problem.sig
    sort_names = sorted(s.name for s in sig.sorts)
    fun_names = sorted(f.name for f in sig.funs)
    multi_arg = [f.name for f in sig.funs if f.arity >= 2]
    status_space = sorted(
        product((MUL, LEX), repeat=len(multi_arg)),
        key=lambda combo: combo.count(LEX),
    )
    for sort_strict, sort_equiv in weak_orders_by_filter(sort_names):
        order = SortOrder(sort_names, sort_strict, sort_equiv)
        if validate_axioms(order, problem.ctx.universe):
            continue
        order_ctx = OrderingContext.build(
            sig, order, extra_types=tuple(problem.vars.values())
        )
        for combo in status_space:
            statuses = dict(zip(multi_arg, combo))
            for prec_strict, prec_equiv in weak_orders_by_filter(fun_names):
                prec = QuasiOrder(fun_names, prec_strict, prec_equiv)
                ctx = OrderingContext(
                    sig, order, prec, {**order_ctx.statuses, **statuses},
                    order_ctx.acc, order_ctx.min_types, order_ctx.universe,
                )
                if ctx.prec_class_error() is not None:
                    continue
                engine = Engine(ctx)
                if all(
                    engine.orient_rule(r.lhs, r.rhs) is not None
                    for r in problem.rules
                ):
                    return (sort_strict, sort_equiv), (prec_strict, prec_equiv), statuses
    return None


BROUWER_SEARCH = (CORPUS / "brouwer_search.horpo").read_text()
# no parameters orient this rule, so it makes the search exhaust
BLOCKER = "rule rec(N, U, V, W) -> rec(s(N), U, V, W) ;\n"
EXTRA_SYMBOL = "fun u : [Ord] -> Ord ;\n"
# the third rule needs ack's lex status
ACKERMANN = (
    "sort N ;\nfun 0 : [] -> N ;\nfun s : [N] -> N ;\nfun ack : [N, N] -> N ;\n"
    "var X : N ;\nvar Y : N ;\n"
    "rule ack(0, Y) -> s(Y) ;\n"
    "rule ack(s(X), 0) -> ack(X, s(0)) ;\n"
    "rule ack(s(X), s(Y)) -> ack(X, ack(s(X), Y)) ;\n"
)
PLUS = (
    "fun plus : [N, N] -> N ;\n"
    "rule plus(0, Y) -> Y ;\n"
    "rule plus(s(X), Y) -> s(plus(X, Y)) ;\n"
)
SEARCH_CASES = {
    **{
        path.name: path.read_text()
        for path in sorted(CORPUS.glob("*.horpo"))
        if path.name != "bad_freevar.horpo"
    },
    "brouwer_search+blocker": BROUWER_SEARCH + BLOCKER,
    "brouwer_search+symbol": BROUWER_SEARCH + EXTRA_SYMBOL,
    "brouwer_search+symbol+blocker": BROUWER_SEARCH + EXTRA_SYMBOL + BLOCKER,
    "ackermann": ACKERMANN,
    # two binary symbols: a class may not hold both when their statuses differ
    "ackermann+plus": ACKERMANN + PLUS,
}


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_reuse_matches_generate_and_test(name):
    problem = parse_problem(SEARCH_CASES[name])
    assert search_params(problem) == _search_by_generate_and_test(problem)


def test_only_lex_orients_ackermann():
    found = search_params(parse_problem(ACKERMANN))
    assert found is not None and found[2] == {"ack": LEX}


def test_exhausted_search_runs_the_engine_75_times(monkeypatch):
    calls = []
    orient_rule = Engine.orient_rule

    def counted(engine, lhs, rhs):
        calls.append(None)
        return orient_rule(engine, lhs, rhs)

    monkeypatch.setattr(Engine, "orient_rule", counted)
    assert search_params(parse_problem(BROUWER_SEARCH + BLOCKER)) is None
    # pinned; without reuse the same search makes 2,640 calls. A goal at
    # equivalent heads whose case 1a fails before 1b succeeds reads more of
    # the precedence than 1b alone, so fewer stored outcomes answer a later
    # candidate
    assert len(calls) == 75


def test_exhausted_search_builds_793_level_assignments(monkeypatch):
    built = []
    level_assignments = harness._level_assignments

    def counted(kinds):
        for assign in level_assignments(kinds):
            built.append(assign)
            yield assign

    monkeypatch.setattr(harness, "_level_assignments", counted)
    assert search_params(parse_problem(BROUWER_SEARCH + BLOCKER)) is None
    # pinned; building every assignment and dropping those that put two
    # arities or statuses in one class builds 1,963
    assert len(built) == 793


def test_search_without_function_symbols_needs_no_parameters():
    # every rule is oriented as declared, which check also says; the empty
    # precedence is the one weak order on no symbols
    p = parse_problem("sort N ;\nvar F : N -> N ;\nvar y : N ;\nrule @(F, y) -> y ;\n")
    assert search_params(p) == (((), ()), ((), ()), {})


@pytest.mark.parametrize(
    "name,sabotage,prop",
    [
        # a "reduct" that is the term itself: no ordering puts it below
        ("eta_step", lambda t: [t], "eta"),
        # a "substitution" that turns both sides into one variable
        ("substitute", lambda t, theta: Var("zz", t.ty), "stability"),
        # a "context" that swaps the two sides
        ("_wrap_context", lambda sig, s, t, rng: (t, s), "monotonicity"),
    ],
    ids=["eta", "stability", "monotonicity"],
)
def test_run_properties_reports_each_finding_kind(
    nat_rec, monkeypatch, name, sabotage, prop
):
    monkeypatch.setattr(harness, name, sabotage)
    findings = run_properties(nat_rec.ctx, nat_rec.vars, samples=40, seed=3)
    assert {f.prop for f in findings} == {prop}
