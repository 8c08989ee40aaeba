import pytest

from horpo.engine import Engine
from horpo.harness import count_calls
from horpo.terms import Abs, App, Arrow, Data, Fun, Var, typecheck

Nat = Data("Nat")
Ord = Data("Ord")
A = Data("A")


def t_(problem, raw):
    return typecheck(problem.sig, problem.vars, raw)


def test_variable_lhs_never_wins(brouwer):
    x = Var("x", Nat)
    assert Engine(brouwer.ctx).gt((), x, Var("y", Nat)) is None
    assert Engine(brouwer.ctx).gt((), x, Fun("0", (), Ord)) is None


def test_rule1_root_case(brouwer):
    tr = Engine(brouwer.ctx).orient_rule(brouwer.rules[0].lhs, brouwer.rules[0].rhs)
    assert tr is not None
    assert tr.label == "1a"
    assert tr.get("i") == 2  # the U argument
    assert tr.children[0].label == "refl"


def test_rule3_root_case(brouwer):
    tr = Engine(brouwer.ctx).orient_rule(brouwer.rules[2].lhs, brouwer.rules[2].rhs)
    assert tr is not None
    assert tr.label == "1c"


def _succ_redex():
    # @(\x:Ord. s(x), 0): the reduct s(0) is not a direct subterm, so only
    # the beta case can resolve the comparison
    zero = Fun("0", (), Ord)
    body = Fun("s", (Var("x", Ord),), Ord)
    return App(Abs("x", Ord, body, Arrow(Ord, Ord)), zero, Ord)


def test_beta_case_2c(brouwer):
    redex = _succ_redex()
    reduct = Fun("s", (Fun("0", (), Ord),), Ord)
    tr = Engine(brouwer.ctx).gt((), redex, reduct)
    assert tr is not None and tr.label == "2c"
    assert tr.children[0].label == "refl"


def test_ge_examples(brouwer):
    n = Var("n", Nat)
    assert Engine(brouwer.ctx).ge((), n, n).label == "refl"
    F = Var("F", Arrow(Nat, Ord))
    limF = Fun("lim", (F,), Ord)
    tr = Engine(brouwer.ctx).ge((), limF, F)
    assert tr is not None and tr.label == "1a"
    assert Engine(brouwer.ctx).ge((), n, Var("m", Nat)) is None


def test_type_gate(brouwer):
    # U : A and n : Nat are INCOMP; the typed comparison must fail regardless
    U = Var("U", A)
    n = Var("n", Nat)
    s = Fun("rec", (Fun("0", (), Ord), U, Var("V", Arrow(Ord, Arrow(A, A))),
                    Var("W", brouwer.sig.fun("rec").arg_tys[3])), A)
    assert Engine(brouwer.ctx).gt_type((), s, n) is None


def _composite(engine, x, base, t, strict):
    """The first witness whose application to freed variables is >= t
    under an empty bound set, as (w, applied names, inner trace)."""
    for w, xs, wapp in engine._witnesses(x, base, t, strict):
        inner = engine.ge((), wapp, t)
        if inner is not None:
            return w, xs, inner
    return None


def test_composite_strict_example(brouwer):
    # lim(F) acc-strictly dominates @(F,n) with n drawn from X
    engine = Engine(brouwer.ctx)
    F = Var("F", Arrow(Nat, Ord))
    n = Var("n", Nat)
    limF = Fun("lim", (F,), Ord)
    appFn = App(F, n, Ord)
    found = _composite(engine, (("n", Nat),), limF, appFn, strict=True)
    assert found is not None
    w, xs, inner = found
    assert w == F and xs == ("n",) and inner.label == "refl"


def test_composite_failure_on_incomparable_types(brouwer):
    engine = Engine(brouwer.ctx)
    U = Var("U", A)
    n = Var("n", Nat)
    assert _composite(engine, (("n", Nat),), U, n, strict=False) is None


def test_freed_variable_case_4a(brouwer):
    s = t_(brouwer, Fun("lim", (Var("F"),)))
    n = Var("n", Nat)
    tr = Engine(brouwer.ctx).gt((("n", Nat),), s, n)
    assert tr is not None and tr.label == "4a"


def test_embedding_not_oriented(brouwer):
    lhs = t_(brouwer, Fun("rec", (Var("N"), Var("U"), Var("V"), Var("W"))))
    rhs = t_(
        brouwer, Fun("rec", (Fun("s", (Var("N"),)), Var("U"), Var("V"), Var("W")))
    )
    assert Engine(brouwer.ctx).orient_rule(lhs, rhs) is None


def test_mul_ext_removal(toy_ctx):
    engine = Engine(toy_ctx)
    a = Var("a", Data("N"))
    # {a,a} vs {a}: cancellation leaves one removed element covering nothing
    node = engine._mul_ext((), (a, a), (a,), pair_kind="union")
    assert node is not None
    assert node.get("cover") == ()
    # identical multisets: strictness fails
    assert engine._mul_ext((), (a,), (a,), pair_kind="union") is None


def test_lex_ext(toy_ctx):
    N = Data("N")
    engine = Engine(toy_ctx)
    z = Fun("z", (), N)
    scz = Fun("sc", (z,), N)
    node = engine._lex_ext((), (scz, z), (z, scz), pair_kind="union")
    assert node is not None and node.get("pos") == 0
    # equal prefix blocks: first differing position must decide
    assert engine._lex_ext((), (z, z), (z, scz), pair_kind="union") is None


def test_refl_goal_has_one_memo_entry(brouwer):
    engine = Engine(brouwer.ctx)
    n = Var("n", Nat)
    assert engine.ge((), n, n).label == "refl"
    assert count_calls(engine) == 1


def test_memo_reuse(brouwer):
    engine = Engine(brouwer.ctx)
    lhs, rhs = brouwer.rules[2].lhs, brouwer.rules[2].rhs
    assert engine.orient_rule(lhs, rhs) is not None
    before = count_calls(engine)
    assert engine.orient_rule(lhs, rhs) is not None
    assert count_calls(engine) == before


def test_disabled_case_hook(brouwer, monkeypatch):
    redex = _succ_redex()
    reduct = Fun("s", (Fun("0", (), Ord),), Ord)
    monkeypatch.setattr(Engine, "_case_2c", lambda self, x, s, t: None)
    assert Engine(brouwer.ctx).gt((), redex, reduct) is None


def test_all_corpus_rules_orient(brouwer, nat_rec, map_problem):
    for p in (brouwer, nat_rec, map_problem):
        for rule in p.rules:
            assert Engine(p.ctx).orient_rule(rule.lhs, rule.rhs) is not None


def test_eta_case_3c(brouwer):
    F = Var("F", Arrow(Nat, Ord))
    eta = Abs("x", Nat, App(F, Var("x", Nat), Ord), Arrow(Nat, Ord))
    tr = Engine(brouwer.ctx).gt((), eta, F)
    assert tr is not None and tr.label == "3c"
