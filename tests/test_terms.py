import random

import pytest
from conftest import typecheck

from horpo.terms import (
    Abs,
    App,
    Arrow,
    Data,
    Fun,
    Signature,
    SortDecl,
    TypingError,
    Var,
    alpha_eq,
    free_vars,
    fresh_var,
    substitute,
    term_str,
    ty_str,
)

Nat = Data("Nat")
Ord = Data("Ord")
A = Data("A")


def test_infer_variable(brouwer):
    assert typecheck(brouwer.sig, {"x": Nat}, Var("x")).ty == Nat


def test_infer_application(brouwer):
    env = {"F": Arrow(Nat, Ord), "n": Nat}
    t = App(Var("F"), Var("n"))
    assert typecheck(brouwer.sig, env, t).ty == Ord


def test_infer_rec_of_lim(brouwer):
    env = dict(brouwer.vars)
    t = Fun("rec", (Fun("lim", (Var("F"),)), Var("U"), Var("V"), Var("W")))
    assert typecheck(brouwer.sig, env, t).ty == A


def test_infer_errors(brouwer):
    with pytest.raises(TypingError):
        typecheck(brouwer.sig, {}, Var("nope"))
    with pytest.raises(TypingError):
        typecheck(brouwer.sig, {}, Fun("lim", ()))  # arity mismatch
    with pytest.raises(TypingError):
        # application domain mismatch: lim expects Nat -> Ord
        typecheck(brouwer.sig, {"U": A}, Fun("lim", (Var("U"),)))
    with pytest.raises(TypingError, match="undeclared function symbol 'nope'"):
        typecheck(brouwer.sig, {}, Fun("nope", ()))


def test_negative_sort_arity():
    # the parser reads arities as digits, so only a direct call reaches this
    with pytest.raises(TypingError, match="^negative arity for sort 'N'$"):
        Signature((SortDecl("N", -1),), ())


def test_annotations_everywhere(brouwer):
    env = dict(brouwer.vars)
    t = typecheck(brouwer.sig, env, Fun("rec", (Fun("0", ()), Var("U"), Var("V"), Var("W"))))
    assert t.ty == A
    assert t.args[0].ty == Ord
    assert t.args[2].ty == Arrow(Ord, Arrow(A, A))


def test_substitute_basics():
    n = Var("n", Nat)
    assert substitute(Var("x", Nat), {"x": n}) == n
    lam = Abs("x", Nat, Var("x", Nat), Arrow(Nat, Nat))
    assert substitute(lam, {"x": n}) == lam  # bound occurrence untouched


def test_substitute_capture_avoiding():
    # (\y:Nat. @(F, x)){x -> y} must rename the binder, not capture y
    body = App(Var("F", Arrow(Nat, Ord)), Var("x", Nat), Ord)
    lam = Abs("y", Nat, body, Arrow(Nat, Ord))
    out = substitute(lam, {"x": Var("y", Nat)})
    assert isinstance(out, Abs)
    assert out.var != "y"
    assert out.body.arg == Var("y", Nat)
    # and the renamed term still alpha-equals the intended result
    want = Abs("y2", Nat, App(Var("F", Arrow(Nat, Ord)), Var("y", Nat), Ord), Arrow(Nat, Ord))
    assert alpha_eq(out, want)


def test_substitution_composition():
    rng = random.Random(4)
    for _ in range(50):
        t = App(
            Abs("a", Nat, App(Var("F", Arrow(Nat, Nat)), Var("x", Nat), Nat), Arrow(Nat, Nat)),
            Var("y", Nat),
            Nat,
        )
        g1 = {"x": Var("y", Nat)}
        g2 = {"y": Var("z", Nat)}
        lhs = substitute(substitute(t, g1), g2)
        combined = {"x": Var("z", Nat), "y": Var("z", Nat)}
        assert alpha_eq(lhs, substitute(t, combined))


def test_alpha_eq():
    assert alpha_eq(Abs("x", Nat, Var("x"), None), Abs("y", Nat, Var("y"), None))
    assert not alpha_eq(Abs("x", Nat, Var("x"), None), Abs("x", Nat, Var("n"), None))
    u = Var("u", A)
    s = App(Abs("x", A, Var("x"), Arrow(A, A)), u, A)
    t = App(Abs("y", A, Var("y"), Arrow(A, A)), u, A)
    assert alpha_eq(s, t)


def test_alpha_eq_shadowing():
    # \x.\x.\z.z  vs  \a.\b.\c.c  -- shadowed binders must not confuse levels
    s = Abs("x", Nat, Abs("x", Nat, Abs("z", Nat, Var("z"))))
    t = Abs("a", Nat, Abs("b", Nat, Abs("c", Nat, Var("c"))))
    assert alpha_eq(s, t)
    t2 = Abs("a", Nat, Abs("b", Nat, Abs("c", Nat, Var("b"))))
    assert not alpha_eq(s, t2)
    assert s.alpha_class is t.alpha_class
    assert s.alpha_class is not t2.alpha_class


def test_count_abstractions(brouwer):
    assert Var("x").abstractions == 0
    env = dict(brouwer.vars)
    rhs = brouwer.rules[2].rhs  # @(W, F, \n. rec(@(F,n),U,V,W))
    assert rhs.abstractions == 1
    assert Abs("x", A, Abs("y", A, Var("x"))).abstractions == 2


def test_fresh_var():
    assert fresh_var("z", set()) == "z#0"
    assert fresh_var("z", {"z#0"}) == "z#1"
    assert fresh_var("n", {"n#0", "n#1"}) == "n#2"
    # re-freshening a generated name keeps the stem
    assert fresh_var("n#1", {"n#0"}) == "n#1"


def test_printing():
    assert ty_str(Arrow(Arrow(Nat, Ord), Ord)) == "(Nat -> Ord) -> Ord"
    t = Abs("n", Nat, App(Var("F"), Var("n")))
    assert term_str(t) == "\\n:Nat.@(F,n)"


def test_free_vars():
    t = Abs("n", Nat, App(Var("F"), Var("n")))
    assert free_vars(t) == {"F"}


def test_facts_of_a_deep_chain_are_set_without_recursion():
    # c(c(...c(x)...)) of 2,000 levels, built bottom-up under the default
    # recursion limit: each constructor reads only its children's facts.
    # Equality, hashing and printing still recurse, so none is called.
    def chain():
        t = Var("x", Nat)
        for _ in range(2000):
            t = Fun("c", (t,), Nat)
        return t

    a, b = chain(), chain()
    assert (a.size, a.abstractions, a.free_vars) == (2001, 0, {"x"})
    assert a.alpha_class is b.alpha_class
