"""Alpha-equivalence classes cached on term nodes, and what is built on them.

The recursive walker below is the reference definition of alpha-equality;
the cached classes must agree with it on every pair of terms.
"""
import gc
import random
import weakref
from itertools import combinations, count, permutations

import pytest

from conftest import load
from horpo.engine import Engine
from horpo.harness import enumerate_terms
from horpo.problems import parse_problem
from horpo.terms import Abs, App, Data, Fun, Var, alpha_eq

Nat = Data("Nat")
Ord = Data("Ord")


def walker_alpha_eq(s, t):
    """Equality up to renaming of bound variables (binder types must match),
    by a simultaneous walk that maps each binder to its depth."""

    def go(s, t, ms, mt, depth):
        if type(s) is not type(t):
            return False
        if isinstance(s, Var):
            a, b = ms.get(s.name), mt.get(t.name)
            if a is None and b is None:
                return s.name == t.name
            return a == b
        if isinstance(s, Fun):
            return (
                s.sym == t.sym
                and len(s.args) == len(t.args)
                and all(go(a, b, ms, mt, depth) for a, b in zip(s.args, t.args))
            )
        if isinstance(s, App):
            return go(s.fn, t.fn, ms, mt, depth) and go(s.arg, t.arg, ms, mt, depth)
        if s.var_ty != t.var_ty:
            return False
        return go(
            s.body, t.body, {**ms, s.var: depth}, {**mt, t.var: depth}, depth + 1
        )

    return go(s, t, {}, {}, 0)


def rename_binders(t, pick):
    """Rename every binder of `t` to `pick(old name)`, with no capture
    avoidance, so the result may or may not be alpha-equal to `t`."""

    def go(t, env):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name), t.ty)
        if isinstance(t, Fun):
            return Fun(t.sym, tuple(go(a, env) for a in t.args), t.ty)
        if isinstance(t, App):
            return App(go(t.fn, env), go(t.arg, env), t.ty)
        new = pick(t.var)
        return Abs(new, t.var_ty, go(t.body, {**env, t.var: new}), t.ty)

    return go(t, {})


def assert_agrees(pool):
    for s in pool:
        for t in pool:
            want = walker_alpha_eq(s, t)
            assert (s.alpha_class is t.alpha_class) == want, (s, t)
            assert alpha_eq(s, t) == want


@pytest.mark.parametrize("name", ["brouwer.horpo", "map.horpo"])
def test_classes_agree_with_walker_on_enumerated_terms(name):
    p = load(name)
    terms = [t for ty in p.ctx.universe for t in enumerate_terms(p.sig, p.vars, ty, 4)]
    assert any(isinstance(t, Abs) for t in terms)
    counter = count()
    pool = list(terms)
    # fresh binder names: alpha-equal to the original
    pool += [rename_binders(t, lambda _: "b#%d" % next(counter)) for t in terms]
    # one name for every binder: shadows outer binders
    pool += [rename_binders(t, lambda _: "x") for t in terms]
    # binders named like free variables: may capture them
    for v in sorted(p.vars):
        pool += [rename_binders(t, lambda _: v) for t in terms]
    assert_agrees(pool)


def test_classes_agree_with_walker_on_shadowing():
    x, y, z, n = (Var(v) for v in "xyzn")
    c = Fun("c")
    pool = [
        Abs("x", Nat, Abs("x", Nat, Abs("z", Nat, z))),
        Abs("a", Nat, Abs("b", Nat, Abs("c", Nat, Var("c")))),
        Abs("a", Nat, Abs("b", Nat, Abs("c", Nat, Var("b")))),
        Abs("x", Nat, Abs("x", Nat, x)),
        Abs("x", Nat, Abs("y", Nat, y)),
        Abs("x", Nat, Abs("y", Nat, x)),
        Abs("x", Nat, x),
        Abs("y", Nat, y),
        Abs("x", Ord, x),
        Abs("x", Nat, n),
        Abs("n", Nat, n),
        Abs("x", Nat, Fun("f", (c,))),
        Abs("y", Nat, Fun("f", (c,))),
        Fun("f", (c,)),
        Fun("g", (Abs("x", Nat, x), Abs("y", Nat, y))),
        Fun("g", (Abs("x", Nat, x), Abs("y", Nat, x))),
        Abs("x", Nat, Fun("g", (x, x))),
        Abs("y", Nat, Fun("g", (y, x))),
        Abs("x", Nat, App(Abs("y", Nat, Fun("g", (x, y))), x)),
        Abs("y", Nat, App(Abs("x", Nat, Fun("g", (y, x))), y)),
        Abs("y", Nat, App(Abs("y", Nat, Fun("g", (y, y))), y)),
        App(Abs("x", Nat, x), n),
        App(Abs("n", Nat, n), n),
        x,
        n,
        Var("x", Ord),
    ]
    assert_agrees(pool)


def match_by_permutations(keep, left, right):
    """The first matching of kept left indices to alpha-equal right indices
    in permutation order."""
    for perm in permutations(range(len(right)), len(keep)):
        if all(walker_alpha_eq(left[i], right[j]) for i, j in zip(keep, perm)):
            equal_pairs = sorted(zip(keep, perm), key=lambda p: p[1])
            return equal_pairs, [j for j in range(len(right)) if j not in perm]
    return None


def test_greedy_match_equals_permutation_order(toy_ctx):
    engine = Engine(toy_ctx)
    # few distinct classes, each spelt several ways, so elements repeat
    atoms = [
        Var("x"),
        Fun("z"),
        Fun("sc", (Fun("z"),)),
        Abs("a", Nat, Var("a")),
        Abs("b", Nat, Var("b")),
    ]
    rng = random.Random(20)
    for _ in range(300):
        left = [rng.choice(atoms) for _ in range(rng.randint(0, 5))]
        right = [rng.choice(atoms) for _ in range(rng.randint(0, 5))]
        for size in range(min(len(left), len(right)) + 1):
            for keep in combinations(range(len(left)), size):
                want = match_by_permutations(keep, left, right)
                assert engine._match_equal(keep, left, right) == want


def _tower(k, rhs_k, rhs_sym="c", reverse=False):
    nest = lambda sym, n: "%s(" % sym * n + "z" + ")" * n
    big, small = nest("c", k), nest(rhs_sym, rhs_k)
    lhs, rhs = (small, big) if reverse else (big, small)
    return (
        "sort N ;\nfun z : [] -> N ;\nfun c : [N] -> N ;\nfun d : [N] -> N ;\n"
        "rule %s -> %s ;\n" % (lhs, rhs)
    )


def _multiset(n):
    xs = ["x%d" % i for i in range(n)]
    return (
        "sort N ;\nfun s : [N] -> N ;\nfun f : [%s] -> N ;\n" % ", ".join(["N"] * n)
        + "".join("var %s : N ;\n" % x for x in xs)
        + "rule f(s(%s), %s) -> f(%s) ;\n"
        % (xs[0], ", ".join(xs[1:]), ", ".join(xs[1:] + xs[:1]))
    )


MEMO_SIZES = [
    ("tower", 16, _tower(16, 8), True, 53),
    ("tower", 24, _tower(24, 12), True, 103),
    ("tower", 32, _tower(32, 16), True, 169),
    ("tower_rev", 16, _tower(16, 8, reverse=True), False, 154),
    ("tower_rev", 24, _tower(24, 12, reverse=True), False, 326),
    ("tower_rev", 32, _tower(32, 16, reverse=True), False, 562),
    ("incomparable", 16, _tower(16, 16, "d"), False, 17),
    ("incomparable", 24, _tower(24, 24, "d"), False, 25),
    ("incomparable", 32, _tower(32, 32, "d"), False, 33),
    ("multiset", 6, _multiset(6), True, 19),
    ("multiset", 7, _multiset(7), True, 22),
    ("multiset", 8, _multiset(8), True, 25),
]


@pytest.mark.parametrize(
    "text,oriented,memo",
    [m[2:] for m in MEMO_SIZES],
    ids=["%s-%d" % m[:2] for m in MEMO_SIZES],
)
def test_memo_sizes_pinned(text, oriented, memo):
    p = parse_problem(text)
    rule = p.rules[0]
    engine = Engine(p.ctx)
    assert (engine.orient_rule(rule.lhs, rule.rhs) is not None) == oriented
    assert len(engine.memo) == memo


def test_dropping_the_engine_frees_its_terms(brouwer):
    # the terms come from a second parse; the context outlives them
    fresh = load("brouwer.horpo")
    lhs, rhs = fresh.rules[2].lhs, fresh.rules[2].rhs
    del fresh
    ref = weakref.ref(lhs)
    engine = Engine(brouwer.ctx)
    assert engine.orient_rule(lhs, rhs) is not None
    del engine, lhs, rhs
    gc.collect()
    assert ref() is None
