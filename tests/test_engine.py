import random
import sys
from itertools import combinations

import pytest
from conftest import CORPUS, load, make_toy_ctx, typecheck

from horpo import traces
from horpo.accessibility import acc_candidates
from horpo.context import MUL
from horpo.engine import Engine
from horpo.harness import (
    GenError,
    enumerate_terms,
    exhaustive_check,
    gen_term,
    run_properties,
)
from horpo.problems import parse_problem
from horpo.terms import (
    Abs,
    App,
    Arrow,
    Data,
    Fun,
    Var,
    alpha_eq,
    beta_reduct,
    term_str,
)
from horpo.traces import (
    Trace,
    apply_witness,
    check_trace,
    ext_args,
    trace_to_jsonable,
)
from horpo.typeorder import Cmp, ty_eq, ty_ge

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


def test_rule_level_type_gate(brouwer):
    # lim(F) > F by case 1a, but Ord is not >= Nat -> Ord, so no rule
    F = Var("F", Arrow(Nat, Ord))
    limF = Fun("lim", (F,), Ord)
    assert Engine(brouwer.ctx).gt((), limF, F) is not None
    assert Engine(brouwer.ctx).orient_rule(limF, F) is None


def test_case_3b_needs_equivalent_binder_types(brouwer):
    # s(0) > 0, but the binders range over inequivalent types Ord and Nat
    zero = Fun("0", (), Ord)
    s = Abs("x", Ord, Fun("s", (zero,), Ord), Arrow(Ord, Ord))
    t = Abs("y", Nat, zero, Arrow(Nat, Ord))
    assert Engine(brouwer.ctx).gt((), s, t) is None


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
    N = Data("N")
    engine = Engine(toy_ctx)
    a = Var("a", N)
    g_aa, sc_a = Fun("g", (a, a), N), Fun("sc", (a,), N)
    # {a,a} vs {a}: cancellation leaves one removed element covering nothing
    node = engine._mul_ext((), g_aa, sc_a, pair_kind="union")
    assert node is not None
    assert node.get("cover") == ()
    # identical multisets: strictness fails
    assert engine._mul_ext((), sc_a, sc_a, pair_kind="union") is None


def test_lex_ext(toy_ctx):
    N = Data("N")
    engine = Engine(toy_ctx)
    z = Fun("z", (), N)
    scz = Fun("sc", (z,), N)
    g = lambda *args: Fun("g", args, N)
    node = engine._lex_ext((), g(scz, z), g(z, scz), pair_kind="union")
    assert node is not None and node.get("pos") == 0
    # equal prefix blocks: first differing position must decide
    assert engine._lex_ext((), g(z, z), g(z, scz), pair_kind="union") is None


def test_refl_goal_has_one_memo_entry(brouwer):
    engine = Engine(brouwer.ctx)
    n = Var("n", Nat)
    assert engine.ge((), n, n).label == "refl"
    assert len(engine.memo) == 1


def test_memo_reuse(brouwer):
    engine = Engine(brouwer.ctx)
    lhs, rhs = brouwer.rules[2].lhs, brouwer.rules[2].rhs
    assert engine.orient_rule(lhs, rhs) is not None
    before = len(engine.memo)
    assert engine.orient_rule(lhs, rhs) is not None
    assert len(engine.memo) == before


def test_disabled_case_hook(brouwer, monkeypatch):
    redex = _succ_redex()
    reduct = Fun("s", (Fun("0", (), Ord),), Ord)
    monkeypatch.setattr(Engine, "_case_2c", lambda self, x, s, t: None)
    assert Engine(brouwer.ctx).gt((), redex, reduct) is None


def test_case_1b_needs_every_argument_goal():
    # the lex extension holds (s(x) > x), but the rule loops: its right side
    # holds its left side, so the argument goal f(s(x), y) > itself fails
    p = parse_problem(
        "sort N ; fun s : [N] -> N ; fun f : [N, N] -> N ; var x : N ;"
        " var y : N ; status f lex ; rule f(s(x), y) -> f(x, f(s(x), y)) ;"
    )
    (rule,) = p.rules
    engine = Engine(p.ctx)
    assert engine._lex_ext((), rule.lhs, rule.rhs, "union") is not None
    assert engine.orient_rule(rule.lhs, rule.rhs) is None


def test_all_corpus_rules_orient(brouwer, nat_rec, map_problem):
    for p in (brouwer, nat_rec, map_problem):
        for rule in p.rules:
            assert Engine(p.ctx).orient_rule(rule.lhs, rule.rhs) is not None


def test_eta_case_3c(brouwer):
    F = Var("F", Arrow(Nat, Ord))
    eta = Abs("x", Nat, App(F, Var("x", Nat), Ord), Arrow(Nat, Ord))
    tr = Engine(brouwer.ctx).gt((), eta, F)
    assert tr is not None and tr.label == "3c"


# ---------------------------------------------------------------------------
# The witness loops (cases 1a and 2a, accApply) against the uncut witness
# list, and case 1b against the arguments-first order


class _GenericWitnessEngine(Engine):
    """The reference: the engine's witness loops (cases 1a and 2a and the
    accApply composite) over the uncut witness list, which holds every
    candidate of the base (every strict one, for accApply) with every
    vector over X (the empty one included) through `apply_witness`. It
    retires no witness, so the engine must agree with it on every verdict,
    trace and memo key."""

    def _witnesses(self, x, base, t, strict):
        ctx = self.ctx
        for w in acc_candidates(ctx.acc, ctx.sort_order, ctx.min_types, base, strict):
            for xs in self._x_vectors(x, w):
                wapp = apply_witness(ctx, w, xs, t.ty)
                if wapp is not None:
                    yield w, tuple(name for name, _ in xs), wapp

    def _x_vectors(self, x, w):
        yield ()
        frontier = [((), w.ty)]
        while frontier:
            nxt = []
            for vec, ty in frontier:
                if not isinstance(ty, Arrow):
                    continue
                for name, vty in x:
                    if ty_eq(self.ctx.sort_order, ty.dom, vty):
                        ext = vec + ((name, vty),)
                        yield ext
                        nxt.append((ext, ty.cod))
            frontier = nxt


class _ArgumentsFirstEngine(Engine):
    """Case 1b with its premises in the paper's order: every argument goal
    s > t_j, then the status extension."""

    def _case_1b(self, x, s, t):
        if not isinstance(t, Fun):
            return None
        if self.ctx.prec.cmp(s.sym, t.sym) is not Cmp.EQ:
            return None
        children = []
        for tj in t.args:
            tr = self.gt(x, s, tj)
            if tr is None:
                return None
            children.append(tr)
        status = self.ctx.statuses[s.sym]
        ext = (self._mul_ext if status == MUL else self._lex_ext)(x, s, t, "union")
        if ext is None:
            return None
        return Trace("1b", s, t, x, (*children, ext), (("status", status),))


def _outcome(engine, kind, x, s, t):
    try:
        trace = getattr(engine, kind)(x, s, t)
    except RecursionError as exc:
        return type(exc).__name__
    return None if trace is None else trace_to_jsonable(trace)


def _assert_agrees(ctx, goals, shared=True):
    """Each goal (kind, x, s, t) gives the same outcome, trace JSON and memo
    (keys, and which of them hold a proof) on the engine and the reference;
    with `shared`, one pair of engines answers the goals in turn."""
    new, ref = Engine(ctx), _GenericWitnessEngine(ctx)
    for kind, x, s, t in goals:
        if not shared:
            new, ref = Engine(ctx), _GenericWitnessEngine(ctx)
        goal = (kind, term_str(s), term_str(t))
        assert _outcome(new, kind, x, s, t) == _outcome(ref, kind, x, s, t), goal
        memo = {key: trace is None for key, trace in new.memo.items()}
        assert memo == {key: trace is None for key, trace in ref.memo.items()}, goal


def _corpus_problems():
    return [
        load(path.name)
        for path in sorted(CORPUS.glob("*.horpo"))
        if path.name != "bad_freevar.horpo"
    ]


def _unary(lhs, rhs):
    return parse_problem(
        "sort N ;\nfun z : [] -> N ;\nfun c : [N] -> N ;\nfun d : [N] -> N ;\n"
        "rule %s -> %s ;\n" % (lhs, rhs)
    )


def _nest(sym, k):
    return "%s(" % sym * k + "z" + ")" * k


def _rule_goals(problems):
    """Each problem's context, with `gt`, `ge` and `gt_type` on both
    directions of each of its rules."""
    for p in problems:
        goals = []
        for rule in p.rules:
            for s, t in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs)):
                goals += [(kind, (), s, t) for kind in ("gt", "ge", "gt_type")]
        yield p.ctx, goals


def _towers(ks):
    """Towers, reversed towers and incomparable towers of each height."""
    for k in ks:
        yield _unary(_nest("c", k), _nest("c", k // 2))
        yield _unary(_nest("c", k // 2), _nest("c", k))
        yield _unary(_nest("c", k), _nest("d", k))


def _rule_and_tower_goals():
    return _rule_goals([*_corpus_problems(), *_towers((2, 5, 8, 16))])


def _seeded_goals():
    for seed, p in enumerate(_corpus_problems()):
        rng = random.Random(seed)
        types = list(p.ctx.universe)
        goals = []
        for _ in range(400):
            try:
                s = gen_term(p.sig, p.vars, rng.choice(types), rng)
                t = gen_term(p.sig, p.vars, rng.choice((s.ty, *types)), rng)
            except GenError:
                continue
            goals += [(kind, (), s, t) for kind in ("gt", "ge", "gt_type")]
        yield p.ctx, goals


def _small_goals():
    for p in _corpus_problems():
        for ty in p.ctx.universe:
            terms = enumerate_terms(p.sig, p.vars, ty, 4)
            yield p.ctx, [("gt", (), s, t) for s in terms for t in terms]


def test_case_1a_agrees_with_the_generic_loop_on_rules_and_towers():
    for ctx, goals in _rule_and_tower_goals():
        _assert_agrees(ctx, goals, shared=False)


def test_case_1a_agrees_with_the_generic_loop_on_seeded_terms():
    for ctx, goals in _seeded_goals():
        _assert_agrees(ctx, goals)


def test_case_1a_agrees_with_the_generic_loop_on_small_terms():
    for ctx, goals in _small_goals():
        _assert_agrees(ctx, goals)


def test_case_1b_extension_first_agrees_with_arguments_first():
    # each goal on fresh engines: the same outcome and trace JSON, and the
    # same answer to every goal both memos hold. The engine's memo is not
    # always part of the reference's: a failing extension can ask pairs
    # (of a smaller kept set, say) that the reference never reaches when an
    # argument goal fails first. In all it holds about a quarter fewer.
    sizes = {Engine: 0, _ArgumentsFirstEngine: 0}
    for ctx, goals in (*_rule_and_tower_goals(), *_seeded_goals(), *_small_goals()):
        for kind, x, s, t in goals:
            new, ref = Engine(ctx), _ArgumentsFirstEngine(ctx)
            goal = (kind, term_str(s), term_str(t))
            assert _outcome(new, kind, x, s, t) == _outcome(ref, kind, x, s, t), goal
            for key in new.memo.keys() & ref.memo.keys():
                assert (new.memo[key] is None) == (ref.memo[key] is None), goal
            sizes[Engine] += len(new.memo)
            sizes[_ArgumentsFirstEngine] += len(ref.memo)
    assert sizes[Engine] < 0.8 * sizes[_ArgumentsFirstEngine]


def test_witness_under_a_binder_orients():
    # without parameters, 0 is the one witness: it sits under the binder of
    # lim's argument, so no argument of lim(\x:Nat. 0) offers it
    zero = Fun("0", (), Ord)
    s = Fun("s", (Fun("lim", (Abs("x", Nat, zero, Arrow(Nat, Ord)),), Ord),), Ord)
    tr = Engine(load("brouwer_search.horpo").ctx).gt((), s, zero)
    assert tr is not None and tr.label == "1a"
    assert alpha_eq(tr.get("w"), zero)


# ---------------------------------------------------------------------------
# The multiset extension against every keep set


def _match_equal(keep, left, right):
    """Match each kept left index, in order, to the least free alpha-equal
    right index: (the pairs sorted by right index, the free right indices),
    or None when some kept index has no partner."""
    free = list(range(len(right)))
    pairs = []
    for i in keep:
        j = next((j for j in free if alpha_eq(left[i], right[j])), None)
        if j is None:
            return None
        free.remove(j)
        pairs.append((i, j))
    return sorted(pairs, key=lambda p: p[1]), free


class _KeepSetEngine(Engine):
    """The multiset extension by its definition: every keep set that leaves
    a left element removed, largest first and then in `combinations`
    order, cancelled against alpha-equal right elements, and each other
    right element covered by the first removed left element that `_pair`
    accepts."""

    def _mul_ext(self, x, s, t, pair_kind):
        left, right = ext_args(s), ext_args(t)
        n = len(left)
        for size in range(min(n - 1, len(right)), -1, -1):
            for keep in combinations(range(n), size):
                match = _match_equal(keep, left, right)
                if match is None:
                    continue
                equal, leftover = match
                removed = [i for i in range(n) if i not in keep]
                cover, children = [], []
                for j in leftover:
                    for i in removed:
                        tr = self._pair(x, left[i], right[j], pair_kind)
                        if tr is not None:
                            cover.append((i, j))
                            children.append(tr)
                            break
                    else:
                        break
                else:
                    aux = (("equal", tuple(equal)), ("cover", tuple(cover)))
                    return Trace("mulExt", s, t, x, tuple(children), aux)
        return None


def _multisets(n):
    """The benchmark's oriented f(s(x0), x1..) -> f(x1.., x0) and the
    non-oriented f(x0..x(n-1)) -> f(x0..x(n-2), x0), of arity n."""
    xs = ["x%d" % i for i in range(n)]
    return parse_problem(
        "sort N ;\nfun s : [N] -> N ;\nfun f : [%s] -> N ;\n" % ", ".join(["N"] * n)
        + "".join("var %s : N ;\n" % x for x in xs)
        + "rule f(s(%s)%s) -> f(%s) ;\n"
        % (xs[0], "".join(", " + x for x in xs[1:]), ", ".join(xs[1:] + xs[:1]))
        + "rule f(%s) -> f(%s) ;\n" % (", ".join(xs), ", ".join(xs[:-1] + xs[:1]))
    )


def test_multiset_extension_agrees_with_every_keep_set():
    # each goal on fresh engines: the same outcome and trace JSON, and the
    # same answer to every goal both memos hold
    problems = _measure_files() + list(_towers((2, 3, 4, 6, 8, 12, 16, 24, 32)))
    problems += [_multisets(n) for n in range(2, 11)]
    sources = (*_rule_goals(problems), *_seeded_goals(), *_small_goals())
    for ctx, goals in sources:
        for kind, x, s, t in goals:
            new, ref = Engine(ctx), _KeepSetEngine(ctx)
            goal = (kind, term_str(s), term_str(t))
            assert _outcome(new, kind, x, s, t) == _outcome(ref, kind, x, s, t), goal
            for key in new.memo.keys() & ref.memo.keys():
                assert (new.memo[key] is None) == (ref.memo[key] is None), goal


def _relation_engines(monkeypatch, holds):
    """The engine and the keep-set reference with `_pair` replaced by the
    relation `holds` on the two elements' names; toy terms `z`, `sc(z)`,
    ... stand for the elements."""

    def pair(self, x, a, b, pair_kind):
        return Trace("refl", a, b, x) if (a.sym, b.sym) in holds else None

    monkeypatch.setattr(Engine, "_pair", pair)
    return Engine(make_toy_ctx()), _KeepSetEngine(make_toy_ctx())


def _elements(names):
    return Fun("f", tuple(Fun(name) for name in names))


def test_non_transitive_pairs_need_a_witness_below_maximal_cancellation(monkeypatch):
    # {a, b} > {a, c} holds only through b > a and a > c: maximal
    # cancellation keeps a and asks b > c, which fails
    new, ref = _relation_engines(monkeypatch, {("b", "a"), ("a", "c")})
    s, t = _elements("ab"), _elements("ac")
    tr = new._mul_ext((), s, t, "union")
    assert tr is not None and ref._mul_ext((), s, t, "union") is not None
    assert tr.get("equal") == () and tr.get("cover") == ((1, 0), (0, 1))
    # {a, b, d} > {a, b, c} through d > a and a > c: no class covers b,
    # so b stays cancelled while a is opened
    new, ref = _relation_engines(monkeypatch, {("d", "a"), ("a", "c")})
    s, t = _elements("abd"), _elements("abc")
    tr = new._mul_ext((), s, t, "union")
    assert tr is not None and ref._mul_ext((), s, t, "union") is not None
    assert tr.get("equal") == ((1, 1),) and tr.get("cover") == ((2, 0), (0, 2))


def test_an_uncovered_class_with_more_right_copies_fails(monkeypatch):
    # {a, b} against {a, a, b} with only b > a: keeping b leaves a's two
    # right copies to a's one removed copy, and opening b leaves b, which
    # nothing covers
    new, ref = _relation_engines(monkeypatch, {("b", "a")})
    s, t = _elements("ab"), _elements("aab")
    assert new._mul_ext((), s, t, "union") is None
    assert ref._mul_ext((), s, t, "union") is None
    # with a > b as well, opening both classes works
    new, ref = _relation_engines(monkeypatch, {("b", "a"), ("a", "b")})
    assert new._mul_ext((), s, t, "union") is not None
    assert ref._mul_ext((), s, t, "union") is not None


def test_random_relations_give_the_reference_verdicts(monkeypatch):
    # pairs decided by a random relation on five elements, transitive or
    # not: the engine finds a witness exactly when some keep set has one,
    # and each witness it finds is one
    rng = random.Random(25)
    names = "abcde"
    for _ in range(1500):
        holds = {(a, b) for a in names for b in names if rng.random() < 0.3}
        new, ref = _relation_engines(monkeypatch, holds)
        left = rng.choices(names[:4], k=rng.randint(0, 5))
        right = rng.choices(names[1:], k=rng.randint(0, 5))
        s, t = _elements(left), _elements(right)
        tr = new._mul_ext((), s, t, "union")
        assert (tr is None) == (ref._mul_ext((), s, t, "union") is None)
        if tr is not None:
            equal, cover = tr.get("equal"), tr.get("cover")
            assert all(left[i] == right[j] for i, j in equal)
            assert len(equal) < len(left)
            assert sorted(j for _, j in (*equal, *cover)) == list(range(len(right)))
            assert not {i for i, _ in equal} & {i for i, _ in cover}
            assert all((left[i], right[j]) in holds for i, j in cover)


@pytest.mark.parametrize("n, calls", [(14, 14), (64, 64)])
def test_failing_multiset_work_is_pinned(monkeypatch, n, calls):
    # f(x0..x(n-1)) > f(x0..x(n-2), x0): maximal cancellation asks
    # x(n-1) > x0, and x0, which has more right copies than left ones,
    # then has no cover among the n classes. `_KeepSetEngine` makes
    # 576 / 2,816 / 13,312 / 61,440 calls at n = 8 / 10 / 12 / 14
    gt_type, made = Engine.gt_type, []

    def counted(engine, x, s, t):
        made.append(None)
        return gt_type(engine, x, s, t)

    monkeypatch.setattr(Engine, "gt_type", counted)
    p = _multisets(n)
    rule = p.rules[1]
    assert Engine(p.ctx).orient_rule(rule.lhs, rule.rhs) is None
    assert len(made) == calls <= 2 * n


@pytest.mark.parametrize(
    "lhs, rhs, calls, entries",
    [
        (_nest("c", 16), _nest("c", 32), 136, 153),
        (_nest("c", 32), _nest("c", 64), 528, 561),
        (_nest("c", 64), _nest("c", 128), 2080, 2145),
        (_nest("c", 32), _nest("d", 32), 32, 33),
    ],
    ids=["tower_rev32", "tower_rev64", "tower_rev128", "incomparable32"],
)
def test_not_oriented_tower_work_is_pinned(monkeypatch, lhs, rhs, calls, entries):
    # pinned; deciding case 1b's extension first walks a reversed tower's
    # failing goals down the diagonal: about k^2/8 goals for a right side
    # c^k(z). The arguments-first order gave 528 calls and 562 goals at k = 32 and
    # 2,080 and 2,146 at k = 64; the generic witness loop of that order
    # made 3,128 and 23,408 calls
    ge, made = Engine.ge, []

    def counted(engine, x, s, t):
        made.append(None)
        return ge(engine, x, s, t)

    monkeypatch.setattr(Engine, "ge", counted)
    p = _unary(lhs, rhs)
    engine = Engine(p.ctx)
    assert engine.orient_rule(p.rules[0].lhs, p.rules[0].rhs) is None
    assert (len(made), len(engine.memo)) == (calls, entries)


# ---------------------------------------------------------------------------
# The paper's first two claims as contrasts: each engine below drops one of
# its choices and loses rules the paper's definition orients


class _GatedEveryGoalEngine(Engine):
    """The type gate type(s) >= type(t) on every goal s > t, as in the
    definition that Jouannaud & Rubio (JACM 2007) refine; the paper asks it
    only where types must be compared (`gt_type`)."""

    def gt(self, x, s, t):
        if not ty_ge(self.ctx.sort_order, s.ty, t.ty):
            return None
        return super().gt(x, s, t)


class _UnappliedWitnessEngine(Engine):
    """No witness is applied to variables of X: the bound variables serve
    case 4a only."""

    def _x_vectors(self, x, w):
        yield from ()


def _lost_rules(contrast):
    """The rules of `corpus/` and `tests/data/positive`, as "file n" with n
    counted from 1, that the engine orients and `contrast` does not; the
    contrast orients none that the engine does not."""
    paths = sorted(CORPUS.glob("*.horpo"))
    paths += sorted((CORPUS.parent / "tests" / "data" / "positive").glob("*.horpo"))
    lost = []
    for path in paths:
        if path.name == "bad_freevar.horpo":
            continue
        p = parse_problem(path.read_text())
        for n, rule in enumerate(p.rules, start=1):
            ours = Engine(p.ctx).orient_rule(rule.lhs, rule.rhs) is not None
            theirs = contrast(p.ctx).orient_rule(rule.lhs, rule.rhs) is not None
            assert ours or not theirs, (path.name, n)
            if ours and not theirs:
                lost.append("%s %d" % (path.stem, n))
    return lost


def test_a_type_gate_on_every_goal_loses_rules():
    # claim 1: type comparisons only where needed
    assert _lost_rules(_GatedEveryGoalEngine) == [
        "brouwer 2",
        "brouwer 3",
        "brouwer_search 2",
        "map 2",
        "nat_rec 2",
        "limit2 2",
        "limit2 3",
        "list_limit 2",
        "list_limit 3",
        "tree 2",
        "two_branches 2",
    ]


def test_no_witness_applied_to_bound_variables_loses_rules():
    # claim 2: bound variables are explicit, and witnesses are applied to them
    assert _lost_rules(_UnappliedWitnessEngine) == [
        "brouwer 3",
        "limit2 3",
        "list_limit 3",
        "tree 2",
        "two_branches 2",
    ]


# ---------------------------------------------------------------------------
# Stack frames per tower level, which set how deep a tower `check` decides
# (README)


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _first_depths(monkeypatch, owner, name, sides):
    """Patch `owner.name` to record the stack depth of its first call on
    each pair of side sizes; `sides` picks the two sides from the call's
    arguments. The patch puts one frame of its own under each call."""
    original, depths = getattr(owner, name), {}

    def recording(*args):
        s, t = sides(*args)
        depths.setdefault((s.size, t.size), _stack_depth())
        return original(*args)

    monkeypatch.setattr(owner, name, recording)
    return depths


@pytest.mark.parametrize(
    "m, engine_frames, trace_levels",
    [(0, 3, 1), (20, 5, 3)],
    ids=["case_1a", "case_1b"],
)
def test_frames_per_tower_level_are_pinned(monkeypatch, m, engine_frames, trace_levels):
    # c^40(z) > c^m(z) first asks c^(40-i)(z) > c^(m-i)(z) (> z, once m-i
    # is 0) i levels down a chain that spends, per level, `gt`, `_case_1a`
    # and `ge` on case 1a, and `gt`, `_case_1b`, `_mul_ext`, `_pair` and
    # `gt_type` on case 1b. The replay spends one frame per trace level:
    # per tower level, the 1a node, or the 1b, mulExt and typeCheck nodes
    k = 40
    p = _unary(_nest("c", k), _nest("c", m))
    rule = p.rules[0]
    goals = _first_depths(monkeypatch, Engine, "gt", lambda e, x, s, t: (s, t))
    trace = Engine(p.ctx).orient_rule(rule.lhs, rule.rhs)
    replayed = _first_depths(
        monkeypatch, traces, "_check_goal", lambda ctx, tr, kind, x, s, t, done: (s, t)
    )
    check_trace(p.ctx, trace, "gt", ())

    def per_level(depths, calls):
        # from 2 to 12 levels down, less the patch's frame per call
        down = [depths[k - i + 1, max(m - i, 0) + 1] for i in (2, 12)]
        return (down[1] - down[0]) / 10 - calls

    assert per_level(goals, 1) == engine_frames
    assert per_level(replayed, trace_levels) == trace_levels


# ---------------------------------------------------------------------------
# The termination measure of the recursion (see the module docstring of
# `horpo.engine`): mu(X, s, t) = (|t|, |X|, s), lexicographically, with left
# sides ordered by (->beta u |>)+


class _Erased:
    """Terms up to the names of their variables, free and bound, as small
    integers: opening a binder renames its variable, so the subterm step
    of the measure compares these shapes. Each node's shape and the
    shapes of its strict subterms are cached by identity, with the node
    kept alive."""

    def __init__(self):
        self.ids, self.shapes, self.below = {}, {}, {}

    def shape(self, t):
        got = self.shapes.get(id(t))
        if got is not None:
            return got[1]
        if isinstance(t, Var):
            key = ("var", t.ty)
        elif isinstance(t, Fun):
            key = ("fun", t.sym, *[self.shape(a) for a in t.args])
        elif isinstance(t, App):
            key = ("app", self.shape(t.fn), self.shape(t.arg))
        else:
            key = ("abs", t.var_ty, self.shape(t.body))
        shape = self.ids.setdefault(key, len(self.ids))
        self.shapes[id(t)] = (t, shape)
        return shape

    def strict_subterms(self, t):
        """The shapes of the strict subterms of `t`, binder bodies included."""
        got = self.below.get(id(t))
        if got is not None:
            return got[1]
        if isinstance(t, Fun):
            parts = t.args
        elif isinstance(t, App):
            parts = (t.fn, t.arg)
        else:
            parts = (t.body,) if isinstance(t, Abs) else ()
        out = set()
        for u in parts:
            out.add(self.shape(u))
            out |= self.strict_subterms(u)
        self.below[id(t)] = (t, out)
        return out


def _measure_step(parent, child, erased):
    """The component of the measure that the step from goal `parent` to
    goal `child`, each (X, s, t), decreases: "t", "X", "subterm" (the left
    side moves to a strict subterm, up to variable names) or "beta" (to its
    beta-reduct); None when the measure does not decrease."""
    (x, s, t), (cx, cs, ct) = parent, child
    if ct.size != t.size:
        return "t" if ct.size < t.size else None
    if len(cx) != len(x):
        return "X" if len(cx) < len(x) else None
    if erased.shape(cs) in erased.strict_subterms(s):
        return "subterm"
    reduct = beta_reduct(s)
    if reduct is not None and alpha_eq(reduct, cs):
        return "beta"
    return None


def _measure_files():
    data = CORPUS.parent / "tests" / "data"
    paths = sorted((data / "loops").glob("*.horpo"))
    paths += sorted((data / "positive").glob("*.horpo"))
    return _corpus_problems() + [parse_problem(p.read_text()) for p in paths]


def test_every_engine_goal_decreases_the_measure(monkeypatch):
    # every call of `gt` made while another is running is a parent -> child
    # step, memo hits included
    gt, stack, edges = Engine.gt, [], []

    def recording(engine, x, s, t):
        if stack:
            edges.append((stack[-1], (x, s, t)))
        stack.append((x, s, t))
        try:
            return gt(engine, x, s, t)
        finally:
            stack.pop()

    monkeypatch.setattr(Engine, "gt", recording)
    files = _measure_files()
    towers = []
    for k in (8, 16, 32):
        towers.append(_unary(_nest("c", k), _nest("c", k // 2)))
        towers.append(_unary(_nest("c", k // 2), _nest("c", k)))
        towers.append(_unary(_nest("c", k), "z"))
    for p in files + towers:
        for rule in p.rules:
            Engine(p.ctx).orient_rule(rule.lhs, rule.rhs)
    for p in files:
        for seed in (1, 2, 3):
            run_properties(p.ctx, p.vars, seed=seed)
        for ty in p.ctx.universe:
            exhaustive_check(p.ctx, p.vars, ty, 3)
    assert not stack

    erased = _Erased()
    kinds = {"t": 0, "X": 0, "subterm": 0, "beta": 0}
    larger = {"X": 0, "beta": 0}
    for parent, child in edges:
        kind = _measure_step(parent, child, erased)
        assert kind is not None, [
            (len(x), term_str(s), term_str(t)) for x, s, t in (parent, child)
        ]
        kinds[kind] += 1
        if kind in larger and child[1].size >= parent[1].size:
            larger[kind] += 1
    assert all(kinds.values()) and all(larger.values()), (kinds, larger)

    # a step that grows t is refused, though its left side moves to a
    # strict subterm
    zero = Fun("0", (), Ord)
    one = Fun("s", (zero,), Ord)
    assert _measure_step(((), one, zero), ((), zero, one), erased) is None
