"""Randomized and exhaustive checks of the ordering's metatheory.

Hand-rolled, seed-deterministic generators produce well-typed terms over a
problem's signature; the property runner then probes irreflexivity,
stability under substitution, monotonicity, and compatibility with beta/eta
reduction, replaying every produced trace through the independent validator.
A small parameter search enumerates sort orders, precedences and statuses
until all rules of a problem orient.
"""
from __future__ import annotations

import random
from itertools import product
from typing import Callable

from .accessibility import APP_SYM
from .context import LEX, MUL, OrderingContext
from .engine import Engine
from .terms import (
    Abs,
    AlphaClass,
    App,
    Arrow,
    Data,
    Fun,
    Signature,
    Term,
    Ty,
    Var,
    beta_reduct,
    eta_reduct,
    free_vars,
    fresh_var,
    substitute,
    term_str,
    ty_str,
)
from .traces import TraceError, check_trace
from .typeorder import Cmp, SortOrder, validate_axioms


class GenError(Exception):
    """No term of the requested type exists under the given signature."""


class GenConfig:
    def __init__(
        self, max_size: int = 12, abs_prob: float = 0.5, app_prob: float = 0.25,
        max_tries: int = 200,
    ):
        self.max_size = max_size
        self.abs_prob = abs_prob
        self.app_prob = app_prob
        self.max_tries = max_tries


# ---------------------------------------------------------------------------
# Term generation


def gen_term(
    sig: Signature,
    env: dict[str, Ty],
    ty: Ty,
    rng: random.Random,
    config: GenConfig | None = None,
    size: int | None = None,
) -> Term:
    """A random well-typed term of type `ty`, annotated at every node.

    Raises GenError when no term of that type can be built from `env` and
    the signature's symbols."""
    config = config or GenConfig()
    budget = size if size is not None else rng.randint(1, config.max_size)
    for _ in range(config.max_tries):
        t = _gen(sig, dict(env), ty, rng, config, budget)
        if t is not None:
            return t
        budget = max(1, budget - 1)
    raise GenError("cannot inhabit type %s" % ty_str(ty))


def _gen(
    sig: Signature,
    env: dict[str, Ty],
    ty: Ty,
    rng: random.Random,
    config: GenConfig,
    budget: int,
) -> Term | None:
    options: list[str] = []
    vars_here = [n for n, vt in env.items() if vt == ty]
    # leaves are cheap; while budget remains, mostly try to spend it
    if vars_here and (budget <= 2 or rng.random() < 0.3):
        options.append("var")
    funs_here = [
        f
        for f in sig.funs
        if f.out_ty == ty and (budget > f.arity or f.arity == 0)
    ]
    if funs_here:
        options.append("fun")
    if isinstance(ty, Arrow) and rng.random() < config.abs_prob:
        options.append("abs")
    if budget >= 3 and rng.random() < config.app_prob:
        options.append("app")
    rng.shuffle(options)
    # cheap constructors as a last resort even when the dice said no
    if isinstance(ty, Arrow) and "abs" not in options:
        options.append("abs")
    if vars_here and "var" not in options:
        options.append("var")
    if not options:
        return None
    for opt in options:
        if opt == "var":
            name = rng.choice(vars_here)
            return Var(name, env[name])
        if opt == "fun":
            f = rng.choice(funs_here)
            args = []
            share = max(1, (budget - 1) // max(1, f.arity)) if f.arity else 0
            ok = True
            for at in f.arg_tys:
                a = _gen(sig, env, at, rng, config, share)
                if a is None:
                    ok = False
                    break
                args.append(a)
            if ok:
                return Fun(f.name, tuple(args), f.out_ty)
        if opt == "abs":
            name = fresh_var("x", set(env))
            inner = dict(env)
            inner[name] = ty.dom
            body = _gen(sig, inner, ty.cod, rng, config, max(1, budget - 1))
            if body is not None:
                return Abs(name, ty.dom, body, ty)
        if opt == "app":
            arg_ty = rng.choice(_candidate_arg_types(sig, env))
            fn = _gen(sig, env, Arrow(arg_ty, ty), rng, config, (budget - 1) // 2)
            if fn is None:
                continue
            arg = _gen(sig, env, arg_ty, rng, config, (budget - 1) // 2)
            if arg is None:
                continue
            return App(fn, arg, ty)
    return None


def _candidate_arg_types(sig: Signature, env: dict[str, Ty]) -> list[Ty]:
    tys = [t for f in sig.funs for t in (*f.arg_tys, f.out_ty)]
    tys.extend(env.values())
    return list(dict.fromkeys(tys)) or [Data("o")]


# ---------------------------------------------------------------------------
# Reduction steps


def _places(t: Term, binders: bool) -> list[tuple[Term, Callable[[Term], Term]]]:
    """Each subterm occurrence u of `t`, pre-order, left to right, with
    `plug`, which rebuilds `t` with a given term in u's place. Abstraction
    bodies are entered only when `binders` is true: a term put there may
    capture the bound variable."""
    out = []
    stack = [(t, lambda v: v)]
    while stack:
        u, plug = stack.pop()
        out.append((u, plug))
        if isinstance(u, App):
            stack.append((u.arg, lambda v, u=u, plug=plug: plug(App(u.fn, v, u.ty))))
            stack.append((u.fn, lambda v, u=u, plug=plug: plug(App(v, u.arg, u.ty))))
        elif isinstance(u, Fun):
            for i in reversed(range(len(u.args))):
                def put(v, u=u, i=i, plug=plug):
                    return plug(Fun(u.sym, u.args[:i] + (v,) + u.args[i + 1 :], u.ty))
                stack.append((u.args[i], put))
        elif binders and isinstance(u, Abs):
            def put(v, u=u, plug=plug):
                return plug(Abs(u.var, u.var_ty, v, u.ty))
            stack.append((u.body, put))
    return out


def _steps(t: Term, root: Callable[[Term], Term | None]) -> list[Term]:
    """All one-step reducts of `t`, annotations preserved, where `root(u)`
    is the reduct of a redex u and None on any other term. The reduct at
    the root comes first, then those inside the parts, left to right."""
    return [
        plug(reduct)
        for u, plug in _places(t, True)
        if (reduct := root(u)) is not None
    ]


def beta_step(t: Term) -> list[Term]:
    """All one-step beta reducts of `t`, annotations preserved."""
    return _steps(t, beta_reduct)


def eta_step(t: Term) -> list[Term]:
    """All one-step eta reducts of `t`."""
    return _steps(t, eta_reduct)


def inject_beta_redex(
    sig: Signature, env: dict[str, Ty], t: Term, rng: random.Random
) -> Term:
    """Replace one random subterm u of `t` by @(\\x:T. u', a) reducing to u."""
    u, plug = rng.choice(_places(t, False))
    arg_ty = rng.choice(_candidate_arg_types(sig, env))
    arg = gen_term(sig, env, arg_ty, rng, size=2)
    x = fresh_var("b", free_vars(t) | set(env))
    # \x. u  ignores x, so the redex reduces to u itself
    redex = App(Abs(x, arg_ty, u, Arrow(arg_ty, u.ty)), arg, u.ty)
    return plug(redex)


def inject_eta_redex(t: Term, rng: random.Random) -> Term | None:
    """Wrap one random arrow-typed subterm w as \\x:dom. @(w, x)."""
    places = [(w, plug) for w, plug in _places(t, False) if isinstance(w.ty, Arrow)]
    if not places:
        return None
    w, plug = rng.choice(places)
    ty = w.ty
    x = fresh_var("e", free_vars(w))
    wrapped = Abs(x, ty.dom, App(w, Var(x, ty.dom), ty.cod), ty)
    return plug(wrapped)


# ---------------------------------------------------------------------------
# Property runner


class Finding:
    def __init__(self, prop: str, detail: str):
        self.prop = prop
        self.detail = detail

    def __str__(self) -> str:
        return "%s: %s" % (self.prop, self.detail)


def _shrink(check, t: Term) -> Term:
    """Greedy shrink: a failing term is replaced by its smallest failing
    subterm-or-variable simplification. `check(t)` is True when t still
    exhibits the failure."""
    changed = True
    while changed:
        changed = False
        for sub, plug in _places(t, False)[1:]:
            if sub.size <= 1:
                continue
            candidate = plug(Var(fresh_var("s", free_vars(t)), sub.ty))
            if check(candidate):
                t = candidate
                changed = True
                break
    return t


def run_properties(
    ctx: OrderingContext,
    env: dict[str, Ty],
    samples: int = 50,
    seed: int = 0,
    config: GenConfig | None = None,
) -> list[Finding]:
    """Probe the ordering on random terms, all with one engine as they share
    one context; returns a list of findings (empty means every probe passed)."""
    rng = random.Random(seed)
    config = config or GenConfig()
    findings: list[Finding] = []
    sig = ctx.sig
    tys = _candidate_arg_types(sig, env)
    engine = Engine(ctx)

    for k in range(samples):
        ty = rng.choice(tys)
        try:
            s = gen_term(sig, env, ty, rng, config)
        except GenError:
            continue

        # irreflexivity
        if engine.gt((), s, s) is not None:
            bad = _shrink(lambda u: Engine(ctx).gt((), u, u) is not None, s)
            findings.append(Finding("irreflexivity", "%s > itself" % term_str(bad)))

        # beta, then eta compatibility: a term strictly dominates its
        # one-step reducts; one reduct per sample keeps the suite fast
        for prop, inject, step in (
            ("beta", lambda: inject_beta_redex(sig, env, s, rng), beta_step),
            ("eta", lambda: inject_eta_redex(s, rng), eta_step),
        ):
            try:
                redex = inject()
            except GenError:  # no small closed argument for the redex: no probe
                continue
            reducts = step(redex) if redex is not None else []
            if not reducts:
                continue
            tr = engine.gt_type((), redex, reducts[0])
            if tr is None:
                shown = term_str(redex), term_str(reducts[0])
                findings.append(Finding(prop, "%s not > its reduct %s" % shown))
            else:
                _validate(ctx, tr, findings, prop)

        # stability and monotonicity against a second sample
        try:
            t = gen_term(sig, env, ty, rng, config)
        except GenError:
            continue
        tr = engine.gt_type((), s, t)
        if tr is None:
            continue
        _validate(ctx, tr, findings, "trace")
        theta = _gen_subst(sig, env, s, t, rng)
        if theta:
            s2, t2 = substitute(s, theta), substitute(t, theta)
            if engine.gt_type((), s2, t2) is None:
                findings.append(
                    Finding(
                        "stability",
                        "%s > %s lost under substitution (%s > %s)"
                        % (term_str(s), term_str(t), term_str(s2), term_str(t2)),
                    )
                )
        wrapped = _wrap_context(sig, s, t, rng)
        if wrapped is not None:
            ws, wt = wrapped
            if engine.gt_type((), ws, wt) is None:
                findings.append(
                    Finding(
                        "monotonicity",
                        "%s > %s lost in context (%s vs %s)"
                        % (term_str(s), term_str(t), term_str(ws), term_str(wt)),
                    )
                )
    return findings


def _validate(ctx, trace, findings: list[Finding], prop: str) -> None:
    """Replay `trace`, a proof of a `gt_type` goal under the empty X."""
    try:
        check_trace(ctx, trace, "gt_type", ())
    except TraceError as exc:
        findings.append(Finding(prop + "-trace", str(exc)))


def _gen_subst(
    sig: Signature, env: dict[str, Ty], s: Term, t: Term, rng: random.Random
) -> dict[str, Term]:
    theta: dict[str, Term] = {}
    for name in sorted(free_vars(s) | free_vars(t)):
        if name not in env:
            continue
        if rng.random() < 0.5:
            continue
        try:
            theta[name] = gen_term(sig, env, env[name], rng, size=3)
        except GenError:
            pass
    return theta


def _wrap_context(sig: Signature, s: Term, t: Term, rng: random.Random):
    """Put both terms in the same argument slot of a random symbol."""
    slots = [
        (f, i)
        for f in sig.funs
        for i, at in enumerate(f.arg_tys)
        if at == s.ty == t.ty
    ]
    if not slots:
        return None
    f, i = rng.choice(slots)
    fillers = []
    for j, at in enumerate(f.arg_tys):
        if j == i:
            continue
        try:
            fillers.append(gen_term(sig, {}, at, rng, size=2))
        except GenError:
            return None
    def build(u):
        args = fillers[:i] + [u] + fillers[i:]
        return Fun(f.name, tuple(args), f.out_ty)
    return build(s), build(t)


# ---------------------------------------------------------------------------
# Exhaustive small-term checks


def enumerate_terms(
    sig: Signature, env: dict[str, Ty], ty: Ty, max_size: int
) -> list[Term]:
    """All terms of type `ty` up to `max_size`, without abstractions over
    fresh types (bound variables draw from the environment's arrow domains)."""
    out: list[Term] = []

    def go(target: Ty, budget: int, scope: dict[str, Ty]) -> list[Term]:
        if budget <= 0:
            return []
        results: list[Term] = []
        for n, vt in scope.items():
            if vt == target:
                results.append(Var(n, vt))
        for f in sig.funs:
            if f.out_ty != target or f.arity >= budget:
                continue
            arg_lists: list[list[Term]] = [[]]
            for at in f.arg_tys:
                share = budget - 1 - (f.arity - 1)
                arg_lists = [
                    prev + [a]
                    for prev in arg_lists
                    for a in go(at, share, scope)
                ]
            for args in arg_lists:
                cand = Fun(f.name, tuple(args), f.out_ty)
                if cand.size <= budget:
                    results.append(cand)
        if isinstance(target, Arrow):
            name = fresh_var("x", set(scope))
            inner = dict(scope)
            inner[name] = target.dom
            for body in go(target.cod, budget - 1, inner):
                results.append(Abs(name, target.dom, body, target))
        # applications of environment functions
        for n, vt in scope.items():
            if isinstance(vt, Arrow) and vt.cod == target:
                for arg in go(vt.dom, budget - 2, scope):
                    results.append(App(Var(n, vt), arg, vt.cod))
        return results

    seen: set[AlphaClass] = set()
    for t in go(ty, max_size, dict(env)):
        if t.alpha_class not in seen:
            seen.add(t.alpha_class)
            out.append(t)
    return out


def exhaustive_check(
    ctx: OrderingContext,
    env: dict[str, Ty],
    ty: Ty,
    max_size: int = 4,
) -> list[Finding]:
    """Irreflexivity, antisymmetry and descending-chain boundedness (no
    chain longer than 50) over all term pairs of the given type up to
    `max_size`."""
    findings: list[Finding] = []
    terms = enumerate_terms(ctx.sig, env, ty, max_size)
    gt: dict[int, set[int]] = {i: set() for i in range(len(terms))}
    engine = Engine(ctx)
    for i, s in enumerate(terms):
        if engine.gt((), s, s) is not None:
            findings.append(Finding("irreflexivity", "%s > itself" % term_str(s)))
        for j, t in enumerate(terms):
            if i != j and engine.gt((), s, t) is not None:
                gt[i].add(j)
    for i in gt:
        for j in gt[i]:
            if i in gt[j]:
                findings.append(
                    Finding(
                        "antisymmetry",
                        "%s and %s dominate each other"
                        % (term_str(terms[i]), term_str(terms[j])),
                    )
                )
    # longest strict chain must be finite (the relation on this finite set
    # must be acyclic, which antisymmetry + transitivity of reachability give)
    color: dict[int, int] = {}

    def dfs(i: int, depth: int) -> bool:
        if depth > 50:
            return True
        color[i] = 1
        for j in gt[i]:
            if color.get(j) == 1:
                return True
            if color.get(j) != 2 and dfs(j, depth + 1):
                return True
        color[i] = 2
        return False

    for i in range(len(terms)):
        if color.get(i) is None and dfs(i, 0):
            findings.append(
                Finding("termination", "cycle through %s" % term_str(terms[i]))
            )
            break
    return findings


# ---------------------------------------------------------------------------
# Parameter search


def _level_assignments(n: int):
    """The total quasi-orders on n positions as level assignments onto
    0..levels-1: fewer levels first, then in lexicographic order. The empty
    set has one, the empty assignment."""
    for levels in range(min(n, 1), n + 1):
        yield from _onto_assignments(n, levels)


def _onto_assignments(n: int, levels: int):
    """The maps from n positions onto range(levels), as tuples in
    lexicographic order. A prefix is dropped as soon as the positions left
    cannot cover the levels it misses, so every prefix kept completes."""
    assign = [0] * n
    uses = [0] * levels

    def fill(i: int, missing: int):
        if i == n:
            yield tuple(assign)
            return
        for level in range(levels):
            left = missing - (uses[level] == 0)
            if left > n - i - 1:
                continue
            assign[i] = level
            uses[level] += 1
            yield from fill(i + 1, left)
            uses[level] -= 1

    return fill(0, levels)


def _order_pairs(elements: list[str], assign: tuple[int, ...]):
    """The (strict, equiv) pair lists of the quasi-order that the level
    assignment `assign` puts on `elements`."""
    n = len(elements)
    strict = tuple(
        (elements[i], elements[j])
        for i in range(n)
        for j in range(n)
        if assign[i] > assign[j]
    )
    equiv = tuple(
        (elements[i], elements[j])
        for i in range(n)
        for j in range(i + 1, n)
        if assign[i] == assign[j]
    )
    return strict, equiv


def _weak_orders(elements: list[str]):
    """All total quasi-orders on `elements` as (strict, equiv) pair lists,
    in the order of `_level_assignments`."""
    return (_order_pairs(elements, a) for a in _level_assignments(len(elements)))


_LEVEL_CMP = {1: Cmp.GT, 0: Cmp.EQ, -1: Cmp.LT}


class _Reads:
    """Stands in for a context's precedence and statuses while the engine
    orients one rule: answers from a candidate's levels and statuses (`mul`
    by default), recording comparisons by symbol pair, statuses by symbol."""

    def __init__(self, level: dict[str, int], statuses: dict[str, str]):
        self.level = level
        self.statuses = statuses
        self.cmps: dict[tuple[str, str], Cmp] = {}
        self.stats: dict[str, str] = {}

    def cmp(self, f: str, g: str) -> Cmp:
        a, b = self.level[f], self.level[g]
        answer = self.cmps[f, g] = _LEVEL_CMP[(a > b) - (a < b)]
        return answer

    def __getitem__(self, f: str) -> str:
        answer = self.stats[f] = self.statuses.get(f, MUL)
        return answer

    def agree(self, level: dict[str, int], statuses: dict[str, str]) -> bool:
        """Whether the precedence given by `level` and the `statuses` answer
        every recorded read as it was answered."""
        return all(
            _LEVEL_CMP[(level[f] > level[g]) - (level[f] < level[g])] is answer
            for (f, g), answer in self.cmps.items()
        ) and all(statuses.get(f, MUL) == answer for f, answer in self.stats.items())


def search_params(problem):
    """Search sort orders, precedences and statuses orienting every rule.

    Returns (sort_order_pairs, prec_pairs, statuses) on success, None when
    the space is exhausted. Enumeration is deterministic: sort orders
    outermost, then statuses (all-mul first), precedences innermost, each
    precedence a level assignment of the symbols, `@` below all of them.

    Each rule's outcome is stored under the precedence comparisons and
    status lookups the engine made for it. A later candidate that answers
    every such read the same way gets that outcome without running the
    engine, so a failure rejects it at once: the nogoods of conflict-driven
    search (Marques-Silva & Sakallah, "GRASP", 1999) over the precedence and
    status constraints of Codish, Lagoon & Stuckey (RTA 2006)."""
    sig = problem.sig
    sort_names = sorted(s.name for s in sig.sorts)
    fun_names = sorted(f.name for f in sig.funs)
    arities = [sig.fun(f).arity for f in fun_names]
    multi_arg = [f.name for f in sig.funs if f.arity >= 2]
    status_space = sorted(
        product((MUL, LEX), repeat=len(multi_arg)),
        key=lambda combo: sum(1 for s in combo if s == LEX),
    )
    for sort_strict, sort_equiv in _weak_orders(sort_names):
        order = SortOrder(sort_names, sort_strict, sort_equiv)
        if validate_axioms(order, problem.ctx.universe):
            continue
        order_ctx = OrderingContext.build(
            sig, order, extra_types=tuple(problem.vars.values())
        )
        # The type order, AccTable and minimal types change with the sort
        # order and nothing else, so the engine's answer is a function of
        # its recorded reads only while the sort order stays: outcomes live
        # for one sort order.
        outcomes: list[list[tuple[_Reads, bool]]] = [[] for _ in problem.rules]
        for combo in status_space:
            statuses = dict(zip(multi_arg, combo))
            kinds = [(a, statuses.get(f, MUL)) for f, a in zip(fun_names, arities)]
            for assign in _level_assignments(len(fun_names)):
                # one arity and one status per precedence class
                first: dict[int, tuple[int, str]] = {}
                if any(first.setdefault(lv, k) != k for lv, k in zip(assign, kinds)):
                    continue
                level = dict(zip(fun_names, assign))
                level[APP_SYM] = -1
                for rule, known in zip(problem.rules, outcomes):
                    oriented = next(
                        (ok for reads, ok in known if reads.agree(level, statuses)),
                        None,
                    )
                    if oriented is None:
                        # a fresh engine per rule: a memo shared across
                        # rules would hold answers resting on other reads
                        reads = _Reads(level, statuses)
                        ctx = OrderingContext(
                            sig, order, reads, reads, order_ctx.acc,
                            order_ctx.min_types, order_ctx.universe,
                        )
                        engine = Engine(ctx)
                        oriented = engine.orient_rule(rule.lhs, rule.rhs) is not None
                        known.append((reads, oriented))
                    if not oriented:
                        break
                else:
                    prec = _order_pairs(fun_names, assign)
                    return (sort_strict, sort_equiv), prec, statuses
    return None

