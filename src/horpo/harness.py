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
from dataclasses import dataclass
from itertools import product
from typing import Callable

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
from .typeorder import SortOrder, validate_axioms


class GenError(Exception):
    """No term of the requested type exists under the given signature."""


@dataclass
class GenConfig:
    max_size: int = 12
    abs_prob: float = 0.5
    app_prob: float = 0.25
    max_tries: int = 200


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
        if funs_here:
            options = ["fun"]
        else:
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


def _steps(t: Term, root: Callable[[Term], Term | None]) -> list[Term]:
    """All one-step reducts of `t`, annotations preserved, where `root(u)`
    is the reduct of a redex u and None on any other term. The reduct at
    the root comes first, then those inside the parts, left to right."""
    out: list[Term] = []
    reduct = root(t)
    if reduct is not None:
        out.append(reduct)
    if isinstance(t, App):
        out += [App(fn2, t.arg, t.ty) for fn2 in _steps(t.fn, root)]
        out += [App(t.fn, arg2, t.ty) for arg2 in _steps(t.arg, root)]
    elif isinstance(t, Abs):
        out += [Abs(t.var, t.var_ty, b2, t.ty) for b2 in _steps(t.body, root)]
    elif isinstance(t, Fun):
        for i, a in enumerate(t.args):
            for a2 in _steps(a, root):
                out.append(Fun(t.sym, t.args[:i] + (a2,) + t.args[i + 1 :], t.ty))
    return out


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
    positions = _positions(t)
    pos = rng.choice(positions)
    u = _at(t, pos)
    arg_ty = rng.choice(_candidate_arg_types(sig, env))
    arg = gen_term(sig, env, arg_ty, rng, size=2)
    x = fresh_var("b", free_vars(t) | set(env))
    # \x. u  ignores x, so the redex reduces to u itself
    redex = App(Abs(x, arg_ty, u, Arrow(arg_ty, u.ty)), arg, u.ty)
    return _replace(t, pos, redex)


def inject_eta_redex(t: Term, rng: random.Random) -> Term | None:
    """Wrap one random arrow-typed subterm w as \\x:dom. @(w, x)."""
    positions = [p for p in _positions(t) if isinstance(_at(t, p).ty, Arrow)]
    if not positions:
        return None
    pos = rng.choice(positions)
    w = _at(t, pos)
    ty = w.ty
    x = fresh_var("e", free_vars(w))
    wrapped = Abs(x, ty.dom, App(w, Var(x, ty.dom), ty.cod), ty)
    return _replace(t, pos, wrapped)


def _positions(t: Term, prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    out = [prefix]
    if isinstance(t, Abs):
        # skipped: replacing under a binder may capture the bound variable
        pass
    elif isinstance(t, App):
        out += _positions(t.fn, prefix + (0,))
        out += _positions(t.arg, prefix + (1,))
    elif isinstance(t, Fun):
        for i, a in enumerate(t.args):
            out += _positions(a, prefix + (i,))
    return out


def _at(t: Term, pos: tuple[int, ...]) -> Term:
    for i in pos:
        if isinstance(t, App):
            t = t.fn if i == 0 else t.arg
        else:
            t = t.args[i]
    return t


def _replace(t: Term, pos: tuple[int, ...], new: Term) -> Term:
    if not pos:
        return new
    i, rest = pos[0], pos[1:]
    if isinstance(t, App):
        if i == 0:
            return App(_replace(t.fn, rest, new), t.arg, t.ty)
        return App(t.fn, _replace(t.arg, rest, new), t.ty)
    args = t.args[:i] + (_replace(t.args[i], rest, new),) + t.args[i + 1 :]
    return Fun(t.sym, args, t.ty)


# ---------------------------------------------------------------------------
# Property runner


@dataclass
class Finding:
    prop: str
    detail: str

    def __str__(self) -> str:
        return "%s: %s" % (self.prop, self.detail)


def _shrink(check, t: Term) -> Term:
    """Greedy shrink: a failing term is replaced by its smallest failing
    subterm-or-variable simplification. `check(t)` is True when t still
    exhibits the failure."""
    changed = True
    while changed:
        changed = False
        for pos in _positions(t)[1:]:
            sub = _at(t, pos)
            if sub.size <= 1:
                continue
            candidate = _replace(t, pos, Var(fresh_var("s", free_vars(t)), sub.ty))
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
    disabled_cases: frozenset[str] = frozenset(),
) -> list[Finding]:
    """Probe the ordering on random terms; returns a list of findings
    (empty means every probe passed).

    `disabled_cases` cripples the engine on purpose; it exists so the suite
    can verify that a sabotaged engine is actually caught."""
    rng = random.Random(seed)
    config = config or GenConfig()
    findings: list[Finding] = []
    sig = ctx.sig
    tys = _candidate_arg_types(sig, env)

    def fresh_engine() -> Engine:
        return Engine(ctx, disabled_cases=disabled_cases)

    for k in range(samples):
        ty = rng.choice(tys)
        try:
            s = gen_term(sig, env, ty, rng, config)
        except GenError:
            continue

        # irreflexivity
        if fresh_engine().gt((), s, s) is not None:
            bad = _shrink(lambda u: fresh_engine().gt((), u, u) is not None, s)
            findings.append(Finding("irreflexivity", "%s > itself" % term_str(bad)))

        # beta compatibility: a term strictly dominates its one-step reducts
        with_redex = inject_beta_redex(sig, env, s, rng)
        for reduct in beta_step(with_redex):
            tr = fresh_engine().gt_type((), with_redex, reduct)
            if tr is None:
                findings.append(
                    Finding(
                        "beta",
                        "%s not > its reduct %s"
                        % (term_str(with_redex), term_str(reduct)),
                    )
                )
            else:
                _validate(ctx, tr, findings, "beta")
            break  # one reduct per sample keeps the suite fast

        # eta compatibility
        with_eta = inject_eta_redex(s, rng)
        if with_eta is not None:
            reducts = eta_step(with_eta)
            if reducts:
                tr = fresh_engine().gt_type((), with_eta, reducts[0])
                if tr is None:
                    findings.append(
                        Finding(
                            "eta",
                            "%s not > its reduct %s"
                            % (term_str(with_eta), term_str(reducts[0])),
                        )
                    )
                else:
                    _validate(ctx, tr, findings, "eta")

        # stability and monotonicity against a second sample
        try:
            t = gen_term(sig, env, ty, rng, config)
        except GenError:
            continue
        tr = fresh_engine().gt_type((), s, t)
        if tr is None:
            continue
        _validate(ctx, tr, findings, "trace")
        theta = _gen_subst(sig, env, s, t, rng)
        if theta:
            s2, t2 = substitute(s, theta), substitute(t, theta)
            if fresh_engine().gt_type((), s2, t2) is None:
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
            if fresh_engine().gt_type((), ws, wt) is None:
                findings.append(
                    Finding(
                        "monotonicity",
                        "%s > %s lost in context (%s vs %s)"
                        % (term_str(s), term_str(t), term_str(ws), term_str(wt)),
                    )
                )
    return findings


def _validate(ctx, trace, findings: list[Finding], prop: str) -> None:
    try:
        if trace.label == "refl":
            kind = "ge"
        elif trace.label == "typeCheck":
            kind = "gt_type"
        else:
            kind = "gt"
        check_trace(ctx, trace, kind, ())
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
    chain_bound: int = 50,
) -> list[Finding]:
    """Irreflexivity, antisymmetry and descending-chain boundedness over all
    term pairs of the given type up to `max_size`."""
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
        if depth > chain_bound:
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


def _weak_orders(elements: list[str]):
    """All total quasi-orders on `elements` as (strict, equiv) pair lists,
    enumerated by level assignments (fewer levels first)."""
    n = len(elements)
    for levels in range(1, n + 1):
        for assign in product(range(levels), repeat=n):
            if set(assign) != set(range(levels)):
                continue
            strict = [
                (elements[i], elements[j])
                for i in range(n)
                for j in range(n)
                if assign[i] > assign[j]
            ]
            equiv = [
                (elements[i], elements[j])
                for i in range(n)
                for j in range(i + 1, n)
                if assign[i] == assign[j]
            ]
            yield tuple(strict), tuple(equiv)


def search_params(problem):
    """Search sort orders, precedences and statuses orienting every rule.

    Returns (sort_order_pairs, prec_pairs, statuses) on success, None when
    the space is exhausted. Enumeration is deterministic: sort orders
    outermost, then statuses (all-mul first), precedences innermost."""
    sig = problem.sig
    sort_names = sorted(s.name for s in sig.sorts)
    fun_names = sorted(f.name for f in sig.funs)
    multi_arg = [f.name for f in sig.funs if f.arity >= 2]
    status_space = sorted(
        product((MUL, LEX), repeat=len(multi_arg)),
        key=lambda combo: sum(1 for s in combo if s == LEX),
    )
    for sort_strict, sort_equiv in _weak_orders(sort_names):
        order = SortOrder(sort_names, sort_strict, sort_equiv)
        universe = problem.ctx.universe
        if validate_axioms(order, universe):
            continue
        for combo in status_space:
            statuses = dict(zip(multi_arg, combo))
            for prec_strict, prec_equiv in _weak_orders(fun_names):
                # symbols put in the same precedence class must agree on
                # arity and status, or extensions are ill-defined
                if any(
                    sig.fun(a).arity != sig.fun(b).arity
                    or statuses.get(a, MUL) != statuses.get(b, MUL)
                    for a, b in prec_equiv
                ):
                    continue
                ctx = OrderingContext.build(
                    sig,
                    order,
                    prec_strict,
                    prec_equiv,
                    statuses,
                    extra_types=tuple(problem.vars.values()),
                )
                engine = Engine(ctx)
                if all(
                    engine.orient_rule(r.lhs, r.rhs) is not None
                    for r in problem.rules
                ):
                    return (sort_strict, sort_equiv), (prec_strict, prec_equiv), statuses
    return None


def count_calls(engine: Engine) -> int:
    """Distinct memoized comparison goals the engine has resolved."""
    return len(engine.memo)
