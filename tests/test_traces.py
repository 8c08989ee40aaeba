import ast
import json
import sys

import pytest

from conftest import CORPUS, ROOT, rebuild
from horpo.engine import Engine
from horpo.problems import ProblemError, check_problem, parse_problem
from horpo.terms import Abs, App, Arrow, Data, Fun, Var, term_str
from horpo.traces import (
    Trace,
    TraceError,
    check_trace,
    trace_to_jsonable,
    trace_to_text,
)

Nat = Data("Nat")


def test_all_corpus_traces_replay(brouwer, nat_rec, map_problem):
    for p in (brouwer, nat_rec, map_problem):
        check_problem(p)  # replays every trace; raises on any bad node


def test_rule3_text_root_line(brouwer):
    tr = Engine(brouwer.ctx).orient_rule(brouwer.rules[2].lhs, brouwer.rules[2].rhs)
    first = trace_to_text(tr).splitlines()[0]
    assert first == (
        "case 1c: rec(lim(F),U,V,W) > @(@(W,F),\\n:Nat.rec(@(F,n),U,V,W))"
    )


def test_refl_serialization(brouwer):
    n = Var("n", Nat)
    tr = Engine(brouwer.ctx).ge((), n, n)
    assert trace_to_text(tr) == "refl: n >= n"
    obj = trace_to_jsonable(tr)
    assert obj["label"] == "refl"
    assert obj["lhs"] == "n" and obj["rhs"] == "n"
    assert obj["children"] == []


def test_serialization_is_stable(brouwer):
    tr = Engine(brouwer.ctx).orient_rule(brouwer.rules[2].lhs, brouwer.rules[2].rhs)
    a = json.dumps(trace_to_jsonable(tr), sort_keys=True)
    b = json.dumps(trace_to_jsonable(tr), sort_keys=True)
    assert a == b


def _rule3_trace(problem):
    return Engine(problem.ctx).orient_rule(problem.rules[2].lhs, problem.rules[2].rhs)


def test_validator_rejects_wrong_label(brouwer):
    tr = _rule3_trace(brouwer)
    bad = rebuild(tr, label="1b")
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, bad, "gt", ())


def test_validator_rejects_tampered_rhs(brouwer):
    tr = _rule3_trace(brouwer)
    bad = rebuild(tr, rhs=brouwer.rules[0].rhs)
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, bad, "gt", ())


def test_validator_rejects_dropped_child(brouwer):
    tr = _rule3_trace(brouwer)
    bad = rebuild(tr, children=tr.children[:-1])
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, bad, "gt", ())


def test_validator_rejects_wrong_bound_set(brouwer):
    tr = _rule3_trace(brouwer)
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, tr, "gt", (("q", Nat),))


def test_validator_rejects_refl_for_strict_goal(brouwer):
    n = Var("n", Nat)
    refl = Trace("refl", n, n, ())
    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, refl, "gt", ())
    # but it is fine for a non-strict goal
    check_trace(brouwer.ctx, refl, "ge", ())


def test_validator_rejects_broken_multiset_cover(brouwer):
    tr = _rule3_trace(brouwer)

    def strip_cover(node):
        if node.label == "mulExt":
            return rebuild(
                node,
                children=(),
                aux=tuple(
                    (k, () if k == "cover" else v) for k, v in node.aux
                ),
            )
        return rebuild(
            node, children=tuple(strip_cover(c) for c in node.children)
        )

    with pytest.raises(TraceError):
        check_trace(brouwer.ctx, strip_cover(tr), "gt", ())


def test_checker_imports_never_reach_the_engine():
    # traces.py's imports within horpo, followed transitively and statically
    src = ROOT / "src" / "horpo"
    reached, todo = set(), ["traces"]
    while todo:
        mod = todo.pop()
        if mod in reached:
            continue
        reached.add(mod)
        for node in ast.walk(ast.parse((src / (mod + ".py")).read_text())):
            if isinstance(node, ast.Import):
                full = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["horpo" * node.level, node.module]))
                full = [base] + [base + "." + a.name for a in node.names]
            else:
                continue
            names = [n.split(".")[1] for n in full if n.startswith("horpo.")]
            todo += [n for n in names if (src / (n + ".py")).exists()]
    assert {"accessibility", "terms"} <= reached
    assert not reached & {"engine", "harness", "problems"}


def test_validator_never_calls_engine(brouwer, monkeypatch):
    # replaying a trace must not fall back to search
    import horpo.traces as traces_mod

    tr = _rule3_trace(brouwer)
    monkeypatch.setattr(
        Engine, "_gt", lambda *a, **k: pytest.fail("validator invoked the engine")
    )
    check_trace(brouwer.ctx, tr, "gt", ())
    del traces_mod


def _forged_goals(nat_rec):
    """Two traces whose fresh name `N` is free in the goal, so that a
    right-hand `N` is treated as a freed variable or as the bound one."""
    N = Var("N", Nat)
    succ = lambda t: Fun("succ", (t,), Nat)
    zero = Fun("z", (), Nat)
    lam = lambda body: Abs("x", Nat, body, Arrow(Nat, body.ty))
    # 4b: succ(z) > \x.N, with the child succ(z) > N closed by 4a under X={N}
    s4, t4 = succ(zero), lam(N)
    forged4b = Trace(
        "4b", s4, t4, (), (Trace("4a", s4, N, (("N", Nat),)),), (("fresh", "N"),)
    )
    # 3b: \x.succ(N) > \x.x, with the engine's own trace for succ(N) > N
    s3, t3 = lam(succ(N)), lam(Var("x", Nat))
    child = Engine(nat_rec.ctx).gt((), succ(N), N)
    assert child is not None
    forged3b = Trace("3b", s3, t3, (), (child,), (("fresh", "N"),))
    return [forged4b, forged3b]


@pytest.mark.parametrize("which", [0, 1], ids=["4b", "3b"])
def test_validator_rejects_fresh_name_free_in_goal(nat_rec, which):
    forged = _forged_goals(nat_rec)[which]
    assert Engine(nat_rec.ctx).gt((), forged.lhs, forged.rhs) is None
    with pytest.raises(TraceError, match="occurs free"):
        check_trace(nat_rec.ctx, forged, "gt", ())


LEX_PROBLEM = (
    "sort N ;\nfun z : [] -> N ;\nfun s : [N] -> N ;\nfun f : [N, N] -> N ;\n"
    "prec f > s ;\nstatus f lex ;\nvar x : N ;\nvar y : N ;\n"
    "rule f(x, s(y)) -> f(x, y) ;\nrule f(s(x), s(y)) -> f(x, y) ;\n"
)


def _with_aux(node, **aux):
    return rebuild(
        node, aux=tuple((k, aux.get(k, v)) for k, v in node.aux)
    )


def test_lex_extension_traces_replay():
    p = parse_problem(LEX_PROBLEM)
    for rule, pos in zip(p.rules, (1, 0)):
        tr = Engine(p.ctx).orient_rule(rule.lhs, rule.rhs)
        assert tr.label == "1b"
        assert tr.children[-1].label == "lexExt"
        assert tr.children[-1].get("pos") == pos
        check_trace(p.ctx, tr, "gt", ())


def test_validator_rejects_lex_prefix_not_alpha_equal():
    # f(s(x),s(y)) > f(x,y) decreases at position 0; claiming position 1
    # asserts that s(x) and x are equal
    p = parse_problem(LEX_PROBLEM)
    tr = Engine(p.ctx).orient_rule(p.rules[1].lhs, p.rules[1].rhs)
    forged = rebuild(
        tr, children=tr.children[:-1] + (_with_aux(tr.children[-1], pos=1),)
    )
    with pytest.raises(TraceError, match="prefix not alpha-equal"):
        check_trace(p.ctx, forged, "gt", ())


def _case_3a_trace(nat_rec):
    """\\x:Nat.succ(z) > z under X = {x}, proved by case 3a."""
    zero = Fun("z", (), Nat)
    s = Abs("x", Nat, Fun("succ", (zero,), Nat), Arrow(Nat, Nat))
    x = (("x", Nat),)
    tr = Engine(nat_rec.ctx).gt(x, s, zero)
    assert tr.label == "3a" and tr.get("fresh") != "x"
    return tr, x


def test_case_3a_trace_replays(nat_rec):
    tr, x = _case_3a_trace(nat_rec)
    check_trace(nat_rec.ctx, tr, "gt", x)


def test_validator_rejects_3a_fresh_name_in_bound_set(nat_rec):
    tr, x = _case_3a_trace(nat_rec)
    with pytest.raises(TraceError, match="collides with the bound set"):
        check_trace(nat_rec.ctx, _with_aux(tr, fresh="x"), "gt", x)


def _tower(k):
    """c^k(z) > c^(k/2)(z): the engine's memo shares most of the trace."""
    nest = lambda n: "c(" * n + "z" + ")" * n
    p = parse_problem(
        "sort N ;\nfun z : [] -> N ;\nfun c : [N] -> N ;\n"
        "rule %s -> %s ;\n" % (nest(k), nest(k // 2))
    )
    rule = p.rules[0]
    return p, Engine(p.ctx).orient_rule(rule.lhs, rule.rhs)


def _paths(trace):
    """The distinct nodes by identity, parents before children, and the
    number of unfolded occurrences of each."""
    order, seen = [], set()

    def visit(t):
        if id(t) not in seen:
            seen.add(id(t))
            for c in t.children:
                visit(c)
            order.append(t)

    visit(trace)
    order.reverse()
    paths = {id(trace): 1}
    for t in order:
        for c in t.children:
            paths[id(c)] = paths.get(id(c), 0) + paths[id(t)]
    return paths, {id(t): t for t in order}


def test_replay_visits_each_distinct_goal_once(monkeypatch):
    import horpo.traces as traces_mod

    p, tr = _tower(14)
    paths, nodes = _paths(tr)
    assert sum(paths.values()) > 15 * len(nodes)  # 1,853 unfolded, 99 distinct
    # the distinct goals reached, each run of a node's local check, and the
    # distinct goals checked
    reached, visits, goals = set(), [], set()
    check_goal, premises = traces_mod._check_goal, traces_mod._premises

    def reaching(ctx, node, kind, x, s, t, done):
        goal = (kind, x)
        if kind in ("union", "type_x"):  # an extension pair, by its label
            if node.label == "typeCheck":
                goal = ("gt_type", x if kind == "type_x" else ())
            else:
                goal = ("accApply", x)
        reached.add((id(node), *goal))
        check_goal(ctx, node, kind, x, s, t, done)

    def checking(ctx, node, kind, x, s, t):
        visits.append(id(node))
        goals.add((id(node), kind, x))
        return premises(ctx, node, kind, x, s, t)

    monkeypatch.setattr(traces_mod, "_check_goal", reaching)
    monkeypatch.setattr(traces_mod, "_premises", checking)
    check_trace(p.ctx, tr, "gt", ())
    # every goal reached is checked, once; some nodes under two kinds
    assert reached == goals
    assert len(nodes) < len(visits) == len(goals) <= 2 * len(nodes)
    assert set(visits) == set(nodes)


def test_deep_trace_replays_under_the_default_recursion_limit():
    # orienting c^400(z) > c^200(z) needs a raised limit; its replay does not
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        p, tr = _tower(400)
    finally:
        sys.setrecursionlimit(limit)
    check_trace(p.ctx, tr, "gt", ())


def _replace_node(trace, target, forged):
    """The trace with node `target` replaced by `forged` at every position,
    keeping every other node shared as it was."""
    made = {}

    def go(t):
        if t is target:
            return forged
        if id(t) not in made:
            made[id(t)] = rebuild(
                t, children=tuple(go(c) for c in t.children)
            )
        return made[id(t)]

    return go(trace)


def test_forged_node_inside_a_shared_subtrace_raises():
    p, tr = _tower(14)
    paths, nodes = _paths(tr)
    # the strict node reached along the most paths, below the root
    target = max(
        (t for t in nodes.values() if t.label == "1b" and t is not tr),
        key=lambda t: paths[id(t)],
    )
    assert paths[id(target)] > 1
    forged = _replace_node(tr, target, rebuild(target, label="1c"))
    check_trace(p.ctx, _replace_node(tr, target, target), "gt", ())
    with pytest.raises(TraceError, match="strictly smaller head symbol"):
        check_trace(p.ctx, forged, "gt", ())


REUSE_PROBLEM = (
    "sort N ;\nfun a : [] -> N ;\nfun f : [N] -> N ;\n"
    "fun g : [N, N -> N] -> N ;\nprec f > g ;\n"
)


def test_node_reused_under_another_bound_set_is_replayed_again():
    # f(a) > g(a, \z.a) by 1c: the children are f(a) > a under X = {} and,
    # by 4b, f(a) > a under X = {z}
    p = parse_problem(REUSE_PROBLEM)
    N = Data("N")
    a = Fun("a", (), N)
    s = Fun("f", (a,), N)
    lam = Abs("z", N, a, Arrow(N, N))
    t = Fun("g", (a, lam), N)
    xz = (("z", N),)
    engine = Engine(p.ctx)
    outer, inner = engine.gt((), s, a), engine.gt(xz, s, a)

    def root(first, second):
        fourb = Trace("4b", s, lam, (), (second,), (("fresh", "z"),))
        return Trace("1c", s, t, (), (first, fourb))

    check_trace(p.ctx, root(outer, inner), "gt", ())
    # the same node object under X = {} and X = {z}: valid only under the
    # first, so the second occurrence must still be replayed
    with pytest.raises(TraceError, match="differs from goal X"):
        check_trace(p.ctx, root(outer, outer), "gt", ())
    with pytest.raises(TraceError, match="differs from goal X"):
        check_trace(p.ctx, root(inner, inner), "gt", ())


SHARED_EXT = (
    "sort N ;\nfun z : [] -> N ;\nfun s : [N] -> N ;\nfun f : [N, N] -> N ;\n"
    "prec f > s ;\n"
)


def test_extension_node_under_two_parents_is_replayed_under_each():
    # f(A, B) > f(B, C) is false: A = f(s(z), z) > B = f(z, z) holds, but
    # A > C = f(z, s(z)) does not. The forgery covers B and C by A, and
    # proves A > C with the mulExt node of A > B, whose sides are A > B's
    # argument lists, not A > C's
    p = parse_problem(SHARED_EXT)
    N = Data("N")
    z = Fun("z", (), N)
    sz, f = Fun("s", (z,), N), lambda u, v: Fun("f", (u, v), N)
    a, b, c = f(sz, z), f(z, z), f(z, sz)
    s, t = f(a, b), f(b, c)
    gt = lambda u, v: Engine(p.ctx).gt((), u, v)
    assert gt(s, t) is None
    a_b = gt(a, b)
    a_c = rebuild(
        a_b, rhs=c, children=(gt(a, z), gt(a, sz), a_b.children[-1])
    )
    typed = lambda u: Trace(
        "typeCheck", u.lhs, u.rhs, (), (u,), (("lhs_ty", "N"), ("rhs_ty", "N"))
    )
    cover = (("equal", ()), ("cover", ((0, 0), (0, 1))))
    ext = Trace("mulExt", _args(a, b), _args(b, c), (), (typed(a_b), typed(a_c)), cover)
    forged = rebuild(
        a_b, lhs=s, rhs=t, children=(gt(s, b), gt(s, c), ext)
    )
    want = r"have <args>\(s\(z\),z\) vs <args>\(z,z\), want .* vs <args>\(z,s\(z\)\)"
    with pytest.raises(TraceError, match="child goal mismatch: " + want):
        check_trace(p.ctx, forged, "gt", ())


def test_jsonable_shares_dicts_and_unfolds_to_the_tree():
    _, tr = _tower(14)
    paths, nodes = _paths(tr)
    obj = trace_to_jsonable(tr)
    count, dicts, stack = 0, set(), [obj]
    while stack:
        node = stack.pop()
        count += 1
        dicts.add(id(node))
        stack.extend(node["children"])
    assert count == sum(paths.values())
    assert len(dicts) == len(nodes)


# ---------------------------------------------------------------------------
# One forgery per rejection of the replay checker: an engine-made trace (or a
# hand-made node) with one field changed, and the message it must raise.

Ord, A = Data("Ord"), Data("A")
N_, U_, V_ = Var("N", Ord), Var("U", A), Var("V", Arrow(Ord, Arrow(A, A)))
F_ = Var("F", Arrow(Nat, Ord))
FN = App(F_, Var("n", Nat), Ord)  # @(F, n): an application, not a redex
ZERO = Fun("0", (), Ord)
LAM_NAT = Abs("x", Nat, ZERO, Arrow(Nat, Ord))  # no eta redex
LAM_ORD = Abs("y", Ord, ZERO, Arrow(Ord, Ord))
Q = Fun("q", (), Ord)  # no symbol q is declared
M_ = Var("m", Ord)
FM = App(F_, M_, Ord)  # @(F, m) applies F : Nat -> Ord to m : Ord
LIM_F = Fun("lim", (F_,), Ord)

TWINS = (
    "sort N ;\nfun z : [] -> N ;\nfun f : [N, N] -> N ;\nfun g : [N, N] -> N ;\n"
    "fun h : [N] -> N ;\n"
)
# f(lim(F), F) > g(F, F) needs lim(F) : Ord >_type F : Nat -> Ord, whose type
# gate fails
LIMITS = (
    "sort Nat ;\nsort Ord ;\norder Nat < Ord ;\nfun lim : [Nat -> Ord] -> Ord ;\n"
    "fun f : [Ord, Nat -> Ord] -> Ord ;\nfun g : [Nat -> Ord, Nat -> Ord] -> Ord ;\n"
    "prec f = g ;\n"
)


def _naive_text(trace):
    """The text emitter's output built the plain way: the whole tree
    unfolded from an explicit stack, each side printed afresh by term_str."""
    lines, stack = [], [(trace, 0)]
    while stack:
        t, depth = stack.pop()
        sides = term_str(t.lhs), term_str(t.rhs)
        if t.label == "refl":
            line = "refl: %s >= %s" % sides
        else:
            line = "case %s: %s > %s" % ((t.label,) + sides)
        lines.append("  " * depth + line)
        stack.extend((c, depth + 1) for c in reversed(t.children))
    return "\n".join(lines)


def _corpus_traces():
    traces = []
    for path in sorted(CORPUS.glob("*.horpo")):
        try:
            p = parse_problem(path.read_text())
        except ProblemError:
            continue
        report = check_problem(p)
        if not report.axiom_violations:
            traces += [r.trace for r in report.rule_results if r.trace is not None]
    return traces


def _map_unroll(d):
    """map(F, cons(H1, ... cons(Hd, T))) -> cons(@(F,H1), map(F, ...))."""
    heads = ["H%d" % i for i in range(1, d + 1)]

    def spine(items):
        tail = "T"
        for item in reversed(items):
            tail = "cons(%s, %s)" % (item, tail)
        return tail

    p = parse_problem(
        "sort Nat ;\nsort List ;\norder Nat < List ;\nfun nil : [] -> List ;\n"
        "fun cons : [Nat, List] -> List ;\nfun map : [Nat -> Nat, List] -> List ;\n"
        "prec map > nil ;\nprec map > cons ;\nvar F : Nat -> Nat ;\nvar T : List ;\n"
        + "".join("var %s : Nat ;\n" % h for h in heads)
        + "rule map(F, %s) -> cons(@(F, H1), map(F, %s)) ;\n"
        % (spine(heads), spine(heads[1:]))
    )
    rule = p.rules[0]
    return Engine(p.ctx).orient_rule(rule.lhs, rule.rhs)


def _hand_trace():
    """One shared subtrace at depths 1 and 2, and twice at depth 2 under one
    parent; its own child is shared too."""
    s, a = Fun("f", (Var("x", Nat),), Nat), Var("x", Nat)
    leaf = Trace("refl", a, a)
    shared = Trace("1a", s, a, (), (leaf, leaf))
    mid = Trace("1b", s, a, (), (shared, shared))
    return Trace("1c", s, a, (), (shared, mid, leaf))


_EMITTED = {
    "corpus": _corpus_traces,
    "towers": lambda: [_tower(k)[1] for k in range(2, 15)],
    "map_unroll": lambda: [_map_unroll(4), _map_unroll(6)],
    "hand": lambda: [_hand_trace()],
}


@pytest.mark.parametrize("source", sorted(_EMITTED))
def test_text_is_the_unfolded_tree(source):
    traces = _EMITTED[source]()
    assert traces
    for tr in traces:
        assert trace_to_text(tr) == _naive_text(tr)


@pytest.mark.parametrize("source", sorted(_EMITTED))
def test_jsonable_sides_are_term_str(source):
    for tr in _EMITTED[source]():
        stack = [(tr, trace_to_jsonable(tr))]
        while stack:
            node, obj = stack.pop()
            assert (obj["lhs"], obj["rhs"]) == (term_str(node.lhs), term_str(node.rhs))
            stack.extend(zip(node.children, obj["children"]))


def _type_x_trace(brouwer):
    """@(V,s(N)) > \\x:Ord.@(V,N): 4b, then 2b under X = {x#0}, whose mulExt
    pair s(N) > N is a typeCheck carrying that X."""
    V = Var("V", Arrow(Ord, Arrow(A, A)))
    s = App(V, Fun("s", (N_,), Ord), Arrow(A, A))
    t = Abs("x", Ord, App(V, N_, Arrow(A, A)), Arrow(Ord, Arrow(A, A)))
    tr = Engine(brouwer.ctx).gt((), s, t)
    two_b = tr.children[0]
    pair = two_b.children[0].children[0]
    assert (tr.label, two_b.label, pair.label) == ("4b", "2b", "typeCheck")
    assert pair.x == two_b.x == (("x#0", Ord),)
    return tr


def _brouwer_nodes(brouwer):
    """Named nodes of the engine's traces for brouwer's rules 2 and 3."""
    ctx = brouwer.ctx
    r2 = Engine(ctx).orient_rule(brouwer.rules[1].lhs, brouwer.rules[1].rhs)
    r3 = _rule3_trace(brouwer)
    b2 = r2.children[2]  # 1b: rec(s(N),U,V,W) > rec(N,U,V,W)
    fourb = r3.children[2]  # 4b: rec(lim(F),U,V,W) > \n:Nat.rec(@(F,n),U,V,W)
    b3 = fourb.children[0]  # 1b under X = {n#0}
    return {
        "r2": r2,  # 1c: rec(s(N),U,V,W) > @(@(V,N),rec(N,U,V,W))
        "r3": r3,
        "b2": b2,
        "a_n": b2.children[0],  # 1a: rec(s(N),U,V,W) > N, w = N
        "a_v": b2.children[2],  # 1a: rec(s(N),U,V,W) > V, w = V
        "mul2": b2.children[-1],  # mulExt cancelling U, V, W
        "tc": b2.children[-1].children[0],  # typeCheck: s(N) > N
        "fourb": fourb,
        "b3": b3,
        "fourA": b3.children[0].children[1],  # 4a: rec(...) > n#0
    }


def _twins_ctx(equiv, statuses):
    return parse_problem(TWINS).ctx.with_precedence((), equiv, statuses)


def _twin(sym, *args):
    return Fun(sym, args, Data("N"))


def _args(*ts):
    """The argument list `ts` as an extension node writes it on its sides."""
    return Fun("<args>", ts)


def _forge(name, brouwer):
    """(ctx, trace, kind, x) for the forgery `name`."""
    ctx, n = brouwer.ctx, _brouwer_nodes(brouwer)
    rep = rebuild
    mul2 = n["mul2"]
    with_mul2 = lambda node: rep(n["b2"], children=n["b2"].children[:-1] + (node,))
    all_equal = (("equal", ((0, 0), (1, 1))), ("cover", ()))
    fn_args = _args(FN.fn, FN.arg)
    r2 = n["r2"]
    with_first = lambda node: rep(r2, children=(node,) + r2.children[1:])
    simple = {
        "refl_unequal": Trace("refl", N_, Var("M", Ord)),
        "unexpected_label": n["tc"],
        "variable_lhs": Trace("1a", N_, N_),
        "1a_lhs": Trace("1a", FN, N_),
        "2a_lhs": rep(n["r3"], label="2a"),
        "2b_lhs": rep(n["r3"], label="2b"),
        "2c_redex": Trace("2c", FN, N_),
        "3a_lhs": rep(n["r3"], label="3a"),
        "3b_lhs": rep(n["r3"], label="3b"),
        "3b_domain": Trace("3b", LAM_NAT, LAM_ORD, (), (), (("fresh", "z"),)),
        "3c_redex": Trace("3c", LAM_NAT, ZERO),
        "4a_rhs": Trace("4a", n["a_n"].lhs, N_),
        "4b_lhs": Trace("4b", LAM_NAT, LAM_ORD),
        "4b_rhs": rep(n["r3"], label="4b"),
        "missing_fresh": rep(n["fourb"], aux=()),
        "child_mismatch": rep(
            n["r3"], children=(n["r3"].children[1],) + n["r3"].children[1:]
        ),
        "1a_index": _with_aux(n["a_n"], i=9),
        "2a_side": Trace("2a", FN, N_, (), (), (("side", "head"),)),
        "no_witness": _with_aux(n["a_n"], w=None),
        "not_accessible": _with_aux(n["a_n"], w=U_),
        "xs_unbound": _with_aux(n["a_n"], xs=("q",)),
        "xs_not_names": _with_aux(n["a_n"], xs=5),
        "witness_not_term": _with_aux(n["a_n"], w="N"),
        "witness_type": rep(n["a_v"], rhs=N_),
        "1b_shapes": rep(n["b2"], rhs=N_),
        "1b_heads": rep(n["b2"], rhs=Fun("s", (N_,), Ord)),
        "1b_undeclared": Trace("1b", Q, Q),
        "1c_undeclared": Trace("1c", Q, Q),
        "1c_lhs": Trace("1c", FN, N_),
        "1c_rhs": rep(n["a_n"], label="1c"),
        "not_mul": with_mul2(rep(mul2, label="lexExt")),
        "mul_reuse": with_mul2(_with_aux(mul2, equal=((1, 1), (1, 1)))),
        "mul_unequal": with_mul2(_with_aux(mul2, equal=((0, 0),))),
        "mul_equal_range": with_mul2(_with_aux(mul2, equal=((9, 9),))),
        "mul_cover_pair": with_mul2(_with_aux(mul2, cover=((0,),))),
        "mul_nothing_removed": Trace(
            "2b", FN, FN, (), (Trace("mulExt", fn_args, fn_args, (), (), all_equal),)
        ),
        "mul_cover_misses": with_mul2(rep(_with_aux(mul2, cover=()), children=())),
        "mul_cover_cancelled": with_mul2(_with_aux(mul2, cover=((1, 0),))),
        "pair_mismatch": with_mul2(
            rep(mul2, children=(rep(n["tc"], lhs=ZERO),))
        ),
        "pair_label": with_mul2(rep(mul2, children=(rep(n["tc"], label="1a"),))),
        "ext_sides": with_mul2(rep(mul2, rhs=Var("zz", Ord))),
        "ext_x": with_mul2(rep(mul2, x=(("q", Nat),))),
        "1b_status": _with_aux(n["b2"], status="lex"),
        "shape_child_none": with_first(None),
        "shape_root_none": None,
        "shape_label": rep(r2, label=["1c"]),
        "shape_child_lhs": with_first(rep(r2.children[0], lhs=None)),
        "shape_child_x": with_first(rep(r2.children[0], x=None)),
        "shape_child_aux": with_first(rep(r2.children[0], aux=None)),
        "shape_children": rep(r2, children=None),
        "shape_aux_pair": with_first(rep(r2.children[0], aux=(5,))),
        "shape_ext_aux": with_mul2(rep(mul2, aux=None)),
        "shape_ext_children": with_mul2(rep(mul2, children=None)),
        "shape_pair_none": with_mul2(rep(mul2, children=(None,))),
    }
    if name in simple:
        kind = {"refl_unequal": "ge"}.get(name, "gt")
        return ctx, simple[name], kind, ()
    if name == "typed_goal_label":
        return ctx, n["r3"], "gt_type", ()
    if name == "type_gate":
        return ctx, rep(n["tc"], rhs=U_), "gt_type", ()
    if name == "typecheck_types":
        return ctx, _with_aux(n["tc"], lhs_ty="Nat", rhs_ty="A -> A"), "gt_type", ()
    if name in ("witness_domain", "witness_annotation"):
        # 1a on lim(F) > @(F, m) with w = F applied to m: only the domain
        # check of each applied variable rejects it, also when the witness
        # is annotated with the domain the application wants
        x = (("m", Ord),)
        w = F_ if name == "witness_domain" else Var("F", Arrow(Ord, Ord))
        aux = (("i", 1), ("w", w), ("xs", ("m",)))
        return ctx, Trace("1a", LIM_F, FM, x, (Trace("refl", FM, FM),), aux), "gt", x
    if name == "typecheck_annotation":
        # the typeCheck pair's lim(F) annotated with an arrow type that
        # passes the gate against F : Nat -> Ord
        ctx = parse_problem(LIMITS).ctx
        s, t = Fun("f", (LIM_F, F_), Ord), Fun("g", (F_, F_), Ord)
        below = Engine(ctx).gt((), s, F_)
        lim = rep(LIM_F, ty=Arrow(Nat, Arrow(Nat, Ord)))
        aux = (("i", 1), ("w", F_), ("xs", ()))
        inner = Trace("1a", lim, F_, (), (Trace("refl", F_, F_),), aux)
        printed = (("lhs_ty", "Nat -> Nat -> Ord"), ("rhs_ty", "Nat -> Ord"))
        pair = Trace("typeCheck", lim, F_, (), (inner,), printed)
        cover = (("equal", ((1, 0),)), ("cover", ((0, 1),)))
        mul = Trace("mulExt", _args(LIM_F, F_), _args(F_, F_), (), (pair,), cover)
        status = (("status", "mul"),)
        return ctx, Trace("1b", s, t, (), (below, below, mul), status), "gt", ()
    if name == "4a_children":
        fourA = n["fourA"]
        return ctx, rep(fourA, children=(Trace("refl", N_, N_),)), "gt", fourA.x
    if name == "composite_x":
        b3 = n["b3"]
        mul = b3.children[-1]
        composite = rep(mul.children[0], x=())
        forged = rep(b3, children=b3.children[:-1] + (rep(mul, children=(composite,)),))
        return ctx, forged, "gt", b3.x
    if name in ("type_x_pair_x", "type_x_pair_label"):
        tr = _type_x_trace(brouwer)
        two_b = tr.children[0]
        mul = two_b.children[0]
        pair = mul.children[0]
        if name == "type_x_pair_x":
            pair = rep(pair, x=())
        else:
            pair = rep(pair, label="accApply")
        two_b = rep(two_b, children=(rep(mul, children=(pair,)),))
        return ctx, rep(tr, children=(two_b,)), "gt", ()
    if name == "refl_ge_then_gt":
        # f(s(z), z) > f(z, s(z)) is false: the argument multisets are
        # equal. Its case-1a child f(s(z), z) > s(z) is proved with the refl
        # node s(z) >= s(z), and the cover's pair s(z) > s(z) with the
        # same refl node as its strict part
        ctx = parse_problem(SHARED_EXT).ctx
        z = _twin("z")
        sz = _twin("s", z)
        s, t = _twin("f", sz, z), _twin("f", z, sz)
        refl = Trace("refl", sz, sz)
        below = Trace("1a", s, sz, (), (refl,), (("i", 1), ("w", sz), ("xs", ())))
        printed = (("lhs_ty", "N"), ("rhs_ty", "N"))
        pair = Trace("typeCheck", sz, sz, (), (refl,), printed)
        cover = (("equal", ((1, 0),)), ("cover", ((0, 1),)))
        ext = Trace("mulExt", _args(sz, z), _args(z, sz), (), (pair,), cover)
        children = (Engine(ctx).gt((), s, z), below, ext)
        return ctx, Trace("1b", s, t, (), children, (("status", "mul"),)), "gt", ()
    lex = parse_problem(LEX_PROBLEM)
    lex_tr = Engine(lex.ctx).orient_rule(lex.rules[1].lhs, lex.rules[1].rhs)
    lex_ext = lex_tr.children[-1]
    with_ext = lambda node: rep(lex_tr, children=lex_tr.children[:-1] + (node,))
    if name == "not_lex":
        return lex.ctx, with_ext(rep(lex_ext, label="mulExt")), "gt", ()
    if name == "lex_pos":
        return lex.ctx, with_ext(_with_aux(lex_ext, pos=7)), "gt", ()
    z = _twin("z")
    if name == "distinct_statuses":
        ctx = _twins_ctx((("f", "g"),), {"f": "lex"})
        return ctx, Trace("1b", _twin("f", z, z), _twin("g", z, z)), "gt", ()
    assert name == "lex_lengths"
    ctx = _twins_ctx((("f", "h"),), {"f": "lex", "h": "lex"})
    s = _twin("f", z, z)
    below = Engine(ctx).gt((), s, z)
    ext = Trace("lexExt", _args(z, z), _args(z))
    lex_status = (("status", "lex"),)
    return ctx, Trace("1b", s, _twin("h", z), (), (below, ext), lex_status), "gt", ()


FORGERIES = {
    "refl_unequal": "refl on non-alpha-equal terms",
    "refl_ge_then_gt": "refl proves only non-strict goals",
    "typed_goal_label": "strict part of a typed goal must be typeCheck",
    "type_gate": "type gate fails: Ord vs A",
    "typecheck_annotation": "type gate fails: Ord vs Nat -> Ord",
    "typecheck_types": "typeCheck prints the types 'Nat' vs 'A -> A'",
    "unexpected_label": "unexpected label 'typeCheck' for goal gt",
    "variable_lhs": "no case applies to a variable left-hand side",
    "1a_lhs": "case 1a needs an algebraic left-hand side",
    "2a_lhs": "case 2a needs an application left-hand side",
    "2b_lhs": "case 2b needs applications on both sides",
    "2c_redex": "case 2c needs a beta redex on the left",
    "3a_lhs": "case 3a needs an abstraction on the left",
    "3b_lhs": "case 3b needs abstractions on both sides",
    "3b_domain": "case 3b domain types not equivalent",
    "3c_redex": "case 3c needs an eta redex on the left",
    "4a_rhs": "case 4a needs a freed variable on the right",
    "4b_lhs": "case 4b forbids an abstraction on the left",
    "4b_rhs": "case 4b needs an abstraction on the right",
    "4a_children": r"case 4a expects 0 child\(ren\), found 1",
    "missing_fresh": "missing fresh-name annotation",
    "child_mismatch": "child goal mismatch",
    "1a_index": "case 1a argument index out of range",
    "2a_side": "case 2a side annotation missing",
    "no_witness": "missing accessible-subterm witness",
    "not_accessible": r"s\(N\) is not acc-at-or-above U",
    "xs_unbound": "applied variable 'q' not in the bound set",
    "xs_not_names": "applied variables 5 are not a list of names",
    "witness_not_term": "accessible-subterm witness 'N' is not a term",
    "witness_domain": "applied witness is ill-typed",
    "witness_annotation": "applied witness is ill-typed",
    "witness_type": "applied witness is ill-typed or not of a type equivalent to Ord",
    "1b_shapes": "case 1b needs algebraic terms on both sides",
    "1b_heads": "case 1b needs equivalent head symbols",
    "1b_undeclared": "case 1b on undeclared symbol 'q'",
    "1c_undeclared": "case 1c on undeclared symbol 'q'",
    "distinct_statuses": "equivalent symbols with distinct statuses",
    "1b_status": "case 1b claims status 'lex'",
    "1c_lhs": "case 1c needs an algebraic left-hand side",
    "1c_rhs": "case 1c right-hand side must be algebraic or applied",
    "not_mul": "expected a multiset-extension node",
    "mul_reuse": "multiset cancellation reuses an element",
    "mul_unequal": "cancelled pair is not alpha-equal",
    "mul_equal_range": r"multiset equal \(\(9, 9\),\) is not a list of pairs in range",
    "mul_cover_pair": r"multiset cover \(\(0,\),\) is not a list of pairs in range",
    "mul_nothing_removed": "strict multiset extension with nothing removed",
    "mul_cover_misses": "multiset cover misses a right-hand element",
    "mul_cover_cancelled": "cover uses a cancelled left element",
    "not_lex": "expected a lexicographic-extension node",
    "lex_lengths": "lexicographic extension on unequal lengths",
    "lex_pos": "lexicographic position out of range",
    "pair_mismatch": r"child goal mismatch: have 0 vs N, want s\(N\) vs N",
    "composite_x": r"node X \(\) differs from goal X \(\('n#0'",
    "pair_label": "unexpected extension pair label '1a'",
    "ext_sides": r"child goal mismatch: have <args>\(s\(N\),U,V,W\) vs zz",
    "ext_x": r"node X \(\('q'",
    "type_x_pair_x": r"node X \(\) differs from goal X \(\('x#0'",
    "type_x_pair_label": "unexpected extension pair label 'accApply'",
    "shape_child_none": "malformed trace node None",
    "shape_root_none": "malformed trace node None",
    "shape_label": r"malformed trace node \['1c'\]",
    "shape_child_lhs": "malformed trace node '1a'",
    "shape_child_x": "malformed trace node '1a'",
    "shape_child_aux": "malformed trace node '1a'",
    "shape_children": "malformed trace node '1c'",
    "shape_aux_pair": "malformed trace node '1a'",
    "shape_ext_aux": "malformed trace node 'mulExt'",
    "shape_ext_children": "malformed trace node 'mulExt'",
    "shape_pair_none": "unexpected extension pair label None",
}


def test_unforged_nodes_replay(brouwer):
    # the nodes the forgeries start from are valid as the engine made them
    n = _brouwer_nodes(brouwer)
    for name in ("r3", "b2", "a_n", "a_v", "fourb"):
        check_trace(brouwer.ctx, n[name], "gt", ())
    check_trace(brouwer.ctx, n["tc"], "gt_type", ())
    check_trace(brouwer.ctx, n["b3"], "gt", n["b3"].x)
    check_trace(brouwer.ctx, _type_x_trace(brouwer), "gt", ())


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_validator_rejects_forgery(brouwer, name):
    ctx, forged, kind, x = _forge(name, brouwer)
    with pytest.raises(TraceError, match="^" + FORGERIES[name]):
        check_trace(ctx, forged, kind, x)
