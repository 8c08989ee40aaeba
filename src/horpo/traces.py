"""Proof traces: tree structure, serialization, and an independent validator.

Every successful comparison produces a trace whose nodes name the ordering
case applied and whose children are exactly that case's subgoals. The
validator re-checks each node locally (typing, accessibility, precedence,
extension covers) without ever calling the search engine, so a trace can be
replayed by a third party. What the engine and the validator must agree
on beyond the term layer, they share from here: extending the bound set
(`x_add`), the argument lists of case 1c (`app_splits`) and of the
extensions (`ext_args`), and the applied witness of cases 1a, 2a and
accApply (`apply_witness`).

Node labels:
  1a..4b      the ordering cases
  refl        reflexivity (alpha-equality) closing a non-strict goal
  typeCheck   a goal guarded by a type comparison, wrapping its strict part
  accApply    the strict accessible-subterm-then-apply composite
  mulExt      multiset extension witness (children are the cover subgoals)
  lexExt      lexicographic extension witness

An extension node proves its parent's goal, so its sides are its parent's
sides; it compares their argument lists.
"""
from __future__ import annotations

from typing import Callable

from .accessibility import acc_ge, acc_gt
from .context import MUL, OrderingContext
from .terms import (
    Abs,
    App,
    Arrow,
    Fun,
    Record,
    Term,
    Ty,
    Var,
    alpha_eq,
    beta_reduct,
    eta_reduct,
    free_vars,
    open_abs,
    term_printer,
    term_str,
    ty_str,
)
from .typeorder import Cmp, ty_eq, ty_ge


class TraceError(Exception):
    """A trace node fails local replay."""


XSet = tuple[tuple[str, Ty], ...]


class Trace(Record):
    __slots__ = ("label", "lhs", "rhs", "x", "children", "aux")

    # the engine builds a node per case it proves, so each field is set
    # through its slot's own setter, which builds a node in about two
    # thirds of the time that `object.__setattr__` takes
    def __init__(
        self, label: str, lhs: Term, rhs: Term, x: XSet = (),
        children: tuple[Trace, ...] = (), aux: tuple[tuple[str, object], ...] = (),
    ):
        set_label, set_lhs, set_rhs, set_x, set_children, set_aux = _TRACE_SLOTS
        set_label(self, label)
        set_lhs(self, lhs)
        set_rhs(self, rhs)
        set_x(self, x)
        set_children(self, children)
        set_aux(self, aux)

    def get(self, key: str):
        """The aux value under `key`, or None; a non-pair entry is malformed."""
        try:
            for k, v in self.aux:
                if k == key:
                    return v
        except (TypeError, ValueError):
            raise TraceError("malformed trace node %.60r" % (self.label,)) from None
        return None


_TRACE_SLOTS = tuple(Trace.__dict__[name].__set__ for name in Trace.__slots__)


def x_add(x: XSet, name: str, ty: Ty) -> XSet:
    """The bound set `x` with the freed variable `name : ty` added."""
    return tuple(sorted(set(x) | {(name, ty)}))


def flatten_app(t: Term) -> list[Term]:
    """Application spine of `t` as the argument list of a variadic @."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.append(t)
    args.reverse()
    return args


def app_splits(t: App) -> list[list[Term]]:
    """The argument lists case 1c may compare against the application `t`.

    The fully flattened spine gives the most readable derivation, but it is
    not preserved by substitution when the spine head is a variable that
    gets instantiated with another application; the binary split always is,
    and covers every regrouping recursively. The two lists differ in length
    whenever both are offered."""
    spine = flatten_app(t)
    return [spine] if len(spine) == 2 else [spine, [t.fn, t.arg]]


def ext_args(t: Fun | App) -> tuple[Term, ...]:
    """The argument list an extension compares on the side `t`: a
    function symbol's arguments (case 1b), or an application's function
    and argument (case 2b)."""
    return t.args if isinstance(t, Fun) else (t.fn, t.arg)


def apply_witness(
    ctx: OrderingContext, w: Term, xs: XSet, ty: Ty
) -> Term | None:
    """Left-nested application @(w, xs) when it is well-typed and of a type
    equivalent to `ty`; None otherwise."""
    t = w
    for name, vty in xs:
        if not isinstance(t.ty, Arrow) or not ty_eq(ctx.sort_order, t.ty.dom, vty):
            return None
        t = App(t, Var(name, vty), t.ty.cod)
    return t if ty_eq(ctx.sort_order, t.ty, ty) else None


# ---------------------------------------------------------------------------
# Serialization


def _sides(show: Callable[[Term], str], t: Trace) -> tuple[str, str]:
    """A node's sides as `show` prints them; an extension node's as the
    argument lists it compares, `<args>(...)`."""
    if t.label not in ("mulExt", "lexExt"):
        return show(t.lhs), show(t.rhs)
    lhs, rhs = ["<args>(%s)" % ",".join(map(show, ext_args(u))) for u in (t.lhs, t.rhs)]
    return lhs, rhs


def trace_to_jsonable(trace: Trace) -> dict:
    """The trace as JSON-ready dicts and lists, built once per distinct node:
    a subtrace the engine shared is the same dict object at each of its
    positions. The result is read-only: mutating one position would change
    them all."""
    made: dict[int, dict] = {}
    show = term_printer()

    def aux(value) -> object:
        if isinstance(value, (Var, Abs, App, Fun)):
            return show(value)
        if isinstance(value, tuple):
            return [aux(v) for v in value]
        return value

    # an empty x or aux field, and an aux value that is a str or an int,
    # costs no frame: most nodes bind no variable, and most aux values are
    # indices
    def build(t: Trace) -> dict:
        obj = made.get(id(t))
        if obj is None:
            label, x, pairs, children = t.label, t.x, t.aux, t.children
            if label == "mulExt" or label == "lexExt":
                lhs, rhs = _sides(show, t)
            else:
                lhs, rhs = show(t.lhs), show(t.rhs)
            obj = made[id(t)] = {
                "label": label,
                "lhs": lhs,
                "rhs": rhs,
                "x": [[name, ty_str(ty)] for name, ty in x] if x else [],
                "aux": {
                    k: v if type(v) is str or type(v) is int else aux(v)
                    for k, v in pairs
                } if pairs else {},
                "children": [build(c) for c in children],
            }
        return obj

    return build(trace)


def trace_to_text(trace: Trace) -> str:
    """One line per node of the unfolded tree, each child two spaces deeper,
    in one pass: a node is written in place the first time it is reached at
    a depth, and its lines are joined once and reused when it is reached
    there again."""
    show = term_printer()
    lines: list[str] = []
    spans: dict[tuple[int, int], slice | str] = {}

    def write(t: Trace, depth: int) -> None:
        key = id(t), depth
        span = spans.get(key)
        if span is not None:
            if isinstance(span, slice):
                span = spans[key] = "\n".join(lines[span])
            lines.append(span)
            return
        start = len(lines)
        if t.label == "refl":
            line = "refl: %s >= %s" % _sides(show, t)
        else:
            line = "case %s: %s > %s" % (t.label, *_sides(show, t))
        lines.append("  " * depth + line)
        for c in t.children:
            write(c, depth + 1)
        spans[key] = slice(start, len(lines))

    write(trace, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Independent replay


GT_LABELS = {
    "1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "3c", "4a", "4b",
}


def check_trace(ctx: OrderingContext, trace: Trace, kind: str, x: XSet) -> None:
    """Replay `trace` as a proof of the goal `kind` (gt, ge, ge_type or
    gt_type) under bound-variable set `x`; raises TraceError on any local
    mismatch.

    The root's sides are its goal, and each other node's goal is the one
    its parent's case assigns. The checks read the goal's terms: a node's
    sides only have to match it up to alpha-equivalence.

    A subtrace the engine shared is one node object reached along several
    paths. Each distinct goal (node, kind, X) is replayed once per call; the
    match of a child against the goal its parent assigns it runs on every
    path. The work is linear in the distinct goals, not in the unfolded
    tree."""
    _check_shape(trace)
    _check_goal(ctx, trace, kind, tuple(x), trace.lhs, trace.rhs, set())


# A goal's kind: gt, ge, ge_type, gt_type or accApply. An extension pair's
# kind is how it may be proved: `union` (a typed comparison with empty X, or
# the strict composite with X) or `type_x` (a typed comparison carrying X,
# for application status). An extension node's is (status, pair kind), and
# its sides are its parent's, whose argument lists it compares.
Kind = str | tuple[str, str]
# A replayed goal: the node's identity, the goal kind and the bound set.
Goal = tuple[int, Kind, XSet]
# A child's goal: (kind, X, s, t).
Premise = tuple[Kind, XSet, Term, Term]
# The types a sequence read from a node may have.
_SEQ = (tuple, list)


def _check_goal(
    ctx: OrderingContext,
    trace: Trace,
    kind: Kind,
    x: XSet,
    s: Term,
    t: Term,
    done: set[Goal],
) -> None:
    """Replay one node as a proof of the goal s `kind` t under `x`. Its sides
    must match the goal's on every path; the rest, its shape check first, is
    skipped when `done` (the goals replayed successfully so far in this
    call) holds it."""
    if kind in ("union", "type_x"):
        label = trace.label if isinstance(trace, Trace) else None
        if label == "typeCheck":
            kind, x = "gt_type", (x if kind == "type_x" else ())
        elif label == "accApply" and kind == "union":
            kind = "accApply"
        else:
            raise TraceError("unexpected extension pair label %r" % (label,))
    goal = (id(trace), kind, x)
    replayed = goal in done
    if not replayed:
        _check_shape(trace)
    if not (alpha_eq(trace.lhs, s) and alpha_eq(trace.rhs, t)):
        raise TraceError(
            "child goal mismatch: have %s vs %s, want %s vs %s"
            % (term_str(trace.lhs), term_str(trace.rhs), term_str(s), term_str(t))
        )
    if replayed:
        return
    premises = _premises(ctx, trace, kind, x, s, t)
    _expect_children(trace, len(premises))
    for child, (k, cx, cs, ct) in zip(trace.children, premises):
        _check_goal(ctx, child, k, cx, cs, ct, done)
    done.add(goal)


def _premises(
    ctx: OrderingContext, node: Trace, kind: Kind, x: XSet, s: Term, t: Term
) -> list[Premise]:
    """Check the node's bound set and side conditions as a proof of the goal
    s `kind` t under `x`; its children's goals, in order."""
    if tuple(node.x) != x:
        raise TraceError("node X %r differs from goal X %r" % (node.x, x))
    if isinstance(kind, tuple):
        return _ext_premises(node, x, s, t, *kind)
    label = node.label
    if label == "refl":
        if kind not in ("ge", "ge_type"):
            raise TraceError("refl proves only non-strict goals")
        if not alpha_eq(s, t):
            raise TraceError("refl on non-alpha-equal terms")
        return []
    if kind == "accApply":  # the strict composite, as an extension pair
        return _witness_premises(ctx, node, x, s, t)
    if kind in ("ge_type", "gt_type"):
        if label != "typeCheck":
            raise TraceError("strict part of a typed goal must be typeCheck")
        if not ty_ge(ctx.sort_order, s.ty, t.ty):
            raise TraceError("type gate fails: %s vs %s" % (ty_str(s.ty), ty_str(t.ty)))
        printed = (node.get("lhs_ty"), node.get("rhs_ty"))
        if printed != (ty_str(s.ty), ty_str(t.ty)):
            raise TraceError("typeCheck prints the types %r vs %r" % printed)
        return [("gt", x, s, t)]
    if label not in GT_LABELS:
        raise TraceError("unexpected label %r for goal %s" % (label, kind))
    if isinstance(s, Var):
        raise TraceError("no case applies to a variable left-hand side")
    if label in ("1a", "2a"):
        return _witness_premises(ctx, node, x, s, t)
    if label == "1b":
        return _1b_premises(ctx, node, x, s, t)
    if label == "1c":
        return _1c_premises(ctx, node, x, s, t)
    if label == "2b":
        if not (isinstance(s, App) and isinstance(t, App)):
            raise TraceError("case 2b needs applications on both sides")
        return [((MUL, "type_x"), x, s, t)]
    if label in ("2c", "3c"):
        reduct = (beta_reduct if label == "2c" else eta_reduct)(s)
        if reduct is None:
            redex = "a beta" if label == "2c" else "an eta"
            raise TraceError("case %s needs %s redex on the left" % (label, redex))
        return [("ge", x, reduct, t)]
    if label == "3a":
        if not isinstance(s, Abs):
            raise TraceError("case 3a needs an abstraction on the left")
        z = _check_fresh(node, s, t, x)
        return [("ge_type", x, open_abs(s, z), t)]
    if label == "3b":
        if not (isinstance(s, Abs) and isinstance(t, Abs)):
            raise TraceError("case 3b needs abstractions on both sides")
        if not ty_eq(ctx.sort_order, s.var_ty, t.var_ty):
            raise TraceError("case 3b domain types not equivalent")
        z = _check_fresh(node, s, t, x)
        return [("gt", x, open_abs(s, z), open_abs(t, z))]
    if label == "4a":
        if not (isinstance(t, Var) and t.name in dict(x)):
            raise TraceError("case 4a needs a freed variable on the right")
        return []
    # 4b
    if isinstance(s, Abs):
        raise TraceError("case 4b forbids an abstraction on the left")
    if not isinstance(t, Abs):
        raise TraceError("case 4b needs an abstraction on the right")
    z = _check_fresh(node, s, t, x)
    return [("gt", x_add(x, z, t.var_ty), s, open_abs(t, z))]


def _check_shape(trace: Trace) -> None:
    """The node's fields have the types the checker reads them at; its
    children are checked when replayed, its aux entries by `Trace.get`."""
    if not (
        isinstance(trace, Trace)
        and isinstance(trace.label, str)
        and isinstance(trace.lhs, Term)
        and isinstance(trace.rhs, Term)
        and isinstance(trace.x, _SEQ)
        and isinstance(trace.children, _SEQ)
        and isinstance(trace.aux, _SEQ)
    ):
        what = trace.label if isinstance(trace, Trace) else trace
        raise TraceError("malformed trace node %.60r" % (what,))


def _expect_children(trace: Trace, n: int) -> None:
    if len(trace.children) != n:
        raise TraceError(
            "case %s expects %d child(ren), found %d"
            % (trace.label, n, len(trace.children))
        )


def _check_fresh(trace: Trace, s: Term, t: Term, x: XSet) -> str:
    """The node's fresh name, which must be new to X and to both sides."""
    z = trace.get("fresh")
    if not isinstance(z, str) or not z:
        raise TraceError("missing fresh-name annotation")
    if z in dict(x):
        raise TraceError("fresh name %r collides with the bound set" % z)
    if z in free_vars(s) or z in free_vars(t):
        raise TraceError("fresh name %r occurs free in the goal" % z)
    return z


def _witness_premises(
    ctx: OrderingContext, node: Trace, x: XSet, s: Term, t: Term
) -> list[Premise]:
    """Cases 1a/2a and the accApply composite share this shape. The witness
    applied is the base's own subterm that `w` names."""
    rel = acc_ge
    if node.label == "1a":
        if not isinstance(s, Fun):
            raise TraceError("case 1a needs an algebraic left-hand side")
        i = node.get("i")
        if not isinstance(i, int) or not 1 <= i <= len(s.args):
            raise TraceError("case 1a argument index out of range")
        base = s.args[i - 1]
    elif node.label == "2a":
        if not isinstance(s, App):
            raise TraceError("case 2a needs an application left-hand side")
        side = node.get("side")
        if side not in ("fn", "arg"):
            raise TraceError("case 2a side annotation missing")
        base = s.fn if side == "fn" else s.arg
    else:  # accApply: strictly below the left-hand side itself
        base, rel = s, acc_gt
    w = node.get("w")
    if w is None:
        raise TraceError("missing accessible-subterm witness")
    if not isinstance(w, Term):
        raise TraceError("accessible-subterm witness %r is not a term" % (w,))
    w_base = rel(ctx.acc, ctx.sort_order, ctx.min_types, base, w)
    if w_base is None:
        above = "above" if rel is acc_gt else "at-or-above"
        raise TraceError("%s is not acc-%s %s" % (term_str(base), above, term_str(w)))
    names = node.get("xs") or ()
    if not isinstance(names, _SEQ) or not all(isinstance(n, str) for n in names):
        raise TraceError("applied variables %r are not a list of names" % (names,))
    x_tys = dict(x)
    for name in names:
        if name not in x_tys:
            raise TraceError("applied variable %r not in the bound set" % name)
    wapp = apply_witness(ctx, w_base, tuple((n, x_tys[n]) for n in names), t.ty)
    if wapp is None:
        raise TraceError(
            "applied witness is ill-typed or not of a type equivalent to %s"
            % ty_str(t.ty)
        )
    # the inner comparison runs with an empty bound-variable set
    return [("ge", (), wapp, t)]


def _1b_premises(
    ctx: OrderingContext, node: Trace, x: XSet, s: Term, t: Term
) -> list[Premise]:
    if not (isinstance(s, Fun) and isinstance(t, Fun)):
        raise TraceError("case 1b needs algebraic terms on both sides")
    _check_declared(ctx, node, s.sym, t.sym)
    if ctx.prec.cmp(s.sym, t.sym) is not Cmp.EQ:
        raise TraceError("case 1b needs equivalent head symbols")
    status = ctx.statuses[s.sym]
    if status != ctx.statuses[t.sym]:
        raise TraceError("equivalent symbols with distinct statuses")
    if node.get("status") != status:
        raise TraceError("case 1b claims status %r" % (node.get("status"),))
    return [("gt", x, s, tj) for tj in t.args] + [((status, "union"), x, s, t)]


def _check_declared(ctx: OrderingContext, trace: Trace, *syms: str) -> None:
    for sym in syms:
        if sym not in ctx.sig.fun_by_name:
            raise TraceError("case %s on undeclared symbol %r" % (trace.label, sym))


def _1c_premises(
    ctx: OrderingContext, node: Trace, x: XSet, s: Term, t: Term
) -> list[Premise]:
    if not isinstance(s, Fun):
        raise TraceError("case 1c needs an algebraic left-hand side")
    _check_declared(ctx, node, s.sym)
    if isinstance(t, Fun):
        _check_declared(ctx, node, t.sym)
        if ctx.prec.cmp(s.sym, t.sym) is not Cmp.GT:
            raise TraceError("case 1c needs a strictly smaller head symbol")
        targs = list(t.args)
    elif isinstance(t, App):
        # applications sit below every symbol: no precedence test; the
        # split is the one whose length matches the children
        splits = app_splits(t)
        targs = next(
            (a for a in splits if len(a) == len(node.children)), splits[0]
        )
    else:
        raise TraceError("case 1c right-hand side must be algebraic or applied")
    return [("gt", x, s, tj) for tj in targs]


def _ext_premises(
    node: Trace, x: XSet, s: Term, t: Term, status: str, pair: str
) -> list[Premise]:
    """An extension node's checks on the argument lists of its goal's
    sides; its children are the pairs it compares."""
    left, right = ext_args(s), ext_args(t)
    if status == MUL:
        if node.label != "mulExt":
            raise TraceError("expected a multiset-extension node")
        equal = _index_pairs(node, "equal", len(left), len(right))
        cover = _index_pairs(node, "cover", len(left), len(right))
        used_l: set[int] = set()
        used_r: set[int] = set()
        for i, j in equal:
            if i in used_l or j in used_r:
                raise TraceError("multiset cancellation reuses an element")
            if not alpha_eq(left[i], right[j]):
                raise TraceError("cancelled pair is not alpha-equal")
            used_l.add(i)
            used_r.add(j)
        if len(used_l) == len(left):
            raise TraceError("strict multiset extension with nothing removed")
        leftover_r = [j for j in range(len(right)) if j not in used_r]
        if sorted(j for _, j in cover) != leftover_r:
            raise TraceError("multiset cover misses a right-hand element")
        if any(i in used_l for i, _ in cover):
            raise TraceError("cover uses a cancelled left element")
        return [(pair, x, left[i], right[j]) for i, j in cover]
    if node.label != "lexExt":
        raise TraceError("expected a lexicographic-extension node")
    if len(left) != len(right):
        raise TraceError("lexicographic extension on unequal lengths")
    pos = node.get("pos")
    if not isinstance(pos, int) or not 0 <= pos < len(left):
        raise TraceError("lexicographic position out of range")
    for k in range(pos):
        if not alpha_eq(left[k], right[k]):
            raise TraceError("lexicographic prefix not alpha-equal")
    return [(pair, x, left[pos], right[pos])]


def _index_pairs(node: Trace, key: str, n: int, m: int) -> tuple | list:
    """The node's `key` entries, each a pair (i, j) with i < n and j < m."""
    pairs = node.get(key) or ()
    if not isinstance(pairs, _SEQ) or not all(
        isinstance(p, _SEQ)
        and len(p) == 2
        and isinstance(p[0], int)
        and isinstance(p[1], int)
        and 0 <= p[0] < n
        and 0 <= p[1] < m
        for p in pairs
    ):
        raise TraceError(
            "multiset %s %r is not a list of pairs in range" % (key, pairs)
        )
    return pairs
