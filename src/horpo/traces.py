"""Proof traces: tree structure, serialization, and an independent validator.

Every successful comparison produces a trace whose nodes name the ordering
case applied and whose children are exactly that case's subgoals. The
validator re-checks each node locally (typing, accessibility, precedence,
extension covers) without ever calling the search engine, so a trace can be
replayed by a third party. What the engine and the validator must agree
on beyond the term layer, they share from here: extending the bound set
(`x_add`), the argument lists of case 1c (`app_splits`) and the applied
witness of cases 1a, 2a and accApply (`apply_witness`).

Node labels:
  1a..4b      the ordering cases
  refl        reflexivity (alpha-equality) closing a non-strict goal
  typeCheck   a goal guarded by a type comparison, wrapping its strict part
  accApply    the strict accessible-subterm-then-apply composite
  mulExt      multiset extension witness (children are the cover subgoals)
  lexExt      lexicographic extension witness
"""
from __future__ import annotations

from dataclasses import dataclass

from .accessibility import acc_ge, acc_gt
from .context import MUL, OrderingContext
from .terms import (
    Abs,
    App,
    Arrow,
    Fun,
    Term,
    Ty,
    Var,
    alpha_eq,
    beta_reduct,
    eta_reduct,
    free_vars,
    open_abs,
    term_str,
    ty_str,
)
from .typeorder import Cmp, ty_eq, ty_ge


class TraceError(Exception):
    """A trace node fails local replay."""


XSet = tuple[tuple[str, Ty], ...]


@dataclass(frozen=True)
class Trace:
    label: str
    lhs: Term
    rhs: Term
    x: XSet = ()
    children: tuple["Trace", ...] = ()
    aux: tuple[tuple[str, object], ...] = ()

    def get(self, key: str):
        for k, v in self.aux:
            if k == key:
                return v
        return None


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


def _aux_jsonable(value) -> object:
    if isinstance(value, (Var, Abs, App, Fun)):
        return term_str(value)
    if isinstance(value, tuple):
        return [_aux_jsonable(v) for v in value]
    return value


def trace_to_jsonable(trace: Trace) -> dict:
    return {
        "label": trace.label,
        "lhs": term_str(trace.lhs),
        "rhs": term_str(trace.rhs),
        "x": [[name, ty_str(ty)] for name, ty in trace.x],
        "aux": {k: _aux_jsonable(v) for k, v in trace.aux},
        "children": [trace_to_jsonable(c) for c in trace.children],
    }


def trace_to_text(trace: Trace, indent: int = 0) -> str:
    pad = "  " * indent
    if trace.label == "refl":
        line = "%srefl: %s >= %s" % (pad, term_str(trace.lhs), term_str(trace.rhs))
    else:
        line = "%scase %s: %s > %s" % (
            pad,
            trace.label,
            term_str(trace.lhs),
            term_str(trace.rhs),
        )
    lines = [line]
    for c in trace.children:
        lines.append(trace_to_text(c, indent + 1))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Independent replay


GT_LABELS = {
    "1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "3c", "4a", "4b",
}


def check_trace(ctx: OrderingContext, trace: Trace, kind: str, x: XSet) -> None:
    """Replay `trace` as a proof of the goal `kind` (gt/ge/ge_type) under
    bound-variable set `x`; raises TraceError on any local mismatch."""
    s, t = trace.lhs, trace.rhs
    label = trace.label
    xs_names = {name for name, _ in x}
    if tuple(trace.x) != tuple(x):
        raise TraceError("node X %r differs from goal X %r" % (trace.x, x))

    if label == "refl":
        if kind not in ("ge", "ge_type"):
            raise TraceError("refl proves only non-strict goals")
        if not alpha_eq(s, t):
            raise TraceError("refl on non-alpha-equal terms")
        return
    if kind in ("ge_type", "gt_type"):
        if label != "typeCheck":
            raise TraceError("strict part of a typed goal must be typeCheck")
        if not ty_ge(ctx.sort_order, s.ty, t.ty):
            raise TraceError("type gate fails: %s vs %s" % (ty_str(s.ty), ty_str(t.ty)))
        _expect_children(trace, 1)
        _check_child(ctx, trace.children[0], "gt", x, s, t)
        return
    if label not in GT_LABELS:
        raise TraceError("unexpected label %r for goal %s" % (label, kind))
    if isinstance(s, Var):
        raise TraceError("no case applies to a variable left-hand side")

    if label == "1a":
        if not isinstance(s, Fun):
            raise TraceError("case 1a needs an algebraic left-hand side")
        _check_acc_apply(ctx, trace, x, strict=False)
    elif label == "1b":
        _check_1b(ctx, trace, x)
    elif label == "1c":
        _check_1c(ctx, trace, x)
    elif label == "2a":
        if not isinstance(s, App):
            raise TraceError("case 2a needs an application left-hand side")
        _check_acc_apply(ctx, trace, x, strict=False)
    elif label == "2b":
        if not (isinstance(s, App) and isinstance(t, App)):
            raise TraceError("case 2b needs applications on both sides")
        _expect_children(trace, 1)
        _check_ext(
            ctx,
            trace.children[0],
            x,
            left=(s.fn, s.arg),
            right=(t.fn, t.arg),
            status=MUL,
            pair_kind="type_x",
        )
    elif label == "2c":
        reduct = beta_reduct(s)
        if reduct is None:
            raise TraceError("case 2c needs a beta redex on the left")
        _expect_children(trace, 1)
        _check_child(ctx, trace.children[0], "ge", x, reduct, t)
    elif label == "3a":
        if not isinstance(s, Abs):
            raise TraceError("case 3a needs an abstraction on the left")
        z = _check_fresh(trace, s, t, xs_names)
        _expect_children(trace, 1)
        _check_child(ctx, trace.children[0], "ge_type", x, open_abs(s, z), t)
    elif label == "3b":
        if not (isinstance(s, Abs) and isinstance(t, Abs)):
            raise TraceError("case 3b needs abstractions on both sides")
        if not ty_eq(ctx.sort_order, s.var_ty, t.var_ty):
            raise TraceError("case 3b domain types not equivalent")
        z = _check_fresh(trace, s, t, xs_names)
        _expect_children(trace, 1)
        _check_child(
            ctx, trace.children[0], "gt", x, open_abs(s, z), open_abs(t, z)
        )
    elif label == "3c":
        reduct = eta_reduct(s)
        if reduct is None:
            raise TraceError("case 3c needs an eta redex on the left")
        _expect_children(trace, 1)
        _check_child(ctx, trace.children[0], "ge", x, reduct, t)
    elif label == "4a":
        if not (isinstance(t, Var) and t.name in xs_names):
            raise TraceError("case 4a needs a freed variable on the right")
        _expect_children(trace, 0)
    elif label == "4b":
        if isinstance(s, Abs):
            raise TraceError("case 4b forbids an abstraction on the left")
        if not isinstance(t, Abs):
            raise TraceError("case 4b needs an abstraction on the right")
        z = _check_fresh(trace, s, t, xs_names)
        _expect_children(trace, 1)
        _check_child(
            ctx, trace.children[0], "gt", x_add(x, z, t.var_ty), s, open_abs(t, z)
        )


def _expect_children(trace: Trace, n: int) -> None:
    if len(trace.children) != n:
        raise TraceError(
            "case %s expects %d child(ren), found %d"
            % (trace.label, n, len(trace.children))
        )


def _check_fresh(trace: Trace, s: Term, t: Term, xs_names: set[str]) -> str:
    """The node's fresh name, which must be new to X and to both sides."""
    z = trace.get("fresh")
    if not isinstance(z, str) or not z:
        raise TraceError("missing fresh-name annotation")
    if z in xs_names:
        raise TraceError("fresh name %r collides with the bound set" % z)
    if z in free_vars(s) or z in free_vars(t):
        raise TraceError("fresh name %r occurs free in the goal" % z)
    return z


def _check_child(
    ctx: OrderingContext, child: Trace, kind: str, x: XSet, s: Term, t: Term
) -> None:
    if not alpha_eq(child.lhs, s) or not alpha_eq(child.rhs, t):
        raise TraceError(
            "child goal mismatch: have %s vs %s, want %s vs %s"
            % (term_str(child.lhs), term_str(child.rhs), term_str(s), term_str(t))
        )
    check_trace(ctx, child, kind, x)


def _check_acc_apply(
    ctx: OrderingContext, trace: Trace, x: XSet, strict: bool
) -> None:
    """Cases 1a/2a and the accApply composite share this shape."""
    s, t = trace.lhs, trace.rhs
    if trace.label == "1a":
        i = trace.get("i")
        if not isinstance(i, int) or not 1 <= i <= len(s.args):
            raise TraceError("case 1a argument index out of range")
        base = s.args[i - 1]
    elif trace.label == "2a":
        side = trace.get("side")
        if side not in ("fn", "arg"):
            raise TraceError("case 2a side annotation missing")
        base = s.fn if side == "fn" else s.arg
    else:  # accApply: the base is the left-hand side itself
        base = s
    w = trace.get("w")
    if w is None:
        raise TraceError("missing accessible-subterm witness")
    rel = acc_gt if strict else acc_ge
    if not rel(ctx.acc, ctx.sort_order, ctx.min_types, base, w):
        raise TraceError(
            "%s is not acc-%s %s"
            % (term_str(base), "above" if strict else "at-or-above", term_str(w))
        )
    xs_raw = trace.get("xs") or ()
    x_tys = dict(x)
    xs: list[tuple[str, Ty]] = []
    for name in xs_raw:
        if name not in x_tys:
            raise TraceError("applied variable %r not in the bound set" % name)
        xs.append((name, x_tys[name]))
    wapp = apply_witness(ctx, w, tuple(xs), t.ty)
    if wapp is None:
        raise TraceError(
            "applied witness is ill-typed or not of a type equivalent to %s"
            % ty_str(t.ty)
        )
    _expect_children(trace, 1)
    # the inner comparison runs with an empty bound-variable set
    _check_child(ctx, trace.children[0], "ge", (), wapp, t)


def _check_1b(ctx: OrderingContext, trace: Trace, x: XSet) -> None:
    s, t = trace.lhs, trace.rhs
    if not (isinstance(s, Fun) and isinstance(t, Fun)):
        raise TraceError("case 1b needs algebraic terms on both sides")
    if ctx.prec.cmp(s.sym, t.sym) is not Cmp.EQ:
        raise TraceError("case 1b needs equivalent head symbols")
    status = ctx.statuses[s.sym]
    if status != ctx.statuses[t.sym]:
        raise TraceError("equivalent symbols with distinct statuses")
    _expect_children(trace, len(t.args) + 1)
    for child, tj in zip(trace.children[:-1], t.args):
        _check_child(ctx, child, "gt", x, s, tj)
    _check_ext(
        ctx,
        trace.children[-1],
        x,
        left=s.args,
        right=t.args,
        status=status,
        pair_kind="union",
    )


def _check_1c(ctx: OrderingContext, trace: Trace, x: XSet) -> None:
    s, t = trace.lhs, trace.rhs
    if not isinstance(s, Fun):
        raise TraceError("case 1c needs an algebraic left-hand side")
    if isinstance(t, Fun):
        if ctx.prec.cmp(s.sym, t.sym) is not Cmp.GT:
            raise TraceError("case 1c needs a strictly smaller head symbol")
        targs = list(t.args)
    elif isinstance(t, App):
        # every declared symbol is above @; the split is the one whose
        # length matches the children
        splits = app_splits(t)
        targs = next(
            (a for a in splits if len(a) == len(trace.children)), splits[0]
        )
    else:
        raise TraceError("case 1c right-hand side must be algebraic or applied")
    _expect_children(trace, len(targs))
    for child, tj in zip(trace.children, targs):
        _check_child(ctx, child, "gt", x, s, tj)


def _check_ext(
    ctx: OrderingContext,
    node: Trace,
    x: XSet,
    left: tuple[Term, ...],
    right: tuple[Term, ...],
    status: str,
    pair_kind: str,
) -> None:
    if status == MUL:
        if node.label != "mulExt":
            raise TraceError("expected a multiset-extension node")
        equal = node.get("equal") or ()
        cover = node.get("cover") or ()
        used_l: set[int] = set()
        used_r: set[int] = set()
        for i, j in equal:
            if i in used_l or j in used_r:
                raise TraceError("multiset cancellation reuses an element")
            if not alpha_eq(left[i], right[j]):
                raise TraceError("cancelled pair is not alpha-equal")
            used_l.add(i)
            used_r.add(j)
        removed = [i for i in range(len(left)) if i not in used_l]
        leftover_r = [j for j in range(len(right)) if j not in used_r]
        if not removed:
            raise TraceError("strict multiset extension with nothing removed")
        if sorted(j for _, j in cover) != leftover_r:
            raise TraceError("multiset cover misses a right-hand element")
        _expect_children(node, len(cover))
        for (i, j), child in zip(cover, node.children):
            if i not in removed:
                raise TraceError("cover uses a cancelled left element")
            _check_pair(ctx, child, x, left[i], right[j], pair_kind)
    else:
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
        _expect_children(node, 1)
        _check_pair(ctx, node.children[0], x, left[pos], right[pos], pair_kind)


def _check_pair(
    ctx: OrderingContext,
    child: Trace,
    x: XSet,
    a: Term,
    b: Term,
    pair_kind: str,
) -> None:
    """A single extension subgoal.

    `union`  : typed comparison with empty X, or the strict composite with X
    `type_x` : typed comparison carrying X (application status case)
    """
    if not alpha_eq(child.lhs, a) or not alpha_eq(child.rhs, b):
        raise TraceError("extension pair mismatch")
    if child.label == "typeCheck":
        inner_x: XSet = x if pair_kind == "type_x" else ()
        check_trace(ctx, child, "gt_type", inner_x)
    elif child.label == "accApply" and pair_kind == "union":
        if tuple(child.x) != tuple(x):
            raise TraceError("composite node carries the wrong bound set")
        _check_acc_apply(ctx, child, x, strict=True)
    else:
        raise TraceError("unexpected extension pair label %r" % child.label)
