"""Accessible argument positions and the accessible-subterm relations."""
from __future__ import annotations

from typing import Mapping, Sequence

from .terms import (
    Abs,
    AlphaClass,
    App,
    Data,
    Fun,
    FunDecl,
    Term,
    Ty,
    alpha_eq,
    free_vars,
    ty_subterms,
)
from .typeorder import (
    SortOrder,
    is_minimal_type,
    occurs_only,
    ty_eq,
    ty_ge,
)


def acc_indices(decl: FunDecl, order: SortOrder) -> frozenset[int]:
    """1-based argument positions of `decl` that are accessible.

    Position i is accessible when every data type in the argument type sits at
    or below the (data) output type, and those equivalent to the output occur
    only positively. Symbols with a non-data output have no accessible
    positions (the treatment the application operator gets).
    """
    out = decl.out_ty
    if not isinstance(out, Data):
        return frozenset()
    return frozenset(
        i
        for i, arg_ty in enumerate(decl.arg_tys, start=1)
        if all(
            ty_ge(order, out, dt)
            and not (
                ty_eq(order, dt, out)
                and (
                    not occurs_only(order, dt, arg_ty, True)
                    or occurs_only(order, dt, arg_ty, False)
                )
            )
            for dt in ty_subterms(arg_ty)
            if isinstance(dt, Data)
        )
    )


AccTable = Mapping[str, frozenset[int]]


def acc_table(decls: Sequence[FunDecl], order: SortOrder) -> dict[str, frozenset[int]]:
    """Accessible positions per symbol."""
    return {d.name: acc_indices(d, order) for d in decls}


def _candidates(
    acc: AccTable, order: SortOrder, min_types: Sequence[Ty], s: Term
) -> dict[AlphaClass, Term]:
    """The first strict subterm of `s`, in pre-order, of each class that is
    acc-below `s`, keyed by class in that order; cached on `s` for the
    table, sort order and minimal types (by identity). A strict subterm v is
    acc-below `s` when it is accessible in `s`, or of minimal type with
    every free variable free in `s`. Nothing is acc-below a variable or an
    abstraction. An occurrence in which a binder above it captures one of
    its free variables is not a subterm of `s` on its own, so it is
    skipped: otherwise a free variable of `s` with the binder's name would
    make the result depend on how bound variables are spelled.

    The accessible classes, `reach`, are built first by a walk down the
    accessible positions of `Fun` nodes from `s`. A class in `reach` has
    as candidate its first occurrence in pre-order, accessible or not."""
    cached = s.__dict__.get("_acc_cands")
    if (
        cached is not None
        and cached[0] is acc
        and cached[1] is order
        and cached[2] is min_types
    ):
        return cached[3]
    out: dict[AlphaClass, Term] = {}
    if isinstance(s, (Fun, App)):
        reach: set[AlphaClass] = set()
        stack = [s] if isinstance(s, Fun) else []
        while stack:
            f = stack.pop()
            for i in acc[f.sym]:
                arg = f.args[i - 1]
                # a class reached before has its arguments walked or queued
                if arg.alpha_class not in reach:
                    reach.add(arg.alpha_class)
                    if isinstance(arg, Fun):
                        stack.append(arg)
        fv_s = free_vars(s)
        # pre-order, each node with the names bound above it in `s`
        parts = (s.fn, s.arg) if isinstance(s, App) else s.args
        walk = [(v, frozenset()) for v in reversed(parts)]
        while walk:
            v, bound = walk.pop()
            if isinstance(v, Fun):
                walk += [(a, bound) for a in reversed(v.args)]
            elif isinstance(v, App):
                walk += ((v.arg, bound), (v.fn, bound))
            elif isinstance(v, Abs):
                walk.append((v.body, bound | {v.var}))
            cls = v.alpha_class
            if (
                cls not in out
                and (not bound or free_vars(v).isdisjoint(bound))
                and (
                    cls in reach
                    or (
                        is_minimal_type(order, min_types, v.ty)
                        and free_vars(v) <= fv_s
                    )
                )
            ):
                out[cls] = v
    s.__dict__["_acc_cands"] = (acc, order, min_types, out)
    return out


def acc_new_candidates(
    acc: AccTable, order: SortOrder, min_types: Sequence[Ty], s: Fun
) -> list[Term]:
    """The strict candidates of `s` that are not, by node identity, an
    argument of `s` or a strict candidate of one; cached beside them."""
    below = _candidates(acc, order, min_types, s)
    cached = s.__dict__.get("_acc_new")
    if cached is not None and cached[0] is below:
        return cached[1]
    offered = {id(a) for a in s.args}
    for a in s.args:
        offered.update(map(id, _candidates(acc, order, min_types, a).values()))
    new = [w for w in below.values() if id(w) not in offered]
    s.__dict__["_acc_new"] = (below, new)
    return new


def acc_gt(
    acc: AccTable,
    order: SortOrder,
    min_types: Sequence[Ty],
    s: Term,
    v: Term,
) -> Term | None:
    """The strict accessible-subterm relation: the first strict subterm of
    `s`, in pre-order, that is alpha-equal to `v` and acc-below `s`, with
    its own annotations (not `v`'s); None when there is none."""
    return _candidates(acc, order, min_types, s).get(v.alpha_class)


def acc_ge(
    acc: AccTable,
    order: SortOrder,
    min_types: Sequence[Ty],
    s: Term,
    v: Term,
) -> Term | None:
    """`s` itself when it is alpha-equal to `v`, else `acc_gt`."""
    return s if alpha_eq(s, v) else acc_gt(acc, order, min_types, s, v)


def acc_candidates(
    acc: AccTable,
    order: SortOrder,
    min_types: Sequence[Ty],
    s: Term,
    strict: bool,
) -> list[Term]:
    """Deterministic enumeration of all w with s acc-above w.

    Pre-order over subterm positions, deduplicated up to alpha; the reflexive
    candidate (s itself) comes first unless `strict`.
    """
    below = _candidates(acc, order, min_types, s).values()
    return list(below) if strict else [s, *below]
