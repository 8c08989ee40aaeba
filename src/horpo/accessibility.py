"""Accessible argument positions and the accessible-subterm relations."""
from __future__ import annotations

from typing import Callable, Sequence

from .terms import (
    AlphaClass,
    App,
    Data,
    Fun,
    FunDecl,
    Term,
    Ty,
    alpha_eq,
    data_types_in,
    free_vars,
    strict_subterms,
)
from .typeorder import (
    SortOrder,
    is_minimal_type,
    occurs_negatively,
    occurs_positively,
    ty_eq,
    ty_ge,
)

APP_SYM = "@"


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
    acc = set()
    for i, arg_ty in enumerate(decl.arg_tys, start=1):
        ok = True
        for dt in data_types_in(arg_ty):
            if not ty_ge(order, out, dt):
                ok = False
                break
            if ty_eq(order, dt, out):
                if not occurs_positively(order, dt, arg_ty) or occurs_negatively(
                    order, dt, arg_ty
                ):
                    ok = False
                    break
        if ok:
            acc.add(i)
    return frozenset(acc)


class AccTable:
    """Accessible positions per symbol, computed once per signature."""

    def __init__(self, decls: Sequence[FunDecl], order: SortOrder):
        self._table: dict[str, frozenset[int]] = {
            d.name: acc_indices(d, order) for d in decls
        }
        self._table[APP_SYM] = frozenset()

    def __getitem__(self, sym: str) -> frozenset[int]:
        return self._table[sym]


def _reachable(acc: AccTable, s: Fun) -> frozenset[AlphaClass]:
    """Classes of the terms reachable from `s` through accessible argument
    positions, cached on `s` for the table `acc`."""
    cached = s.__dict__.get("_acc_reach")
    if cached is not None and cached[0] is acc:
        return cached[1]
    out: set[AlphaClass] = set()
    for i in acc[s.sym]:
        arg = s.args[i - 1]
        out.add(arg.alpha_class)
        if isinstance(arg, Fun):
            out |= _reachable(acc, arg)
    reach = frozenset(out)
    s.__dict__["_acc_reach"] = (acc, reach)
    return reach


def accessible(acc: AccTable, u: Term, s: Term) -> bool:
    """True iff `u` is reachable from the algebraic term `s` through
    accessible argument positions."""
    return isinstance(s, Fun) and u.alpha_class in _reachable(acc, s)


def _acc_below(
    acc: AccTable, order: SortOrder, min_types: Sequence[Ty], s: Term
) -> Callable[[Term], bool] | None:
    """The test "v is acc-below `s`" for a strict subterm v of `s`: v is
    accessible in `s`, or of minimal type with every free variable free in
    `s`. None when `s` is not headed by a function symbol or an
    application, as then nothing is acc-below it."""
    if not isinstance(s, (Fun, App)):
        return None
    reach = _reachable(acc, s) if isinstance(s, Fun) else frozenset()
    fv_s = free_vars(s)
    return lambda v: v.alpha_class in reach or (
        is_minimal_type(order, min_types, v.ty) and free_vars(v) <= fv_s
    )


def acc_gt(
    acc: AccTable,
    order: SortOrder,
    min_types: Sequence[Ty],
    s: Term,
    v: Term,
) -> bool:
    """The strict accessible-subterm relation: `v` is alpha-equal to a
    strict subterm of `s` and acc-below it."""
    below = _acc_below(acc, order, min_types, s)
    return (
        below is not None
        and below(v)
        and any(alpha_eq(v, u) for u in strict_subterms(s))
    )


def acc_ge(
    acc: AccTable,
    order: SortOrder,
    min_types: Sequence[Ty],
    s: Term,
    v: Term,
) -> bool:
    return alpha_eq(s, v) or acc_gt(acc, order, min_types, s, v)


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
    out: list[Term] = []
    seen: set[AlphaClass] = set()
    if not strict:
        out.append(s)
        seen.add(s.alpha_class)
    below = _acc_below(acc, order, min_types, s)
    if below is not None:
        for v in strict_subterms(s):
            cls = v.alpha_class
            if cls not in seen and below(v):
                out.append(v)
                seen.add(cls)
    return out
