"""Shared ordering context: everything the comparison cases consult.

The universe, accessibility table and minimal types depend only on the
signature and the sort order; `with_precedence` swaps the rest.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .accessibility import APP_SYM, AccTable
from .terms import Signature, Ty
from .typeorder import QuasiOrder, SortOrder, minimal_types, type_universe

MUL = "mul"
LEX = "lex"


@dataclass
class OrderingContext:
    """Signature plus the four ordering ingredients, precomputed."""

    sig: Signature
    sort_order: SortOrder
    prec: QuasiOrder
    statuses: dict[str, str]
    acc: AccTable
    min_types: tuple[Ty, ...]
    universe: tuple[Ty, ...]

    @staticmethod
    def build(
        sig: Signature,
        sort_order: SortOrder,
        prec_strict: tuple[tuple[str, str], ...] = (),
        prec_equiv: tuple[tuple[str, str], ...] = (),
        statuses: dict[str, str] | None = None,
        extra_types: tuple[Ty, ...] = (),
    ) -> "OrderingContext":
        tys = [ty for f in sig.funs for ty in (*f.arg_tys, f.out_ty)]
        universe = type_universe(tys + list(extra_types))
        # the sort-dependent parts; `with_precedence` supplies the rest
        sorts_only = OrderingContext(
            sig=sig,
            sort_order=sort_order,
            prec=QuasiOrder(()),
            statuses={},
            acc=AccTable(sig.funs, sort_order),
            min_types=minimal_types(sort_order, universe),
            universe=universe,
        )
        return sorts_only.with_precedence(prec_strict, prec_equiv, statuses)

    def with_precedence(
        self,
        prec_strict: tuple[tuple[str, str], ...] = (),
        prec_equiv: tuple[tuple[str, str], ...] = (),
        statuses: dict[str, str] | None = None,
    ) -> "OrderingContext":
        """This context under the given precedence and statuses, completed
        for the signature: every symbol sits strictly above the application
        operator `@`, `mul` is the default status, and `@` has status `mul`."""
        names = [f.name for f in self.sig.funs]
        prec = QuasiOrder(
            names + [APP_SYM],
            tuple(prec_strict) + tuple((name, APP_SYM) for name in names),
            tuple(prec_equiv),
        )
        stats = dict.fromkeys(names, MUL)
        stats.update(statuses or {})
        stats[APP_SYM] = MUL
        return replace(self, prec=prec, statuses=stats)

    def prec_class_error(self) -> str | None:
        """Why the precedence puts symbols of different arities or statuses
        in one class, which leaves the extensions ill-defined; None when
        every class agrees."""
        classes: dict[str, list[str]] = {}
        for f in self.sig.funs:
            classes.setdefault(self.prec.rep(f.name), []).append(f.name)
        for members in classes.values():
            names = ", ".join(members)
            if len({self.sig.fun(m).arity for m in members}) > 1:
                return "equivalent symbols with different arities: %s" % names
            if len({self.statuses[m] for m in members}) > 1:
                return "equivalent symbols with different statuses: %s" % names
        return None
