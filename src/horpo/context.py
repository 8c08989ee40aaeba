"""Shared ordering context: everything the comparison cases consult.

`OrderingContext.build` completes the declared precedence and statuses for
the signature and computes the type universe, the accessibility table and
the minimal types, which depend only on the signature and the sort order.
"""
from __future__ import annotations

from .accessibility import AccTable, acc_table
from .terms import Signature, Ty
from .typeorder import QuasiOrder, SortOrder, minimal_types, type_universe

MUL = "mul"
LEX = "lex"


class OrderingContext:
    """Signature plus the four ordering ingredients, precomputed."""

    def __init__(
        self, sig: Signature, sort_order: SortOrder, prec: QuasiOrder,
        statuses: dict[str, str], acc: AccTable, min_types: tuple[Ty, ...],
        universe: tuple[Ty, ...],
    ):
        self.sig = sig
        self.sort_order = sort_order
        self.prec = prec
        self.statuses = statuses
        self.acc = acc
        self.min_types = min_types
        self.universe = universe

    @staticmethod
    def build(
        sig: Signature,
        sort_order: SortOrder,
        prec_strict: tuple[tuple[str, str], ...] = (),
        prec_equiv: tuple[tuple[str, str], ...] = (),
        statuses: dict[str, str] | None = None,
        extra_types: tuple[Ty, ...] = (),
    ) -> "OrderingContext":
        """The context of the given parameters, with the precedence over
        the declared symbols and `mul` as the default status."""
        universe = type_universe(sig.fun_types + tuple(extra_types))
        names = [f.name for f in sig.funs]
        prec = QuasiOrder(names, prec_strict, prec_equiv)
        stats = dict.fromkeys(names, MUL)
        stats.update(statuses or {})
        return OrderingContext(
            sig, sort_order, prec, stats, acc_table(sig.funs, sort_order),
            minimal_types(sort_order, universe), universe,
        )

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
