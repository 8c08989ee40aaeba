"""Shared ordering context: everything the comparison cases consult."""
from __future__ import annotations

from dataclasses import dataclass

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
        symbols = [f.name for f in sig.funs] + [APP_SYM]
        # every declared symbol sits strictly above the application operator
        strict = tuple(prec_strict) + tuple(
            (f.name, APP_SYM) for f in sig.funs
        )
        prec = QuasiOrder(symbols, strict, tuple(prec_equiv))
        stats = {f.name: MUL for f in sig.funs}
        stats.update(statuses or {})
        stats[APP_SYM] = MUL
        tys: list[Ty] = []
        for f in sig.funs:
            tys.extend(f.arg_tys)
            tys.append(f.out_ty)
        tys.extend(extra_types)
        universe = type_universe(tys)
        return OrderingContext(
            sig=sig,
            sort_order=sort_order,
            prec=prec,
            statuses=stats,
            acc=AccTable(sig.funs, sort_order),
            min_types=minimal_types(sort_order, universe),
            universe=universe,
        )
