"""Quasi-orderings on sorts/symbols and the induced ordering on types.

The type ordering is generated from a user-supplied quasi-order on sort
symbols: data types compare by their heads (equivalence is congruent in the
arguments), and arrow types follow the arrow preservation / decreasingness
rules. Arrow preservation, arrow decreasingness and arrow monotonicity in
the codomain (tau >= sigma implies a->tau >= a->sigma) hold by the
definitions of `ty_eq` and `ty_gt`; well-foundedness and monotonicity in the
domain (tau->a >= sigma->a) are machine-checked over the finite,
subterm-closed universe of types occurring in a problem.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence, TypeVar

from .terms import Arrow, Data, Ty, ty_str, ty_subterms, ty_size

T = TypeVar("T")


class Cmp(Enum):
    GT = "GT"
    EQ = "EQ"
    LT = "LT"
    INCOMP = "INCOMP"


def _transitive_closure(pairs: Iterable[tuple[T, T]]) -> set[tuple[T, T]]:
    """The transitive closure of a relation given as its pairs."""
    out = set(pairs)
    for k in {a for a, _ in out}:
        into = [a for a, b in out if b == k]
        onward = [b for a, b in out if a == k]
        out.update((a, b) for a in into for b in onward)
    return out


class QuasiOrder:
    """A quasi-order on names, generated from strict and equivalence pairs.

    Equivalence pairs are closed into classes, each named by its least
    member; strict pairs are lifted to classes and closed transitively. The
    strict part may turn out cyclic for bad user input; `is_well_founded()`
    reports that instead of raising, so validation can describe the
    violation.
    """

    def __init__(
        self,
        elements: Iterable[str],
        strict_pairs: Iterable[tuple[str, str]] = (),
        equiv_pairs: Iterable[tuple[str, str]] = (),
    ):
        self.elements = tuple(dict.fromkeys(elements))
        self.strict_pairs = tuple(strict_pairs)
        self.equiv_pairs = tuple(equiv_pairs)
        # each class is named by its least member
        same = _transitive_closure(
            self.equiv_pairs + tuple((b, a) for a, b in self.equiv_pairs)
        )
        self._repr = {
            e: min([e] + [b for a, b in same if a == e]) for e in self.elements
        }
        # the strict relation on class representatives
        self._gt = _transitive_closure(
            (self._repr[big], self._repr[small]) for big, small in self.strict_pairs
        )

    def rep(self, name: str) -> str:
        return self._repr[name]

    def cmp(self, a: str, b: str) -> Cmp:
        ra, rb = self._repr[a], self._repr[b]
        if ra == rb:
            return Cmp.EQ
        if (ra, rb) in self._gt:
            return Cmp.GT
        if (rb, ra) in self._gt:
            return Cmp.LT
        return Cmp.INCOMP

    def is_well_founded(self) -> bool:
        """True iff the strict part is irreflexive after closure."""
        return all((r, r) not in self._gt for r in set(self._repr.values()))


# `SortOrder` is the quasi-order on sort symbols.
SortOrder = QuasiOrder


# ---------------------------------------------------------------------------
# The generated ordering on types


def ty_eq(order: SortOrder, a: Ty, b: Ty) -> bool:
    if a is b:
        return True
    if isinstance(a, Data) and isinstance(b, Data):
        if order._repr[a.sort] != order._repr[b.sort] or len(a.args) != len(b.args):
            return False
        return not a.args or all(ty_eq(order, x, y) for x, y in zip(a.args, b.args))
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        return ty_eq(order, a.dom, b.dom) and ty_eq(order, a.cod, b.cod)
    return False


def ty_gt(order: SortOrder, a: Ty, b: Ty) -> bool:
    if isinstance(a, Data):
        # a data type is never above an arrow type
        return isinstance(b, Data) and order.cmp(a.sort, b.sort) is Cmp.GT
    # arrow decreasingness: dom->cod > b iff cod >= b, or b is an arrow with
    # an equivalent domain and a strictly smaller codomain
    if ty_ge(order, a.cod, b):
        return True
    return (
        isinstance(b, Arrow)
        and ty_eq(order, a.dom, b.dom)
        and ty_gt(order, a.cod, b.cod)
    )


def ty_ge(order: SortOrder, a: Ty, b: Ty) -> bool:
    return ty_eq(order, a, b) or ty_gt(order, a, b)


# ---------------------------------------------------------------------------
# Polarity of data-type occurrences


def occurs_only(order: SortOrder, sigma: Data, tau: Ty, positive: bool) -> bool:
    """Whether every data type equivalent to `sigma` at a leaf of `tau`'s
    arrows sits at a positive position (or, when not `positive`, at a
    negative one). Sort arguments are not entered."""
    if not isinstance(sigma, Data):
        raise ValueError("polarity is defined for data types only")
    if isinstance(tau, Data):
        return positive or not ty_eq(order, sigma, tau)
    return occurs_only(order, sigma, tau.cod, positive) and occurs_only(
        order, sigma, tau.dom, not positive
    )


# ---------------------------------------------------------------------------
# Type universe, axiom validation, minimal types


def type_universe(tys: Iterable[Ty]) -> tuple[Ty, ...]:
    """Subterm closure of the given types, deduplicated, canonically ordered."""
    seen: dict[Ty, None] = {}
    for ty in tys:
        for sub in ty_subterms(ty):
            seen.setdefault(sub, None)
    return tuple(sorted(seen, key=lambda t: (ty_size(t), ty_str(t))))


def validate_axioms(order: SortOrder, universe: Sequence[Ty]) -> list[str]:
    """Check well-foundedness and arrow monotonicity in the domain over
    `universe` (the other axioms hold by construction).

    Returns a list of human-readable violations; empty means all axioms hold
    on this universe. Violations are data, not exceptions.
    """
    violations: list[str] = []
    if not order.is_well_founded():
        violations.append(
            "well-foundedness: the strict sort ordering contains a cycle"
        )
    # acyclicity of the induced strict ordering on the universe
    uni = list(universe)
    reach = _transitive_closure(
        (i, j)
        for i, a in enumerate(uni)
        for j, b in enumerate(uni)
        if ty_gt(order, a, b)
    )
    for i, a in enumerate(uni):
        if (i, i) in reach:
            violations.append("well-foundedness: cycle through type %s" % ty_str(a))
    # arrow monotonicity in the domain: tau >= sigma implies tau->a >=
    # sigma->a, checked for every instance whose composed types all live in
    # the universe
    arrows = {t for t in universe if isinstance(t, Arrow)}
    for a in universe:
        # the types u for which both a->u and u->a are in the universe
        partners = [
            u for u in universe if Arrow(a, u) in arrows and Arrow(u, a) in arrows
        ]
        for tau in partners:
            for sigma in partners:
                if not ty_ge(order, tau, sigma):
                    continue
                left, right = Arrow(tau, a), Arrow(sigma, a)
                if not ty_ge(order, left, right):
                    violations.append(
                        "arrow monotonicity: %s !>= %s" % (ty_str(left), ty_str(right))
                    )
    return violations


def minimal_types(order: SortOrder, universe: Sequence[Ty]) -> tuple[Ty, ...]:
    """Types of the universe minimal for (strict type order | type subterm)+.

    Minimality is up to type equivalence: nothing inequivalent sits below a
    minimal type in the closure, which holds exactly when no universe type
    sits directly below it, by `ty_gt` or as a strict subterm. For `ty_gt(a,
    b)` and `ty_eq(a, b)` never both hold, also under a cyclic sort order,
    and a strict subterm is never equivalent to its type. The result
    contains data types only.
    """

    def has_below(a: Ty) -> bool:
        strict_subs = set(ty_subterms(a)) - {a}
        return any(b in strict_subs or ty_gt(order, a, b) for b in universe)

    return tuple(a for a in universe if not has_below(a))


def is_minimal_type(order: SortOrder, min_types: Sequence[Ty], ty: Ty) -> bool:
    return any(ty_eq(order, ty, m) for m in min_types)
