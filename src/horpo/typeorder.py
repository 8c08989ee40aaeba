"""Quasi-orderings on sorts/symbols and the induced ordering on types.

The type ordering is generated from a user-supplied quasi-order on sort
symbols: data types compare by their heads (equivalence is congruent in the
arguments), and arrow types follow the arrow preservation / decreasingness
rules. Of the four axioms the ordering must satisfy, arrow preservation and
arrow decreasingness hold by the definitions of `ty_eq` and `ty_gt`; the
other two, well-foundedness and arrow monotonicity, are machine-checked over
the finite, subterm-closed universe of types occurring in a problem.
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

    Equivalence pairs are closed into classes; strict pairs are lifted to
    classes and closed transitively. The strict part may turn out cyclic for
    bad user input; `is_well_founded()` reports that instead of raising, so
    validation can describe the violation.
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
        parent = {e: e for e in self.elements}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.equiv_pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        self._repr = {e: find(e) for e in self.elements}
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
    if isinstance(a, Data) and isinstance(b, Data):
        return (
            order.cmp(a.sort, b.sort) is Cmp.EQ
            and len(a.args) == len(b.args)
            and all(ty_eq(order, x, y) for x, y in zip(a.args, b.args))
        )
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


def cmp_types(order: SortOrder, a: Ty, b: Ty) -> Cmp:
    if ty_eq(order, a, b):
        return Cmp.EQ
    if ty_gt(order, a, b):
        return Cmp.GT
    if ty_gt(order, b, a):
        return Cmp.LT
    return Cmp.INCOMP


# ---------------------------------------------------------------------------
# Polarity of data-type occurrences


def occurs_positively(order: SortOrder, sigma: Data, tau: Ty) -> bool:
    if not isinstance(sigma, Data):
        raise ValueError("polarity is defined for data types only")
    if isinstance(tau, Data):
        return True
    return occurs_positively(order, sigma, tau.cod) and occurs_negatively(
        order, sigma, tau.dom
    )


def occurs_negatively(order: SortOrder, sigma: Data, tau: Ty) -> bool:
    if not isinstance(sigma, Data):
        raise ValueError("polarity is defined for data types only")
    if isinstance(tau, Data):
        return not ty_eq(order, sigma, tau)
    return occurs_negatively(order, sigma, tau.cod) and occurs_positively(
        order, sigma, tau.dom
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
    """Check well-foundedness and arrow monotonicity over `universe` (the
    other two axioms hold by construction).

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
    # arrow monotonicity: tau >= sigma implies a->tau >= a->sigma and
    # tau->a >= sigma->a, checked for every instance whose composed types
    # all live in the universe
    arrows = {t for t in universe if isinstance(t, Arrow)}
    for a in universe:
        for tau in universe:
            for sigma in universe:
                if not ty_ge(order, tau, sigma):
                    continue
                composed = (
                    Arrow(a, tau),
                    Arrow(a, sigma),
                    Arrow(tau, a),
                    Arrow(sigma, a),
                )
                if not all(c in arrows for c in composed):
                    continue
                for left, right in (composed[:2], composed[2:]):
                    if not ty_ge(order, left, right):
                        violations.append(
                            "arrow monotonicity: %s !>= %s"
                            % (ty_str(left), ty_str(right))
                        )
    return violations


def minimal_types(order: SortOrder, universe: Sequence[Ty]) -> tuple[Ty, ...]:
    """Types of the universe minimal for (strict type order | type subterm)+.

    Minimality is up to type equivalence: an element is minimal when nothing
    inequivalent sits strictly below it. The result contains data types only.
    """
    uni = list(universe)
    pairs = []
    for i, a in enumerate(uni):
        strict_subs = set(ty_subterms(a)) - {a}
        pairs += [
            (i, j)
            for j, b in enumerate(uni)
            if ty_gt(order, a, b) or b in strict_subs
        ]
    below = _transitive_closure(pairs)
    return tuple(
        a
        for i, a in enumerate(uni)
        if not any(
            (i, j) in below and not ty_eq(order, a, b) for j, b in enumerate(uni)
        )
    )


def is_minimal_type(order: SortOrder, min_types: Sequence[Ty], ty: Ty) -> bool:
    return any(ty_eq(order, ty, m) for m in min_types)
