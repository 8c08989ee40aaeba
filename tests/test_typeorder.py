from itertools import product

import pytest

from conftest import ROOT, weak_orders_by_filter
from horpo.problems import parse_problem
from horpo.terms import Arrow, Data, ty_str, ty_subterms
from horpo.typeorder import (
    Cmp,
    QuasiOrder,
    SortOrder,
    is_minimal_type,
    minimal_types,
    occurs_only,
    ty_eq,
    ty_ge,
    ty_gt,
    type_universe,
    validate_axioms,
)

from test_problems import PARSED

Nat = Data("Nat")
Ord = Data("Ord")
A = Data("A")


@pytest.fixture(scope="module")
def order():
    return SortOrder(("Nat", "Ord", "A"), strict_pairs=(("Ord", "Nat"),))


def test_quasiorder_basics():
    q = QuasiOrder(("a", "b", "c", "d"), (("a", "b"), ("b", "c")), (("c", "d"),))
    assert q.cmp("a", "b") is Cmp.GT
    assert q.cmp("a", "c") is Cmp.GT  # transitivity
    assert q.cmp("c", "d") is Cmp.EQ
    assert q.cmp("a", "d") is Cmp.GT  # through the equivalence class
    assert q.cmp("b", "a") is Cmp.LT
    assert q.is_well_founded()
    cyclic = QuasiOrder(("a", "b"), (("a", "b"), ("b", "a")))
    assert not cyclic.is_well_founded()


def test_type_comparison_examples(order):
    assert ty_gt(order, Ord, Nat) and not ty_ge(order, Nat, Ord)
    assert ty_eq(order, Ord, Ord)
    assert ty_eq(order, Arrow(Nat, Ord), Arrow(Nat, Ord))
    # arrow decreasingness with cod >= target
    assert ty_gt(order, Arrow(Nat, Ord), Ord) and not ty_ge(order, Ord, Arrow(Nat, Ord))
    # incomparable
    assert not ty_ge(order, Nat, A) and not ty_ge(order, A, Nat)


def test_data_never_above_arrow(order):
    assert not ty_gt(order, Ord, Arrow(Nat, Nat))
    assert not ty_ge(order, Ord, Arrow(Nat, Nat))


def test_arrow_congruence(order):
    # same domain, strictly smaller codomain
    assert ty_gt(order, Arrow(A, Ord), Arrow(A, Nat))
    # different domains: only the decreasingness branch can fire
    assert not ty_gt(order, Arrow(Ord, Nat), Arrow(Nat, Nat))


def test_polarity(order):
    assert occurs_only(order, Ord, Arrow(Nat, Ord), True)
    assert not occurs_only(order, Ord, Arrow(Nat, Ord), False)
    # flipped under the domain
    assert occurs_only(order, Ord, Arrow(Ord, Nat), False)
    assert not occurs_only(order, Ord, Arrow(Ord, Nat), True)
    # both can hold for an arrow not mentioning the sort at all
    assert occurs_only(order, A, Arrow(Nat, Nat), True)
    assert occurs_only(order, A, Arrow(Nat, Nat), False)
    for positive in (True, False):
        with pytest.raises(ValueError):
            occurs_only(order, Arrow(Nat, Nat), Nat, positive)


def test_universe_is_subterm_closed():
    uni = type_universe([Arrow(Arrow(Nat, Ord), A)])
    assert set(uni) == {Nat, Ord, A, Arrow(Nat, Ord), Arrow(Arrow(Nat, Ord), A)}


def test_validate_axioms_brouwer(brouwer):
    assert validate_axioms(brouwer.ctx.sort_order, brouwer.ctx.universe) == []


def test_validate_axioms_cycle():
    bad = SortOrder(("A", "B"), (("A", "B"), ("B", "A")))
    report = validate_axioms(bad, type_universe([Data("A"), Data("B")]))
    # the sort cycle, then each type on a cycle of the induced type order
    assert report == [
        "well-foundedness: the strict sort ordering contains a cycle",
        "well-foundedness: cycle through type A",
        "well-foundedness: cycle through type B",
    ]


def test_minimal_types_brouwer(brouwer):
    mins = minimal_types(brouwer.ctx.sort_order, brouwer.ctx.universe)
    assert set(mins) == {Nat, A}
    assert is_minimal_type(brouwer.ctx.sort_order, mins, Nat)
    assert not is_minimal_type(brouwer.ctx.sort_order, mins, Ord)


def test_minimal_types_small(order):
    assert minimal_types(order, (Nat,)) == (Nat,)
    assert minimal_types(order, type_universe([Nat, Arrow(Nat, Nat)])) == (Nat,)


def _minimal_types_by_closure(order, universe):
    """`minimal_types` by its definition: nothing inequivalent below in the
    transitive closure of (strict type order | strict subterm)."""
    uni = list(universe)
    below = {
        (i, j)
        for i, a in enumerate(uni)
        for j, b in enumerate(uni)
        if ty_gt(order, a, b) or (b != a and b in ty_subterms(a))
    }
    while True:
        more = {(i, k) for i, j in below for j2, k in below if j == j2} - below
        if not more:
            break
        below |= more
    return tuple(
        a
        for i, a in enumerate(uni)
        if not any(
            (i, j) in below and not ty_eq(order, a, b) for j, b in enumerate(uni)
        )
    )


def _weak_and_cyclic_orders(sorts):
    """Every weak order on `sorts`; then, for each sort, the cycle of it
    above itself; then each weak order with one of its strict pairs also
    reversed, which makes a cycle, with and without the weak order's
    equivalences."""
    for strict, equiv in weak_orders_by_filter(sorts):
        yield SortOrder(sorts, strict, equiv)
    for a in sorts:
        yield SortOrder(sorts, ((a, a),))
    for strict, equiv in weak_orders_by_filter(sorts):
        for a, b in strict:
            for eq in dict.fromkeys((equiv, ())):
                yield SortOrder(sorts, strict + ((b, a),), eq)


def test_minimal_types_match_the_closure_under_every_sort_order():
    paths = [
        p
        for d in ("corpus", "tests/data/loops", "tests/data/positive")
        for p in sorted((ROOT / d).glob("*.horpo"))
        if p.name != "bad_freevar.horpo"
    ]
    orders = 0
    for path in paths:
        uni = parse_problem(path.read_text()).ctx.universe
        sorts = sorted({t.sort for t in uni if isinstance(t, Data)})
        for order in _weak_and_cyclic_orders(sorts):
            orders += 1
            assert minimal_types(order, uni) == _minimal_types_by_closure(order, uni)
    assert orders == 1008


def test_minimal_types_are_data(brouwer, nat_rec, map_problem):
    for p in (brouwer, nat_rec, map_problem):
        assert p.ctx.min_types  # nonempty
        assert all(isinstance(t, Data) for t in p.ctx.min_types)


def test_eq_never_mixes_data_and_arrow(brouwer, nat_rec, map_problem):
    for p in (brouwer, nat_rec, map_problem):
        for a in p.ctx.universe:
            for b in p.ctx.universe:
                if ty_eq(p.ctx.sort_order, a, b):
                    assert isinstance(a, Arrow) == isinstance(b, Arrow)


def test_strict_part_acyclic_on_universe(brouwer):
    uni = brouwer.ctx.universe
    order = brouwer.ctx.sort_order
    for a in uni:
        assert not ty_gt(order, a, a)


def test_quasiorder_names_classes_by_least_member():
    q = QuasiOrder(("d", "c", "b", "a", "e"), (("e", "d"),), (("d", "c"), ("b", "c")))
    assert [q.rep(e) for e in "abcde"] == ["a", "b", "b", "b", "e"]
    assert q.cmp("e", "b") is Cmp.GT


ARROWS = [Arrow(Ord, Nat), Arrow(Ord, Ord), Arrow(Nat, Ord), Arrow(Nat, Nat)]


def test_arrow_monotonicity_violations():
    uni = type_universe(ARROWS)
    above = SortOrder(("Nat", "Ord"), strict_pairs=(("Ord", "Nat"),))
    assert validate_axioms(above, uni) == [
        "arrow monotonicity: Ord -> Nat !>= Nat -> Nat",
        "arrow monotonicity: Ord -> Ord !>= Nat -> Ord",
    ]
    same = SortOrder(("Nat", "Ord"), equiv_pairs=(("Nat", "Ord"),))
    assert validate_axioms(same, uni) == []


def _monotonicity_over_all_triples(order, universe):
    """Arrow monotonicity as stated: every triple of universe types."""
    arrows = set(universe)
    out = []
    for a in universe:
        for tau in universe:
            for sigma in universe:
                pairs = [
                    (Arrow(a, tau), Arrow(a, sigma)),
                    (Arrow(tau, a), Arrow(sigma, a)),
                ]
                if not ty_ge(order, tau, sigma) or not all(
                    left in arrows and right in arrows for left, right in pairs
                ):
                    continue
                out += [
                    "arrow monotonicity: %s !>= %s" % (ty_str(left), ty_str(right))
                    for left, right in pairs
                    if not ty_ge(order, left, right)
                ]
    return out


def test_monotonicity_matches_all_triples_under_every_sort_order():
    from conftest import CORPUS, load

    universes = [type_universe(ARROWS)] + [
        load(path.name).ctx.universe
        for path in sorted(CORPUS.glob("*.horpo"))
        if path.name != "bad_freevar.horpo"
    ]
    for uni in universes:
        sorts = sorted({t.sort for t in uni if isinstance(t, Data)})
        for strict, equiv in weak_orders_by_filter(sorts):
            order = SortOrder(sorts, strict, equiv)
            expected = _monotonicity_over_all_triples(order, uni)
            got = [v for v in validate_axioms(order, uni) if "monotonicity" in v]
            assert got == expected


def test_monotonicity_in_the_codomain_holds_by_definition():
    # why `validate_axioms` checks only tau->a >= sigma->a
    paths = [
        p
        for d in ("corpus", "tests/data/loops", "tests/data/positive")
        for p in sorted((ROOT / d).glob("*.horpo"))
        if p.name != "bad_freevar.horpo"
    ]
    instances = 0
    for path in paths:
        uni = parse_problem(path.read_text()).ctx.universe
        sorts = sorted({t.sort for t in uni if isinstance(t, Data)})
        orders = [SortOrder(sorts, s, e) for s, e in weak_orders_by_filter(sorts)]
        orders.append(SortOrder(sorts, tuple(product(sorts, repeat=2))))
        for order in orders:
            for tau in uni:
                for sigma in uni:
                    if not ty_ge(order, tau, sigma):
                        continue
                    for a in uni:
                        instances += 1
                        assert ty_ge(order, Arrow(a, tau), Arrow(a, sigma))
    assert instances == 50979


def test_ty_eq_is_structural_on_distinct_objects():
    # equal types built twice, and types equal under an equivalence of sorts
    order = SortOrder(("A", "B", "Nat"), equiv_pairs=(("A", "B"),))
    B = Data("B")
    pairs = [
        (Arrow(A, Arrow(Nat, A)), Arrow(Data("A"), Arrow(Data("Nat"), Data("A")))),
        (Arrow(A, Nat), Arrow(B, Nat)),
        (Arrow(Arrow(Nat, B), A), Arrow(Arrow(Nat, A), B)),
    ]
    for a, b in pairs:
        assert a is not b
        assert ty_eq(order, a, b) and ty_eq(order, b, a)
        assert ty_ge(order, a, b) and not ty_gt(order, a, b)
    assert not ty_eq(order, Arrow(A, Nat), Arrow(Nat, A))


def _ty_eq_by_cmp(order, a, b):
    """`ty_eq` as first defined: data types through `order.cmp`."""
    if a is b:
        return True
    if isinstance(a, Data) and isinstance(b, Data):
        return (
            order.cmp(a.sort, b.sort) is Cmp.EQ
            and len(a.args) == len(b.args)
            and all(_ty_eq_by_cmp(order, x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        return _ty_eq_by_cmp(order, a.dom, b.dom) and _ty_eq_by_cmp(order, a.cod, b.cod)
    return False


@pytest.mark.parametrize("path", PARSED, ids=lambda p: p.stem)
def test_ty_eq_by_representatives_is_ty_eq_by_cmp(path):
    p = parse_problem(path.read_text())
    sorts = sorted(s.name for s in p.sig.sorts)
    # the declared order, and one that makes every sort equivalent
    one_class = SortOrder(sorts, (), tuple(zip(sorts, sorts[1:])))
    for order in (p.sort_order, one_class):
        for a in p.ctx.universe:
            for b in p.ctx.universe:
                assert ty_eq(order, a, b) == _ty_eq_by_cmp(order, a, b)
