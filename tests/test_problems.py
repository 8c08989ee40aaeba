import json
import re

import pytest
from conftest import CORPUS, ROOT, rebuild, shared_tower_text, typecheck
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horpo import cli, problems
from horpo.engine import Engine
from horpo.harness import search_params
from horpo.problems import (
    ProblemError,
    check_problem,
    dump_json,
    parse_problem,
    print_problem,
    report_to_jsonable,
    report_to_text,
)
from horpo.terms import Abs, App, Arrow, Data, Var, subterms, ty_subterms
from horpo.traces import trace_to_jsonable
from horpo.typeorder import SortOrder


def test_parse_brouwer(brouwer):
    assert len(brouwer.rules) == 3
    assert len(brouwer.sig.funs) == 4
    assert brouwer.statuses["rec"] == "mul"
    assert brouwer.vars["F"] == Arrow(Data("Nat"), Data("Ord"))


def test_empty_problem():
    p = parse_problem("")
    assert p.rules == []
    report = check_problem(p)
    assert report.ok


def test_nary_application_desugars():
    p = parse_problem(
        "sort N ;\n"
        "fun z : [] -> N ;\n"
        "var F : N -> N -> N ;\n"
        "var x : N ;\n"
        "rule z -> z ;\n"
    )
    # reuse the parser on a term through a rule
    q = parse_problem(
        "sort N ;\nfun z : [] -> N ;\nvar F : N -> N -> N ;\nvar x : N ;\n"
        "rule @(F, x, x) -> x ;\n"
    )
    lhs = q.rules[0].lhs
    assert isinstance(lhs, App) and isinstance(lhs.fn, App)
    assert lhs.fn.fn == Var("F", Arrow(Data("N"), Arrow(Data("N"), Data("N"))))
    del p


def test_lambda_glyph_accepted():
    p = parse_problem(
        "sort N ;\nfun z : [] -> N ;\nvar F : N -> N ;\n"
        "rule λx:N. @(F, x) -> F ;\n"
    )
    q = parse_problem(
        "sort N ;\nfun z : [] -> N ;\nvar F : N -> N ;\n"
        "rule \\x:N. @(F, x) -> F ;\n"
    )
    from horpo.terms import alpha_eq

    assert alpha_eq(p.rules[0].lhs, q.rules[0].lhs)


def test_free_variable_violation():
    with pytest.raises(ProblemError, match=r"Var\(r\) <= Var\(l\)"):
        parse_problem(
            "sort N ;\nfun f : [N] -> N ;\nvar X : N ;\nvar Y : N ;\n"
            "rule f(X) -> Y ;\n"
        )


def test_rule_type_mismatch():
    with pytest.raises(ProblemError, match="different types"):
        parse_problem(
            "sort N ;\nsort M ;\nfun f : [] -> N ;\nfun g : [] -> M ;\n"
            "rule f -> g ;\n"
        )


def test_positioned_syntax_error():
    with pytest.raises(ProblemError, match="line 2"):
        parse_problem("sort N ;\nfun f : N ;\n")


def test_unknown_symbol_in_rule():
    with pytest.raises(ProblemError, match="unknown function symbol"):
        parse_problem("sort N ;\nvar X : N ;\nrule g(X) -> X ;\n")


def test_app_precedence_rules():
    base = "sort N ;\nfun f : [N] -> N ;\nvar X : N ;\n"
    # redundant but accepted
    parse_problem(base + "prec f > @ ;\n")
    with pytest.raises(ProblemError):
        parse_problem(base + "prec f = @ ;\n")


def test_equivalent_symbols_must_share_arity():
    with pytest.raises(ProblemError, match="arities"):
        parse_problem(
            "sort N ;\nfun f : [N] -> N ;\nfun g : [] -> N ;\nprec f = g ;\n"
        )


def test_equivalent_symbols_must_share_status():
    with pytest.raises(ProblemError, match="statuses"):
        parse_problem(
            "sort N ;\nfun f : [N,N] -> N ;\nfun g : [N,N] -> N ;\n"
            "prec f = g ;\nstatus f mul ;\nstatus g lex ;\n"
        )


def test_precedence_cycle_rejected():
    with pytest.raises(ProblemError, match="cycle"):
        parse_problem(
            "sort N ;\nfun f : [] -> N ;\nfun g : [] -> N ;\n"
            "prec f > g ;\nprec g > f ;\n"
        )


@pytest.mark.parametrize(
    "text,message",
    [
        ("sort L / n ;", "line 1, col 10: arity must be a number"),
        (
            "sort N ;\nfun f : [] -> N ;\nprec f > ( ;",
            "line 3, col 10: expected a function symbol",
        ),
        (
            "sort N ;\nfun f : [] -> N ;\nprec f > g ;",
            "line 3, col 10: undeclared symbol in precedence: g",
        ),
        (
            "sort N ;\norder N < M ;",
            "line 2, col 11: undeclared sort 'M' in order declaration",
        ),
        ("sort N ;\nstatus f mul ;", "line 2, col 8: status for undeclared symbol 'f'"),
        ("sort N ;\nvar X : M ;", "line 2, col 9: undeclared sort 'M'"),
        # the errors found once every statement is read name their tokens too
        ("sort N ;\nfun f : [N] -> N -> M ;", "line 2, col 21: undeclared sort 'M'"),
        (
            "sort N ;\nsort L / 1 ;\nfun f : [L(N, N)] -> N ;",
            "line 3, col 10: sort 'L' expects 1 argument(s), got 2",
        ),
        (
            "sort N ;\nvar f : N ;\nfun f : [] -> N ;",
            "line 2, col 5: variable 'f' clashes with a function symbol",
        ),
        (
            "sort N ;\nfun f : [] -> N ;\nprec f = @ ;",
            "line 3, col 10: no symbol may be equivalent to @ in the precedence",
        ),
        # each variable is declared once, before the rules that use it
        (
            "sort N ;\nsort M ;\nfun f : [N] -> N ;\nvar x : N ;\n"
            "rule f(x) -> x ;\nvar x : M ;",
            "line 6, col 5: duplicate variable 'x'",
        ),
        (
            "sort N ;\nfun f : [N] -> N ;\nrule f(x) -> x ;\nvar x : N ;",
            "line 3, col 8: unbound variable 'x'",
        ),
        ("sort N ;\nsort N ;", "line 2, col 6: duplicate sort 'N'"),
        (
            "sort N ;\nfun f : [] -> N ;\nfun f : [N] -> N ;",
            "line 3, col 5: duplicate function symbol 'f'",
        ),
        # each typing error names its node's token
        (
            "sort N ;\nfun f : [N] -> N ;\nvar x : N ;\nrule f(x) -> f(y) ;",
            "line 4, col 16: unbound variable 'y'",
        ),
        (
            "sort N ;\nfun z : [] -> N ;\nfun f : [N] -> N ;\n"
            "rule f(z) -> f(z, z) ;",
            "line 4, col 14: symbol 'f' expects 1 argument(s), got 2",
        ),
        (
            "sort N ;\nsort M ;\nfun m : [] -> M ;\nfun f : [N] -> N ;\n"
            "var x : N ;\nrule f(x) -> f(m) ;",
            "line 6, col 14: argument 1 of 'f' has type M, expected N",
        ),
        (
            "sort N ;\nfun z : [] -> N ;\nfun f : [N] -> N ;\nvar x : N ;\n"
            "rule f(x) -> f(@(x, z)) ;",
            "line 5, col 16: cannot apply term of type N",
        ),
        (
            "sort N ;\nsort M ;\nfun m : [] -> M ;\nfun f : [N] -> N ;\n"
            "var F : N -> N ;\nrule f(@(F, m)) -> m ;",
            "line 6, col 8: application domain mismatch: N vs M",
        ),
        (
            "sort N ;\nvar x : N ;\nrule \\y:K. x -> \\y:K. x ;",
            "line 3, col 9: undeclared sort 'K'",
        ),
        (
            "sort N ;\nfun z : [] -> N ;\nfun g : [N -> N] -> N ;\n"
            "rule g(\\z:N. z) -> z ;",
            "line 4, col 9: bound variable 'z' clashes with a function symbol",
        ),
        # a symbol declared after the rule clashes too
        (
            "sort N ;\nfun g : [N -> N] -> N ;\nrule g(\\z:N. z) -> g(\\z:N. z) ;\n"
            "fun z : [] -> N ;",
            "line 3, col 9: bound variable 'z' clashes with a function symbol",
        ),
        # the scanner's columns: a tab is one column, and λ one column wide
        ("rule\tλ:", "line 1, col 7: expected bound variable, found ':'"),
        ("sort Nat€", "line 1, col 9: unexpected character '€'"),
        # a comment moves no column: end of input is placed at its '#'
        ("var # x", "line 1, col 5: expected variable name, found 'end of input'"),
        (
            "sort N ;\nfun f : [N, N] -> N ;\nstatus f lex ;\nstatus f mul ;",
            "line 4, col 8: duplicate status for symbol 'f'",
        ),
    ],
    ids=[
        "arity", "prec-symbol", "prec-undeclared", "order-sort", "status-symbol",
        "var-type", "fun-type", "sort-arguments", "var-clash", "prec-app",
        "var-repeated", "var-after-rule", "sort-repeated", "fun-repeated",
        "unbound-variable", "symbol-arity", "argument-type", "apply-non-arrow",
        "apply-domain", "binder-sort", "binder-clash", "binder-clash-later",
        "lambda-after-tab", "char-after-identifier", "eof-after-comment",
        "status-repeated",
    ],
)
def test_declaration_errors(text, message):
    with pytest.raises(ProblemError, match="^%s$" % re.escape(message)):
        parse_problem(text)


# every problem file that parses; bad_freevar.horpo is rejected by design
PARSED = [
    path
    for d in (CORPUS, ROOT / "tests" / "data")
    for path in sorted(d.rglob("*.horpo"))
    if path.name != "bad_freevar.horpo"
]


@pytest.mark.parametrize("path", PARSED, ids=lambda p: p.stem)
def test_parser_annotations_are_the_reference_typing(path):
    p = parse_problem(path.read_text())
    for rule in p.rules:
        for side in (rule.lhs, rule.rhs):
            assert typecheck(p.sig, p.vars, side) == side


def test_round_trip(brouwer, nat_rec, map_problem):
    for p in (brouwer, nat_rec, map_problem):
        text = print_problem(p)
        again = parse_problem(text)
        assert print_problem(again) == text


def test_precedence_above_app_records_nothing():
    p = parse_problem(
        "sort N ;\nfun z : [] -> N ;\nfun f : [N] -> N ;\n"
        "prec f > @ ;\nprec f > z ;\n"
    )
    assert (p.prec_strict, p.prec_equiv) == ((("f", "z"),), ())
    printed = print_problem(p)
    again = parse_problem(printed)
    assert (again.prec_strict, again.prec_equiv) == (p.prec_strict, p.prec_equiv)
    assert print_problem(again) == printed


def test_round_trip_sort_of_two_arguments():
    text = (
        "sort Nat ; sort Ord ; sort Pair / 2 ; fun 0 : [] -> Ord ; "
        "fun pair : [Nat, Ord] -> Pair(Nat, Ord) ; "
        "fun fst : [Pair(Nat, Ord)] -> Nat ; var X : Nat ; var Y : Ord ; "
        "rule fst(pair(X, Y)) -> X ;"
    )
    p = parse_problem(text)
    pair = Data("Pair", (Data("Nat"), Data("Ord")))
    assert p.sig.fun("pair").out_ty == pair
    assert p.sig.fun("fst").arg_tys == (pair,)
    printed = print_problem(p)
    assert "fun fst : [Pair(Nat,Ord)] -> Nat ;" in printed
    assert print_problem(parse_problem(printed)) == printed


def test_application_of_one_argument_is_a_positioned_error():
    with pytest.raises(
        ProblemError,
        match="^line 3, col 6: application needs at least two arguments$",
    ):
        parse_problem("sort N ;\nvar x : N ;\nrule @(x) -> x ;\n")


# a sort with an arity: List takes one type argument
LISTS = (
    "sort N ; sort List / 1 ; fun z : [] -> N ; fun s : [N] -> N ; "
    "fun nil : [] -> List(N) ; fun cons : [N, List(N)] -> List(N) ; "
    "fun len : [List(N)] -> N ; fun map : [N -> N, List(N)] -> List(N) ; "
    "prec len > s ; prec len > z ; prec map > cons ; var X : N ; "
    "var L : List(N) ; var F : N -> N ; rule len(nil) -> z ; "
    "rule len(cons(X, L)) -> s(len(L)) ; "
    "rule map(F, cons(X, L)) -> cons(@(F, X), map(F, L)) ;"
)


def test_parametric_sort(tmp_path, capsys):
    p = parse_problem(LISTS)
    assert p.vars["L"] == Data("List", (Data("N"),))
    assert Data("List", (Data("N"),)) in p.ctx.universe
    report = check_problem(p)
    assert [r.verdict for r in report.rule_results] == ["oriented"] * 3
    text = print_problem(p)
    assert "fun nil : [] -> List(N) ;" in text
    assert print_problem(parse_problem(text)) == text
    path = tmp_path / "lists.horpo"
    path.write_text(LISTS)
    assert cli.main(["check", str(path)]) == 0
    assert cli.main(["trace", str(path), "-r", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("oriented") == 3
    assert "case 1c: map(F,cons(X,L)) > cons(@(F,X),map(F,L))" in out
    (sort_strict, sort_equiv), (strict, equiv), statuses = search_params(p)
    found = rebuild(
        p,
        sort_order=SortOrder(["List", "N"], sort_strict, sort_equiv),
        prec_strict=strict,
        prec_equiv=equiv,
        statuses=statuses,
    )
    assert check_problem(found).ok


def test_report_serialization_deterministic(brouwer):
    r1 = check_problem(brouwer)
    r2 = check_problem(brouwer)
    j1 = dump_json(report_to_jsonable(brouwer, r1, with_traces=True))
    j2 = dump_json(report_to_jsonable(brouwer, r2, with_traces=True))
    assert j1 == j2
    assert report_to_text(brouwer, r1) == report_to_text(brouwer, r2)
    # timing never leaks into serialized output
    assert "elapsed" not in j1 and "time" not in j1


def test_report_overall_status(brouwer):
    report = check_problem(brouwer)
    assert report.ok
    assert all(r.verdict == "oriented" for r in report.rule_results)


KEYS = st.text(max_size=4) | st.sampled_from(["", "\"", "\\", "\n", "é→𝔸"])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["\"\\/", "\n\t\b\f\r", "\x00\x1f\x7f", "é→𝔸\u2028"]),
)


def _containers(children, min_size=0):
    lists = st.lists(children, min_size=min_size, max_size=3)
    return lists | lists.map(tuple) | st.dictionaries(
        KEYS, children, min_size=min_size, max_size=3
    )


TREES = st.recursive(SCALARS, _containers, max_leaves=6)


@st.composite
def shared_json(draw):
    """A JSON tree in which one container object appears at several depths:
    each wrapping holds the previous one at depths 1 and 2, so the shared
    containers also nest inside each other."""
    node = draw(_containers(TREES, min_size=1))
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(TREES), draw(TREES)
        k1, k2, k3 = draw(st.lists(KEYS, min_size=3, max_size=3, unique=True))
        inner = draw(st.sampled_from([[node, a], {k1: a, k2: node}]))
        node = draw(st.sampled_from([[b, inner, node], {k1: node, k2: inner, k3: b}]))
    return node


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(shared_json())
def test_dump_json_is_the_stdlib_text(obj):
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


# a scalar, an empty container or a tree at the root, and empty containers
# and scalars at any depth below it
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(TREES)
@example({})
@example([])
@example(())
@example(7)
@example("é")
@example({"": [(), {}, [], -1, 2**70]})
def test_dump_json_of_any_tree_is_the_stdlib_text(obj):
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Text(str):
    pass


class _Count(int):
    pass


class _Ordered(dict):
    pass


def test_dump_json_writes_subclasses_as_the_stdlib_does():
    # the pre-pass counts no subclass of a container, so `inner` is written
    # afresh at both of its positions
    inner = _Ordered(b=[_Text("é"), _Count(3), True], a=_Ordered())
    obj = {"x": [inner, (inner, 1.5)], "y": inner, "z": (_Count(-2), None)}
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dump_json_rejects_a_key_that_is_no_str():
    with pytest.raises(TypeError, match="^keys must be str, not int$"):
        dump_json({"a": {1: "x"}})


def test_trace_json_calls_no_stdlib_encoder(brouwer, monkeypatch):
    # printing each non-str leaf with `json.dumps` took 49 calls for
    # Brouwer's rule 3 and 351 for c^8(a) > c^8(b)
    shared = parse_problem(shared_tower_text(8))
    rules = [(brouwer, brouwer.rules[2]), (shared, shared.rules[0])]
    objs = [trace_to_jsonable(Engine(p.ctx).orient_rule(r.lhs, r.rhs)) for p, r in rules]
    calls = []
    stdlib = json.dumps
    monkeypatch.setattr(
        problems.json, "dumps", lambda *a, **k: calls.append(a) or stdlib(*a, **k)
    )
    texts = [dump_json(obj) for obj in objs]
    monkeypatch.undo()
    assert calls == []
    assert texts == [json.dumps(obj, sort_keys=True, indent=2) + "\n" for obj in objs]


def test_dump_json_pastes_a_shared_container_at_every_depth():
    leaf = {"k": ["é", 1.5, None, {}], "a": []}
    mid = [leaf, {"x": leaf}]
    obj = {"b": [mid, [[mid]]], "a": leaf, "c": (leaf, True)}
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_equal_types_of_a_parsed_problem_are_one_object():
    for path in sorted(CORPUS.glob("*.horpo")):
        if path.name == "bad_freevar.horpo":
            continue
        p = parse_problem(path.read_text())
        tys = [ty for f in p.sig.funs for ty in (*f.arg_tys, f.out_ty)]
        tys += p.vars.values()
        for r in p.rules:
            for side in (r.lhs, r.rhs):
                for u in subterms(side):
                    tys.append(u.ty)
                    if isinstance(u, Abs):
                        tys.append(u.var_ty)
        ids: dict = {}
        for ty in tys:
            for sub in ty_subterms(ty):
                ids.setdefault(sub, set()).add(id(sub))
        assert all(len(found) == 1 for found in ids.values()), path.name
