import inspect
import os
import pathlib
from itertools import product
from typing import Mapping

import pytest

from horpo.context import OrderingContext
from horpo.problems import parse_problem
from horpo.terms import (
    Abs,
    App,
    Arrow,
    Data,
    Fun,
    FunDecl,
    Signature,
    SortDecl,
    Term,
    Ty,
    TypingError,
    Var,
    ty_str,
)
from horpo.typeorder import SortOrder

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# CLI tests spawn `python -m horpo.cli`; it must import this checkout's horpo
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)


def rebuild(obj, **changes):
    """A new object of `obj`'s class built from its fields, the parameters
    of the class's `__init__`, with `changes` in place of some of them."""
    names = inspect.signature(type(obj)).parameters
    fields = {name: getattr(obj, name) for name in names}
    assert changes.keys() <= fields.keys(), changes.keys() - fields.keys()
    return type(obj)(**{**fields, **changes})


# The reference typing of a raw term. The parser types each node as it reads
# it; tests compare its annotations, and the terms the harness builds, with
# this independent definition.
def typecheck(
    sig: Signature, env: Mapping[str, Ty], t: Term, types: dict[Ty, Ty] | None = None
) -> Term:
    """Type the raw term `t` under `env`, annotating every node. Types at
    application and argument positions must be syntactically equal. An
    abstraction's type is taken from the table `types` of shared types
    (and added to it), so that equal types stay one object."""
    types = {} if types is None else types

    def go(env: dict[str, Ty], t: Term) -> Term:
        if isinstance(t, Var):
            ty = env.get(t.name)
            if ty is None:
                raise TypingError("unbound variable %r" % t.name)
            return Var(t.name, ty)
        if isinstance(t, Fun):
            decl = sig.fun(t.sym)
            if len(t.args) != decl.arity:
                raise TypingError(
                    "symbol %r expects %d argument(s), got %d"
                    % (t.sym, decl.arity, len(t.args))
                )
            args = tuple(go(env, a) for a in t.args)
            for i, (a, want) in enumerate(zip(args, decl.arg_tys)):
                if a.ty != want:
                    raise TypingError(
                        "argument %d of %r has type %s, expected %s"
                        % (i + 1, t.sym, ty_str(a.ty), ty_str(want))
                    )
            return Fun(t.sym, args, decl.out_ty)
        if isinstance(t, App):
            fn = go(env, t.fn)
            if not isinstance(fn.ty, Arrow):
                raise TypingError(
                    "cannot apply term of type %s" % ty_str(fn.ty)
                )
            arg = go(env, t.arg)
            if fn.ty.dom != arg.ty:
                raise TypingError(
                    "application domain mismatch: %s vs %s"
                    % (ty_str(fn.ty.dom), ty_str(arg.ty))
                )
            return App(fn, arg, fn.ty.cod)
        sig.check_type(t.var_ty)
        inner = dict(env)
        inner[t.var] = t.var_ty
        body = go(inner, t.body)
        ty = Arrow(t.var_ty, body.ty)
        return Abs(t.var, t.var_ty, body, types.setdefault(ty, ty))

    return go(dict(env), t)


# The reference enumeration of `harness._level_assignments`, which walks
# the same maps but drops a prefix as soon as it breaks the kind rule or
# leaves more levels empty than positions left to fill them.
def level_assignments_by_filter(kinds):
    """Every map from the positions of `kinds` onto k levels, k = 0..n, in
    lexicographic order, kept when each level holds one kind."""
    n = len(kinds)
    for levels in range(n + 1):
        for assign in product(range(levels), repeat=n):
            if set(assign) == set(range(levels)) and (
                len(set(zip(assign, kinds))) == levels
            ):
                yield assign


def weak_orders_by_filter(elements):
    """The total quasi-orders on `elements` as (strict, equiv) pair lists,
    from the reference level assignments with one kind."""
    n = len(elements)
    for assign in level_assignments_by_filter([None] * n):
        strict = tuple(
            (elements[i], elements[j])
            for i in range(n)
            for j in range(n)
            if assign[i] > assign[j]
        )
        equiv = tuple(
            (elements[i], elements[j])
            for i in range(n)
            for j in range(i + 1, n)
            if assign[i] == assign[j]
        )
        yield strict, equiv


def load(name):
    return parse_problem((CORPUS / name).read_text())


@pytest.fixture(scope="session")
def brouwer():
    return load("brouwer.horpo")


@pytest.fixture(scope="session")
def nat_rec():
    return load("nat_rec.horpo")


@pytest.fixture(scope="session")
def map_problem():
    return load("map.horpo")


N = Data("N")


def make_toy_ctx():
    """One sort, four symbols, first- and higher-order argument positions."""
    sig = Signature(
        (SortDecl("N"),),
        (
            FunDecl("z", (), N),
            FunDecl("sc", (N,), N),
            FunDecl("g", (N, N), N),
            FunDecl("h", (Arrow(N, N), N), N),
        ),
    )
    return OrderingContext.build(
        sig,
        SortOrder(("N",)),
        prec_strict=(("h", "g"), ("g", "sc"), ("sc", "z")),
        extra_types=(Arrow(N, N),),
    )


@pytest.fixture(scope="session")
def toy_ctx():
    return make_toy_ctx()


@pytest.fixture(scope="session")
def toy_env():
    return {"x": N, "F": Arrow(N, N)}
