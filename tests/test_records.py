"""Value semantics of the frozen records: equality and hashing by the fields
in declaration order and only against the same class, the `repr` text,
immutability, and node caches that stay out of all three."""
import types

import pytest

from horpo.problems import Token
from horpo.terms import Abs, App, Arrow, Data, Fun, FunDecl, SortDecl, Var
from horpo.traces import Trace

N_REPR = "Data(sort='N', args=())"
NN_REPR = "Arrow(dom=%s, cod=%s)" % (N_REPR, N_REPR)
X_REPR = "Var(name='x', ty=%s)" % N_REPR
LAM_REPR = "Abs(var='x', var_ty=%s, body=%s, ty=%s)" % (N_REPR, X_REPR, NN_REPR)
S_REPR = "Fun(sym='s', args=(%s,), ty=%s)" % (LAM_REPR, N_REPR)


def _cases():
    """(class, fields in declaration order, repr), built afresh on each call
    so that two calls share no object."""
    n = Data("N")
    nn = Arrow(n, Data("N"))
    x = Var("x", n)
    lam = Abs("x", n, Var("x", n), nn)
    s = Fun("s", (lam,), n)
    refl = Trace("refl", x, Var("x", n))
    return [
        (Data, {"sort": "N", "args": ()}, N_REPR),
        (Arrow, {"dom": n, "cod": Data("L", (n,))},
         "Arrow(dom=%s, cod=Data(sort='L', args=(%s,)))" % (N_REPR, N_REPR)),
        (SortDecl, {"name": "Pair", "arity": 2}, "SortDecl(name='Pair', arity=2)"),
        (FunDecl, {"name": "s", "arg_tys": (n,), "out_ty": n},
         "FunDecl(name='s', arg_tys=(%s,), out_ty=%s)" % (N_REPR, N_REPR)),
        (Var, {"name": "x", "ty": n}, X_REPR),
        (Abs, {"var": "x", "var_ty": n, "body": x, "ty": nn}, LAM_REPR),
        (App, {"fn": Var("F", nn), "arg": x, "ty": n},
         "App(fn=Var(name='F', ty=%s), arg=%s, ty=%s)" % (NN_REPR, X_REPR, N_REPR)),
        (Fun, {"sym": "s", "args": (lam,), "ty": n}, S_REPR),
        (Trace, {"label": "1b", "lhs": s, "rhs": x, "x": (("x", n),),
                 "children": (refl,), "aux": (("status", "mul"),)},
         "Trace(label='1b', lhs=%s, rhs=%s, x=(('x', %s),), children=(Trace("
         "label='refl', lhs=%s, rhs=%s, x=(), children=(), aux=()),), aux=(("
         "'status', 'mul'),))" % (S_REPR, X_REPR, N_REPR, X_REPR, X_REPR)),
        (Token, {"kind": "ident", "text": "rec", "line": 3, "col": 7},
         "Token(kind='ident', text='rec', line=3, col=7)"),
    ]


IDS = [cls.__name__ for cls, _, _ in _cases()]


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(index):
    cls, fields, _ = _cases()[index]
    _, again, _ = _cases()[index]
    a, b = cls(**fields), cls(*again.values())
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_other_classes_are_unequal(index):
    cls, fields, _ = _cases()[index]
    value = cls(**fields)
    lookalikes = [
        type("Lookalike", (cls,), {})(**fields),
        types.SimpleNamespace(**fields),
        tuple(fields.values()),
    ]
    for other in lookalikes:
        assert value != other and other != value
        assert cls.__eq__(value, other) is NotImplemented


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_repr_text(index):
    cls, fields, text = _cases()[index]
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(index):
    cls, fields, _ = _cases()[index]
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert [getattr(value, name) for name in fields] == list(fields.values())


def test_defaults():
    assert Data("N") == Data("N", ())
    assert SortDecl("N").arity == 0
    assert Var("x").ty is None and Fun("z").args == () and Fun("z").ty is None
    assert App(Var("F"), Var("x")).ty is None
    assert Abs("x", Data("N"), Var("x")).ty is None
    tr = Trace("refl", Var("x"), Var("x"))
    assert (tr.x, tr.children, tr.aux) == ((), (), ())
    assert FunDecl("s", (Data("N"),), Data("N")).arity == 1


@pytest.mark.parametrize("cls", [Var, Abs, App, Fun], ids=lambda c: c.__name__)
def test_warm_caches_change_nothing(cls):
    _, fields, text = next(case for case in _cases() if case[0] is cls)
    warm, cold = cls(**fields), cls(**fields)
    before = hash(warm)
    warm.alpha_class, warm.size, warm.abstractions, warm.free_vars
    assert warm == cold and cold == warm
    assert hash(warm) == before == hash(cold)
    assert repr(warm) == text == repr(cold)
