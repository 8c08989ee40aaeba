import inspect
import os
import pathlib

import pytest

from horpo.context import OrderingContext
from horpo.problems import parse_problem
from horpo.terms import Arrow, Data, FunDecl, Signature, SortDecl
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
