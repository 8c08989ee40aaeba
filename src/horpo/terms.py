"""Simply typed algebraic lambda-terms: types, signatures, typing, substitution.

Terms are immutable trees. A typing pass (`typecheck`) returns a copy of the
term with every node annotated with its type; all downstream code assumes
annotated terms and never re-infers.

The steps the ordering's cases take on bound variables are defined here
once, for the engine, the trace checker and the harness alike: `open_abs`
instantiates a binder with a fresh variable, and `beta_reduct` and
`eta_reduct` recognise a redex at the root and return its reduct.

Each node caches facts derived from it on first use: its size, its number
of abstractions, its free variables and its alpha-equivalence class
(`alpha_class`). The accessibility layer also caches on a node its
acc-below candidates (the first strict subterm of each class that is
acc-below it), keyed by the `AccTable`, the sort order and the minimal
types, all by identity, and beside them those candidates that no argument
of the node offers. The contract for every such cache:
  - nodes are immutable, so a cached value never goes stale;
  - caches live in the node's `__dict__`, not among the fields that
    `Record` compares, hashes and prints, so they never affect equality,
    hashing or printing;
  - a cache's lifetime is its node's: it is stored only on the node, and no
    table outside the node holds the node or its caches alive.
"""
from __future__ import annotations

import weakref
from functools import cached_property
from typing import Callable, Iterator, Mapping

# Reserved separator for generated names; rejected in user identifiers.
FRESH_SEP = "#"


class TypingError(Exception):
    """A raw term does not type-check against the signature."""


_set = object.__setattr__  # a record sets its fields once, in its __init__


class Record:
    """An immutable record whose fields are the parameters of its class's
    `__init__`, in order. It equals a record of the same class with equal
    fields (any other class gets NotImplemented), hashes and prints as those
    fields, and raises AttributeError on assignment or deletion."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ["%s=%r" % (name, getattr(self, name)) for name in self._fields]
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


# ---------------------------------------------------------------------------
# Types


# Type equality and hashing run on every type comparison and memo key, so
# both classes write them out rather than going through `_values`.
class Data(Record):
    """A sort applied to type arguments (a data type)."""

    def __init__(self, sort: str, args: tuple[Ty, ...] = ()):
        _set(self, "sort", sort)
        _set(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sort, self.args) == (other.sort, other.args)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sort, self.args))


class Arrow(Record):
    def __init__(self, dom: Ty, cod: Ty):
        _set(self, "dom", dom)
        _set(self, "cod", cod)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dom, self.cod) == (other.dom, other.cod)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dom, self.cod))


Ty = Data | Arrow


def ty_str(ty: Ty) -> str:
    if isinstance(ty, Data):
        if ty.args:
            return "%s(%s)" % (ty.sort, ",".join(ty_str(a) for a in ty.args))
        return ty.sort
    dom = ty_str(ty.dom)
    if isinstance(ty.dom, Arrow):
        dom = "(%s)" % dom
    return "%s -> %s" % (dom, ty_str(ty.cod))


def ty_subterms(ty: Ty) -> Iterator[Ty]:
    """All type subterms including the type itself, pre-order."""
    stack = [ty]
    while stack:
        ty = stack.pop()
        yield ty
        if isinstance(ty, Data):
            stack.extend(reversed(ty.args))
        else:
            stack += (ty.cod, ty.dom)


def ty_size(ty: Ty) -> int:
    return sum(1 for _ in ty_subterms(ty))


# ---------------------------------------------------------------------------
# Signature


class SortDecl(Record):
    def __init__(self, name: str, arity: int = 0):
        _set(self, "name", name)
        _set(self, "arity", arity)


class FunDecl(Record):
    def __init__(self, name: str, arg_tys: tuple[Ty, ...], out_ty: Ty):
        _set(self, "name", name)
        _set(self, "arg_tys", arg_tys)
        _set(self, "out_ty", out_ty)

    @property
    def arity(self) -> int:
        return len(self.arg_tys)


class Signature:
    """Declared sorts and function symbols with lookup tables."""

    def __init__(self, sorts: tuple[SortDecl, ...], funs: tuple[FunDecl, ...]):
        self.sorts = tuple(sorts)
        self.funs = tuple(funs)
        self.sort_by_name: dict[str, SortDecl] = {}
        for s in self.sorts:
            if s.name in self.sort_by_name:
                raise TypingError("duplicate sort %r" % s.name)
            if s.arity < 0:
                raise TypingError("negative arity for sort %r" % s.name)
            self.sort_by_name[s.name] = s
        self.fun_by_name: dict[str, FunDecl] = {}
        for f in self.funs:
            if f.name in self.fun_by_name:
                raise TypingError("duplicate function symbol %r" % f.name)
            self.fun_by_name[f.name] = f
        for f in self.funs:
            for ty in (*f.arg_tys, f.out_ty):
                self.check_type(ty)

    def check_type(self, ty: Ty) -> None:
        """Verify every sort in `ty` is declared with the right arity."""
        for sub in ty_subterms(ty):
            if isinstance(sub, Data):
                decl = self.sort_by_name.get(sub.sort)
                if decl is None:
                    raise TypingError("undeclared sort %r" % sub.sort)
                if len(sub.args) != decl.arity:
                    raise TypingError(
                        "sort %r expects %d argument(s), got %d"
                        % (sub.sort, decl.arity, len(sub.args))
                    )

    def fun(self, name: str) -> FunDecl:
        decl = self.fun_by_name.get(name)
        if decl is None:
            raise TypingError("undeclared function symbol %r" % name)
        return decl


# ---------------------------------------------------------------------------
# Terms


class Var(Record):
    def __init__(self, name: str, ty: Ty | None = None):
        _set(self, "name", name)
        _set(self, "ty", ty)

    size = 1
    abstractions = 0

    @property  # not cached: that would keep a set on every variable node
    def free_vars(self) -> frozenset[str]:
        return frozenset((self.name,))

    @cached_property
    def alpha_class(self) -> AlphaClass:
        return _intern(("var", self.name))


class Abs(Record):
    def __init__(self, var: str, var_ty: Ty, body: Term, ty: Ty | None = None):
        _set(self, "var", var)
        _set(self, "var_ty", var_ty)
        _set(self, "body", body)
        _set(self, "ty", ty)

    @cached_property
    def size(self) -> int:
        return 1 + self.body.size

    @cached_property
    def abstractions(self) -> int:
        return 1 + self.body.abstractions

    @cached_property
    def free_vars(self) -> frozenset[str]:
        return self.body.free_vars - {self.var}

    @cached_property
    def alpha_class(self) -> AlphaClass:
        return _nameless(self, {}, 0)


class App(Record):
    def __init__(self, fn: Term, arg: Term, ty: Ty | None = None):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "ty", ty)

    @cached_property
    def size(self) -> int:
        return 1 + self.fn.size + self.arg.size

    @cached_property
    def abstractions(self) -> int:
        return self.fn.abstractions + self.arg.abstractions

    @cached_property
    def free_vars(self) -> frozenset[str]:
        return self.fn.free_vars | self.arg.free_vars

    @cached_property
    def alpha_class(self) -> AlphaClass:
        return _intern(("app", self.fn.alpha_class, self.arg.alpha_class))


class Fun(Record):
    def __init__(self, sym: str, args: tuple[Term, ...] = (), ty: Ty | None = None):
        _set(self, "sym", sym)
        _set(self, "args", args)
        _set(self, "ty", ty)

    # loops: sum() over a generator adds a C-level frame per level (capped on 3.12)
    @cached_property
    def size(self) -> int:
        n = 1
        for a in self.args:
            n += a.size
        return n

    @cached_property
    def abstractions(self) -> int:
        n = 0
        for a in self.args:
            n += a.abstractions
        return n

    @cached_property
    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:  # a loop: a comprehension would add a frame per level
            out |= a.free_vars
        return out

    @cached_property
    def alpha_class(self) -> AlphaClass:
        return _intern(("fun", self.sym, *[a.alpha_class for a in self.args]))


Term = Var | Abs | App | Fun


def term_printer() -> Callable[[Term], str]:
    """`term_str` memoised by node identity, so that terms sharing nodes (a
    trace's sides) cost their distinct nodes. The memo holds each printed
    node, so no id it keys on is reused while the printer lives."""
    memo: dict[int, tuple[Term, str]] = {}

    def show(t: Term) -> str:
        if isinstance(t, Var):
            return t.name
        known = memo.get(id(t))
        if known is not None:
            return known[1]
        if isinstance(t, Fun):
            parts = []
            for a in t.args:  # a loop: a comprehension would add a frame per level
                parts.append(show(a))
            text = "%s(%s)" % (t.sym, ",".join(parts)) if parts else t.sym
        elif isinstance(t, App):
            text = "@(%s,%s)" % (show(t.fn), show(t.arg))
        else:
            text = "\\%s:%s.%s" % (t.var, ty_str(t.var_ty), show(t.body))
        memo[id(t)] = t, text
        return text

    return show


def term_str(t: Term) -> str:
    return term_printer()(t)


def subterms(t: Term) -> Iterator[Term]:
    """All subterms including `t` itself, pre-order, descending under binders."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Abs):
            stack.append(t.body)
        elif isinstance(t, App):
            stack += (t.arg, t.fn)
        elif isinstance(t, Fun):
            stack.extend(reversed(t.args))


def strict_subterms(t: Term) -> Iterator[Term]:
    it = subterms(t)
    next(it)
    return it


def free_vars(t: Term) -> frozenset[str]:
    return t.free_vars


def all_names(t: Term) -> frozenset[str]:
    """Every identifier occurring in `t`, free or bound, binders included."""
    out: set[str] = set()
    for u in subterms(t):
        if isinstance(u, Var):
            out.add(u.name)
        elif isinstance(u, Abs):
            out.add(u.var)
    return frozenset(out)


def fresh_var(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Deterministic fresh name: `base#k` for the least unused k."""
    stem = base.split(FRESH_SEP, 1)[0]
    k = 0
    while True:
        cand = "%s%s%d" % (stem, FRESH_SEP, k)
        if cand not in avoid:
            return cand
        k += 1


# ---------------------------------------------------------------------------
# Typing (returns an annotated copy)


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


# ---------------------------------------------------------------------------
# Substitution and alpha-equivalence


def substitute(t: Term, subst: Mapping[str, Term]) -> Term:
    """Capture-avoiding substitution; bound variables are renamed when needed."""
    if not subst:
        return t
    range_fv: frozenset[str] = frozenset(subst.keys())
    for r in subst.values():
        range_fv |= free_vars(r)

    def go(t: Term, sub: dict[str, Term]) -> Term:
        if isinstance(t, Var):
            return sub.get(t.name, t)
        if isinstance(t, Fun):
            return Fun(t.sym, tuple(go(a, sub) for a in t.args), t.ty)
        if isinstance(t, App):
            return App(go(t.fn, sub), go(t.arg, sub), t.ty)
        sub = {k: v for k, v in sub.items() if k != t.var}
        if not any(k in free_vars(t.body) for k in sub):
            return t
        x, body = t.var, t.body
        if x in range_fv:
            z = fresh_var(x, range_fv | all_names(body))
            body = go(body, {x: Var(z, t.var_ty)})
            x = z
        return Abs(x, t.var_ty, go(body, sub), t.ty)

    return go(t, dict(subst))


def open_abs(t: Abs, z: str) -> Term:
    """The body of `t` with its bound variable instantiated by `Var(z)`."""
    return substitute(t.body, {t.var: Var(z, t.var_ty)})


def beta_reduct(t: Term) -> Term | None:
    """`u{x := a}` when `t` is the beta redex `@(\\x.u, a)`, else None."""
    if isinstance(t, App) and isinstance(t.fn, Abs):
        return substitute(t.fn.body, {t.fn.var: t.arg})
    return None


def eta_reduct(t: Term) -> Term | None:
    """`u` when `t` is the eta redex `\\x.@(u, x)` with x not free in u,
    else None."""
    if not isinstance(t, Abs):
        return None
    body = t.body
    if (
        isinstance(body, App)
        and isinstance(body.arg, Var)
        and body.arg.name == t.var
        and t.var not in free_vars(body.fn)
    ):
        return body.fn
    return None


class AlphaClass:
    """One alpha-equivalence class of terms; two classes are the same class
    iff they are the same object.

    `key` is the class's structure, with bound variables as de Bruijn
    indices: a tag, the symbol, variable name or binder type, and the
    classes of the parts. Holding the parts' classes keeps them alive as
    long as this one, so a key always denotes one live class.
    """

    __slots__ = ("key", "__weakref__")

    def __init__(self, key: tuple):
        self.key = key


# The live class of each key. The table is weak: a class lives only while a
# term node, another class or a memo key holds it.
_CLASSES: weakref.WeakValueDictionary[tuple, AlphaClass] = (
    weakref.WeakValueDictionary()
)


def _intern(key: tuple) -> AlphaClass:
    cls = _CLASSES.get(key)
    if cls is None:
        cls = _CLASSES[key] = AlphaClass(key)
    return cls


def _nameless(t: Term, bound: dict[str, int], depth: int) -> AlphaClass:
    """Class of `t` under `depth` binders; `bound` gives the depth at which
    each bound name was bound. Bound variables become de Bruijn indices, so
    a part that uses no name of `bound` gets its own class."""
    if isinstance(t, Var):
        level = bound.get(t.name)
        if level is None:
            return t.alpha_class
        return _intern(("bound", depth - 1 - level))
    if isinstance(t, Fun):
        return _intern(("fun", t.sym, *[_nameless(a, bound, depth) for a in t.args]))
    if isinstance(t, App):
        return _intern(
            ("app", _nameless(t.fn, bound, depth), _nameless(t.arg, bound, depth))
        )
    inner = {**bound, t.var: depth}
    return _intern(("abs", t.var_ty, _nameless(t.body, inner, depth + 1)))


def alpha_eq(s: Term, t: Term) -> bool:
    """Equality up to renaming of bound variables (binder types must match)."""
    return s.alpha_class is t.alpha_class
