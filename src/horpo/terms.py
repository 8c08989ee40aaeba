"""Simply typed algebraic lambda-terms: types, signatures, substitution.

Terms are immutable trees whose every node is annotated with its type: the
parser types each node as it builds it, and all downstream code assumes
annotated terms and never re-infers.

The steps the ordering's cases take on bound variables are defined here
once, for the engine, the trace checker and the harness alike: `open_abs`
instantiates a binder with a fresh variable, and `beta_reduct` and
`eta_reduct` recognise a redex at the root and return its reduct.

Each node's constructor sets the facts derived from it once, from its
children's facts: its size, its number of abstractions, its free variables,
every identifier in it, free or bound, binders included (`all_names`, the
free-variable set itself when it has no abstraction) and its
alpha-equivalence class (`alpha_class`); a variable's name sets are made
on each read. A `Signature` builds its symbols by output type and its
argument and output types in its constructor. Four values are cached on
first use:
  - on an abstraction, its body opened by each fresh name (`open_abs`),
    so each opening yields one body, with its alpha class and caches;
  - on a beta redex, its reduct (`beta_reduct`), for the same reason;
  - on a type, its printed form (`ty_str`);
  - in the accessibility layer, a node's acc-below candidates (the first
    strict subterm of each class that is acc-below it), keyed by
    `ctx.acc`, the sort order and the minimal types, all by identity, and
    beside them those candidates that no argument of the node offers.
The contract for facts and caches (a type is a node here too):
  - nodes are immutable, so a fact or cached value never goes stale;
  - they live in the node's `__dict__`, not among the fields that
    `Record` compares, hashes and prints, so they never affect equality,
    hashing or printing;
  - their lifetime is their node's: they are stored only on the node, and
    no table outside the node holds the node or its caches alive.
"""
from __future__ import annotations

import weakref
from typing import Callable, Iterator, Mapping

# Reserved separator for generated names; rejected in user identifiers.
FRESH_SEP = "#"


class TypingError(Exception):
    """A signature or a type is ill-formed: a repeated declaration, or an
    undeclared or mis-applied sort."""


_set = object.__setattr__  # a record sets its fields once, in its __init__


class Record:
    """An immutable record whose fields are the parameters of its class's
    `__init__`, in order. It equals a record of the same class with equal
    fields (any other class gets NotImplemented), hashes and prints as those
    fields, and raises AttributeError on assignment or deletion.

    Each subclass keeps its fields, and the facts its `__init__` sets with
    them, in `__slots__`; caches go in the instance's `__dict__`. A slot
    reads as fast whether or not the node holds a cache, while under
    CPython 3.11 a field in a `__dict__` that has been materialized (by
    reading `__dict__`, as every cache does) reads about four times
    slower."""

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
# both classes write them out rather than going through `_values`, and
# each type hashes its fields once, in its constructor.
class Data(Record):
    """A sort applied to type arguments (a data type)."""

    __slots__ = ("sort", "args", "_hash")

    def __init__(self, sort: str, args: tuple[Ty, ...] = ()):
        _set(self, "sort", sort)
        _set(self, "args", args)
        _set(self, "_hash", hash((sort, args)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sort, self.args) == (other.sort, other.args)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


class Arrow(Record):
    __slots__ = ("dom", "cod", "_hash")

    def __init__(self, dom: Ty, cod: Ty):
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "_hash", hash((dom, cod)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dom, self.cod) == (other.dom, other.cod)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


Ty = Data | Arrow


def ty_str(ty: Ty) -> str:
    """The printed type, cached on `ty`."""
    text = ty.__dict__.get("_str")
    if text is None:
        if isinstance(ty, Data):
            args = ",".join(map(ty_str, ty.args))
            text = "%s(%s)" % (ty.sort, args) if args else ty.sort
        else:
            dom = ty_str(ty.dom)
            dom = "(%s)" % dom if isinstance(ty.dom, Arrow) else dom
            text = "%s -> %s" % (dom, ty_str(ty.cod))
        _set(ty, "_str", text)
    return text


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
    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int = 0):
        _set(self, "name", name)
        _set(self, "arity", arity)


class FunDecl(Record):
    __slots__ = ("name", "arg_tys", "out_ty")

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
        # the symbols of each output type, and every argument and output
        # type once, both in declaration order
        self.funs_by_out: dict[Ty, list[FunDecl]] = {}
        tys: dict[Ty, None] = {}
        for f in self.funs:
            self.funs_by_out.setdefault(f.out_ty, []).append(f)
            for ty in (*f.arg_tys, f.out_ty):
                self.check_type(ty)
                tys[ty] = None
        self.fun_types = tuple(tys)

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


# the facts a compound node's constructor sets from its children's
_FACTS = ("size", "abstractions", "free_vars", "all_names", "alpha_class")


class Var(Record):
    __slots__ = ("name", "ty", "alpha_class")

    def __init__(self, name: str, ty: Ty | None = None):
        _set(self, "name", name)
        _set(self, "ty", ty)
        _set(self, "alpha_class", _intern(("var", name)))

    size = 1
    abstractions = 0

    @property  # not stored: that would keep a set on every variable node
    def free_vars(self) -> frozenset[str]:
        return frozenset((self.name,))

    all_names = free_vars


class Abs(Record):
    __slots__ = ("var", "var_ty", "body", "ty", *_FACTS)

    def __init__(self, var: str, var_ty: Ty, body: Term, ty: Ty | None = None):
        _set(self, "var", var)
        _set(self, "var_ty", var_ty)
        _set(self, "body", body)
        _set(self, "ty", ty)
        _set(self, "size", 1 + body.size)
        _set(self, "abstractions", 1 + body.abstractions)
        fv = body.free_vars
        _set(self, "free_vars", fv - {var} if var in fv else fv)
        names = body.all_names
        _set(self, "all_names", names if var in names else names | {var})
        body_class = _nameless(body, {var: 0}, 1)
        _set(self, "alpha_class", _intern(("abs", var_ty, body_class)))


class App(Record):
    __slots__ = ("fn", "arg", "ty", *_FACTS)

    def __init__(self, fn: Term, arg: Term, ty: Ty | None = None):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "ty", ty)
        _set(self, "size", 1 + fn.size + arg.size)
        abstractions = fn.abstractions + arg.abstractions
        fv = _union(fn.free_vars, arg.free_vars)
        _set(self, "abstractions", abstractions)
        _set(self, "free_vars", fv)
        names = _union(fn.all_names, arg.all_names) if abstractions else fv
        _set(self, "all_names", names)
        _set(self, "alpha_class", _intern(("app", fn.alpha_class, arg.alpha_class)))


class Fun(Record):
    __slots__ = ("sym", "args", "ty", *_FACTS)

    def __init__(self, sym: str, args: tuple[Term, ...] = (), ty: Ty | None = None):
        _set(self, "sym", sym)
        _set(self, "args", args)
        _set(self, "ty", ty)
        size, abstractions, fv = 1, 0, _NO_VARS
        for a in args:
            size += a.size
            abstractions += a.abstractions
            fv = _union(fv, a.free_vars)
        names = fv
        if abstractions:
            for a in args:
                names = _union(names, a.all_names)
        _set(self, "size", size)
        _set(self, "abstractions", abstractions)
        _set(self, "free_vars", fv)
        _set(self, "all_names", names)
        _set(self, "alpha_class", _intern(("fun", sym, *[a.alpha_class for a in args])))


_NO_VARS: frozenset[str] = frozenset()


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """`a | b`, sharing an operand when the other is empty."""
    return a | b if a and b else a or b


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


def free_vars(t: Term) -> frozenset[str]:
    return t.free_vars


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
        if t.free_vars.isdisjoint(sub):
            return t
        if isinstance(t, Fun):
            return Fun(t.sym, tuple([go(a, sub) for a in t.args]), t.ty)
        if isinstance(t, App):
            return App(go(t.fn, sub), go(t.arg, sub), t.ty)
        sub = {k: v for k, v in sub.items() if k != t.var}
        x, body = t.var, t.body
        if x in range_fv:
            z = fresh_var(x, range_fv | body.all_names)
            body = go(body, {x: Var(z, t.var_ty)})
            x = z
        return Abs(x, t.var_ty, go(body, sub), t.ty)

    return go(t, dict(subst))


def open_abs(t: Abs, z: str) -> Term:
    """The body of `t` with its bound variable instantiated by `Var(z)`,
    built once per name and cached on `t`."""
    opened = t.__dict__.get("_opened")
    if opened is None:
        opened = t.__dict__["_opened"] = {}
    body = opened.get(z)
    if body is None:
        body = opened[z] = substitute(t.body, {t.var: Var(z, t.var_ty)})
    return body


def beta_reduct(t: Term) -> Term | None:
    """`u{x := a}` when `t` is the beta redex `@(\\x.u, a)`, else None; a
    reduct is built once and cached on `t`."""
    if not (isinstance(t, App) and isinstance(t.fn, Abs)):
        return None
    reduct = t.__dict__.get("_reduct")
    if reduct is None:
        reduct = t.__dict__["_reduct"] = substitute(t.fn.body, {t.fn.var: t.arg})
    return reduct


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
    a part none of whose free variables is bound has its own class, and
    only the paths down to bound variables are walked."""
    if isinstance(t, Var):
        level = bound.get(t.name)
        if level is None:
            return t.alpha_class
        return _intern(("bound", depth - 1 - level))
    if t.free_vars.isdisjoint(bound):
        return t.alpha_class
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
