"""Seeded generator of `.horpo` problem texts for the benchmark.

The program under test only ever sees the text this module emits (or the
committed corpus files). A seed picks the identifiers; it never changes the
shape of a problem, so every seed asks for the same amount of work and a
verdict that is fixed by construction.

Renaming preserves the relative order of names inside each category (sorts,
symbols, variables, binders). The parameter search enumerates sorted names
and the engine sorts bound-variable sets, so an order-preserving renaming
keeps the search path, and hence the cost, the same on every seed.
"""
from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

ORIENTED = "oriented"
NOT_ORIENTED = "not-oriented"


@dataclass(frozen=True)
class Case:
    """One generated problem with a single rule and its known verdict."""

    family: str
    size: int
    text: str
    expect: str

    @property
    def id(self) -> str:
        return "%s-%d" % (self.family, self.size)


# Why each family and size is in `deep-orient`. Seed timings on a 2-core
# x86-64 box with CPython 3.11 are given as a guide, not as a target.
FAMILY_WHY = {
    "tower": "c^k(z) -> c^(k/2)(z): orient time grows about k^4 while the "
    "memo grows about k^2 (k=16/24/32: 0.016/0.07/0.19 s, memo 53/103/169)",
    "tower_rev": "c^(k/2)(z) -> c^k(z) is not oriented and costs about twice "
    "the oriented tower (k=16/24/32: 0.03/0.16/0.35 s)",
    "incomparable": "c^k(z) -> d^k(z): memo only k+1 entries, yet cost grows "
    "like the tower, almost all in the alpha_eq dedup of acc_candidates",
    "multiset": "arity-n multiset extension, lhs f(s(x0),x1..) and the "
    "arguments rotated on the right: about 8x more per extra argument "
    "(n=6/7/8: 0.006/0.05/0.44 s)",
    "ho_nest": "d nested binders on the right (cases 4b, 4a and the accApply "
    "composite): cheap, so a first-order speed-up cannot hide a "
    "higher-order regression",
    "map_unroll": "map over a cons list unrolled d times (cases 1c, 1b and "
    "application on the right): cheap higher-order control",
}

# 15 problems in all: a batch of 5 mod 10 items keeps the latency
# percentiles off the edge between two items (see NOTES.md).
DEEP_SIZES = {
    "tower": (16, 24, 32),
    "tower_rev": (16, 24, 32),
    "incomparable": (16, 24, 32),
    "multiset": (6, 7, 8),
    "ho_nest": (1, 3),
    "map_unroll": (6,),
}

# Generated problems whose traces `replay-emit` replays, beside the corpus.
# Replay and emission unfold the subtraces the engine's memo shares, so the
# tree grows exponentially while the DAG grows slowly. Towers k=12/16/20
# are DAGs of 76/125/186 nodes but trees of 829/4,093/19,453 nodes; k=32 is
# 441 and 1,835,005 nodes and 85.6 s of replay. map_unroll has the same
# cliff: d=8/10/12 are 1,762/7,466/31,794 tree nodes and 0.14/0.78/5.3 s
# of replay and emission. The sizes stop where one batch still repeats
# several times in a run (tower k=20 alone takes about 3.3 s and writes
# 36 MB of JSON). ho_nest keeps binder nodes (4a, 4b, accApply) in the mix.
REPLAY_SIZES = {
    "tower": (8, 10, 12, 14, 16, 18),
    "map_unroll": (4, 6, 8),
    "ho_nest": (2, 4, 6),
}


class Namer:
    """Order-preserving, seeded renaming of identifiers, one category at a
    time. Every generated name has the same length so that the printed
    terms, and the string work done on them, have the same size on every
    seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def names(self, prefix: str, originals: list[str]) -> dict[str, str]:
        fresh: set[str] = set()
        while len(fresh) < len(originals):
            name = prefix + "".join(self.rng.choice(string.ascii_lowercase) for _ in range(4))
            if name not in self.used:
                fresh.add(name)
        self.used |= fresh
        return dict(zip(sorted(originals), sorted(fresh)))


def _nest(sym: str, k: int, inner: str) -> str:
    return "%s(" % sym * k + inner + ")" * k


def _unary(rng: random.Random, syms: list[str], lhs, rhs) -> str:
    namer = Namer(rng)
    sort = namer.names("S", ["N"])["N"]
    fn = namer.names("f", ["z"] + syms)
    lines = ["sort %s ;" % sort, "fun %s : [] -> %s ;" % (fn["z"], sort)]
    lines += ["fun %s : [%s] -> %s ;" % (fn[s], sort, sort) for s in syms]
    lines.append("rule %s -> %s ;" % (lhs(fn), rhs(fn)))
    return "\n".join(lines) + "\n"


def tower(rng: random.Random, k: int, reverse: bool = False) -> str:
    big = lambda fn: _nest(fn["c"], k, fn["z"])
    small = lambda fn: _nest(fn["c"], k // 2, fn["z"])
    return _unary(rng, ["c"], small if reverse else big, big if reverse else small)


def incomparable(rng: random.Random, k: int) -> str:
    return _unary(
        rng,
        ["c", "d"],
        lambda fn: _nest(fn["c"], k, fn["z"]),
        lambda fn: _nest(fn["d"], k, fn["z"]),
    )


def multiset(rng: random.Random, n: int) -> str:
    namer = Namer(rng)
    sort = namer.names("S", ["N"])["N"]
    fn = namer.names("f", ["f", "s"])
    xs = namer.names("X", ["x%d" % i for i in range(n)])
    x = [xs["x%d" % i] for i in range(n)]
    lines = [
        "sort %s ;" % sort,
        "fun %s : [%s] -> %s ;" % (fn["s"], sort, sort),
        "fun %s : [%s] -> %s ;" % (fn["f"], ", ".join([sort] * n), sort),
    ]
    lines += ["var %s : %s ;" % (v, sort) for v in x]
    lhs = "%s(%s(%s), %s)" % (fn["f"], fn["s"], x[0], ", ".join(x[1:]))
    rhs = "%s(%s)" % (fn["f"], ", ".join(x[1:] + x[:1]))
    lines.append("rule %s -> %s ;" % (lhs, rhs))
    return "\n".join(lines) + "\n"


def ho_nest(rng: random.Random, d: int) -> str:
    """Brouwer-style limit recursion with d nested binders on the right:
    rec(lim(F),U,W) -> @(W, F, \\n1. @(W, F, ... \\nd. rec(@(F,nd),U,W)))."""
    namer = Namer(rng)
    so = namer.names("S", ["A", "Nat", "Ord"])
    fn = namer.names("f", ["lim", "rec"])
    vs = namer.names("V", ["F", "U", "W"])
    bs = namer.names("b", ["n%d" % i for i in range(1, d + 1)])
    nat, ordt, a = so["Nat"], so["Ord"], so["A"]
    lines = ["sort %s ;" % s for s in (nat, ordt, a)]
    lines += [
        "order %s < %s ;" % (nat, ordt),
        "fun %s : [%s -> %s] -> %s ;" % (fn["lim"], nat, ordt, ordt),
        "fun %s : [%s, %s, (%s -> %s) -> (%s -> %s) -> %s] -> %s ;"
        % (fn["rec"], ordt, a, nat, ordt, nat, a, a, a),
        "var %s : %s -> %s ;" % (vs["F"], nat, ordt),
        "var %s : %s ;" % (vs["U"], a),
        "var %s : (%s -> %s) -> (%s -> %s) -> %s ;" % (vs["W"], nat, ordt, nat, a, a),
    ]
    f, u, w = vs["F"], vs["U"], vs["W"]
    last = bs["n%d" % d]
    rhs = "%s(@(%s, %s), %s, %s)" % (fn["rec"], f, last, u, w)
    for i in range(d, 0, -1):
        rhs = "@(%s, %s, \\%s:%s. %s)" % (w, f, bs["n%d" % i], nat, rhs)
    lhs = "%s(%s(%s), %s, %s)" % (fn["rec"], fn["lim"], f, u, w)
    lines.append("rule %s -> %s ;" % (lhs, rhs))
    return "\n".join(lines) + "\n"


def map_unroll(rng: random.Random, d: int) -> str:
    """map(F, cons(H1, ... cons(Hd, T))) -> cons(@(F,H1), map(F, cons(H2, ...)))."""
    namer = Namer(rng)
    so = namer.names("S", ["List", "Nat"])
    fn = namer.names("f", ["cons", "map", "nil"])
    hs = ["H%d" % i for i in range(1, d + 1)]
    vs = namer.names("V", ["F", "T"] + hs)
    nat, lst = so["Nat"], so["List"]
    cons, mp = fn["cons"], fn["map"]
    lines = [
        "sort %s ;" % nat,
        "sort %s ;" % lst,
        "order %s < %s ;" % (nat, lst),
        "fun %s : [] -> %s ;" % (fn["nil"], lst),
        "fun %s : [%s, %s] -> %s ;" % (cons, nat, lst, lst),
        "fun %s : [%s -> %s, %s] -> %s ;" % (mp, nat, nat, lst, lst),
        "prec %s > %s ;" % (mp, fn["nil"]),
        "prec %s > %s ;" % (mp, cons),
        "var %s : %s -> %s ;" % (vs["F"], nat, nat),
        "var %s : %s ;" % (vs["T"], lst),
    ]
    lines += ["var %s : %s ;" % (vs[h], nat) for h in hs]
    heads = [vs[h] for h in hs]
    f = vs["F"]

    def spine(items: list[str], tail: str) -> str:
        for item in reversed(items):
            tail = "%s(%s, %s)" % (cons, item, tail)
        return tail

    lhs = "%s(%s, %s)" % (mp, f, spine(heads, vs["T"]))
    rhs = "%s(@(%s, %s), %s(%s, %s))" % (
        cons, f, heads[0], mp, f, spine(heads[1:], vs["T"]),
    )
    lines.append("rule %s -> %s ;" % (lhs, rhs))
    return "\n".join(lines) + "\n"


_FAMILIES = {
    "tower": (lambda rng, k: tower(rng, k), ORIENTED),
    "tower_rev": (lambda rng, k: tower(rng, k, reverse=True), NOT_ORIENTED),
    "incomparable": (incomparable, NOT_ORIENTED),
    "multiset": (multiset, ORIENTED),
    "ho_nest": (ho_nest, ORIENTED),
    "map_unroll": (map_unroll, ORIENTED),
}


def case(rng: random.Random, family: str, size: int) -> Case:
    make, expect = _FAMILIES[family]
    return Case(family, size, make(rng, size), expect)


def cases(seed: int, sizes: dict[str, tuple[int, ...]]) -> list[Case]:
    """Every family of `sizes` at each of its sizes, named from `seed`."""
    rng = random.Random(seed)
    return [
        case(rng, family, size)
        for family, family_sizes in sizes.items()
        for size in family_sizes
    ]


# ---------------------------------------------------------------------------
# Renamed corpus problems

_DECL = re.compile(r"^\s*(sort|fun|var)\s+([A-Za-z0-9_']+)", re.M)
_BINDER = re.compile(r"[\\λ]\s*([A-Za-z0-9_']+)\s*:")
_IDENT = re.compile(r"[A-Za-z0-9_']+")
_PREFIX = {"sort": "S", "fun": "f", "var": "V", "binder": "b"}


def rename(text: str, rng: random.Random) -> str:
    """The same problem with every declared name and binder replaced by a
    seeded, order-preserving fresh name. Comments are dropped."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines()) + "\n"
    groups: dict[str, list[str]] = {k: [] for k in _PREFIX}
    for kind, name in _DECL.findall(text):
        groups[kind].append(name)
    groups["binder"] = sorted(set(_BINDER.findall(text)))
    namer = Namer(rng)
    mapping: dict[str, str] = {}
    for kind, names in groups.items():
        mapping.update(namer.names(_PREFIX[kind], names))
    return _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


# The unorientable rule appended to the search problem: its right side
# embeds the left side, so the parameter search must exhaust its space.
_BLOCKER = "rule rec(N, U, V, W) -> rec(s(N), U, V, W) ;\n"


def search_variants(brouwer_search: str) -> dict[str, str]:
    """Parameter-search inputs built from the corpus's brouwer_search text.

    `found` is the file itself: search succeeds after about 0.1 s.
    `exhausted` adds a rule no parameters orient, so the weak orders of all
    4 symbols are tried (about 1 s). With a fifth symbol one call takes
    about 5.6 s, too long for a batch that must repeat within one run, so
    that size is left out.
    """
    return {"found": brouwer_search, "exhausted": brouwer_search + _BLOCKER}
