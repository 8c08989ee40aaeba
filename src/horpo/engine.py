"""The decision procedure for the higher-order recursive path ordering.

One `Engine` instance owns a memo table and serves one problem's rule checks.
Cases are tried in a fixed order and the first success is recorded in the
trace; failures are only reported after every applicable case was tried, so
success does not depend on the order.

Case order within the algebraic group is 1b, 1c, 1a (status, precedence,
then accessible subterm): when several cases apply, this prefers the
derivation that descends through the right-hand side, which is the shape the
reference derivations take.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .accessibility import APP_SYM, acc_candidates, acc_new_candidates
from .context import MUL, OrderingContext
from .terms import (
    Abs,
    App,
    Arrow,
    Fun,
    Term,
    Ty,
    Var,
    all_names,
    alpha_eq,
    beta_reduct,
    eta_reduct,
    fresh_var,
    open_abs,
    term_str,
    ty_str,
)
from .traces import Trace, XSet, app_splits, apply_witness, x_add
from .typeorder import Cmp, ty_eq, ty_ge


class EngineError(Exception):
    """Recursion guard exceeded; signals an engine bug, never expected."""


EMPTY_X: XSet = ()
_MISS = object()

# The cases tried on each kind of left-hand side, in order.
_CASES = {
    Fun: ("_case_1b", "_case_1c", "_case_1a", "_case_4a", "_case_4b"),
    App: ("_case_2a", "_case_2b", "_case_2c", "_case_4a", "_case_4b"),
    Abs: ("_case_3a", "_case_3b", "_case_3c", "_case_4a"),
}


class Engine:
    def __init__(self, ctx: OrderingContext):
        self.ctx = ctx
        self.memo: dict = {}
        self._depth = 0
        self._limit = 0

    # -- public entry points ------------------------------------------------

    def gt(self, x: XSet, s: Term, t: Term) -> Trace | None:
        self._raise_limit(s, t)
        return self._gt(x, s, t)

    def ge(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if alpha_eq(s, t):
            trace = Trace("refl", s, t, x)
            self.memo.setdefault(("ge", x, s.alpha_class, t.alpha_class), trace)
            return trace
        self._raise_limit(s, t)
        known = self.memo.get(("gt", x, s.alpha_class, t.alpha_class), _MISS)
        return self._gt(x, s, t) if known is _MISS else known

    def gt_type(self, x: XSet, s: Term, t: Term) -> Trace | None:
        """s > t together with the type gate type(s) >= type(t)."""
        if not ty_ge(self.ctx.sort_order, s.ty, t.ty):
            return None
        inner = self.gt(x, s, t)
        if inner is None:
            return None
        aux = (("lhs_ty", ty_str(s.ty)), ("rhs_ty", ty_str(t.ty)))
        return Trace("typeCheck", s, t, x, (inner,), aux)

    def ge_type(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if alpha_eq(s, t):
            return Trace("refl", s, t, x)
        return self.gt_type(x, s, t)

    def orient_rule(self, lhs: Term, rhs: Term) -> Trace | None:
        """Top-level rule orientation: typed comparison with empty X.

        The root trace is the bare ordering case; the rule-level type gate is
        re-checked by callers (types of both sides are equal by rule
        well-formedness)."""
        if not ty_ge(self.ctx.sort_order, lhs.ty, rhs.ty):
            return None
        return self.gt(EMPTY_X, lhs, rhs)

    # -- main recursion -----------------------------------------------------

    def _raise_limit(self, s: Term, t: Term) -> None:
        """Let the recursion guard admit the goal s > t."""
        self._limit = max(self._limit, 4 * (s.size + t.size) * (1 + t.abstractions))

    def _gt(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if isinstance(s, Var):
            return None
        key = ("gt", x, s.alpha_class, t.alpha_class)
        if key in self.memo:
            return self.memo[key]
        self._depth += 1
        if self._depth > self._limit:
            raise EngineError(
                "recursion guard exceeded on %s vs %s" % (term_str(s), term_str(t))
            )
        try:
            # looked up by name, so that a patched case method takes effect
            for case in _CASES[type(s)]:
                result = getattr(self, case)(x, s, t)
                if result is not None:
                    break
        finally:
            self._depth -= 1
        self.memo[key] = result
        return result

    # -- algebraic left-hand side -------------------------------------------

    def _case_1a(self, x: XSet, s: Term, t: Term) -> Trace | None:
        """Some witness at or acc-below an argument s_i, applied to variables
        of X, is >= t under an empty X. When X is empty and s_i is algebraic
        of t's type (up to equivalence), s_i is tried first; if s_i >= t
        fails, s_i > t failed after its own case 1a asked s_i's arguments and
        their strict candidates (failures are reported only after every
        applicable case was tried), so only s_i's other candidates are asked.
        Re-asking skipped nodes would only read the memo, within s_i's guard limit."""
        ctx, order = self.ctx, self.ctx.sort_order
        for i, si in enumerate(s.args, start=1):
            if x or not isinstance(si, Fun) or not ty_eq(order, si.ty, t.ty):
                cands = self._witnesses(x, si, t, strict=False)
            else:
                new = acc_new_candidates(ctx.acc, order, ctx.min_types, si)
                cands = ((w, (), w) for w in (si, *new) if ty_eq(order, w.ty, t.ty))
            for w, xs, wapp in cands:
                inner = self.ge(EMPTY_X, wapp, t)
                if inner is not None:
                    return Trace(
                        "1a", s, t, x, (inner,), (("i", i), ("w", w), ("xs", xs))
                    )
        return None

    def _case_1b(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if not isinstance(t, Fun):
            return None
        if self.ctx.prec.cmp(s.sym, t.sym) is not Cmp.EQ:
            return None
        children = []
        for tj in t.args:
            tr = self._gt(x, s, tj)
            if tr is None:
                return None
            children.append(tr)
        status = self.ctx.statuses[s.sym]
        ext = (self._mul_ext if status == MUL else self._lex_ext)(
            x, s.args, t.args, "union"
        )
        if ext is None:
            return None
        children.append(ext)
        return Trace("1b", s, t, x, tuple(children), (("status", status),))

    def _case_1c(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if isinstance(t, Fun):
            if self.ctx.prec.cmp(s.sym, t.sym) is not Cmp.GT:
                return None
            splits = [list(t.args)]
        elif isinstance(t, App):
            if self.ctx.prec.cmp(s.sym, APP_SYM) is not Cmp.GT:
                return None
            splits = app_splits(t)
        else:
            return None
        for targs in splits:
            children = []
            for tj in targs:
                tr = self._gt(x, s, tj)
                if tr is None:
                    break
                children.append(tr)
            else:
                return Trace("1c", s, t, x, tuple(children))
        return None

    # -- applied left-hand side ---------------------------------------------

    def _case_2a(self, x: XSet, s: Term, t: Term) -> Trace | None:
        for side, u in (("fn", s.fn), ("arg", s.arg)):
            for w, xs, wapp in self._witnesses(x, u, t, strict=False):
                inner = self.ge(EMPTY_X, wapp, t)
                if inner is not None:
                    return Trace(
                        "2a", s, t, x, (inner,), (("side", side), ("w", w), ("xs", xs))
                    )
        return None

    def _case_2b(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if not isinstance(t, App):
            return None
        ext = self._mul_ext(x, (s.fn, s.arg), (t.fn, t.arg), "type_x")
        if ext is None:
            return None
        return Trace("2b", s, t, x, (ext,))

    def _case_2c(self, x: XSet, s: Term, t: Term) -> Trace | None:
        reduct = beta_reduct(s)
        if reduct is None:
            return None
        inner = self.ge(x, reduct, t)
        if inner is None:
            return None
        return Trace("2c", s, t, x, (inner,))

    # -- abstraction left-hand side ------------------------------------------

    def _fresh(self, base: str, x: XSet, *terms: Term) -> str:
        avoid = {name for name, _ in x}
        for t in terms:
            avoid |= all_names(t)
        return fresh_var(base, avoid)

    def _case_3a(self, x: XSet, s: Term, t: Term) -> Trace | None:
        z = self._fresh(s.var, x, s, t)
        inner = self.ge_type(x, open_abs(s, z), t)
        if inner is None:
            return None
        return Trace("3a", s, t, x, (inner,), (("fresh", z),))

    def _case_3b(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if not isinstance(t, Abs):
            return None
        if not ty_eq(self.ctx.sort_order, s.var_ty, t.var_ty):
            return None
        z = self._fresh(s.var, x, s, t)
        inner = self._gt(x, open_abs(s, z), open_abs(t, z))
        if inner is None:
            return None
        return Trace("3b", s, t, x, (inner,), (("fresh", z),))

    def _case_3c(self, x: XSet, s: Term, t: Term) -> Trace | None:
        reduct = eta_reduct(s)
        if reduct is None:
            return None
        inner = self.ge(x, reduct, t)
        if inner is None:
            return None
        return Trace("3c", s, t, x, (inner,))

    # -- freed variables and right-hand abstractions -------------------------

    def _case_4a(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if isinstance(t, Var) and any(name == t.name for name, _ in x):
            return Trace("4a", s, t, x)
        return None

    def _case_4b(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if not isinstance(t, Abs):
            return None
        z = self._fresh(t.var, x, s, t)
        inner = self._gt(x_add(x, z, t.var_ty), s, open_abs(t, z))
        if inner is None:
            return None
        return Trace("4b", s, t, x, (inner,), (("fresh", z),))

    # -- the accessible-subterm-then-apply composite --------------------------

    def _witnesses(
        self, x: XSet, base: Term, t: Term, strict: bool
    ) -> Iterator[tuple[Term, tuple[str, ...], Term]]:
        """Each w acc-below `base` with a vector of freed variables whose
        applied witness has a type equivalent to t's, as (w, applied names,
        applied witness), shortest vector first (only the empty one when X
        is empty). The caller compares the applied witness against `t` with
        an empty bound set, while this generator waits off the stack."""
        ctx = self.ctx
        for w in acc_candidates(ctx.acc, ctx.sort_order, ctx.min_types, base, strict):
            if ty_eq(ctx.sort_order, w.ty, t.ty):
                yield w, (), w
            if x:
                for xs in self._x_vectors(x, w):
                    wapp = apply_witness(ctx, w, xs, t.ty)
                    if wapp is not None:
                        yield w, tuple(name for name, _ in xs), wapp

    def _x_vectors(self, x: XSet, w: Term):
        """All non-empty typed vectors over X applicable to w, shortest first."""
        frontier: list[tuple[tuple[tuple[str, Ty], ...], Ty]] = [((), w.ty)]
        while frontier:
            nxt = []
            for vec, ty in frontier:
                if not isinstance(ty, Arrow):
                    continue
                for name, vty in x:
                    if ty_eq(self.ctx.sort_order, ty.dom, vty):
                        ext = vec + ((name, vty),)
                        yield ext
                        nxt.append((ext, ty.cod))
            frontier = nxt

    # -- extensions ------------------------------------------------------------

    def _pair(
        self, x: XSet, a: Term, b: Term, pair_kind: str
    ) -> Trace | None:
        """One extension subgoal: the typed comparison, or (for the status
        case under an algebraic head) the strict composite carrying X."""
        if pair_kind == "type_x":
            return self.gt_type(x, a, b)
        tr = self.gt_type(EMPTY_X, a, b)
        if tr is not None:
            return tr
        for w, xs, wapp in self._witnesses(x, a, b, strict=True):
            inner = self.ge(EMPTY_X, wapp, b)
            if inner is not None:
                return Trace("accApply", a, b, x, (inner,), (("w", w), ("xs", xs)))
        return None

    def _mul_ext(
        self, x: XSet, left: tuple[Term, ...], right: tuple[Term, ...], pair_kind: str
    ) -> Trace | None:
        """Dershowitz-Manna strict multiset extension with an explicit witness.

        Kept left elements are matched one-to-one against alpha-equal right
        elements; every remaining right element must be covered by some
        removed left element. Kept sets are tried largest first, so maximal
        cancellation wins when several witnesses exist."""
        n, m = len(left), len(right)
        for keep_size in range(min(n - 1, m), -1, -1):
            for keep in combinations(range(n), keep_size):
                removed = [i for i in range(n) if i not in keep]
                match = self._match_equal(keep, left, right)
                if match is None:
                    continue
                equal_pairs, leftover_r = match
                cover: list[tuple[int, int]] = []
                children: list[Trace] = []
                ok = True
                for j in leftover_r:
                    for i in removed:
                        tr = self._pair(x, left[i], right[j], pair_kind)
                        if tr is not None:
                            cover.append((i, j))
                            children.append(tr)
                            break
                    else:
                        ok = False
                        break
                if ok:
                    lhs, rhs = Fun("<args>", left), Fun("<args>", right)
                    aux = (("equal", tuple(equal_pairs)), ("cover", tuple(cover)))
                    return Trace("mulExt", lhs, rhs, x, tuple(children), aux)
        return None

    def _match_equal(self, keep, left, right):
        """Match each kept left index to a distinct alpha-equal right index.

        Each kept index, in order, takes the least free alpha-equal right
        index. Alpha-equality is an equivalence, so this succeeds whenever
        any matching exists, and it finds the lexicographically first one."""
        free = list(range(len(right)))
        pairs = []
        for i in keep:
            cls = left[i].alpha_class
            j = next((j for j in free if right[j].alpha_class is cls), None)
            if j is None:
                return None
            free.remove(j)
            pairs.append((i, j))
        return sorted(pairs, key=lambda p: p[1]), free

    def _lex_ext(
        self, x: XSet, left: tuple[Term, ...], right: tuple[Term, ...], pair_kind: str
    ) -> Trace | None:
        if len(left) != len(right):
            return None
        for k, (a, b) in enumerate(zip(left, right)):
            if alpha_eq(a, b):
                continue
            tr = self._pair(x, a, b, pair_kind)
            if tr is None:
                return None
            lhs, rhs = Fun("<args>", left), Fun("<args>", right)
            return Trace("lexExt", lhs, rhs, x, (tr,), (("pos", k),))
        return None
