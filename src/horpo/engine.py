"""The decision procedure for the higher-order recursive path ordering.

One `Engine` instance owns a memo table and serves one problem's rule checks.
Cases are tried in a fixed order and the first success is recorded in the
trace; failures are only reported after every applicable case was tried, so
success does not depend on the order.

Case order within the algebraic group is 1b, 1c, 1a (status, precedence,
then accessible subterm): when several cases apply, this prefers the
derivation that descends through the right-hand side, which is the shape the
reference derivations take.

The recursion terminates: every goal `gt` asks while deciding the goal
(X, s, t) is smaller in the measure

    mu(X, s, t) = (|t|, |X|, s)

compared lexicographically, where |t| is the size of t, |X| the number of
bound variables, and left sides are ordered by (->beta u |>)+, with |> the
strict-subterm relation (a binder's body opened with a fresh name) and
->beta one beta step. That order is well-founded on simply typed terms.
Per case:
  - 1b, 1c, 2b, 3b and 4b, and the pairs of the extensions (`typeCheck`
    and `accApply` alike), make a right side smaller than t. 4b adds one
    variable to X, which is why |t| comes first.
  - 1a and 2a keep t and empty X. With a non-empty X that decreases |X|
    (the left side `@(w, xs)` may be no smaller than s); with an empty X
    the left side is w itself, a strict subterm of s.
  - 2c, 3a and 3c keep t and X and move the left side to its beta-reduct
    (which may be larger than s), its opened body, or its eta-reduct (a
    subterm). So size alone does not decrease.
`tests/test_engine.py` checks this on every goal the engine makes over the
corpus, the test data, towers and the randomized probes.
"""
from __future__ import annotations

from typing import Iterator

from .accessibility import acc_candidates, acc_new_candidates
from .context import MUL, OrderingContext
from .terms import (
    Abs,
    App,
    Arrow,
    Fun,
    Term,
    Ty,
    Var,
    alpha_eq,
    beta_reduct,
    eta_reduct,
    fresh_var,
    open_abs,
    ty_str,
)
from .traces import Trace, XSet, app_splits, apply_witness, ext_args, x_add
from .typeorder import Cmp, ty_eq, ty_ge


EMPTY_X: XSet = ()

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

    # -- the recursion ------------------------------------------------------

    def gt(self, x: XSet, s: Term, t: Term) -> Trace | None:
        """s > t under the bound set x: the memoised answer, or the first
        case that applies. Every goal, from any entry point or case, is
        asked here."""
        if isinstance(s, Var):
            return None
        key = ("gt", x, s.alpha_class, t.alpha_class)
        if key in self.memo:
            return self.memo[key]
        # looked up by name, so that a patched case method takes effect
        for case in _CASES[type(s)]:
            result = getattr(self, case)(x, s, t)
            if result is not None:
                break
        self.memo[key] = result
        return result

    def ge(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if alpha_eq(s, t):
            trace = Trace("refl", s, t, x)
            self.memo.setdefault(("ge", x, s.alpha_class, t.alpha_class), trace)
            return trace
        return self.gt(x, s, t)

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

    # -- algebraic left-hand side -------------------------------------------

    def _case_1a(self, x: XSet, s: Term, t: Term) -> Trace | None:
        """Some witness at or acc-below an argument s_i, applied to variables
        of X, is >= t under an empty X."""
        for i, si in enumerate(s.args, start=1):
            for w, xs, wapp in self._witnesses(x, si, t, strict=False):
                inner = self.ge(EMPTY_X, wapp, t)
                if inner is not None:
                    return Trace(
                        "1a", s, t, x, (inner,), (("i", i), ("w", w), ("xs", xs))
                    )
        return None

    def _case_1b(self, x: XSet, s: Term, t: Term) -> Trace | None:
        """Equivalent heads: s > t_j for every argument t_j, and the status
        extension of the argument lists. The paper's premises form a
        conjunction with no order, so the extension, whose pairs are
        smaller goals, is decided first: a failing goal then descends the
        diagonal of a tower rather than visiting every pair of its levels.
        The children keep the paper's order (the arguments, then the
        extension). A success proves the same premises in either order and
        a failure makes no trace, so the traces are those the
        arguments-first order makes."""
        if not isinstance(t, Fun):
            return None
        if self.ctx.prec.cmp(s.sym, t.sym) is not Cmp.EQ:
            return None
        status = self.ctx.statuses[s.sym]
        ext = (self._mul_ext if status == MUL else self._lex_ext)(x, s, t, "union")
        if ext is None:
            return None
        children = []
        for tj in t.args:
            tr = self.gt(x, s, tj)
            if tr is None:
                return None
            children.append(tr)
        children.append(ext)
        return Trace("1b", s, t, x, tuple(children), (("status", status),))

    def _case_1c(self, x: XSet, s: Term, t: Term) -> Trace | None:
        if isinstance(t, Fun):
            if self.ctx.prec.cmp(s.sym, t.sym) is not Cmp.GT:
                return None
            splits = [list(t.args)]
        elif isinstance(t, App):
            # applications sit below every symbol: no precedence test
            splits = app_splits(t)
        else:
            return None
        for targs in splits:
            children = []
            for tj in targs:
                tr = self.gt(x, s, tj)
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
        ext = self._mul_ext(x, s, t, "type_x")
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

    def _fresh(self, base: str, x: XSet, s: Term, t: Term) -> str:
        avoid = s.all_names | t.all_names
        return fresh_var(base, avoid.union([name for name, _ in x]) if x else avoid)

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
        inner = self.gt(x, open_abs(s, z), open_abs(t, z))
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
        inner = self.gt(x_add(x, z, t.var_ty), s, open_abs(t, z))
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
        an empty bound set, while this generator waits off the stack.

        `base` itself comes first, unless `strict`. The rest are cut when
        `base` is algebraic and the memo holds base > t under X as failed:
        then only the candidates that are not an argument of `base` or a
        candidate of one are offered. That failed goal's case 1a asked each
        argument of `base` and each candidate of one (or found it refuted,
        by this rule), applied to every vector over the same X, to be >= t,
        and failures are reported only after every case was tried. So every
        skipped witness fails, for any X, and asking it again would only
        read the memo."""
        ctx, order = self.ctx, self.ctx.sort_order
        if not strict:
            yield from self._applied(x, base, t)
        key = ("gt", x, base.alpha_class, t.alpha_class)
        if isinstance(base, Fun) and key in self.memo and self.memo[key] is None:
            below = acc_new_candidates(ctx.acc, order, ctx.min_types, base)
        else:
            below = acc_candidates(ctx.acc, order, ctx.min_types, base, True)
        for w in below:
            yield from self._applied(x, w, t)

    def _applied(self, x: XSet, w: Term, t: Term):
        """`w` applied to each vector over X that gives t's type, as
        `_witnesses` yields them."""
        ctx = self.ctx
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

    def _mul_ext(self, x: XSet, s: Term, t: Term, pair_kind: str) -> Trace | None:
        """Dershowitz-Manna strict multiset extension of the argument lists
        of `s` and `t` (`ext_args`), with an explicit witness: kept left
        elements cancel alpha-equal right elements one to one, at least one
        left element is removed, and every other right element is covered
        by a removed left element that `_pair` accepts.

        Each candidate witness (equal pairs, removed left indices, leftover
        right indices) is covered here, each leftover right element in
        order by the first removed left element that `_pair` accepts. When
        no class is shared (every tower goal) the empty keep set is the only
        candidate and nothing else is built, so a case-1b level spends five
        frames: `gt`, `_case_1b`, this, `_pair` and `gt_type`. Otherwise
        `_mul_open` yields the candidates. `known` holds the answer for each
        pair of classes asked so far: one known to fail is not asked again,
        and one that holds only for each cover node it makes."""
        left, right = ext_args(s), ext_args(t)
        if not left:
            return None
        known: dict = {}
        rclasses = [b.alpha_class for b in right]
        for a in left:
            if a.alpha_class in rclasses:
                witnesses = self._mul_open(x, left, right, pair_kind, known)
                break
        else:
            witnesses = (((), range(len(left)), range(len(right))),)
        for equal, removed, leftover in witnesses:
            cover: list[tuple[int, int]] = []
            children: list[Trace] = []
            for j in leftover:
                b = right[j]
                for i in removed:
                    key = (left[i].alpha_class, b.alpha_class)
                    if known.get(key) is False:
                        continue
                    tr = self._pair(x, left[i], b, pair_kind)
                    known[key] = tr is not None
                    if tr is not None:
                        cover.append((i, j))
                        children.append(tr)
                        break
                else:
                    break
            else:
                aux = (("equal", tuple(equal)), ("cover", tuple(cover)))
                return Trace("mulExt", s, t, x, tuple(children), aux)
        return None

    def _mul_open(self, x, left, right, pair_kind, known):
        """The candidate witnesses when some class is shared, in order, as
        `_mul_ext` covers them. Copies of one alpha class are
        interchangeable, since `_pair`'s answer depends only on the two
        classes, so a witness is fixed, up to copies, by the shared classes
        left open (cancelling one copy fewer than they could): a class's
        first left copies cancel its first right copies.

        First maximal cancellation: no class open, or, when that would
        cancel every left element, one class, the class of the last element
        first. Then the greatest set of open classes that gives a witness,
        if any does. A left class is available when it is open or has more
        left copies than right ones, and a class with more right copies
        than left ones is forced (one of them always needs a cover). Every
        shared class starts open, and open classes that no available class
        covers are closed until every open class is covered; it fails when
        a forced class is uncovered or no left class is available. Sets
        that give witnesses are closed under union, and closing a class
        only takes available classes away, so each of them stays within
        the result. No set of kept elements is enumerated."""
        lpos: dict = {}
        for i, a in enumerate(left):
            lpos.setdefault(a.alpha_class, []).append(i)
        rpos: dict = {}
        for j, b in enumerate(right):
            rpos.setdefault(b.alpha_class, []).append(j)

        def witness(opened):
            partner: dict[int, int] = {}
            for c, idx in lpos.items():
                js = rpos.get(c)
                if js:
                    k = min(len(idx), len(js)) - (c in opened)
                    partner.update(zip(js[:k], idx[:k]))
            kept = set(partner.values())
            equal = [(partner[j], j) for j in range(len(right)) if j in partner]
            removed = [i for i in range(len(left)) if i not in kept]
            return equal, removed, [j for j in range(len(right)) if j not in partner]

        spare = {c for c, idx in lpos.items() if len(idx) > len(rpos.get(c, ()))}
        if spare:
            yield witness(())
        else:
            for c in dict.fromkeys(a.alpha_class for a in reversed(left)):
                yield witness((c,))
        forced = [c for c, idx in rpos.items() if len(idx) > len(lpos.get(c, ()))]
        opened = [c for c in rpos if c in lpos]

        def covered(c) -> bool:
            if any(known.get((d, c)) for d in avail):
                return True
            for d in avail:
                if (d, c) not in known:
                    tr = self._pair(x, left[lpos[d][0]], right[rpos[c][0]], pair_kind)
                    known[d, c] = tr is not None
                    if tr is not None:
                        return True
            return False

        while True:
            avail = [c for c in lpos if c in spare or c in opened]
            if not avail:
                return
            if not all(covered(c) for c in forced):
                return
            still = [c for c in opened if covered(c)]
            if len(still) == len(opened):
                yield witness(opened)
                return
            opened = still

    def _lex_ext(self, x: XSet, s: Term, t: Term, pair_kind: str) -> Trace | None:
        # equivalent heads, so equal arities: one arity per precedence class
        left, right = ext_args(s), ext_args(t)
        for k, (a, b) in enumerate(zip(left, right)):
            if alpha_eq(a, b):
                continue
            tr = self._pair(x, a, b, pair_kind)
            if tr is None:
                return None
            return Trace("lexExt", s, t, x, (tr,), (("pos", k),))
        return None
