r"""Problem files: parsing, validation, printing, and rule-check reports.

The concrete syntax is line-oriented with `;`-terminated statements and `#`
comments:

    sort Nat ;                  sort Pair / 2 ;
    order Nat < Ord ;           order A = B ;
    fun lim : [Nat -> Ord] -> Ord ;
    prec rec > lim ;            prec f = g ;
    status rec mul ;
    var F : Nat -> Ord ;
    rule rec(0,U,V,W) -> U ;

Terms: `x`, `f(t1,...,tn)`, `@(t,u,...)` (n-ary, desugared to left-nested
binary applications), `\x:T. t` (λ accepted as well). Types: `S`,
`S(T1,...,Tn)`, `T -> T` (right-associative), parentheses.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .context import LEX, MUL, OrderingContext
from .accessibility import APP_SYM
from .engine import Engine
from .terms import (
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
    free_vars,
    term_str,
    ty_str,
    typecheck,
)
from .traces import Trace, check_trace, trace_to_jsonable, trace_to_text
from .typeorder import SortOrder, ty_eq, validate_axioms


class ProblemError(Exception):
    """Positioned parse or validation error in a problem file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = ("->", "(", ")", "[", "]", ",", ";", ":", ".", "<", ">", "=", "\\", "/", "@")
_IDENT_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" or the punctuation itself
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "λ":
            tokens.append(Token("\\", "\\", line, col))
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            tokens.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "()[],;:.<>=\\/@":
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c in _IDENT_CHARS:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ProblemError("unexpected character %r" % c, line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ProblemError(
                "expected %r, found %r" % (kind, tok.text or "end of input"),
                tok.line,
                tok.col,
            )
        return tok

    def ident(self, what: str = "identifier") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ProblemError(
                "expected %s, found %r" % (what, tok.text or "end of input"),
                tok.line,
                tok.col,
            )
        return tok

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Ty:
        left = self.parse_atom_type()
        if self.peek().kind == "->":
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_atom_type(self) -> Ty:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        name = self.ident("sort name")
        args: list[Ty] = []
        if self.peek().kind == "(":
            self.next()
            args.append(self.parse_type())
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_type())
            self.expect(")")
        return Data(name.text, tuple(args))

    # -- terms -------------------------------------------------------------

    def parse_term(self, funs: set[str]) -> Term:
        tok = self.peek()
        if tok.kind == "\\":
            self.next()
            var = self.ident("bound variable")
            self.expect(":")
            ty = self.parse_type()
            self.expect(".")
            body = self.parse_term(funs)
            return Abs(var.text, ty, body)
        if tok.kind == "@":
            self.next()
            self.expect("(")
            args = [self.parse_term(funs)]
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_term(funs))
            self.expect(")")
            if len(args) < 2:
                raise ProblemError(
                    "application needs at least two arguments", tok.line, tok.col
                )
            out = args[0]
            for a in args[1:]:
                out = App(out, a)
            return out
        if tok.kind == "(":
            self.next()
            t = self.parse_term(funs)
            self.expect(")")
            return t
        name = self.ident("term")
        if self.peek().kind == "(":
            self.next()
            args = [self.parse_term(funs)]
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_term(funs))
            self.expect(")")
            if name.text not in funs:
                raise ProblemError(
                    "unknown function symbol %r" % name.text, name.line, name.col
                )
            return Fun(name.text, tuple(args))
        if name.text in funs:
            return Fun(name.text, ())
        return Var(name.text)


# ---------------------------------------------------------------------------
# Problem


@dataclass
class Rule:
    lhs: Term
    rhs: Term


@dataclass
class Problem:
    sig: Signature
    sort_order: SortOrder
    order_decls: tuple[tuple[str, str, str], ...]  # (kind "<"|"=", a, b)
    prec_strict: tuple[tuple[str, str], ...]
    prec_equiv: tuple[tuple[str, str], ...]
    statuses: dict[str, str]
    vars: dict[str, Ty]
    rules: list[Rule]
    ctx: OrderingContext = field(init=False)

    def __post_init__(self):
        self.ctx = OrderingContext.build(
            self.sig,
            self.sort_order,
            self.prec_strict,
            self.prec_equiv,
            self.statuses,
            extra_types=tuple(self.vars.values()),
        )


def parse_problem(text: str) -> Problem:
    p = _Parser(text)
    sorts: list[SortDecl] = []
    order_decls: list[tuple[str, str, str]] = []
    fun_decls: list[FunDecl] = []
    prec_strict: list[tuple[str, str]] = []
    prec_equiv: list[tuple[str, str]] = []
    statuses: dict[str, str] = {}
    var_env: dict[str, Ty] = {}
    raw_rules: list[tuple[Term, Term, Token]] = []

    while p.peek().kind != "eof":
        tok = p.ident("statement keyword")
        kw = tok.text
        if kw == "sort":
            name = p.ident("sort name")
            arity = 0
            if p.peek().kind == "/":
                p.next()
                num = p.ident("arity")
                if not num.text.isdigit():
                    raise ProblemError("arity must be a number", num.line, num.col)
                arity = int(num.text)
            sorts.append(SortDecl(name.text, arity))
        elif kw == "order":
            a = p.ident("sort name")
            rel = p.next()
            if rel.kind not in ("<", "="):
                raise ProblemError("expected '<' or '='", rel.line, rel.col)
            b = p.ident("sort name")
            order_decls.append((rel.kind, a.text, b.text))
        elif kw == "fun":
            name = p.ident("function symbol")
            p.expect(":")
            p.expect("[")
            arg_tys: list[Ty] = []
            if p.peek().kind != "]":
                arg_tys.append(p.parse_type())
                while p.peek().kind == ",":
                    p.next()
                    arg_tys.append(p.parse_type())
            p.expect("]")
            p.expect("->")
            out_ty = p.parse_type()
            fun_decls.append(FunDecl(name.text, tuple(arg_tys), out_ty))
        elif kw == "prec":
            a = p.ident("function symbol")
            rel = p.next()
            if rel.kind not in (">", "="):
                raise ProblemError("expected '>' or '='", rel.line, rel.col)
            b = p.next()
            if b.kind not in ("ident", "@"):
                raise ProblemError("expected a function symbol", b.line, b.col)
            pair = (a.text, b.text if b.kind == "ident" else APP_SYM)
            if rel.kind == ">":
                prec_strict.append(pair)
            else:
                prec_equiv.append(pair)
        elif kw == "status":
            name = p.ident("function symbol")
            st = p.ident("status")
            if st.text not in (MUL, LEX):
                raise ProblemError("status must be 'mul' or 'lex'", st.line, st.col)
            statuses[name.text] = st.text
        elif kw == "var":
            name = p.ident("variable name")
            p.expect(":")
            var_env[name.text] = p.parse_type()
        elif kw == "rule":
            fun_names = {f.name for f in fun_decls}
            lhs = p.parse_term(fun_names)
            p.expect("->")
            rhs = p.parse_term(fun_names)
            raw_rules.append((lhs, rhs, tok))
        else:
            raise ProblemError("unknown statement %r" % kw, tok.line, tok.col)
        p.expect(";")

    try:
        sig = Signature(tuple(sorts), tuple(fun_decls))
    except TypingError as exc:
        raise ProblemError(str(exc)) from exc
    declared_sorts = {s.name for s in sorts}
    for kind, a, b in order_decls:
        for name in (a, b):
            if name not in declared_sorts:
                raise ProblemError("undeclared sort %r in order declaration" % name)
    sort_order = SortOrder(
        sorted(declared_sorts),
        tuple((b, a) for kind, a, b in order_decls if kind == "<"),
        tuple((a, b) for kind, a, b in order_decls if kind == "="),
    )
    fun_names = {f.name for f in fun_decls}
    for a, b in prec_strict + prec_equiv:
        if a not in fun_names or (b not in fun_names and b != APP_SYM):
            raise ProblemError("undeclared symbol in precedence: %s, %s" % (a, b))
    for a, b in prec_equiv:
        if b == APP_SYM:
            raise ProblemError("no symbol may be equivalent to @ in the precedence")
    for name in statuses:
        if name not in fun_names:
            raise ProblemError("status for undeclared symbol %r" % name)
    for name, ty in var_env.items():
        if name in fun_names:
            raise ProblemError("variable %r clashes with a function symbol" % name)
        try:
            sig.check_type(ty)
        except TypingError as exc:
            raise ProblemError(str(exc)) from exc

    rules: list[Rule] = []
    for lhs, rhs, tok in raw_rules:
        try:
            lhs_t = typecheck(sig, var_env, lhs)
            rhs_t = typecheck(sig, var_env, rhs)
        except TypingError as exc:
            raise ProblemError(str(exc), tok.line, tok.col) from exc
        if not free_vars(rhs_t) <= free_vars(lhs_t):
            extra = sorted(free_vars(rhs_t) - free_vars(lhs_t))
            raise ProblemError(
                "rule violates Var(r) <= Var(l): right side introduces %s"
                % ", ".join(extra),
                tok.line,
                tok.col,
            )
        if not ty_eq(sort_order, lhs_t.ty, rhs_t.ty):
            raise ProblemError(
                "rule sides have different types: %s vs %s"
                % (ty_str(lhs_t.ty), ty_str(rhs_t.ty)),
                tok.line,
                tok.col,
            )
        rules.append(Rule(lhs_t, rhs_t))

    problem = Problem(
        sig=sig,
        sort_order=sort_order,
        order_decls=tuple(order_decls),
        prec_strict=tuple(prec_strict),
        prec_equiv=tuple(prec_equiv),
        statuses=dict(statuses),
        vars=dict(var_env),
        rules=rules,
    )
    _validate_prec_classes(problem)
    return problem


def _validate_prec_classes(problem: Problem) -> None:
    """Symbols equivalent in the precedence must share arity and status."""
    prec = problem.ctx.prec
    if not prec.is_well_founded():
        raise ProblemError("precedence contains a cycle")
    by_rep: dict[str, list[str]] = {}
    for f in problem.sig.funs:
        by_rep.setdefault(prec.rep(f.name), []).append(f.name)
    for members in by_rep.values():
        decls = [problem.sig.fun(m) for m in members]
        if len({d.arity for d in decls}) > 1:
            raise ProblemError(
                "equivalent symbols with different arities: %s" % ", ".join(members)
            )
        if len({problem.ctx.statuses[m] for m in members}) > 1:
            raise ProblemError(
                "equivalent symbols with different statuses: %s" % ", ".join(members)
            )


def print_problem(problem: Problem) -> str:
    """Canonical text form; parses back to an identical problem."""
    lines: list[str] = []
    for s in problem.sig.sorts:
        lines.append(
            "sort %s ;" % s.name if s.arity == 0 else "sort %s / %d ;" % (s.name, s.arity)
        )
    for kind, a, b in problem.order_decls:
        lines.append("order %s %s %s ;" % (a, kind, b))
    for f in problem.sig.funs:
        lines.append(
            "fun %s : [%s] -> %s ;"
            % (f.name, ", ".join(ty_str(t) for t in f.arg_tys), ty_str(f.out_ty))
        )
    for a, b in problem.prec_strict:
        lines.append("prec %s > %s ;" % (a, b))
    for a, b in problem.prec_equiv:
        lines.append("prec %s = %s ;" % (a, b))
    for name in sorted(problem.statuses):
        lines.append("status %s %s ;" % (name, problem.statuses[name]))
    for name, ty in problem.vars.items():
        lines.append("var %s : %s ;" % (name, ty_str(ty)))
    for rule in problem.rules:
        lines.append("rule %s -> %s ;" % (term_str(rule.lhs), term_str(rule.rhs)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reports


@dataclass
class RuleResult:
    index: int
    verdict: str  # oriented | not-oriented
    trace: Trace | None


@dataclass
class Report:
    axiom_violations: list[str]
    rule_results: list[RuleResult]

    @property
    def ok(self) -> bool:
        return not self.axiom_violations and all(
            r.verdict == "oriented" for r in self.rule_results
        )


def check_problem(problem: Problem, with_traces: bool = True) -> Report:
    violations = validate_axioms(problem.ctx.sort_order, problem.ctx.universe)
    results: list[RuleResult] = []
    for i, rule in enumerate(problem.rules, start=1):
        trace = Engine(problem.ctx).orient_rule(rule.lhs, rule.rhs)
        results.append(
            RuleResult(
                index=i,
                verdict="oriented" if trace is not None else "not-oriented",
                trace=trace if with_traces else None,
            )
        )
    return Report(axiom_violations=violations, rule_results=results)


def report_to_jsonable(problem: Problem, report: Report, with_traces: bool) -> dict:
    return {
        "axioms": list(report.axiom_violations),
        "rules": [
            {
                "index": r.index,
                "lhs": term_str(problem.rules[r.index - 1].lhs),
                "rhs": term_str(problem.rules[r.index - 1].rhs),
                "verdict": r.verdict,
                **(
                    {"trace": trace_to_jsonable(r.trace)}
                    if with_traces and r.trace is not None
                    else {}
                ),
            }
            for r in report.rule_results
        ],
        "status": "success" if report.ok else "failure",
    }


def report_to_text(problem: Problem, report: Report, with_traces: bool) -> str:
    lines: list[str] = []
    for v in report.axiom_violations:
        lines.append("axiom violation: %s" % v)
    for r in report.rule_results:
        rule = problem.rules[r.index - 1]
        lines.append(
            "rule %d: %s -> %s : %s"
            % (r.index, term_str(rule.lhs), term_str(rule.rhs), r.verdict)
        )
        if with_traces and r.trace is not None:
            lines.append(trace_to_text(r.trace, indent=1))
    lines.append("status: %s" % ("success" if report.ok else "failure"))
    return "\n".join(lines) + "\n"


def verify_report_traces(problem: Problem, report: Report) -> None:
    """Replay every emitted trace through the independent validator."""
    for r in report.rule_results:
        if r.trace is not None:
            check_trace(problem.ctx, r.trace, "gt", ())


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
