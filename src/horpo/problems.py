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
import re
from functools import partial
from json.encoder import encode_basestring_ascii as _json_str

from .context import LEX, MUL, OrderingContext
from .engine import Engine
from .terms import (
    Abs,
    App,
    Arrow,
    Data,
    Fun,
    FunDecl,
    Record,
    Signature,
    SortDecl,
    Term,
    Ty,
    Var,
    free_vars,
    term_str,
    ty_str,
)
from .traces import Trace, check_trace, trace_to_jsonable
from .typeorder import SortOrder, ty_eq, validate_axioms


class ProblemError(Exception):
    """Positioned parse or validation error in a problem file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Tokenizer

# One alternative per token kind, tried in this order at each position.
_TOKEN = re.compile(
    r"""(?P<newline>\n)
      | (?P<space>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<ident>[A-Za-z0-9_']+)
      | (?P<punct>->|[()\[\],;:.<>=\\/@λ])
      | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


_set = object.__setattr__


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        _set(self, "kind", kind)  # "ident" or the punctuation itself
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "col", col)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # start: the offset of the line's first character
    for m in _TOKEN.finditer(text):
        kind, lexeme, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ProblemError("unexpected character %r" % lexeme, line, col)
        elif kind == "ident":
            tokens.append(Token("ident", lexeme, line, col))
        elif kind == "punct":  # punctuation is its own kind; λ means \
            lexeme = "\\" if lexeme == "λ" else lexeme
            tokens.append(Token(lexeme, lexeme, line, col))
    # a comment moves no column: end of input after one is placed at its '#'
    end = text.find("#", start)
    tokens.append(Token("eof", "", line, (len(text) if end < 0 else end) - start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # one object per distinct type of the problem
        self.types: dict[Ty, Ty] = {}
        # the function symbols declared so far
        self.funs: dict[str, FunDecl] = {}
        # each sort named in a type, with its number of arguments, and each
        # variable declared or bound, with what it is: both are checked once
        # every statement is read
        self.sorts_named: list[tuple[Token, int]] = []
        self.var_names: list[tuple[Token, str]] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ProblemError(
                "expected %s, found %r" % (what or repr(kind), found), tok.line, tok.col
            )
        return tok

    def ident(self, what: str) -> Token:
        return self.expect("ident", what)

    def items(self, parse, close: str) -> list:
        """One or more `parse`d items separated by commas, then `close`."""
        out = [parse()]
        while self.peek().kind == ",":
            self.next()
            out.append(parse())
        self.expect(close)
        return out

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Ty:
        left = self.parse_atom_type()
        if self.peek().kind == "->":
            self.next()
            ty = Arrow(left, self.parse_type())
            return self.types.setdefault(ty, ty)
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
            args = self.items(self.parse_type, ")")
        self.sorts_named.append((name, len(args)))
        ty = Data(name.text, tuple(args))
        return self.types.setdefault(ty, ty)

    # -- terms -------------------------------------------------------------

    def parse_term(self, env: dict[str, Ty]) -> Term:
        """A term typed under `env`, which maps each variable in scope to its
        type. Each node is typed as it is built, and a typing error names
        the node's own token."""
        tok = self.peek()
        if tok.kind == "\\":
            self.next()
            var = self.ident("bound variable")
            self.var_names.append((var, "bound variable"))
            self.expect(":")
            ty = self.parse_type()
            self.expect(".")
            body = self.parse_term({**env, var.text: ty})
            arrow = Arrow(ty, body.ty)
            return Abs(var.text, ty, body, self.types.setdefault(arrow, arrow))
        if tok.kind == "@":
            self.next()
            self.expect("(")
            # partial, not a lambda, which would add a frame per nesting level
            args = self.items(partial(self.parse_term, env), ")")
            if len(args) < 2:
                raise ProblemError(
                    "application needs at least two arguments", tok.line, tok.col
                )
            out = args[0]
            for a in args[1:]:
                if not isinstance(out.ty, Arrow):
                    message = "cannot apply term of type %s" % ty_str(out.ty)
                    raise ProblemError(message, tok.line, tok.col)
                if out.ty.dom != a.ty:
                    raise ProblemError(
                        "application domain mismatch: %s vs %s"
                        % (ty_str(out.ty.dom), ty_str(a.ty)),
                        tok.line,
                        tok.col,
                    )
                out = App(out, a, out.ty.cod)
            return out
        if tok.kind == "(":
            self.next()
            t = self.parse_term(env)
            self.expect(")")
            return t
        name = self.ident("term")
        applied = self.peek().kind == "("
        # a name in scope is a variable; one that is also a symbol's name is
        # rejected once every symbol is known
        ty = None if applied else env.get(name.text)
        if ty is not None:
            return Var(name.text, ty)
        decl = self.funs.get(name.text)
        if decl is None:
            what = "unknown function symbol" if applied else "unbound variable"
            raise ProblemError("%s %r" % (what, name.text), name.line, name.col)
        args: tuple[Term, ...] = ()
        if applied:
            self.next()
            args = tuple(self.items(partial(self.parse_term, env), ")"))
        if len(args) != decl.arity:
            raise ProblemError(
                "symbol %r expects %d argument(s), got %d"
                % (name.text, decl.arity, len(args)),
                name.line,
                name.col,
            )
        for i, (a, want) in enumerate(zip(args, decl.arg_tys)):
            if a.ty != want:
                raise ProblemError(
                    "argument %d of %r has type %s, expected %s"
                    % (i + 1, name.text, ty_str(a.ty), ty_str(want)),
                    name.line,
                    name.col,
                )
        return Fun(name.text, args, decl.out_ty)


# ---------------------------------------------------------------------------
# Problem


class Rule:
    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = lhs
        self.rhs = rhs


class Problem:
    def __init__(
        self, sig: Signature, sort_order: SortOrder,
        prec_strict: tuple[tuple[str, str], ...],
        prec_equiv: tuple[tuple[str, str], ...],
        statuses: dict[str, str], vars: dict[str, Ty], rules: list[Rule],
    ):
        self.sig = sig
        self.sort_order = sort_order
        self.prec_strict = prec_strict
        self.prec_equiv = prec_equiv
        self.statuses = statuses
        self.vars = vars
        self.rules = rules
        self.ctx = OrderingContext.build(
            sig, sort_order, prec_strict, prec_equiv, statuses, tuple(vars.values())
        )


def parse_problem(text: str) -> Problem:
    p = _Parser(text)
    sorts: dict[str, SortDecl] = {}
    order_decls: list[tuple[str, str, str]] = []
    # each name in an order, prec or status statement, the table that
    # must declare it, and the message if it does not
    names: list[tuple[Token, dict, str]] = []
    prec_strict: list[tuple[str, str]] = []
    prec_equiv: list[tuple[str, str]] = []
    statuses: dict[str, str] = {}
    var_env: dict[str, Ty] = {}
    typed_rules: list[tuple[Term, Term, Token]] = []

    while p.peek().kind != "eof":
        tok = p.ident("statement keyword")
        kw = tok.text
        if kw == "sort":
            name = p.ident("sort name")
            if name.text in sorts:
                raise ProblemError("duplicate sort %r" % name.text, name.line, name.col)
            arity = 0
            if p.peek().kind == "/":
                p.next()
                num = p.ident("arity")
                if not num.text.isdigit():
                    raise ProblemError("arity must be a number", num.line, num.col)
                arity = int(num.text)
            sorts[name.text] = SortDecl(name.text, arity)
        elif kw == "order":
            a = p.ident("sort name")
            rel = p.next()
            if rel.kind not in ("<", "="):
                raise ProblemError("expected '<' or '='", rel.line, rel.col)
            b = p.ident("sort name")
            order_decls.append((rel.kind, a.text, b.text))
            message = "undeclared sort %r in order declaration"
            names += [(a, sorts, message), (b, sorts, message)]
        elif kw == "fun":
            name = p.ident("function symbol")
            if name.text in p.funs:
                message = "duplicate function symbol %r" % name.text
                raise ProblemError(message, name.line, name.col)
            p.expect(":")
            p.expect("[")
            if p.peek().kind == "]":
                p.next()
                arg_tys = []
            else:
                arg_tys = p.items(p.parse_type, "]")
            p.expect("->")
            out_ty = p.parse_type()
            p.funs[name.text] = FunDecl(name.text, tuple(arg_tys), out_ty)
        elif kw == "prec":
            a = p.ident("function symbol")
            rel = p.next()
            if rel.kind not in (">", "="):
                raise ProblemError("expected '>' or '='", rel.line, rel.col)
            b = p.next()
            if b.kind not in ("ident", "@"):
                raise ProblemError("expected a function symbol", b.line, b.col)
            if b.kind == "@" and rel.kind == "=":
                message = "no symbol may be equivalent to @ in the precedence"
                raise ProblemError(message, b.line, b.col)
            for name in (a, b) if b.kind == "ident" else (a,):
                names.append((name, p.funs, "undeclared symbol in precedence: %s"))
            # `f > @` records nothing: case 1c puts every symbol above `@`
            if b.kind == "ident":
                pairs = prec_strict if rel.kind == ">" else prec_equiv
                pairs.append((a.text, b.text))
        elif kw == "status":
            name = p.ident("function symbol")
            st = p.ident("status")
            if st.text not in (MUL, LEX):
                raise ProblemError("status must be 'mul' or 'lex'", st.line, st.col)
            if name.text in statuses:
                message = "duplicate status for symbol %r" % name.text
                raise ProblemError(message, name.line, name.col)
            statuses[name.text] = st.text
            names.append((name, p.funs, "status for undeclared symbol %r"))
        elif kw == "var":
            name = p.ident("variable name")
            if name.text in var_env:
                message = "duplicate variable %r" % name.text
                raise ProblemError(message, name.line, name.col)
            p.var_names.append((name, "variable"))
            p.expect(":")
            var_env[name.text] = p.parse_type()
        elif kw == "rule":
            lhs = p.parse_term(var_env)
            p.expect("->")
            rhs = p.parse_term(var_env)
            typed_rules.append((lhs, rhs, tok))
        else:
            raise ProblemError("unknown statement %r" % kw, tok.line, tok.col)
        p.expect(";")

    for name, nargs in p.sorts_named:
        if name.text not in sorts:
            raise ProblemError("undeclared sort %r" % name.text, name.line, name.col)
        arity = sorts[name.text].arity
        if nargs != arity:
            message = "sort %r expects %d argument(s), got %d"
            raise ProblemError(message % (name.text, arity, nargs), name.line, name.col)
    sig = Signature(tuple(sorts.values()), tuple(p.funs.values()))
    for name, table, message in names:
        if name.text not in table:
            raise ProblemError(message % name.text, name.line, name.col)
    for name, what in p.var_names:
        if name.text in p.funs:
            message = "%s %r clashes with a function symbol" % (what, name.text)
            raise ProblemError(message, name.line, name.col)
    sort_order = SortOrder(
        sorted(sorts),
        tuple((b, a) for kind, a, b in order_decls if kind == "<"),
        tuple((a, b) for kind, a, b in order_decls if kind == "="),
    )

    rules: list[Rule] = []
    for lhs, rhs, tok in typed_rules:
        if not free_vars(rhs) <= free_vars(lhs):
            extra = sorted(free_vars(rhs) - free_vars(lhs))
            raise ProblemError(
                "rule violates Var(r) <= Var(l): right side introduces %s"
                % ", ".join(extra),
                tok.line,
                tok.col,
            )
        if not ty_eq(sort_order, lhs.ty, rhs.ty):
            raise ProblemError(
                "rule sides have different types: %s vs %s"
                % (ty_str(lhs.ty), ty_str(rhs.ty)),
                tok.line,
                tok.col,
            )
        rules.append(Rule(lhs, rhs))

    problem = Problem(
        sig=sig,
        sort_order=sort_order,
        prec_strict=tuple(prec_strict),
        prec_equiv=tuple(prec_equiv),
        statuses=dict(statuses),
        vars=dict(var_env),
        rules=rules,
    )
    if not problem.ctx.prec.is_well_founded():
        raise ProblemError("precedence contains a cycle")
    error = problem.ctx.prec_class_error()
    if error is not None:
        raise ProblemError(error)
    return problem


def print_problem(problem: Problem) -> str:
    """Canonical text form; parses back to an identical problem."""
    lines: list[str] = []
    for s in problem.sig.sorts:
        lines.append(
            "sort %s ;" % s.name if s.arity == 0 else "sort %s / %d ;" % (s.name, s.arity)
        )
    for f in problem.sig.funs:
        lines.append(
            "fun %s : [%s] -> %s ;"
            % (f.name, ", ".join(ty_str(t) for t in f.arg_tys), ty_str(f.out_ty))
        )
    lines += parameter_statements(
        (problem.sort_order.strict_pairs, problem.sort_order.equiv_pairs),
        (problem.prec_strict, problem.prec_equiv),
        problem.statuses,
    )
    for name, ty in problem.vars.items():
        lines.append("var %s : %s ;" % (name, ty_str(ty)))
    for rule in problem.rules:
        lines.append("rule %s -> %s ;" % (term_str(rule.lhs), term_str(rule.rhs)))
    return "\n".join(lines) + "\n"


def parameter_statements(sort_order, precedence, statuses) -> list[str]:
    """The `order`, `prec` and `status` statements stating the parameters
    (sort_strict, sort_equiv), (prec_strict, prec_equiv), statuses, where a
    strict pair (a, b) means a > b."""
    (sort_strict, sort_equiv), (prec_strict, prec_equiv) = sort_order, precedence
    return (
        ["order %s < %s ;" % (b, a) for a, b in sort_strict]
        + ["order %s = %s ;" % pair for pair in sort_equiv]
        + ["prec %s > %s ;" % pair for pair in prec_strict]
        + ["prec %s = %s ;" % pair for pair in prec_equiv]
        + ["status %s %s ;" % (name, statuses[name]) for name in sorted(statuses)]
    )


# ---------------------------------------------------------------------------
# Reports


class RuleResult:
    def __init__(self, index: int, verdict: str, trace: Trace | None):
        self.index = index
        self.verdict = verdict  # oriented | not-oriented
        self.trace = trace


class Report:
    def __init__(self, axiom_violations: list[str], rule_results: list[RuleResult]):
        self.axiom_violations = axiom_violations
        self.rule_results = rule_results

    @property
    def ok(self) -> bool:
        return not self.axiom_violations and all(
            r.verdict == "oriented" for r in self.rule_results
        )


def orient(ctx: OrderingContext, rule: Rule) -> Trace | None:
    """Orient `rule` with a fresh engine and replay the trace through the
    independent validator before returning it. None means the rule is not
    oriented; a trace that fails replay raises TraceError."""
    trace = Engine(ctx).orient_rule(rule.lhs, rule.rhs)
    if trace is not None:
        check_trace(ctx, trace, "gt", ())
    return trace


def check_problem(problem: Problem) -> Report:
    """Validate the type-order axioms and orient every rule. Every trace in
    the report has been replayed; one that fails replay raises TraceError."""
    violations = validate_axioms(problem.ctx.sort_order, problem.ctx.universe)
    results: list[RuleResult] = []
    for i, rule in enumerate(problem.rules, start=1):
        trace = orient(problem.ctx, rule)
        verdict = "oriented" if trace is not None else "not-oriented"
        results.append(RuleResult(index=i, verdict=verdict, trace=trace))
    return Report(axiom_violations=violations, rule_results=results)


def rule_entry(
    problem: Problem, index: int, verdict: str, trace: Trace | None = None
) -> dict:
    """The JSON entry of rule `index` (1-based) with its verdict, and its
    trace when one is given: `check` reports one per rule, and `trace` one
    for a rule it cannot orient."""
    rule = problem.rules[index - 1]
    lhs, rhs = term_str(rule.lhs), term_str(rule.rhs)
    entry = {"index": index, "lhs": lhs, "rhs": rhs, "verdict": verdict}
    if trace is not None:
        entry["trace"] = trace_to_jsonable(trace)
    return entry


def rule_line(entry: dict) -> str:
    """The text line of a `rule_entry`, without its trace."""
    return "rule %(index)d: %(lhs)s -> %(rhs)s : %(verdict)s" % entry


def report_to_jsonable(problem: Problem, report: Report, with_traces: bool) -> dict:
    return {
        "axioms": list(report.axiom_violations),
        "rules": [
            rule_entry(problem, r.index, r.verdict, r.trace if with_traces else None)
            for r in report.rule_results
        ],
        "status": "success" if report.ok else "failure",
    }


def report_to_text(problem: Problem, report: Report) -> str:
    lines: list[str] = []
    for v in report.axiom_violations:
        lines.append("axiom violation: %s" % v)
    for r in report.rule_results:
        lines.append(rule_line(rule_entry(problem, r.index, r.verdict)))
    lines.append("status: %s" % ("success" if report.ok else "failure"))
    return "\n".join(lines) + "\n"


def dump_json(obj: dict) -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, in time
    linear in the distinct containers of `obj` at each depth plus copying
    the output.

    `obj` is acyclic and its keys are str. A dict or list reached more than
    once by identity (a shared subtrace from `trace_to_jsonable`) is
    rendered once per indentation depth it occurs at, straight at that
    depth, and its text is reused at each of its positions there."""
    refs: dict[int, int] = {}
    stack = [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, (dict, list, tuple)):
            seen = refs.get(id(o), 0)
            refs[id(o)] = seen + 1
            if not seen:
                stack.extend(o.values() if isinstance(o, dict) else o)
    out: list[str] = []
    if isinstance(obj, (dict, list, tuple)) and obj:
        _encode(obj, "\n", out, refs, {})
    else:
        out.append(json.dumps(obj))
    out.append("\n")
    return "".join(out)


def _encode(
    o: dict | list | tuple,
    nl: str,
    out: list[str],
    refs: dict[int, int],
    texts: dict[tuple[int, int], str],
) -> None:
    """Append the indented text of the non-empty container `o` to `out`.
    `nl` is a line break followed by the indentation of the line `o` starts
    on; `texts` holds, by identity and indentation, the text of each shared
    container rendered so far."""
    inner = nl + "  "
    is_dict = isinstance(o, dict)
    out.append("{" if is_dict else "[")
    sep = inner
    for item in sorted(o.items()) if is_dict else o:
        out.append(sep)
        sep = "," + inner
        if is_dict:
            key, v = item
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            out.append(_json_str(key))
            out.append(": ")
        else:
            v = item
        if isinstance(v, str):
            out.append(_json_str(v))
        elif not (isinstance(v, (dict, list, tuple)) and v):
            out.append(json.dumps(v))
        elif refs[id(v)] == 1:
            _encode(v, inner, out, refs, texts)
        else:
            text = texts.get((id(v), len(inner)))
            if text is None:
                buf: list[str] = []
                _encode(v, inner, buf, refs, texts)
                text = texts[id(v), len(inner)] = "".join(buf)
            out.append(text)
    out.append(nl)
    out.append("}" if is_dict else "]")
