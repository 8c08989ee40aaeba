"""A termination-ordering toolkit for higher-order rewrite rules.

Terms are simply typed algebraic lambda-terms; the ordering is a recursive
path ordering extended with accessible subterms. The engine decides whether
a rule's left side dominates its right side and emits a proof trace that an
independent validator can replay.
"""
from .accessibility import AccTable, acc_ge, acc_gt, acc_indices
from .context import LEX, MUL, OrderingContext
from .engine import Engine, EngineError
from .problems import (
    Problem,
    ProblemError,
    Report,
    Rule,
    check_problem,
    parse_problem,
    print_problem,
    report_to_jsonable,
    report_to_text,
)
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
    alpha_eq,
    free_vars,
    substitute,
    term_str,
    ty_str,
    typecheck,
)
from .traces import Trace, TraceError, check_trace, trace_to_jsonable, trace_to_text
from .typeorder import (
    Cmp,
    QuasiOrder,
    SortOrder,
    minimal_types,
    ty_eq,
    ty_ge,
    ty_gt,
    type_universe,
    validate_axioms,
)

# The harness loads on first use, so a call that only decides rules skips it.
_HARNESS = (
    "GenConfig", "GenError", "beta_step", "enumerate_terms", "eta_step",
    "exhaustive_check", "gen_term", "run_properties", "search_params",
)


def __getattr__(name: str):
    if name in _HARNESS:
        from . import harness

        return getattr(harness, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = sorted([n for n in dir() if not n.startswith("_")] + ["harness", *_HARNESS])
__version__ = "0.1.0"
