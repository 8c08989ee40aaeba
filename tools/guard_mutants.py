"""Guard-deletion mutants of the engine, the accessibility layer, the type
order, the harness, the parser and the replay checker's bound-variable
tests, and cache mutants of the term layer and the text writer, run
against tier-1.

Each mutant is one exact replacement in one file of `src/horpo`. Most turn
a guard condition (a test whose truth rejects a goal, a candidate or an
input) into `False`, or a check call into `pass`, so the guard never
fires; the rest make a cache answer for keys it was not built for, or
never answer. For each mutant, in turn, the script writes the mutated
file into a temporary copy of the checkout, runs tier-1 there with `-x`,
and prints the first failing test; a run that exceeds the timeout is
reported as `timeout`, since no test was seen to fail. Then it restores
the file. The mutants of `traces.py` (the replay checker and the text
writer) run against the acceptance tests and `tests/test_traces.py` only:
tier-1 reaches that file last, and running all of it for each of them
takes the whole run past ten minutes on a 2-core box.

Exit status: 0 when every mutant is killed, 1 when one survives or times
out, or when a replacement no longer matches its file exactly once. Run
from anywhere, with the interpreter that runs tier-1:

    python tools/guard_mutants.py

A survivor is either an equivalent mutant, whose guard can be deleted,
or a guard that no test exercises, which needs a test.
"""
from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
CHECKER_TESTS = ["tests/test_acceptance.py", "tests/test_traces.py"]

ENGINE = "src/horpo/engine.py"
ACC = "src/horpo/accessibility.py"
TYPES = "src/horpo/typeorder.py"
HARNESS = "src/horpo/harness.py"
PARSER = "src/horpo/problems.py"
TERMS = "src/horpo/terms.py"
TRACES = "src/horpo/traces.py"

# name -> (file, old text, new text); old text occurs once in its file
MUTANTS = {
    "gt_type gate": (
        ENGINE,
        "        if not ty_ge(self.ctx.sort_order, s.ty, t.ty):\n",
        "        if False:\n",
    ),
    "rule type gate": (
        ENGINE,
        "        if not ty_ge(self.ctx.sort_order, lhs.ty, rhs.ty):\n",
        "        if False:\n",
    ),
    "variable left side": (
        ENGINE,
        "        if isinstance(s, Var):\n            return None\n",
        "        if False:\n            return None\n",
    ),
    # the witness cut is sound only after a failed goal on an algebraic base
    "witness cut on any answer": (
        ENGINE,
        "        if isinstance(base, Fun) and key in self.memo and self.memo[key] is None:\n",
        "        if isinstance(base, Fun) and key in self.memo:\n",
    ),
    "witness cut on any base": (
        ENGINE,
        "        if isinstance(base, Fun) and key in self.memo and self.memo[key] is None:\n",
        "        if key in self.memo and self.memo[key] is None:\n",
    ),
    "1b head": (
        ENGINE,
        "        if not isinstance(t, Fun):\n",
        "        if False:\n",
    ),
    "1b precedence": (
        ENGINE,
        "        if self.ctx.prec.cmp(s.sym, t.sym) is not Cmp.EQ:\n",
        "        if False:\n",
    ),
    "1b argument": (
        ENGINE,
        "            tr = self.gt(x, s, tj)\n            if tr is None:\n"
        "                return None\n",
        "            tr = self.gt(x, s, tj)\n            if False:\n"
        "                return None\n",
    ),
    "1b extension": (
        ENGINE,
        "(x, s, t, \"union\")\n        if ext is None:\n",
        "(x, s, t, \"union\")\n        if False:\n",
    ),
    "1c precedence": (
        ENGINE,
        "            if self.ctx.prec.cmp(s.sym, t.sym) is not Cmp.GT:\n",
        "            if False:\n",
    ),
    "1c argument": (
        ENGINE,
        "                if tr is None:\n                    break\n",
        "                if False:\n                    break\n",
    ),
    "2b head": (
        ENGINE,
        "        if not isinstance(t, App):\n",
        "        if False:\n",
    ),
    "2b extension": (
        ENGINE,
        "(x, s, t, \"type_x\")\n        if ext is None:\n",
        "(x, s, t, \"type_x\")\n        if False:\n",
    ),
    "2c redex": (
        ENGINE,
        "        reduct = beta_reduct(s)\n        if reduct is None:\n",
        "        reduct = beta_reduct(s)\n        if False:\n",
    ),
    "3b head": (
        ENGINE,
        "    def _case_3b(self, x: XSet, s: Term, t: Term) -> Trace | None:\n"
        "        if not isinstance(t, Abs):\n",
        "    def _case_3b(self, x: XSet, s: Term, t: Term) -> Trace | None:\n"
        "        if False:\n",
    ),
    "3b binder types": (
        ENGINE,
        "        if not ty_eq(self.ctx.sort_order, s.var_ty, t.var_ty):\n",
        "        if False:\n",
    ),
    "3c redex": (
        ENGINE,
        "        reduct = eta_reduct(s)\n        if reduct is None:\n",
        "        reduct = eta_reduct(s)\n        if False:\n",
    ),
    "4b head": (
        ENGINE,
        "    def _case_4b(self, x: XSet, s: Term, t: Term) -> Trace | None:\n"
        "        if not isinstance(t, Abs):\n",
        "    def _case_4b(self, x: XSet, s: Term, t: Term) -> Trace | None:\n"
        "        if False:\n",
    ),
    "vector over a non-arrow": (
        ENGINE,
        "                if not isinstance(ty, Arrow):\n",
        "                if False:\n",
    ),
    # the multiset fixpoint re-checks its answer when it builds the
    # witness, so a forced class left uncovered only costs pair goals
    "multiset forced class": (
        ENGINE,
        "            if not all(covered(c) for c in forced):\n",
        "            if False:\n",
    ),
    "multiset closing": (
        ENGINE,
        "            still = [c for c in opened if covered(c)]\n",
        "            still = opened\n",
    ),
    "multiset no left available": (
        ENGINE,
        "            if not avail:\n",
        "            if False:\n",
    ),
    "multiset uncovered right": (
        ENGINE,
        "                else:\n                    break\n",
        "                else:\n                    pass\n",
    ),
    "lex equal prefix": (
        ENGINE,
        "            if alpha_eq(a, b):\n                continue\n",
        "            if False:\n                continue\n",
    ),
    "non-data output": (
        ACC,
        "    if not isinstance(out, Data):\n",
        "    if False:\n",
    ),
    "output not only positive": (
        ACC,
        "                    not occurs_only(order, dt, arg_ty, True)\n",
        "                    False\n",
    ),
    "output also negative": (
        ACC,
        "                    or occurs_only(order, dt, arg_ty, False)\n",
        "                    or False\n",
    ),
    "polarity of a non-data type": (
        TYPES,
        "    if not isinstance(sigma, Data):\n",
        "    if False:\n",
    ),
    "sort order cycle": (
        TYPES,
        "    if not order.is_well_founded():\n",
        "    if False:\n",
    ),
    "type cycle": (
        TYPES,
        "        if (i, i) in reach:\n",
        "        if False:\n",
    ),
    "monotonicity premise": (
        TYPES,
        "                if not ty_ge(order, tau, sigma):\n",
        "                if False:\n",
    ),
    "monotonicity violation": (
        TYPES,
        "                if not ty_ge(order, left, right):\n",
        "                if False:\n",
    ),
    # `_shrink`'s `sub.size <= 1` guard has no mutant: without it the shrink
    # loop never ends, and only the timeout would kill it
    "no term built": (
        HARNESS,
        "    if t is None:\n        raise GenError(",
        "    if False:\n        raise GenError(",
    ),
    "generated argument": (
        HARNESS,
        "                if a is None:\n",
        "                if False:\n",
    ),
    "class arity and status": (
        HARNESS,
        "            if not fresh and held[level] != kinds[i]:\n",
        "            if False:\n",
    ),
    "walk fills every level": (
        HARNESS,
        "            if empty - fresh > n - i - 1:\n",
        "            if False:\n",
    ),
    "search sort order axioms": (
        HARNESS,
        "        if validate_axioms(order, problem.ctx.universe):\n",
        "        if False:\n",
    ),
    "termination probe": (
        HARNESS,
        "        TopologicalSorter(gt).prepare()\n",
        "        pass\n",
    ),
    "duplicate sort": (
        PARSER,
        "            if name.text in sorts:\n",
        "            if False:\n",
    ),
    "duplicate function symbol": (
        PARSER,
        "            if name.text in p.funs:\n",
        "            if False:\n",
    ),
    "duplicate status": (
        PARSER,
        "            if name.text in statuses:\n",
        "            if False:\n",
    ),
    "unbound variable": (
        PARSER,
        "        if decl is None:\n",
        "        if False:\n",
    ),
    "symbol arity": (
        PARSER,
        "        if len(args) != decl.arity:\n",
        "        if False:\n",
    ),
    "argument type": (
        PARSER,
        "            if a.ty != want:\n",
        "            if False:\n",
    ),
    "apply a non-arrow": (
        PARSER,
        "                if not isinstance(out.ty, Arrow):\n",
        "                if False:\n",
    ),
    "application domain": (
        PARSER,
        "                if out.ty.dom != a.ty:\n",
        "                if False:\n",
    ),
    "variable clash": (
        PARSER,
        "    for name, what in p.var_names:\n        if name.text in p.funs:\n",
        "    for name, what in p.var_names:\n        if False:\n",
    ),
    "undeclared sort": (
        PARSER,
        "        if name.text not in sorts:\n",
        "        if False:\n",
    ),
    "sort arguments": (
        PARSER,
        "        if nargs != arity:\n",
        "        if False:\n",
    ),
    "undeclared name": (
        PARSER,
        "        if name.text not in table:\n",
        "        if False:\n",
    ),
    # the replay checker's tests on bound variables (the set X)
    "node X": (
        TRACES,
        "    if tuple(node.x) != x:\n",
        "    if False:\n",
    ),
    "4a freed variable": (
        TRACES,
        "        if not (isinstance(t, Var) and t.name in dict(x)):\n",
        "        if False:\n",
    ),
    "4b abstraction on the left": (
        TRACES,
        "    if isinstance(s, Abs):\n        raise TraceError(\"case 4b forbids",
        "    if False:\n        raise TraceError(\"case 4b forbids",
    ),
    "4b abstraction on the right": (
        TRACES,
        "    if not isinstance(t, Abs):\n        raise TraceError(\"case 4b needs",
        "    if False:\n        raise TraceError(\"case 4b needs",
    ),
    "3b domain types": (
        TRACES,
        "        if not ty_eq(ctx.sort_order, s.var_ty, t.var_ty):\n",
        "        if False:\n",
    ),
    "fresh name missing": (
        TRACES,
        "    if not isinstance(z, str) or not z:\n",
        "    if False:\n",
    ),
    "fresh name in X": (
        TRACES,
        "    if z in dict(x):\n",
        "    if False:\n",
    ),
    "fresh name free in the goal": (
        TRACES,
        "    if z in free_vars(s) or z in free_vars(t):\n",
        "    if False:\n",
    ),
    "applied variable not in X": (
        TRACES,
        "        if name not in x_tys:\n",
        "        if False:\n",
    ),
    # the text writer's copy of a node already written at its depth
    "text copy": (
        TRACES,
        "        span = spans.get(key)\n",
        "        span = None\n",
    ),
    # the caches of the term layer, each keyed too coarsely
    "open_abs key without name": (
        TERMS,
        "    body = opened.get(z)\n",
        "    body = next(iter(opened.values()), None)\n",
    ),
    "any output type's symbols": (
        TERMS,
        "            self.funs_by_out.setdefault(f.out_ty, []).append(f)\n",
        "            self.funs_by_out.setdefault(f.out_ty, list(self.funs))\n",
    ),
}

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def run_mutant(copy: pathlib.Path, name: str) -> str | None:
    """The first failing test under mutant `name`, "timeout", or None when
    its tests pass."""
    rel, old, new = MUTANTS[name]
    path = copy / rel
    original = path.read_text()
    path.write_text(original.replace(old, new))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            TIER1 + (CHECKER_TESTS if rel == TRACES else []),
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        path.write_text(original)
    if proc.returncode == 0:
        return None
    found = FAILED.search(proc.stdout)
    return found.group(1) if found else "exit %d" % proc.returncode


def main() -> int:
    stale = [
        name
        for name, (rel, old, _) in MUTANTS.items()
        if (ROOT / rel).read_text().count(old) != 1
    ]
    if stale:
        print("replacement does not match exactly once: %s" % ", ".join(stale))
        return 1
    survived, timed_out = [], []
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "checkout"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"),
        )
        for name in MUTANTS:
            start = time.monotonic()
            killer = run_mutant(copy, name)
            if killer is None:
                outcome, killer = "survived", ""
                survived.append(name)
            elif killer == "timeout":
                outcome, killer = "timeout", ""
                timed_out.append(name)
            else:
                outcome = "killed"
            print(
                "%-28s %-8s %6.1f s  %s"
                % (name, outcome, time.monotonic() - start, killer),
                flush=True,
            )
    killed = len(MUTANTS) - len(survived) - len(timed_out)
    print("%d mutants, %d killed" % (len(MUTANTS), killed))
    if survived:
        print("survivors: %s" % ", ".join(sorted(survived)))
    if timed_out:
        print("timed out: %s" % ", ".join(sorted(timed_out)))
    return 1 if survived or timed_out else 0


if __name__ == "__main__":
    sys.exit(main())
