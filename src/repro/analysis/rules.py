"""AST implementations of the SPMD lint rules.

Two rules, each the *first* or the *only* reporter of its hazard (the
mutation table in ``docs/analysis.md`` is the evidence):

* **SPMD-DIV** — a collective (or a call whose footprint holds one)
  under rank-dependent control flow, or a rank-guarded early return
  with collectives still to come.  The runtime order check names the
  collective where the streams part; this rule reports before anything
  runs and names the *guard*.
* **RNG-GLOBAL** — process-global or unseeded random state.  Nothing at
  run time names the line: a golden hash merely stops matching.

The checks are heuristic — they see no types.  When :func:`check_module`
receives a *module context* (built by
:class:`repro.analysis.footprints.FootprintAnalysis` over the whole
analysed tree), SPMD-DIV reasons over transitive *collective footprints*,
so a rank-dependent branch that calls a helper which internally does a
``halo_exchange`` two files away is flagged at the call site.  The
heuristics are tuned to be precise on this codebase's idioms:

* an expression is *rank-dependent* when it mentions an attribute named
  ``rank``, a bare name ``rank``, a local variable assigned from such an
  expression (one-level taint), a project property or zero-argument
  method whose body returns such an expression (``backend.emits_events``
  returning ``self.comm.rank == 0``), or an attribute named ``size`` on
  a receiver whose name contains ``comm``.  Plain ``.size`` (ubiquitous
  on NumPy arrays) is deliberately not rank-dependent.  ``comm.size``
  *is* flagged even though it is uniform across ranks: such branches
  hide collectives from some configurations (a ``p = 1`` run never
  executes them) and routinely evolve into genuinely divergent ones.
* collectives are recognised by method name (``comm.allgather(...)``,
  ``dgraph.halo_exchange(...)``, ...), not receiver type.
* rank-dependent *payloads* are fine — only rank-dependent *control flow*
  around a collective call diverges — so the canonical
  ``comm.bcast(x if comm.rank == root else None)`` is not flagged.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Iterator

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .footprints import ModuleContext

__all__ = ["check_module", "collective_name", "returns_rank_scalar", "COLLECTIVES"]

#: method names treated as collectives (SimComm plus the DistGraph
#: wrappers that are collective over their comm argument)
COLLECTIVES = frozenset({
    "barrier",
    "allgather",
    "allreduce",
    "allreduce_max",
    "bcast",
    "exscan",
    "alltoall",
    "exchange",
    "halo_exchange",
    "gather_global",
})

#: stateful module-level functions of the stdlib ``random`` module
_PY_STATEFUL = frozenset({
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "seed",
})

#: stateful module-level functions of ``numpy.random`` (legacy global RNG)
_NP_STATEFUL = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "permutation", "shuffle", "bytes", "uniform",
    "normal", "standard_normal", "binomial", "poisson", "exponential",
    "beta", "gamma", "seed", "get_state", "set_state",
})

#: answers "does this attribute read / zero-argument call evaluate a
#: project function that returns a rank scalar?" for one expression node
RankValued = Callable[[ast.expr], bool]


def _never(node: ast.expr) -> bool:
    return False


# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------

def _is_comm_like(node: ast.expr) -> bool:
    """Heuristic: does this expression name a communicator?"""
    if isinstance(node, ast.Name):
        return "comm" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "comm" in node.attr.lower()
    return False


def _mentions_rank(node: ast.expr, tainted: frozenset[str],
                   rank_valued: RankValued) -> bool:
    """True when the expression is rank-dependent (see module docstring)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            if sub.attr == "rank" or rank_valued(sub):
                return True
            if sub.attr == "size" and _is_comm_like(sub.value):
                return True
        elif isinstance(sub, ast.Name):
            if sub.id == "rank" or sub.id in tainted:
                return True
        elif isinstance(sub, ast.Call) and rank_valued(sub):
            return True
    return False


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def collective_name(call: ast.Call) -> str | None:
    """The collective this call names directly, if any."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in COLLECTIVES:
        return func.attr
    return None


def _is_rank_scalar(node: ast.expr, tainted: set[str] | frozenset[str],
                    rank_valued: RankValued = _never) -> bool:
    """Is this expression scalar arithmetic over the rank itself?

    Taint deliberately stops at subscripts, collection literals and calls
    with arguments: objects *built from* the rank (a DistGraph, a local
    slice) are rank-local data, and branching on data is the normal SPMD
    pattern — only branching on the rank number around a collective
    diverges.
    """
    if isinstance(node, ast.Attribute):
        return node.attr == "rank" or rank_valued(node)
    if isinstance(node, ast.Call):
        return rank_valued(node)
    if isinstance(node, ast.Name):
        return node.id == "rank" or node.id in tainted
    if isinstance(node, ast.BinOp):
        parts = [node.left, node.right]
    elif isinstance(node, ast.UnaryOp):
        parts = [node.operand]
    elif isinstance(node, ast.Compare):
        parts = [node.left, *node.comparators]
    elif isinstance(node, ast.BoolOp):
        parts = node.values
    elif isinstance(node, ast.IfExp):
        parts = [node.test, node.body, node.orelse]
    else:
        return False
    return any(_is_rank_scalar(part, tainted, rank_valued) for part in parts)


def _collect_taint(func: ast.AST, rank_valued: RankValued = _never) -> frozenset[str]:
    """Names assigned (directly or transitively) scalar functions of rank."""
    tainted: set[str] = set()
    # Two passes pick up one level of transitivity in any statement order;
    # deeper chains are rare enough not to chase.
    for _ in range(2):
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_rank_scalar(node.value, tainted, rank_valued)
            ):
                tainted.add(node.targets[0].id)
    return frozenset(tainted)


def returns_rank_scalar(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does some ``return`` of this function hand back a rank scalar?"""
    tainted = _collect_taint(func)
    return any(
        isinstance(sub, ast.Return)
        and sub.value is not None
        and _is_rank_scalar(sub.value, tainted)
        for sub in _walk_shallow(func)
    )


class _RngImports:
    """Module-level import aliases relevant to the RNG-GLOBAL rule."""

    def __init__(self, tree: ast.Module) -> None:
        self.py_random: set[str] = set()       # `import random [as r]`
        self.numpy: set[str] = set()           # `import numpy [as np]`
        self.np_random: set[str] = set()       # `numpy.random` aliased directly
        self.from_py: dict[str, str] = {}      # `from random import shuffle`
        self.from_np: dict[str, str] = {}      # `from numpy.random import rand`
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.py_random.add(bound)
                    elif alias.name == "numpy":
                        self.numpy.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.np_random.add(alias.asname)
                        else:
                            self.numpy.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        self.from_py[alias.asname or alias.name] = alias.name
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self.from_np[alias.asname or alias.name] = alias.name
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.np_random.add(alias.asname or alias.name)

    def _is_np_random(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.np_random
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.numpy
        )

    def violation(self, call: ast.Call) -> str | None:
        """A message when this call touches global/unseeded random state."""
        func = call.func
        if isinstance(func, ast.Attribute):
            fn = func.attr
            if isinstance(func.value, ast.Name) and func.value.id in self.py_random:
                if fn in _PY_STATEFUL:
                    return (
                        f"`{func.value.id}.{fn}()` draws from the process-global "
                        "RNG; SPMD code must use comm.rng (or a seeded "
                        "random.Random)"
                    )
                if fn == "Random" and not call.args and not call.keywords:
                    return (
                        f"`{func.value.id}.Random()` without a seed is "
                        "non-reproducible; pass an explicit seed"
                    )
            if self._is_np_random(func.value):
                if fn in _NP_STATEFUL:
                    return (
                        f"`np.random.{fn}()` uses the legacy global NumPy RNG; "
                        "SPMD code must use comm.rng (or a seeded default_rng)"
                    )
                if fn == "default_rng" and not call.args and not call.keywords:
                    return (
                        "`np.random.default_rng()` without a seed is "
                        "non-reproducible; pass an explicit seed (or use comm.rng)"
                    )
        elif isinstance(func, ast.Name):
            origin = self.from_py.get(func.id)
            if origin in _PY_STATEFUL:
                return (
                    f"`{func.id}()` (from random) draws from the process-global "
                    "RNG; SPMD code must use comm.rng"
                )
            origin = self.from_np.get(func.id)
            if origin in _NP_STATEFUL:
                return (
                    f"`{func.id}()` (from numpy.random) uses the legacy global "
                    "NumPy RNG; SPMD code must use comm.rng"
                )
            if origin == "default_rng" and not call.args and not call.keywords:
                return (
                    "`default_rng()` without a seed is non-reproducible; "
                    "pass an explicit seed (or use comm.rng)"
                )
        return None


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------

class _FuncState:
    """Pre-scanned facts about one function body."""

    def __init__(self, node: ast.AST, rank_valued: RankValued,
                 call_may: Callable[[ast.Call], frozenset[str]]) -> None:
        self.tainted = _collect_taint(node, rank_valued)
        #: lines of calls that are, or transitively reach, a collective
        self.collective_lines = [
            sub.lineno
            for sub in _walk_shallow(node)
            if isinstance(sub, ast.Call)
            and (collective_name(sub) is not None or call_may(sub))
        ]

    def collectives_after(self, lineno: int) -> bool:
        return any(line > lineno for line in self.collective_lines)


class _Checker(ast.NodeVisitor):
    def __init__(self, tree: ast.Module, path: str,
                 context: "ModuleContext | None" = None) -> None:
        self.path = path
        self.context = context
        self.findings: list[Finding] = []
        self.rng = _RngImports(tree)
        self.class_stack: list[str] = []
        self.func_stack: list[_FuncState] = [self._func_state(tree)]
        self.div_depth = 0

    # -- helpers -------------------------------------------------------

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, node.lineno, node.col_offset + 1, code, message)
        )

    @property
    def current_class(self) -> str | None:
        return self.class_stack[-1] if self.class_stack else None

    def _call_may(self, call: ast.Call) -> frozenset[str]:
        if self.context is None:
            return frozenset()
        return self.context.call_may(call, self.current_class)

    def _rank_valued(self, node: ast.expr) -> bool:
        return self.context is not None and self.context.rank_valued(
            node, self.current_class
        )

    def _func_state(self, node: ast.AST) -> _FuncState:
        return _FuncState(node, self._rank_valued, self._call_may)

    def _rank_dep(self, node: ast.expr) -> bool:
        return _mentions_rank(node, self.func_stack[-1].tainted, self._rank_valued)

    def _visit_divergent(self, *bodies) -> None:
        self.div_depth += 1
        try:
            for body in bodies:
                if isinstance(body, list):
                    for stmt in body:
                        self.visit(stmt)
                elif body is not None:
                    self.visit(body)
        finally:
            self.div_depth -= 1

    def _check_early_exit(self, body: list[ast.stmt]) -> None:
        """Flag rank-guarded returns that skip collectives run later."""
        func = self.func_stack[-1]
        for stmt in body:
            for sub in (stmt, *_walk_shallow(stmt)):
                if isinstance(sub, ast.Return) and func.collectives_after(sub.lineno):
                    self.report(
                        sub,
                        "SPMD-DIV",
                        "early return in a rank-dependent branch, but "
                        "collectives follow later in this function; the "
                        "returning rank(s) never reach them, so the order "
                        "check fails at the next collective or the watchdog "
                        "fires",
                    )

    # -- scopes --------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        self.func_stack.append(self._func_state(node))
        saved_depth, self.div_depth = self.div_depth, 0
        self.generic_visit(node)
        self.div_depth = saved_depth
        self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- divergent control flow ----------------------------------------

    def visit_If(self, node: ast.If) -> None:
        if self._rank_dep(node.test):
            self.visit(node.test)
            self._check_early_exit(node.body)
            self._check_early_exit(node.orelse)
            self._visit_divergent(node.body, node.orelse)
        else:
            self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        if self._rank_dep(node.test):
            self.visit(node.test)
            self._visit_divergent(node.body, node.orelse)
        else:
            self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._rank_dep(node.iter):
            self.visit(node.iter)
            self.visit(node.target)
            self._visit_divergent(node.body, node.orelse)
        else:
            self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        if self._rank_dep(node.test):
            self.visit(node.test)
            self._visit_divergent(node.body, node.orelse)
        else:
            self.generic_visit(node)

    # -- rule bodies ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.div_depth > 0:
            name = collective_name(node)
            if name is not None:
                self.report(
                    node,
                    "SPMD-DIV",
                    f"collective `{name}` is called under rank-dependent "
                    "control flow; ranks taking the other path skip it",
                )
            else:
                reached = self._call_may(node)
                if reached:
                    self.report(
                        node,
                        "SPMD-DIV",
                        f"`{ast.unparse(node.func)}()` transitively executes "
                        f"collective(s) {'+'.join(sorted(reached))} but is "
                        "called under rank-dependent control flow; ranks "
                        "taking the other path skip them",
                    )
        rng_message = self.rng.violation(node)
        if rng_message is not None:
            self.report(node, "RNG-GLOBAL", rng_message)
        self.generic_visit(node)


def check_module(tree: ast.Module, path: str,
                 context: "ModuleContext | None" = None) -> list[Finding]:
    """Run every rule over one parsed module.

    ``context`` (a :class:`repro.analysis.footprints.ModuleContext`)
    enables the interprocedural side of SPMD-DIV; without it only the
    single-file heuristics run.
    """
    checker = _Checker(tree, path, context=context)
    checker.visit(tree)
    # An early-return can be seen from several enclosing rank-guarded
    # branches; report each location once.
    unique = {(f.line, f.col, f.code): f for f in checker.findings}
    return sorted(unique.values(), key=lambda f: (f.line, f.col, f.code))
