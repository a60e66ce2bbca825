"""AST implementations of the SPMD lint rules.

The rules encode the contract of the simulated runtime
(:mod:`repro.dist.comm`): every rank executes the same collectives in the
same order, per-rank randomness comes only from ``comm.rng`` (or another
explicitly seeded generator), and the shared CSR buffers stay read-only.

The checks are heuristic — they see no types — but no longer purely
local: when :func:`check_module` receives a *module context* (built by
:class:`repro.analysis.footprints.FootprintAnalysis` over the whole
analysed tree), SPMD-DIV and COLL-ORDER reason over transitive
*collective footprints*, so a rank-dependent branch that calls a helper
which internally does a ``halo_exchange`` two files away is flagged at
the call site.  The heuristics are tuned to be precise on this
codebase's idioms:

* an expression is *rank-dependent* when it mentions an attribute named
  ``rank``, a bare name ``rank``, a local variable assigned from such an
  expression (one-level taint), or an attribute named ``size`` on a
  receiver whose name contains ``comm``.  Plain ``.size`` (ubiquitous on
  NumPy arrays) is deliberately not rank-dependent.  ``comm.size`` *is*
  flagged even though it is uniform across ranks: such branches hide
  collectives from some configurations (a ``p = 1`` run never executes
  them) and routinely evolve into genuinely divergent ones.
* collectives are recognised by method name (``comm.allgather(...)``,
  ``dgraph.halo_exchange(...)``, ...), not receiver type.
* rank-dependent *payloads* are fine — only rank-dependent *control flow*
  around a collective call diverges — so the canonical
  ``comm.bcast(x if comm.rank == root else None)`` is not flagged.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .footprints import ModuleContext

__all__ = ["check_module", "COLLECTIVES", "BUFFER_ATTRS"]

#: method names treated as collectives (SimComm plus the DistGraph
#: wrappers that are collective over their comm argument)
COLLECTIVES = frozenset({
    "barrier",
    "allgather",
    "allreduce",
    "allreduce_max",
    "allreduce_min",
    "bcast",
    "reduce",
    "gather",
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

#: names whose presence in a loop marks it as an edge-traversal loop
_EDGE_NAMES = frozenset({"xadj", "adjncy", "adjwgt"})

#: CSR/topology arrays of Graph / DistGraph / ExecutionBackend objects.
#: Under the upcoming shared-memory ProcessBackend these live in
#: ``multiprocessing.shared_memory`` and must stay read-only in every
#: consumer; today an in-place write already aliases across the
#: LocalBackend's Graph and the engine's views of it.
BUFFER_ATTRS = frozenset({"xadj", "adjncy", "adjwgt", "vwgt", "degrees"})

#: parameter annotations that mark a shared-buffer carrier
_BUFFER_ANNOTATIONS = frozenset({
    "Graph", "DistGraph", "ExecutionBackend", "LocalBackend", "SpmdBackend",
    "VcycleBackend",
})

#: in-place mutator methods on ndarrays (MUT-BUF)
_ARRAY_MUTATORS = frozenset({
    "sort", "fill", "setflags", "resize", "partition", "put", "itemset",
})

#: spellings of a 32-bit int dtype (DTYPE-NARROW)
_INT32_NAMES = frozenset({"int32", "intc", "uint32"})

#: identifier fragments that mark an array as holding cluster labels or
#: global node ids — the quantities that index the 2^31+-node graphs the
#: paper targets
_LABELISH_FRAGMENTS = ("label", "cluster", "gid")
_LABELISH_NAMES = frozenset({
    "partition", "parts", "ids", "node_ids", "global_ids", "blocks",
})


def _is_labelish(name: str) -> bool:
    lowered = name.lower()
    return (
        any(fragment in lowered for fragment in _LABELISH_FRAGMENTS)
        or lowered in _LABELISH_NAMES
    )


def _mentions_labelish(node: ast.expr) -> str | None:
    """The first label/global-id-ish identifier in the expression."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_labelish(sub.id):
            return sub.id
        if isinstance(sub, ast.Attribute) and _is_labelish(sub.attr):
            return sub.attr
    return None


def _is_int32(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _INT32_NAMES
    if isinstance(node, ast.Name):
        return node.id in _INT32_NAMES
    if isinstance(node, ast.Constant):
        return node.value in ("int32", "uint32", "i4", "u4", "<i4", "<u4")
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


def _mentions_rank(node: ast.expr, tainted: frozenset[str]) -> bool:
    """True when the expression is rank-dependent (see module docstring)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            if sub.attr == "rank":
                return True
            if sub.attr == "size" and _is_comm_like(sub.value):
                return True
        elif isinstance(sub, ast.Name):
            if sub.id == "rank" or sub.id in tainted:
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


def _collective_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in COLLECTIVES:
        return func.attr
    return None


def _is_rank_scalar(node: ast.expr, tainted: set[str]) -> bool:
    """Is this expression scalar arithmetic over the rank itself?

    Taint deliberately stops at calls, subscripts and collection literals:
    objects *built from* the rank (a DistGraph, a local slice) are
    rank-local data, and branching on data is the normal SPMD pattern —
    only branching on the rank number around a collective diverges.
    """
    if isinstance(node, ast.Attribute):
        return node.attr == "rank"
    if isinstance(node, ast.Name):
        return node.id == "rank" or node.id in tainted
    if isinstance(node, ast.BinOp):
        return _is_rank_scalar(node.left, tainted) or _is_rank_scalar(node.right, tainted)
    if isinstance(node, ast.UnaryOp):
        return _is_rank_scalar(node.operand, tainted)
    if isinstance(node, ast.Compare):
        return _is_rank_scalar(node.left, tainted) or any(
            _is_rank_scalar(c, tainted) for c in node.comparators
        )
    if isinstance(node, ast.BoolOp):
        return any(_is_rank_scalar(v, tainted) for v in node.values)
    if isinstance(node, ast.IfExp):
        return any(
            _is_rank_scalar(part, tainted)
            for part in (node.test, node.body, node.orelse)
        )
    return False


def _collect_taint(func: ast.AST) -> frozenset[str]:
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
                and _is_rank_scalar(node.value, tainted)
            ):
                tainted.add(node.targets[0].id)
    return frozenset(tainted)


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
# Per-function context
# ----------------------------------------------------------------------

def _annotation_name(annotation: ast.expr | None) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split(".")[-1].strip()
    if isinstance(annotation, ast.BinOp):  # ``Graph | None``
        return _annotation_name(annotation.left) or _annotation_name(annotation.right)
    return None


def _is_buffer_param(name: str, annotation: ast.expr | None) -> bool:
    """Does this parameter carry shared CSR buffers (MUT-BUF)?"""
    if name in ("self", "cls"):
        return False
    ann = _annotation_name(annotation)
    if ann is not None and ann in _BUFFER_ANNOTATIONS:
        return True
    lowered = name.lower()
    return lowered.endswith(("graph", "backend")) or lowered == "dgraph"


class _FuncState:
    """Pre-scanned facts about one function body."""

    def __init__(self, node: ast.AST, is_module: bool = False,
                 context: "ModuleContext | None" = None,
                 class_name: str | None = None) -> None:
        self.tainted = _collect_taint(node)
        self.collective_lines: list[int] = []
        self.has_work = False
        self.work_miss_reported = False
        self.comm_param = False
        self.buffer_params: frozenset[str] = frozenset()
        #: local alias -> (param, attr) for ``xadj = graph.xadj``
        self.buffer_aliases: dict[str, tuple[str, str]] = {}
        if not is_module:
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            names = [a.arg for a in params]
            # An ExecutionBackend parameter is comm-like: the shared engine
            # drivers (repro.engine) charge traversal work through
            # `backend.work(...)`, which is `comm.work` on the SPMD backend,
            # so their edge loops are held to the same WORK-MISS contract.
            self.comm_param = any(
                "comm" in name.lower() or "backend" in name.lower()
                for name in names
            )
            self.buffer_params = frozenset(
                a.arg for a in params if _is_buffer_param(a.arg, a.annotation)
            )
            if self.buffer_params:
                self._collect_buffer_aliases(node)
        for sub in _walk_shallow(node):
            if isinstance(sub, ast.Call):
                if _collective_name(sub) is not None:
                    self.collective_lines.append(sub.lineno)
                elif isinstance(sub.func, ast.Attribute) and sub.func.attr == "work":
                    self.has_work = True
                elif context is not None and context.call_may(sub, class_name):
                    # Interprocedural: a call that transitively reaches a
                    # collective counts for the early-return rule too.
                    self.collective_lines.append(sub.lineno)

    def _collect_buffer_aliases(self, node: ast.AST) -> None:
        for sub in _walk_shallow(node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
            ):
                source = self.buffer_source(sub.value)
                if source is not None:
                    self.buffer_aliases[sub.targets[0].id] = source

    def buffer_source(self, node: ast.expr) -> tuple[str, str] | None:
        """The ``(param, buffer attr)`` a bare expression aliases, if any.

        Follows attribute chains (``backend.dgraph.vwgt``) down to a
        parameter name, and one level of local aliasing
        (``xadj = graph.xadj``).  Slices/copies (any call) break the
        alias on purpose: ``graph.xadj.copy()`` is private data.
        """
        if isinstance(node, ast.Name):
            return self.buffer_aliases.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in BUFFER_ATTRS:
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in self.buffer_params:
                return base.id, node.attr
        return None

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
        self.func_stack: list[_FuncState] = [_FuncState(tree, is_module=True)]
        self.div_depth = 0

    # -- helpers -------------------------------------------------------

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, node.lineno, node.col_offset + 1, code, message)
        )

    @property
    def func(self) -> _FuncState:
        return self.func_stack[-1]

    def _rank_dep(self, node: ast.expr) -> bool:
        return _mentions_rank(node, self.func.tainted)

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
        for stmt in body:
            for sub in (stmt, *_walk_shallow(stmt)):
                if isinstance(sub, ast.Return) and self.func.collectives_after(sub.lineno):
                    self.report(
                        sub,
                        "SPMD-DIV",
                        "early return in a rank-dependent branch, but "
                        "collectives follow later in this function; the "
                        "returning rank(s) would never reach them and the "
                        "rest would deadlock",
                    )

    # -- scopes --------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    @property
    def current_class(self) -> str | None:
        return self.class_stack[-1] if self.class_stack else None

    def _visit_function(self, node) -> None:
        self.func_stack.append(
            _FuncState(node, context=self.context, class_name=self.current_class)
        )
        saved_depth, self.div_depth = self.div_depth, 0
        self.generic_visit(node)
        self.div_depth = saved_depth
        self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- divergent control flow ----------------------------------------

    def _check_coll_order(self, node: ast.If | ast.IfExp) -> None:
        """COLL-ORDER: branch arms with unequal must-footprints.

        Both arms executing collectives — but not the *same* guaranteed
        sequence — is the shape the runtime sanitizer exists for: when
        the condition ever diverges across ranks, each rank still
        executes *a* collective, so the hub's gather does not stall, it
        silently misaligns payloads (or trips the sanitizer
        in the lucky runs that have it on).  One empty arm under a
        rank-dependent condition is SPMD-DIV's business instead.
        """
        if self.context is None:
            return
        body = node.body if isinstance(node.body, list) else [ast.Expr(node.body)]
        orelse = (
            node.orelse if isinstance(node.orelse, list)
            else [ast.Expr(node.orelse)]
        )
        must_body = self.context.stmts_must(body, self.current_class)
        must_else = self.context.stmts_must(orelse, self.current_class)
        if must_body and must_else and must_body != must_else:
            self.report(
                node,
                "COLL-ORDER",
                "branch arms execute different guaranteed collective "
                f"sequences ({'+'.join(sorted(must_body))} vs "
                f"{'+'.join(sorted(must_else))}); if the condition ever "
                "differs across ranks the lock-step protocol misaligns "
                "payloads instead of deadlocking",
            )

    def visit_If(self, node: ast.If) -> None:
        self._check_coll_order(node)
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
            self._maybe_work_miss(node)
            self._visit_divergent(node.body, node.orelse)
        else:
            self._maybe_work_miss(node)
            self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._maybe_work_miss(node)
        if self._rank_dep(node.iter):
            self.visit(node.iter)
            self.visit(node.target)
            self._visit_divergent(node.body, node.orelse)
        else:
            self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._check_coll_order(node)
        if self._rank_dep(node.test):
            self.visit(node.test)
            self._visit_divergent(node.body, node.orelse)
        else:
            self.generic_visit(node)

    # -- rule bodies ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _collective_name(node)
        if name is not None and self.div_depth > 0:
            self.report(
                node,
                "SPMD-DIV",
                f"collective `{name}` is called under rank-dependent control "
                "flow; ranks taking the other path skip it and the hub waits "
                "for the missing rank until the watchdog fires",
            )
        elif name is None and self.div_depth > 0 and self.context is not None:
            reached = self.context.call_may(node, self.current_class)
            if reached:
                callee = ast.unparse(node.func)
                self.report(
                    node,
                    "SPMD-DIV",
                    f"`{callee}()` transitively executes collective(s) "
                    f"{'+'.join(sorted(reached))} but is called under "
                    "rank-dependent control flow; ranks taking the other "
                    "path skip them and the hub waits for the missing rank "
                    "until the watchdog fires",
                )
        rng_message = self.rng.violation(node)
        if rng_message is not None:
            self.report(node, "RNG-GLOBAL", rng_message)
        self._check_mut_buf_call(node)
        self._check_dtype_narrow_call(node)
        self.generic_visit(node)

    # -- ProcessBackend-prep buffer safety ------------------------------

    def _report_mut_buf(self, node: ast.AST, param: str, attr: str,
                        how: str) -> None:
        self.report(
            node,
            "MUT-BUF",
            f"{how} mutates `{param}.{attr}` in place, but CSR buffers "
            "received through Graph/DistGraph/backend parameters must stay "
            "read-only (they are shared across ranks and will live in "
            "multiprocessing.shared_memory under the ProcessBackend); "
            "work on a copy instead",
        )

    def _check_mut_buf_call(self, node: ast.Call) -> None:
        func = self.func
        if not func.buffer_params or not isinstance(node.func, ast.Attribute):
            return
        # ndarray mutator methods: graph.adjncy.sort(), xadj.fill(0), ...
        if node.func.attr in _ARRAY_MUTATORS:
            source = func.buffer_source(node.func.value)
            if source is not None:
                self._report_mut_buf(
                    node, *source, how=f"`.{node.func.attr}()`"
                )
                return
        # ufunc.at: np.add.at(graph.vwgt, idx, 1) mutates arg 0 in place
        if node.func.attr == "at" and node.args:
            source = func.buffer_source(node.args[0])
            if source is not None:
                self._report_mut_buf(
                    node, *source, how=f"`{ast.unparse(node.func)}`"
                )

    def _check_mut_buf_target(self, node: ast.AST, target: ast.expr,
                              augmented: bool = False) -> None:
        func = self.func
        if not func.buffer_params:
            return
        if isinstance(target, ast.Subscript):
            source = func.buffer_source(target.value)
            if source is not None:
                self._report_mut_buf(node, *source, how="subscript assignment")
            return
        source = func.buffer_source(target)
        if source is None:
            return
        if augmented:
            # ndarray += writes through the existing buffer in place.
            self._report_mut_buf(node, *source, how="augmented assignment")
        elif isinstance(target, ast.Attribute):
            # Rebinding the attribute swaps the shared object's buffer
            # out from under every other view of it.
            self._report_mut_buf(node, *source, how="attribute rebinding")

    def _check_dtype_narrow_call(self, node: ast.Call,
                                 target_hint: str | None = None) -> None:
        func_expr = node.func
        labelish: str | None = target_hint
        narrow = False
        if (
            isinstance(func_expr, ast.Attribute)
            and func_expr.attr == "astype"
            and node.args
            and _is_int32(node.args[0])
        ):
            narrow = True
            labelish = labelish or _mentions_labelish(func_expr.value)
        else:
            for keyword in node.keywords:
                if keyword.arg == "dtype" and _is_int32(keyword.value):
                    narrow = True
                    if labelish is None:
                        for arg in node.args:
                            labelish = _mentions_labelish(arg)
                            if labelish is not None:
                                break
        if narrow and labelish is not None:
            self.report(
                node,
                "DTYPE-NARROW",
                f"label/global-id array `{labelish}` is narrowed to a 32-bit "
                "integer dtype; at the paper's target scale (>= 2^31 nodes) "
                "global node ids and cluster labels overflow int32 — keep "
                "them int64",
            )

    def _check_write_targets(self, node: ast.AST, targets: list[ast.expr],
                             augmented: bool = False) -> None:
        stack = list(targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
                continue
            self._check_mut_buf_target(node, target, augmented=augmented)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_write_targets(node, node.targets)
        if isinstance(node.value, ast.Call):
            hint = None
            if len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_labelish(target.id):
                    hint = target.id
                elif isinstance(target, ast.Attribute) and _is_labelish(target.attr):
                    hint = target.attr
            if hint is not None:
                self._check_dtype_narrow_call(node.value, target_hint=hint)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write_targets(node, [node.target], augmented=True)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_write_targets(node, [node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_write_targets(node, node.targets)
        self.generic_visit(node)

    def _maybe_work_miss(self, loop: ast.For | ast.While) -> None:
        func = self.func
        if not func.comm_param or func.has_work or func.work_miss_reported:
            return
        for sub in _walk_shallow(loop):
            is_edge = (
                isinstance(sub, ast.Name) and sub.id in _EDGE_NAMES
            ) or (
                isinstance(sub, ast.Attribute) and sub.attr in _EDGE_NAMES
            )
            if is_edge:
                func.work_miss_reported = True
                self.report(
                    loop,
                    "WORK-MISS",
                    "edge-traversal loop in an SPMD function with no "
                    "comm.work() accounting; the simulated clocks will not "
                    "see this work",
                )
                return


def check_module(tree: ast.Module, path: str,
                 context: "ModuleContext | None" = None) -> list[Finding]:
    """Run every rule over one parsed module.

    ``context`` (a :class:`repro.analysis.footprints.ModuleContext`)
    enables the interprocedural rules; without it only the single-file
    heuristics run.
    """
    checker = _Checker(tree, path, context=context)
    checker.visit(tree)
    # An early-return can be seen from several enclosing rank-guarded
    # branches; report each location once.
    unique = {(f.line, f.col, f.code): f for f in checker.findings}
    return sorted(unique.values(), key=lambda f: (f.line, f.col, f.code))
