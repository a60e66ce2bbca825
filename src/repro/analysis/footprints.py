"""Per-function *collective footprints*: a may-closure over the call graph.

The footprint of a function is every collective it can execute, directly
or through any chain of calls :meth:`Project.resolve_call` can resolve.
It drives the interprocedural side of SPMD-DIV: a rank-dependent branch
guarding a call with a non-empty footprint hides a collective from some
ranks, however many files away the collective is.

One node per project function, one edge per resolvable call expression;
call sites are collected *shallowly* (a nested ``def`` is its own node,
lambdas and comprehensions belong to the enclosing function).  The
closure is the least fixpoint of ``may[f] = direct[f] ∪ ⋃ may[callee]``,
so recursion needs no special case.

The same pass records which functions *return a rank scalar*
(``return self.comm.rank == 0``): reading such a property, or calling
such a method without arguments, is as rank-dependent as ``comm.rank``.
"""

from __future__ import annotations

import ast

from . import rules
from .project import ModuleInfo, Project

__all__ = ["FootprintAnalysis", "ModuleContext"]

_EMPTY: frozenset[str] = frozenset()


def _iter_own_calls(func: ast.AST):
    """Call expressions belonging to this function (not to nested defs)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class FootprintAnalysis:
    """May-footprints for every function of a project (module docstring)."""

    def __init__(self, project: Project) -> None:
        self.project = project
        may: dict[str, set[str]] = {}
        callers: dict[str, set[str]] = {}
        rank_returning: set[str] = set()
        for qualname, func in project.functions.items():
            module = project.modules_by_path[func.path]
            direct = may.setdefault(qualname, set())
            for call in _iter_own_calls(func.node):
                name = rules.collective_name(call)
                if name is not None:
                    direct.add(name)
                for target in project.resolve_call(module, call, func.class_name):
                    callers.setdefault(target.qualname, set()).add(qualname)
            if rules.returns_rank_scalar(func.node):
                rank_returning.add(qualname)
        # Push every footprint up to its callers until nothing grows.
        work = [qualname for qualname, ops in may.items() if ops]
        while work:
            callee = work.pop()
            for caller in callers.get(callee, ()):
                if not may[callee] <= may[caller]:
                    may[caller] |= may[callee]
                    work.append(caller)
        self._may = {qualname: frozenset(ops) for qualname, ops in may.items()}
        self.rank_returning = frozenset(rank_returning)

    def footprint(self, qualname: str) -> frozenset[str]:
        """Collectives ``qualname`` may execute, transitively."""
        return self._may.get(qualname, _EMPTY)


class ModuleContext:
    """One module's window onto the whole-program analysis.

    This is the object :func:`repro.analysis.rules.check_module` accepts:
    it answers queries about expressions *of this module*, hiding the
    project plumbing from the rule checker.
    """

    def __init__(self, analysis: FootprintAnalysis, module: ModuleInfo):
        self.analysis = analysis
        self.module = module

    def call_may(self, call: ast.Call,
                 class_name: str | None = None) -> frozenset[str]:
        """Collectives a call may transitively execute (callees only —
        a direct ``comm.<collective>()`` is recognised by name)."""
        result = _EMPTY
        for target in self.analysis.project.resolve_call(
            self.module, call, class_name
        ):
            result |= self.analysis.footprint(target.qualname)
        return result

    def rank_valued(self, node: ast.expr,
                    class_name: str | None = None) -> bool:
        """Does this property read or zero-argument call resolve to a
        function that returns a rank scalar?"""
        project = self.analysis.project
        if isinstance(node, ast.Attribute):
            targets = project.resolve_property(self.module, node, class_name)
        elif isinstance(node, ast.Call) and not node.args and not node.keywords:
            targets = project.resolve_call(self.module, node, class_name)
        else:
            return False
        return any(
            target.qualname in self.analysis.rank_returning for target in targets
        )
