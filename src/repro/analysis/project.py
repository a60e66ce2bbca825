"""Whole-program view of a Python package tree for the SPMD analyses.

The interprocedural side of SPMD-DIV (collective footprints, rank-valued
properties) needs to see *every* module of ``src/repro`` at once and to
answer "which function(s) can this call expression reach?".
:class:`Project` provides exactly that and nothing more:

* **module loading** — every ``.py`` file under the analysed paths is
  parsed once; its dotted module name is recovered by walking up the
  ``__init__.py`` chain (files outside any package are keyed by stem);
* **symbol resolution** — per-module import tables (``import x as y``,
  ``from x import f as g``, relative imports resolved against the
  module's own package) plus the module's top-level functions/classes;
* **call resolution** — :meth:`Project.resolve_call` maps a call
  expression to the set of project functions it *may* invoke, and
  :meth:`Project.resolve_property` an attribute read to the properties
  it may evaluate.

Resolution is conservative in the may-direction: a method call on a
receiver of unknown type (``backend.reduce_block_weights(...)``)
resolves to **every** project method of that name, because the analyses
built on top (footprints, divergence) must not miss a collective hiding
behind dynamic dispatch.  Plain-name calls and module-attribute calls
resolve precisely through the import tables.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = ["FunctionInfo", "ModuleInfo", "Project"]


@dataclass
class FunctionInfo:
    """One function or method definition somewhere in the project."""

    qualname: str            #: ``module.Class.name`` or ``module.name``
    name: str                #: the bare definition name
    module: str              #: dotted module name
    path: str                #: source file the definition lives in
    class_name: str | None   #: innermost enclosing class, if a method
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)

    @property
    def is_property(self) -> bool:
        return any(
            isinstance(deco, ast.Name) and deco.id == "property"
            for deco in self.node.decorator_list
        )


@dataclass
class ModuleInfo:
    """One parsed module plus its resolution tables."""

    name: str
    path: str
    tree: ast.Module = field(repr=False)
    #: alias -> dotted module name (``import numpy as np``)
    import_modules: dict[str, str] = field(default_factory=dict)
    #: alias -> fully qualified symbol (``from .helpers import sync``)
    import_symbols: dict[str, str] = field(default_factory=dict)
    #: top-level function name -> qualname
    functions: dict[str, str] = field(default_factory=dict)
    #: top-level class name -> {method name -> qualname}
    classes: dict[str, dict[str, str]] = field(default_factory=dict)


def _module_name_for(path: Path) -> str:
    """Dotted module name, recovered from the ``__init__.py`` chain."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Resolve ``from ...target import x`` against ``module``'s package."""
    base = module.split(".")
    # level 1 = the module's own package, each extra level one package up.
    keep = len(base) - level
    prefix = base[:keep] if keep > 0 else []
    if target:
        prefix.append(target)
    return ".".join(prefix)


class Project:
    """A set of parsed modules with project-wide symbol/call resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}          # by dotted name
        self.modules_by_path: dict[str, ModuleInfo] = {}  # by str(path)
        self.functions: dict[str, FunctionInfo] = {}      # by qualname
        #: method name -> every qualname defining it (dynamic dispatch)
        self.methods_by_name: dict[str, list[str]] = {}
        #: (path, error) of every source that did not parse
        self.unparsed: list[tuple[str, SyntaxError]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(cls, files: Iterable[str | Path]) -> "Project":
        """Parse every file; unparsable ones land in :attr:`unparsed`."""
        project = cls()
        for file in files:
            path = Path(file)
            project.add_source(_module_name_for(path), str(path),
                               path.read_text(encoding="utf-8"))
        return project

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        """Build a project from in-memory ``{module name: source}`` (tests)."""
        project = cls()
        for name, source in sources.items():
            project.add_source(name, name.replace(".", "/") + ".py", source)
        return project

    def add_source(self, name: str, path: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.unparsed.append((path, exc))
            return
        # Same-named modules from disjoint trees (fixture twins): keep
        # both by path, last one wins the dotted-name table.
        info = ModuleInfo(name=name, path=path, tree=tree)
        self.modules[name] = info
        self.modules_by_path[path] = info
        self._index_imports(info)
        self._index_definitions(info)

    def _index_imports(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.import_modules[bound] = target
            elif isinstance(node, ast.ImportFrom):
                module = (
                    _resolve_relative(info.name, node.level, node.module)
                    if node.level else (node.module or "")
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    info.import_symbols[bound] = f"{module}.{alias.name}"

    def _index_definitions(self, info: ModuleInfo) -> None:
        prefix = info.name

        def visit(node: ast.AST, scope: str, class_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{scope}.{child.name}"
                    func = FunctionInfo(
                        qualname=qualname, name=child.name, module=info.name,
                        path=info.path, class_name=class_name, node=child,
                    )
                    self.functions[qualname] = func
                    if class_name is not None:
                        self.methods_by_name.setdefault(
                            child.name, []
                        ).append(qualname)
                    if scope == prefix:
                        info.functions[child.name] = qualname
                    visit(child, qualname, class_name)
                elif isinstance(child, ast.ClassDef):
                    class_scope = f"{scope}.{child.name}"
                    if scope == prefix:
                        info.classes[child.name] = {}
                        for sub in child.body:
                            if isinstance(sub, (ast.FunctionDef,
                                                ast.AsyncFunctionDef)):
                                info.classes[child.name][sub.name] = (
                                    f"{class_scope}.{sub.name}"
                                )
                    visit(child, class_scope, child.name)
                else:
                    visit(child, scope, class_name)

        visit(info.tree, prefix, None)

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _lookup(self, qualname: str) -> FunctionInfo | None:
        func = self.functions.get(qualname)
        if func is not None:
            return func
        # ``pkg.Class`` constructed directly: resolve to its __init__.
        return self.functions.get(f"{qualname}.__init__")

    def _resolve_symbol(self, qualname: str) -> FunctionInfo | None:
        """Follow one level of ``from x import y`` re-export indirection."""
        func = self._lookup(qualname)
        if func is not None:
            return func
        module_part, _, symbol = qualname.rpartition(".")
        module = self.modules.get(module_part)
        if module is not None:
            target = module.import_symbols.get(symbol)
            if target is not None and target != qualname:
                return self._lookup(target)
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        class_name: str | None = None,
    ) -> list[FunctionInfo]:
        """Project functions this call may reach (may-resolution).

        ``class_name`` is the innermost class enclosing the call site,
        used to resolve ``self.method()`` / ``cls.method()`` precisely
        before falling back to dispatch-by-name.
        """
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            qualname = module.functions.get(name)
            if qualname is not None:
                return [self.functions[qualname]]
            if name in module.classes:
                init = module.classes[name].get("__init__")
                return [self.functions[init]] if init else []
            imported = module.import_symbols.get(name)
            if imported is not None:
                resolved = self._resolve_symbol(imported)
                return [resolved] if resolved else []
            return []
        if not isinstance(func, ast.Attribute):
            return []
        return self._resolve_attribute(module, func, class_name)

    def resolve_property(
        self,
        module: ModuleInfo,
        node: ast.Attribute,
        class_name: str | None = None,
    ) -> list[FunctionInfo]:
        """Project properties this attribute read may evaluate."""
        return [
            target
            for target in self._resolve_attribute(module, node, class_name)
            if target.is_property
        ]

    def _resolve_attribute(
        self, module: ModuleInfo, func: ast.Attribute, class_name: str | None
    ) -> list[FunctionInfo]:
        attr = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id in ("self", "cls") and class_name is not None:
                qualname = self._method_in_class(module, class_name, attr)
                if qualname is not None:
                    return [self.functions[qualname]]
                return self._dispatch_by_name(attr)
            target_module = module.import_modules.get(receiver.id)
            if target_module is not None:
                resolved = self._resolve_symbol(f"{target_module}.{attr}")
                return [resolved] if resolved else []
            if receiver.id in module.classes:
                qualname = module.classes[receiver.id].get(attr)
                return [self.functions[qualname]] if qualname else []
            imported = module.import_symbols.get(receiver.id)
            if imported is not None:
                resolved = self._resolve_symbol(f"{imported}.{attr}")
                if resolved is not None:
                    return [resolved]
        # Unknown receiver: conservative dynamic dispatch over every
        # project method of that name (never module-level functions —
        # those are reached by name or module attribute).
        return self._dispatch_by_name(attr)

    def _method_in_class(self, module: ModuleInfo, class_name: str,
                         attr: str) -> str | None:
        methods = module.classes.get(class_name)
        if methods is not None and attr in methods:
            return methods[attr]
        return None

    def _dispatch_by_name(self, attr: str) -> list[FunctionInfo]:
        if attr.startswith("__") and attr.endswith("__"):
            return []  # dunder protocol calls: noise, never collectives here
        return [
            self.functions[qualname]
            for qualname in self.methods_by_name.get(attr, ())
        ]
