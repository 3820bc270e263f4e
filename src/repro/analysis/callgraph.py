"""Import-resolving call graph over the analyzed tree.

The whole-program taint engine (:mod:`repro.analysis.taint`) needs two
ingredients:

* a per-file :class:`Resolver` that turns a name/attribute chain into a
  fully-qualified dotted name by walking the module's imports (``from
  repro.memsim import batch; batch.trace_plan`` resolves to
  ``repro.memsim.batch.trace_plan``), and
* a project-level :class:`CallGraph` that joins the per-file fragments
  and resolves call targets across files -- exact qualified names first,
  then ``Class.method`` suffix matches, then (for dynamic dispatch on an
  unknown receiver) *every* class method of that name in the tree: the
  documented over-approximation fallback.

Resolution is deterministic: candidates sort, and exact matches win
over suffix matches over dynamic fans.
"""

import ast
import os

from repro.analysis.model import import_map, resolve_relative

#: Marker prefix for an unresolved-receiver method call recorded by the
#: extractors; ``~dyn:name`` resolves to every class method called
#: ``name`` in the analyzed tree (over-approximation).
DYN_PREFIX = "~dyn:"


def _package_of(model):
    """The package a file's relative imports resolve against."""
    if os.path.basename(model.path) == "__init__.py":
        return model.module
    return model.module.rsplit(".", 1)[0] if "." in model.module else ""


class Resolver:
    """Resolve a name/attribute chain to a fully-qualified dotted name."""

    def __init__(self, model):
        self.module = model.module
        self.package = _package_of(model)
        self.imports = import_map(model.tree)
        self.local_defs = {
            node.name for node in model.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        }

    def qualify(self, chain):
        """Fully qualify ``chain`` or return ``None`` if unresolvable."""
        if chain is None:
            return None
        root, _, rest = chain.partition(".")
        target = self.imports.get(root)
        if target is not None:
            resolved = resolve_relative(target, self.package)
            return f"{resolved}.{rest}" if rest else resolved
        if root in self.local_defs:
            return f"{self.module}.{chain}"
        return None


def iter_functions(model):
    """``(local_qualname, func_node, class_name)`` for every function.

    Top-level functions yield ``("f", node, None)``; methods yield
    ``("Cls.f", node, "Cls")``.  Nested defs are left to the caller (the
    extractors merge them into their parent).
    """
    for node in model.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item, node.name


class CallGraph:
    """Joined call graph over per-file fact fragments.

    ``nodes`` maps fully-qualified function names to their fact dicts
    (whatever shape the extractor produced -- the graph only needs the
    names).  Targets recorded by the extractors come in three shapes:
    fully-qualified names, bare ``Class.method`` suffixes (self-calls and
    typed receivers), and ``~dyn:name`` dynamic-dispatch markers.
    """

    def __init__(self, nodes):
        self.nodes = dict(nodes)
        # Suffix index: "Cls.meth" -> [qualnames]; name index for ~dyn.
        self._suffix = {}
        self._methods = {}
        for qual in self.nodes:
            parts = qual.split(".")
            if len(parts) >= 2:
                self._suffix.setdefault(
                    ".".join(parts[-2:]), []).append(qual)
            if len(parts) >= 3:
                # module.Class.method shape: a class method.
                self._methods.setdefault(parts[-1], []).append(qual)

    def resolve(self, target):
        """All graph nodes a recorded call target may reach (sorted)."""
        if target in self.nodes:
            return [target]
        if target.startswith(DYN_PREFIX):
            return sorted(self._methods.get(target[len(DYN_PREFIX):], []))
        if "." in target:
            tail = ".".join(target.split(".")[-2:])
            return sorted(self._suffix.get(tail, []))
        return []
