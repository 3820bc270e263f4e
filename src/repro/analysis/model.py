"""Shared data model of the static-analysis pass.

A :class:`FileModel` is one parsed source file plus everything a rule needs
to judge it: the AST, the raw lines, the ``# repro: allow[RULE]``
suppression map, and the file's dotted module name (derived from the
``__init__.py`` chain, so the checker needs no import machinery).  A :class:`Finding` is one rule
violation, carrying the stripped source line it fired on.
"""

import ast
import os
import re
from dataclasses import asdict, dataclass

#: Inline suppression: ``# repro: allow[TNT001]`` or ``allow[*]``,
#: optionally followed by a justification.  A suppression applies to
#: findings on its own line and on the line directly below it, so it can
#: trail the offending statement or sit on its own line above it.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s*]+)\]")


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Stripped source text of ``line``.
    content: str = ""

    def as_dict(self):
        return asdict(self)

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)


def module_name(path):
    """Dotted module name of ``path``, walked up the ``__init__.py`` chain.

    A file outside any package is its own bare stem; ``__init__.py``
    itself names the package.
    """
    path = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    parts = [] if stem == "__init__" else [stem]
    d = os.path.dirname(path)
    while os.path.isfile(os.path.join(d, "__init__.py")):
        parts.insert(0, os.path.basename(d))
        parent = os.path.dirname(d)
        if parent == d:
            break
        d = parent
    return ".".join(parts) or stem


def parse_suppressions(lines):
    """``{line_number: set_of_rule_ids}`` for every allow comment."""
    out = {}
    for i, text in enumerate(lines, start=1):
        m = _ALLOW_RE.search(text)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            out.setdefault(i, set()).update(rules)
    return out


class FileModel:
    """One analyzed source file (see module docstring)."""

    def __init__(self, path, text):
        self.path = os.path.abspath(path)
        self.lines = text.splitlines()
        self.module = module_name(path)
        self.tree = ast.parse(text, filename=path)
        self.suppressions = parse_suppressions(self.lines)

    # -- helpers for rules -------------------------------------------------

    def line_content(self, lineno):
        """Stripped source text of ``lineno`` (1-based; '' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def dotted_chain(node):
    """The dotted name of an attribute chain rooted at a plain name.

    ``a.b.c`` -> ``"a.b.c"``; returns ``None`` for anything rooted in a
    call, subscript, or other non-name expression.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_map(tree):
    """``{local_name: dotted_target}`` for a module's import statements.

    ``import a.b`` binds ``a`` to ``a``; ``import a.b as c`` binds ``c`` to
    ``a.b``; ``from a.b import c as d`` binds ``d`` to ``a.b.c``.  Relative
    imports are resolved by the caller (they need the importing module's
    package); here they keep a leading ``.`` per level.
    """
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    out[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{prefix}.{alias.name}" if prefix else alias.name
                out[alias.asname or alias.name] = target
    return out


def resolve_relative(target, package):
    """Resolve a leading-dot import target against the containing package.

    ``package`` is the importing file's package (for ``pkg/__init__.py``
    the package itself, for ``pkg/mod.py`` still ``pkg``): one leading dot
    means ``package``, each further dot one level up.
    """
    if not target.startswith("."):
        return target
    level = len(target) - len(target.lstrip("."))
    base = package.split(".") if package else []
    if level > 1:
        base = base[: max(0, len(base) - (level - 1))]
    rest = target.lstrip(".")
    return ".".join(base + ([rest] if rest else []))
