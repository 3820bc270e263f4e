"""Per-function effect summaries over oracle-visible simulator state.

The replay kernels are only trustworthy because they mutate *exactly* the
state the scalar oracle mutates (PR 6/7's bit-identity suite proves it at
runtime, query by query).  This module proves a necessary condition
statically: it extracts, for every function in the tree, which **atoms**
of oracle state the function may read or write, propagates the summaries
bottom-up through the call graph (fixpoint over cycles), and lets the
kernel state-equivalence rule diff the scalar engine's transitive
summary against the fast paths'.

Atoms name the machine state the paper's numbers depend on::

    stats.<counter>      MachineStats slots (l1_reads, l2_read_misses...)
    cpu.<slot>           CpuStats slots (busy, msync, mem_by_class...)
    l1.sets/seen/inv     L1 tag state (per-set LRU lists, footprint sets)
    l2.sets/seen/inv     L2 tag state
    cache.sets/...       a Cache whose level could not be determined
    wb.entries/completion/stall_cycles    write-buffer state
    dir.sharers/dirty    directory state
    machine.pending/port machine-level fill/port bookkeeping

Ops distinguish *how* state moves: container-method names (``append``,
``insert``, ``remove``, ``pop``, ``popleft``, ``add``, ``discard``,
``clear``, ``setdefault``, ``update``, ``extend``, ``appendleft``,
``popitem``), ``setitem``/``delitem`` for subscripts, and ``store`` for
attribute stores.  The (atom, op) pair is the diff granularity: PR 7's
unsound victim probe *appended* to an L2 set -- an op the scalar oracle
never performs on ``l2.sets`` (it only front-inserts, removes and pops),
so the probe diffs even though the atom itself is shared.

Tracking is a small abstract interpreter per function body: parameters
named/typed as machine objects seed abstract values, and assignments,
tuple packing/unpacking (the kernels' per-CPU context tuples), list
comprehensions, bound-method aliases and branch merges propagate them.
Unknown receivers *under*-approximate writes (we never claim a write we
cannot see) but *over*-approximate calls: a method call on an unknown
receiver fans out to every same-named class method in the tree (see
:mod:`repro.analysis.callgraph`), so a dynamically-dispatched helper's
effects still reach its callers' summaries.
"""

import ast
import os

from repro.analysis.callgraph import DYN_PREFIX, CallGraph, Resolver, \
    iter_functions
from repro.analysis.model import Finding, dotted_chain

#: Container methods that mutate their receiver (the op name is the
#: method name).
MUTATORS = {"append", "appendleft", "add", "insert", "remove", "discard",
            "pop", "popleft", "popitem", "clear", "update", "setdefault",
            "extend"}

#: Mutators that also *return* an element of the receiver, so the result
#: keeps the receiver's atom (``holders = sharers.setdefault(k, set())``).
_ELEMENT_RETURNING = {"get", "setdefault", "pop", "popleft", "popitem"}

#: Method names that never resolve to user code worth fanning out to.
#: Method names too common to dynamic-dispatch on: a ``.get()`` or
#: ``.append()`` on an unknown receiver is a container operation, not a
#: call into analyzed code.  Public: the taint engine shares the list.
DYN_NOISE = MUTATORS | {
    "get", "keys", "values", "items", "copy", "count", "index", "sort",
    "join", "split", "strip", "format", "encode", "decode", "startswith",
    "endswith", "read", "write", "flush", "close", "bit_length",
}
_DYN_NOISE = DYN_NOISE

_STATS_FIELDS = ("l1_reads", "l1_writes", "l2_reads", "l1_read_misses",
                 "l2_read_misses", "l1_write_misses", "l2_write_misses",
                 "prefetches_issued", "prefetch_late_cycles")
_CPU_FIELDS = ("busy", "msync", "mem_by_class", "finish_time", "events")


def _cache_attrs(prefix):
    return {
        "_sets": ("lst", ("st", f"{prefix}.sets")),
        "_seen": ("st", f"{prefix}.seen"),
        "_invalidated": ("st", f"{prefix}.inv"),
        "size": None, "line_size": None, "line_shift": None,
        "assoc": None, "n_sets": None, "_set_mask": None, "name": None,
    }


#: Abstract object kinds: per-kind attribute map, class name for method
#: fallback, and (for Cache kinds) the atom prefix its methods bind to.
#: ``@cache`` is the parametric prefix used inside ``Cache`` methods; call
#: edges substitute it with the receiver's level (l1/l2) at propagation.
_OBJ_SPEC = {
    "machine": {
        "class": "NumaMachine",
        "attrs": {
            "stats": ("obj", "stats"),
            "l1": ("lst", ("obj", "l1cache")),
            "l2": ("lst", ("obj", "l2cache")),
            "wb": ("lst", ("obj", "wb")),
            "directory": ("obj", "dir"),
            "_l1_sets": ("lst", ("lst", ("st", "l1.sets"))),
            "_l2_sets": ("lst", ("lst", ("st", "l2.sets"))),
            "_pending_fill": ("st", "machine.pending"),
            "_port_free": ("st", "machine.port"),
            "config": None, "home_fn": None,
            "_l1_shift": None, "_l2_shift": None, "_ratio_shift": None,
            "_l1_mask": None, "_l2_mask": None,
            "_wb_retire": None, "_prefetch_data": None,
            "lat_l2": None, "lat_local": None, "lat_2hop": None,
            "lat_3hop": None,
        },
    },
    "stats": {
        "class": "MachineStats",
        "attrs": {f: ("st", f"stats.{f}") for f in _STATS_FIELDS},
    },
    "cpu": {
        "class": "CpuStats",
        "attrs": {f: ("st", f"cpu.{f}") for f in _CPU_FIELDS},
    },
    "l1cache": {"class": "Cache", "prefix": "l1",
                "attrs": _cache_attrs("l1")},
    "l2cache": {"class": "Cache", "prefix": "l2",
                "attrs": _cache_attrs("l2")},
    "cache_self": {"class": "Cache", "prefix": "@cache",
                   "attrs": _cache_attrs("@cache")},
    "wb": {
        "class": "WriteBuffer",
        "attrs": {"entries": ("st", "wb.entries"),
                  "_last_completion": ("st", "wb.completion"),
                  "stall_cycles": ("st", "wb.stall_cycles"),
                  "capacity": None},
    },
    "dir": {
        "class": "Directory",
        "attrs": {"_sharers": ("st", "dir.sharers"),
                  "_dirty": ("st", "dir.dirty"),
                  "n_nodes": None},
    },
    "interleaver": {
        "class": "Interleaver",
        "attrs": {"machine": ("obj", "machine"), "spin_interval": None},
    },
    "runresult": {
        "class": "RunResult",
        "attrs": {"machine": ("obj", "machine"),
                  "cpu_stats": ("lst", ("obj", "cpu"))},
    },
}

#: ``self`` inside these classes is the given abstract object.
_CLASS_SELF = {spec["class"]: kind for kind, spec in _OBJ_SPEC.items()}

#: Instantiating these classes yields the given abstract object.
_CLASS_INSTANCE = {"NumaMachine": "machine", "MachineStats": "stats",
                   "CpuStats": "cpu", "WriteBuffer": "wb",
                   "Directory": "dir", "Interleaver": "interleaver",
                   "RunResult": "runresult"}

#: Parameters seeding abstract values by name (module-level helpers that
#: take the machine explicitly, e.g. the batch/horizon planners).
_PARAM_SEEDS = {"machine": ("obj", "machine")}


def _merge_av(a, b):
    """Join two abstract values from merging branches.

    Prefers the known side (``x if cond else None`` keeps ``x``'s value);
    conflicting known values fall to unknown -- the extractor never
    over-claims a write.
    """
    if a == b:
        return a
    if a is None:
        return b
    if b is None:
        return a
    if (isinstance(a, tuple) and isinstance(b, tuple)
            and a[0] == b[0] == "tup" and len(a[1]) == len(b[1])):
        return ("tup", tuple(_merge_av(x, y) for x, y in zip(a[1], b[1])))
    if (isinstance(a, tuple) and isinstance(b, tuple)
            and a[0] == b[0] == "lst"):
        return ("lst", _merge_av(a[1], b[1]))
    return None


class _FunctionExtractor:
    """One function body's abstract walk: effects, calls, reads."""

    def __init__(self, model, resolver, class_name):
        self.model = model
        self.resolver = resolver
        self.class_name = class_name
        self.env = {}
        self.writes = {}   # (atom, op, line) -> (content, covered)
        self.reads = {}    # atom -> first line
        self.calls = {}    # (target, prefix, line) kept insertion-ordered

    # -- recording ---------------------------------------------------------

    def _write(self, atom, op, line):
        key = (atom, op, line)
        if key not in self.writes:
            self.writes[key] = (self.model.line_content(line),
                                self.model.is_covered(line, atom, op))

    def _read(self, atom, line):
        self.reads.setdefault(atom, line)

    def _call(self, target, prefix, line):
        self.calls.setdefault((target, prefix or "", line), None)

    # -- abstract evaluation ----------------------------------------------

    def eval(self, node):  # noqa: C901 -- one dispatch table, kept flat
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Tuple):
            return ("tup", tuple(self.eval(e) for e in node.elts))
        if isinstance(node, ast.List):
            elem = None
            for e in node.elts:
                elem = _merge_av(elem, self.eval(e))
            return ("lst", elem)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return _merge_av(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.BinOp):
            left, right = self.eval(node.left), self.eval(node.right)
            if (isinstance(node.op, ast.Add)
                    and isinstance(left, tuple) and isinstance(right, tuple)
                    and left[0] == right[0] == "tup"):
                return ("tup", left[1] + right[1])
            return None
        if isinstance(node, ast.BoolOp):
            out = None
            for v in node.values:
                out = _merge_av(out, self.eval(v))
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(node)
        if isinstance(node, ast.DictComp):
            self._eval_comp(node)
            return None
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for c in node.comparators:
                self.eval(c)
            return None
        if isinstance(node, (ast.UnaryOp,)):
            self.eval(node.operand)
            return None
        if isinstance(node, ast.Lambda):
            return None
        if isinstance(node, ast.JoinedStr):
            for v in node.values:
                self.eval(v)
            return None
        if isinstance(node, ast.FormattedValue):
            self.eval(node.value)
            return None
        if isinstance(node, (ast.Dict, ast.Set)):
            for child in ast.iter_child_nodes(node):
                self.eval(child)
            return None
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                self.eval(part)
            return None
        return None

    def _state_of(self, av, line):
        """Record a read and return the atom if ``av`` is oracle state."""
        if isinstance(av, tuple) and av[0] == "st":
            self._read(av[1], line)
            return av[1]
        return None

    def _eval_attribute(self, node):
        base = self.eval(node.value)
        if isinstance(base, tuple) and base[0] == "obj":
            spec = _OBJ_SPEC[base[1]]
            attrs = spec.get("attrs", {})
            if node.attr in attrs:
                av = attrs[node.attr]
                self._state_of(av, node.lineno)
                return av
            cls = spec.get("class")
            if cls:
                return ("fn", f"{cls}.{node.attr}", spec.get("prefix"))
            return None
        if isinstance(base, tuple) and base[0] == "st":
            # A container method pulled off oracle state without being
            # called yet: a bound mutator/reader alias (wb_pop/wb_app).
            return ("bm", base[1], node.attr)
        return None

    def _eval_subscript(self, node):
        base = self.eval(node.value)
        self.eval(node.slice)
        if isinstance(base, tuple):
            if base[0] == "lst":
                if isinstance(base[1], tuple) and base[1][0] == "st":
                    self._state_of(base[1], node.lineno)
                return base[1]
            if base[0] == "st":
                # Indexing into oracle state yields oracle state (grid
                # rows, per-set ways lists, directory values).
                self._state_of(base, node.lineno)
                return base
            if base[0] == "tup" and isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, int):
                idx = node.slice.value
                if 0 <= idx < len(base[1]):
                    return base[1][idx]
        return None

    def _eval_comp(self, node):
        saved = dict(self.env)
        for gen in node.generators:
            elem = self._iter_elem(self.eval(gen.iter))
            self._bind(gen.target, elem)
            for cond in gen.ifs:
                self.eval(cond)
        if isinstance(node, ast.DictComp):
            self.eval(node.key)
            result = None
            self.eval(node.value)
        else:
            result = ("lst", self.eval(node.elt))
        self.env = saved
        return result

    def _iter_elem(self, av):
        if isinstance(av, tuple):
            if av[0] == "lst":
                return av[1]
            if av[0] == "st":
                return av
        return None

    def _eval_call(self, node):
        for arg in node.args:
            self.eval(arg)
        for kw in node.keywords:
            self.eval(kw.value)
        func = node.func
        if isinstance(func, ast.Name):
            return self._call_name(node, func)
        if isinstance(func, ast.Attribute):
            return self._call_attribute(node, func)
        # Calling the result of an expression (ctx[3](), chained calls):
        # dispatch on the callee's abstract value.
        callee = self.eval(func)
        return self._call_av(node, callee)

    def _call_av(self, node, callee):
        if isinstance(callee, tuple):
            if callee[0] == "bm":
                return self._method_effect(callee[1], callee[2],
                                           node.lineno)
            if callee[0] == "fn":
                self._call(callee[1], callee[2], node.lineno)
                return None
        return None

    def _call_name(self, node, func):
        av = self.env.get(func.id)
        if av is not None:
            return self._call_av(node, av)
        qualified = self.resolver.qualify(func.id)
        tail = (qualified or func.id).rsplit(".", 1)[-1]
        if tail in _CLASS_INSTANCE:
            return ("obj", _CLASS_INSTANCE[tail])
        if qualified is not None:
            self._call(qualified, None, node.lineno)
        return None

    def _call_attribute(self, node, func):
        chain = dotted_chain(func)
        if chain is not None and not chain.startswith("self."):
            root = chain.partition(".")[0]
            if root not in self.env:
                qualified = self.resolver.qualify(chain)
                if qualified is not None:
                    tail = qualified.rsplit(".", 1)[-1]
                    if tail in _CLASS_INSTANCE:
                        return ("obj", _CLASS_INSTANCE[tail])
                    self._call(qualified, None, node.lineno)
                    return None
        base = self.eval(func.value)
        if isinstance(base, tuple) and base[0] == "st":
            return self._method_effect(base[1], func.attr, node.lineno)
        if isinstance(base, tuple) and base[0] == "obj":
            spec = _OBJ_SPEC[base[1]]
            attrs = spec.get("attrs", {})
            if func.attr in attrs:
                av = attrs[func.attr]
                if isinstance(av, tuple) and av[0] == "st":
                    return self._method_effect(av[1], func.attr,
                                               node.lineno)
                return None
            cls = spec.get("class")
            if cls:
                self._call(f"{cls}.{func.attr}", spec.get("prefix"),
                           node.lineno)
            return None
        if isinstance(base, tuple) and base[0] == "lst" \
                and func.attr == "append" and isinstance(func.value,
                                                         ast.Name):
            # Accumulator refinement: appending to a tracked local list
            # widens its element value (the kernels' ctxs pattern).
            arg = self.eval(node.args[0]) if node.args else None
            self.env[func.value.id] = ("lst", _merge_av(base[1], arg))
            return None
        if base is None and func.attr not in _DYN_NOISE \
                and not func.attr.startswith("__"):
            # Unknown receiver: over-approximate via dynamic dispatch.
            self._call(DYN_PREFIX + func.attr, None, node.lineno)
        return None

    def _method_effect(self, atom, method, line):
        if method in MUTATORS:
            self._write(atom, method, line)
            if method in _ELEMENT_RETURNING:
                return ("st", atom)
            return None
        if method in _ELEMENT_RETURNING:
            return ("st", atom)
        return None

    # -- statements --------------------------------------------------------

    def _bind(self, target, av):
        if isinstance(target, ast.Name):
            self.env[target.id] = av
        elif isinstance(target, (ast.Tuple, ast.List)):
            avs = av[1] if (isinstance(av, tuple) and av[0] == "tup"
                            and len(av[1]) == len(target.elts)) else None
            for i, elt in enumerate(target.elts):
                self._bind(elt, avs[i] if avs else None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self._store(target)

    def _store(self, target):
        """A subscript/attribute store target: record the write."""
        if isinstance(target, ast.Subscript):
            base = self.eval(target.value)
            self.eval(target.slice)
            atom = None
            if isinstance(base, tuple):
                if base[0] == "st":
                    atom = base[1]
                elif base[0] == "lst" and isinstance(base[1], tuple) \
                        and base[1][0] == "st":
                    # Storing into a list-of-state slot replaces a state
                    # container wholesale; count it against the atom.
                    atom = base[1][1]
            if atom:
                self._write(atom, "setitem", target.lineno)
        elif isinstance(target, ast.Attribute):
            base = self.eval(target.value)
            if isinstance(base, tuple) and base[0] == "obj":
                av = _OBJ_SPEC[base[1]].get("attrs", {}).get(target.attr)
                if isinstance(av, tuple) and av[0] == "st":
                    self._write(av[1], "store", target.lineno)
                elif av is not None:
                    # Rebinding a structural attribute (machine.stats = ...)
                    self._write(f"{base[1]}.{target.attr}", "store",
                                target.lineno)
            elif isinstance(base, tuple) and base[0] == "st":
                self._write(base[1], "store", target.lineno)

    def exec_stmt(self, stmt):  # noqa: C901 -- one dispatch table
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            value = self.eval(stmt.value) if stmt.value else None
            self._bind(stmt.target, value)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value)
            if isinstance(stmt.target, (ast.Subscript, ast.Attribute)):
                self._store(stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    base = self.eval(target.value)
                    self.eval(target.slice)
                    if isinstance(base, tuple) and base[0] == "st":
                        self._write(base[1], "delitem", target.lineno)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            elem = self._iter_elem(self.eval(stmt.iter))
            self._bind(stmt.target, elem)
            # Two passes approximate the loop fixpoint: aliases defined
            # late in the body are visible on the second pass.
            for _ in range(2):
                for s in stmt.body:
                    self.exec_stmt(s)
            for s in stmt.orelse:
                self.exec_stmt(s)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for _ in range(2):
                for s in stmt.body:
                    self.exec_stmt(s)
            for s in stmt.orelse:
                self.exec_stmt(s)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            for s in stmt.body:
                self.exec_stmt(s)
            after_body = self.env
            self.env = dict(before)
            for s in stmt.orelse:
                self.exec_stmt(s)
            merged = {}
            for name in sorted(set(after_body) | set(self.env)):
                in_body = after_body.get(name, before.get(name))
                in_else = self.env.get(name, before.get(name))
                merged[name] = _merge_av(in_body, in_else)
            self.env = merged
        elif isinstance(stmt, ast.Try):
            for s in stmt.body:
                self.exec_stmt(s)
            for handler in stmt.handlers:
                for s in handler.body:
                    self.exec_stmt(s)
            for s in stmt.orelse:
                self.exec_stmt(s)
            for s in stmt.finalbody:
                self.exec_stmt(s)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None)
            for s in stmt.body:
                self.exec_stmt(s)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def's effects belong to its parent: walk its body
            # with a copy of the current env.
            saved = dict(self.env)
            for s in stmt.body:
                self.exec_stmt(s)
            self.env = saved
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def run(self, func):
        args = func.args
        for a in (args.posonlyargs + args.args + args.kwonlyargs):
            if a.arg == "self" and self.class_name in _CLASS_SELF:
                self.env[a.arg] = ("obj", _CLASS_SELF[self.class_name])
            elif a.arg in _PARAM_SEEDS:
                self.env[a.arg] = _PARAM_SEEDS[a.arg]
        # Two passes over the body: forward references through aliases
        # bound later (helper lambdas, late ctx construction) resolve on
        # the second pass; effect sites dedupe by (atom, op, line).
        for _ in range(2):
            for stmt in func.body:
                self.exec_stmt(stmt)


def collect_facts(model):
    """The file's effect-summary fragment (picklable, JSON-able)."""
    resolver = Resolver(model)
    functions = {}
    for local_qual, func, class_name in iter_functions(model):
        try:
            ex = _FunctionExtractor(model, resolver, class_name)
            ex.run(func)
            info = {
                "line": func.lineno,
                "writes": sorted(
                    [atom, op, line, content, covered]
                    for (atom, op, line), (content, covered)
                    in ex.writes.items()),
                "reads": sorted([atom, line]
                                for atom, line in ex.reads.items()),
                "calls": sorted([target, prefix, line]
                                for target, prefix, line in ex.calls),
            }
        except Exception as exc:  # noqa: BLE001 -- never fail the pass
            info = {"line": func.lineno, "writes": [], "reads": [],
                    "calls": [], "error": f"{type(exc).__name__}: {exc}"}
        functions[f"{model.module}.{local_qual}"] = info
    return {"module": model.module, "path": model.path,
            "functions": functions}


# -- project-level propagation --------------------------------------------

_SITE_CAP = 8


def _subst(atom, prefix):
    """Substitute the parametric ``@cache`` prefix at a call edge."""
    if atom.startswith("@cache."):
        return (prefix or "cache") + atom[len("@cache"):]
    return atom


def build_graph(fx_list):
    """Join per-file fragments into a :class:`CallGraph`."""
    nodes = {}
    for facts in fx_list:
        for qual, info in facts["functions"].items():
            nodes[qual] = dict(info, path=facts["path"],
                               module=facts["module"])
    return CallGraph(nodes)


def summarize(fx_list):
    """Transitive effect summaries: ``(summaries, graph)``.

    ``summaries[qual]["writes"]`` maps ``(atom, op)`` to a site list
    (``[path, line, content, covered]``, capped); ``["reads"]`` is the
    transitive atom set.  Bottom-up fixpoint over the call graph --
    cycles converge because summaries only grow.
    """
    graph = build_graph(fx_list)
    summaries = {}
    edges = {}
    for qual, info in graph.nodes.items():
        writes = {}
        for atom, op, line, content, covered in info.get("writes", ()):
            writes.setdefault((atom, op), []).append(
                [info["path"], line, content, covered])
        summaries[qual] = {
            "writes": writes,
            "reads": {atom for atom, _line in info.get("reads", ())},
        }
        out = []
        for target, prefix, _line in info.get("calls", ()):
            for callee in graph.resolve(target):
                if callee != qual:
                    out.append((callee, prefix))
        edges[qual] = sorted(set(out))

    order = sorted(summaries)
    changed = True
    while changed:
        changed = False
        for qual in order:
            summary = summaries[qual]
            for callee, prefix in edges[qual]:
                callee_summary = summaries[callee]
                for (atom, op), sites in callee_summary["writes"].items():
                    key = (_subst(atom, prefix), op)
                    slot = summary["writes"].setdefault(key, [])
                    for site in sites:
                        if site not in slot:
                            if len(slot) < _SITE_CAP:
                                slot.append(site)
                                changed = True
                for atom in callee_summary["reads"]:
                    atom = _subst(atom, prefix)
                    if atom not in summary["reads"]:
                        summary["reads"].add(atom)
                        changed = True
    return summaries, graph


def format_summaries(summaries, *, match=None, root=None):
    """Human-readable effect summaries for the ``effects`` CLI command."""
    lines = []
    for qual in sorted(summaries):
        if match and match not in qual:
            continue
        summary = summaries[qual]
        if not summary["writes"] and not summary["reads"]:
            continue
        lines.append(qual)
        for (atom, op), sites in sorted(summary["writes"].items()):
            site = sites[0]
            path = site[0]
            if root:
                try:
                    path = os.path.relpath(path, root)
                except ValueError:
                    pass
            suffix = " oracle-covered" if all(s[3] for s in sites) else ""
            lines.append(f"  W {atom}:{op}  ({len(sites)} site"
                         f"{'s' if len(sites) != 1 else ''}, e.g. "
                         f"{path}:{site[1]}){suffix}")
        reads = sorted(summary["reads"])
        if reads:
            lines.append(f"  R {', '.join(reads)}")
    return "\n".join(lines) if lines else "(no oracle-state effects)"


class KernelEquivalenceRule:
    """KRN001/KRN002 -- kernel state-equivalence vs the scalar oracle.

    KRN001
        A function in a *planner* module (``repro.memsim.batch``,
        ``repro.memsim.horizon``) transitively writes oracle state.
        Planners run at trace-combination time and are memoized across
        replays; a write would leak one replay's state into the next.
    KRN002
        A fast-path engine's transitive write set contains an
        ``(atom, op)`` pair the scalar oracle's does not, and the
        mutation site carries no ``# repro: oracle-covered[...]``
        contract.  This is the static form of the bit-identity suite:
        PR 7's victim-only eviction probe (pop + *append* on an L2 way
        list, an op the oracle never performs) diffs here instead of
        surfacing as one wrong counter in Q1.
    """

    catalogue = (
        ("KRN001", "planner function transitively mutates oracle state"),
        ("KRN002", "fast replay path mutates oracle state the scalar "
                   "oracle never does"),
    )
    facts_key = "fx"

    def __init__(self, scalar_roots=("Interleaver._run_traces_scalar",),
                 fast_roots=(("batched", "Interleaver._run_traces_batched"),
                             ("horizon", "Interleaver._run_traces_horizon")),
                 planner_modules=("repro.memsim.batch",
                                  "repro.memsim.horizon")):
        self.scalar_roots = scalar_roots
        self.fast_roots = fast_roots
        self.planner_modules = planner_modules

    def check_project(self, fx_list):
        summaries, graph = summarize(fx_list)
        out = []

        for qual, info in sorted(graph.nodes.items()):
            if info["module"] not in self.planner_modules:
                continue
            seen = set()
            for (atom, op), sites in sorted(
                    summaries[qual]["writes"].items()):
                if (atom, op) in seen:
                    continue
                seen.add((atom, op))
                path, line, content, _covered = sites[0]
                out.append(Finding(
                    rule="KRN001", path=path, line=line, col=0,
                    message=(f"planner function '{qual}' may mutate oracle "
                             f"state '{atom}' ({op}); planner results are "
                             "memoized across replays, so planners must "
                             "be pure readers of machine state"),
                    content=content))

        scalar_pairs = set()
        scalar_found = False
        for suffix in self.scalar_roots:
            for root in graph.roots_matching(suffix):
                scalar_found = True
                scalar_pairs.update(summaries[root]["writes"])
        if not scalar_found:
            return out

        for kernel, suffix in self.fast_roots:
            for root in graph.roots_matching(suffix):
                for (atom, op), sites in sorted(
                        summaries[root]["writes"].items()):
                    if (atom, op) in scalar_pairs:
                        continue
                    for path, line, content, covered in sites:
                        if covered:
                            continue
                        out.append(Finding(
                            rule="KRN002", path=path, line=line, col=0,
                            message=(f"{kernel} fast path ('{root}') "
                                     f"mutates oracle state '{atom}' via "
                                     f"'{op}', which the scalar oracle "
                                     "never does; fall back to the scalar "
                                     "path there, or prove bit-identity "
                                     "and declare the contract with "
                                     f"'# repro: oracle-covered"
                                     f"[{atom}:{op}]'"),
                            content=content))
        return out


PROJECT_RULES = [KernelEquivalenceRule()]
