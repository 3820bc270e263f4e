"""TNT: interprocedural determinism taint analysis.

This engine tracks nondeterminism *flows*: a wall-clock read, an
unseeded RNG draw, ambient entropy, a pid, an environment read, or
set-iteration order is only a correctness bug when its value reaches a
**result-affecting sink** -- trace encoding, metric counters, report
hashes, or ledger records.  Flows are tracked through assignments,
containers, and *across function boundaries* via the call graph: a
helper that returns ``time.time()`` taints every caller's use of it, and
a wrapper that forwards its argument into ``summary_hash`` makes every
tainted call site a finding.

The model is deliberately conservative in one direction each way:

* **Sources under-approximate nothing**: every catalog hit registers,
  and a call that cannot be resolved to analyzed code is treated as a
  *passthrough* (tainted arguments taint the result) -- the dynamic-
  dispatch over-approximation.
* **Sinks are an explicit catalog**: result-affecting call targets, not
  "anything that writes".

Suppressions: ``# repro: allow[TNT001]`` (or ``allow[*]``) on the
*source* line defuses the source itself.  On a *sink* line it is
suppression at the taint edge: the engine's standard line/line-1
suppression silences the sink's own finding, and the solver stops
parameters flowing into that sink, so callers are not flagged either.
``sorted(...)`` strips set-order taint (it re-imposes a deterministic
order) while passing every other kind through.

Fixpoints are computed over three monotone predicates per function:
returns-tainted (R), parameter-flows-to-return (PR), and parameter-
flows-to-sink (PS); cycles in the call graph converge because the
predicates only grow.
"""

import ast

from repro.analysis.callgraph import DYN_PREFIX, CallGraph, Resolver, \
    iter_functions
from repro.analysis.model import Finding, dotted_chain, resolve_relative

RULE_ID = "TNT001"
RULE_TITLE = "nondeterministic source flows to a result-affecting sink"

#: Allow-comment ids that defuse a source or a sink at its own line.
_ALLOW = {RULE_ID, "*"}

#: Wall-clock reads.  Monotonic clocks (``perf_counter``, ``monotonic``)
#: are not sources: timing *measurement* is fine, timing *data* is not.
WALL_CLOCKS = {
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Ambient entropy: calls, and modules whose every call is a source.
ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4", "os.getrandbits"}
ENTROPY_MODULES = ("secrets",)

#: Module-global RNG entry points that are fine: seeding/instantiating
#: (an unseeded ``random.Random()`` is caught before this is consulted).
RANDOM_OK = {"random.Random", "random.SystemRandom", "random.seed",
             "random.getstate", "random.setstate"}

#: Fully-qualified call targets that are result-affecting sinks.
SINK_FUNCTIONS = {
    "repro.obs.report.summary_hash": "summary_hash (report result hash)",
    "repro.core.tracestore.save_trace": "save_trace (trace encoding)",
}

#: Method-call tails that are result-affecting sinks wherever they
#: resolve (metric mutation, trace recording, ledger completion).
SINK_METHODS = {
    "summary_hash": "summary_hash (report result hash)",
    "save_trace": "save_trace (trace encoding)",
    "record": "record (trace recording)",
    "inc": "inc (metric counter)",
    "observe": "observe (metric histogram)",
    "complete": "complete (ledger record)",
}

_PID_SOURCES = {"os.getpid", "os.getppid", "threading.get_ident",
                "threading.get_native_id"}

_ENV_CALLS = {"os.getenv", "os.environ.get", "os.environ.items",
              "os.environ.keys"}

#: Container-mutator method names: calling one with a tainted argument
#: taints the receiver (the container now *contains* the taint).
_CONTAINER_MUT = {"append", "appendleft", "add", "insert", "extend",
                  "update", "setdefault", "push"}

#: Method names too common to dynamic-dispatch on: a ``.get()`` or
#: ``.append()`` on an unknown receiver is a container operation, not a
#: call into analyzed code.
DYN_NOISE = {
    "append", "appendleft", "add", "insert", "remove", "discard", "pop",
    "popleft", "popitem", "clear", "update", "setdefault", "extend",
    "get", "keys", "values", "items", "copy", "count", "index", "sort",
    "join", "split", "strip", "format", "encode", "decode", "startswith",
    "endswith", "read", "write", "flush", "close", "bit_length",
}


def _is_set_expr(node, set_names):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


class _FunctionTaint:
    """Extract one function's taint facts: sources, calls, sinks, return.

    Tokens are JSON-able: ``["s", i]`` (source i), ``["p", j]`` (parameter
    j), ``["c", k]`` (the return value of call k).
    """

    def __init__(self, model, resolver, class_name):
        self.model = model
        self.resolver = resolver
        self.class_name = class_name
        self.env = {}          # name -> frozenset of token tuples
        self.set_names = set()
        self.sources = []
        self.calls = []
        self.sinks = []
        self.ret = set()

    # -- bookkeeping -------------------------------------------------------

    def _allowed(self, line):
        return any(self.model.suppressions.get(ln, set()) & _ALLOW
                   for ln in (line, line - 1))

    def _source(self, kind, line, label):
        idx = len(self.sources)
        self.sources.append({"kind": kind, "line": line, "label": label,
                             "suppressed": self._allowed(line)})
        return frozenset({("s", idx)})

    def _record_call(self, target, line, arg_tokens, extra_tokens):
        idx = len(self.calls)
        self.calls.append({
            "target": target or "",
            "line": line,
            "args": [sorted(map(list, toks)) for toks in arg_tokens],
            "extra": sorted(map(list, extra_tokens)),
        })
        return frozenset({("c", idx)})

    def _record_sink(self, name, line, tokens):
        self.sinks.append({"name": name, "line": line,
                           "content": self.model.line_content(line),
                           "tokens": sorted(map(list, tokens)),
                           "suppressed": self._allowed(line)})

    # -- expression walk ---------------------------------------------------

    def tokens(self, node):  # noqa: C901 -- one dispatch table, kept flat
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Call):
            return self._call_tokens(node)
        if isinstance(node, ast.Attribute):
            chain = dotted_chain(node)
            if chain is not None:
                resolved = self._resolve_chain(chain)
                if resolved == "os.environ":
                    return self._source("env", node.lineno, chain)
            return self.tokens(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            return self._comp_tokens(node)
        if isinstance(node, ast.IfExp):
            return (self.tokens(node.test) | self.tokens(node.body)
                    | self.tokens(node.orelse))
        if isinstance(node, ast.NamedExpr):
            toks = self.tokens(node.value)
            if isinstance(node.target, ast.Name):
                self._assign_name(node.target.id, toks)
            return toks
        out = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.tokens(child)
        return out

    def _resolve_chain(self, chain):
        if chain is None:
            return None
        root, _, rest = chain.partition(".")
        if root in self.env:
            return None  # shadowed by a local binding
        target = self.resolver.imports.get(root)
        if target is None:
            if root in self.resolver.local_defs:
                return f"{self.resolver.module}.{chain}"
            return chain
        resolved = resolve_relative(target, self.resolver.package)
        return f"{resolved}.{rest}" if rest else resolved

    def _source_for_call(self, node, resolved):
        """A source token set if this call reads a nondeterminism source."""
        if resolved is None:
            return None
        if resolved in WALL_CLOCKS:
            return self._source("wall-clock", node.lineno, resolved)
        if resolved in _PID_SOURCES:
            return self._source("pid", node.lineno, resolved)
        if resolved in _ENV_CALLS or resolved == "os.environ":
            return self._source("env", node.lineno, resolved)
        if (resolved in ENTROPY
                or resolved.split(".")[0] in ENTROPY_MODULES):
            return self._source("entropy", node.lineno, resolved)
        if resolved in ("random.Random", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                return self._source("rng", node.lineno, resolved)
            return frozenset()  # seeded: deterministic
        if resolved in RANDOM_OK:
            return frozenset()
        if resolved.startswith("random.") and resolved.count(".") == 1:
            return self._source("rng", node.lineno, resolved)
        return None

    def _call_tokens(self, node):
        arg_tokens = [self.tokens(a) for a in node.args]
        extra = frozenset()
        for kw in node.keywords:
            extra |= self.tokens(kw.value)

        func = node.func
        chain = dotted_chain(func)
        resolved = None
        if isinstance(func, ast.Name):
            if func.id == "sorted" and arg_tokens:
                # sorted() re-imposes a deterministic order: strip
                # set-order taint, pass every other kind through.
                kept = {tok for tok in arg_tokens[0]
                        if not (tok[0] == "s" and self.sources[tok[1]]
                                ["kind"] == "set-order")}
                for toks in arg_tokens[1:]:
                    kept |= toks
                return frozenset(kept) | extra
            resolved = self._resolve_chain(func.id)
        elif chain is not None:
            if chain.startswith("self.") and self.class_name:
                resolved = (f"{self.resolver.module}.{self.class_name}."
                            f"{chain.split('.', 1)[1]}")
            else:
                resolved = self._resolve_chain(chain)

        src = self._source_for_call(node, resolved)
        if src is not None:
            return src | extra

        # A method on an unresolved receiver returns something derived
        # from it: ``rng = random.Random(); rng.random()`` must carry the
        # unseeded instance's taint into the draw.
        receiver = frozenset()
        if resolved is None and isinstance(func, ast.Attribute):
            receiver = self.tokens(func.value)

        # Materializing a set feeds hash order into a sequence.
        if isinstance(func, ast.Name) and func.id in ("list", "tuple") \
                and node.args and _is_set_expr(node.args[0], self.set_names):
            arg_tokens[0] = arg_tokens[0] | self._source(
                "set-order", node.lineno, f"{func.id}(set)")

        # Mutating a named container with tainted arguments taints the
        # container (rows.append(t); save_trace(rows) must flow).
        if isinstance(func, ast.Attribute) and func.attr in _CONTAINER_MUT \
                and isinstance(func.value, ast.Name):
            poured = frozenset().union(frozenset(), *arg_tokens) | extra
            if poured:
                self._assign_name(func.value.id, poured)

        # Sink?
        sink_name = None
        if resolved in SINK_FUNCTIONS:
            sink_name = SINK_FUNCTIONS[resolved]
        elif isinstance(func, ast.Attribute) and func.attr in SINK_METHODS:
            sink_name = SINK_METHODS[func.attr]
        if sink_name is not None:
            all_tokens = frozenset().union(frozenset(), *arg_tokens) | extra
            self._record_sink(sink_name, node.lineno, all_tokens)

        # Record the call for interprocedural propagation.  Unresolvable
        # targets ("" or a method on an unknown receiver) become
        # passthroughs / dynamic fans in the solver; container-method
        # names (DYN_NOISE) stay passthroughs -- ``.get()`` on a dict must
        # not fan to every analyzed ``get`` method.
        target = resolved or ""
        if not target and isinstance(func, ast.Attribute) \
                and func.attr not in DYN_NOISE \
                and not func.attr.startswith("__"):
            target = DYN_PREFIX + func.attr
        return (self._record_call(target, node.lineno, arg_tokens, extra)
                | receiver)

    def _comp_tokens(self, node):
        saved = dict(self.env)
        out = frozenset()
        for gen in node.generators:
            iter_toks = self.tokens(gen.iter)
            if _is_set_expr(gen.iter, self.set_names):
                iter_toks |= self._source("set-order", node.lineno,
                                          "set iteration")
            for name in _names_of(gen.target):
                self.env[name] = iter_toks
            for cond in gen.ifs:
                out |= self.tokens(cond)
        if isinstance(node, ast.DictComp):
            out |= self.tokens(node.key) | self.tokens(node.value)
        else:
            out |= self.tokens(node.elt)
        self.env = saved
        return out

    # -- statements --------------------------------------------------------

    def _assign_name(self, name, toks):
        # Union, never overwrite: a taint acquired on one branch survives
        # a clean rebinding on another (monotone over-approximation).
        self.env[name] = self.env.get(name, frozenset()) | toks

    def exec_stmt(self, stmt):  # noqa: C901 -- one dispatch table
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(stmt, "value", None)
            toks = self.tokens(value)
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                if isinstance(target, ast.Name) and value is not None \
                        and _is_set_expr(value, self.set_names):
                    self.set_names.add(target.id)
                for name in _names_of(target):
                    self._assign_name(name, toks)
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name):
                    # d[k] = tainted taints the container d.
                    self._assign_name(target.value.id, toks)
            if isinstance(stmt, ast.AugAssign) \
                    and isinstance(stmt.target, ast.Name):
                self._assign_name(stmt.target.id, toks)
        elif isinstance(stmt, ast.Return):
            self.ret |= self.tokens(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self.tokens(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_toks = self.tokens(stmt.iter)
            if _is_set_expr(stmt.iter, self.set_names):
                iter_toks |= self._source("set-order", stmt.iter.lineno,
                                          "set iteration")
            for name in _names_of(stmt.target):
                self._assign_name(name, iter_toks)
            for _ in range(2):
                for s in stmt.body:
                    self.exec_stmt(s)
            for s in stmt.orelse:
                self.exec_stmt(s)
        elif isinstance(stmt, ast.While):
            self.tokens(stmt.test)
            for _ in range(2):
                for s in stmt.body:
                    self.exec_stmt(s)
            for s in stmt.orelse:
                self.exec_stmt(s)
        elif isinstance(stmt, ast.If):
            self.tokens(stmt.test)
            for s in stmt.body:
                self.exec_stmt(s)
            for s in stmt.orelse:
                self.exec_stmt(s)
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
                toks = self.tokens(item.context_expr)
                if item.optional_vars is not None:
                    for name in _names_of(item.optional_vars):
                        self._assign_name(name, toks)
            for s in stmt.body:
                self.exec_stmt(s)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: its flows belong to its parent (closures run in
            # the parent's data space); walk with the shared env.
            for s in stmt.body:
                self.exec_stmt(s)
        elif isinstance(stmt, (ast.Assert, ast.Raise, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.tokens(child)

    def run(self, func):
        params = [a.arg for a in (func.args.posonlyargs + func.args.args
                                  + func.args.kwonlyargs)]
        for j, name in enumerate(params):
            self.env[name] = frozenset({("p", j)})
        for _ in range(2):
            for stmt in func.body:
                self.exec_stmt(stmt)
        return params


def _names_of(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _names_of(elt)
    elif isinstance(target, ast.Starred):
        yield from _names_of(target.value)


def collect_facts(model):
    """The file's taint fragment (picklable, JSON-able)."""
    resolver = Resolver(model)
    functions = {}
    for local_qual, func, class_name in iter_functions(model):
        try:
            ft = _FunctionTaint(model, resolver, class_name)
            params = ft.run(func)
            info = {
                "line": func.lineno,
                "method": class_name is not None,
                "n_params": len(params),
                "sources": ft.sources,
                "calls": ft.calls,
                "sinks": ft.sinks,
                "ret": sorted(map(list, ft.ret)),
            }
        except Exception as exc:  # noqa: BLE001 -- never fail the pass
            info = {"line": func.lineno, "method": class_name is not None,
                    "n_params": 0, "sources": [], "calls": [], "sinks": [],
                    "ret": [], "error": f"{type(exc).__name__}: {exc}"}
        functions[f"{model.module}.{local_qual}"] = info
    return {"module": model.module, "path": model.path,
            "functions": functions}


# -- project-level solving -------------------------------------------------


class _Solver:
    def __init__(self, tn_list):
        nodes = {}
        for facts in tn_list:
            for qual, info in facts["functions"].items():
                nodes[qual] = dict(info, path=facts["path"],
                                   module=facts["module"])
        self.graph = CallGraph(nodes)
        self.nodes = self.graph.nodes
        for info in self.nodes.values():
            for rec in info["calls"]:
                target = rec["target"]
                resolved = self.graph.resolve(target) if target else []
                if target.startswith(DYN_PREFIX):
                    # A dynamic fan means a *method* call on an unknown
                    # receiver: module-level functions sharing the name
                    # (repro.experiments.fig12.run) are not candidates.
                    resolved = [q for q in resolved
                                if self.nodes[q].get("method")]
                rec["_resolved"] = resolved
                rec["_args"] = [[tuple(t) for t in toks]
                                for toks in rec["args"]]
                rec["_extra"] = [tuple(t) for t in rec["extra"]]
        self.R = {}    # qual -> witness string (returns tainted)
        self.PR = {qual: set() for qual in self.nodes}
        self.PS = {qual: {} for qual in self.nodes}
        self._pf = {}  # qual -> {call token: param set}, post-PR
        self._wit = {}  # qual -> {call token: witness}, post-R

    # -- per-function local fixpoints --------------------------------------
    #
    # Within one function the token graph (calls referencing argument
    # tokens, which may reference other call tokens -- including cycles
    # through loop-carried variables) is solved to a local fixpoint.  The
    # global passes then only iterate over *functions*, which keeps the
    # whole solve linear-ish instead of re-walking token chains per query.

    def _shift(self, callee):
        return 1 if self.nodes[callee].get("method") else 0

    def _pf_map(self, qual):
        """``{call token: set of this function's param indices}``."""
        info = self.nodes[qual]
        pf = {}

        def tok_pf(tok):
            if tok[0] == "p":
                return {tok[1]}
            if tok[0] != "c":
                return set()
            return pf.get(tok, set())

        changed = True
        while changed:
            changed = False
            for k, rec in enumerate(info["calls"]):
                args, extra = rec["_args"], rec["_extra"]
                new = set(pf.get(("c", k), set()))
                callees = rec["_resolved"]
                if not callees:
                    # Passthrough: any argument may reach the result.
                    for toks in args + [extra]:
                        for tok in toks:
                            new |= tok_pf(tok)
                else:
                    for callee in callees:
                        shift = self._shift(callee)
                        prset = self.PR.get(callee, ())
                        for j in prset:
                            ai = j - shift
                            if 0 <= ai < len(args):
                                for tok in args[ai]:
                                    new |= tok_pf(tok)
                        if prset:
                            for tok in extra:
                                new |= tok_pf(tok)
                if new != pf.get(("c", k), set()):
                    pf[("c", k)] = new
                    changed = True
        return pf

    def _wit_map(self, qual):
        """``{call token: witness string}`` for tainted call results."""
        info = self.nodes[qual]
        wit = {}

        def tok_wit(tok):
            if tok[0] == "s":
                src = info["sources"][tok[1]]
                if src["suppressed"]:
                    return None
                return (f"{src['kind']} source ({src['label']}, "
                        f"line {src['line']})")
            if tok[0] != "c":
                return None
            return wit.get(tok)

        changed = True
        while changed:
            changed = False
            for k, rec in enumerate(info["calls"]):
                if ("c", k) in wit:
                    continue
                args, extra = rec["_args"], rec["_extra"]
                callees = rec["_resolved"]
                w = None
                if not callees:
                    for toks in args + [extra]:
                        for tok in toks:
                            w = w or tok_wit(tok)
                else:
                    for callee in callees:
                        if self.R.get(callee):
                            w = f"{callee}() -> {self.R[callee]}"
                            break
                        shift = self._shift(callee)
                        prset = self.PR.get(callee, ())
                        for j in prset:
                            ai = j - shift
                            if 0 <= ai < len(args):
                                for tok in args[ai]:
                                    w = w or tok_wit(tok)
                        if prset:
                            for tok in extra:
                                w = w or tok_wit(tok)
                        if w:
                            break
                if w:
                    wit[("c", k)] = w
                    changed = True
        return wit

    def _token_witness(self, qual, tok):
        tok = tuple(tok)
        if tok[0] == "s":
            src = self.nodes[qual]["sources"][tok[1]]
            if src["suppressed"]:
                return None
            return (f"{src['kind']} source ({src['label']}, "
                    f"line {src['line']})")
        return self._wit[qual].get(tok)

    # -- global fixpoints --------------------------------------------------

    def solve(self):
        # PR: parameter -> return (independent of sources).
        changed = True
        while changed:
            changed = False
            for qual, info in self.nodes.items():
                pf = self._pf_map(qual)
                flow = set()
                for tok in info["ret"]:
                    tok = tuple(tok)
                    flow |= ({tok[1]} if tok[0] == "p"
                             else pf.get(tok, set()))
                if not flow <= self.PR[qual]:
                    self.PR[qual] |= flow
                    changed = True
        self._pf = {qual: self._pf_map(qual) for qual in self.nodes}

        # R: returns-tainted, with witnesses (uses PR).
        changed = True
        while changed:
            changed = False
            for qual, info in self.nodes.items():
                if qual in self.R:
                    continue
                wit = self._wit_map(qual)
                for tok in info["ret"]:
                    tok = tuple(tok)
                    w = (wit.get(tok) if tok[0] == "c"
                         else self._source_witness(info, tok))
                    if w:
                        self.R[qual] = w
                        changed = True
                        break
        self._wit = {qual: self._wit_map(qual) for qual in self.nodes}

        # PS: parameter -> sink (uses the stable pf maps).
        changed = True
        while changed:
            changed = False
            for qual, info in self.nodes.items():
                pf = self._pf[qual]

                def flow_of(tok, _pf=pf):
                    tok = tuple(tok)
                    return ({tok[1]} if tok[0] == "p"
                            else _pf.get(tok, set()))

                for sink in info["sinks"]:
                    if sink["suppressed"]:
                        continue  # an allowed sink takes no parameters
                    for tok in sink["tokens"]:
                        for j in flow_of(tok):
                            slot = self.PS[qual].setdefault(j, set())
                            if sink["name"] not in slot:
                                slot.add(sink["name"])
                                changed = True
                for rec in info["calls"]:
                    args, extra = rec["_args"], rec["_extra"]
                    for callee in rec["_resolved"]:
                        shift = self._shift(callee)
                        for j, names in self.PS.get(callee, {}).items():
                            ai = j - shift
                            toks = (args[ai]
                                    if 0 <= ai < len(args) else extra)
                            for tok in toks:
                                for i in flow_of(tok):
                                    slot = self.PS[qual].setdefault(
                                        i, set())
                                    if not names <= slot:
                                        slot |= names
                                        changed = True
        return self

    @staticmethod
    def _source_witness(info, tok):
        if tok[0] != "s":
            return None
        src = info["sources"][tok[1]]
        if src["suppressed"]:
            return None
        return f"{src['kind']} source ({src['label']}, line {src['line']})"

    # -- findings ----------------------------------------------------------

    def findings(self):
        out = []
        seen = set()

        def emit(path, line, content, sink_name, w):
            key = (path, line, sink_name)
            if key in seen:
                return
            seen.add(key)
            out.append(Finding(
                rule=RULE_ID, path=path, line=line, col=0,
                message=(f"nondeterministic value reaches {sink_name}: "
                         f"{w}; break the flow, seed/monotonic-ize the "
                         "source, or add '# repro: allow[TNT001] "
                         "<reason>' at the source or sink"),
                content=content))

        for qual, info in sorted(self.nodes.items()):
            for sink in info["sinks"]:
                for tok in sink["tokens"]:
                    w = self._token_witness(qual, tok)
                    if w:
                        emit(info["path"], sink["line"], sink["content"],
                             sink["name"], w)
                        break
            for rec in info["calls"]:
                args, extra = rec["_args"], rec["_extra"]
                for callee in rec["_resolved"]:
                    shift = self._shift(callee)
                    for j, names in self.PS.get(callee, {}).items():
                        ai = j - shift
                        toks = (args[ai]
                                if 0 <= ai < len(args) else extra)
                        for tok in toks:
                            w = self._token_witness(qual, tok)
                            if w:
                                name = sorted(names)[0]
                                emit(info["path"], rec["line"],
                                     "", f"{name} via {callee}()", w)
                                break
        out.sort(key=lambda f: f.sort_key())
        return out


def solve(tn_list):
    """Run the interprocedural taint solve; returns sorted findings."""
    return _Solver(tn_list).solve().findings()
