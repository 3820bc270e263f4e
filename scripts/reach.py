"""List every function in ``src/repro`` that no user command calls.

    PYTHONPATH=src python scripts/reach.py

Runs the user surface in this one process under ``sys.setprofile``:
``repro-experiments all --scale tiny --report-out``, ``python -m repro.obs
validate`` on that report, ``python -m repro.workload validate`` and
``--scenario`` on the committed specs, one scenario running every TPC-D
query and UF1/UF2 once, a ``fig8 --jobs 2 --checkpoint-dir`` sweep on a
cold and then a warm ``--trace-dir``, the six examples at ``tiny`` and the
in-process acts of ``scripts/chaos_smoke.py``.  Sweep workers are profiled
too: their command line is swapped for this script's ``--worker`` mode.
Prints ``path:line name (n lines)`` for each ``def`` never entered, then
the totals.  Re-run by hand at each re-anchor; CI does not run it.
"""

import ast
import atexit
import glob
import io
import itertools
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = [sys.executable, "-u", "-m", "repro.core.worker"]
seen = set()


def _profile(frame, event, _arg):
    if event == "call":
        seen.add(frame.f_code)


def _called():
    sys.setprofile(None)
    return {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in list(seen)}


def _dump(path):
    with open(path, "w") as fh:
        json.dump(sorted(_called()), fh)


def _start():
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def _defs(node, path, prefix=""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield (path, first), prefix + child.name, child.end_lineno - first + 1
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _defs(child, path, prefix + child.name + "." if scope else prefix)


def surface(tmp):
    from repro.core import clear_caches
    from repro.experiments.runner import main as experiments
    from repro.obs.report import main as obs
    from repro.tpcd.queries import QUERY_IDS
    from repro.workload.__main__ import main as workload
    from repro.workload.spec import UPDATE_OPS

    report, ops = os.path.join(tmp, "R.json"), os.path.join(tmp, "ops.json")
    specs = sorted(glob.glob(os.path.join(ROOT, "examples", "specs", "*.json")))
    with open(ops, "w") as fh:
        json.dump({"name": "every-op", "schema_version": 1, "cpus": 4, "tenants": [
            {"name": op.lower(), "clients": 1, "ops_per_client": 1, "mix": {op: 1}}
            for op in QUERY_IDS + list(UPDATE_OPS)]}, fh)
    yield experiments(["all", "--scale", "tiny", "--report-out", report])
    yield obs(["validate", report])
    yield workload(["validate", *specs, ops])
    yield experiments(["--scale", "tiny", "--time", *(f"--scenario={s}" for s in specs + [ops])])
    for warmth in ("cold", "warm"):
        clear_caches()
        yield experiments(["fig8", "--scale", "tiny", "--jobs", "2", "--time",
                           "--trace-dir", os.path.join(tmp, "store"),
                           "--checkpoint-dir", os.path.join(tmp, warmth)])
    for name, *argv in [("quickstart",), ("custom_database",), ("trace_analysis", "tiny"),
                        ("dss_characterization", "tiny"), ("prefetch_study", "tiny"),
                        ("cache_design_study", "Q6", "tiny")]:
        sys.argv = [name, *argv]
        runpy.run_path(os.path.join(ROOT, "examples", name + ".py"), run_name="__main__")
        yield 0
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    import chaos_smoke
    chaos_smoke._interrupt_and_resume = lambda *_: 0  # act 3 runs in its own subprocess
    yield chaos_smoke.main()


def main():
    tmp, popen, n = tempfile.mkdtemp(prefix="reach-"), subprocess.Popen, itertools.count()
    subprocess.Popen = lambda args, *a, **kw: popen(
        [sys.executable, "-u", __file__, "--worker", os.path.join(tmp, f"w{next(n)}.json")]
        if args == WORKER else args, *a, **kw)
    _start()
    with redirect_stdout(io.StringIO()):
        failed = [i for i, rc in enumerate(surface(tmp)) if rc]
    called = _called()
    for path in glob.glob(os.path.join(tmp, "w*.json")):
        with open(path) as fh:
            called.update(tuple(x) for x in json.load(fh))
    shutil.rmtree(tmp)
    pkg = os.path.join(ROOT, "src", "repro")
    defs = [d for p in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True))
            for d in _defs(ast.parse(open(p).read()), p)]
    unreached = [(k, name, size) for k, name, size in defs if k not in called]
    for (path, line), name, size in unreached:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name} ({size} lines)")
    print(f"{len(unreached)} of {len(defs)} defs never called, holding "
          f"{sum(s for *_, s in unreached)} of {sum(s for *_, s in defs)} function lines")
    if failed:
        print(f"surface steps {failed} failed: the list above is incomplete", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        atexit.register(_dump, sys.argv[2])
        _start()
        sys.argv = ["repro-sweep-worker"]
        runpy.run_module("repro.core.worker", run_name="__main__", alter_sys=True)
    else:
        sys.exit(main())
