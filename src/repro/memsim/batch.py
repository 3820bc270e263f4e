"""Batched replay kernel: vectorized trace preprocessing and selection.

The replay dispatch loop (:meth:`Interleaver.run_traces`) retires one
Python-level iteration per trace row.  Most rows of a DSS trace are
single-line reads and writes whose entire machine interaction is local to
the issuing node unless a miss or a store reaches the directory -- and
even then the interaction is a short, fixed shape.  The batched kernel
exploits that with one **inline tier**, planned here and bit-identical to
scalar dispatch: a per-trace preprocessing pass computes, vectorized with
numpy, the primary-cache line tag of every single-line read/write row and
stores it as one ``array`` column beside the trace's event columns (-1
marks the rows the dispatch loop must handle through its scalar branches:
line-crossing accesses and lock/sync events).  The dispatch loop then
retires tagged rows with the machine's read/write hot paths *inlined* --
no method calls, no re-derivation of the line tag, no per-row attribute
chases (the hierarchy's containers are bound to locals per dispatch
window).  The tags stay machine-word ints on purpose: packing more fields
per row was measured slower, because Python arithmetic on >2**30 values
allocates multi-digit ints in the hot loop.  Plan columns are stdlib
``array`` objects, not lists: a list holds a boxed int per row for the
trace's lifetime and was measured no faster end to end.

Every row retires on its own; nothing retires runs of resident-line
reads in bulk with numpy, because DSS traces have no runs long enough to
pay for a numpy round trip: scans stream and database data has almost no
temporal locality (the paper's own observation), and the longest stretch
of single-line reads and busy/hit rows anywhere in the 17 queries, at any
L1 line size the sweeps use, is 20 rows at ``small`` (18 at ``tiny``).

Kernel selection (:func:`resolve_kernel`): ``horizon`` / ``batched`` /
``scalar`` / ``auto``, from an explicit argument (a sweep passes its
``RunConfig.kernel``), the process default config's, or ``REPRO_KERNEL``.
``auto``
picks ``batched`` whenever numpy is importable: end to end (schedules and
their memory included) it beats horizon on wall time and peak memory on
every benchmark workload.  The horizon kernel
(:mod:`repro.memsim.horizon`) layers a sharing classifier on top of the
batch plans and retires runs of non-interacting rows *across*
global-clock window cuts, replaying the cuts from recorded virtual
clocks; it wins on replay time alone but not once its schedules are
charged, so it runs only when asked for by name.  When numpy is
unavailable both numpy kernels degrade to the scalar path with a single
warning per process.  Machine gating (:func:`machine_batch_reason`):
prefetching machines fall back to scalar entirely (a primary-cache hit
may have to wait on a pending prefetch fill, which needs the scalar
pending-fill probe); any L1 associativity is served.

Every dispatch boundary of the scalar engine is preserved: rows retire
one at a time in the same global-clock order, so cycles, machine
counters, and per-CPU accounting are bit-identical -- asserted by
``tests/test_batch.py`` and by the trace-cache suite under
``REPRO_KERNEL=batched``.
"""

import os
import warnings
from array import array

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: Whether the optional ``perf`` extra (numpy) is importable.
HAVE_NUMPY = _np is not None

#: Recognized kernel names (``auto`` resolves to one of the other three).
KERNELS = ("auto", "horizon", "batched", "scalar")

#: Plans kept per trace: one per distinct L1 line size, evicted FIFO.  A
#: sweep replays each trace under several line sizes but visits them
#: point by point, so a tiny memo bounds the tag columns' memory
#: without re-tagging inside a point.
PLAN_MEMO = 2

_WARNED_NO_NUMPY = False


def check_kernel(kernel):
    """Return ``kernel`` if it is a recognized name; raise ``ValueError``."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown replay kernel {kernel!r}: expected one of {KERNELS}")
    return kernel


def resolve_kernel(kernel=None):
    """Resolve a kernel request to ``'horizon'``/``'batched'``/``'scalar'``.

    ``None`` stands for the kernel of the process default config
    (:func:`repro.core.run.configure_run`).  ``auto`` defers to the
    ``REPRO_KERNEL`` environment variable; a still-unresolved ``auto``
    picks ``batched`` whenever numpy is importable.  A ``horizon`` or
    ``batched`` request without numpy warns once per process and degrades
    to ``scalar``.
    """
    global _WARNED_NO_NUMPY
    if kernel is None:
        from repro.core.run import current_run_config  # repro.core imports us

        kernel = current_run_config().kernel
    if check_kernel(kernel) == "auto":
        kernel = check_kernel(os.environ.get("REPRO_KERNEL") or "auto")
    if kernel == "auto":
        kernel = "batched" if HAVE_NUMPY else "scalar"
    if kernel in ("batched", "horizon") and not HAVE_NUMPY:
        if not _WARNED_NO_NUMPY:
            # The warn-once flag is per-process by design.
            _WARNED_NO_NUMPY = True
            warnings.warn(
                f"the {kernel} replay kernel needs numpy (the 'perf' "
                "extra: pip install repro[perf]); falling back to the "
                "scalar kernel", RuntimeWarning, stacklevel=2)
        kernel = "scalar"
    return kernel


def machine_batch_reason(machine):
    """Why ``machine`` cannot run the batched kernel, or ``None`` if it can.

    Reasons (also the fallback metric suffixes): ``no_numpy`` (plans are
    built with numpy), ``prefetch`` (a primary-cache hit may still wait
    on a pending prefetch fill, which needs the scalar pending-fill
    probe on every hit).  A set-associative L1 is *not* a fallback
    reason: the inline tier handles any associativity.  The horizon
    kernel shares these gates and adds one of its own in the dispatcher:
    a machine with residual directory state (``warm_machine``) falls
    back to batched, because the sharing classifier only covers lines
    the *current* trace set touches.
    """
    if not HAVE_NUMPY:
        return "no_numpy"
    if machine._prefetch_data:
        return "prefetch"
    return None


# -- trace preprocessing ---------------------------------------------------------


class BatchPlan:
    """Precomputed inline-tier columns for one trace under one L1 line size.

    ``mem_lines`` is the per-row tag column: one entry per trace row
    holding the primary-cache line tag of a single-line read/write, or
    -1 for rows the dispatch loop must handle through its scalar
    branches (``array('i')``, or ``'q'`` when a tag reaches 2**31).
    ``mcost``/``mreads`` ride along from :func:`trace_base`
    (shift-independent, shared by every line size's plan): the retire
    cost and ``l1_reads`` contribution of each read/write row,
    precomputed so the inline paths never re-derive them from
    size/inert/fused-hit columns.
    """

    __slots__ = ("mem_lines", "mcost", "mreads", "n_rows")

    def __init__(self, mem_lines, mcost, mreads, n_rows):
        self.mem_lines = mem_lines
        self.mcost = mcost
        self.mreads = mreads
        self.n_rows = n_rows


def _np_column(arr):
    """Zero-copy numpy view over a stdlib ``array`` column, at the
    column's own width (trace columns are ``'I'`` or ``'q'``, and a
    store written with wider columns loads as it was written)."""
    if len(arr) == 0:
        return _np.empty(0, dtype=arr.typecode)
    return _np.frombuffer(arr, dtype=arr.typecode)


def as_int64(arr):
    """An int64 numpy array of a stdlib ``array`` column, for arithmetic:
    a view when the column is already 64-bit, else a widening copy (so
    ``addr + size - 1`` cannot wrap in uint32)."""
    return _np_column(arr).astype(_np.int64, copy=False)


def _to_array(values, narrow):
    """A stdlib ``array`` copy of int64 numpy ``values``, typecode
    ``narrow`` when every value fits it and ``'q'`` otherwise, allocated
    at its exact size (``frombytes`` would over-allocate by a sixteenth).

    The width comes from the data's range: assigning into a narrower
    numpy view wraps silently.
    """
    typecode = narrow
    if len(values):
        info = _np.iinfo(narrow)
        if values.min() < info.min or values.max() > info.max:
            typecode = "q"
    out = array(typecode, [0]) * len(values)
    _np_column(out)[:] = values
    return out


def trace_base(trace):
    """The shift-independent plan columns for ``trace``, memoized on it.

    Returns ``(mcost, mreads)``, per-row columns shared by every line
    size's plan: the retire cost (1 cycle plus fused busy cycles) and
    the ``l1_reads`` contribution (word count plus fused-hit count for
    reads, fused-hit count alone for writes) of each read/write row.
    Each is ``array('I')``, or ``'q'`` when a value reaches 2**32
    (stdlib, so the loop never sees numpy scalars).

    The word count follows the scalar hot paths exactly: one reference
    per 4-byte word, minimum one (``1 if size <= 4 else (size+3) >> 2``).
    """
    base = trace._batch_base
    if base is not None:
        return base
    kinds = _np_column(trace.kinds)
    memread = kinds == 0
    memrw = memread | (kinds == 1)
    words = _np.maximum((as_int64(trace.b) + 3) >> 2, 1)
    mcost = _to_array(_np.where(memrw, 1 + as_int64(trace.d), 0), "I")
    mreads = _to_array(as_int64(trace.e) + _np.where(memread, words, 0), "I")
    base = (mcost, mreads)
    trace._batch_base = base
    return base


def trace_plan(trace, l1_shift):
    """The :class:`BatchPlan` for ``trace`` under one L1 line size, memoized.

    ``None`` without numpy.  The ``mem_lines`` column tags every
    single-line (under ``l1_shift``) EV_READ/EV_WRITE row with its
    primary-cache line; everything else -- line-crossing accesses, lock
    events, busy/hit rows -- carries -1 and dispatches through the
    engine's scalar branches.  A row is single-line iff
    ``(addr ^ (addr + size - 1)) >> l1_shift == 0``, recomputed from the
    trace's columns per line size rather than kept between plans.
    """
    if not HAVE_NUMPY:
        return None
    plans = trace._batch_plans
    plan = plans.get(l1_shift)
    if plan is not None:
        return plan
    mcost, mreads = trace_base(trace)
    kinds = _np_column(trace.kinds)
    addr = as_int64(trace.a)
    xorspan = addr ^ (addr + as_int64(trace.b) - 1)
    single = ((kinds == 0) | (kinds == 1)) & ((xorspan >> l1_shift) == 0)
    mem_lines = _to_array(_np.where(single, addr >> l1_shift, -1), "i")
    plan = BatchPlan(mem_lines, mcost, mreads, len(mem_lines))
    if len(plans) >= PLAN_MEMO:
        plans.pop(next(iter(plans)))
    plans[l1_shift] = plan
    return plan


# -- observability ---------------------------------------------------------------


def kernel_stats():
    """Registry view of replay-kernel activity, for ``--time`` and tests.

    ``*_runs``/``*_seconds`` per kernel; ``inline_rows`` (rows retired by
    the inlined single-line read/write paths), ``scalar_rows`` (rows the
    batched engine dispatched through its scalar branches -- line-crossing
    accesses, busy/hit rows, lock events; contended-acquire retries are
    not rows and are not counted); ``fallbacks`` by reason (runs that
    asked for a numpy kernel but ran a lower tier).

    Horizon-tier extras: ``horizon_rows`` (rows retired ahead of the
    global clock), ``horizon_regions`` (retire-ahead passes),
    ``horizon_windows`` (window cuts replayed one at a time from virtual
    clocks), ``horizon_merges`` (all-virtual merge fast-forwards, each
    collapsing a whole span of such windows into one pass),
    ``horizon_guards`` (retire passes cut short by the dynamic
    eviction guard), and the classifier's coverage
    (``plan_rows``/``plan_boundary``/``ws_lines`` over built schedules).
    """
    from repro.obs.metrics import registry

    reg = registry()
    out = {
        "horizon_runs": reg.value("interleave.kernel.horizon.runs"),
        "horizon_seconds": reg.value("interleave.kernel.horizon.seconds"),
        "batched_runs": reg.value("interleave.kernel.batched.runs"),
        "batched_seconds": reg.value("interleave.kernel.batched.seconds"),
        "scalar_runs": reg.value("interleave.kernel.scalar.runs"),
        "scalar_seconds": reg.value("interleave.kernel.scalar.seconds"),
        # Never incremented (0): simbench/harness/staged.py sums this key.
        "batched_rows": reg.value("interleave.batch.rows"),
        "inline_rows": reg.value("interleave.batch.inline_rows"),
        "scalar_rows": reg.value("interleave.batch.scalar_rows"),
        "horizon_rows": reg.value("interleave.horizon.rows"),
        "horizon_regions": reg.value("interleave.horizon.regions"),
        "horizon_windows": reg.value("interleave.horizon.virtual_windows"),
        "horizon_merges": reg.value("interleave.horizon.merges"),
        "horizon_guards": reg.value("interleave.horizon.guard_stops"),
        "plan_rows": reg.value("interleave.horizon.plan_rows"),
        "plan_boundary": reg.value("interleave.horizon.plan_boundary"),
        "ws_lines": reg.value("interleave.horizon.ws_lines"),
        "fallbacks": {},
    }
    prefix = "interleave.kernel.fallback."
    for name, metric in reg.items(prefix[:-1]):
        out["fallbacks"][name[len(prefix):]] = metric.value
    return out
