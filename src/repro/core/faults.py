"""Deterministic fault injection for the sweep execution layer.

Recovery code that is never exercised is broken code; this module makes
every failure mode of a parallel sweep reproducible on demand so the tests
(and the CI smoke job) can prove each recovery path instead of trusting it.

Faults are declared in the ``REPRO_FAULTS`` environment variable -- the
environment is the one channel that reaches ``repro-sweep-worker``
processes without touching the wire protocol -- as a comma-separated list
of ``kind@index`` entries::

    REPRO_FAULTS="crash@1,hang@3*2,garbage@0"

``index`` is the sweep-point submission index (the Nth worker task);
``kind`` is one of

``crash``
    the worker process exits hard (``os._exit``), like an OOM kill --
    exercises dead-worker detection and the worker respawn;
``hang``
    the task sleeps ``REPRO_FAULTS_HANG`` seconds (default 300) --
    exercises the per-point timeout and worker kill;
``raise``
    the task raises :class:`InjectedFault` -- exercises worker exception
    propagation and retry;
``fatal``
    the task raises :class:`InjectedFatal`, which declares itself not
    retryable -- exercises the straight-to-fallback rule and the
    classification's trip across the wire;
``garbage``
    the task returns a non-summary object -- exercises result validation.

``*N`` makes a fault fire on the first *N* attempts of that point (default
1), so a retried point deterministically succeeds -- or keeps failing, to
exercise the in-process degradation path.  Faults fire only inside worker
processes (:func:`maybe_inject` is called from the worker's point runner),
never in the supervising parent, so degraded in-process execution of a
persistently failing point completes.

*Worker-targeted* kinds attack the stdio protocol
(:mod:`repro.core.backend`) instead of the computation -- same
``kind@index[*attempts]`` grammar, fired through :func:`worker_action`
from inside a ``repro-sweep-worker`` process:

``wstall``
    the worker suppresses heartbeats for the point -- exercises lease
    expiry and the parent's stale-worker kill;
``wpartition``
    the worker goes completely silent mid-point (no heartbeats, no
    result), like a network partition -- exercises the parent's kill and
    requeue of a worker that will never answer;
``wcorrupt``
    the worker flips a byte inside its result frame after the checksum is
    computed -- exercises protocol-level damage detection and the
    kill-and-retry path.

Finally, ``chaos@SEED[*PERCENT]`` turns on *seeded randomized chaos*: for
every ``(point index, attempt)`` not covered by an explicit entry, a
deterministic per-coordinate RNG fires a fault with probability
``PERCENT``/100 (default 25), drawn from :data:`CHAOS_MENU`.  The same
seed always produces the same fault schedule, so a CI job can sweep a
randomized fault matrix and still assert bit-identical results.

:func:`corrupt_file` is the store-side counterpart: it bit-flips or
truncates an on-disk artifact (trace-store entry, sweep ledger) the
way real disk/writer damage would, deterministically.  It doubles as a
tiny CLI for the CI smoke job::

    python -m repro.core.faults flip  path/to/entry.trace
    python -m repro.core.faults truncate  path/to/entry.trace
"""

import os
import random
import time

ENV_VAR = "REPRO_FAULTS"
ENV_HANG = "REPRO_FAULTS_HANG"

#: Kinds that corrupt the *computation* (fired by :func:`maybe_inject`).
COMPUTE_KINDS = ("crash", "hang", "raise", "fatal", "garbage")

#: Kinds that attack the *worker fabric* (fired by :func:`worker_action`).
WORKER_KINDS = ("wstall", "wpartition", "wcorrupt")

KINDS = COMPUTE_KINDS + WORKER_KINDS

#: The fault population seeded chaos draws from: every deterministic,
#: self-limiting kind.  ``hang``/``wpartition`` are excluded -- they need
#: a point timeout / lease TTL tuned to the run to terminate, which a
#: randomized schedule cannot assume.
CHAOS_MENU = ("crash", "raise", "garbage", "wstall", "wcorrupt")

#: Default chaos fire probability (percent) when ``chaos@SEED`` has no
#: ``*PERCENT`` suffix.
CHAOS_DEFAULT_PERCENT = 25

#: Exit status of an injected worker crash.
CRASH_EXIT_CODE = 13


class InjectedFault(RuntimeError):
    """The error an injected ``raise`` fault produces in a worker."""


class InjectedFatal(InjectedFault):
    """The error an injected ``fatal`` fault produces: not worth retrying."""

    retryable = False


class FaultPlan:
    """A parsed fault specification: ``{point index: (kind, attempts)}``,
    plus an optional seeded-chaos schedule ``(seed, percent)``."""

    def __init__(self, by_index=None, hang_seconds=None, chaos=None):
        self.by_index = dict(by_index or {})
        if hang_seconds is None:
            hang_seconds = float(os.environ.get(ENV_HANG, "300"))
        self.hang_seconds = hang_seconds
        self.chaos = chaos

    @classmethod
    def parse(cls, spec):
        """Parse ``"kind@index[*attempts],..."``; raises ``ValueError``.

        ``chaos@SEED[*PERCENT]`` entries configure the randomized-but-
        seeded schedule instead of a per-index fault.
        """
        by_index = {}
        chaos = None
        for entry in (spec or "").split(","):
            entry = entry.strip()
            if not entry:
                continue
            try:
                kind, _, rest = entry.partition("@")
                index, _, count = rest.partition("*")
                index = int(index)
                count = int(count) if count else 1
            except ValueError:
                raise ValueError(
                    f"bad {ENV_VAR} entry {entry!r} "
                    "(expected kind@index or kind@index*attempts)") from None
            if kind == "chaos":
                percent = count if "*" in rest else CHAOS_DEFAULT_PERCENT
                if not 1 <= percent <= 100:
                    raise ValueError(
                        f"bad {ENV_VAR} entry {entry!r}: chaos percent must "
                        "be in 1..100")
                chaos = (index, percent)
                continue
            if kind not in KINDS:
                raise ValueError(
                    f"bad {ENV_VAR} entry {entry!r}: unknown kind {kind!r} "
                    f"(expected one of {', '.join(KINDS)} or chaos)")
            if count < 1:
                raise ValueError(
                    f"bad {ENV_VAR} entry {entry!r}: attempts must be >= 1")
            by_index[index] = (kind, count)
        return cls(by_index, chaos=chaos)

    def _scheduled(self, index, attempt):
        """The raw kind for ``(index, attempt)`` from the explicit table,
        else the seeded chaos schedule, else ``None``."""
        entry = self.by_index.get(index)
        if entry is not None:
            kind, count = entry
            return kind if attempt < count else None
        if self.chaos is not None:
            seed, percent = self.chaos
            # Per-coordinate RNG: the schedule depends only on (seed,
            # index, attempt), never on call order -- string seeding is
            # hash-independent (sha512), so it is stable across processes.
            rng = random.Random(f"chaos:{seed}:{index}:{attempt}")
            if rng.random() * 100.0 < percent:
                return rng.choice(CHAOS_MENU)
        return None

    def action(self, index, attempt):
        """The *compute* fault to fire for ``(index, attempt)``, or
        ``None``.  Worker-fabric kinds are invisible here -- they fire
        through :func:`worker_action` instead."""
        kind = self._scheduled(index, attempt)
        return kind if kind in COMPUTE_KINDS else None

    def worker_action(self, index, attempt):
        """The *worker-fabric* fault for ``(index, attempt)``, or ``None``."""
        kind = self._scheduled(index, attempt)
        return kind if kind in WORKER_KINDS else None

    def __bool__(self):
        return bool(self.by_index) or self.chaos is not None


# -- active plan -----------------------------------------------------------

#: Test-API override (parent process only); ``None`` defers to the env var.
_OVERRIDE = None
_CACHED_SPEC = None
_CACHED_PLAN = FaultPlan()


def install(plan):
    """Install a :class:`FaultPlan` directly (test API, this process only)."""
    global _OVERRIDE
    _OVERRIDE = plan


def clear():
    """Drop an installed plan; the environment variable rules again."""
    global _OVERRIDE
    _OVERRIDE = None


def active_plan():
    """The plan in force: an installed one, else ``REPRO_FAULTS`` (memoized
    per spec string, so env changes between sweeps are picked up)."""
    global _CACHED_SPEC, _CACHED_PLAN
    if _OVERRIDE is not None:
        return _OVERRIDE
    spec = os.environ.get(ENV_VAR, "")
    if spec != _CACHED_SPEC:
        _CACHED_PLAN = FaultPlan.parse(spec)
        _CACHED_SPEC = spec
    return _CACHED_PLAN


#: The sentinel a ``garbage`` fault returns in place of a summary dict.
GARBAGE = {"injected": "garbage"}


def maybe_inject(index, attempt):
    """Fire the configured fault for worker task ``(index, attempt)``.

    Returns ``None`` (no fault / fault already spent), or a garbage object
    the caller must return *instead of* computing its summary.  ``crash``
    never returns; ``hang`` sleeps; ``raise`` raises
    :class:`InjectedFault`.
    """
    plan = active_plan()
    if not plan:
        return None
    kind = plan.action(index, attempt)
    if kind is None:
        return None
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if kind == "hang":
        time.sleep(plan.hang_seconds)
        return None
    if kind in ("raise", "fatal"):
        raise (InjectedFault if kind == "raise" else InjectedFatal)(
            f"injected worker failure at point {index} (attempt {attempt})")
    return dict(GARBAGE, point=index, attempt=attempt)


def worker_action(index, attempt):
    """The worker-fabric fault for ``(index, attempt)``, or ``None``.

    Called by ``repro-sweep-worker`` (:mod:`repro.core.worker`) before it
    computes a point: ``wstall`` suppresses heartbeats, ``wpartition``
    goes silent, ``wcorrupt`` damages the result frame.
    """
    plan = active_plan()
    if not plan:
        return None
    return plan.worker_action(index, attempt)


# -- on-disk damage --------------------------------------------------------

def corrupt_file(path, mode="flip"):
    """Deterministically damage one on-disk artifact.

    ``flip`` XORs a bit in the byte 7 from the end (inside a trace-store
    payload, past the header); ``truncate`` cuts the file in half.
    Returns the new length.
    """
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if mode == "flip":
        if len(data) < 8:
            raise ValueError(f"{path}: too short to bit-flip safely")
        data[-7] ^= 0x01
    elif mode == "truncate":
        data = data[:len(data) // 2]
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    return len(data)


def main(argv=None):
    import sys

    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] not in ("flip", "truncate"):
        print("usage: python -m repro.core.faults {flip|truncate} PATH",
              file=sys.stderr)
        return 2
    n = corrupt_file(argv[1], argv[0])
    print(f"{argv[0]} {argv[1]} -> {n} bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
