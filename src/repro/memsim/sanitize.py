"""Runtime sanitizer mode: ``REPRO_SANITIZE=1``.

When enabled, the replay engines sweep the machine's coherence and
ordering invariants (:meth:`NumaMachine.check_invariants`) at stream
boundaries -- cheap enough to leave on in CI smoke runs, strong enough to
catch a corrupted directory or write buffer long before it would surface
as a wrong stall count.  The sweeps are read-only, so a sanitized run
produces bit-identical results to an unsanitized one; the CI smoke job
asserts exactly that.

The flag is read once at import: workers inherit it through the spawn
environment, and flipping it mid-run would make "which iterations were
checked" ambiguous.  Inside the replay loops the checks hide behind an
``if _sanitize:`` gate, so an unsanitized run pays one branch for them.
"""

import os

#: True when the environment opted into invariant checking.
ENABLED = os.environ.get("REPRO_SANITIZE", "") == "1"


class SanitizerError(AssertionError):
    """A machine invariant does not hold (simulator bug, not user error)."""


def enabled():
    """Whether sanitizer mode is on for this process."""
    return ENABLED


def check_monotonic(times, what):
    """Raise unless ``times`` is strictly increasing.

    The horizon kernel's virtual clocks must be strictly increasing --
    every trace row costs at least one cycle -- or the bisect-based
    window replay would consume rows out of order.  Called per
    retire-ahead pass under ``REPRO_SANITIZE=1``; read-only, like every
    sanitizer sweep.
    """
    prev = None
    for t in times:
        if prev is not None and t <= prev:
            raise SanitizerError(
                f"{what} is not strictly increasing: {t} after {prev}")
        prev = t
