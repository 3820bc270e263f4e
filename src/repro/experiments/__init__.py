"""One module per table/figure of the paper's evaluation.

Every module exposes ``run(scale="small", ...)`` returning a plain dict of
results plus a ``report(results)`` that renders the paper-style rows.  The
one name -> experiment map is :data:`repro.experiments.families.FAMILIES`
(declarative entries, lazy module resolution).  The ``runner`` module
provides the ``repro-experiments`` CLI over all of them.
"""

from repro.experiments import (
    fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, mixed_rw, table1,
)
from repro.experiments.families import FAMILIES, Family, run_family

__all__ = ["FAMILIES", "Family", "run_family", "table1",
           "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
           "fig13", "mixed_rw"]
