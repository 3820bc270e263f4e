"""Query plan trees.

Plan nodes are declarative descriptions; the executor instantiates them
into running operator pipelines.  The planner produces left-deep trees, as
Postgres95 does (paper, section 2.1.2).

Column naming: TPC-D column names are globally unique (``l_*``, ``o_*``,
...), so plan outputs are flat name lists and joins concatenate them.
"""

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


@dataclass(frozen=True)
class Param:
    """A runtime parameter bound from the outer side of a join."""

    outer_col: str


@dataclass
class PlanNode:
    """Base class; ``output`` is the ordered list of produced column names."""

    output: List[str]

    def children(self):
        return []


@dataclass
class SeqScan(PlanNode):
    """Sequential Scan select over a heap table."""

    table: str = ""
    pred: Any = None  # residual predicate expression, or None

    label = "SeqScan"


@dataclass
class IndexScan(PlanNode):
    """Index Scan select: B-tree probe plus heap tuple fetches.

    ``eq_values`` bind the leading index columns (constants or
    :class:`Param`); ``lo``/``hi`` optionally bound the next index column.
    ``pred`` is the residual predicate applied to fetched tuples.
    """

    table: str = ""
    index: str = ""
    eq_values: Tuple[Any, ...] = ()
    lo: Optional[Any] = None
    hi: Optional[Any] = None
    lo_incl: bool = True
    hi_incl: bool = True
    pred: Any = None

    label = "IndexScan"


@dataclass
class NestLoop(PlanNode):
    """Nested Loop join; the inner side is a parameterized IndexScan."""

    outer: PlanNode = None
    inner: IndexScan = None
    filter: Any = None  # residual join predicate over the combined row

    label = "NestLoop"

    def children(self):
        return [self.outer, self.inner]


@dataclass
class MergeJoin(PlanNode):
    """Merge join over a sorted outer stream.

    As in the paper's Q12 plan, the inner side is an index scan that is
    probed with each distinct outer key (the sorted outer stream guarantees
    each inner region is visited once, in order).
    """

    outer: PlanNode = None
    inner: IndexScan = None
    outer_key: str = ""
    filter: Any = None

    label = "MergeJoin"

    def children(self):
        return [self.outer, self.inner]


@dataclass
class HashJoin(PlanNode):
    """Hash join: build on the inner child, probe with the outer."""

    outer: PlanNode = None
    inner: PlanNode = None
    outer_key: str = ""
    inner_key: str = ""
    filter: Any = None

    label = "HashJoin"

    def children(self):
        return [self.outer, self.inner]


@dataclass
class Sort(PlanNode):
    """Materializing sort on one or more keys."""

    child: PlanNode = None
    keys: List[Tuple[str, bool]] = field(default_factory=list)  # (col, asc)

    label = "Sort"

    def children(self):
        return [self.child]


@dataclass
class Group(PlanNode):
    """Grouping over a sorted input, with optional aggregate computation.

    ``aggs`` is a list of ``(func, arg_expr_or_None, out_name)``.
    """

    child: PlanNode = None
    group_cols: List[str] = field(default_factory=list)
    aggs: List[Tuple[str, Any, str]] = field(default_factory=list)

    label = "Group"

    def children(self):
        return [self.child]


@dataclass
class Aggregate(PlanNode):
    """Ungrouped aggregation producing a single row."""

    child: PlanNode = None
    aggs: List[Tuple[str, Any, str]] = field(default_factory=list)

    label = "Aggregate"

    def children(self):
        return [self.child]


@dataclass
class Project(PlanNode):
    """Final projection computing the SELECT list expressions."""

    child: PlanNode = None
    exprs: List[Any] = field(default_factory=list)

    label = "Project"

    def children(self):
        return [self.child]


def walk(plan):
    """Yield every node of a plan tree, pre-order."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def operator_set(plan):
    """Return the paper's Table-1 operator labels used by a plan.

    Labels: ``SS``, ``IS``, ``NL``, ``M``, ``H``, ``Sort``, ``Group``,
    ``Aggr``.
    """
    ops = set()
    for node in walk(plan):
        if isinstance(node, SeqScan):
            ops.add("SS")
        elif isinstance(node, IndexScan):
            ops.add("IS")
        elif isinstance(node, NestLoop):
            ops.add("NL")
        elif isinstance(node, MergeJoin):
            ops.add("M")
        elif isinstance(node, HashJoin):
            ops.add("H")
        elif isinstance(node, Sort):
            ops.add("Sort")
        elif isinstance(node, Group):
            ops.add("Group")
            if node.aggs:
                ops.add("Aggr")
        elif isinstance(node, Aggregate):
            ops.add("Aggr")
    return ops


def explain(plan, indent=0):
    """Render a plan tree as indented text (like EXPLAIN output)."""
    pad = "  " * indent
    detail = ""
    if isinstance(plan, SeqScan):
        detail = f" on {plan.table}"
    elif isinstance(plan, IndexScan):
        detail = f" on {plan.table} using {plan.index}"
    elif isinstance(plan, (MergeJoin, HashJoin)):
        detail = f" key={getattr(plan, 'outer_key', '')}"
    elif isinstance(plan, Sort):
        detail = f" by {[k for k, _ in plan.keys]}"
    elif isinstance(plan, Group):
        detail = f" by {plan.group_cols}"
    lines = [f"{pad}{plan.label}{detail}"]
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
