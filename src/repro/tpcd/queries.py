"""The 17 read-only TPC-D queries, in the engine's mini-SQL.

As in the paper (section 3), the queries are coded "in the limited form of
SQL supported by the database system": single-block selects whose memory
access patterns match a full SQL implementation, even where the computed
result is simplified (the paper's own queries "do not compute exactly what
the Transaction Processing Performance Council proposes").

Every query is a template over TPC-D substitution parameters;
:func:`query_instance` draws parameters deterministically from a seed, so
the paper's setup -- the same query type with different parameters on each
processor -- is reproducible.

``TABLE1_OPERATORS`` records the operator sets of the paper's Table 1; the
test suite asserts our planner produces exactly those sets.  Two queries
carry join hints (see :mod:`repro.db.planner`): Q12's merge join and Q16's
hash join, where Postgres95's cost model differed from our heuristics.
"""

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict

from repro.db.datatypes import num_to_date
from repro.tpcd.schema import NATIONS, REGIONS, SEGMENTS, SHIPMODES, TYPE_SYLL_2

QUERY_IDS = [f"Q{i}" for i in range(1, 18)]
READ_ONLY_QUERIES = list(QUERY_IDS)

#: Operator sets from the paper's Table 1.
TABLE1_OPERATORS = {
    "Q1": {"SS", "Sort", "Group", "Aggr"},
    "Q2": {"IS", "NL", "Sort"},
    "Q3": {"IS", "NL", "Sort", "Group", "Aggr"},
    "Q4": {"SS", "Sort", "Group", "Aggr"},
    "Q5": {"IS", "NL", "Sort", "Group", "Aggr"},
    "Q6": {"SS", "Aggr"},
    "Q7": {"SS", "IS", "NL", "H"},
    "Q8": {"IS", "NL"},
    "Q9": {"SS", "IS", "NL", "H"},
    "Q10": {"IS", "NL", "Sort", "Group", "Aggr"},
    "Q11": {"IS", "NL", "Sort", "Group", "Aggr"},
    "Q12": {"SS", "IS", "M", "Sort", "Group"},
    "Q13": {"SS", "IS", "NL", "Sort", "Group", "Aggr"},
    "Q14": {"SS", "IS", "NL", "Aggr"},
    "Q15": {"SS", "Sort", "Group"},
    "Q16": {"SS", "H", "Sort", "Group", "Aggr"},
    "Q17": {"SS", "IS", "NL", "Aggr"},
}

#: The paper's query taxonomy (section 3.4): how each query's selects are
#: implemented determines its memory behaviour.
_CATEGORIES = {
    "sequential": {"Q1", "Q4", "Q6", "Q15", "Q16"},
    "index": {"Q2", "Q3", "Q5", "Q8", "Q10", "Q11"},
    "mixed": {"Q7", "Q9", "Q12", "Q13", "Q14", "Q17"},
}


def query_category(qid):
    """Return ``"sequential"``, ``"index"`` or ``"mixed"`` for a query."""
    for cat, ids in _CATEGORIES.items():
        if qid in ids:
            return cat
    raise KeyError(f"unknown query {qid!r}")


@dataclass
class QueryInstance:
    """A query template bound to concrete substitution parameters."""

    qid: str
    sql: str
    hints: Dict[str, str] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)


def _date(num):
    return num_to_date(num).isoformat()


def _rand_date(rng, lo="1993-01-01", hi="1997-01-01"):
    from repro.db.datatypes import date_to_num

    return rng.randrange(date_to_num(lo), date_to_num(hi))


def query_instance(qid, seed=0):
    """Instantiate query ``qid`` with parameters drawn from ``seed``.

    The seed is mixed with a process-independent hash (``hash()`` is
    randomized per interpreter) so the same ``(qid, seed)`` draws the same
    parameters in every run and in every sweep worker process.
    """
    rng = random.Random(zlib.crc32(f"{qid}/{seed}".encode()) & 0xFFFFFFFF)
    builder = _BUILDERS.get(qid)
    if builder is None:
        raise KeyError(f"unknown query {qid!r}")
    return builder(rng)


# -- individual query builders -----------------------------------------------------


def _q1(rng):
    delta = rng.randrange(60, 121)
    d = _date(_rand_date(rng, "1998-01-01", "1998-04-01") - delta)
    sql = (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_base_price, "
        "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order "
        f"FROM lineitem WHERE l_shipdate <= DATE '{d}' "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"
    )
    return QueryInstance("Q1", sql, params={"date": d})


def _q2(rng):
    region = rng.choice(REGIONS)
    size = rng.randrange(1, 51)
    sql = (
        "SELECT s_acctbal, s_name, n_name, p_partkey "
        "FROM region, nation, supplier, partsupp, part "
        f"WHERE r_name = '{region}' AND n_regionkey = r_regionkey "
        "AND s_nationkey = n_nationkey AND ps_suppkey = s_suppkey "
        f"AND p_partkey = ps_partkey AND p_size = {size} "
        "ORDER BY s_acctbal DESC"
    )
    return QueryInstance("Q2", sql, params={"region": region, "size": size})


def _q3(rng):
    segment = rng.choice(SEGMENTS)
    d = _date(_rand_date(rng, "1995-03-01", "1995-04-01"))
    sql = (
        "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
        "o_orderdate, o_shippriority "
        "FROM customer, orders, lineitem "
        f"WHERE c_mktsegment = '{segment}' AND c_custkey = o_custkey "
        f"AND l_orderkey = o_orderkey AND o_orderdate < DATE '{d}' "
        f"AND l_shipdate > DATE '{d}' "
        "GROUP BY l_orderkey, o_orderdate, o_shippriority "
        "ORDER BY revenue DESC, o_orderdate"
    )
    return QueryInstance("Q3", sql, params={"segment": segment, "date": d})


def _q4(rng):
    lo = _rand_date(rng, "1993-01-01", "1997-10-01")
    sql = (
        "SELECT o_orderpriority, COUNT(*) AS order_count FROM orders "
        f"WHERE o_orderdate >= DATE '{_date(lo)}' "
        f"AND o_orderdate < DATE '{_date(lo + 92)}' "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority"
    )
    return QueryInstance("Q4", sql, params={"date": _date(lo)})


def _q5(rng):
    region = rng.choice(REGIONS)
    lo = _rand_date(rng, "1993-01-01", "1997-01-01")
    sql = (
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
        "FROM region, nation, customer, orders, lineitem "
        f"WHERE r_name = '{region}' AND n_regionkey = r_regionkey "
        "AND c_nationkey = n_nationkey AND o_custkey = c_custkey "
        f"AND l_orderkey = o_orderkey AND o_orderdate >= DATE '{_date(lo)}' "
        f"AND o_orderdate < DATE '{_date(lo + 365)}' "
        "GROUP BY n_name ORDER BY revenue DESC"
    )
    return QueryInstance("Q5", sql, params={"region": region})


def _q6(rng):
    lo = _rand_date(rng, "1993-01-01", "1997-01-01")
    disc = rng.randrange(2, 10) / 100.0
    qty = rng.choice([24, 25])
    sql = (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        f"WHERE l_shipdate >= DATE '{_date(lo)}' "
        f"AND l_shipdate < DATE '{_date(lo + 365)}' "
        f"AND l_discount BETWEEN {disc - 0.011:.3f} AND {disc + 0.011:.3f} "
        f"AND l_quantity < {qty}"
    )
    return QueryInstance("Q6", sql, params={"date": _date(lo), "discount": disc})


def _q7(rng):
    nation = rng.choice(NATIONS)[0]
    sql = (
        "SELECT s_nationkey, l_shipdate, l_extendedprice, l_discount "
        "FROM nation, supplier, lineitem, orders, customer "
        f"WHERE n_name = '{nation}' AND s_nationkey = n_nationkey "
        "AND l_suppkey = s_suppkey AND o_orderkey = l_orderkey "
        "AND c_custkey = o_custkey "
        "AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'"
    )
    return QueryInstance("Q7", sql, params={"nation": nation})


def _q8(rng):
    region = rng.choice(REGIONS)
    sql = (
        "SELECT o_orderdate, l_extendedprice, l_discount, p_type "
        "FROM region, nation, customer, orders, lineitem, part "
        f"WHERE r_name = '{region}' AND n_regionkey = r_regionkey "
        "AND c_nationkey = n_nationkey AND o_custkey = c_custkey "
        "AND l_orderkey = o_orderkey AND p_partkey = l_partkey "
        "AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'"
    )
    return QueryInstance("Q8", sql, params={"region": region})


def _q9(rng):
    color = rng.choice(["green", "blue", "khaki", "coral", "azure"])
    sql = (
        "SELECT n_name, o_orderdate, l_extendedprice, l_discount, "
        "ps_supplycost, l_quantity "
        "FROM part, lineitem, supplier, partsupp, orders, nation "
        f"WHERE p_name LIKE '%{color}%' AND l_partkey = p_partkey "
        "AND s_suppkey = l_suppkey AND ps_partkey = l_partkey "
        "AND ps_suppkey = l_suppkey AND o_orderkey = l_orderkey "
        "AND n_nationkey = s_nationkey"
    )
    return QueryInstance("Q9", sql, params={"color": color})


def _q10(rng):
    nation = rng.choice(NATIONS)[0]
    lo = _rand_date(rng, "1993-02-01", "1994-01-01")
    sql = (
        "SELECT c_custkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
        "c_acctbal, n_name "
        "FROM nation, customer, orders, lineitem "
        f"WHERE n_name = '{nation}' AND c_nationkey = n_nationkey "
        "AND o_custkey = c_custkey AND l_orderkey = o_orderkey "
        f"AND o_orderdate >= DATE '{_date(lo)}' "
        f"AND o_orderdate < DATE '{_date(lo + 92)}' AND l_returnflag = 'R' "
        "GROUP BY c_custkey, c_acctbal, n_name ORDER BY revenue DESC"
    )
    return QueryInstance("Q10", sql, params={"nation": nation})


def _q11(rng):
    nation = rng.choice(NATIONS)[0]
    sql = (
        "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value "
        "FROM nation, supplier, partsupp "
        f"WHERE n_name = '{nation}' AND s_nationkey = n_nationkey "
        "AND ps_suppkey = s_suppkey "
        "GROUP BY ps_partkey ORDER BY value DESC"
    )
    return QueryInstance("Q11", sql, params={"nation": nation})


def _q12(rng):
    modes = rng.sample(SHIPMODES, 2)
    lo = _rand_date(rng, "1993-01-01", "1997-01-01")
    sql = (
        "SELECT l_shipmode, o_orderpriority FROM lineitem, orders "
        "WHERE o_orderkey = l_orderkey "
        f"AND l_shipmode IN ('{modes[0]}', '{modes[1]}') "
        "AND l_commitdate < l_receiptdate "
        f"AND l_receiptdate >= DATE '{_date(lo)}' "
        f"AND l_receiptdate < DATE '{_date(lo + 365)}' "
        "GROUP BY l_shipmode, o_orderpriority ORDER BY l_shipmode"
    )
    return QueryInstance("Q12", sql, hints={"orders": "merge"},
                         params={"modes": modes})


def _q13(rng):
    word = rng.choice(["special", "pending", "express"])
    sql = (
        "SELECT c_custkey, COUNT(*) AS c_count FROM customer, orders "
        "WHERE o_custkey = c_custkey AND c_acctbal > 0 "
        f"AND o_comment LIKE '%{word}%' "
        "GROUP BY c_custkey ORDER BY c_count DESC"
    )
    return QueryInstance("Q13", sql, params={"word": word})


def _q14(rng):
    lo = _rand_date(rng, "1993-01-01", "1997-01-01")
    sql = (
        "SELECT SUM(l_extendedprice * l_discount) AS promo_revenue "
        "FROM lineitem, part WHERE l_partkey = p_partkey "
        f"AND l_shipdate >= DATE '{_date(lo)}' "
        f"AND l_shipdate < DATE '{_date(lo + 31)}'"
    )
    return QueryInstance("Q14", sql, params={"date": _date(lo)})


def _q15(rng):
    lo = _rand_date(rng, "1993-01-01", "1997-10-01")
    sql = (
        "SELECT l_suppkey FROM lineitem "
        f"WHERE l_shipdate >= DATE '{_date(lo)}' "
        f"AND l_shipdate < DATE '{_date(lo + 92)}' "
        "GROUP BY l_suppkey ORDER BY l_suppkey"
    )
    return QueryInstance("Q15", sql, params={"date": _date(lo)})


def _q16(rng):
    brand = f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}"
    syll = rng.choice(TYPE_SYLL_2)
    sizes = sorted(rng.sample(range(1, 51), 8))
    size_list = ", ".join(str(s) for s in sizes)
    sql = (
        "SELECT p_brand, p_type, p_size, COUNT(ps_suppkey) AS supplier_cnt "
        "FROM partsupp, part WHERE p_partkey = ps_partkey "
        f"AND p_brand <> '{brand}' AND NOT (p_type LIKE 'MEDIUM {syll}%') "
        f"AND p_size IN ({size_list}) "
        "GROUP BY p_brand, p_type, p_size ORDER BY supplier_cnt DESC"
    )
    return QueryInstance("Q16", sql, hints={"partsupp": "hash"},
                         params={"brand": brand, "sizes": sizes})


def _q17(rng):
    qty = rng.randrange(4, 11)
    sql = (
        "SELECT SUM(l_extendedprice) AS total_price, AVG(l_quantity) AS avg_qty "
        "FROM lineitem, part WHERE p_partkey = l_partkey "
        f"AND l_quantity < {qty}"
    )
    return QueryInstance("Q17", sql, params={"quantity": qty})


_BUILDERS = {
    "Q1": _q1, "Q2": _q2, "Q3": _q3, "Q4": _q4, "Q5": _q5, "Q6": _q6,
    "Q7": _q7, "Q8": _q8, "Q9": _q9, "Q10": _q10, "Q11": _q11, "Q12": _q12,
    "Q13": _q13, "Q14": _q14, "Q15": _q15, "Q16": _q16, "Q17": _q17,
}
