"""The 17 TPC-D queries: parsing, planning (Table 1), and correctness."""

import pytest

from repro.db.sql import parse
from repro.tpcd.queries import (
    QUERY_IDS, TABLE1_OPERATORS, query_category, query_instance,
)
from tests.conftest import norm_rows


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_query_parses(qid):
    stmt = parse(query_instance(qid, seed=0).sql)
    assert stmt.tables


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_table1_operator_sets(qid, tiny_db):
    """The headline reproduction: every plan matches the paper's Table 1."""
    qi = query_instance(qid, seed=0)
    ops = tiny_db.operator_set(qi.sql, hints=qi.hints)
    assert ops == TABLE1_OPERATORS[qid]


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_table1_stable_across_seeds(qid, tiny_db):
    for seed in (1, 2):
        qi = query_instance(qid, seed=seed)
        assert tiny_db.operator_set(qi.sql, hints=qi.hints) == \
            TABLE1_OPERATORS[qid]


@pytest.mark.parametrize("qid", QUERY_IDS)
def test_query_results_match_reference(qid, tiny_db):
    qi = query_instance(qid, seed=3)
    got = tiny_db.run(qi.sql, hints=qi.hints)
    want = tiny_db.run_reference(qi.sql)
    assert norm_rows(got.rows) == norm_rows(want)


def test_categories_cover_all_queries():
    cats = {qid: query_category(qid) for qid in QUERY_IDS}
    assert set(cats.values()) == {"sequential", "index", "mixed"}
    assert cats["Q3"] == "index"
    assert cats["Q6"] == "sequential"
    assert cats["Q12"] == "mixed"


def test_unknown_query_rejected():
    with pytest.raises(KeyError):
        query_instance("Q99")
    with pytest.raises(KeyError):
        query_category("Q99")


def test_parameters_vary_with_seed():
    sqls = {query_instance("Q3", seed=i).sql for i in range(6)}
    assert len(sqls) > 1


def test_q12_carries_merge_hint():
    assert query_instance("Q12", seed=0).hints == {"orders": "merge"}


def test_q16_carries_hash_hint():
    assert query_instance("Q16", seed=0).hints == {"partsupp": "hash"}


def test_index_queries_have_no_seqscan_in_plan(tiny_db):
    """The paper's Index group (Q2/Q3/Q5/Q8/Q10/Q11) touch tables only
    through indices."""
    for qid in ("Q2", "Q3", "Q5", "Q8", "Q10", "Q11"):
        qi = query_instance(qid, seed=0)
        ops = tiny_db.operator_set(qi.sql, hints=qi.hints)
        assert "SS" not in ops, qid


def test_sequential_queries_have_no_indexscan_in_plan(tiny_db):
    for qid in ("Q1", "Q4", "Q6", "Q15", "Q16"):
        qi = query_instance(qid, seed=0)
        ops = tiny_db.operator_set(qi.sql, hints=qi.hints)
        assert "IS" not in ops, qid
