import hashlib
import json
from functools import reduce
from math import prod

import pytest
from hypothesis import assume, given

from splitmw import (
    ColoopsPresentError,
    LimitExceededError,
    LoopsPresentError,
    Matroid,
    NotSplitError,
    graphic,
    is_split,
    minimal,
    rank2_from_partition,
    recognize_minimal,
    to_dot,
    trace,
    tutte_subset_sum,
    uniform,
)
from splitmw.corpus import (
    graphic_corpus,
    k4_graph,
    minimal_matroids,
    rank2_matroids,
    split_trace_corpus,
    tutte_identity_corpus,
    uniform_matroids,
)
from splitmw.errors import SIZE_LIMITS
from splitmw.merino_welsh import check_mw, rank2_census_partitions
from splitmw.prooftrace import (
    BASE_RULES,
    RULE_BASE_CORANK1,
    RULE_BASE_CORANK2,
    RULE_BASE_MINIMAL,
    RULE_BASE_RANK1,
    RULE_BASE_RANK2,
    RULE_DELETE_CONTRACT,
    RULE_DIRECT_SUM,
    ProofNode,
    _clean_pivot,
    _leaf_report,
    matroid_digest,
)
from splitmw.matroid import RecordWriter

from conftest import (
    clean_pivot_oracle,
    derived_matroids,
    digest_oracle,
    every_family,
    node_matroid,
    pairwise_exchange_violation,
    sparse_paving,
    to_dict_oracle,
    trace_oracle,
)


def check_tree_structure(node):
    """Independent re-verification of every rule in a trace tree, from the
    records it writes: each child's record is the restriction, deletion or
    contraction of its parent's."""
    m = node_matroid(node)
    assert m.loops() == 0 and m.coloops() == 0
    assert node.mw.mult_ok
    if node.rule == RULE_DIRECT_SUM:
        comps = m.components()
        assert len(comps) != 1
        assert len(node.children) == len(comps)
        for child, comp in zip(node.children, comps):
            assert node_matroid(child) == m.restrict(comp)
    elif node.rule == RULE_DELETE_CONTRACT:
        assert len(node.children) == 2
        d, c = node.children
        assert node_matroid(d) == m.delete(node.element)
        assert node_matroid(c) == m.contract(node.element)
    else:
        assert node.rule in BASE_RULES
        assert not node.children
        if node.rule == "base-rank-1":
            assert m.rank == 1
        elif node.rule == "base-corank-1":
            assert m.n - m.rank == 1
        elif node.rule == "base-rank-2":
            assert m.rank == 2
        elif node.rule == "base-corank-2":
            assert m.n - m.rank == 2
        else:
            assert recognize_minimal(m) == node.minimal_kn
    for child in node.children:
        assert child.record["n"] < m.n
        check_tree_structure(child)


POINTS = ("t20", "t02", "t11")


def evaluations(report):
    return tuple(getattr(report, point) for point in POINTS)


def assert_evaluations_combine(t):
    """Each pivot node carries the sums of its children's evaluations and
    each direct-sum node their products, with its own verdicts."""
    for node in t.walk():
        if node.rule in BASE_RULES:
            continue
        combine = sum if node.rule == RULE_DELETE_CONTRACT else prod
        children = [evaluations(c.mw) for c in node.children]
        assert evaluations(node.mw) == tuple(
            combine(point[i] for point in children) for i in range(3))
        t20, t02, t11 = evaluations(node.mw)
        assert (node.mw.max_ok, node.mw.add_ok, node.mw.mult_ok) == (
            max(t20, t02) >= t11, t20 + t02 >= 2 * t11, t20 * t02 >= t11 * t11)
        assert (node.mw.n, node.mw.rank) == (node.record["n"], node.record["rank"])


class TestTrace:
    def test_minimal_47_is_a_single_base_case(self):
        t = trace(minimal(4, 7))
        assert t.verified
        assert t.node_count() == 1
        assert t.root.rule == "base-minimal"
        assert t.root.minimal_kn == (4, 7)
        assert t.root.mw.t11 == 13

    def test_rank1_base_case(self):
        t = trace(uniform(1, 3))
        assert t.verified and t.root.rule == "base-rank-1"

    def test_base_rule_labels(self):
        assert trace(uniform(2, 4)).root.rule == "base-rank-2"
        assert trace(uniform(2, 3)).root.rule == "base-corank-1"
        assert trace(uniform(3, 5)).root.rule == "base-corank-2"
        assert trace(uniform(1, 2)).root.rule == "base-rank-1"

    def test_k4_recursion(self, k4):
        t = trace(k4)
        assert t.verified
        assert t.root.rule == RULE_DELETE_CONTRACT
        assert t.root.element == 0  # smallest clean pivot
        assert len(t.root.children) == 2
        check_tree_structure(t.root)

    def test_disconnected_splits_into_components(self):
        t = trace(minimal(4, 7).direct_sum(uniform(1, 3)))
        assert t.verified
        assert t.root.rule == RULE_DIRECT_SUM
        assert [c.rule for c in t.root.children] == ["base-minimal", "base-rank-1"]

    def test_empty_matroid(self):
        t = trace(uniform(0, 0))
        assert t.verified
        assert t.root.rule == RULE_DIRECT_SUM
        assert t.root.children == ()
        assert t.root.mw.t11 == 1

    def test_rejects_loops_and_coloops(self):
        with pytest.raises(LoopsPresentError):
            trace(uniform(0, 3))
        with pytest.raises(ColoopsPresentError):
            trace(uniform(2, 2))

    def test_checks_size_before_loops(self):
        limit = SIZE_LIMITS["trace"]
        with pytest.raises(LimitExceededError):
            trace(uniform(0, limit + 1))
        with pytest.raises(LimitExceededError):
            trace(minimal(limit // 2, limit + 1))

    def test_rejects_non_split(self, dd4):
        with pytest.raises(NotSplitError):
            trace(dd4)
        with pytest.raises(NotSplitError):
            trace(minimal(2, 4).direct_sum(minimal(2, 4)))

    def test_fano_trace(self, fano):
        t = trace(fano)
        assert t.verified
        check_tree_structure(t.root)

    def test_every_node_in_a_trace_is_split(self, k4):
        for m in (k4, uniform(4, 8), minimal(4, 7).direct_sum(minimal(1, 2))):
            for node in trace(m).walk():
                nm = node_matroid(node)
                assert is_split(nm) and nm.is_clean()

    def test_structure_oracle_over_sample(self):
        sample = [uniform(3, 7), minimal(3, 6),
                  rank2_from_partition([2, 2, 2]),
                  uniform(2, 4).direct_sum(uniform(1, 3))]
        for m in sample:
            t = trace(m)
            assert t.verified
            check_tree_structure(t.root)

    def test_digest_is_stable(self):
        a = trace(minimal(3, 5)).root.digest
        b = trace(minimal(3, 5)).root.digest
        assert a == b and len(a) == 16

    def test_failed_inequality_yields_unverified_trace_not_error(self, k4, monkeypatch):
        # no real counterexample exists in the corpus, so fake the report:
        # a violation must surface as verified=False, never as an exception
        from splitmw.merino_welsh import report_from_evaluations
        monkeypatch.setattr("splitmw.prooftrace._leaf_report",
                            lambda m, rule: report_from_evaluations(
                                m.n, m.rank, 1, 1, 10))
        t = trace(uniform(1, 3))
        assert not t.verified
        assert t.root.rule == "base-rank-1"
        # only the leaves are faked; the root of M(K4) takes their sums
        t = trace(k4)
        assert not t.verified
        assert t.root.rule == RULE_DELETE_CONTRACT
        assert [c.rule for c in t.root.children] == [
            "base-corank-2", "base-rank-2"]
        assert evaluations(t.root.mw) == (2, 2, 20)
        assert not t.root.mw.mult_ok
        assert_evaluations_combine(t)

    # each distinct leaf is evaluated once, by its closed form
    @pytest.mark.parametrize("m", [
        graphic(k4_graph()), uniform(6, 10),
        uniform(2, 4).direct_sum(minimal(3, 6)), uniform(0, 0),
    ], ids=["K4", "U(6,10)", "U(2,4)+T(3,6)", "empty"])
    def test_engine_runs_once_per_distinct_leaf(self, m, monkeypatch):
        from splitmw import prooftrace
        called = []
        leaf_report = prooftrace._leaf_report
        monkeypatch.setattr(prooftrace, "_leaf_report", lambda m, rule:
                            called.append((m, rule)) or leaf_report(m, rule))
        t = trace(m)
        leaves = {node.digest: node.rule for node in t.walk()
                  if node.rule in BASE_RULES}
        writer = RecordWriter()
        called = [(matroid_digest(writer.write(leaf)[1]), rule)
                  for leaf, rule in called]
        assert len(called) == len(dict(called)) == len(leaves)
        assert dict(called) == leaves
        assert_evaluations_combine(t)


class TestNoCleanPivot:
    def test_minimal_47_has_no_clean_pivot(self):
        assert _clean_pivot(minimal(4, 7)) is None

    def test_k4_has_clean_pivots(self, k4):
        assert _clean_pivot(k4) is not None

    def test_u12(self):
        assert _clean_pivot(uniform(1, 2)) is None


def assert_pivot_matches_oracle(m):
    assert _clean_pivot(m) == clean_pivot_oracle(m)


class TestCleanPivotFromColumns:
    """The column test against building both minors of every element, on
    matroids with no loop or coloop, as every trace node is."""

    def test_corpus(self):
        for m in tutte_identity_corpus():
            if m.is_clean():
                assert_pivot_matches_oracle(m)

    def test_every_matroid_up_to_five_elements(self):
        for n in range(6):
            for m in every_family(n):
                if pairwise_exchange_violation(m) is None and m.is_clean():
                    assert_pivot_matches_oracle(m)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assume(m.is_clean())
        assert_pivot_matches_oracle(m)


class TestClassifyBaseCase:
    """The base-case lemma as the trace applies it: a connected node with
    no clean pivot takes a base rule, small rank or corank first."""

    def test_minimal_case(self):
        root = trace(minimal(3, 7)).root
        assert root.rule == "base-minimal" and root.minimal_kn == (3, 7)

    def test_both_case(self):
        m = minimal(1, 2)
        assert recognize_minimal(m) == (1, 2)
        root = trace(m).root
        assert root.rule == "base-rank-1" and root.minimal_kn is None

    def test_small_rank_case(self):
        assert trace(rank2_from_partition([2, 2, 2])).root.rule == "base-rank-2"

    def test_exhaustiveness_over_connected_split_corpus(self):
        """Every clean split matroid with n <= 9 traces, and every connected
        pivotless node of its trace takes a base rule."""
        seen = 0
        pool = (minimal_matroids(9) + uniform_matroids(9, clean_only=True)
                + rank2_matroids(9) + graphic_corpus(40, 9))
        for m in pool:
            if not m.is_clean() or not is_split(m):
                continue
            for node in trace(m).walk():  # raises ClassificationFailureError
                nm = node_matroid(node)
                if nm.is_connected() and _clean_pivot(nm) is None:
                    assert node.rule in BASE_RULES
                    seen += 1
        assert seen >= 80


class TestSerialization:
    def test_trace_document_shape(self, k4):
        d = trace(k4).to_dict()
        assert d["format"] == "trace-v1"
        assert d["verified"] is True
        assert d["rule"] == "delete-contract"
        assert d["params"] == {"element": 0}
        assert d["matroid"]["format"] == "matroid-bases-v1"
        assert d["mw"]["format"] == "mw-v1"
        assert len(d["children"]) == 2
        assert "format" not in d["children"][0]

    def test_each_node_record_is_built_once(self, k4, monkeypatch):
        # once per distinct matroid: M(K4) has no repeated node, U(6,10)
        # 29 nodes on 14 distinct matroids, U(2,4)+T(3,6) a root and two
        # components; every record, the root's too, goes through the
        # trace's writer, and none through `to_dict`
        built, dicts = [], []
        to_dict, write = Matroid.to_dict, RecordWriter.write
        monkeypatch.setattr(Matroid, "to_dict", lambda m: dicts.append(m) or to_dict(m))
        monkeypatch.setattr(RecordWriter, "write",
                            lambda writer, m: built.append(m) or write(writer, m))
        for m, nodes, distinct in ((k4, 3, 3), (uniform(6, 10), 29, 14),
                                   (uniform(2, 4).direct_sum(minimal(3, 6)), 3, 3)):
            built.clear()
            t = trace(m)
            assert dicts == []
            assert t.node_count() == nodes
            assert len(built) == len(set(built)) == distinct
            for node in t.walk():
                assert node.record == to_dict_oracle(node_matroid(node))
                assert node.digest == digest_oracle(node.record)
        # the trace-v1 bytes and the digest payload are unchanged
        text = json.dumps(trace(k4).to_dict(), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e0a4d5deac6feb381f57b1b7dfe99d8958f5e6a177c94cec8cd0c4f41e2b88ac")
        assert trace(minimal(3, 5)).root.digest == "6b6caefd6dc35d43"

    def test_trace_with_repeated_subtrees_is_unchanged(self):
        t = trace(uniform(6, 10))
        text = json.dumps(t.to_dict(), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3041270a5495c5638615b28f828b28281ea543e4e8b562ff9676af4806274c07")

    def test_each_minor_is_built_once(self, k4, monkeypatch):
        # once per distinct pivot or direct-sum node; the last two have
        # repeated nodes
        built = []
        for name in ("delete", "contract", "restrict"):
            method = getattr(Matroid, name)
            monkeypatch.setattr(Matroid, name, lambda m, x, method=method, name=name:
                                built.append(name) or method(m, x))
        for m in (k4, uniform(2, 4).direct_sum(minimal(3, 6)), uniform(6, 10),
                  uniform(1, 3).direct_sum(uniform(1, 3)).direct_sum(uniform(1, 3))):
            built.clear()
            t = trace(m)
            distinct = {node.digest: node for node in t.walk()}.values()
            rules = [node.rule for node in distinct]
            pivots = rules.count(RULE_DELETE_CONTRACT)
            assert built.count("delete") == built.count("contract") == pivots
            # direct-sum children, and the split test of a disconnected root
            comps = len(m.components())
            assert built.count("restrict") == sum(
                len(node.children) for node in distinct
                if node.rule == RULE_DIRECT_SUM) + (comps if comps > 1 else 0)

    def test_records_share_basis_lists_within_one_trace(self):
        # the nodes of one trace take their lists from its writer's tables;
        # changing them changes neither a later trace nor a later record
        m = uniform(4, 8)
        t = trace(m)
        lists = [b for node in t.walk() for b in node.record["bases"]]
        assert len({id(b) for b in lists}) < len(lists)
        for basis in lists:
            basis.append(99)
        assert json.dumps(trace(m).to_dict()) == json.dumps(trace_oracle(m).to_dict())
        assert m.to_dict() == to_dict_oracle(m)

    def test_minimal_params(self):
        d = trace(minimal(4, 7)).to_dict()
        assert d["params"] == {"k": 4, "n": 7}

    def test_dot_output(self, k4):
        dot = to_dot(trace(k4))
        assert dot.startswith("digraph")
        assert dot.count("->") == 2
        assert "delete-contract" in dot


def assert_shares_like_oracle(m) -> bool:
    """trace(m) writes the bytes of a trace built without sharing, and equal
    records are written by one node object.  True iff some matroid occurs
    twice."""
    t, expected = trace(m), trace_oracle(m)
    assert json.dumps(t.to_dict()) == json.dumps(expected.to_dict())
    nodes = list(t.walk())
    first = {}
    for node in nodes:
        assert node is first.setdefault(node.digest, node)
    return len(first) < len(nodes)


class TestNodeSharing:
    """A trace built once per distinct matroid against one that builds every
    node afresh (`conftest.build_oracle`)."""

    def test_split_trace_corpus(self):
        repeated = sum(map(assert_shares_like_oracle, split_trace_corpus()))
        assert repeated == 17

    def test_every_clean_split_matroid_up_to_five_elements(self):
        for n in range(6):
            for m in every_family(n):
                if (m.is_clean() and pairwise_exchange_violation(m) is None
                        and is_split(m)):
                    assert_shares_like_oracle(m)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assume(m.is_clean() and is_split(m))
        assert_shares_like_oracle(m)

    def test_equal_summands_share_one_node(self):
        # the three summands are equal after relabeling onto 0, 1, 2
        m = uniform(1, 3).direct_sum(uniform(1, 3)).direct_sum(uniform(1, 3))
        first, second, third = trace(m).root.children
        assert first is second is third

    @pytest.mark.parametrize("m", [
        graphic(k4_graph()), uniform(6, 10), sparse_paving(4, 9, 8, 4),
        uniform(1, 3).direct_sum(uniform(1, 3)).direct_sum(uniform(1, 3)),
    ], ids=["K4", "U(6,10)", "sparse-paving-4-9", "3U(1,3)"])
    def test_nodes_hold_only_what_they_write(self, m):
        # no Matroid is reachable from a trace, so each minor is freed once
        # its node is built; records hold dicts, lists, ints and strs
        assert "matroid" not in ProofNode._fields
        seen = set()   # a shared subtree is walked once

        def assert_plain(value):
            if isinstance(value, ProofNode):
                if id(value) in seen:
                    return
                seen.add(id(value))
            if isinstance(value, dict):
                for key, item in value.items():
                    assert_plain(key)
                    assert_plain(item)
            elif isinstance(value, (tuple, list)):   # nodes and reports too
                for item in value:
                    assert_plain(item)
            else:
                assert value is None or type(value) in (int, str, bool), value

        assert_plain(trace(m).root)


class TestSparsePavingTraces:
    """Seeded sparse paving matroids, whose traces pivot many levels deep,
    unlike those of `split_trace_corpus`: the oracle runs `check_mw` at
    every node, and the subset-sum engine shares no memo with it."""

    @pytest.mark.parametrize("k, n, hyperplanes, seed", [
        (3, 7, 7, 1), (4, 9, 8, 4), (5, 10, 12, 6), (4, 11, 25, 10),
        (5, 11, 40, 9), (6, 11, 30, 11)])
    def test_every_node_matches_subset_sum(self, k, n, hyperplanes, seed):
        m = sparse_paving(k, n, hyperplanes, seed)
        m.check_exchange()
        assert m.is_clean() and is_split(m)
        assert_shares_like_oracle(m)
        t = trace(m)
        assert t.verified
        for node in {node.digest: node for node in t.walk()}.values():
            tutte = tutte_subset_sum(node_matroid(node))
            assert evaluations(node.mw) == (
                tutte.evaluate(2, 0), tutte.evaluate(0, 2), tutte.evaluate(1, 1))
        assert_evaluations_combine(t)


def assert_leaf_form(m, rule):
    """The closed form of a base-case leaf against both engines."""
    report = _leaf_report(m, rule)
    assert report == check_mw(m)
    tutte = tutte_subset_sum(m)
    assert evaluations(report) == (
        tutte.evaluate(2, 0), tutte.evaluate(0, 2), tutte.evaluate(1, 1))


class TestLeafForms:
    """`_leaf_report` against `check_mw` (deletion-contraction) and
    `tutte_subset_sum`, over every class of leaf."""

    def test_rank2_census_and_duals(self):
        seen = 0
        for n in range(2, 13):
            for parts in rank2_census_partitions(n):
                m = rank2_from_partition(parts)
                assert_leaf_form(m, RULE_BASE_RANK2)
                assert_leaf_form(m.dual(), RULE_BASE_CORANK2)
                seen += 1
        assert seen == 248

    def test_rank_and_corank_one(self):
        for n in range(2, 13):
            assert_leaf_form(uniform(1, n), RULE_BASE_RANK1)
            assert_leaf_form(uniform(n - 1, n), RULE_BASE_CORANK1)

    def test_minimal(self):
        for n in range(6, 13):
            for k in range(3, n - 2):
                assert_leaf_form(minimal(k, n), RULE_BASE_MINIMAL)

    def test_every_leaf_of_the_split_trace_corpus(self):
        rules = set()
        for m in split_trace_corpus(10):
            for node in trace(m).walk():
                if node.rule in BASE_RULES:
                    assert_leaf_form(node_matroid(node), node.rule)
                    rules.add(node.rule)
        assert rules == BASE_RULES


def certify_sums():
    """The clean split direct sums of minimal matroids that the `certify`
    benchmark traces."""
    return [reduce(Matroid.direct_sum, parts) for parts in (
        (minimal(3, 7), minimal(1, 4)), (minimal(4, 8), minimal(2, 3)),
        (minimal(2, 5), minimal(1, 2), minimal(3, 4)),
        (minimal(4, 9), minimal(1, 3)), (minimal(6, 10), minimal(2, 3)),
        (minimal(5, 9), minimal(1, 3), minimal(2, 3)))]


@pytest.fixture
def no_engine(monkeypatch):
    """Every Tutte engine, and `check_mw` where the trace and the
    `merino_welsh` module look it up, raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Tutte engine ran")
    for target in ("splitmw.tutte.tutte_dc", "splitmw.tutte.tutte_subset_sum",
                   "splitmw.tutte._dc", "splitmw.merino_welsh.tutte_dc",
                   "splitmw.merino_welsh.tutte_subset_sum",
                   "splitmw.merino_welsh.check_mw", "splitmw.prooftrace.check_mw"):
        monkeypatch.setattr(target, refuse)


class TestNoEngine:
    """No trace runs a Tutte engine: the leaves take their closed forms,
    and every other node its children's sums or products."""

    def test_split_trace_corpus(self, no_engine):
        for m in split_trace_corpus():
            assert trace(m).verified

    def test_certify_sums(self, no_engine):
        for m in certify_sums():
            assert trace(m).verified

    @pytest.mark.parametrize("k, n, hyperplanes, seed", [
        (3, 7, 7, 1), (4, 9, 8, 4), (5, 10, 12, 6), (4, 11, 25, 10),
        (5, 11, 40, 9), (6, 11, 30, 11)])
    def test_sparse_paving(self, no_engine, k, n, hyperplanes, seed):
        assert trace(sparse_paving(k, n, hyperplanes, seed)).verified


def with_loop_and_coloop(m):
    """A loop below m's elements and a coloop above them."""
    return uniform(0, 1).direct_sum(m).direct_sum(uniform(1, 1))


def assert_writer_matches_oracle(m, writer=None):
    """The writer's record and text, and the digest of the text, against a
    JSON dump of the oracle's record; digests first, whose mismatch reports
    at once where a diff of two long texts takes minutes."""
    record, text = (writer or RecordWriter()).write(m)
    expected = to_dict_oracle(m)
    assert record == expected
    assert matroid_digest(text) == digest_oracle(expected)
    assert text == json.dumps(expected, separators=(",", ":"), sort_keys=True)


class TestDigestText:
    """`matroid_digest` hashes text written from the packed slots by
    `RecordWriter`; the oracle hashes a JSON dump of the record.  One writer
    serves matroids of every size, as one trace's does."""

    def test_corpus(self):
        writer = RecordWriter()
        for m in split_trace_corpus() + tutte_identity_corpus():
            assert_writer_matches_oracle(m, writer)

    def test_every_family_up_to_five_elements(self):
        writer = RecordWriter()
        for n in range(6):
            for m in every_family(n):
                assert_writer_matches_oracle(m, writer)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assert_writer_matches_oracle(m)

    def test_fresh_and_known_masks(self, monkeypatch):
        # a record with no mask in the tables is written whole from its own
        # slots, with no repacking; one with some known masks repacks only
        # its new ones, and takes the known ones' lists from the tables
        from splitmw import matroid
        packed = []
        to_slots = matroid.to_slots
        monkeypatch.setattr(matroid, "to_slots",
                            lambda masks, width: packed.append(list(masks))
                            or to_slots(masks, width))
        writer = RecordWriter()
        fewer = Matroid(4, 2, [0b11, 0b101, 0b110, 0b1001, 0b1010])
        first, _ = writer.write(fewer)
        assert packed == []
        second, _ = writer.write(uniform(2, 5))
        assert [sorted(masks) for masks in packed] == [
            [0b1100, 0b10001, 0b10010, 0b10100, 0b11000]]
        known = {tuple(b): b for b in first["bases"]}
        shared = [b for b in second["bases"] if known.get(tuple(b)) is b]
        assert len(shared) == len(known) == 5
        for m in (fewer, uniform(2, 5)):
            assert_writer_matches_oracle(m, writer)

    # n = 0, and 8, 9 and 16 on either side of a byte edge, with loops and
    # coloops; then byte positions that no basis touches; then slots past 64
    # bits, written through their numerals
    @pytest.mark.parametrize("m", [
        uniform(0, 0), uniform(1, 1), minimal(4, 8),
        with_loop_and_coloop(minimal(3, 6)), uniform(0, 8), uniform(8, 8),
        minimal(4, 9), with_loop_and_coloop(minimal(3, 7)), uniform(0, 9),
        minimal(8, 16), with_loop_and_coloop(minimal(7, 14)), uniform(0, 16),
        with_loop_and_coloop(uniform(2, 4).direct_sum(minimal(5, 8))),
        Matroid(16, 1, [1, 1 << 15]), Matroid(70, 1, [1, 2, 4]), uniform(1, 65),
        uniform(0, 65), uniform(70, 70), minimal(40, 81),
        with_loop_and_coloop(uniform(2, 66)),
    ], ids=lambda m: f"n{m.n}-r{m.rank}-{len(m.bases)}")
    def test_byte_edges(self, m):
        assert m.to_dict() == to_dict_oracle(m)
        assert_writer_matches_oracle(m)
