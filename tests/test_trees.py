import dataclasses
import hashlib
import json
import random

import pytest

from residua import stages, trees
from residua.catalog import build_group, chain_for
from residua.chains import SubgroupDescriptor, Transversal, ValueTest, _probe_id, chain_at, finite_chain, integers_chain, promote_to_omega, single_step_chain, concat_extension, verify_prefix
from residua.dsl import parse_expr
from residua.groups import (Element, PermGroup, make_cyclic, make_integers, make_symmetric,
                            wreath_product)
from residua.oracle import chain_enumerate
from residua.subgroups import SubgroupHandle
from residua.ordinal import OMEGA, CardinalBound, Ordinal, add, omega_power
from residua.powers import power_chain
from residua.trees import (
    NonMaterializableError,
    TreeError,
    TreeTruncation,
    act,
    coset_tree,
    emit,
    parse_truncation,
    restriction_map,
    stabilizer_chain,
    truncate,
    verify_simple,
)


def s3_chain():
    s3 = make_symmetric(3)
    a3 = frozenset(v for v in s3.element_values() if _is_even(v))
    return s3, finite_chain(s3, [a3, {s3.identity_value()}])


def _is_even(perm):
    seen, parity = set(), 0
    for start in range(len(perm)):
        if start in seen:
            continue
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


def lamplighter_chain():
    w = wreath_product(make_cyclic(2), make_integers())
    chain = concat_extension(
        w.extension(),
        integers_chain(2),
        power_chain(promote_to_omega(single_step_chain(make_cyclic(2))), w.points),
    )
    return w, chain


def coset_count_oracle(group, subgroup_values):
    """Left cosets of a subgroup by explicit partition of the element list."""
    cosets = set()
    for g in group.element_values():
        coset = frozenset(group.mul_values(g, h) for h in subgroup_values)
        cosets.add(coset)
    return len(cosets)


class TestCosetTree:
    def test_s3_level_sizes(self):
        s3, chain = s3_chain()
        a3 = frozenset(v for v in s3.element_values() if _is_even(v))
        assert coset_count_oracle(s3, a3) == 2
        assert coset_count_oracle(s3, {s3.identity_value()}) == 6
        tr = truncate(coset_tree(chain), 2)
        assert [tr.size(k) for k in range(3)] == [1, 2, 6]
        assert tr.fibres == (2, 3)

    def test_integers_truncation_sizes(self):
        tr = truncate(coset_tree(integers_chain(2)), 3)
        assert [tr.size(k) for k in range(4)] == [1, 2, 4, 8]

    def test_trivial_chain_root_only(self):
        c1 = make_cyclic(1)
        tr = truncate(coset_tree(finite_chain(c1, [])), 0)
        assert tr.depth == 0
        assert tr.size(0) == 1

    def test_lamplighter_block0(self):
        _, chain = lamplighter_chain()
        tr = truncate(coset_tree(chain), 3, block=0)
        assert [tr.size(k) for k in range(4)] == [1, 2, 4, 8]

    def test_lamplighter_block1_fibres(self):
        _, chain = lamplighter_chain()
        tr = truncate(coset_tree(chain), 2, block=1)
        assert tr.fibres == (2, 2)

    def test_depth_zero(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 0)
        assert tr.depth == 0

    def test_unmaterializable_level(self):
        s3, chain = s3_chain()
        with pytest.raises(NonMaterializableError):
            truncate(coset_tree(chain), 3)

    def test_fibre_is_the_transversal_size(self):
        # the 4 cosets of 1 in C(4), which its generator permutes in one cycle
        c4 = make_cyclic(4)
        tr = truncate(coset_tree(single_step_chain(c4)), 1)
        assert tr.fibres == (4,)
        auto = act(c4.element(1), tr)
        orbit = [0]
        for _ in range(3):
            orbit.append(auto.apply(1, orbit[-1]))
        assert sorted(orbit) == [0, 1, 2, 3]


class TestRestrictionMap:
    def test_to_root(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        to_root = restriction_map(tr, 0, 2)
        assert {to_root(i) for i in range(6)} == {0}

    def test_identity_map(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        same = restriction_map(tr, 2, 2)
        assert [same(i) for i in range(6)] == list(range(6))

    def test_s3_leaves_to_cosets(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        down = restriction_map(tr, 1, 2)
        # siblings by threes under fibre 3
        assert [down(i) for i in range(6)] == [0, 0, 0, 1, 1, 1]

    def test_functorial_on_random_triples(self):
        tr = truncate(coset_tree(integers_chain(2)), 6)
        rng = random.Random(7)
        for _ in range(50):
            i, j, k = sorted(rng.sample(range(7), 3))
            f_ij = restriction_map(tr, i, j)
            f_jk = restriction_map(tr, j, k)
            f_ik = restriction_map(tr, i, k)
            for idx in range(tr.size(k)):
                assert f_ij(f_jk(idx)) == f_ik(idx)

    def test_ordinal_addressing_block1(self):
        _, chain = lamplighter_chain()
        tr = truncate(coset_tree(chain), 2, block=1)
        down = restriction_map(tr, add(OMEGA, 1), add(OMEGA, 2))
        assert [down(i) for i in range(4)] == [0, 0, 1, 1]

    @pytest.mark.parametrize("level", [omega_power(2), add(omega_power(2), 2)])
    def test_level_not_of_stage_shape_rejected(self, level):
        # w^2 and w^2 + 2 are not of the form w*q + r, so they name no level
        tr = truncate(coset_tree(integers_chain(2)), 3)
        with pytest.raises(TreeError, match="w\\*q \\+ r"):
            restriction_map(tr, level, 3)


class TestAct:
    def test_identity_acts_trivially(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        assert act(s3.identity(), tr).is_identity()

    def test_transposition_swaps_level1(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        swap = s3.element((1, 0, 2))
        auto = act(swap, tr)
        assert auto.apply(0, 0) == 0
        assert auto.tables[1] == (1, 0)

    def test_three_cycle_fixes_level1_cycles_fibres(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        rot = s3.element((1, 2, 0))
        auto = act(rot, tr)
        assert auto.tables[1] == (0, 1)
        table = auto.tables[2]
        assert sorted(table) == list(range(6))
        # the two fibres are permuted within themselves, in 3-cycles
        for start in (0, 3):
            orbit = {start}
            x = table[start]
            while x not in orbit:
                orbit.add(x)
                x = table[x]
            assert len(orbit) == 3

    def test_homomorphism_on_random_pairs(self):
        s4 = make_symmetric(4)
        chains = chain_enumerate(s4, 3)
        chain = finite_chain(s4, chains[10][1:])
        tr = truncate(coset_tree(chain), len(chains[10]) - 1)
        rng = random.Random(3)
        vals = s4.element_values()
        for _ in range(25):
            a = s4.element(rng.choice(vals))
            b = s4.element(rng.choice(vals))
            assert act(a * b, tr).tables == act(a, tr).compose(act(b, tr)).tables

    def test_foreign_element_rejected(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        with pytest.raises(TreeError):
            act(make_cyclic(2).element(1), tr)

    @pytest.mark.parametrize("call", [
        lambda tr, g: act(g, tr),
        lambda tr, g: tr.digits_of_element(g),
        lambda tr, g: tr.thread_of(g),
    ], ids=["act", "digits_of_element", "thread_of"])
    def test_foreign_element_is_a_tree_error(self, call):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        with pytest.raises(TreeError, match="element of C\\(2\\) cannot act on a tree over"):
            call(tr, make_cyclic(2).element(1))

    def test_disagreeing_siblings_are_a_tree_error(self):
        # The last row is not a transversal of the trivial stage in A(3):
        # the identity's images at the deepest level would be
        # (0, 5, 2, 3, 2, 5), which is not a bijection.  The check must hold
        # under ``python -O`` too, so it is a TreeError and not an assert.
        s3, chain = s3_chain()
        first, last = chain.tail
        row = lambda *values: Transversal(s3, values)
        chain = dataclasses.replace(chain, tail=(
            dataclasses.replace(first, transversal=row((0, 1, 2), (1, 0, 2))),
            dataclasses.replace(last, transversal=row((0, 1, 2), (0, 2, 1), (1, 2, 0)))))
        tr = truncate(coset_tree(chain), 2)
        with pytest.raises(TreeError, match="sibling vertices disagree"):
            act(s3.identity(), tr)

    def test_block1_requires_base_stabilizer(self):
        w, chain = lamplighter_chain()
        tr = truncate(coset_tree(chain), 2, block=1)
        outside = w.element(((), 1))
        with pytest.raises(TreeError):
            act(outside, tr)
        inside = w.element((((0, 1),), 0))
        auto = act(inside, tr)
        assert auto.tables[1] == (1, 0)


class TestVerifySimple:
    def test_truncation_over_another_group_rejected(self):
        s3, chain = s3_chain()
        c6 = make_cyclic(6)
        other = truncate(coset_tree(finite_chain(c6, [{0, 2, 4}, {0}])), 2)
        with pytest.raises(TreeError, match="cannot act on a tree over C\\(6\\)"):
            verify_simple(chain, other)

    def test_s3_full_tree_simple(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        report = verify_simple(chain, tr)
        assert report.mode == "exhaustive"
        assert report.verdict == "simple"

    def test_chain_ending_above_trivial_has_violation(self):
        s3 = make_symmetric(3)
        a3 = frozenset(v for v in s3.element_values() if _is_even(v))
        chain = finite_chain(s3, [a3])
        tr = truncate(coset_tree(chain), 1)
        report = verify_simple(chain, tr)
        assert report.verdict == "violation"
        assert report.violations

    def test_probe_in_the_last_stage_is_a_violation(self):
        # without a truncation the probes are read against the chain; (0 1)
        # lies in its last stage, so it fixes the identity thread's deepest vertex
        s3 = make_symmetric(3)
        report = verify_simple(finite_chain(s3, [{s3.identity_value(), (1, 0, 2)}]))
        assert report.mode == "probe"
        assert report.verdict == "violation"
        assert report.violations == (
            {"element": "[1,0,2]", "level": "1", "vertex": "identity thread"},)

    def test_probes_past_the_budget_are_unresolved(self):
        # 4, -4 and -8 leave the 2-adic chain at stages 3, 3 and 4, past a
        # budget of 2; the limit stage w excludes them but does not move them
        report = verify_simple(chain_for(parse_expr("Z")), probes=32, seed=4, budget=2)
        assert report.unresolved == ("-4", "-8", "4")
        assert all(m["moved_at_level"] != "w" for m in report.moved)
        assert report.verdict == "no-violation-found"

    def test_lamplighter_probes_all_moved(self):
        _, chain = lamplighter_chain()
        report = verify_simple(chain, probes=32, seed=4, budget=12)
        assert report.mode == "probe"
        assert report.verdict == "no-violation-found"
        assert not report.unresolved
        assert len(report.moved) == 32


class TestStabilizerChain:
    def test_identity_thread_roundtrip(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        thread = tr.thread_of(s3.identity())
        recovered = stabilizer_chain(tr, thread)
        for i in range(3):
            for e in s3.elements():
                assert chain_at(chain, i).contains(e) == chain_at(recovered, i).contains(e)

    def test_other_thread_gives_conjugate(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        x = s3.element((1, 0, 2))
        thread = tr.thread_of(x)
        recovered = stabilizer_chain(tr, thread)
        for i in range(3):
            stage = chain_at(chain, i)
            conj = chain_at(recovered, i)
            for e in s3.elements():
                assert conj.contains(e) == stage.contains(x.inverse() * e * x)

    def test_identity_thread_keeps_the_stages(self):
        # on the identity thread every representative r_k is the identity,
        # so each recovered stage keeps its stage's own membership test, and
        # its representatives r_(k-1) * s * r_k^-1 are the stage's own
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        recovered = stabilizer_chain(tr, tr.thread_of(s3.identity()))
        for stage, got in zip(chain.tail, recovered.tail, strict=True):
            assert got.membership is stage.membership
            assert got.transversal.factor_reps() == stage.transversal.factor_reps()

    def test_constant_action_gives_constant_chain(self):
        c2 = make_cyclic(2)
        full = frozenset(c2.element_values())
        chain = finite_chain(c2, [full, full])
        tr = truncate(coset_tree(chain), 2)
        recovered = stabilizer_chain(tr, (0, 0, 0))
        for e in c2.elements():
            assert chain_at(recovered, 1).contains(e)
            assert chain_at(recovered, 2).contains(e)

    def test_incoherent_thread_rejected(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        with pytest.raises(TreeError):
            stabilizer_chain(tr, (0, 1, 0))


class TestEmit:
    def test_root_only_dot(self):
        c1 = make_cyclic(1)
        tr = truncate(coset_tree(finite_chain(c1, [])), 0)
        dot = emit(tr, "dot")
        assert dot.count("label") == 1
        assert "->" not in dot

    def test_s3_node_edge_counts(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        dot = emit(tr, "dot")
        assert dot.count("label") == 9
        assert dot.count("->") == 8

    def test_json_roundtrip_idempotent(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        text = emit(tr, "json")
        parsed = parse_truncation(text)
        assert emit(parsed, "json") == text

    def test_unknown_format(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 1)
        with pytest.raises(TreeError):
            emit(tr, "svg")


def tree_json(*levels):
    """A JSON truncation document from (size, parents) pairs, root first."""
    return json.dumps({"depth": len(levels) - 1, "provenance": "",
                       "levels": [{"size": size, "parents": list(parents)}
                                  for size, parents in levels]})


class TestFibredTruncation:
    @pytest.mark.parametrize("text, message", [
        (tree_json((1, ()), (2, (0, 0)), (4, (1, 1, 0, 0))), "not fibred"),
        (tree_json((1, ()), (2, (0, 0)), (4, (0, 0, 0, 1))), "not fibred"),
        (tree_json((1, ()), (2, (0, 0)), (3, (0, 0, 1))), "not a fibre multiple"),
        (tree_json((1, ()), (2, (0, 0)), (0, ()), (0, ())), "not a fibre multiple"),
        (tree_json((1, ()), (2, (0, 0)), (4, (0, 0, 1))), "wrong length"),
    ], ids=["swapped-parents", "uneven-parents", "size-3-over-2", "size-0", "short-table"])
    def test_only_fibred_trees_parse(self, text, message):
        with pytest.raises(TreeError, match=message):
            parse_truncation(text)

    @pytest.mark.parametrize("text", [
        "[]",
        '"x"',
        '{"depth": 0}',
        '{"levels": [{"size": 1, "parents": []}]}',
        '{"depth": 0, "levels": [{"size": "one", "parents": []}]}',
        '{"depth": 1, "levels": [{"size": 1, "parents": []}, {"size": 2}]}',
        "not json",
        '{"depth": 1.7, "levels": [{"size": 1.9, "parents": []}, '
        '{"size": 2.5, "parents": [0.2, 0.9]}]}',
        '{"depth": 1, "levels": [{"size": true, "parents": []}, '
        '{"size": 2, "parents": [false, false]}]}',
        '{"depth": 1, "levels": [{"size": 1, "parents": []}, {"size": "2", "parents": [0, 0]}]}',
        '{"depth": 1.0, "levels": [{"size": 1, "parents": []}, {"size": 2, "parents": [0, 0]}]}',
    ], ids=["list", "string", "no-levels", "no-depth", "non-integer-size", "no-parents",
            "not-json", "float-sizes", "boolean-sizes", "string-size", "float-depth"])
    def test_malformed_documents_raise_tree_errors(self, text):
        with pytest.raises(TreeError):
            parse_truncation(text)

    @pytest.mark.parametrize("text", [
        emit(truncate(coset_tree(chain_for(parse_expr("S(4)"))), 3), "json"),
        tree_json((1, ()), (3, (0, 0, 0)), (6, (0, 0, 1, 1, 2, 2))),
        tree_json((1, ()), (2, (0, 0)), (4, (1, 1, 0, 0))),
        tree_json((1, ()), (2, (0, 0)), (4, (0, 0, 0, 1))),
    ], ids=["S(4)", "fibres-3-2", "swapped-parents", "uneven-parents"])
    def test_restriction_maps_agree_with_parents(self, text):
        try:
            tr = parse_truncation(text)
        except TreeError:
            return  # a tree emit cannot write
        assert tr.levels == tuple((lv["size"], tuple(lv["parents"]))
                                  for lv in json.loads(text)["levels"])
        for k in range(1, tr.depth + 1):
            up = restriction_map(tr, k - 1, k)
            assert [up(i) for i in range(tr.size(k))] == [tr.parent(k, i) for i in range(tr.size(k))]

    @pytest.mark.parametrize("level, idx", [(0, 0), (0, 1), (3, 0), (2, 6), (1, -1)])
    def test_parent_outside_the_levels_raises(self, level, idx):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        with pytest.raises(TreeError):
            tr.parent(level, idx)

    @pytest.mark.parametrize("depth, call, message", [
        (2, lambda tr: tr.size(-1), "level -1 not materialized"),
        (2, lambda tr: tr.size(3), "level 3 not materialized"),
        (2, lambda tr: tr.representative(-1, 0), "level -1 not materialized"),
        (1, lambda tr: tr.representative(2, 3), "level 2 not materialized"),
        (2, lambda tr: tr.representative(1, 5), "no vertex 5 at level 1"),
        (2, lambda tr: tr.representative(1, -1), "no vertex -1 at level 1"),
        (2, lambda tr: tr.index_of_digits((5,)), "no digit 5 at level 1"),
        (2, lambda tr: tr.index_of_digits((0, -1)), "no digit -1 at level 2"),
        (2, lambda tr: tr.index_of_digits((0, 0, 0)), "level 3 not materialized"),
    ], ids=["size-1", "size3", "rep-level-1", "rep-level2-depth1", "rep-vertex5",
            "rep-vertex-1", "digit5", "digit-1", "digits-too-long"])
    def test_outside_the_levels_raises(self, depth, call, message):
        s3, chain = s3_chain()
        with pytest.raises(TreeError, match=message):
            call(truncate(coset_tree(chain), depth))


class TestFaithfulness:
    def test_only_identity_acts_trivially_when_chain_ends_at_one(self):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        for e in s3.elements():
            assert act(e, tr).is_identity() == e.is_identity()


class TestFiniteCorrespondence:
    def test_roundtrip_small_groups(self):
        # chains of length <= 2 over a few small groups: tree then stabilizers
        for group in (make_cyclic(6), make_symmetric(3)):
            for subgroup_sets in chain_enumerate(group, 2):
                chain = finite_chain(group, subgroup_sets[1:])
                tr = truncate(coset_tree(chain), len(subgroup_sets) - 1)
                thread = tr.thread_of(group.identity())
                recovered = stabilizer_chain(tr, thread)
                for k, expected in enumerate(subgroup_sets):
                    got = {
                        e.value for e in group.elements()
                        if chain_at(recovered, k).contains(e)
                    }
                    assert got == set(expected)

    def test_warm_round_trip_takes_no_group_products(self, monkeypatch):
        # once S(4) has its Cayley table, a tree round trip multiplies and
        # inverts by lookup only
        s4 = make_symmetric(4)
        chains = chain_enumerate(s4, 3)  # builds the table
        calls = []
        for name in ("mul_values", "inv_value"):
            original = getattr(PermGroup, name)
            monkeypatch.setattr(PermGroup, name,
                                lambda *args, f=original: calls.append(1) or f(*args))
        for sets in chains[::7]:
            chain = finite_chain(s4, sets[1:])
            tr = truncate(coset_tree(chain), len(sets) - 1)
            parse_truncation(emit(tr, "json"))
            emit(tr, "dot")
            stabilizer_chain(tr, tr.thread_of(s4.identity()))
            stabilizer_chain(tr, tr.thread_of(s4.generators[1]))
            assert verify_simple(chain, tr).verdict == "simple"
        assert calls == []

    def test_fibres_equal_step_indices(self):
        s4 = make_symmetric(4)
        for subgroup_sets in chain_enumerate(s4, 3)[:20]:
            chain = finite_chain(s4, subgroup_sets[1:])
            tr = truncate(coset_tree(chain), len(subgroup_sets) - 1)
            expected = [
                len(subgroup_sets[i]) // len(subgroup_sets[i + 1])
                for i in range(len(subgroup_sets) - 1)
            ]
            assert list(tr.fibres) == expected


# the groups whose depth-3 truncations the act-table digests below pin
TREE_GROUPS = ["S(4)", "wreath(C(2),C(3))", "prod(S(3),C(4))", "prod(A(4),C(2))"]


def count_membership(monkeypatch):
    """A one-item list that counts membership tests from now on: calls of
    SubgroupDescriptor.contains, and of the value tests that the sift takes
    from ``stages._value_test``."""
    calls = [0]
    original, value_test = SubgroupDescriptor.contains, stages._value_test

    def counting(self, e):
        calls[0] += 1
        return original(self, e)

    def counted_value_test(stage):
        inside = value_test(stage)

        def counted(v):
            calls[0] += 1
            return inside(v)

        return counted

    monkeypatch.setattr(SubgroupDescriptor, "contains", counting)
    monkeypatch.setattr(stages, "_value_test", counted_value_test)
    return calls


class TestPlacement:
    def test_element_outside_block_base_rejected(self):
        w, chain = lamplighter_chain()
        tr = truncate(coset_tree(chain), 2, block=1)
        with pytest.raises(TreeError, match="does not cover the element"):
            tr.digits_of_element(w.element(((), 1)))

    @pytest.mark.parametrize("depth", [-1, 3])
    def test_unmaterialized_depth_rejected(self, depth):
        s3, chain = s3_chain()
        tr = truncate(coset_tree(chain), 2)
        with pytest.raises(TreeError, match="not materialized"):
            tr.digits_of_element(s3.identity(), depth)

    @pytest.mark.parametrize("call", [
        lambda tr, g: tr.representative(1, 0),
        lambda tr, g: tr.digits_of_element(g),
        lambda tr, g: act(g, tr),
        lambda tr, g: stabilizer_chain(tr, (0, 0, 0)),
    ], ids=["representative", "digits_of_element", "act", "stabilizer_chain"])
    def test_parsed_truncation_has_no_chain_backing(self, call):
        s3, chain = s3_chain()
        parsed = parse_truncation(emit(truncate(coset_tree(chain), 2), "json"))
        with pytest.raises(TreeError, match="truncation has no chain backing"):
            call(parsed, s3.identity())

    @pytest.mark.parametrize("name", ["S(4)", "wreath(C(2),C(3))"])
    def test_act_matches_placing_every_vertex(self, name):
        # act places only the deepest vertices; placing each vertex of each
        # level on its own must give the same tables
        group = build_group(parse_expr(name))
        for sets in chain_enumerate(group, 3):
            if len(sets) != 4:
                continue
            tr = truncate(coset_tree(finite_chain(group, sets[1:])), 3)
            reps = [[tr.representative(level, idx) for idx in range(tr.size(level))]
                    for level in range(4)]
            for g in group.elements():
                auto = act(g, tr)
                for level in range(4):
                    for idx, rep in enumerate(reps[level]):
                        digits = tr.digits_of_element(g * rep, level)
                        assert auto.apply(level, idx) == tr.index_of_digits(digits)

    def test_exhaustive_check_membership_calls(self, monkeypatch):
        s4 = make_symmetric(4)
        sets = next(s for s in chain_enumerate(s4, 3) if len(s) == 4)
        assert [len(s) for s in sets] == [24, 4, 2, 1]
        chain = finite_chain(s4, sets[1:])
        tr = truncate(coset_tree(chain), 3)
        calls = count_membership(monkeypatch)
        assert verify_simple(chain, tr).verdict == "simple"
        assert calls[0] < 4000

    def test_exhaustive_check_places_each_element_once(self, monkeypatch):
        s4 = make_symmetric(4)
        sets = next(s for s in chain_enumerate(s4, 3) if len(s) == 4)
        assert [len(s) for s in sets] == [24, 4, 2, 1]
        chain = finite_chain(s4, sets[1:])
        tr = truncate(coset_tree(chain), 3)
        placements = [0]
        original = TreeTruncation.digits_of_element

        def counting(self, e, depth=None):
            placements[0] += 1
            return original(self, e, depth)

        monkeypatch.setattr(TreeTruncation, "digits_of_element", counting)
        calls = count_membership(monkeypatch)
        assert verify_simple(chain, tr).verdict == "simple"
        assert placements[0] <= 24
        assert calls[0] < 400

    def test_exhaustive_violations_above_trivial(self):
        # G > H1 > H2: a pair (g, vertex) is a violation exactly when g
        # fixes the vertex, i.e. r^-1 * g * r lies in the final stage
        for name in TREE_GROUPS:
            group = build_group(parse_expr(name))
            sets = next(s for s in chain_enumerate(group, 3) if len(s) == 4)
            chain = finite_chain(group, sets[1:3])
            tr = truncate(coset_tree(chain), 2)
            final = chain_at(chain, 2)
            reps = [tr.representative(2, idx) for idx in range(tr.size(2))]
            expected = [
                {"element": _probe_id(g), "level": 2, "vertex": idx}
                for g in group.elements() if not g.is_identity()
                for idx, r in enumerate(reps) if final.contains(r.inverse() * g * r)
            ]
            report = verify_simple(chain, tr)
            assert report.verdict == "violation", name
            assert list(report.violations) == expected, name

    @pytest.mark.parametrize("name, bound", [("S(4)", 150), ("A(5)", 650)])
    def test_exhaustive_check_element_products(self, monkeypatch, name, bound):
        # one sift per element, the deepest representatives, and one conjugate
        # per (deepest vertex, final-stage member): no element is translated
        group = build_group(parse_expr(name))
        sets = next(s for s in chain_enumerate(group, 3) if len(s) == 4)
        assert [len(s) for s in sets] == [group.order, 4, 2, 1]
        chain = finite_chain(group, sets[1:])
        tr = truncate(coset_tree(chain), 3)
        products = [0]
        original = Element.__mul__

        def counting(self, other):
            products[0] += 1
            return original(self, other)

        monkeypatch.setattr(Element, "__mul__", counting)
        assert verify_simple(chain, tr).verdict == "simple"
        assert products[0] <= bound

    def test_uncovered_coset_is_reported(self):
        # S(3) > C(3) > 1 with a C(3) transversal inside C(3): the (1 2) coset is missing
        s3, chain = s3_chain()
        c3 = chain.tail[0]
        inside = Transversal(s3, ((0, 1, 2), (1, 2, 0)))
        chain = dataclasses.replace(
            chain, tail=(dataclasses.replace(c3, transversal=inside), *chain.tail[1:]))
        tr = truncate(coset_tree(chain), 2)
        with pytest.raises(TreeError, match="does not cover the element"):
            verify_simple(chain, tr)

    def test_exhaustive_check_makes_no_act_call(self, monkeypatch):
        s4 = make_symmetric(4)
        sets = next(s for s in chain_enumerate(s4, 3) if len(s) == 4)
        chain = finite_chain(s4, sets[1:])
        tr = truncate(coset_tree(chain), 3)

        def refuse(g, tr):
            raise AssertionError("act called")

        monkeypatch.setattr(trees, "act", refuse)
        assert verify_simple(chain, tr).verdict == "simple"

    def test_handle_whose_generators_do_not_generate(self):
        # the handle's one generator, a 3-cycle, generates only C(3); the
        # check still covers all of S(3)
        s3 = make_symmetric(3)
        handle = SubgroupHandle(s3, s3.element_values(), generators=[(1, 2, 0)])
        chain = finite_chain(handle, [{handle.identity_value()}])
        tr = truncate(coset_tree(chain), 1)
        violations = [
            {"element": _probe_id(e), "level": 1, "vertex": idx}
            for e in handle.elements() if not e.is_identity()
            for idx, image in enumerate(act(e, truncate(coset_tree(chain), 1)).tables[1])
            if image == idx
        ]
        report = verify_simple(chain, tr)
        assert report == trees.SimplicityReport(
            mode="exhaustive", verdict="simple" if not violations else "violation",
            violations=tuple(violations))
        assert report.verdict == "simple"

    @pytest.mark.parametrize("name", ["S(4)", "prod(A(4),C(2))"])
    def test_remembered_placements_do_not_change_act(self, name):
        group = build_group(parse_expr(name))
        sets = [s for s in chain_enumerate(group, 3) if len(s) == 4][-1]
        chain = finite_chain(group, sets[1:])
        used = truncate(coset_tree(chain), 3)
        report = verify_simple(chain, used)
        assert verify_simple(chain, used) == report
        for g in group.elements():
            fresh = truncate(coset_tree(chain), 3)
            assert act(g, used).tables == act(g, fresh).tables

    def test_deepest_placement_membership_calls(self, monkeypatch):
        tr = truncate(coset_tree(chain_for(parse_expr("tower(Z,3)"))), 3, block=2)
        reps = [tr.representative(3, idx) for idx in range(tr.size(3))]
        assert len(reps) == 1024
        calls = count_membership(monkeypatch)
        for idx, rep in enumerate(reps):
            assert tr.index_of_digits(tr.digits_of_element(rep)) == idx
        assert calls[0] < 150_000


def count_sifts(monkeypatch):
    """A list that gets one item per ``stages._placer`` sift that a tree builds from now on."""
    sifts, original = [], stages._placer

    def counting(t, stage):
        sifts.append(stage)
        return original(t, stage)

    monkeypatch.setattr(trees, "_placer", counting)
    return sifts


def s4_depth_three():
    """S(4), and its first length-3 chain of ``chain_enumerate`` as a finite chain."""
    s4 = make_symmetric(4)
    sets = next(s for s in chain_enumerate(s4, 3) if len(s) == 4)
    return s4, finite_chain(s4, sets[1:])


class TestCosetTables:
    @pytest.mark.parametrize("name", [*TREE_GROUPS, "A(5)"])
    def test_table_placement_equals_the_sift(self, name):
        # every element, at every level: the same digit and residue, or None
        # outside the parent stage, from the lookup as from the sift
        group = build_group(parse_expr(name))
        values = group.element_values()
        for sets in chain_enumerate(group, 3):
            for stage in finite_chain(group, sets[1:]).tail:
                lookup = stages._table_placer(stage)
                assert lookup is not None
                sift = stages._placer(stage.transversal, stage)
                assert [lookup(v) for v in values] == [sift(v) for v in values]

    @pytest.mark.parametrize("change", [
        lambda stage: dataclasses.replace(stage, membership=ValueTest(stage.membership.test)),
        lambda stage: dataclasses.replace(stage, transversal=Transversal(
            stage.owner, stage.transversal.factor_reps()[0])),
        lambda stage: dataclasses.replace(stage, label="replaced"),
    ], ids=["membership", "transversal", "label"])
    def test_replaced_stage_places_by_the_sift(self, monkeypatch, change):
        s4, chain = s4_depth_three()
        stage = chain.tail[0]
        assert stages._table_placer(stage) is not None
        replaced = change(stage)
        assert stages._table_placer(replaced) is None
        changed = dataclasses.replace(chain, tail=(replaced, *chain.tail[1:]))
        sifts, calls = count_sifts(monkeypatch), count_membership(monkeypatch)
        tr, kept = (truncate(coset_tree(c), 3) for c in (changed, chain))
        assert [tr.thread_of(e) for e in s4.elements()] == [kept.thread_of(e)
                                                           for e in s4.elements()]
        assert sifts == [replaced] and calls[0] > 0

    def test_stage_given_a_new_transversal_places_by_the_sift(self):
        _, chain = s4_depth_three()
        stage = chain.tail[1]
        object.__setattr__(stage, "transversal",
                           Transversal(stage.owner, stage.transversal.factor_reps()[0]))
        assert stages._table_placer(stage) is None

    def test_group_above_the_table_cap_keeps_no_table(self):
        chain = single_step_chain(make_symmetric(6))  # order 720 > ORACLE_CAP
        assert stages._table_placer(chain.tail[0]) is None

    def test_finite_chain_places_by_lookup(self, monkeypatch):
        s4, chain = s4_depth_three()
        tr = truncate(coset_tree(chain), 3)
        sifts, calls = count_sifts(monkeypatch), count_membership(monkeypatch)
        for g in s4.elements():
            tr.thread_of(g)
            act(g, tr)
        assert (sifts, calls[0]) == ([], 0)
        assert verify_simple(chain, tr).verdict == "simple"
        # the scan of the final stage's members tests each element at most
        # once; placing them tests none
        assert sifts == [] and calls[0] <= s4.order


def spread_threads(tr, number):
    """The threads down to a few deepest vertices of ``tr``: the first, the
    last, the middle one and one that moves with ``number``."""
    deepest = tr.size(tr.depth)
    spans = [deepest // tr.size(k) for k in range(tr.depth + 1)]
    return [tuple(idx // span for span in spans)
            for idx in sorted({0, deepest - 1, deepest // 2, number * 7 % deepest})]


class TestStabilizersByConjugation:
    @pytest.mark.parametrize("name", TREE_GROUPS)
    def test_stages_are_the_conjugates(self, name):
        # stage k along a thread is r_k*K_k*r_k^-1, r_k the thread's
        # level-k representative, and the recovered chain verifies with the
        # original step indices
        group = build_group(parse_expr(name))
        values, multiply, invert = group.element_values(), group.multiply, group.invert
        for number, sets in enumerate(chain_enumerate(group, 3)):
            tr = truncate(coset_tree(finite_chain(group, sets[1:])), len(sets) - 1)
            steps = [len(sets[k - 1]) // len(sets[k]) for k in range(1, len(sets))]
            for thread in spread_threads(tr, number):
                recovered = stabilizer_chain(tr, thread)
                cert = verify_prefix(recovered, 1, 16, 0)
                assert cert.verdict == "pass"
                assert [level["index"] for level in cert.levels[1:]] == steps
                for k, expected in enumerate(sets):
                    r = tr.representative(k, thread[k]).value
                    conjugates = {multiply(multiply(r, h), invert(r)) for h in expected}
                    inside = stages._value_test(chain_at(recovered, k))
                    assert {v for v in values if inside(v)} == conjugates

    def test_builds_without_testing_members(self, monkeypatch):
        # no stage value test runs while the chain is built; the recovered
        # stages test members only when asked
        s4, chain = s4_depth_three()
        tr = truncate(coset_tree(chain), 3)
        threads = [tr.thread_of(g) for g in s4.elements()]
        calls, tests = count_membership(monkeypatch), [0]
        for stage in chain.tail:
            if isinstance(stage.membership, ValueTest):
                test = stage.membership.test
                monkeypatch.setattr(stage.membership, "test",
                                    lambda v, test=test: tests.__setitem__(0, tests[0] + 1)
                                    or test(v))
        recovered = [stabilizer_chain(tr, thread) for thread in threads]
        assert (calls[0], tests[0]) == (0, 0)
        assert chain_at(recovered[-1], 1).contains(s4.identity())
        assert tests[0] == 1

    def test_trivial_stage_stays_trivial_off_the_identity_thread(self):
        # a trivial stage keeps Element.is_identity, so the verifier checks
        # its 5040 representatives in linear time, not pairwise
        s7 = make_symmetric(7)
        tr = truncate(coset_tree(single_step_chain(s7)), 1)
        recovered = stabilizer_chain(tr, (0, 17))
        assert tr.representative(1, 17) != s7.identity()
        assert recovered.tail[0].membership is Element.is_identity
        assert verify_prefix(recovered, 1, 16, 0).verdict == "pass"


@pytest.mark.parametrize("call, message", [
    (lambda: truncate(coset_tree(s3_chain()[1]), -1), "negative depth"),
    (lambda: truncate(coset_tree(s3_chain()[1]), 1, block=1), "block 1 outside the chain"),
    (lambda: truncate(coset_tree(dataclasses.replace(s3_chain()[1], tail=(dataclasses.replace(
        s3_chain()[1].tail[0], transversal=None),))), 1), "stage 1 has no certified finite fibre"),
    (lambda: truncate(coset_tree(finite_chain(make_symmetric(3), [{(0, 1, 2)}],
                                              kappa=CardinalBound.finite(6))), 1),
     "fibre 6 at level 1 is not below kappa"),
    (lambda: truncate(coset_tree(integers_chain(2)), 18), "exceeds the vertex cap"),
    (lambda: restriction_map(truncate(coset_tree(lamplighter_chain()[1]), 2, block=1),
                             Ordinal.from_int(1), OMEGA), "below this truncation's base"),
    (lambda: restriction_map(truncate(coset_tree(lamplighter_chain()[1]), 2), 0, OMEGA),
     "is not in block 0"),
    (lambda: restriction_map(truncate(coset_tree(s3_chain()[1]), 2), 2, 1),
     "from deeper levels to shallower ones"),
    (lambda: stabilizer_chain(truncate(coset_tree(integers_chain(2)), 2), (0, 0, 0)),
     "need a finite acting group"),
    (lambda: stabilizer_chain(truncate(coset_tree(s3_chain()[1]), 2), (0, 0)),
     "from the root to the deepest level"),
    (lambda: parse_truncation(tree_json((2, (0, 0)))), "level 0 must be a single root"),
    (lambda: parse_truncation(json.dumps({"depth": 1, "levels": [{"size": 1, "parents": []}]})),
     "depth field disagrees"),
], ids=["negative-depth", "block-outside", "no-fibre", "fibre-not-below-kappa", "vertex-cap",
        "below-the-base", "another-block", "deeper-to-shallower", "infinite-group",
        "thread-length", "root-not-single", "depth-disagrees"])
def test_tree_errors(call, message):
    with pytest.raises(TreeError, match=message):
        call()


# group -> (first, last) length-3 chain of chain_enumerate(group, 3), and the
# first 16 hex digits of the sha256 of every element's act tables on its
# depth-3 truncation, in group.elements() order
ACT_TABLE_DIGESTS = {
    "S(4)": ((15, "682cab57accd340c"), (91, "805589db57a4e185")),
    "wreath(C(2),C(3))": ((13, "a7b64191e23615cc"), (75, "d75e7a684b36ff89")),
    "prod(S(3),C(4))": ((10, "7b59928981903e78"), (89, "2b169472e5c22cc6")),
    "prod(A(4),C(2))": ((13, "0a0fd63960039e7e"), (75, "e9cf8ea52ec636bf")),
}


@pytest.mark.parametrize("name", list(ACT_TABLE_DIGESTS))
def test_act_tables_match_pinned_digest(name):
    group = build_group(parse_expr(name))
    chains = chain_enumerate(group, 3)
    lengths = [i for i, sets in enumerate(chains) if len(sets) == 4]
    pinned = ACT_TABLE_DIGESTS[name]
    assert (lengths[0], lengths[-1]) == tuple(number for number, _ in pinned)
    for number, digest in pinned:
        tr = truncate(coset_tree(finite_chain(group, chains[number][1:])), 3)
        tables = json.dumps([act(e, tr).tables for e in group.elements()])
        assert hashlib.sha256(tables.encode()).hexdigest()[:16] == digest
