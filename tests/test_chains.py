import contextlib
import dataclasses
import io
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from residua import chains, cli, stages
from residua.catalog import chain_for
from residua.chains import (
    ChainError,
    ChainSchema,
    DepthInterval,
    SubgroupDescriptor,
    Transversal,
    _certify_transversal,
    _first_excluding_step,
    _blocks,
    chain_at,
    compress_successor_tail,
    concat_extension,
    core_sandwich,
    dihedral_chain,
    finite_chain,
    integers_chain,
    limit_membership,
    promote_to_omega,
    single_step_chain,
    verify_prefix,
)
from residua.dsl import parse_expr
from residua.groups import (
    CountablePoints,
    Element,
    ExtensionHandle,
    FinitePoints,
    IntegerGroup,
    label_sort_key,
    make_cyclic,
    make_infinite_dihedral,
    make_integers,
    make_symmetric,
    random_words,
    wreath_product,
)
from residua.ordinal import (ALEPH0, OMEGA, OMEGA_OMEGA, ZERO, CardinalBound, Ordinal, add,
                             multiply)
from residua.powers import diagonal_power_chain, power_chain, tower_chain
from residua.stages import ValueTest, _coset_check, _RowChecks


def lamplighter():
    return wreath_product(make_cyclic(2), make_integers())


def lamplighter_chain():
    w = lamplighter()
    return w, concat_extension(
        w.extension(), integers_chain(2), power_chain(promote_to_omega(single_step_chain(make_cyclic(2))), w.points)
    )


def natural_points():
    return CountablePoints(lambda i: i, "N", membership=lambda p: isinstance(p, int) and p >= 0)


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


class TestChainAt:
    def test_stage_zero_accepts_everything(self):
        chain = integers_chain(2)
        z = make_integers()
        for v in (0, 1, -7, 64):
            assert chain_at(chain, 0).contains(z.element(v))

    def test_intersection_excludes(self):
        chain = integers_chain(2)
        z = make_integers()
        assert not chain_at(chain, OMEGA).contains(z.element(6))
        assert chain_at(chain, OMEGA).contains(z.element(0))

    def test_two_adic_stages(self):
        chain = integers_chain(2)
        z = make_integers()
        assert not chain_at(chain, 1).contains(z.element(3))
        assert chain_at(chain, 2).contains(z.element(4))
        assert not chain_at(chain, 3).contains(z.element(4))

    def test_beyond_length_rejected(self):
        with pytest.raises(ChainError):
            chain_at(integers_chain(2), add(OMEGA, 1))

    def test_stage_address_is_an_ordinal_or_an_int(self):
        z = make_integers()
        for bad in (lambda: chain_at(integers_chain(2), 1.5),
                    lambda: limit_membership(integers_chain(2), 1.5, z.element(0))):
            with pytest.raises(TypeError, match="^expected Ordinal or int, got float$"):
                bad()

    def test_base_chain_over_a_given_group(self):
        z, d = make_integers(), make_infinite_dihedral()
        assert integers_chain(2, z).group is z
        assert dihedral_chain(2, d).group is d
        with pytest.raises(ChainError):
            integers_chain(2, d)
        with pytest.raises(ChainError):
            dihedral_chain(2, make_cyclic(2))

    def test_lamplighter_limit_is_kernel(self):
        w, chain = lamplighter_chain()
        ext = w.extension()
        probes = random_words(w, 50, seed=13)
        stage = chain_at(chain, OMEGA)
        for p in probes:
            assert stage.contains(p) == ext.kernel_contains(p)
            resolved = limit_membership(chain, OMEGA, p, budget=64)
            if resolved is not None:
                assert resolved == ext.kernel_contains(p)


class TestVerifyPrefix:
    def test_two_adic_pass(self):
        cert = verify_prefix(integers_chain(2), levels=6, probes=48, seed=0)
        assert cert.verdict == "pass"
        by_stage = {row["stage"]: row for row in cert.levels}
        assert by_stage["3"]["index"] == 2
        assert all(row["descent"] for row in cert.levels)

    def test_two_adic_separation_levels(self):
        # value 3 leaves at stage 1, value 4 at stage 3
        chain = integers_chain(2)
        z = make_integers()
        assert not chain_at(chain, 1).contains(z.element(3))
        assert chain_at(chain, 2).contains(z.element(4))
        assert not chain_at(chain, 3).contains(z.element(4))

    def test_prime_cyclic_kappa_too_small_fails(self):
        cert = verify_prefix(
            single_step_chain(make_cyclic(5)), levels=1, probes=8, seed=0,
            kappa=CardinalBound.finite(5),
        )
        assert cert.verdict == "fail"
        assert "kappa" in cert.failure["reason"]

    def test_repetition_passes_with_index_one(self):
        c2 = make_cyclic(2)
        full = frozenset(c2.element_values())
        chain = finite_chain(c2, [full, full, {0}])
        cert = verify_prefix(chain, levels=1, probes=4, seed=0)
        assert cert.verdict == "pass"
        assert [row["index"] for row in cert.levels] == [None, 1, 1, 2]

    def test_chain_ending_above_trivial_fails(self):
        s3 = make_symmetric(3)
        a3 = frozenset(v for v in s3.element_values() if _is_even(v))
        chain = finite_chain(s3, [a3])
        cert = verify_prefix(chain, levels=1, probes=16, seed=2)
        assert cert.verdict == "fail"
        assert cert.failure["reason"] == "final stage accepts a non-identity probe"

    def test_dihedral_chain_pass(self):
        cert = verify_prefix(dihedral_chain(2), levels=6, probes=48, seed=1)
        assert cert.verdict == "pass"

    def test_certificate_deterministic(self):
        a = verify_prefix(integers_chain(2), levels=5, probes=32, seed=9).to_jsonable()
        b = verify_prefix(integers_chain(2), levels=5, probes=32, seed=9).to_jsonable()
        assert a == b

    @pytest.mark.parametrize("probes", [0, -3])
    def test_no_probes_is_inconclusive(self, probes):
        for chain in (integers_chain(2), tower_chain(make_infinite_dihedral(), dihedral_chain(), 2)):
            cert = verify_prefix(chain, levels=4, probes=probes, seed=0)
            assert cert.verdict == "inconclusive"
            assert cert.probes_used == 0
            assert any("no probes were drawn" in f for f in cert.flags)

    def test_broken_limit_claim_fails(self):
        # claim the full group at the limit: probes excluded below contradict it
        base = integers_chain(2)
        from residua.chains import ChainSchema, SubgroupDescriptor

        bad = ChainSchema(
            group=base.group,
            kappa=base.kappa,
            num_blocks=1,
            block_rule=base.block_rule,
            final_limit=SubgroupDescriptor(
                owner=base.group, membership=lambda e: True, label="bogus limit"
            ),
            name="broken",
        )
        cert = verify_prefix(bad, levels=4, probes=16, seed=0)
        assert cert.verdict == "fail"
        assert "limit stage accepts" in cert.failure["reason"] or (
            cert.failure["reason"] == "final stage accepts a non-identity probe"
        )


class TestConcatExtension:
    def test_lamplighter_length(self):
        _, chain = lamplighter_chain()
        assert chain.length == multiply(OMEGA, 2)

    def test_lamplighter_verifies(self):
        _, chain = lamplighter_chain()
        cert = verify_prefix(chain, levels=5, probes=64, seed=7)
        assert cert.verdict == "pass"

    def test_zero_length_quotient_returns_kernel_chain(self):
        kernel_chain = integers_chain(2)
        z = make_integers()
        c1 = make_cyclic(1)
        from residua.groups import extension_from_quotient

        ext = extension_from_quotient(
            total=z,
            projection=lambda e: Element(c1, 0),
            quotient=c1,
            section=lambda q: z.identity(),
            kernel_group=z,
            kernel_embed=lambda k: k,
            kernel_retract=lambda e: e,
        )
        trivial_chain = finite_chain(c1, [])
        assert concat_extension(ext, trivial_chain, kernel_chain) is kernel_chain

    def test_group_mismatch(self):
        w = lamplighter()
        with pytest.raises(ChainError):
            concat_extension(w.extension(), dihedral_chain(), integers_chain(2))

    def test_length_law_on_random_shapes(self):
        # schema-level: concat length is the ordinal sum, across 50 shapes
        from residua.groups import DirectProductGroup, extension_from_quotient

        rng = random.Random(4)
        c2 = make_cyclic(2)
        full = frozenset(c2.element_values())
        triv = {0}
        total = DirectProductGroup([c2, c2])
        ext = extension_from_quotient(
            total=total,
            projection=lambda e: Element(c2, e.value[0]),
            quotient=c2,
            section=lambda qv: Element(total, (qv.value, 0)),
            kernel_group=c2,
            kernel_embed=lambda k: Element(total, (0, k.value)),
            kernel_retract=lambda e: Element(c2, e.value[1]),
        )
        for _ in range(50):
            q1, r1 = rng.randint(0, 1), rng.randint(1, 3)
            q2, r2 = rng.randint(0, 1), rng.randint(1, 3)
            a = finite_chain(c2, [full] * (r1 - 1) + [triv])
            if q1:
                a = promote_to_omega(a)
                r1 = 0
            b = finite_chain(c2, [full] * (r2 - 1) + [triv])
            if q2:
                b = promote_to_omega(b)
                r2 = 0
            expected = add(
                add(multiply(OMEGA, q1), r1), add(multiply(OMEGA, q2), r2)
            )
            combined = concat_extension(ext, a, b)
            assert combined.length == expected


class TestCompress:
    def test_s4_chain_to_single_jump(self):
        s4 = make_symmetric(4)
        a4 = frozenset(v for v in s4.element_values() if _is_even(v))
        v4 = frozenset(
            {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
        )
        chain = finite_chain(s4, [a4, v4, {s4.identity_value()}])
        squeezed = compress_successor_tail(chain)
        assert squeezed.length == Ordinal.from_int(1)
        stage = squeezed.tail[0]
        assert stage.transversal.size == 24
        assert len({e.value for e in stage.transversal}) == 24
        cert = verify_prefix(squeezed, levels=1, probes=24, seed=0)
        assert cert.verdict == "pass"

    def test_omega_plus_three_with_doubling_tail(self):
        from residua.groups import DirectProductGroup, extension_from_quotient

        c2 = make_cyclic(2)
        c8 = make_cyclic(8)
        total = DirectProductGroup([c2, c8])
        ext = extension_from_quotient(
            total=total,
            projection=lambda e: Element(c2, e.value[0]),
            quotient=c2,
            section=lambda qv: Element(total, (qv.value, 0)),
            kernel_group=c8,
            kernel_embed=lambda k: Element(total, (0, k.value)),
            kernel_retract=lambda e: Element(c8, e.value[1]),
        )
        omega_chain = promote_to_omega(single_step_chain(c2))
        tail3 = finite_chain(c8, [{0, 2, 4, 6}, {0, 4}, {0}])
        combined = concat_extension(ext, omega_chain, tail3)
        assert combined.length == add(OMEGA, 3)
        assert [s.transversal.size for s in combined.tail] == [2, 2, 2]
        squeezed = compress_successor_tail(combined)
        assert squeezed.length == add(OMEGA, 1)
        assert squeezed.tail[0].transversal.size == 8
        cert = verify_prefix(squeezed, levels=3, probes=24, seed=1)
        assert cert.verdict == "pass"

    def test_tail_indices_multiply(self):
        c8 = make_cyclic(8)
        chain = finite_chain(c8, [{0, 2, 4, 6}, {0, 4}, {0}])
        squeezed = compress_successor_tail(chain)
        assert squeezed.tail[0].transversal.size == 8

    def test_length_omega_plus_one_rejected(self):
        c2 = make_cyclic(2)
        single = finite_chain(c2, [{0}])
        with pytest.raises(ChainError):
            compress_successor_tail(single)

    def test_preserves_membership_and_separations(self):
        s4 = make_symmetric(4)
        a4 = frozenset(v for v in s4.element_values() if _is_even(v))
        chain = finite_chain(s4, [a4, {s4.identity_value()}])
        squeezed = compress_successor_tail(chain)
        probes = random_words(s4, 24, seed=5)
        for p in probes:
            assert chain_at(chain, 0).contains(p) == chain_at(squeezed, 0).contains(p)
            # final stages agree
            assert chain_at(chain, 2).contains(p) == chain_at(squeezed, 1).contains(p)


class TestPowerChain:
    def test_index_doubling_base(self):
        base = promote_to_omega(single_step_chain(make_cyclic(2)))
        chain = power_chain(base, natural_points())
        # step index at every level is 2; cumulative index of stage n is 2^n
        cumulative = 1
        for n in range(1, 9):
            size = chain.stage_at(0, n).transversal.size
            assert size == 2
            cumulative *= size
            assert cumulative == 2 ** n

    def test_index_doubling_oracle_coset_enumeration(self):
        # cosets of {f : f vanishes on the first n points} inside (Z/2)^n
        for n in range(1, 9):
            size = 2 ** n
            seen = {tuple([0] * n)}
            frontier = [tuple([0] * n)]
            gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            while frontier:
                new = []
                for x in frontier:
                    for g in gens:
                        y = tuple((a + b) % 2 for a, b in zip(x, g))
                        if y not in seen:
                            seen.add(y)
                            new.append(y)
                frontier = new
            assert len(seen) == size

    def test_integer_base_step_indices(self):
        chain = power_chain(integers_chain(2), natural_points())
        for n in range(1, 7):
            assert chain.stage_at(0, n).transversal.size == 2 ** n

    def test_integer_base_cumulative_index_oracle(self):
        # [whole : stage n] as coset counting in the finite quotient (Z/2^n)^n:
        # per coordinate i the stage image is the multiples of 2^(n-i), and
        # the coordinate subgroups multiply.  For n <= 3 also flat BFS.
        chain = power_chain(integers_chain(2), natural_points())
        for n in range(1, 7):
            modulus = 2 ** n
            expected = 1
            for i in range(n):
                coordinate_subgroup = {
                    v % modulus for v in range(0, modulus * 2, 2 ** (n - i))
                }
                for a in coordinate_subgroup:
                    for b in coordinate_subgroup:
                        assert (a + b) % modulus in coordinate_subgroup
                expected *= modulus // len(coordinate_subgroup)
            assert expected == 2 ** (n * (n + 1) // 2)
            cumulative = 1
            for k in range(1, n + 1):
                cumulative *= chain.stage_at(0, k).transversal.size
            assert cumulative == expected
        # flat double-check for small n
        for n in range(1, 4):
            modulus = 2 ** n
            sub = [
                tuple(vals)
                for vals in itertools.product(
                    *[range(0, modulus, 2 ** (n - i)) for i in range(n)]
                )
            ]
            subset = set(sub)
            seen = {tuple([0] * n)}
            frontier = [tuple([0] * n)]
            gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            cosets = {tuple([0] * n)}
            while frontier:
                new = []
                for x in frontier:
                    for g in gens:
                        y = tuple((a + b) % modulus for a, b in zip(x, g))
                        if y not in seen:
                            seen.add(y)
                            new.append(y)
                frontier = new
            canon = {
                tuple(v % (2 ** (n - i)) for i, v in enumerate(x)) for x in seen
            }
            assert len(canon) == 2 ** (n * (n + 1) // 2)

    def test_matches_literal_transcription(self):
        base = integers_chain(2)
        chain = power_chain(base, natural_points())
        grp = chain.group
        z = make_integers()
        rng = random.Random(99)
        for _ in range(100):
            support = rng.sample(range(10), rng.randint(0, 4))
            value = tuple(
                sorted(
                    ((p, rng.choice([-3, -2, -1, 1, 2, 3, 4])) for p in support),
                    key=lambda pv: label_sort_key(pv[0]),
                )
            )
            e = grp.element(value)
            for n in range(0, 9):
                literal = all(
                    chain_at(base, n - i).contains(z.element(dict(value).get(i, 0)))
                    for i in range(n)
                )
                assert chain.stage_at(0, n).contains(e) == literal

    def test_support_outside_checked_coordinates(self):
        base = promote_to_omega(single_step_chain(make_cyclic(2)))
        chain = power_chain(base, natural_points())
        grp = chain.group
        lamp3 = grp.element(((3, 1),))
        for n in range(0, 4):
            assert chain.stage_at(0, n).contains(lamp3)
        assert not chain.stage_at(0, 4).contains(lamp3)

    def test_rejects_successor_tail(self):
        c2 = make_cyclic(2)
        with pytest.raises(ChainError):
            power_chain(single_step_chain(c2), natural_points())

    def test_rejects_finite_points(self):
        with pytest.raises(ChainError):
            power_chain(integers_chain(2), FinitePoints([0, 1]))

    def test_verify(self):
        chain = power_chain(promote_to_omega(single_step_chain(make_cyclic(2))), natural_points())
        cert = verify_prefix(chain, levels=5, probes=32, seed=3)
        assert cert.verdict == "pass"

    def test_stage_under_a_parent_that_constrains_more_points(self):
        # a caller's chain that lists power stages out of order: the parent
        # (step 2) constrains a point that the stage (step 1) leaves free, so
        # the row does not split into base rows and is checked as one leaf
        chain = power_chain(promote_to_omega(single_step_chain(make_cyclic(2))), natural_points())
        s1, s2 = chain.stage_at(0, 1), chain.stage_at(0, 2)
        out_of_order = ChainSchema(group=chain.group, kappa=ALEPH0, num_blocks=0,
                                   tail=(s1, s2, s1))
        cert = verify_prefix(out_of_order, levels=1, probes=32, seed=0)
        assert cert.verdict == "fail"
        assert (cert.failure["reason"], cert.failure["stage"]) == ("descent violated", "3")
        assert [row["index"] for row in cert.levels] == [None, 2, 2, None]

    def test_a_parent_that_constrains_more_points_keeps_the_row_a_leaf(self):
        # over Z, 2Z, 2Z, ... with rows of index 1, step 2 under step 3 has
        # base rows that pass at its two points; a probe outside 2Z only at
        # the third point, which the parent alone constrains, breaks descent
        # through the row's intermediate, which base rows there would not see
        z = make_integers()
        base = ChainSchema(
            group=z, kappa=ALEPH0, num_blocks=1, final_limit=SubgroupDescriptor(
                owner=z, membership=ValueTest(lambda v: v == 0)),
            block_rule=lambda b, n: SubgroupDescriptor(
                owner=z, membership=ValueTest(lambda v, m=2 if n else 1: v % m == 0),
                transversal=Transversal(z, [0]) if n else None))
        chain = power_chain(base, natural_points())
        s2, s3 = chain.stage_at(0, 2), chain.stage_at(0, 3)
        probes = random_words(chain.group, 64, 0)
        index, failure = _certify_transversal(s2.transversal, s3, s2, probes,
                                              list(map(s3.contains, probes)),
                                              list(map(s2.contains, probes)))
        assert index is None and failure[0] == "descent violated"
        assert failure[1].value == ((1, -1),)
        assert _RowChecks.split(s3, s2) is None

    def test_infinite_base_index_fails(self):
        from residua.chains import ChainSchema, SubgroupDescriptor

        z = make_integers()

        def rule(b, n):
            if n == 0:
                return SubgroupDescriptor(owner=z, membership=lambda e: True)
            return SubgroupDescriptor(
                owner=z, membership=lambda e: e.value == 0,
                infinite_index=True, label="zero",
            )

        base = ChainSchema(
            group=z, kappa=ALEPH0, num_blocks=1, block_rule=rule,
            final_limit=SubgroupDescriptor(owner=z, membership=lambda e: e.value == 0),
            name="one infinite jump",
        )
        chain = power_chain(base, natural_points())
        assert chain.stage_at(0, 2).infinite_index
        cert = verify_prefix(chain, levels=2, probes=8, seed=0)
        assert cert.verdict == "fail"
        assert cert.failure["reason"] == "step index is infinite"


class TestDiagonalPowerChain:
    def test_s3_indices(self):
        s3, chain = s3_chain()
        diag = diagonal_power_chain(chain, FinitePoints([0, 1]))
        assert [s.transversal.size for s in diag.tail] == [4, 9]
        cert = verify_prefix(diag, levels=1, probes=32, seed=0)
        assert cert.verdict == "pass"

    def test_single_point_identical_membership(self):
        s3, chain = s3_chain()
        diag = diagonal_power_chain(chain, FinitePoints([0]))
        grp = diag.group
        for v in make_symmetric(3).element_values():
            e = grp.element(((0, v),))
            for n in range(3):
                assert diag.stage_at(0, n).contains(e) == chain.stage_at(0, n).contains(
                    make_symmetric(3).element(v)
                )

    def test_trivial_base(self):
        c1 = make_cyclic(1)
        diag = diagonal_power_chain(finite_chain(c1, []), FinitePoints([0, 1]))
        assert diag.length == ZERO

    def test_identity_is_tested_once_per_distinct_stage(self):
        # every point of a diagonal stage holds the same base stage object
        base = finite_chain(make_cyclic(2), [{0}])
        step, calls = base.tail[0], []
        counted = dataclasses.replace(
            step, membership=lambda e: calls.append(e) or step.membership(e))
        diag = diagonal_power_chain(dataclasses.replace(base, tail=(counted,)),
                                    FinitePoints(range(50)))
        assert diag.tail[0].contains(diag.group.identity())
        assert len(calls) == 1


class TestTowerChain:
    def test_height_one_returns_base_chain(self):
        d = make_infinite_dihedral()
        chain = dihedral_chain()
        result = tower_chain(d, chain, 1)
        assert result.group.tag == d.tag
        assert result.length == OMEGA

    def test_height_two_verifies(self):
        d = make_infinite_dihedral()
        chain = tower_chain(d, dihedral_chain(), 2)
        assert chain.length == multiply(OMEGA, 2)
        cert = verify_prefix(chain, levels=4, probes=64, seed=0, word_len=6)
        assert cert.verdict == "pass"
        # the exactness hypotheses ride along into the certificate
        assert any("finite abelianization claimed=True" in f for f in cert.flags)
        assert any("upper bound" in f for f in cert.flags)

    def test_height_three_verifies(self):
        chain = tower_chain(make_integers(), integers_chain(2), 3)
        cert = verify_prefix(chain, levels=1, probes=8, seed=0)
        assert cert.verdict == "pass"

    def test_height_three_length(self):
        d = make_infinite_dihedral()
        chain = tower_chain(d, dihedral_chain(), 3)
        assert chain.length == multiply(OMEGA, 3)

    def test_rejects_zero_height(self):
        with pytest.raises(ChainError):
            tower_chain(make_infinite_dihedral(), dihedral_chain(), 0)

    def test_rejects_finite_base(self):
        with pytest.raises(ChainError):
            tower_chain(make_cyclic(2), single_step_chain(make_cyclic(2)), 2)


class TestTransversal:
    """Product transversals list their representatives in the order of
    itertools.product over the factor transversals, built eagerly here as
    the reference."""

    @staticmethod
    def coordinatewise_reference(grp, coords):
        pools = [[(x, rep.value) for rep in stage.transversal] for x, stage in coords]
        return [
            grp.validate_value(dict(combo).items()) for combo in itertools.product(*pools)
        ]

    def test_compressed_tail_order(self):
        s4 = make_symmetric(4)
        a4 = frozenset(v for v in s4.element_values() if _is_even(v))
        v4 = frozenset({(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)})
        chain = finite_chain(s4, [a4, v4, {s4.identity_value()}])
        reference = []
        for combo in itertools.product(*[list(s.transversal) for s in chain.tail]):
            e = combo[0]
            for x in combo[1:]:
                e = e * x
            reference.append(e.value)
        t = compress_successor_tail(chain).tail[0].transversal
        assert [e.value for e in t] == reference
        assert [t.rep(i).value for i in range(t.size)] == reference

    def test_power_stage_order(self):
        base = integers_chain(2)
        chain = power_chain(base, natural_points())
        coords = [(i, base.stage_at(0, 3 - i)) for i in range(3)]
        t = chain.stage_at(0, 3).transversal
        assert t.size == 8
        assert [e.value for e in t] == self.coordinatewise_reference(chain.group, coords)

    def test_diagonal_stage_order(self):
        base = single_step_chain(make_cyclic(2))
        diag = diagonal_power_chain(base, FinitePoints([0, 1, 2]))
        coords = [(x, base.tail[0]) for x in (0, 1, 2)]
        t = diag.tail[0].transversal
        assert t.size == 8
        assert [e.value for e in t] == self.coordinatewise_reference(diag.group, coords)

    @pytest.mark.parametrize("expr, n", [("tower(Dinf,2)", 6), ("prod(tower(Z,2),C(3))", 5),
                                         ("power(tower(Dinf,2),3)", 3)])
    def test_product_iteration_is_in_rep_order(self, expr, n):
        # iteration multiplies factor by factor; rep(i) multiplies i's digits
        t = chain_for(parse_expr(expr)).stage_at(1, n).transversal
        assert len(t.factor_reps()) >= 2
        assert list(t) == [t.rep(i) for i in range(t.size)]

    def test_deep_stage_built_on_demand(self):
        chain = tower_chain(make_integers(), integers_chain(2), 2)
        start = time.perf_counter()
        stage = chain.stage_at(1, 64)
        assert time.perf_counter() - start < 5
        t = stage.transversal
        assert t.size == 2 ** 64
        last = t.rep(t.size - 1)
        assert chain.stage_at(1, 63).contains(last)
        assert not stage.contains(last)
        with pytest.raises(IndexError):
            t.rep(t.size)


def count_membership_tests(monkeypatch, bound=None) -> list:
    """A list that grows by one for each membership test from now on: each
    ``SubgroupDescriptor.contains``, and each call of a value test that the
    coset checks and the sift take from ``stages._value_test``.  A test past
    ``bound`` raises AssertionError."""
    calls = []
    contains, value_test = SubgroupDescriptor.contains, stages._value_test

    def count():
        calls.append(1)
        if bound is not None and len(calls) > bound[0]:
            raise AssertionError("the row is checked pairwise")

    def counted_value_test(stage):
        inside = value_test(stage)
        return lambda v: count() or inside(v)

    monkeypatch.setattr(SubgroupDescriptor, "contains", lambda self, e: count() or contains(self, e))
    monkeypatch.setattr(stages, "_value_test", counted_value_test)
    return calls


def walked(chain: ChainSchema) -> ChainSchema:
    """``chain`` with the same stages, through a block rule that carries no
    exclusion depth, so that limit coherence walks them."""
    return dataclasses.replace(chain, block_rule=lambda b, n: chain.stage_at(b, n))


def count_transversals(monkeypatch) -> list[int]:
    """A one-item list counting ``Transversal`` constructions from now on."""
    built = [0]
    init = Transversal.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Transversal, "__init__", counting)
    return built


# the chains of the benchmark's verify ops, and the towers up to height 4
EXCLUSION_CHAINS = [
    "Z", "Dinf", "wreath(C(2),Z)", "wreath(S(3),Z)", "wreath(C(2),Dinf)", "prod(Z,Dinf)",
    "power(C(2),N)", "power(Dinf,N)", "wreath(wreath(C(2),Z),Z)",
    *[f"tower({g},{h})" for g in ("Z", "Dinf") for h in (2, 3, 4)],
]


class TestLazyTransversals:
    """A library stage holds a row that builds its factors on their first
    read, so stages used only for membership build none."""

    def test_height_four_tower_builds_few_transversals(self, monkeypatch):
        # limit coherence walks up to 64 stages into each block; when each
        # stage built its nested transversal this run made 107,682 of them
        built = count_transversals(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "tower(Dinf,4)", "--levels", "3"]) == 0
        assert built[0] < 20_000

    def test_stages_the_limit_walk_reaches_build_none(self, monkeypatch):
        chain = walked(chain_for(parse_expr("tower(Dinf,3)")))
        built = count_transversals(monkeypatch)
        # no stage excludes the identity, so the walk reaches all 65 steps
        assert _first_excluding_step(chain, 1, chain.group.identity(), 64) is None
        assert built[0] == 0
        stage = chain.stage_at(1, 64)
        # the power stage over steps 1..64 of a block of index-2 steps
        assert stage.transversal.size == 2 ** 64
        assert built[0] > 0

    def test_stages_the_limit_walk_reaches_multiply_no_indices(self, monkeypatch):
        # a stage's index is its transversal's size, read only with the row
        chain = walked(chain_for(parse_expr("tower(Dinf,3)")))
        calls = []
        monkeypatch.setattr(math, "prod", lambda *args, f=math.prod: calls.append(1) or f(*args))
        assert _first_excluding_step(chain, 1, chain.group.identity(), 64) is None
        assert calls == []

    @pytest.mark.parametrize("expr, levels", [("wreath(C(2),Z)", 5), ("tower(Dinf,2)", 6),
                                              ("power(tower(Dinf,2),3)", 4)])
    def test_given_transversals_give_the_same_certificate(self, expr, levels):
        lazy = chain_for(parse_expr(expr))

        def replaced(stage):  # the transversal built now and passed as a value
            return dataclasses.replace(stage, transversal=stage.transversal)

        def constructed(stage):
            return SubgroupDescriptor(
                owner=stage.owner, membership=stage.membership,
                infinite_index=stage.infinite_index, transversal=stage.transversal,
                label=stage.label)

        expected = verify_prefix(chain_for(parse_expr(expr)), levels, 64, 0).to_jsonable()
        for remake in (replaced, constructed):
            chain = dataclasses.replace(
                lazy, block_rule=lambda b, n, remake=remake: remake(lazy.stage_at(b, n)),
                final_limit=lazy.final_limit and remake(lazy.final_limit),
                tail=tuple(map(remake, lazy.tail)))
            assert verify_prefix(chain, levels, 64, 0).to_jsonable() == expected

    @pytest.mark.parametrize("expr", EXCLUSION_CHAINS)
    def test_every_stage_holds_a_row_or_none(self, expr):
        chain = chain_for(parse_expr(expr))
        for b in range(chain.num_blocks):
            for n in range(5):
                t = vars(chain.stage_at(b, n))["transversal"]  # as held, past any descriptor
                assert t is None or isinstance(t, Transversal) and not callable(t)

    def test_a_function_for_a_transversal_is_refused(self):
        z = make_integers()
        with pytest.raises(ChainError, match="^a stage's transversal is a Transversal or "
                                             "None, not function$"):
            SubgroupDescriptor(owner=z, membership=Element.is_identity,
                               transversal=lambda: Transversal(z, [0]))

    def test_a_power_row_size_builds_no_product(self, monkeypatch):
        stage = chain_for(parse_expr("power(Dinf,N)")).stage_at(0, 5)
        products, init = [], Transversal.__init__

        def counting(self, *args, **kwargs):
            if kwargs.get("factors"):
                products.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Transversal, "__init__", counting)
        assert stage.transversal.size == 2 ** 5
        assert products == []
        assert len(stage.transversal.factor_reps()) == 5 and products


class TestExclusionDepth:
    """A library chain answers limit coherence from its exclusion depth, as
    the walk over its stages does; a replaced block rule walks."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.sampled_from(EXCLUSION_CHAINS), st.integers(0, 2 ** 16), st.integers(0, 64),
           st.integers(1, 8))
    def test_depth_is_the_first_step_the_walk_finds(self, expr, seed, budget, levels):
        chain = chain_for(parse_expr(expr))
        assert callable(chain.block_rule.exclusion)
        for p in [chain.group.identity(), *random_words(chain.group, 4, seed)]:
            for b in range(chain.num_blocks):
                inside = [chain.stage_at(b, n).contains(p) for n in range(budget + 1)]
                # from 0 (limit_membership), 1 (verify_simple past block 0), and
                # the first step that verify_prefix has not tested
                for start in (0, 1, min(levels, budget) + 1):
                    walk = next((n for n in range(start, budget + 1) if not inside[n]), None)
                    assert _first_excluding_step(chain, b, p, budget, start) == walk
                expected = (False if False in inside
                            else True if chain.stage_at(b + 1, 0).contains(p) else None)
                assert limit_membership(chain, OMEGA * (b + 1), p, budget) is expected

    def test_no_stage_past_the_checked_steps_is_built(self):
        chain = chain_for(parse_expr("tower(Dinf,3)"))
        certificate = verify_prefix(chain, 1, 64, 0)
        assert max(n for _, n in chain._stage_cache) == 1
        # a replaced block rule walks the stages below each limit, to the same certificate
        replaced = walked(chain_for(parse_expr("tower(Dinf,3)")))
        assert verify_prefix(replaced, 1, 64, 0) == certificate
        assert max(n for _, n in replaced._stage_cache) > 1


class TestStageCache:
    def test_replaced_block_rule_serves_its_own_stages(self):
        old = integers_chain(2)
        assert old.stage_at(0, 3).contains(old.group.element(8))
        new = dataclasses.replace(old, block_rule=integers_chain(3).block_rule)
        assert new.stage_at(0, 3).contains(new.group.element(27))
        assert not new.stage_at(0, 3).contains(new.group.element(8))

    def test_the_cache_is_not_a_constructor_argument(self):
        chain = integers_chain(2)
        with pytest.raises(ValueError):
            dataclasses.replace(chain, _stage_cache={})


def multiples(m):
    return SubgroupDescriptor(owner=make_integers(), membership=lambda e: e.value % m == 0,
                              label=f"multiples of {m}")


def integer_reps(*values):
    return Transversal(make_integers(), values)


def certify(t, parent, stage, probes):
    """_certify_transversal on integer probes, with their memberships."""
    probes = [Element(make_integers(), v) for v in probes]
    return _certify_transversal(t, parent, stage, probes, [parent.contains(p) for p in probes],
                                [stage.contains(p) for p in probes])


def integer_product(first, second, middle=2):
    """T_1 from ``first`` (of ``middle``Z in Z) times T_2 from ``second``."""
    return Transversal(factors=(integer_reps(*first), integer_reps(*second)),
                       intermediates=(multiples(middle),))


# (name, transversal, parent modulus, stage modulus, probes, reason, witness value)
BAD_EXPLICIT_ROWS = [
    ("identity", integer_reps(1, 2, 3), 1, 4, (), "transversal misses the identity coset",
     None),
    ("outside", integer_reps(0, 2, 4, 5), 2, 8, (), "transversal leaves the parent stage", 5),
    ("shared", integer_reps(0, 1, 2, 5), 1, 4, (),
     "transversal representatives share a coset", 5),
    ("uncovered", integer_reps(0, 1, 2), 1, 4, (0, 1, 3),
     "transversal does not cover a parent probe", 3),
]
BAD_PRODUCT_ROWS = [
    ("identity", integer_product((0, 1), (2, 6)), 1, 4, (),
     "transversal misses the identity coset", None),
    ("outside", integer_product((0, 1), (0, 1)), 1, 4, (),
     "transversal leaves the parent stage", 1),
    ("shared", integer_product((0, 1), (0, 4)), 1, 4, (),
     "transversal representatives share a coset", 4),
    ("uncovered", integer_product((0, 1), (0, 2)), 1, 8, (1, 2, 4),
     "transversal does not cover a parent probe", 4),
    ("not nested", integer_product((0, 1, 2), (0, 3, 6, 9), middle=3), 1, 4, (3, 4),
     "descent violated", 4),
]


class TestTransversalCertification:
    """Each failure reason of the transversal checks, on hand-built rows of
    the integers: an explicit transversal, and a product through an
    intermediate subgroup, whose failures name a factor representative."""

    def test_explicit_row_passes(self):
        assert certify(integer_reps(0, 1, 2, 3), multiples(1), multiples(4),
                       range(-6, 7)) == (4, None)

    def test_product_row_passes(self):
        t = integer_product((0, 1), (0, 2))
        assert [t.rep(i).value for i in range(t.size)] == [0, 2, 1, 3]
        assert certify(t, multiples(1), multiples(4), range(-6, 7)) == (4, None)

    def test_coverage_tests_each_parent_probe_once_in_the_stage(self):
        # the sift's last digit is the stage's own test of rep^-1 * p; the
        # representative found is not rebuilt and tested again
        calls = []
        stage = SubgroupDescriptor(owner=make_integers(), label="multiples of 4",
                                   membership=lambda e: calls.append(e.value) or e.value % 4 == 0)
        t = integer_product((0, 1), (0, 2))
        _coset_check(t.factor_reps()[-1], multiples(2), stage)
        checks = len(calls)
        calls.clear()
        probes = [Element(make_integers(), v) for v in (0, 1, 4, 5, -3, 9)]
        assert _certify_transversal(t, multiples(1), stage, probes, [True] * len(probes),
                                    [p.value % 4 == 0 for p in probes]) == (4, None)
        # each residue lies in 4Z, so the last factor stops at its first digit
        assert calls[checks:] == [0, 0, 4, 4, -4, 8]

    @pytest.mark.parametrize("case", BAD_EXPLICIT_ROWS + BAD_PRODUCT_ROWS,
                             ids=lambda c: c[0])
    def test_failure_reason_and_witness(self, case):
        _, t, parent, stage, probes, reason, witness = case
        index, failure = certify(t, multiples(parent), multiples(stage), probes)
        assert index is None
        assert failure[0] == reason
        assert (None if failure[1] is None else failure[1].value) == witness

    def test_product_failure_reaches_the_certificate(self):
        z = make_integers()
        stage = SubgroupDescriptor(
            owner=z, membership=multiples(4).membership,
            transversal=integer_product((0, 1, 2), (0, 3, 6, 9), middle=3), label="4Z",
        )
        chain = ChainSchema(group=z, kappa=ALEPH0, num_blocks=0, tail=(stage,))
        cert = verify_prefix(chain, levels=1, probes=32, seed=0)
        assert cert.verdict == "fail"
        assert cert.failure["reason"] == "descent violated"
        assert cert.failure["stage"] == "1"
        assert cert.levels[1]["index"] is None

    @pytest.mark.parametrize("case", BAD_PRODUCT_ROWS, ids=lambda c: c[0])
    def test_bad_product_rows_fail_when_materialized(self, case):
        _, t, parent, stage, probes, *_ = case
        explicit = Transversal(t.group, [e.value for e in t])
        assert certify(explicit, multiples(parent), multiples(stage), probes)[0] is None

    @pytest.mark.parametrize("expr, levels, probes", [
        ("tower(Dinf,2)", 6, 64),
        ("tower(Z,3)", 3, 16),
        ("prod(tower(Dinf,2),Z)", 6, 64),
    ])
    def test_factorwise_agrees_with_pairwise(self, expr, levels, probes):
        chain = chain_for(parse_expr(expr))
        sample = random_words(chain.group, probes, 0)
        compared = 0
        for parent, stage in (pair for block in _blocks(chain, levels)
                              for pair in zip(block, block[1:])):
            t = stage.transversal
            if t is None or len(t.factor_reps()) < 2 or t.size > 64:
                continue
            # parent elements in many cosets, so that the sift does real work
            inside = [chain.group.identity(), *[p for p in sample if stage.contains(p)][:1]]
            row_sample = sample + [t.rep(i) * h for i in range(0, t.size, 3) for h in inside]
            in_parent = [parent.contains(p) for p in row_sample]
            in_stage = [stage.contains(p) for p in row_sample]
            factorwise = _certify_transversal(t, parent, stage, row_sample, in_parent, in_stage)
            explicit = Transversal(t.group, [e.value for e in t])
            pairwise = _certify_transversal(explicit, parent, stage, row_sample,
                                            in_parent, in_stage)
            assert factorwise == pairwise == (t.size, None)
            compared += 1
        assert compared >= 4

    def test_limit_coherence_reads_the_checked_rows(self, monkeypatch):
        # the block below a limit was already tested on steps 0..levels; the
        # coherence check reads those verdicts and tests only deeper steps
        chain = walked(chain_for(parse_expr("wreath(C(2),Z)")))
        checked = {id(stage) for block in _blocks(chain, 4) for stage in block}
        tested, in_coherence = [], []
        contains, coherence = SubgroupDescriptor.contains, chains._check_limit_coherence

        def counting(self, e):
            if in_coherence:
                tested.append(id(self))
            return contains(self, e)

        def marked(*args):
            in_coherence.append(True)
            try:
                return coherence(*args)
            finally:
                in_coherence.clear()

        monkeypatch.setattr(SubgroupDescriptor, "contains", counting)
        monkeypatch.setattr(chains, "_check_limit_coherence", marked)
        assert verify_prefix(chain, 4, 64, 0).verdict == "pass"
        assert not checked & set(tested)
        tested.clear()
        verify_prefix(chain, 4, 64, 0, limit_budget=4)
        assert tested == []

    def test_big_row_needs_few_membership_calls(self, monkeypatch):
        # row w + 8, on the probes verify draws by default; checked
        # pairwise, the 2^8 rows take about 10^5 calls and the 2^24 row more
        # than 10^6, so each bound holds only if every factor stays separate
        calls = count_membership_tests(monkeypatch)
        for expr, size, bound in [("tower(Dinf,2)", 2 ** 8, 1000),
                                  ("prod(tower(Dinf,2),Z)", 2 ** 8, 2000),
                                  ("power(tower(Dinf,2),3)", 2 ** 24, 16000)]:
            chain = chain_for(parse_expr(expr))
            parent, stage = chain.stage_at(1, 7), chain.stage_at(1, 8)
            assert stage.transversal.size == size
            sample = random_words(chain.group, 64, 0)
            in_parent = [parent.contains(p) for p in sample]
            in_stage = [stage.contains(p) for p in sample]
            calls.clear()
            assert _certify_transversal(stage.transversal, parent, stage, sample, in_parent,
                                        in_stage) == (size, None)
            assert len(calls) < bound, expr

    def test_trivial_stage_row_is_checked_in_linear_time(self, monkeypatch):
        # S(7) is above the oracle cap, so its chain is the single step, whose
        # trivial stage has a 5,040-element row; checked pairwise that takes
        # about 1.3 * 10^7 membership calls.  The mutant repeats row[4000]
        # at 5,039 and row[4500] at 5,030: the pairwise scan reports the
        # smaller i, 4,000, so the witness is the later copy of row[4000]
        chain = chain_for(parse_expr("S(7)"))
        parent, stage = chain.stage_at(0, 0), chain.stage_at(0, 1)
        row = list(stage.transversal)
        assert len(row) == 5040
        bound = [2 * len(row)]
        calls = count_membership_tests(monkeypatch, bound)
        mutant = row[:5030] + [row[4500]] + row[5031:5039] + [row[4000]]
        index, failure = _certify_transversal(Transversal(chain.group, [e.value for e in mutant]),
                                              parent, stage, [], [], [])
        assert index is None
        assert failure == ("transversal representatives share a coset", row[4000])
        # a row holds values, whose copies are told apart by nothing but position
        assert failure[1] == mutant[5039]
        calls.clear()
        bound[0] = 6 * len(row)  # and a scan of the row for each probe
        probes = random_words(chain.group, 4, 0)
        assert _certify_transversal(stage.transversal, parent, stage, probes, [True] * 4,
                                    [p.is_identity() for p in probes]) == (5040, None)

    @staticmethod
    def count_coset_checks(monkeypatch) -> list:
        calls = []
        monkeypatch.setattr(stages, "_coset_check",
                            lambda *args, check=stages._coset_check: calls.append(1) or check(*args))
        return calls

    def test_each_base_row_is_checked_once_per_run(self, monkeypatch):
        # rows w + 2 .. w + 6 are kernel copies of power rows over the
        # dihedral rows 1 .. 6, so one run checks each dihedral row once,
        # after row w + 1, whose parent is a pullback (the limit w), checked
        # as one factor; a replaced stage is a caller's, and its row is
        # checked factor by factor, as before (1 + 2 + ... + 6 checks)
        chain = chain_for(parse_expr("tower(Dinf,2)"))
        sample = random_words(chain.group, 64, 0)
        calls = self.count_coset_checks(monkeypatch)
        for remake in (lambda stage: stage, dataclasses.replace):
            rows = _RowChecks()
            calls.clear()
            for n in range(1, 7):
                parent, stage = chain.stage_at(1, n - 1), remake(chain.stage_at(1, n))
                in_parent = [parent.contains(p) for p in sample]
                in_stage = [stage.contains(p) for p in sample]
                assert _certify_transversal(stage.transversal, parent, stage, sample, in_parent,
                                            in_stage, rows) == (2 ** n, None)
            assert len(calls) == (1 + 6 if remake is not dataclasses.replace else 21)

    def test_a_leaf_row_is_checked_once_per_run(self, monkeypatch):
        # a row that does not split goes through _RowChecks as well, so one
        # run checks its cosets once however often it certifies the row
        s3, chain = s3_chain()
        parent, stage = chain.tail
        sample = random_words(s3, 16, 0)
        in_parent = [parent.contains(p) for p in sample]
        in_stage = [stage.contains(p) for p in sample]
        calls, rows = self.count_coset_checks(monkeypatch), _RowChecks()
        for _ in range(3):
            assert _certify_transversal(stage.transversal, parent, stage, sample, in_parent,
                                        in_stage, rows) == (3, None)
        assert len(calls) == 1

    def test_nested_wreath_checks_grow_linearly(self, monkeypatch):
        # step 1 of each block after the first is a product of 2^n factors
        # of size 2; checked factor by factor, n = 4 made 49 coset checks and
        # n = 8 made 1,793
        calls = self.count_coset_checks(monkeypatch)
        counts = []
        for n in (4, 8):
            calls.clear()
            expr = "wreath(" * n + f"tower(Dinf,{n})" + ",C(2))" * n
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["verify", expr, "--levels", "1", "--probes", "2",
                                 "--limit-budget", "1"]) == 3
            counts.append(len(calls))
        assert counts[1] <= 4 * counts[0]

    @pytest.mark.parametrize("expr", ["Dinf", "wreath(C(2),Z)"])
    def test_rows_over_a_wrong_base_certify_as_factor_by_factor(self, expr, monkeypatch):
        # a power or tower over a base chain with one row that drops a
        # representative, takes the next row's test, or admits a generator
        # its parent may not hold: the rows that split give the certificate
        # that leaf rows give (split off) and that the factorwise scan gives
        # (row checks off)
        verdicts = set()
        for k in range(1, 5):
            base = chain_for(parse_expr(expr))
            stage = base.stage_at(0, k)
            reps = list(stage.transversal)[:-1]
            inside, extra = stages._value_test(stage), base.group.generators[-1].value
            for wrong in (dataclasses.replace(stage, transversal=Transversal(
                              base.group, [e.value for e in reps])),
                          dataclasses.replace(stage, membership=base.stage_at(0, k + 1).membership),
                          dataclasses.replace(stage, membership=ValueTest(
                              lambda v, inside=inside, extra=extra: v == extra or inside(v)))):
                mutant = dataclasses.replace(base, block_rule=lambda b, n, wrong=wrong, base=base: (
                    wrong if (b, n) == (0, k) else base.stage_at(b, n)))
                built = [(power_chain(mutant, natural_points()), 5)]
                if mutant.num_blocks == 1:
                    built.append((tower_chain(mutant.group, mutant, 2), 4))
                for chain, levels in built:
                    split = verify_prefix(chain, levels, 64, 0).to_jsonable()
                    for name, off in (("split", lambda self, parent, stage: None),
                                      ("checks", lambda self, parent, stage: (False, None))):
                        with monkeypatch.context() as m:
                            m.setattr(_RowChecks, name, off)
                            assert verify_prefix(chain, levels, 64, 0).to_jsonable() == split
                    verdicts.add(split["verdict"])
        assert verdicts == {"pass", "fail"}

    @pytest.mark.parametrize("expr, levels", [
        ("tower(Dinf,2)", 6), ("tower(Z,3)", 3), ("prod(tower(Dinf,2),Z)", 6),
        ("wreath(wreath(C(2),Z),Z)", 4), ("tower(Dinf,3)", 5),
    ])
    def test_library_rows_certify_as_leaves_and_factor_by_factor(self, expr, levels,
                                                                 monkeypatch):
        # the same harness on unmutated library chains: rows that split,
        # rows checked as leaves (split off) and the factorwise scan alone
        # (row checks off) give one certificate
        chain = chain_for(parse_expr(expr))
        split = verify_prefix(chain, levels, 64, 0).to_jsonable()
        for name, off in (("split", lambda self, parent, stage: None),
                          ("checks", lambda self, parent, stage: (False, None))):
            with monkeypatch.context() as m:
                m.setattr(_RowChecks, name, off)
                assert verify_prefix(chain, levels, 64, 0).to_jsonable() == split

    def test_rows_mapped_by_a_callers_extension_are_checked_factor_by_factor(self):
        # the same lamplighter maps, given as a caller's functions of elements:
        # no row splits, and the certificate is the library chain's
        from residua.groups import extension_from_quotient

        w, library = lamplighter_chain()
        ext = w.extension()
        caller = concat_extension(extension_from_quotient(
            total=w, quotient=w.top, projection=lambda e: ext.projection(e),
            section=lambda q: ext.section(q), kernel_group=w.kernel,
            kernel_embed=lambda k: ext.kernel_embed(k),
            kernel_retract=lambda e: ext.kernel_retract(e),
        ), integers_chain(2), power_chain(promote_to_omega(single_step_chain(make_cyclic(2))),
                                          w.points))
        splits = {}
        for name, chain in (("library", library), ("caller", caller)):
            rows = _RowChecks()
            splits[name] = sum(rows.split(parent, stage) is not None for block in _blocks(chain, 5)
                               for parent, stage in zip(block, block[1:]))
        assert splits == {"library": 9, "caller": 0}
        assert verify_prefix(caller, 5, 64, 0).to_jsonable() == \
            verify_prefix(library, 5, 64, 0).to_jsonable()

    @pytest.mark.parametrize("stage", [
        lambda: s3_chain()[1].tail[-1],
        lambda: integers_chain(2).final_limit,
        lambda: dihedral_chain(2).final_limit,
    ], ids=["finite_chain", "integers_chain", "dihedral_chain"])
    def test_trivial_stages_test_membership_with_is_identity(self, stage):
        # the one identity test, by which _coset_check takes its linear path
        assert stage().membership is Element.is_identity

    @pytest.mark.parametrize("expr", [
        "tower(Z,3)", "prod(tower(Dinf,2),Z)", "power(tower(Dinf,2),3)",
    ])
    def test_product_factors_are_explicit(self, expr):
        # pullbacks, kernel copies and coordinate embeddings keep a product's
        # factors, and nested products are spliced flat
        products = 0
        for stage in (s for block in _blocks(chain_for(parse_expr(expr)), 5) for s in block):
            t = stage.transversal
            if t is None or len(t.factor_reps()) < 2:
                continue
            products += 1
            assert len(t.intermediates) == len(t.factor_reps()) - 1
            assert t.size == math.prod(map(len, t.factor_reps()))
        assert products >= 4

def counted(chain: ChainSchema, calls: list) -> ChainSchema:
    """``chain`` with every stage's membership replaced by a caller's test of
    elements, which records each element it is called on."""
    def wrap(stage):
        return dataclasses.replace(
            stage, membership=lambda e, m=stage.membership: calls.append(e) or m(e))

    return dataclasses.replace(
        chain, block_rule=chain.block_rule and (lambda b, n: wrap(chain.stage_at(b, n))),
        final_limit=chain.final_limit and wrap(chain.final_limit), tail=tuple(map(wrap, chain.tail)))


class TestValueMembership:
    """Library stages test values; a caller's test of elements is still the
    one consulted, through one adapter, under every combinator."""

    @pytest.mark.parametrize("build", [
        lambda q, n: concat_extension(lamplighter().extension(), q(integers_chain(2)),
                                      n(power_chain(promote_to_omega(single_step_chain(
                                          make_cyclic(2))), lamplighter().points))),
        lambda q, n: power_chain(q(integers_chain(2)), natural_points()),
        lambda q, n: diagonal_power_chain(q(s3_chain()[1]), FinitePoints([0, 1])),
    ], ids=["concat_extension", "power_chain", "diagonal_power_chain"])
    def test_caller_stages_are_consulted(self, build):
        quotient_calls, kernel_calls = [], []
        expected = verify_prefix(build(lambda c: c, lambda c: c), 3, 32, 0).to_jsonable()
        chain = build(lambda c: counted(c, quotient_calls), lambda c: counted(c, kernel_calls))
        assert verify_prefix(chain, 3, 32, 0).to_jsonable() == expected
        assert quotient_calls and all(isinstance(e, Element) for e in quotient_calls)
        if chain.group.tag == lamplighter().tag:
            assert kernel_calls and all(e.group.tag == chain.group.kernel.tag
                                        for e in kernel_calls)

    def test_replaced_row_membership_is_the_one_verify_tests(self):
        # dataclasses.replace drops the value test with the membership it
        # came with, so the verifier and the sift call the replacement
        chain = chain_for(parse_expr("tower(Dinf,2)"))
        row, calls = chain.stage_at(1, 3), []
        replaced_row = dataclasses.replace(
            row, membership=lambda e: calls.append(e) or row.membership(e))
        replaced = dataclasses.replace(
            chain, block_rule=lambda b, n: replaced_row if (b, n) == (1, 3) else chain.stage_at(b, n))
        expected = verify_prefix(chain, 4, 64, 0)
        assert verify_prefix(replaced, 4, 64, 0).to_jsonable() == expected.to_jsonable()
        # one call per probe for the membership table, then the row's checks and sift
        assert len(calls) > expected.probes_used

    def test_core_sandwich_stages_test_values(self):
        w = wreath_product(make_symmetric(3), make_integers())
        assert all(isinstance(stage.membership, ValueTest) for stage in core_sandwich(w))


class TestIndexProductLaw:
    def test_finite_chain_indices_multiply_to_total(self):
        # [stage 0 : stage m] equals the product of per-step transversal
        # sizes, against the order ratio counted on the element lists
        from residua.oracle import chain_enumerate

        for group in (make_symmetric(3), make_cyclic(12), make_symmetric(4)):
            for sets in chain_enumerate(group, 3)[:40]:
                chain = finite_chain(group, sets[1:])
                product = 1
                for stage in chain.tail:
                    product *= stage.transversal.size
                assert product == group.order // len(sets[-1])

    def test_enumerated_chains_all_verify(self):
        # oracle chains and the chain verifier agree: everything passes
        for group in (make_cyclic(6), make_symmetric(3)):
            from residua.oracle import chain_enumerate

            for sets in chain_enumerate(group, 3):
                chain = finite_chain(group, sets[1:])
                cert = verify_prefix(chain, levels=1, probes=16, seed=0)
                assert cert.verdict == "pass", (group.tag, [len(s) for s in sets])


class TestCoreSandwich:
    def test_lower_accepts_derived_values(self):
        w = wreath_product(make_symmetric(3), make_integers())
        lower, upper = core_sandwich(w)
        embed = w.embed_base_at(0)
        cycle3 = make_symmetric(3).element((1, 2, 0))
        e = embed(cycle3)
        assert lower.contains(e)
        assert upper.contains(e)

    def test_transposition_not_in_lower(self):
        w = wreath_product(make_symmetric(3), make_integers())
        lower, upper = core_sandwich(w)
        embed = w.embed_base_at(0)
        swap = make_symmetric(3).element((1, 0, 2))
        assert not lower.contains(embed(swap))
        assert upper.contains(embed(swap))

    def test_nontrivial_top_rejected_by_upper(self):
        w = wreath_product(make_symmetric(3), make_integers())
        _, upper = core_sandwich(w)
        assert not upper.contains(w.element(((), 3)))

    def test_lower_implies_upper_on_probes(self):
        w = wreath_product(make_symmetric(3), make_integers())
        lower, upper = core_sandwich(w)
        for p in random_words(w, 200, seed=21):
            if lower.contains(p):
                assert upper.contains(p)

    def test_conjugation_identity(self):
        w = wreath_product(make_symmetric(3), make_integers())
        embed = w.embed_base_at(0)
        s3 = make_symmetric(3)
        rng = random.Random(5)
        vals = s3.element_values()
        for _ in range(100):
            x = embed(Element(s3, rng.choice(vals)))
            y = embed(Element(s3, rng.choice(vals)))
            g1 = w.element((((rng.randint(-3, 3), rng.choice(vals)),), rng.choice([1, -1, 2, -2])))
            moved = g1 * x * g1.inverse()
            assert moved.commutator_with(y).is_identity()

    def test_requires_infinite_top(self):
        with pytest.raises(ChainError):
            core_sandwich(wreath_product(make_symmetric(3), make_cyclic(3)))


class _UnclaimedIntegers(IntegerGroup):
    """Z without the residual-finiteness claim, as a caller's group may be."""

    is_residually_finite_claimed = False


def two_unverified_steps():
    """A finite chain over C(2) whose two steps have no transversal."""
    c2 = make_cyclic(2)
    trivial = SubgroupDescriptor(owner=c2, membership=Element.is_identity)
    return ChainSchema(group=c2, kappa=ALEPH0, num_blocks=0, tail=(trivial, trivial))


@pytest.mark.parametrize("call, message", [
    (lambda: ChainSchema(group=make_integers(), kappa=ALEPH0, num_blocks=-1),
     "negative block count"),
    (lambda: ChainSchema(group=make_integers(), kappa=ALEPH0, num_blocks=1),
     "need a block rule"),
    (lambda: ChainSchema(group=make_integers(), kappa=ALEPH0, num_blocks=1,
                         block_rule=integers_chain(2).block_rule),
     "need the stage at their last limit"),
    (lambda: integers_chain(2).stage_at(-1, 0), "negative stage address"),
    (lambda: limit_membership(integers_chain(2), 3, make_integers().element(0)),
     "3 is not a limit stage"),
    (lambda: integers_chain(1), "need p >= 2"),
    (lambda: dihedral_chain(1), "need p >= 2"),
    (lambda: finite_chain(make_integers(), []), "need a finite group"),
    (lambda: finite_chain(make_symmetric(3), [{(0, 1, 2)}, {(0, 1, 2), (1, 0, 2)}]),
     "stage 2 is not contained in stage 1"),
    (lambda: finite_chain(make_symmetric(3), [{(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0)}]),
     "stage 1 size does not divide its parent"),
    (lambda: finite_chain(make_symmetric(3), [set()]), "stage 1 size does not divide its parent"),
    (lambda: promote_to_omega(integers_chain(2)), "only finite chains are promoted"),
    (lambda: compress_successor_tail(single_step_chain(make_cyclic(2))), "nothing to compress"),
    (lambda: compress_successor_tail(two_unverified_steps()), "non-finite or unverified index"),
    (lambda: diagonal_power_chain(single_step_chain(make_cyclic(2)), natural_points()),
     "need finite points"),
    (lambda: tower_chain(make_integers(), dihedral_chain(2), 2), "over the wrong group"),
    (lambda: tower_chain(make_integers(), dataclasses.replace(
        integers_chain(2), tail=(integers_chain(2).final_limit,)), 2),
     "need a chain of length exactly w"),
    (lambda: tower_chain(make_integers(), integers_chain(2), 0), "height must be >= 1"),
    (lambda: core_sandwich(make_integers()), "defined for wreath products"),
    (lambda: verify_prefix(integers_chain(2), 0, 4, 0), "need at least one level"),
    (lambda: DepthInterval(lower=OMEGA, upper=Ordinal.from_int(1)),
     "lower depth bound exceeds the upper bound"),
    (lambda: chain_at(integers_chain(2), OMEGA + 1), r"^stage w \+ 1 beyond chain length w$"),
    (lambda: chain_at(dihedral_chain(2), multiply(OMEGA, 3) + 2),
     r"^stage w\*3 \+ 2 beyond chain length w$"),
    (lambda: chain_at(integers_chain(2), OMEGA_OMEGA),
     r"^chain stages have shape w\*q \+ r; w\^w does not$"),
    (lambda: single_step_chain(make_integers()), "^finite chains need a finite group$"),
    (lambda: concat_extension(ExtensionHandle(total=lamplighter(), quotient=make_integers(),
                                              projection=lamplighter().projection),
                              integers_chain(2), integers_chain(2)),
     "^extension lacks a kernel bundle$"),
    (lambda: concat_extension(lamplighter().extension(), integers_chain(2), integers_chain(2)),
     "^kernel chain is over the wrong group$"),
    (lambda: core_sandwich(wreath_product(make_integers(), make_integers())),
     "^lower bound needs a finite base for its derived subgroup$"),
    (lambda: DepthInterval(lower=Ordinal.from_int(2), upper=OMEGA),
     "^2 is not a valid depth shape$"),
    (lambda: Transversal(factors=[Transversal(make_cyclic(2), [0, 1])] * 2),
     "^a product of m factors names m - 1 intermediate subgroups$"),
    (lambda: tower_chain(_UnclaimedIntegers(), integers_chain(2), 2),
     "^tower bases must carry the residually-finite claim$"),
], ids=["negative-blocks", "no-block-rule", "no-final-limit", "negative-address",
        "not-a-limit", "integers-p-1", "dihedral-p-1", "infinite-finite-chain", "not-nested",
        "not-dividing", "empty-set", "promote-infinite", "compress-one-step",
        "compress-unverified", "diagonal-countable", "tower-wrong-group", "tower-wrong-length",
        "tower-height-0", "sandwich-not-wreath", "zero-levels", "interval-upside-down",
        "past-the-tail", "past-the-blocks", "not-w-q-r", "single-step-infinite",
        "no-kernel-bundle", "kernel-chain-group", "sandwich-infinite-base",
        "interval-shape", "factors-without-intermediates", "tower-unclaimed"])
def test_chain_preconditions(call, message):
    with pytest.raises(ChainError, match=message):
        call()
