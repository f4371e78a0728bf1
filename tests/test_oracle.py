import pytest

from residua import groups, oracle
from residua.catalog import build_group
from residua.dsl import parse_expr
from residua.fixtures import finite_fixtures, make_klein_four
from residua.groups import (
    GroupError,
    make_alternating,
    make_cyclic,
    make_integers,
    make_symmetric,
)
from residua.oracle import (
    OracleCapError,
    all_subgroups,
    all_subgroups_naive,
    chain_enumerate,
    core_up_to_index,
    depth_exact_finite,
    min_kappa,
    minimax_chain,
)
from residua.ordinal import ONE, ZERO


def largest_prime_factor(n: int) -> int:
    # trial division; independent of any group code
    p, best = 2, 1
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n) if n > 1 else best


class TestAllSubgroups:
    @pytest.mark.parametrize(
        "group,count",
        [
            (make_cyclic(6), 4),
            (make_symmetric(3), 6),
            (make_klein_four(), 5),
            (make_alternating(4), 10),
        ],
    )
    def test_published_counts(self, group, count):
        assert len(all_subgroups(group)) == count

    def test_cyclic_counts_equal_divisor_counts(self):
        for n in range(1, 13):
            divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert len(all_subgroups(make_cyclic(n))) == divisors

    def test_trivial(self):
        assert len(all_subgroups(make_cyclic(1))) == 1

    def test_matches_naive_scan_small(self):
        for name, g in finite_fixtures():
            if g.order <= 12:
                fast = all_subgroups(g).subgroups
                naive = all_subgroups_naive(g).subgroups
                assert fast == naive, name

    def test_cap(self):
        with pytest.raises(OracleCapError):
            all_subgroups(make_symmetric(6))
        with pytest.raises(OracleCapError):
            all_subgroups(make_integers())


class TestCore:
    def test_s3_core_at_4_trivial(self):
        s3 = make_symmetric(3)
        assert core_up_to_index(s3, 4) == frozenset({s3.identity_value()})

    def test_prime_cyclic_has_no_small_index_subgroup(self):
        c5 = make_cyclic(5)
        assert core_up_to_index(c5, 5) == frozenset(c5.element_values())

    def test_index_bound_two_gives_whole_group(self):
        for name, g in finite_fixtures():
            assert core_up_to_index(g, 2) == frozenset(g.element_values()), name

    def test_antitone_and_reaches_trivial(self):
        for name, g in finite_fixtures():
            n = g.order
            prev = None
            for k in range(2, n + 2):
                core = core_up_to_index(g, k)
                if prev is not None:
                    assert core <= prev, name
                prev = core
            assert prev == frozenset({g.identity_value()}), name


class TestMinKappa:
    def test_c4(self):
        assert min_kappa(make_cyclic(4)) == 3

    def test_primes(self):
        for p in (2, 3, 5, 7):
            assert min_kappa(make_cyclic(p)) == p + 1

    def test_trivial_convention(self):
        assert min_kappa(make_cyclic(1)) == 1

    def test_cyclic_matches_largest_prime_factor(self):
        for n in range(2, 31):
            assert min_kappa(make_cyclic(n)) == 1 + largest_prime_factor(n)

    def test_never_below_two_for_nontrivial(self):
        for name, g in finite_fixtures():
            if g.order > 1:
                assert min_kappa(g) >= 2, name

    def test_minimax_chain_s4(self):
        chain = minimax_chain(make_symmetric(4))
        indices = [len(chain[i]) // len(chain[i + 1]) for i in range(len(chain) - 1)]
        assert max(indices) == 3
        assert min_kappa(make_symmetric(4)) == 4


class TestDepth:
    def test_trivial(self):
        assert depth_exact_finite(make_cyclic(1)) == ZERO

    def test_nontrivial(self):
        assert depth_exact_finite(make_cyclic(2)) == ONE
        assert depth_exact_finite(make_symmetric(4)) == ONE

    def test_infinite_rejected(self):
        with pytest.raises(OracleCapError):
            depth_exact_finite(make_integers())

    def test_builds_no_lattice(self, monkeypatch):
        def refuse(group):
            raise AssertionError(f"all_subgroups({group.tag}) called")

        monkeypatch.setattr(oracle, "all_subgroups", refuse)
        assert depth_exact_finite(make_cyclic(1)) == ZERO
        for g in (make_cyclic(2), make_symmetric(4), build_group(parse_expr("power(C(2),4)"))):
            assert depth_exact_finite(g) == ONE
        with pytest.raises(OracleCapError, match="exceeds the oracle cap"):
            depth_exact_finite(build_group(parse_expr("power(C(2),8)")))


class TestChainEnumerate:
    def test_s3_contains_both_routes(self):
        s3 = make_symmetric(3)
        chains = chain_enumerate(s3, 3)
        a3 = frozenset(v for v in s3.element_values() if _is_even(v))
        two = frozenset({s3.identity_value(), (1, 0, 2)})
        signatures = {tuple(len(s) for s in c) for c in chains}
        assert (6, 3, 1) in signatures
        assert (6, 2, 1) in signatures
        assert any(c[1] == a3 for c in chains if len(c) == 3)
        assert any(c[1] == two for c in chains if len(c) == 3)

    def test_c2_single_chain(self):
        chains = chain_enumerate(make_cyclic(2), 3)
        assert len(chains) == 1
        assert [len(s) for s in chains[0]] == [2, 1]

    def test_max_len_zero(self):
        assert chain_enumerate(make_cyclic(2), 0) == []

    def test_trivial_group_empty_chain(self):
        chains = chain_enumerate(make_cyclic(1), 3)
        assert chains == [[frozenset({0})]]

    def test_lengths_respected(self):
        for c in chain_enumerate(make_symmetric(4), 3):
            assert len(c) - 1 <= 3
            assert len(c[0]) == 24 and len(c[-1]) == 1
            for i in range(len(c) - 1):
                assert c[i + 1] < c[i]


def _is_even(perm) -> bool:
    seen = set()
    parity = 0
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


def _dsl_group(text):
    return build_group(parse_expr(text))


class TestCayleyTableLattice:
    @pytest.mark.parametrize(
        "expr,count",
        # power(C(2),n): the sum over k of the Gaussian binomials [n, k] at q = 2
        [("S(4)", 30), ("A(5)", 59), ("S(5)", 156), ("power(C(2),4)", 67), ("power(C(2),5)", 374)],
    )
    def test_known_counts(self, expr, count):
        assert len(all_subgroups(_dsl_group(expr))) == count

    def test_one_table_of_multiplications(self, monkeypatch):
        g = make_symmetric(5)
        g.element_values()
        calls = []
        real = g.mul_values

        def counting(a, b):
            calls.append(None)
            return real(a, b)

        monkeypatch.setattr(g, "mul_values", counting)
        assert len(all_subgroups(g)) == 156
        assert len(calls) <= 120 ** 2

    def test_products_are_the_generator_rows_and_the_enumeration(self, monkeypatch):
        # the lattice reads the group's table, whose generator rows are the
        # only products beyond enumerating the elements (n^2 = 3,600 before)
        calls = []
        real = groups.PermGroup.mul_values
        monkeypatch.setattr(groups.PermGroup, "mul_values",
                            lambda self, a, b: calls.append(1) or real(self, a, b))
        make_alternating(5).element_values()
        enumeration = len(calls)
        calls.clear()
        g = make_alternating(5)
        assert len(all_subgroups(g)) == 59
        assert len(calls) <= len(g.generators) * g.order + enumeration

    def test_broken_join_is_caught_by_reverification(self, monkeypatch):
        real = oracle._join
        dropped = []

        def lossy(*args):
            mask = real(*args)
            if not dropped and bin(mask).count("1") > 2:
                dropped.append(mask)
                mask &= ~(1 << (mask.bit_length() - 1))
            return mask

        monkeypatch.setattr(oracle, "_join", lossy)
        with pytest.raises(GroupError):
            all_subgroups(make_symmetric(4))
        assert dropped

    def test_one_sort_key_per_element(self, monkeypatch):
        # elements are keyed once, when the group sorts its element list; the
        # lattice orders them by table index and keys none itself
        g = _dsl_group("power(C(2),5)")
        g.element_values()
        g.cayley_table()  # its generator rows multiply, and power products sort
        calls = []
        real = groups.label_sort_key

        def counting(label):
            calls.append(None)
            return real(label)

        monkeypatch.setattr(groups, "label_sort_key", counting)
        assert len(all_subgroups(g)) == 374
        assert calls == []

    @pytest.mark.parametrize(
        "expr",
        ["power(C(2),3)", "prod(C(2),C(6))", "wreath(C(2),C(2))", "A(4)", "prod(C(3),C(3))", "S(3)"],
    )
    def test_matches_naive_scan_on_dsl_groups(self, expr):
        g = _dsl_group(expr)
        assert g.order <= 12
        assert all_subgroups(g).subgroups == all_subgroups_naive(g).subgroups
