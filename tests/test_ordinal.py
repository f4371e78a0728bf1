import random

import pytest
from hypothesis import given, settings, strategies as st

from residua.ordinal import (
    ALEPH0,
    OMEGA,
    OMEGA_OMEGA,
    ONE,
    ZERO,
    CardinalBound,
    Comparison,
    DepthClass,
    Ordinal,
    OrdinalError,
    OrdinalParseError,
    add,
    classify,
    compare,
    decompose_successor,
    format_ordinal,
    left_subtract,
    multiply,
    omega_absorbs,
    omega_power,
    ordinal_from_jsonable,
    ordinal_to_jsonable,
    parse_ordinal,
)


def random_ordinal(rng, max_exp=4, max_coeff=5):
    """Random CNF value below w^(max_exp+1), finite exponents only."""
    exps = sorted(rng.sample(range(max_exp + 1), rng.randint(0, max_exp + 1)), reverse=True)
    return Ordinal(tuple((Ordinal.from_int(e), rng.randint(1, max_coeff)) for e in exps))


ordinals_small = st.builds(
    lambda seed: random_ordinal(random.Random(seed)),
    st.integers(min_value=0, max_value=10**9),
)


class TestCompare:
    def test_identity(self):
        assert compare(OMEGA, OMEGA) is Comparison.EQUAL

    def test_one_plus_omega_absorbed(self):
        assert compare(add(1, OMEGA), OMEGA) is Comparison.EQUAL

    def test_left_vs_right_multiple(self):
        assert compare(multiply(OMEGA, 2), multiply(2, OMEGA)) is Comparison.GREATER

    @settings(max_examples=200, derandomize=True)
    @given(ordinals_small, ordinals_small, ordinals_small)
    def test_total_order(self, a, b, c):
        # trichotomy
        assert sum([a < b, a == b, a > b]) == 1
        # antisymmetry
        if a <= b and b <= a:
            assert a == b
        # transitivity
        if a <= b and b <= c:
            assert a <= c


class TestAdd:
    def test_one_plus_omega(self):
        assert add(1, OMEGA) == OMEGA

    def test_omega_plus_one_is_not_omega(self):
        assert add(OMEGA, 1) != OMEGA

    def test_omega_plus_omega(self):
        assert add(OMEGA, OMEGA) == multiply(OMEGA, 2)

    def test_omega_absorbed_by_omega_omega(self):
        assert add(OMEGA, OMEGA_OMEGA) == OMEGA_OMEGA

    def test_one_more_block_step(self):
        # w + w*(n-1) == w*n, the length law behind the tower chains
        for n in range(1, 21):
            assert add(OMEGA, multiply(OMEGA, n - 1)) == multiply(OMEGA, n)


class TestMultiply:
    def test_omega_times_two(self):
        assert multiply(OMEGA, 2) == add(OMEGA, OMEGA)

    def test_two_times_omega_oracle(self):
        # Order type of {0,1} x N under reverse-lexicographic order: enumerate
        # the first chunk and exhibit an explicit order isomorphism with N.
        pairs = [(a, b) for b in range(50) for a in range(2)]

        def rlex_key(p):
            return (p[1], p[0])

        assert pairs == sorted(pairs, key=rlex_key)
        iso = {i: p for i, p in enumerate(pairs)}
        for i in range(len(pairs) - 1):
            assert rlex_key(iso[i]) < rlex_key(iso[i + 1])
        # no largest element and every element has finitely many predecessors:
        # the order type is that of the naturals
        assert multiply(2, OMEGA) == OMEGA

    def test_times_zero(self):
        assert multiply(OMEGA, 0) == ZERO
        assert multiply(0, OMEGA) == ZERO

    def test_right_distributivity_fails_witness(self):
        lhs = multiply(add(1, 1), OMEGA)
        rhs = add(multiply(1, OMEGA), multiply(1, OMEGA))
        assert lhs == OMEGA
        assert rhs == multiply(OMEGA, 2)
        assert lhs != rhs

    def test_mixed_product(self):
        a = parse_ordinal("w*2 + 3")
        b = parse_ordinal("w + 5")
        assert multiply(a, b) == parse_ordinal("w^2 + w*10 + 3")


class TestLaws:
    @settings(max_examples=300, derandomize=True)
    @given(ordinals_small, ordinals_small, ordinals_small)
    def test_associativity_and_distributivity(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, add(b, c)) == add(multiply(a, b), multiply(a, c))


class TestClassify:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (ZERO, DepthClass.ZERO),
            (ONE, DepthClass.ONE),
            (OMEGA, DepthClass.LIMIT),
            (add(OMEGA, 1), DepthClass.LIMIT_PLUS_ONE),
            (add(OMEGA, 2), DepthClass.INVALID),
            (Ordinal.from_int(2), DepthClass.INVALID),
            (multiply(OMEGA, 3), DepthClass.LIMIT),
            (OMEGA_OMEGA, DepthClass.LIMIT),
            (add(multiply(OMEGA, 2), 1), DepthClass.LIMIT_PLUS_ONE),
        ],
    )
    def test_cases(self, value, expected):
        assert classify(value) is expected

    @settings(max_examples=300, derandomize=True)
    @given(ordinals_small)
    def test_invalid_iff_tail_two_or_more(self, a):
        if a.is_zero:
            assert classify(a) is DepthClass.ZERO
            return
        limit_part, tail = decompose_successor(a)
        assert classify(a) is DepthClass.INVALID if tail >= 2 else classify(a) is not DepthClass.INVALID


class TestDecompose:
    def test_read_off_tail(self):
        a = parse_ordinal("w*2 + 3")
        assert decompose_successor(a) == (multiply(OMEGA, 2), 3)

    def test_limit(self):
        assert decompose_successor(OMEGA) == (OMEGA, 0)

    def test_finite(self):
        assert decompose_successor(Ordinal.from_int(5)) == (ZERO, 5)

    def test_zero_rejected(self):
        with pytest.raises(OrdinalError):
            decompose_successor(ZERO)

    @settings(max_examples=200, derandomize=True)
    @given(ordinals_small)
    def test_recompose(self, a):
        if a.is_zero:
            return
        limit_part, tail = decompose_successor(a)
        assert limit_part.is_zero or limit_part.is_limit
        assert add(limit_part, tail) == a


class TestOmegaAbsorbs:
    def test_below(self):
        assert not omega_absorbs(multiply(OMEGA, 5))

    def test_at_threshold(self):
        assert omega_absorbs(OMEGA_OMEGA)

    def test_zero(self):
        assert not omega_absorbs(ZERO)

    def test_above(self):
        assert omega_absorbs(add(OMEGA_OMEGA, OMEGA))
        assert omega_absorbs(omega_power(add(OMEGA, 1)))

    def test_true_threshold_is_omega_squared(self):
        # Absorption w + a == a kicks in exactly at a >= w^2 (cross-checked
        # against sympy's ordinal arithmetic); w^2 itself is already absorbed.
        w2 = omega_power(2)
        assert omega_absorbs(w2)
        assert add(OMEGA, w2) == w2
        assert not omega_absorbs(add(multiply(OMEGA, 9), 5))

    def test_matches_threshold_predicate_on_samples(self):
        w2 = omega_power(2)
        rng = random.Random(20240)
        for _ in range(1000):
            if rng.random() < 0.3:
                a = omega_power(random_ordinal(rng, max_exp=2, max_coeff=3)) * rng.randint(1, 3)
                a = add(a, random_ordinal(rng))
            else:
                a = random_ordinal(rng)
            assert omega_absorbs(a) == (compare(a, w2) is not Comparison.LESS)


class TestLeftSubtract:
    @settings(max_examples=200, derandomize=True)
    @given(ordinals_small, ordinals_small)
    def test_add_roundtrip(self, a, g):
        b = add(a, g)
        assert add(a, left_subtract(a, b)) == b

    def test_underflow(self):
        with pytest.raises(OrdinalError):
            left_subtract(OMEGA, ONE)


class TestText:
    @pytest.mark.parametrize(
        "value,text",
        [
            (add(multiply(OMEGA, 2), 1), "w*2 + 1"),
            (OMEGA, "w"),
            (ZERO, "0"),
            (OMEGA_OMEGA, "w^w"),
            (omega_power(2), "w^2"),
            (add(add(multiply(omega_power(multiply(OMEGA, 2)), 3), OMEGA), 4), "w^(w*2)*3 + w + 4"),
        ],
    )
    def test_format(self, value, text):
        assert format_ordinal(value) == text
        assert parse_ordinal(text) == value

    def test_parse_omega_omega(self):
        assert parse_ordinal("w^w") == OMEGA_OMEGA

    def test_parse_nested(self):
        got = parse_ordinal("w^(w*2)*3 + w + 4")
        assert got.terms[0] == (multiply(OMEGA, 2), 3)
        assert got.terms[1] == (ONE, 1)
        assert got.terms[2] == (ZERO, 4)

    def test_parse_normalizes(self):
        assert parse_ordinal("1 + w") == OMEGA
        assert parse_ordinal("w*1") == OMEGA

    def test_whitespace_insignificant(self):
        assert parse_ordinal(" w *2+ 1 ") == parse_ordinal("w*2 + 1")

    def test_error_position(self):
        with pytest.raises(OrdinalParseError) as err:
            parse_ordinal("w^")
        assert err.value.position == 2
        with pytest.raises(OrdinalParseError) as err:
            parse_ordinal("w + + 1")
        assert err.value.position == 4

    @pytest.mark.parametrize("text, message", [
        # str.isdigit admits both literals; int() refuses them
        pytest.param("w*" + "9" * 5000, "unreadable integer literal at position 2",
                     id="5000-digits"),
        pytest.param("w*\u00b2", "unreadable integer literal at position 2", id="superscript-2"),
        ("w*0", "coefficient must be >= 1 at position 2"),
        ("w*-1", "coefficient must be >= 1 at position 2"),
        ("w*", "unexpected character at position 2 (expected integer)"),
        ("w^-1", "unexpected character at position 2 (expected 'w' or integer or '(')"),
        ("w + 3 x", "trailing input at position 6 (expected '+' or end of input)"),
    ])
    def test_error_message(self, text, message):
        with pytest.raises(OrdinalParseError) as err:
            parse_ordinal(text)
        assert str(err.value) == message

    @settings(max_examples=300, derandomize=True)
    @given(ordinals_small)
    def test_roundtrip(self, a):
        assert parse_ordinal(format_ordinal(a)) == a

    @settings(max_examples=200, derandomize=True)
    @given(ordinals_small)
    def test_json_roundtrip(self, a):
        assert ordinal_from_jsonable(ordinal_to_jsonable(a)) == a

    def test_json_zero(self):
        assert ordinal_to_jsonable(ZERO) == {"terms": []}


class TestCardinalBound:
    def test_finite_below_aleph0(self):
        assert CardinalBound.finite(10 ** 9) < ALEPH0
        assert not ALEPH0 < CardinalBound.finite(2)

    def test_finite_ordering(self):
        assert CardinalBound.finite(3) < CardinalBound.finite(5)

    def test_admits(self):
        assert ALEPH0.admits(10 ** 12)
        assert CardinalBound.finite(5).admits(4)
        assert not CardinalBound.finite(5).admits(5)

    def test_max(self):
        assert max(CardinalBound.finite(3), ALEPH0) == ALEPH0
        assert max(CardinalBound.finite(3), CardinalBound.finite(7)) == CardinalBound.finite(7)

    def test_parse(self):
        assert CardinalBound.parse("aleph0") == ALEPH0
        assert CardinalBound.parse("12") == CardinalBound.finite(12)
