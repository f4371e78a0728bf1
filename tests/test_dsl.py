import random

import pytest
from hypothesis import given, settings, strategies as st

from residua import catalog
from residua.catalog import (
    UnregisteredConstructionError,
    build_group,
    chain_for,
    depth_interval,
    register_extension,
)
from residua.dsl import (
    Cyclic,
    Dinf,
    DslParseError,
    ExtensionRef,
    FinSupportPower,
    Int,
    Perm,
    Product,
    Tower,
    Trivial,
    Wreath,
    parse_expr,
    print_expr,
)
from residua.groups import make_alternating, make_cyclic, make_symmetric
from residua.ordinal import OMEGA, ONE, ZERO, add, multiply


def random_ast(rng, depth=3):
    leaf_makers = [
        lambda: Trivial(),
        lambda: Cyclic(rng.randint(1, 9)),
        lambda: Int(),
        lambda: Dinf(),
        lambda: parse_expr(f"S({rng.randint(2, 4)})"),
        lambda: ExtensionRef(rng.choice(["Deligne", "Higman", "mystery_group"])),
    ]
    if depth <= 0:
        return rng.choice(leaf_makers)()
    branch = rng.randrange(5)
    if branch == 0:
        return Wreath(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if branch == 1:
        return Tower(random_ast(rng, depth - 1), rng.randint(1, 4))
    if branch == 2:
        return Product(tuple(random_ast(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if branch == 3:
        points = "N" if rng.random() < 0.5 else rng.randint(1, 5)
        return FinSupportPower(random_ast(rng, depth - 1), points)
    return rng.choice(leaf_makers)()


class TestParse:
    def test_wreath(self):
        assert parse_expr("wreath(C(2), Z)") == Wreath(Cyclic(2), Int())

    def test_tower(self):
        assert parse_expr("tower(Dinf, 3)") == Tower(Dinf(), 3)

    def test_tower_zero_arity_error(self):
        with pytest.raises(DslParseError) as err:
            parse_expr("tower(Dinf, 0)")
        assert err.value.position == 12

    def test_trivial(self):
        assert parse_expr("1") == Trivial()

    def test_perm_with_cycles(self):
        got = parse_expr("perm(3; (0 1), (0 1 2))")
        assert got == Perm(3, (((0, 1),), ((0, 1, 2),)))

    def test_perm_juxtaposed_cycles(self):
        got = parse_expr("perm(4; (0 1)(2 3))")
        assert got == Perm(4, (((0, 1), (2, 3)),))

    def test_symmetric_sugar(self):
        assert parse_expr("S(3)") == Perm(3, (((0, 1),), ((0, 1, 2),)))

    def test_alternating_sugar(self):
        assert parse_expr("A(4)") == Perm(4, (((0, 1, 2),), ((1, 2, 3),)))

    def test_power_points(self):
        assert parse_expr("power(C(2), N)") == FinSupportPower(Cyclic(2), "N")
        assert parse_expr("power(C(2), 3)") == FinSupportPower(Cyclic(2), 3)

    def test_prod(self):
        assert parse_expr("prod(Z, C(2))") == Product((Int(), Cyclic(2)))

    def test_extension_ref(self):
        assert parse_expr("Deligne") == ExtensionRef("Deligne")

    def test_whitespace(self):
        assert parse_expr(" wreath( C(2) ,Z ) ") == Wreath(Cyclic(2), Int())

    def test_error_positions(self):
        with pytest.raises(DslParseError) as err:
            parse_expr("wreath(C(2) Z)")
        assert err.value.position == 12
        with pytest.raises(DslParseError) as err:
            parse_expr("C(0)")
        assert err.value.position == 2
        with pytest.raises(DslParseError) as err:
            parse_expr("wreath(C(2), Z) extra")
        assert err.value.position == 16

    @pytest.mark.parametrize("text, message, position", [
        ("C(0)", "cyclic order must be >= 1", 2),
        ("S(-1)", "degree must be >= 0", 2),
        ("A(-3)", "degree must be >= 0", 2),
        ("perm(-1; (0))", "degree must be >= 0", 5),
        ("perm(2; (0 -1))", "cycle points are non-negative", 11),
        ("perm(2; (0 2))", "cycle point 2 outside degree 2", 5),
        ("perm(2; (0 2)", "unexpected character", 13),
        ("tower(Z,0)", "tower height must be >= 1", 8),
        ("power(Z,0)", "points must be >= 1", 8),
        ("power(Z,-2)", "points must be >= 1", 8),
        ("C(-)", "unexpected character", 2),
        ("C 5", "unexpected character", 2),
        ("C(2", "unexpected character", 3),
        ("9", "unexpected integer literal", 0),
        ("N", "'N' is only valid as a power point set", 0),
        ("prod()", "unexpected character", 5),
        ("wreath(C(2), Z) extra", "trailing input", 16),
    ])
    def test_error_message_and_offset(self, text, message, position):
        with pytest.raises(DslParseError) as err:
            parse_expr(text)
        assert err.value.position == position
        assert str(err.value).startswith(f"{message} at offset {position}")

    @pytest.mark.parametrize("literal", ["9" * 5000, "\u00b2"], ids=["5000-digits", "superscript-2"])
    def test_unreadable_integer_literal_is_a_parse_error(self, literal):
        # str.isdigit admits both; int() refuses them
        with pytest.raises(DslParseError, match="unreadable integer literal") as err:
            parse_expr(f"C({literal})")
        assert err.value.position == 2

    def test_cycle_out_of_range(self):
        with pytest.raises(DslParseError):
            parse_expr("perm(2; (0 5))")

    @settings(max_examples=400, derandomize=True)
    @given(st.text(alphabet="CSZAperm Dinftow()1234,;N_", max_size=30))
    def test_fuzz_never_crashes(self, text):
        try:
            parse_expr(text)
        except DslParseError:
            pass


class TestPrint:
    def test_wreath(self):
        assert print_expr(Wreath(Cyclic(2), Int())) == "wreath(C(2), Z)"

    def test_perm(self):
        assert print_expr(Perm(3, (((0, 1),), ((0, 1, 2),)))) == "perm(3; (0 1), (0 1 2))"

    def test_nested_tower_spacing(self):
        text = print_expr(Tower(Wreath(Cyclic(2), Int()), 2))
        assert text == "tower(wreath(C(2), Z), 2)"

    def test_roundtrip_random(self):
        rng = random.Random(77)
        for _ in range(1000):
            ast = random_ast(rng, depth=rng.randint(0, 5))
            assert parse_expr(print_expr(ast)) == ast


class TestBuildGroup:
    def test_cyclic(self):
        assert build_group(parse_expr("C(5)")).order == 5

    def test_symmetric(self):
        assert build_group(parse_expr("S(4)")).order == 24

    def test_wreath_order(self):
        assert build_group(parse_expr("wreath(C(2), C(3))")).order == 24

    def test_product(self):
        assert build_group(parse_expr("prod(C(2), C(3))")).order == 6

    def test_tower_is_nested_wreath(self):
        t = build_group(parse_expr("tower(Dinf, 2)"))
        assert t.tag == "wreath(Dinf;Dinf)"

    def test_unregistered_extension(self):
        with pytest.raises(UnregisteredConstructionError):
            build_group(parse_expr("mystery_group"))

    def test_registered_extension(self, monkeypatch):
        monkeypatch.setattr(catalog, "_EXTENSIONS", dict(catalog._EXTENSIONS))
        register_extension("test_only_c6", lambda: make_cyclic(6))
        assert build_group(parse_expr("test_only_c6")).order == 6

    @pytest.mark.parametrize("n", range(7))
    def test_symmetric_and_alternating_sugar_match_factories(self, n):
        assert build_group(parse_expr(f"S({n})")).tag == make_symmetric(n).tag
        assert build_group(parse_expr(f"A({n})")).tag == make_alternating(n).tag

    @pytest.mark.parametrize("text", ["wreath(S(3), Z)", "prod(S(3), Z)", "tower(Dinf, 3)"])
    def test_builds_no_chain(self, monkeypatch, text):
        def refuse(*args, **kwargs):
            raise AssertionError("build_group built a chain")

        monkeypatch.setattr(catalog, "minimax_chain", refuse)
        monkeypatch.setattr(catalog, "_tower_chain", refuse)
        assert build_group(parse_expr(text)).order is None


class TestChainFor:
    def test_s3_minimax(self):
        chain = chain_for(parse_expr("S(3)"))
        assert chain.length == 2
        assert chain.tail[0].index_in_parent.value == 2
        assert chain.tail[1].index_in_parent.value == 3

    def test_z(self):
        assert chain_for(parse_expr("Z")).length == OMEGA

    def test_lamplighter(self):
        assert chain_for(parse_expr("wreath(C(2), Z)")).length == multiply(OMEGA, 2)

    def test_power_over_naturals(self):
        assert chain_for(parse_expr("power(C(2), N)")).length == OMEGA

    def test_finite_wreath(self):
        # top chain of length 1 then the diagonal lift of the base chain
        chain = chain_for(parse_expr("wreath(C(2), C(3))"))
        assert chain.length == add(ONE, ONE)
        assert chain.tail[1].index_in_parent.value == 8

    def test_product_omega_tail(self):
        assert chain_for(parse_expr("prod(Z, C(2))")).length == add(OMEGA, 1)
        assert chain_for(parse_expr("prod(C(2), Z)")).length == OMEGA

    def test_power_of_successor_tail_rejected(self):
        from residua.chains import ChainError

        with pytest.raises(ChainError):
            chain_for(parse_expr("power(prod(Z, C(2)), N)"))

    def test_no_chain_for_unregistered(self):
        with pytest.raises(UnregisteredConstructionError):
            chain_for(parse_expr("Deligne"))

    def test_registered_chain_factory(self, monkeypatch):
        monkeypatch.setattr(catalog, "_EXTENSIONS", dict(catalog._EXTENSIONS))
        chain = chain_for(parse_expr("prod(Z, C(2))"))
        register_extension(
            "test_only_zc2", lambda: build_group(parse_expr("prod(Z, C(2))")), lambda: chain
        )
        assert chain_for(parse_expr("test_only_zc2")) is chain
        iv = depth_interval(parse_expr("test_only_zc2"))
        assert (iv.lower, iv.upper) == (OMEGA, add(OMEGA, 1))


class TestDepthInterval:
    def test_trivial(self):
        iv = depth_interval(parse_expr("1"))
        assert (iv.lower, iv.upper) == (ZERO, ZERO)

    def test_finite(self):
        iv = depth_interval(parse_expr("C(6)"))
        assert (iv.lower, iv.upper) == (ONE, ONE)

    def test_integers(self):
        iv = depth_interval(parse_expr("Z"))
        assert (iv.lower, iv.upper) == (OMEGA, OMEGA)

    def test_tower(self):
        iv = depth_interval(parse_expr("tower(Dinf, 2)"))
        assert iv.lower == OMEGA
        assert iv.upper == multiply(OMEGA, 2)
        assert iv.paper_claimed == multiply(OMEGA, 2)
        assert not iv.claim_discrepancy

    def test_tower_bad_base_withholds_claim(self):
        iv = depth_interval(parse_expr("tower(Z, 2)"))
        assert iv.paper_claimed is None
        assert any("withheld" in f for f in iv.flags)

    def test_wreath_tower_finite_discrepancy(self):
        iv = depth_interval(parse_expr("wreath(tower(Dinf, 2), C(2))"))
        assert iv.upper == multiply(OMEGA, 2)
        assert iv.paper_claimed == add(multiply(OMEGA, 2), 1)
        assert iv.claim_discrepancy
        assert any("discrepancy" in f for f in iv.flags)

    def test_power_of_finite_base(self):
        iv = depth_interval(parse_expr("power(C(2), N)"))
        assert (iv.lower, iv.upper) == (OMEGA, OMEGA)
