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
    MAX_DEGREE,
    MAX_NESTING,
    MAX_TOWER_HEIGHT,
    Cyclic,
    Dinf,
    DslError,
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
        lambda: parse_expr(f"S({rng.randint(0, 4)})"),  # S(0), S(1): no generators
        lambda: parse_expr(f"A({rng.randint(0, 5)})"),  # A(0) to A(2): no generators
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

    def test_perm_without_generators(self):
        # the trivial group of degree n, as print_expr writes S(1) or A(2)
        assert parse_expr("perm(3;)") == parse_expr("perm(3; )") == Perm(3, ())
        with pytest.raises(DslParseError, match=r"offset 8 \(expected '\(' or '\)'\)"):
            parse_expr("perm(3; x)")
        with pytest.raises(DslError, match="at least one cycle"):
            Perm(3, ((),))

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
        ("perm(3;())", "empty cycle", 8),
        ("perm(3;(0 0))", "cycle repeats a point: (0, 0)", 5),
        ("wreath(C(2), Z) extra", "trailing input", 16),
    ])
    def test_error_message_and_offset(self, text, message, position):
        with pytest.raises(DslParseError) as err:
            parse_expr(text)
        assert err.value.position == position
        assert str(err.value).startswith(f"{message} at offset {position}")

    def test_tower_height_bound(self):
        assert parse_expr(f"tower(Z,{MAX_TOWER_HEIGHT})") == Tower(Int(), MAX_TOWER_HEIGHT)
        with pytest.raises(DslParseError) as err:
            parse_expr(f"tower(Z,{MAX_TOWER_HEIGHT + 1})")
        assert err.value.position == 8
        assert str(err.value).startswith(f"tower height must be <= {MAX_TOWER_HEIGHT}")
        with pytest.raises(DslError):
            Tower(Int(), MAX_TOWER_HEIGHT + 1)

    @pytest.mark.parametrize("name, offset", [("S", 2), ("A", 2), ("perm", 5)])
    def test_degree_bound(self, name, offset):
        args = ";" if name == "perm" else ""
        assert parse_expr(f"{name}({MAX_DEGREE}{args})").degree == MAX_DEGREE
        for degree in (MAX_DEGREE + 1, 10 ** 12):
            with pytest.raises(DslParseError) as err:
                parse_expr(f"{name}({degree}{args})")
            assert err.value.position == offset
            assert str(err.value).startswith(f"degree must be <= {MAX_DEGREE}")
        with pytest.raises(DslError):
            Perm(MAX_DEGREE + 1, ())

    def test_nesting_bound(self):
        deepest = "prod(" * MAX_NESTING + "Z" + ")" * MAX_NESTING
        assert print_expr(parse_expr(deepest)) == deepest
        with pytest.raises(DslParseError) as err:
            parse_expr("wreath(" * MAX_NESTING + "C(2), Z" + ")" * MAX_NESTING)
        assert err.value.position == 7 * MAX_NESTING
        assert str(err.value).startswith(f"constructors nest at most {MAX_NESTING} deep")

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


@pytest.mark.parametrize("call, error, message", [
    (lambda: Cyclic(0), DslError, "^cyclic order must be >= 1, got 0$"),
    (lambda: Perm(3, (((0, 0),),)), DslError, r"^cycle repeats a point: \(0, 0\)$"),
    (lambda: Product(()), DslError, "^prod needs at least one item$"),
    (lambda: FinSupportPower(Int(), 0), DslError, "^points must be 'N' or a positive int, got 0$"),
    (lambda: Tower(Int(), 0), DslError, "^tower height must be >= 1, got 0$"),
    (lambda: Tower(Int(), MAX_TOWER_HEIGHT + 1), DslError,
     f"^tower height must be <= {MAX_TOWER_HEIGHT}, got {MAX_TOWER_HEIGHT + 1}$"),
    (lambda: print_expr(3), DslError, "^not an expression AST: 3$"),
    (lambda: build_group(3), UnregisteredConstructionError, "^unknown expression 3$"),
    # a bool or a float prints as text that does not parse back
    (lambda: Cyclic(True), DslError, "^cyclic order must be an int, got True$"),
    (lambda: Cyclic(2.5), DslError, r"^cyclic order must be an int, got 2\.5$"),
    (lambda: Tower(Int(), 2.0), DslError, r"^tower height must be an int, got 2\.0$"),
    (lambda: FinSupportPower(Int(), True), DslError,
     "^points must be 'N' or a positive int, got True$"),
    (lambda: Perm(-1, ()), DslError, "^degree must be >= 0, got -1$"),
    (lambda: Perm(2.0, ()), DslError, r"^degree must be an int, got 2\.0$"),
    (lambda: Perm(3, ((("a",),),)), DslError, "^cycle point must be an int, got 'a'$"),
    # a name the parser reads otherwise, or a list, which parses back unequal and unhashable
    (lambda: ExtensionRef("Z"), DslError, "^extension name must be an identifier other than "
     "Z, Dinf, N and the constructors, got 'Z'$"),
    (lambda: ExtensionRef("a b"), DslError, "got 'a b'$"),
    (lambda: print_expr(ExtensionRef(3)), DslError, "got 3$"),
    (lambda: Perm(3, ([(0, 1)],)), DslError, r"^a generator must be a tuple, got \[\(0, 1\)\]$"),
    (lambda: Product([Int()]), DslError, r"^prod must be a tuple, got \[Int\(\)\]$"),
    (lambda: Perm(3, (((),),)), DslError, "^a cycle needs at least one point$"),
], ids=["cyclic-0", "repeated-point", "empty-product", "points-0", "tower-0", "tower-too-high",
        "print-non-ast", "build-non-ast", "cyclic-bool", "cyclic-float", "tower-float",
        "points-bool", "degree-negative", "degree-float", "point-str", "reference-reserved",
        "reference-two-words", "reference-int", "generator-list", "items-list", "empty-cycle"])
def test_ast_guards(call, error, message):
    # callers build ASTs (build_group, chain_for and depth_interval take
    # them), so each constructor refuses what the parser refuses
    with pytest.raises(error, match=message):
        call()


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

    @pytest.mark.parametrize("name", ["a b", "Z"])
    def test_unreferenceable_extension_name_is_refused(self, monkeypatch, name):
        monkeypatch.setattr(catalog, "_EXTENSIONS", dict(catalog._EXTENSIONS))
        with pytest.raises(DslError, match=r"^extension name must be an identifier other than "
                                           r"Z, Dinf, N and the constructors, got "):
            register_extension(name, lambda: make_cyclic(6))
        assert name not in catalog._EXTENSIONS

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
        assert chain.tail[0].transversal.size == 2
        assert chain.tail[1].transversal.size == 3

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
        assert chain.tail[1].transversal.size == 8

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
