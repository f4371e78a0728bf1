import hashlib
import itertools
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from residua import catalog, groups
from residua.catalog import build_group
from residua.dsl import parse_expr
from residua.groups import (
    ORACLE_CAP,
    CountablePoints,
    Element,
    FinitePoints,
    GroupError,
    GroupMismatchError,
    InvalidElementError,
    extension_from_quotient,
    finite_support_power,
    label_sort_key,
    make_alternating,
    make_cyclic,
    make_infinite_dihedral,
    make_integers,
    make_perm,
    make_symmetric,
    mulclose,
    perm_from_cycles,
    random_words,
    wreath_product,
)
from residua.subgroups import SubgroupHandle, commutator_subgroup


def closure_oracle(gen_values, mul, identity):
    """Independent brute-force closure, element-by-element."""
    els = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in list(els):
            for g in gen_values:
                c = mul(a, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def check_axioms(group, probes, n_triples=200):
    """Group axioms on sampled triples: associativity, identity, inverse."""
    if not probes:
        return
    ident = group.identity()
    picks = list(itertools.islice(itertools.cycle(probes), 3 * n_triples))
    for i in range(n_triples):
        a, b, c = picks[3 * i], picks[3 * i + 1], picks[3 * i + 2]
        assert (a * b) * c == a * (b * c)
        assert a * ident == a and ident * a == a
        assert a * a.inverse() == ident and a.inverse() * a == ident


class TestFactories:
    def test_cyclic_order(self):
        assert make_cyclic(5).order == 5

    def test_perm_order_oracle(self):
        g = make_perm(3, [perm_from_cycles(3, [(0, 1)]), perm_from_cycles(3, [(0, 1, 2)])])
        oracle = closure_oracle(
            [v for v in g._generator_values()], g.mul_values, g.identity_value()
        )
        assert len(oracle) == 6
        assert g.order == 6
        assert set(g.element_values()) == oracle

    def test_perm_rejects_non_bijection(self):
        with pytest.raises(InvalidElementError):
            make_perm(3, [(0, 0, 2)])

    def test_dihedral_flip_involution(self):
        d = make_infinite_dihedral()
        r = d.element((1, 1))
        assert (r * r).is_identity()

    def test_symmetric_alternating_orders(self):
        assert make_symmetric(4).order == 24
        assert make_alternating(4).order == 12
        assert make_alternating(5).order == 60

    def test_integers_enumeration_injective(self):
        z = make_integers()
        seen = [z.enumerate_element(i).value for i in range(20)]
        assert len(set(seen)) == 20
        assert seen[:5] == [0, 1, -1, 2, -2]

    def test_cross_group_multiplication_is_hard_error(self):
        a = make_cyclic(5).element(1)
        b = make_cyclic(7).element(1)
        with pytest.raises(GroupMismatchError):
            a * b

    def test_axioms_on_fixtures(self):
        for g in (
            make_cyclic(6),
            make_symmetric(3),
            make_infinite_dihedral(),
            make_integers(),
        ):
            check_axioms(g, random_words(g, 24, seed=3))


class TestFinSupportPower:
    def test_finite_order(self):
        p = finite_support_power(make_cyclic(2), FinitePoints([0, 1, 2]))
        assert p.order == 8

    def test_identity_is_empty_support(self):
        p = finite_support_power(make_cyclic(2), FinitePoints([0, 1, 2]))
        assert p.identity().value == ()

    def test_disjoint_product_support_union(self):
        p = finite_support_power(make_cyclic(3), FinitePoints([0, 1, 2, 3]))
        a = p.element(((0, 1),))
        b = p.element(((2, 2),))
        assert p.support((a * b).value) == (0, 2)

    def test_embed_at_point(self):
        z = make_integers()
        pts = CountablePoints(lambda i: z.enumerate_element(i).value, "Z")
        p = finite_support_power(make_cyclic(2), pts)
        inject = p.embed_at(0)
        lit = inject(make_cyclic(2).element(1))
        assert lit.value == ((0, 1),)
        # injective on the base
        vals = {inject(make_cyclic(2).element(v)).value for v in (0, 1)}
        assert len(vals) == 2

    def test_embedded_copies_commute_when_disjoint(self):
        p = finite_support_power(make_symmetric(3), FinitePoints([0, 1]))
        s3 = make_symmetric(3)
        at0 = p.embed_at(0)
        at1 = p.embed_at(1)
        for a in s3.elements():
            for b in s3.elements():
                x, y = at0(a), at1(b)
                assert x * y == y * x

    def test_enumeration_repeat_detected(self):
        pts = CountablePoints(lambda i: i % 3, "bad")
        with pytest.raises(GroupError):
            [pts.label(i) for i in range(5)]


# --- products against a dict-and-sort reference ---------------------------------


def canonical(base, mapping: dict) -> tuple:
    """The reference canonical form: identity values dropped, points sorted."""
    ident = base.identity_value()
    return tuple(sorted(((p, v) for p, v in mapping.items() if v != ident),
                        key=lambda pv: label_sort_key(pv[0])))


def reference_mul(power, a, b):
    m = dict(a)
    for p, v in b:
        m[p] = power.base.mul_values(m[p], v) if p in m else v
    return canonical(power.base, m)


def reference_inv(power, a):
    return canonical(power.base, {p: power.base.inv_value(v) for p, v in a})


def reference_shift(w, g, f, value=lambda v: v):
    return canonical(w.base, {w.top.mul_values(g, p): value(v) for p, v in f})


def assert_canonical(base, f):
    keys = [label_sort_key(p) for p, _ in f]
    assert keys == sorted(set(keys))  # sorted, each point once
    assert all(v != base.identity_value() for _, v in f)


POINTS = list(range(-4, 5))


@st.composite
def related_supports(draw):
    """Two supports over POINTS that are disjoint, nested or overlapping,
    with values in C(3), so that products cancel at shared points."""
    a = draw(st.sets(st.sampled_from(POINTS), max_size=6))
    inside, outside = sorted(a), [p for p in POINTS if p not in a]
    relation = draw(st.sampled_from(["disjoint", "nested", "overlapping"]))
    part = (lambda pts: st.sets(st.sampled_from(pts), max_size=6) if pts else st.just(set()))
    b = set() if relation == "disjoint" else draw(part(inside))
    if relation != "nested":
        b |= draw(part(outside))
    value = st.sampled_from([1, 2])
    return ({p: draw(value) for p in a}, {p: draw(value) for p in b})


# top values drawn from small sets; a wreath's points are its top's values.  A
# wreath over wreath(C(2),Z) has no point enumeration yet, so the nested-tuple
# points come from the finite top wreath(C(2),C(3)).
TOP_VALUES = {
    "wreath(C(2),Z)": st.integers(-4, 4),
    "wreath(C(2),Dinf)": st.tuples(st.integers(-3, 3), st.sampled_from([0, 1])),  # flips reorder
    "wreath(C(2),wreath(C(2),C(3)))": st.sampled_from(
        wreath_product(make_cyclic(2), make_cyclic(3)).element_values()),
}


def wreath_values(w, tops):
    function = st.sets(tops, max_size=5).map(lambda pts: canonical(w.base, dict.fromkeys(pts, 1)))
    return st.tuples(function, tops)


class TestProductsAgainstReference:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(related_supports())
    def test_finite_support_products(self, supports):
        power = finite_support_power(make_cyclic(3), FinitePoints(POINTS))
        a, b = (canonical(power.base, m) for m in supports)
        for x, y in ((a, b), (b, a), (a, a), (a, reference_inv(power, a))):
            product = power.mul_values(x, y)
            assert product == reference_mul(power, x, y)
            assert_canonical(power.base, product)
        assert power.inv_value(a) == reference_inv(power, a)
        assert_canonical(power.base, power.inv_value(a))

    @pytest.mark.parametrize("expr", list(TOP_VALUES))
    def test_wreath_products(self, expr):
        w = build_group(parse_expr(expr))
        values = wreath_values(w, TOP_VALUES[expr])

        @settings(max_examples=100, derandomize=True, deadline=None)
        @given(values, values)
        def check(a, b):
            (f1, g1), (f2, g2) = a, b
            product = w.mul_values(a, b)
            expected = reference_mul(w.kernel, f1, reference_shift(w, g1, f2))
            assert product == (expected, w.top.mul_values(g1, g2))
            assert_canonical(w.base, product[0])
            ginv = w.top.inv_value(g1)
            inverse = w.inv_value(a)
            assert inverse == (reference_shift(w, ginv, f1, w.base.inv_value), ginv)
            assert_canonical(w.base, inverse[0])
            assert w.mul_values(a, inverse) == w.identity_value()
            # the kernel over the same points, on the shifted functions
            assert w.kernel.mul_values(f1, f2) == reference_mul(w.kernel, f1, f2)

        check()


class TestWreath:
    def test_order_24(self):
        w = wreath_product(make_cyclic(2), make_cyclic(3))
        assert w.order == 24

    def test_axioms(self):
        for w in (
            wreath_product(make_cyclic(2), make_cyclic(3)),
            wreath_product(make_cyclic(2), make_integers()),
            wreath_product(make_symmetric(3), make_integers()),
        ):
            check_axioms(w, random_words(w, 32, seed=5))

    def test_conjugated_base_copies_commute(self):
        # for k, k' supported at the identity point and top g != 1:
        # [g k g^{-1}, k'] is the identity
        w = wreath_product(make_symmetric(3), make_integers())
        s3 = make_symmetric(3)
        embed = w.embed_base_at(w.base_point())
        tops = [w.element(((), t)) for t in (1, -1, 2, 5)]
        picks = s3.elements()[:4]
        for g in tops:
            for kv in picks:
                for kv2 in picks:
                    k = embed(kv)
                    k2 = embed(kv2)
                    moved = g * k * g.inverse()
                    assert moved.commutator_with(k2).is_identity()

    def test_projection_and_kernel(self):
        w = wreath_product(make_cyclic(2), make_integers())
        ext = w.extension()
        f = w.element((((0, 1), (2, 1)), 0))
        g = w.element((((0, 1),), 3))
        assert ext.projection(g).value == 3
        assert ext.kernel_contains(f)
        assert not ext.kernel_contains(g)

    def test_projection_is_hom_on_words(self):
        w = wreath_product(make_cyclic(2), make_integers())
        ext = w.extension()
        probes = random_words(w, 16, seed=11)
        for a in probes:
            for b in probes[:4]:
                assert ext.projection(a * b) == ext.projection(a) * ext.projection(b)

    def test_projection_checks_the_group(self):
        w = wreath_product(make_cyclic(2), make_integers())
        twin = wreath_product(make_cyclic(2), make_integers())
        assert w.projection(twin.element(((), 2))).value == 2
        with pytest.raises(GroupMismatchError):
            w.projection(wreath_product(make_cyclic(3), make_integers()).element(((), 2)))

    def test_embed_then_project_is_identity_of_top(self):
        w = wreath_product(make_cyclic(2), make_integers())
        embed = w.embed_base_at(0)
        e = embed(make_cyclic(2).element(1))
        assert w.projection(e).is_identity()

    def test_conjugating_embedding_shifts_point(self):
        w = wreath_product(make_cyclic(2), make_integers())
        embed1 = w.embed_base_at(1)
        target = w.embed_base_at(4)
        shift = w.element(((), 3))
        x = embed1(make_cyclic(2).element(1))
        moved = shift * x * shift.inverse()
        assert moved == target(make_cyclic(2).element(1))

    def test_semidirect_law_kernel_multiplies_pointwise(self):
        w = wreath_product(make_cyclic(2), make_cyclic(3))
        a = w.element((((0, 1),), 0))
        b = w.element((((0, 1), (1, 1)), 0))
        prod = a * b
        assert prod.value[0] == ((1, 1),)
        assert prod.value[1] == 0


class TestExtension:
    def test_lamplighter_kernel_test(self):
        w = wreath_product(make_cyclic(2), make_integers())
        ext = w.extension()
        assert ext.kernel_contains(w.element((((5, 1),), 0)))
        assert ext.projection(w.identity()).is_identity()

    def test_dihedral_flip_parity(self):
        d = make_infinite_dihedral()
        c2 = make_cyclic(2)
        z = make_integers()
        ext = extension_from_quotient(
            total=d,
            projection=lambda e: Element(c2, e.value[1]),
            quotient=c2,
            section=lambda q: Element(d, (0, q.value)),
            kernel_group=z,
            kernel_embed=lambda k: Element(d, (k.value, 0)),
            kernel_retract=lambda e: Element(z, e.value[0]),
        )
        assert ext.kernel_contains(d.element((7, 0)))
        assert not ext.kernel_contains(d.element((7, 1)))

    @pytest.mark.parametrize("expr", [
        "wreath(C(2),C(3))", "wreath(C(2),Z)", "wreath(S(3),Z)", "wreath(C(2),Dinf)",
        "wreath(wreath(C(2),Z),Z)", "prod(Z,Dinf)", "prod(C(2),C(3),Z)",
    ])
    def test_library_extensions_pass_the_validator(self, expr):
        # the library builds these maps without probing them; the validator
        # for caller-supplied maps must accept every one
        g = build_group(parse_expr(expr))
        if expr.startswith("wreath"):
            ext = g.extension()
        else:
            rest = g.factors[1] if len(g.factors) == 2 else groups.DirectProductGroup(g.factors[1:])
            ext = catalog._split_first_factor(g, rest)
        maps = {f.name: getattr(ext, f.name) for f in fields(ext)}
        assert extension_from_quotient(**maps) == ext

    def test_rejects_non_homomorphism(self):
        z = make_integers()
        c2 = make_cyclic(2)
        with pytest.raises(GroupError):
            extension_from_quotient(
                total=z,
                projection=lambda e: Element(c2, 1 if e.value > 0 else 0),
                quotient=c2,
            )


class TestCommutatorSubgroup:
    def all_pairs_oracle(self, g):
        vals = g.element_values()
        comms = {g.identity_value()}
        for a in vals:
            for b in vals:
                ia, ib = g.inv_value(a), g.inv_value(b)
                comms.add(g.mul_values(g.mul_values(a, b), g.mul_values(ia, ib)))
        return set(mulclose(sorted(comms, key=label_sort_key), g.mul_values))

    def test_s3_derived_is_a3(self):
        s3 = make_symmetric(3)
        oracle = self.all_pairs_oracle(s3)
        assert len(oracle) == 3
        derived = commutator_subgroup(s3)
        assert set(derived.element_values()) == oracle
        assert derived.order == 3

    def test_abelian_trivial(self):
        assert commutator_subgroup(make_cyclic(5)).order == 1

    def test_a5_is_perfect(self):
        a5 = make_alternating(5)
        derived = commutator_subgroup(a5)
        assert derived.order == 60
        assert set(derived.element_values()) == self.all_pairs_oracle(a5)

    def test_s4_derived_is_a4(self):
        s4 = make_symmetric(4)
        derived = commutator_subgroup(s4)
        assert derived.order == 12
        assert set(derived.element_values()) == self.all_pairs_oracle(s4)

    def test_rejects_infinite(self):
        with pytest.raises(GroupError):
            commutator_subgroup(make_integers())


class TestSerialization:
    def test_permutation_as_image_array(self):
        s3 = make_symmetric(3)
        assert s3.element((1, 0, 2)).to_jsonable() == (1, 0, 2)

    def test_wreath_nested_object(self):
        w = wreath_product(make_cyclic(2), make_integers())
        e = w.element((((0, 1), (3, 1)), 2))
        assert e.to_jsonable() == {"fs": {"0": 1, "3": 1}, "top": 2}

    def test_label_sort_key_total(self):
        labels = [0, -3, (1, 0), (0, 1), "x", (2, (1, 1))]
        ordered = sorted(labels, key=label_sort_key)
        assert ordered == sorted(ordered, key=label_sort_key)


# (expression, count, max_len, sha256 of the probe values for seeds 0-3).
# Z, Dinf and power(C(2),N) saturate: their balls of radius 8 hold fewer
# than 64 non-identity elements.  C(3) at 8 probes of length 5 is what
# wreath products draw to check their action.
PINNED_PROBES = (
    ("Z", 64, 8, "29ce6f31caf3cf80e25632b1291f7c940b9405fac7b429961e2f91785fa325a0"),
    ("Dinf", 64, 8, "a4294402266722bf3481178e24958903a7b339a91b6118ccdf8e209589b8f2cd"),
    ("power(C(2),N)", 64, 8, "5b028622e45be50bc25600b03ff5da3be645317d3566a1b3d72ea81586255a17"),
    ("wreath(C(2),Z)", 160, 8, "bf708ade50c7d44b12b9915d3dfa43d52650307f9c33abe6c5d635f4c49a618d"),
    ("wreath(S(3),Z)", 64, 8, "ebeeb70699d869be683442a810edafcaa4665235ce67435bf3aebb367e1793f8"),
    ("prod(Z,Dinf)", 64, 8, "0cbc01fe89d16c978f404f01f1eec289f3e1496a9b17145dad123954261c5834"),
    ("tower(Z,3)", 16, 8, "8a33b0f998668fb235a0f54e463c93de845ef833f1dc6cb0a3198ffb9d0eb2ed"),
    ("C(3)", 8, 5, "ef2e0c1bc7b9bef210af47a7b3f860606d54e68894755ccd6fd9470f8bf41c04"),
    ("S(4)", 24, 8, "d106f3dbe62ba4f3f1e4059a6b4009948b23086b4700812a690e6d7f6f15a90b"),
)


class TestProbes:
    @pytest.mark.parametrize("expr,count,max_len,digest", PINNED_PROBES,
                             ids=[case[0] for case in PINNED_PROBES])
    def test_output_matches_pinned_digest(self, expr, count, max_len, digest):
        g = build_group(parse_expr(expr))
        runs = [[e.value for e in random_words(g, count, seed, max_len=max_len)]
                for seed in range(4)]
        assert hashlib.sha256(repr(runs).encode()).hexdigest() == digest

    @staticmethod
    def count_products(monkeypatch) -> list[int]:
        """Count ``mul_values`` calls of every group family, nested ones included."""
        calls = [0]
        for cls in vars(groups).values():
            if isinstance(cls, type) and "mul_values" in vars(cls):
                def counted(self, a, b, _mul=cls.mul_values):
                    calls[0] += 1
                    return _mul(self, a, b)
                monkeypatch.setattr(cls, "mul_values", counted)
        return calls

    @pytest.mark.parametrize("expr,count,bound", [("Z", 64, 100), ("wreath(C(2),Z)", 160, 2000)])
    def test_each_prefix_product_is_computed_once(self, monkeypatch, expr, count, bound):
        g = build_group(parse_expr(expr))
        calls = self.count_products(monkeypatch)
        assert random_words(g, count, seed=0)
        assert calls[0] <= bound

    def test_small_ball_stops_once_exhausted(self, monkeypatch):
        g = build_group(parse_expr("power(C(2),N)"))
        calls = self.count_products(monkeypatch)
        values = [e.value for e in random_words(g, 64, seed=0)]
        # Words of length <= 8 in the first four points' flips reach all 15
        # non-identity subsets of {0, 1, 2, 3}; the order is the seeded draw's.
        assert values == [
            ((0, 1), (1, 1), (2, 1)), ((1, 1),), ((0, 1), (2, 1)), ((3, 1),),
            ((0, 1), (1, 1), (2, 1), (3, 1)), ((2, 1),), ((0, 1), (1, 1)), ((0, 1),),
            ((1, 1), (3, 1)), ((0, 1), (3, 1)), ((2, 1), (3, 1)), ((1, 1), (2, 1)),
            ((1, 1), (2, 1), (3, 1)), ((0, 1), (1, 1), (3, 1)), ((0, 1), (2, 1), (3, 1)),
        ]
        assert calls[0] <= 200

    def test_deterministic(self):
        g = make_symmetric(4)
        a = [e.value for e in random_words(g, 16, seed=9)]
        b = [e.value for e in random_words(g, 16, seed=9)]
        assert a == b

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_word_length_below_one_rejected(self, max_len):
        # a rejection-sampled length below 1 would never be drawn
        with pytest.raises(ValueError):
            random_words(make_cyclic(6), 4, seed=0, max_len=max_len)

    def test_no_identity_and_deduplicated(self):
        g = make_cyclic(6)
        probes = random_words(g, 10, seed=1)
        vals = [e.value for e in probes]
        assert 0 not in vals
        assert len(set(vals)) == len(vals)


class TestElementAcrossHandles:
    def test_equal_tags_compare_hash_and_multiply(self):
        g, h = make_symmetric(3), make_symmetric(3)
        assert g is not h and g.tag == h.tag
        a, b = g.generators[0], h.generators[0]
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a * b == g.identity() and (b * a).group is h

    def test_different_tags_still_raise(self):
        a, b = make_cyclic(4).generators[0], make_cyclic(6).generators[0]
        assert a.value == b.value and a != b
        with pytest.raises(GroupMismatchError):
            a * b


class TestElementIsImmutable:
    @pytest.mark.parametrize("name", ["group", "value", "other"])
    def test_assignment_raises(self, name):
        e = make_cyclic(4).generators[0]
        with pytest.raises(AttributeError):
            setattr(e, name, 1)
        assert (e.group.tag, e.value) == ("C(4)", 1)


def count_calls(monkeypatch, cls, name):
    """A one-item list that counts calls of cls.name from now on."""
    calls = [0]
    original = getattr(cls, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(cls, name, counting)
    return calls


class TestCayleyTable:
    @pytest.mark.parametrize("expr", ["S(4)", "A(5)", "wreath(C(2),C(3))", "power(C(2),4)",
                                      "prod(S(3),C(4))", "prod(A(4),C(2))"])
    def test_agrees_with_the_group_on_every_pair(self, expr):
        g = build_group(parse_expr(expr))
        table = g.cayley_table()
        values = g.element_values()
        assert list(table.values) == values
        assert table.index == {v: i for i, v in enumerate(values)}
        for i, a in enumerate(values):
            assert values[table.inv[i]] == g.inv_value(a)
            assert [values[k] for k in table.mul[i]] == [g.mul_values(a, b) for b in values]
        assert g.cayley_table() is table  # built once, kept on the group

    def test_generator_rows_are_the_only_products_taken(self, monkeypatch):
        g = make_alternating(5)
        g.element_values()
        calls = count_calls(monkeypatch, type(g), "mul_values")
        g.cayley_table()
        assert calls[0] == len(g.generators) * g.order

    def test_rows_the_generators_miss_are_multiplied(self, monkeypatch):
        s3 = make_symmetric(3)
        swap = perm_from_cycles(3, [(0, 1)])
        h = SubgroupHandle(s3, s3.element_values(), generators=[swap])
        calls = count_calls(monkeypatch, groups.PermGroup, "mul_values")
        table = h.cayley_table()
        # the swap reaches one row besides the identity's; the other four are direct
        assert calls[0] == 6 + 4 * 6
        values = h.element_values()
        for i, a in enumerate(values):
            assert [values[k] for k in table.mul[i]] == [s3.mul_values(a, b) for b in values]
            assert values[table.inv[i]] == s3.inv_value(a)

    def test_elements_multiply_by_lookup(self, monkeypatch):
        g = make_symmetric(4)
        a, b = g.generators
        expected = g.mul_values(a.value, b.value), g.inv_value(b.value)
        g.cayley_table()
        calls = count_calls(monkeypatch, groups.PermGroup, "mul_values")
        inverses = count_calls(monkeypatch, groups.PermGroup, "inv_value")
        assert ((a * b).value, b.inverse().value) == expected
        assert calls[0] == 0 and inverses[0] == 0

    def test_non_canonical_value_is_multiplied(self, monkeypatch):
        g = make_cyclic(5)
        g.cayley_table()
        calls = count_calls(monkeypatch, groups.CyclicGroup, "mul_values")
        inverses = count_calls(monkeypatch, groups.CyclicGroup, "inv_value")
        odd, one = Element(g, 7), g.element(1)
        assert (odd * one).value == 3 and (one * odd).value == 3
        assert odd.inverse().value == 3
        assert calls[0] == 2 and inverses[0] == 1

    def test_no_table_above_the_cap(self):
        g = build_group(parse_expr("power(C(2),8)"))
        assert g.order == 256 > ORACLE_CAP
        assert g.cayley_table() is None
        a, b = g.generators[:2]
        assert (a * b * a).value == b.value

    def test_no_table_for_infinite_groups(self):
        z = make_integers()
        assert z.cayley_table() is None
        assert (z.element(2) * z.element(3)).value == 5
