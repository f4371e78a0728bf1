"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
checks are exact (discrete mathematics, tolerance zero) and deterministic.

Criterion 1 checks, besides the ordinal laws, that left addition of w is
absorbed exactly from w^2 upward: w + a == a iff a >= w^2 (so w + w^2 == w^2
while w + w*k != w*k).  Its sampler covers the regions below w^2, in
[w^2, w^w) and at or above w^w, and the test asserts that each was drawn.
Every criterion is expected to pass.
"""

import io
import itertools
import random
import time
from contextlib import redirect_stdout

from fixture_groups import finite_fixtures

from residua.catalog import build_group, depth_interval
from residua.chains import (
    chain_at,
    finite_chain,
    integers_chain,
    promote_to_omega,
    single_step_chain,
    verify_prefix,
)
from residua.cli import main
from residua.dsl import parse_expr
from residua.groups import (
    CountablePoints,
    Element,
    make_cyclic,
    make_infinite_dihedral,
    make_integers,
    make_symmetric,
    random_words,
    wreath_product,
)
from residua.oracle import (
    all_subgroups,
    chain_enumerate,
    core_up_to_index,
    depth_exact_finite,
    min_kappa,
)
from residua.ordinal import (
    OMEGA,
    OMEGA_OMEGA,
    ONE,
    ZERO,
    Comparison,
    DepthClass,
    Ordinal,
    add,
    classify,
    compare,
    multiply,
    omega_absorbs,
    omega_power,
)
from residua.powers import power_chain, tower_chain
from residua.chains import dihedral_chain
from residua.trees import coset_tree, stabilizer_chain, truncate, verify_simple


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def random_ordinal(rng, max_exp=4, max_coeff=9):
    exps = sorted(rng.sample(range(max_exp + 1), rng.randint(0, max_exp + 1)), reverse=True)
    return Ordinal(tuple((Ordinal.from_int(e), rng.randint(1, max_coeff)) for e in exps))


def test_criterion_1_ordinal_laws():
    t0 = time.monotonic()
    rng = random.Random(10)
    laws_hold = True
    for _ in range(10_000):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        if add(add(a, b), c) != add(a, add(b, c)):
            laws_hold = False
            break
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            laws_hold = False
            break
        if multiply(a, add(b, c)) != add(multiply(a, b), multiply(a, c)):
            laws_hold = False
            break
    witnesses = (
        add(1, OMEGA) == OMEGA
        and add(OMEGA, 1) != OMEGA
        and multiply(OMEGA, 2) == add(OMEGA, OMEGA)
        and multiply(2, OMEGA) == OMEGA
        and all(
            add(OMEGA, multiply(OMEGA, n - 1)) == multiply(OMEGA, n)
            for n in range(1, 21)
        )
    )
    # absorption iff alpha >= w^2, on 10^3 samples spanning both sides of
    # w^2 and of w^w, so that neither a w^w threshold nor a w*k one passes.
    rng2 = random.Random(20)
    w2 = omega_power(2)
    counterexample = None
    region_counts = {"below w^2": 0, "[w^2, w^w)": 0, "from w^w": 0}
    for _ in range(1000):
        if rng2.random() < 0.3:
            a = omega_power(random_ordinal(rng2, max_exp=2, max_coeff=3))
            a = add(a, random_ordinal(rng2))
        else:
            a = random_ordinal(rng2)
        at_least_w2 = compare(a, w2) is not Comparison.LESS
        if not at_least_w2:
            region_counts["below w^2"] += 1
        elif compare(a, OMEGA_OMEGA) is Comparison.LESS:
            region_counts["[w^2, w^w)"] += 1
        else:
            region_counts["from w^w"] += 1
        if omega_absorbs(a) != at_least_w2 and counterexample is None:
            counterexample = a
    absorption_iff_omega_squared = counterexample is None
    all_regions_sampled = all(region_counts.values())
    elapsed = time.monotonic() - t0
    ok = (
        laws_hold
        and witnesses
        and absorption_iff_omega_squared
        and all_regions_sampled
        and elapsed < 5
    )
    detail = ""
    if not absorption_iff_omega_squared:
        detail = (
            f"absorption w + a == a should hold exactly from w^2 upward; "
            f"counterexample {counterexample}"
        )
    report(1, "ordinal laws", ok, detail)
    assert laws_hold
    assert witnesses
    assert elapsed < 5, f"took {elapsed:.2f}s"
    assert all_regions_sampled, f"a region was never sampled: {region_counts}"
    assert absorption_iff_omega_squared, detail


def test_criterion_2_depth_classification():
    t0 = time.monotonic()
    ok = True
    for q in range(4):
        for r in range(4):
            value = add(multiply(OMEGA, q), r)
            got = classify(value)
            if q == 0:
                expected = {0: DepthClass.ZERO, 1: DepthClass.ONE}.get(r, DepthClass.INVALID)
            else:
                expected = {0: DepthClass.LIMIT, 1: DepthClass.LIMIT_PLUS_ONE}.get(
                    r, DepthClass.INVALID
                )
            ok = ok and got is expected
    elapsed = time.monotonic() - t0
    report(2, "depth classification sweep below w*4", ok and elapsed < 1)
    assert ok
    assert elapsed < 1


def test_criterion_3_finite_ground_truth():
    t0 = time.monotonic()
    fixtures = finite_fixtures()
    assert len(fixtures) == 12
    depth_ok = all(
        depth_exact_finite(g) == (ZERO if g.order == 1 else ONE) for _, g in fixtures
    )
    kappa_ok = all(min_kappa(make_cyclic(p)) == p + 1 for p in (2, 3, 5, 7))
    core_ok = True
    for _, g in fixtures:
        core = core_up_to_index(g, g.order + 1)
        core_ok = core_ok and core == frozenset({g.identity_value()})
    elapsed = time.monotonic() - t0
    ok = depth_ok and kappa_ok and core_ok and elapsed < 30
    report(3, "finite-group ground truth (12 fixtures)", ok)
    assert depth_ok and kappa_ok and core_ok
    assert elapsed < 30, f"took {elapsed:.2f}s"


def test_criterion_4_chain_axioms():
    t0 = time.monotonic()
    verdicts = {}

    verdicts["integers"] = verify_prefix(integers_chain(2), levels=6, probes=64, seed=0).verdict

    lamp = wreath_product(make_cyclic(2), make_integers())
    from residua.chains import concat_extension

    lamp_chain = concat_extension(
        lamp.extension(),
        integers_chain(2),
        power_chain(promote_to_omega(single_step_chain(make_cyclic(2))), lamp.points),
    )
    verdicts["lamplighter"] = verify_prefix(lamp_chain, levels=5, probes=64, seed=7).verdict

    tower = tower_chain(make_infinite_dihedral(), dihedral_chain(2), 2)
    verdicts["tower"] = verify_prefix(tower, levels=4, probes=64, seed=0).verdict

    # index of the coordinatewise chain over (Z/2)^(N): 2^n, against an
    # exhaustive coset enumeration in the finite quotient (Z/2)^n
    points = CountablePoints(lambda i: i, "N")
    doubling = power_chain(promote_to_omega(single_step_chain(make_cyclic(2))), points)
    index_ok = True
    for n in range(1, 9):
        cumulative = 1
        for k in range(1, n + 1):
            cumulative *= doubling.stage_at(0, k).transversal.size
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
        index_ok = index_ok and cumulative == 2 ** n == len(seen)

    # integer base: cumulative index 2^(n(n+1)/2) by finite-quotient coset
    # counting (coordinate subgroups of Z/2^n enumerated exhaustively)
    int_power = power_chain(integers_chain(2), CountablePoints(lambda i: i, "N"))
    for n in range(1, 7):
        modulus = 2 ** n
        quotient_cosets = 1
        for i in range(n):
            coordinate_subgroup = {v % modulus for v in range(0, modulus, 2 ** (n - i))}
            for a in coordinate_subgroup:
                for b in coordinate_subgroup:
                    assert (a + b) % modulus in coordinate_subgroup
            quotient_cosets *= modulus // len(coordinate_subgroup)
        cumulative = 1
        for k in range(1, n + 1):
            cumulative *= int_power.stage_at(0, k).transversal.size
        index_ok = index_ok and cumulative == quotient_cosets == 2 ** (n * (n + 1) // 2)

    elapsed = time.monotonic() - t0
    zero_fail = all(v != "fail" for v in verdicts.values())
    all_pass = all(v == "pass" for v in verdicts.values())
    ok = zero_fail and index_ok and elapsed < 60
    report(
        4,
        "chain axioms (2-adic, lamplighter, tower, power indices)",
        ok,
        f"verdicts {verdicts}" if not all_pass else "",
    )
    assert zero_fail, verdicts
    assert index_ok
    assert elapsed < 60, f"took {elapsed:.2f}s"


def test_criterion_5_tree_correspondence_finite_case():
    t0 = time.monotonic()
    ok = True
    checked = 0
    for name, group in finite_fixtures():
        if group.order > 24:
            continue
        for sets in chain_enumerate(group, 3):
            chain = finite_chain(group, sets[1:])
            depth = len(sets) - 1
            tr = truncate(coset_tree(chain), depth)
            # fibre sizes equal step indices
            expected_fibres = [
                len(sets[i]) // len(sets[i + 1]) for i in range(len(sets) - 1)
            ]
            ok = ok and list(tr.fibres) == expected_fibres
            # stabilizers along the identity thread reproduce the chain
            thread = tr.thread_of(group.identity())
            recovered = stabilizer_chain(tr, thread)
            for k, expected in enumerate(sets):
                got = {
                    e.value
                    for e in group.elements()
                    if chain_at(recovered, k).contains(e)
                }
                ok = ok and got == set(expected)
            # simplicity holds exactly when the chain ends at the trivial group
            ok = ok and verify_simple(chain, tr).verdict == "simple"
            if depth >= 1 and len(sets[-2]) > 1:
                shorter = finite_chain(group, sets[1:-1])
                tr2 = truncate(coset_tree(shorter), depth - 1)
                ok = ok and verify_simple(shorter, tr2).verdict == "violation"
            checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    report(5, "tree correspondence, finite case", ok, f"{checked} chains")
    assert ok
    assert elapsed < 60, f"took {elapsed:.2f}s"


def test_criterion_6_wreath_semantics():
    t0 = time.monotonic()
    small = wreath_product(make_cyclic(2), make_cyclic(3))
    big = wreath_product(make_symmetric(3), make_integers())
    tower = build_group(parse_expr("tower(Dinf, 2)"))
    axioms_ok = True
    for w, seed in ((small, 1), (big, 2), (tower, 3)):
        probes = random_words(w, 48, seed=seed, max_len=6)
        ident = w.identity()
        picks = list(itertools.islice(itertools.cycle(probes), 3000))
        for i in range(1000):
            a, b, c = picks[3 * i], picks[3 * i + 1], picks[3 * i + 2]
            if (a * b) * c != a * (b * c):
                axioms_ok = False
            if a * ident != a or ident * a != a:
                axioms_ok = False
            if not (a * a.inverse()).is_identity():
                axioms_ok = False
    relation_ok = True
    s3 = make_symmetric(3)
    embed = big.embed_base_at(big.base_point())
    rng = random.Random(6)
    vals = s3.element_values()
    for _ in range(300):
        k = embed(Element(s3, rng.choice(vals)))
        k2 = embed(Element(s3, rng.choice(vals)))
        g = big.element(((), rng.choice([t for t in range(-4, 5) if t])))
        if not (g * k * g.inverse()).commutator_with(k2).is_identity():
            relation_ok = False
    order_ok = small.order == 24
    elapsed = time.monotonic() - t0
    ok = axioms_ok and relation_ok and order_ok and elapsed < 10
    report(6, "wreath semantics", ok)
    assert axioms_ok and relation_ok and order_ok
    assert elapsed < 10, f"took {elapsed:.2f}s"


def test_criterion_7_core_sandwich_evidence():
    t0 = time.monotonic()
    from residua.chains import core_sandwich

    w = wreath_product(make_symmetric(3), make_integers())
    lower, upper = core_sandwich(w)
    s3 = make_symmetric(3)
    vals = s3.element_values()
    rng = random.Random(8)
    embed = w.embed_base_at(w.base_point())
    implication_ok = True
    probes = random_words(w, 200, seed=9)
    derived_probes = []
    for _ in range(300):
        a = Element(s3, rng.choice(vals))
        b = Element(s3, rng.choice(vals))
        derived_probes.append(embed(a.commutator_with(b)))
    shifts = [w.element(((), t)) for t in (1, -1, 2, 3)]
    for d in derived_probes:
        derived_probes.append(rng.choice(shifts) * d * rng.choice(shifts).inverse())
        if len(derived_probes) >= 700:
            break
    count = 0
    for p in itertools.chain(probes, derived_probes):
        if lower.contains(p) and not upper.contains(p):
            implication_ok = False
        count += 1
        if count >= 1000:
            break
    identity_ok = True
    for _ in range(1000):
        x = embed(Element(s3, rng.choice(vals)))
        y = embed(Element(s3, rng.choice(vals)))
        t = rng.choice([v for v in range(-5, 6) if v])
        g1 = w.element((((rng.randint(-4, 4), rng.choice(vals)),), t))
        if not (g1 * x * g1.inverse()).commutator_with(y).is_identity():
            identity_ok = False
    elapsed = time.monotonic() - t0
    ok = implication_ok and identity_ok and elapsed < 10
    report(7, "core sandwich evidence", ok)
    assert implication_ok and identity_ok
    assert elapsed < 10, f"took {elapsed:.2f}s"


def test_criterion_8_symbolic_depth_reproduction():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 6):
        interval = depth_interval(parse_expr(f"tower(Dinf, {n})"))
        ok = ok and interval.upper == multiply(OMEGA, n)
        ok = ok and interval.paper_claimed == multiply(OMEGA, n)
        ok = ok and interval.lower == OMEGA
        ok = ok and not interval.claim_discrepancy
    flagged = depth_interval(parse_expr("wreath(tower(Dinf, 2), C(2))"))
    ok = ok and flagged.paper_claimed == add(multiply(OMEGA, 2), 1)
    ok = ok and flagged.upper == multiply(OMEGA, 2)
    ok = ok and flagged.claim_discrepancy
    ok = ok and any("discrepancy" in f for f in flagged.flags)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1
    report(8, "symbolic depth reproduction", ok)
    assert ok
    assert elapsed < 1, f"took {elapsed:.2f}s"


def test_criterion_9_determinism():
    t0 = time.monotonic()
    commands = [
        ["verify", "wreath(C(2), Z)", "--levels", "5", "--seed", "7", "--format", "json"],
        ["verify", "Z", "--format", "json"],
        ["depth", "tower(Dinf, 3)", "--format", "json"],
        ["tree", "S(3)", "--levels", "2", "--format", "dot"],
        ["oracle", "lattice", "A(4)", "--format", "json"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = main(list(argv))
            outputs.append((code, buffer.getvalue()))
        ok = ok and outputs[0] == outputs[1] and outputs[0][1] != ""
    elapsed = time.monotonic() - t0
    report(9, "byte-identical certificates", ok)
    assert ok
    assert elapsed < 30


if __name__ == "__main__":
    import pytest as _pytest

    raise SystemExit(_pytest.main([__file__, "-v", "-s"]))
