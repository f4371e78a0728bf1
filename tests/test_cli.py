import contextlib
import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import residua
from residua import catalog, chains, cli, groups, oracle
from residua.cli import main
from residua.dsl import MAX_DEGREE, MAX_NESTING, MAX_TOWER_HEIGHT, parse_expr
from residua.groups import FinSupportPowerGroup, WreathProductGroup, make_cyclic


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDepth:
    def test_tower(self, capsys):
        code, out, _ = run(capsys, "depth", "tower(Dinf, 2)")
        assert code == 0
        assert out.splitlines()[0] == "[w, w*2]"
        assert "paper_claimed: w*2" in out

    def test_finite(self, capsys):
        code, out, _ = run(capsys, "depth", "C(7)")
        assert code == 0
        assert out.splitlines()[0] == "[1, 1]"

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "depth", "1")
        assert code == 0
        assert out.splitlines()[0] == "[0, 0]"

    def test_parse_error_exit_1(self, capsys):
        code, out, err = run(capsys, "depth", "tower(Dinf, 0)")
        assert code == 1
        assert out == ""
        assert "offset 12" in err

    def test_unregistered_exit_4(self, capsys):
        code, _, err = run(capsys, "depth", "Deligne")
        assert code == 4
        assert "Deligne" in err

    def test_extension_without_chain_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(catalog, "_EXTENSIONS", dict(catalog._EXTENSIONS))
        catalog.register_extension("test_only_c6", lambda: make_cyclic(6))
        code, out, err = run(capsys, "depth", "test_only_c6")
        assert code == 4
        assert out == ""
        assert "no chain constructor registered" in err

    def test_wreath_over_a_tower_without_the_hypotheses_claims_nothing(self, capsys):
        # Z lacks a finite abelianization, so tower(Z,2) claims no depth and
        # the wreath over it claims none either, keeping the tower's flag
        code, out, _ = run(capsys, "depth", "wreath(tower(Z,2),C(2))")
        assert code == 0
        assert out == ("[w, w*2]\nflag: exact-depth claim withheld: the tower base does not "
                       "carry the residual-finiteness and finite-abelianization hypotheses\n")

    def test_single_item_product_keeps_the_claim(self, capsys):
        assert run(capsys, "depth", "prod(tower(Dinf,2))") == run(capsys, "depth", "tower(Dinf,2)")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "depth", "tower(Dinf, 3)", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["upper_text"] == "w*3"
        assert payload["claimed_text"] == "w*3"
        assert payload["version"]


class TestVerify:
    def test_lamplighter_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "wreath(C(2), Z)",
            "--levels", "5", "--probes", "64", "--seed", "7", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["length"] == {
            "terms": [{"exp": {"terms": [{"exp": {"terms": []}, "coeff": 1}]}, "coeff": 2}]
        }
        assert payload["seed"] == 7
        assert payload["config"]["probes"] == 64

    def test_prime_cyclic_small_kappa_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "C(5)", "--kappa", "5", "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "fail"

    def test_integers_pass_with_separations(self, capsys):
        code, out, _ = run(capsys, "verify", "Z")
        assert code == 0
        assert "verdict: pass" in out
        assert "separations:" in out

    def test_no_chain_constructor_exit_4(self, capsys):
        code, _, err = run(capsys, "verify", "Deligne")
        assert code == 4

    def test_inconclusive_exit_3(self, capsys):
        # with no budget to resolve limit-stage rejections the verdict can
        # only be inconclusive, never a wrong pass or fail
        code, out, _ = run(
            capsys, "verify", "wreath(C(2), Z)", "--limit-budget", "0",
            "--format", "json",
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_no_probes_inconclusive_exit_3(self, capsys):
        # a negative count is a usage error (TestUsageErrors)
        for expr, probes in (("Z", "0"), ("tower(Dinf,2)", "0")):
            code, out, _ = run(capsys, "verify", expr, "--probes", probes)
            assert code == 3
            assert "verdict: inconclusive" in out
            assert "flag: no probes were drawn" in out

    @pytest.mark.parametrize("expr", ["S(1)", "A(2)"])
    def test_certificate_expression_parses(self, capsys, expr):
        code, out, _ = run(capsys, "verify", expr, "--format", "json")
        assert code == 3  # a trivial group draws no probes
        assert parse_expr(json.loads(out)["expression"]) == parse_expr(expr)

    def test_unknown_selector_exit_4(self, capsys):
        code, _, _ = run(capsys, "verify", "Z", "--chain", "p5")
        assert code == 4


class TestTree:
    def test_s3_dot(self, capsys):
        code, out, _ = run(capsys, "tree", "S(3)", "--levels", "2", "--format", "dot")
        assert code == 0
        assert out.count("label") == 9
        assert out.count("->") == 8

    def test_levels_zero(self, capsys):
        code, out, _ = run(capsys, "tree", "S(3)", "--levels", "0", "--format", "dot")
        assert code == 0
        assert out.count("label") == 1

    def test_lamplighter_json_sizes(self, capsys):
        code, out, _ = run(
            capsys, "tree", "wreath(C(2), Z)", "--levels", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [lv["size"] for lv in payload["levels"]] == [1, 2, 4, 8]

    def test_non_materializable_exit_5(self, capsys):
        code, _, err = run(capsys, "tree", "C(5)", "--levels", "3")
        assert code == 5


class TestOracle:
    def test_min_kappa(self, capsys):
        code, out, _ = run(capsys, "oracle", "min-kappa", "C(5)")
        assert code == 0
        assert out.strip() == "6"

    def test_core(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "core", "S(3)", "--max-index", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["is_trivial"] is True
        assert payload["core_order"] == 1

    def test_depth(self, capsys):
        code, out, _ = run(capsys, "oracle", "depth", "C(12)")
        assert code == 0
        assert out.strip() == "1"

    def test_lattice(self, capsys):
        code, out, _ = run(capsys, "oracle", "lattice", "C(6)", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4

    @pytest.mark.parametrize("argv, first_line", [
        (("oracle", "lattice", "power(1,N)", "--format", "json"), "{"),
        (("oracle", "min-kappa", "power(C(1),N)"), "1"),
        (("verify", "wreath(C(2),power(1,N))"), "verdict: pass"),
    ])
    def test_trivial_power_over_n_is_finite(self, capsys, argv, first_line):
        code, out, err = run(capsys, *argv)
        assert (code, err, out.splitlines()[0]) == (0, "", first_line)
        if argv[1] == "lattice":
            assert json.loads(out)["count"] == 1

    def test_cap_exit_6(self, capsys):
        code, _, err = run(capsys, "oracle", "lattice", "S(6)")
        assert code == 6

    def test_core_builds_the_lattice_once(self, capsys, monkeypatch):
        calls, real = [], oracle.all_subgroups

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(oracle, "all_subgroups", counting)
        monkeypatch.setattr(cli, "all_subgroups", counting)
        code, out, _ = run(capsys, "oracle", "core", "S(4)", "--max-index", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["core_order"] == 4
        assert len(calls) == 1


class TestDeterminismAndIO:
    def test_byte_identical_runs(self, capsys):
        a = run(capsys, "verify", "wreath(C(2), Z)", "--seed", "7", "--format", "json")
        b = run(capsys, "verify", "wreath(C(2), Z)", "--seed", "7", "--format", "json")
        assert a == b

    def test_env_seed_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("RESIDUA_SEED", "5")
        _, out_env, _ = run(capsys, "verify", "Z", "--format", "json")
        assert json.loads(out_env)["seed"] == 5
        _, out_flag, _ = run(capsys, "verify", "Z", "--seed", "3", "--format", "json")
        assert json.loads(out_flag)["seed"] == 3

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "verify", "Z", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"

    def test_version_embedded(self, capsys):
        _, out, _ = run(capsys, "verify", "Z", "--format", "json")
        assert json.loads(out)["version"] == "0.1.0"

    def test_stdout_is_the_same_under_two_hash_seeds(self, monkeypatch):
        # str and tuple hashes, and so the order of sets and of dicts built
        # from them, change with PYTHONHASHSEED; a fresh process per seed
        for argv in (("verify", "tower(Dinf,3)", "--levels", "5"),
                     ("tree", "wreath(C(2),Z)", "--levels", "6"),
                     ("oracle", "lattice", "S(4)")):
            outs = []
            for seed in ("0", "1"):
                monkeypatch.setenv("PYTHONHASHSEED", seed)
                done = run_module(*argv)
                assert done.returncode == 0 and done.stdout, done.stderr
                outs.append(done.stdout)
            assert outs[0] == outs[1], argv

    def test_subgroup_tag_is_the_same_under_two_hash_seeds(self):
        # the tag digests the subgroup's values, whose tuple hash changes with the seed
        src = str(Path(residua.__file__).resolve().parents[1])
        code = ("from residua.groups import FinitePoints, finite_support_power, make_symmetric\n"
                "from residua.subgroups import commutator_subgroup\n"
                "print(commutator_subgroup(finite_support_power(\n"
                "    make_symmetric(3), FinitePoints(['a', 'b']))).tag)")
        tags = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": src,
                                                "PYTHONHASHSEED": seed}).stdout
                for seed in ("0", "1")]
        assert tags[0] == tags[1] and tags[0].rstrip().endswith(";9:a5b8cb91)")


# expressions whose groups cannot be built, with the exit-4 message each gives
BAD_EXPRESSIONS = {
    "tower(wreath(C(2),Z),2)": "wreath(C(2);Z) has no element enumeration",
    "Deligne": "no construction registered under 'Deligne'",
    "tower(power(prod(Z,C(2)),N),2)": "power(prod(Z;C(2));enum[N]) has no element enumeration",
    "wreath(Z,wreath(Z,Z))": "wreath(Z;Z) has no element enumeration",
    "wreath(C(2),power(C(2),N))": "power(C(2);enum[N]) has no element enumeration",
    "wreath(C(2),prod(Z,Z))": "prod(Z;Z): enumeration needs exactly one infinite factor",
}


class TestOneBuildPerExpression:
    @pytest.mark.parametrize("expr", BAD_EXPRESSIONS)
    def test_bad_expression_same_message_everywhere(self, capsys, expr):
        results = [
            run(capsys, *argv)
            for argv in (("depth", expr), ("verify", expr), ("tree", expr),
                         ("oracle", "lattice", expr))
        ]
        assert [code for code, _, _ in results] == [4] * 4
        assert {err for _, _, err in results} == {f"residua: {BAD_EXPRESSIONS[expr]}\n"}

    @pytest.mark.parametrize("argv, lists", [
        (("depth", "tower(Dinf,6)"), 0),
        (("verify", "wreath(C(2),Z)"), 1),
    ])
    def test_library_maps_draw_no_probes(self, capsys, monkeypatch, argv, lists):
        # the library's own wreaths and extensions are built without probe
        # checks; only verify draws, once
        drawn = []

        def counting(*args, _draw=groups.random_words, **kwargs):
            drawn.append(args)
            return _draw(*args, **kwargs)

        for module in (groups, chains):
            monkeypatch.setattr(module, "random_words", counting)
        assert run(capsys, *argv)[0] == 0
        assert len(drawn) == lists

    @pytest.mark.parametrize(
        "argv, wreaths",
        [
            (("depth", "tower(Dinf,4)"), 3),
            (("verify", "wreath(tower(Z,2),C(2))"), 2),
            (("verify", "tower(Z,3)", "--levels", "1", "--probes", "8"), 2),
        ],
        ids=["depth-tower4", "verify-wreath-of-tower2", "verify-tower3"],
    )
    def test_wreath_groups_built_once(self, capsys, monkeypatch, argv, wreaths):
        assert count_builds(capsys, monkeypatch, WreathProductGroup, argv) == wreaths

    @pytest.mark.parametrize(
        "argv, powers",
        [
            (("verify", "wreath(C(2),Z)"), 1),
            (("verify", "power(C(2),N)"), 1),
            (("verify", "power(C(2),3)"), 1),
            (("verify", "tower(Z,3)", "--levels", "1", "--probes", "8"), 2),
            (("depth", "tower(Dinf,4)"), 3),
        ],
        ids=["verify-wreath", "verify-countable-power", "verify-finite-power",
             "verify-tower3", "depth-tower4"],
    )
    def test_power_groups_built_once(self, capsys, monkeypatch, argv, powers):
        # the power chain runs over the kernel of its wreath, or the power
        # the expression names, never a second copy
        assert count_builds(capsys, monkeypatch, FinSupportPowerGroup, argv) == powers

    @pytest.mark.parametrize("expr, top", [
        ("Z", False), ("Dinf", False), ("wreath(C(2),Z)", True), ("tower(Dinf,2)", True),
    ])
    def test_base_chains_hold_the_catalog_group(self, monkeypatch, expr, top):
        # object-identity fast paths then never fall back to comparing tags
        base_chains = []
        for name in ("integers_chain", "dihedral_chain"):
            def recording(*args, _build=getattr(catalog, name), **kwargs):
                base_chains.append(_build(*args, **kwargs))
                return base_chains[-1]
            monkeypatch.setattr(catalog, name, recording)
        compiled = catalog._compile(parse_expr(expr))
        compiled.chain()
        base = compiled.group.top if top else compiled.group
        assert base_chains and all(chain.group is base for chain in base_chains)


class TestHugeIntegers:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_index_past_the_digit_limit_is_written(self, capsys, monkeypatch, fmt):
        # Python 3.11 refuses to write ints of over 4,300 digits by default
        verify_prefix = cli.verify_prefix

        def huge_index(*args, **kwargs):
            cert = verify_prefix(*args, **kwargs)
            rows = tuple(dict(row, index=10 ** 5000) if row["index"] else row
                         for row in cert.levels)
            return dataclasses.replace(cert, levels=rows)

        monkeypatch.setattr(cli, "verify_prefix", huge_index)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "verify", "Z", "--levels", "2", "--format", fmt)
        assert (code, err) == (0, "")
        assert "1" + "0" * 5000 in out
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_literal_past_the_digit_limit_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "depth", "C(" + "9" * 5000 + ")")
        assert (code, out) == (1, "")
        assert err.startswith("residua: parse error: unreadable integer literal at offset 2")


def test_deep_tower_builds_few_elements(capsys, monkeypatch):
    # stage tests, coset representatives, the coset checks and the sift all
    # run on values, so an Element is built only at the public edge: the
    # probes, the identity and certificate witnesses.  When the checks and
    # the sift built one Element per inverse, placement and mapped
    # representative these runs made 4,924 and 8,086 of them, and 159,488
    # at the first when each nested stage test projected into a new Element
    for argv in (["verify", "tower(Dinf,4)", "--levels", "8"],
                 ["verify", "tower(Dinf,3)", "--levels", "16"]):
        assert count_builds(capsys, monkeypatch, groups.Element, argv) <= 1_000, argv


def count_builds(capsys, monkeypatch, cls, argv):
    """How many ``cls`` objects one successful ``main(argv)`` builds."""
    built = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return len(built)


def run_module(*argv, timeout=None, preexec_fn=None):
    src = str(Path(residua.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "residua.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=timeout,
        preexec_fn=preexec_fn,
    )


class TestUsageErrors:
    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("verify", "--kappa", "foo", id="--kappa-foo"),
        pytest.param("verify", "--word-len", "0", id="--word-len-0"),
        pytest.param("verify", "--levels", "0", id="verify---levels-0"),
        pytest.param("tree", "--levels", "-1", id="tree---levels--1"),
        pytest.param("verify", "--limit-budget", "-1", id="--limit-budget--1"),
        pytest.param("oracle core", "--max-index", "-1", id="--max-index--1"),
        pytest.param("verify", "--probes", "-1", id="--probes--1"),
        pytest.param("tree", "--block", "-1", id="--block--1"),
    ])
    def test_bad_value_is_a_usage_error(self, command, flag, value):
        result = run_module(*command.split(), "Z", flag, value)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines()[-1].startswith(
            f"residua {command}: error: argument {flag}")

    def test_exit_2_is_shared_by_a_usage_error_and_a_fail(self):
        # 2 stays the status of both: the exit codes are a stable contract,
        # so a usage error keeps argparse's 2 rather than taking a new code;
        # stderr tells them apart
        usage = run_module("verify", "Z", "--word-len", "0")
        fail = run_module("verify", "C(5)", "--kappa", "5")
        assert usage.returncode == fail.returncode == 2
        assert "residua verify: error:" in usage.stderr
        assert "residua verify: error:" not in fail.stderr
        assert usage.stdout == "" and fail.stdout.startswith("verdict: fail\n")

    def test_unwritable_out_is_one_line(self, tmp_path):
        target = tmp_path / "missing" / "x"
        result = run_module("verify", "Z", "--out", str(target))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"residua: cannot write '{target}': No such file or directory\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ("verify", "Z"),
        ("tree", "wreath(C(2),Z)", "--levels", "14", "--format", "dot"),
    ], ids=["verify", "tree-dot"])
    def test_closed_stdout_is_one_line(self, argv, unbuffered):
        # stdout is a pipe whose read end closed before the run, as in
        # `residua verify Z | (exit 0)`: exit 2, as for an unwritable --out.
        # Buffered, as by default, a short write fails only when flushed,
        # and what stays buffered must not fail again at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(residua.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            result = subprocess.run(
                [sys.executable, "-m", "residua.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == "residua: cannot write '<stdout>': Broken pipe\n"

    def test_closed_stdout_in_process(self, capsys, monkeypatch):
        # the buffered rest goes to devnull, so closing stdout later succeeds
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(write_end, "w")))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main(["verify", "Z"]) == 2
        finally:
            stdout.close()
        assert capsys.readouterr().err == "residua: cannot write '<stdout>': Broken pipe\n"

    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RESIDUA_SEED", "7x")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "Z"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "residua: error: RESIDUA_SEED is not an integer: '7x'"
        # an explicit --seed wins and never reads the variable
        assert run(capsys, "verify", "Z", "--seed", "3")[0] == 0

    @pytest.mark.parametrize("value, message", [
        pytest.param("foo", "not a cardinal bound: 'foo'", id="foo"),
        # an integer below 1 is a cardinal bound out of range, not unreadable text
        pytest.param("-3", "finite cardinal bound must be >= 1, got -3", id="-3"),
        pytest.param("0", "finite cardinal bound must be >= 1, got 0", id="0"),
    ])
    def test_bad_kappa_names_a_cardinal_bound(self, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "Z", "--kappa", value])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"residua verify: error: argument --kappa: {message}"

    def test_one_parser_serves_every_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "Z", "--word-len", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("residua verify: error: argument --word-len")
        code, out, _ = run(capsys, "verify", "Z")
        assert code == 0 and out.startswith("verdict: pass\n")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == cli._build_parser.__wrapped__().format_help()
        assert cli._build_parser() is cli._build_parser()


class TestFlagCaps:
    @pytest.mark.parametrize("command, name", [
        ("verify", "probes"), ("verify", "levels"), ("verify", "word_len"),
        ("verify", "limit_budget"), ("tree", "levels"),
    ])
    def test_over_the_cap_exits_6_with_one_line(self, capsys, command, name):
        # these values gave runs that did not end within 20 s, or took gigabytes
        flag, cap = "--" + name.replace("_", "-"), cli.FLAG_CAPS[name]
        code, out, err = run(capsys, command, "Z", flag, str(cap + 1))
        assert (code, out) == (6, "")
        assert err == f"residua: {flag} {cap + 1} is over its cap of {cap}\n"

    def test_the_caps_admit_their_own_values(self, capsys):
        code, out, _ = run(capsys, "verify", "Z", "--levels", "1000", "--word-len", "64",
                           "--limit-budget", "1000", "--probes", "2")
        assert code == 0 and out.startswith("verdict: pass\n")


_COMMANDS = [("depth",), ("tree",),
             ("verify", "--levels", "1", "--probes", "2", "--limit-budget", "1")]
_NESTED = "prod(C(2), " * (MAX_NESTING - 1) + "Z" + ")" * (MAX_NESTING - 1)


class TestDeepInputs:
    @pytest.mark.parametrize("command", _COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("expr", [f"tower(Dinf,{MAX_TOWER_HEIGHT})", _NESTED],
                             ids=["tallest-tower", "deepest-nesting"])
    def test_at_the_bound_exits_documented(self, capsys, command, expr):
        code, _, err = run(capsys, command[0], expr, *command[1:])
        assert code in range(7)
        assert len(err.splitlines()) <= 1

    @pytest.mark.parametrize("command", _COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("expr, message", [
        (f"tower(Dinf,{MAX_TOWER_HEIGHT + 1})", "tower height must be <="),
        ("prod(" + _NESTED + ")", "constructors nest at most"),
        ("S(100000)", "degree must be <="),
        (f"perm({MAX_DEGREE + 1}; (0 1))", "degree must be <="),
    ], ids=["tower-too-tall", "nesting-too-deep", "degree-too-high", "perm-degree-too-high"])
    def test_past_the_bound_is_a_parse_error(self, capsys, command, expr, message):
        code, out, err = run(capsys, command[0], expr, *command[1:])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and message in err

    def test_highest_degree_reaches_the_closure_cap(self, capsys):
        # S(MAX_DEGREE) still parses; its closure stops at the cap, in seconds
        code, out, err = run(capsys, "depth", f"S({MAX_DEGREE})")
        assert (code, out) == (4, "")
        assert err == "residua: closure exceeded cap 200000\n"


class TestDeepRows:
    def test_height_three_tower_to_level_five(self):
        # row w*2 + 5 has 2^15 representatives; its factors are certified
        # one by one, so the whole run takes well under a second
        result = run_module("verify", "tower(Dinf,3)", "--levels", "5", timeout=10)
        assert result.returncode == 0
        assert result.stdout.startswith("verdict: pass\n")

    def test_ten_deep_power_over_n(self):
        # the probe alphabet stays within groups.ALPHABET_CAP letters at any depth
        result = run_module("verify", "power(" * 10 + "Dinf" + ",N)" * 10, timeout=10)
        assert result.returncode == 0
        assert result.stdout.startswith("verdict: pass\n")


def _limit_address_space():
    """Cap the address space at 1.5 GB, in the child process only."""
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


class TestGroupsTooBigToList:
    @pytest.mark.parametrize("argv", [
        ("depth", "C(1000000000000)"),
        ("verify", "C(1000000000000)"),
        ("tree", "C(1000000000000)"),
        ("depth", "prod(C(1000000007),C(1000000009))"),
        ("depth", "wreath(C(1000000000000),Z)"),
    ], ids=" ".join)
    def test_exits_4_with_one_line(self, argv):
        # listing these groups' elements died with a MemoryError traceback
        # and exit 1, the parse error's code; the order is now checked
        # against elements.ENUMERATION_CAP before any element is listed
        result = run_module(*argv, timeout=5, preexec_fn=_limit_address_space)
        assert (result.returncode, result.stdout) == (4, "")
        assert len(result.stderr.splitlines()) == 1
        assert "elements, more than the 5000000 a group may list" in result.stderr


# Argv drawn for the fuzz test below.  Sizes stay small (nesting <= 2,
# --probes <= 8, --levels <= 3, --limit-budget <= 4) so that every run is
# quick, or go past a flag's cap, which exits 6 before any work; the bounded
# defaults come first and a drawn flag overrides them.
_SMALL = ["1", "Z", "Dinf", "C(2)", "C(3)", "Deligne"]
_LEAVES = _SMALL + ["S(3)", "A(4)", "perm(3; (0 1 2))"]
_MALFORMED = [
    "", "C(0)", "S(-1)", "C(2", "C 5", "N", "9", "C(" + "9" * 5000 + ")", "C(\u00b2)",
    "perm(2; (0 2))", "perm(2; (0 -1))", "wreath(C(2))", "prod()", "power(Z,0)",
    "tower(Z,0)", "Z extra", "((", "w*2", "C(2)) ",
    f"S({MAX_DEGREE + 1})", "A(1000000000000)", "perm(100000; (0 1))",
]


def _wrap(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        pair.map(lambda ab: f"wreath({ab[0]}, {ab[1]})"),
        pair.map(lambda ab: f"prod({ab[0]}, {ab[1]})"),
        st.tuples(inner, st.sampled_from(["N", "1", "2", "3", "0", "x"])).map(
            lambda a: f"power({a[0]}, {a[1]})"),
        st.tuples(inner, st.sampled_from(["1", "2", "0", "-1"])).map(
            lambda a: f"tower({a[0]}, {a[1]})"),
    )


_EXPRESSIONS = st.one_of(
    st.sampled_from(_LEAVES + _MALFORMED),
    _wrap(st.sampled_from(_LEAVES)),
    # two levels over the small leaves only: wreaths of two finite wreaths take minutes
    _wrap(st.one_of(st.sampled_from(_SMALL + _MALFORMED), _wrap(st.sampled_from(_SMALL)))),
)
_BIG = "9" * 5000
_FLAG_VALUES = {
    "--seed": ["0", "7", "-3", "x", _BIG],
    "--format": ["text", "json", "dot", "xml"],
    "--out": ["{tmp}/out.txt", "{tmp}/missing/out.txt", "{tmp}"],
    "--levels": ["0", "1", "3", "-1", "x", "1001"],
    "--probes": ["0", "1", "8", "-1", "x", "100001"],
    "--kappa": ["aleph0", "1", "2", "5", "0", "-3", "foo", _BIG],
    "--chain": ["auto", "p-adic:2", ""],
    "--word-len": ["0", "1", "3", "x", "65"],
    "--limit-budget": ["0", "1", "4", "-1", "x", "1001"],
    "--block": ["0", "1", "-1", "5", "x"],
    "--max-index": ["0", "1", "2", "x", _BIG],
}
_COMMANDS = {
    "depth": [],
    "verify": ["--levels", "2", "--probes", "8", "--limit-budget", "4"],
    "tree": ["--levels", "2"],
    "oracle lattice": [], "oracle core": [], "oracle min-kappa": [], "oracle depth": [],
}
_FLAGS = st.lists(
    st.sampled_from(sorted(_FLAG_VALUES)).flatmap(
        lambda flag: st.sampled_from(_FLAG_VALUES[flag]).map(lambda value: [flag, value])),
    max_size=3,
)


class TestArgvFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 9).map(lambda k: k == 9), st.sampled_from(sorted(_COMMANDS)),
           _EXPRESSIONS, _FLAGS)
    def test_only_documented_exits(self, version, command, expr, flags):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["--version"] if version else []
            argv += [*command.split(), expr, *_COMMANDS[command]]
            argv += [word.replace("{tmp}", tmp) for pair in flags for word in pair]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code == (0 if version else 2)
                else:
                    assert not version and code in range(7)
