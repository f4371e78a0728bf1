"""Command-line surface: depth, verify, tree, and oracle subcommands.

Every command is reproducible: the seed, the full configuration, and the
tool version are embedded in emitted certificates, and identical invocations
produce byte-identical output.  Artifacts go to stdout (or --out);
diagnostics go to stderr.

Exit codes are a stable contract:
    0  success (verify: Pass)
    1  expression parse error
    2  verify: Fail; also a usage error (argparse) or an unwritable --out
    3  verify: Inconclusive
    4  unregistered construction / no chain constructor
    5  non-materializable tree level
    6  oracle cap exceeded
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields

from . import __version__
from .catalog import UnregisteredConstructionError, build_group, chain_for, depth_interval
from .chains import ChainError, verify_prefix
from .dsl import DslParseError, GroupExpr, parse_expr, print_expr
from .groups import GroupError
from .oracle import (
    OracleCapError,
    _core,
    _sorted_values,
    all_subgroups,
    depth_exact_finite,
    min_kappa,
)
from .ordinal import ALEPH0, CardinalBound, OrdinalError, format_ordinal
from .trees import NonMaterializableError, coset_tree, emit, truncate

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_FAIL = 2
EXIT_USAGE = 2  # shared with EXIT_FAIL
EXIT_INCONCLUSIVE = 3
EXIT_UNREGISTERED = 4
EXIT_NON_MATERIALIZABLE = 5
EXIT_CAP = 6

# Python 3.11 and later refuse to write ints of over 4,300 digits unless lifted
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    probes: int = 64
    levels: int = 4
    kappa: CardinalBound = ALEPH0
    format: str = "text"
    out: str | None = None
    word_len: int = 8
    limit_budget: int = 64
    block: int = 0
    chain: str = "auto"
    max_index: int = 2

    def to_jsonable(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}
        out["kappa"] = self.kappa.to_jsonable()
        return out


def _env_seed(parser: argparse.ArgumentParser) -> int | None:
    """``RESIDUA_SEED`` as an integer, None when unset; a usage error when malformed."""
    text = os.environ.get("RESIDUA_SEED")
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        parser.error(f"RESIDUA_SEED is not an integer: {text!r}")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _kappa(text: str) -> CardinalBound:
    try:
        return CardinalBound.parse(text)
    except OrdinalError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(text: str, config: RunConfig):
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_depth(expr: GroupExpr, config: RunConfig) -> int:
    interval = depth_interval(expr)
    if config.format == "json":
        payload = {
            "version": __version__,
            "expression": print_expr(expr),
            "config": config.to_jsonable(),
            **interval.to_jsonable(),
        }
        _emit(_json_text(payload), config)
        return EXIT_OK
    lines = [f"[{format_ordinal(interval.lower)}, {format_ordinal(interval.upper)}]"]
    if interval.paper_claimed is not None:
        note = f" ({interval.claim_tag})" if interval.claim_tag else ""
        lines.append(f"paper_claimed: {format_ordinal(interval.paper_claimed)}{note}")
    for flag in interval.flags:
        lines.append(f"flag: {flag}")
    _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def cmd_verify(expr: GroupExpr, config: RunConfig) -> int:
    if config.chain != "auto":
        raise UnregisteredConstructionError(
            f"no chain constructor registered under selector {config.chain!r}"
        )
    chain = chain_for(expr)
    certificate = verify_prefix(
        chain,
        levels=config.levels,
        probes=config.probes,
        seed=config.seed,
        kappa=config.kappa,
        word_len=config.word_len,
        limit_budget=config.limit_budget,
    )
    payload = {
        "version": __version__,
        "expression": print_expr(expr),
        "chain": chain.name,
        "config": config.to_jsonable(),
        **certificate.to_jsonable(),
    }
    if config.format == "json":
        _emit(_json_text(payload), config)
    else:
        lines = [
            f"verdict: {certificate.verdict}",
            f"chain: {chain.name}",
            f"length: {format_ordinal(chain.length)}",
            f"kappa: {certificate.kappa}",
            f"seed: {certificate.seed}",
            f"probes: {certificate.probes_used}",
            "levels:",
        ]
        for row in certificate.levels:
            index = row["index"]
            index_text = "-" if index is None else str(index)
            descent = "ok" if row["descent"] else "VIOLATED"
            lines.append(f"  stage {row['stage']}: index {index_text}, descent {descent}")
        lines.append("separations:")
        for sep in certificate.separations:
            lines.append(f"  {sep['probe']}: {sep['first_excluding_stage']}")
        if certificate.failure is not None:
            lines.append(
                f"failure: {certificate.failure['reason']} at stage "
                f"{certificate.failure['stage']} (witness {certificate.failure['witness']})"
            )
        for flag in certificate.flags:
            lines.append(f"flag: {flag}")
        _emit("\n".join(lines) + "\n", config)
    if certificate.verdict == "fail":
        return EXIT_FAIL
    if certificate.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_tree(expr: GroupExpr, config: RunConfig) -> int:
    chain = chain_for(expr)
    truncation = truncate(coset_tree(chain), config.levels, block=config.block)
    if config.format in ("dot", "json"):
        _emit(emit(truncation, config.format), config)
    else:
        sizes = [truncation.size(k) for k in range(truncation.depth + 1)]
        lines = [
            f"tree over {chain.group.tag} (block {config.block})",
            f"levels: {sizes}",
            f"fibres: {list(truncation.fibres)}",
        ]
        _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def cmd_oracle(subcommand: str, expr: GroupExpr, config: RunConfig) -> int:
    group = build_group(expr)
    if subcommand == "lattice":
        payload = all_subgroups(group).to_jsonable()
    elif subcommand == "core":
        lattice = all_subgroups(group)
        core = _core(lattice, config.max_index)
        payload = {
            "group": group.tag,
            "max_index": config.max_index,
            "core_order": len(core),
            "core": [group.value_to_jsonable(v) for v in _sorted_values(group, core)],
            "is_trivial": core == lattice.trivial,
        }
    elif subcommand == "min-kappa":
        payload = {"group": group.tag, "min_kappa": min_kappa(group)}
    elif subcommand == "depth":
        payload = {
            "group": group.tag,
            "depth": format_ordinal(depth_exact_finite(group)),
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown oracle subcommand {subcommand!r}")
    payload = {"version": __version__, "expression": print_expr(expr), **payload}
    if config.format == "json":
        _emit(_json_text(payload), config)
    else:
        if subcommand == "min-kappa":
            _emit(f"{payload['min_kappa']}\n", config)
        elif subcommand == "depth":
            _emit(f"{payload['depth']}\n", config)
        else:
            _emit(_json_text(payload), config)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="residua",
        description="ordinal-indexed residual chains: depth intervals, chain "
        "certificates, coset trees, and finite-group ground truth",
    )
    parser.add_argument("--version", action="version", version=f"residua {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]):
        p.add_argument("expr", help="group expression, e.g. 'wreath(C(2), Z)'")
        p.add_argument("--seed", type=int, help="probe RNG seed")
        p.add_argument("--format", choices=formats)
        p.add_argument("--out", help="write the artifact to a file")

    p_depth = sub.add_parser("depth", help="depth interval for an expression")
    common(p_depth, ("text", "json"))

    p_verify = sub.add_parser("verify", help="verify the registered chain, emit a certificate")
    common(p_verify, ("text", "json"))
    p_verify.add_argument("--levels", type=_int_at_least(1),
                          help="steps checked past each limit stage")
    p_verify.add_argument("--probes", type=int)
    p_verify.add_argument("--kappa", type=_kappa,
                          help="index bound: an integer or 'aleph0'")
    p_verify.add_argument("--chain", help="chain selector (auto)")
    p_verify.add_argument("--word-len", type=_int_at_least(1), dest="word_len")
    p_verify.add_argument("--limit-budget", type=_int_at_least(0), dest="limit_budget")

    p_tree = sub.add_parser("tree", help="materialize and emit a coset tree truncation")
    common(p_tree, ("text", "dot", "json"))
    p_tree.add_argument("--levels", type=_int_at_least(0))
    p_tree.add_argument("--block", type=int)

    p_oracle = sub.add_parser("oracle", help="brute-force finite-group ground truth")
    p_oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    for name in ("lattice", "core", "min-kappa", "depth"):
        p = p_oracle_sub.add_parser(name)
        common(p, ("text", "json"))
        if name == "core":
            p.add_argument("--max-index", type=_int_at_least(1), dest="max_index")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    if "seed" not in given and (env_seed := _env_seed(parser)) is not None:
        given["seed"] = env_seed
    config = RunConfig(**given)
    limit = _digit_limit()
    try:
        expr = parse_expr(args.expr)
        _set_digit_limit(0)  # a huge certified index is written, not refused
        if args.command == "depth":
            return cmd_depth(expr, config)
        if args.command == "verify":
            return cmd_verify(expr, config)
        if args.command == "tree":
            return cmd_tree(expr, config)
        return cmd_oracle(args.oracle_command, expr, config)
    except DslParseError as exc:
        print(f"residua: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnregisteredConstructionError as exc:
        print(f"residua: {exc}", file=sys.stderr)
        return EXIT_UNREGISTERED
    except NonMaterializableError as exc:
        print(f"residua: {exc}", file=sys.stderr)
        return EXIT_NON_MATERIALIZABLE
    except OracleCapError as exc:
        print(f"residua: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ChainError as exc:
        print(f"residua: no usable chain: {exc}", file=sys.stderr)
        return EXIT_UNREGISTERED
    except GroupError as exc:
        print(f"residua: {exc}", file=sys.stderr)
        return EXIT_UNREGISTERED
    except OSError as exc:
        if config.out is None:
            raise
        print(f"residua: cannot write '{config.out}': {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        _set_digit_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
