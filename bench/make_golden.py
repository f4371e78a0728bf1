"""Pin the output digest of every op the benchmark can generate.

    python3 bench/make_golden.py

Run it only at a commit whose outputs are accepted as correct: it rewrites
``bench/golden.json``, against which every benchmark run checks every op.
Each op must also pass its reference check.  CLI templates whose output
does not depend on ``--seed`` get one digest, and that independence is
checked on two seeds.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, load_package
from workloads import (
    INFINITE_CLI,
    ORACLE_FINITE,
    SEED_POOL,
    cli_op,
    digest,
    outcome_error,
    tree_inputs,
    tree_op,
)


def _digest_of(op) -> str:
    code, output, diagnostics = op.call()
    error = outcome_error(op, code, output, diagnostics)
    if error is not None:
        raise SystemExit(f"{op.label}: {error}")
    return digest(output)


def main() -> int:
    load_package()
    import residua
    import residua.cli

    golden = {"cli": {}, "tree": {}}
    for template in INFINITE_CLI + ORACLE_FINITE:
        print(template.key, file=sys.stderr, flush=True)
        if template.seeded:
            golden["cli"][template.key] = [
                _digest_of(cli_op(residua.cli, template, s)) for s in range(SEED_POOL)]
            continue
        digests = {_digest_of(cli_op(residua.cli, template, s)) for s in (0, 1)}
        if len(digests) != 1:
            raise SystemExit(f"{template.key}: output depends on --seed")
        golden["cli"][template.key] = digests.pop()
    for name, (group, chains) in tree_inputs(residua).items():
        print(name, file=sys.stderr, flush=True)
        for i, sets in enumerate(chains):
            golden["tree"][f"{name}#{i}"] = _digest_of(tree_op(residua, group, name, i, sets))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
