"""Every module of the package stays below 8,192 parser tokens and holds
no assert statement, the package keeps the names it exports, and importing
``residua`` and ``residua.cli`` loads every module, so none is reached only
from tests.

Where bytecode is not cached (``PYTHONDONTWRITEBYTECODE=1``), each run
compiles the package from source, and compiling a module past 8,192 tokens
raises the peak memory of the compile step by about 0.5 MB: ``compile()``
of ``chains.py`` took 3.0 MB at 8,191 tokens and 3.6 MB with 24 more
(``resource.getrusage`` around the call, Python 3.11 on x86-64).  That
lands in the peak RSS of every command.  Tokens are counted as
``tokenize`` yields them, without comments and non-logical newlines.  A
module near the limit sheds code or moves a cohesive piece into a module
of its own.  ``python -O`` strips assert statements, so a module checks
by raising an exception of its own.  No module calls ``json.dumps`` (or
``json.dump``) with ``indent``: Python 3.11 then writes through the
pure-Python encoder, and ``ordinal.json_text`` writes the same text
without it.

``PUBLIC_NAMES`` is the compatibility surface: the names
``residua/__init__.py`` imports.  A refactor may move a name between
modules, but each stays an attribute of ``residua``.  Each module's
``__all__`` lists only names it defines, and the package imports each name
from the module that defines it, so a name has one home.
"""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import residua

TOKEN_LIMIT = 8192
PUBLIC_NAMES = """
    ALEPH0 OMEGA OMEGA_OMEGA ONE ZERO CardinalBound Comparison DepthClass
    Ordinal add classify compare decompose_successor format_ordinal
    left_subtract multiply omega_absorbs parse_ordinal
    CountablePoints Element ExtensionHandle FinitePoints Group GroupError
    PointSet extension_from_quotient finite_support_power make_alternating
    make_cyclic make_infinite_dihedral make_integers make_perm make_symmetric
    wreath_product commutator_subgroup
    ChainCertificate ChainSchema DepthInterval SubgroupDescriptor chain_at
    compress_successor_tail concat_extension core_sandwich
    diagonal_power_chain dihedral_chain finite_chain integers_chain
    limit_membership power_chain promote_to_omega single_step_chain
    tower_chain verify_prefix
    AlphaTreeSchema TreeAutomorphism TreeTruncation act coset_tree emit
    parse_truncation restriction_map stabilizer_chain truncate verify_simple
    SubgroupLattice all_subgroups chain_enumerate core_up_to_index
    depth_exact_finite min_kappa parse_expr print_expr
    build_group chain_for depth_interval register_extension
""".split()
PACKAGE = Path(residua.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parser_tokens(path: Path) -> int:
    with path.open(encoding="utf-8") as f:
        return sum(1 for tok in tokenize.generate_tokens(f.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_below_the_token_limit(path):
    assert parser_tokens(path) < TOKEN_LIMIT


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_writes_no_indented_json_dumps(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
             and any(k.arg == "indent" for k in node.keywords)]
    assert lines == [], f"json.dumps with indent at lines {lines}; use ordinal.json_text"


def test_element_algebra_imports_nothing_from_the_package():
    # the base layer every group family builds on; an import of the package
    # from it would be a cycle
    tree = ast.parse((PACKAGE / "elements.py").read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("residua"))
             or isinstance(node, ast.Import) and any(a.name.startswith("residua") for a in node.names)]
    assert lines == [], f"package imports at lines {lines}"


def package_imports(path: Path) -> set:
    """The package modules that a module imports, anywhere in its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("residua."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("residua."))
    return names


@pytest.mark.parametrize("module,above", [
    ("stages", {"chains", "powers", "trees", "catalog", "cli"}),
    ("chains", {"powers", "catalog", "trees", "cli"}),
    ("powers", {"catalog"}),
], ids=["stages", "chains", "powers"])
def test_chain_layers_import_no_module_above_them(module, above):
    # the row certifier sits below the chains whose records it splits, so it
    # reads a record's shape only through its split; the verifier and the
    # combinators sit below the power and tower chains, which sit below the
    # expression catalog
    assert "chains" in package_imports(PACKAGE / "powers.py")
    assert package_imports(PACKAGE / f"{module}.py") & above == set()


def test_package_exports_its_compatibility_surface():
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 76
    assert [name for name in PUBLIC_NAMES if not hasattr(residua, name)] == []


def test_the_package_and_its_cli_load_every_module():
    # a module that only tests import is test data or dead code; a fresh
    # process, since this one holds whatever the other tests imported
    code = ("import sys, residua, residua.cli; "
            "print(sorted(n[len('residua.'):] for n in sys.modules if n.startswith('residua.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert ast.literal_eval(done.stdout) == [p.stem for p in MODULES if p.stem != "__init__"]


def defined_names(path: Path) -> set:
    """The names a module's top-level statements define (not import)."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_names_are_exported_and_imported_from_their_defining_module():
    defined = {path.stem: defined_names(path) for path in MODULES}
    misplaced = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                misplaced += [f"{path.stem}.__all__: {name}"
                              for name in ast.literal_eval(node.value)
                              if name not in defined[path.stem]]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = node.module or "__init__"
                misplaced += [f"{path.stem} imports {a.name} from {source}" for a in node.names
                              if a.name not in defined[source]
                              and not (node.module is None and a.name in defined)]  # a module
    assert misplaced == []
