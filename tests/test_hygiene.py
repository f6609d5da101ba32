"""Static checks over the package source, and one start-up check, with the standard library only.

Every import in a module or a test module must be used there, every
module-level private function or class must be referenced somewhere in
the package, every module-level function somewhere in the package
or the benchmark, and every error class but the base in some `raise` of
the package;
otherwise a removal left something dead behind.  A test calling a
function does not keep it: what only tests need lives in `tests/`, as an
oracle.  `__init__.py` is skipped: its imports are the package's public
names, not callers.  Only the command line may read a clock or a random
source, so results are reproducible, and only `graphs.py` may read the
canonical butterfly edge list, so one module decides whether a graph is
BF(r); the modules that compute read that answer, `Graph.butterfly_r`,
and never the family tag.  Only `geodesy.py` reads a distance matrix's
rows and row-XOR encoding, so the symmetry it draws from them stays
behind its functions, and one function there runs the packed
collinearity kernel, so every collinearity answer comes from one scan.
Only `cli.main` finishes a run or writes a product, so the `--out` rule
lives in one place.
The start-up check runs a command in a child interpreter: it must not
import `dataclasses` or `inspect`, whose import alone cost more than
most commands' own work.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import bfgp

SOURCES = sorted(p for p in Path(bfgp.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
ROOT = Path(__file__).resolve().parents[1]
TEST_TREES = {f"tests/{p.name}": ast.parse(p.read_text(), filename=str(p))
              for p in sorted((ROOT / "tests").glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", [*TREES, *TEST_TREES])
def test_every_import_is_used(name):
    tree = TREES.get(name) or TEST_TREES[name]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    unused.append(bound)
    assert not unused, f"{name} imports unused names {unused}"


@pytest.mark.parametrize("name", list(TREES))
def test_every_private_definition_is_referenced(name):
    used = set()
    for tree in TREES.values():
        used |= _used_names(tree)
    private = [node.name for node in TREES[name].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    dead = [p for p in private if p not in used]
    assert not dead, f"{name} defines unreferenced {dead}"


# functions kept with no caller yet, each with the reason
AWAITING_CALLER = {
    # the exact gp-number of a vertex pool: the cap check of the planned
    # fractional-cover certificate (ROADMAP item 1)
    "brute_force_max_gp",
}


@pytest.fixture(scope="module")
def referenced():
    """Names used anywhere in the package or the benchmark, and AWAITING_CALLER."""
    used = set(AWAITING_CALLER)
    for tree in TREES.values():
        used |= _used_names(tree)
    for path in (ROOT / "benchmark").rglob("*.py"):
        used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    return used


@pytest.mark.parametrize("name", list(TREES))
def test_every_function_is_referenced(name, referenced):
    functions = [node.name for node in TREES[name].body if isinstance(node, ast.FunctionDef)]
    dead = [f for f in functions if f not in referenced]
    assert not dead, f"{name} defines functions nothing references: {dead}"


@pytest.mark.parametrize("name", [n for n in TREES if n != "cli.py"])
def test_no_clock_or_randomness_outside_cli(name):
    imported = set()
    for node in ast.walk(TREES[name]):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    banned = imported & {"time", "datetime", "random"}
    assert not banned, f"{name} imports {sorted(banned)}"


def test_every_error_class_is_raised():
    raised = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _used_names(node.exc)
    classes = [node.name for node in TREES["errors.py"].body
               if isinstance(node, ast.ClassDef) and node.name != "BfgpError"]
    unraised = [c for c in classes if c not in raised]
    assert not unraised, f"errors.py defines classes nothing raises: {unraised}"


def test_only_graphs_reads_the_butterfly_edge_list():
    package = Path(bfgp.__file__).resolve().parent
    readers = sorted(p.name for p in package.glob("*.py")
                     if "butterfly_edges" in _used_names(ast.parse(p.read_text())))
    assert readers == ["graphs.py"]


@pytest.mark.parametrize("name", ["geodesy.py", "genpos.py", "cycle_cover.py"])
def test_computing_modules_ignore_the_family_tag(name):
    read = sorted(n for n in _used_names(TREES[name])
                  if n in ("family", "family_param") or n.startswith("FAMILY_"))
    assert not read, f"{name} reads the family tag through {read}"


@pytest.mark.parametrize("name", [n for n in TREES if n != "geodesy.py"])
def test_only_geodesy_reads_the_distance_rows(name):
    read = sorted({node.attr for node in ast.walk(TREES[name]) if isinstance(node, ast.Attribute)
                   and node.attr in ("rows", "shift", "mask", "source")})
    assert not read, f"{name} reads the distance matrix through {read}"


def test_one_scan_runs_the_collinearity_kernel():
    callers = [node.name for node in TREES["geodesy.py"].body if isinstance(node, ast.FunctionDef)
               and "_collinear_fields" in _used_names(node)]
    assert len(callers) == 1, callers


def test_only_main_finishes_a_run_or_writes_a_product():
    calls = sorted((node.name, call.func.attr) for node in ast.walk(TREES["cli.py"])
                   if isinstance(node, ast.FunctionDef)
                   for call in ast.walk(node) if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Attribute)
                   and call.func.attr in ("finish", "write_product"))
    assert calls == [("main", "finish"), ("main", "write_product")], calls


# run in a child interpreter started with -S, so that only bfgp's own imports
# count, not those of the environment's .pth files
STARTUP_CHILD = """
import sys
from bfgp import cli
code = cli.main(["generate", "cycle", "--n", "6", "--quiet"])
print(code, *sorted({"dataclasses", "inspect"} & sys.modules.keys()))
"""


def test_commands_start_without_dataclasses_or_inspect(tmp_path, source_env):
    proc = subprocess.run([sys.executable, "-S", "-c", STARTUP_CHILD],
                          capture_output=True, text=True, cwd=tmp_path, env=source_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0"
