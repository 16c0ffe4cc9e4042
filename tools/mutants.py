"""Mutation pass over named functions of one cosetlab module.

Each mutant changes one site inside the named functions:

- a comparison flips at its boundary or its sense: < and <=, > and >=,
  == and != trade places;
- a + becomes - and a - becomes + (also in += and -=);
- an integer constant 0 becomes 1 and 1 becomes 0.

Every mutant runs the given tests in its own child process, on a fresh
copy of ``src/`` and ``tests/`` with the one file rewritten, under a
timeout of ``TIMEOUT_S`` seconds and an address-space rlimit of
``MEMORY_MB`` megabytes.  A mutant is killed when the tests fail or the
child runs out of time or memory, and survives when they pass.  The
unmutated copy runs first and must pass.

    python tools/mutants.py src/cosetlab/lemmas.py _check_pairs _separation \\
        --tests tests/test_lemmas.py

Run it from the root of a checkout.  It is not a test module, and the
test suite does not collect it.  Survivors are worth a second run with
``--tests tests`` (the whole suite) before they are argued equivalent.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-",
}
TIMEOUT_S = 300
MEMORY_MB = 3072


def sites(tree: ast.Module, functions: set[str]) -> list[tuple[str, int, int]]:
    """(kind, node number in ast.walk order, operand) of every site inside
    the named top-level functions, in source order; the operand is the
    comparison's position among its operators, 0 otherwise."""
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            inside.update(id(n) for n in ast.walk(node))
    found = []
    nodes = list(ast.walk(tree))
    for at, node in enumerate(nodes):
        if id(node) not in inside:
            continue
        if isinstance(node, ast.Compare):
            found += [("compare", at, i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in (ast.Add, ast.Sub):
            found.append(("arith", at, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1):
            found.append(("const", at, 0))
    return sorted(found, key=lambda site: (nodes[site[1]].lineno, nodes[site[1]].col_offset, site))


def mutate(tree: ast.Module, site: tuple[str, int, int]) -> tuple[str, str]:
    """The module's source with one site changed, and a line describing it."""
    kind, at, i = site
    tree = copy.deepcopy(tree)
    node = list(ast.walk(tree))[at]
    if kind == "compare":
        old = type(node.ops[i])
        node.ops[i] = FLIPS[old]()
        change = f"{SYMBOL[old]} -> {SYMBOL[FLIPS[old]]}"
    elif kind == "arith":
        old = type(node.op)
        node.op = ast.Sub() if old is ast.Add else ast.Add()
        change = f"{SYMBOL[old]} -> {SYMBOL[type(node.op)]}"
    else:
        change = f"{node.value} -> {1 - node.value}"
        node.value = 1 - node.value
    return ast.unparse(tree), f"line {node.lineno}:{node.col_offset}: {change}"


def limit_memory() -> None:
    size = MEMORY_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (size, size))


def run_tests(copy_root: Path, tests: list[str]) -> tuple[str, str]:
    """'killed' or 'survived' for one copy, with the first failure's line."""
    env = {**os.environ, "PYTHONPATH": str(copy_root / "src"), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            argv, cwd=copy_root, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S, preexec_fn=limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "killed", "timeout"
    if done.returncode == 0:
        return "survived", ""
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else f"exit {done.returncode}"


def fresh_copy(root: Path, into: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(root / name, into / name, ignore=ignore)
    shutil.copy(root / "pyproject.toml", into / "pyproject.toml")
    return into


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="path of the module to mutate, from the checkout root")
    ap.add_argument("functions", nargs="+", help="top-level functions whose sites are mutated")
    ap.add_argument("--tests", nargs="+", default=["tests"], help="pytest paths each mutant runs")
    ap.add_argument("--only", type=int, nargs="*", help="run only these site numbers")
    args = ap.parse_args()

    root = Path.cwd()
    source = (root / args.module).read_text()
    tree = ast.parse(source)
    found = sites(tree, set(args.functions))
    chosen = args.only if args.only is not None else range(len(found))
    print(f"{len(found)} sites in {', '.join(args.functions)}", flush=True)
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        base = fresh_copy(root, Path(scratch) / "base")
        status, why = run_tests(base, args.tests)
        if status != "survived":
            print(f"the unmutated copy fails its tests: {why}")
            return 2
        survivors = 0
        for number in chosen:
            text, change = mutate(tree, found[number])
            work = fresh_copy(root, Path(scratch) / f"m{number}")
            (work / args.module).write_text(text)
            status, why = run_tests(work, args.tests)
            survivors += status == "survived"
            print(f"#{number} {args.module} {change}: {status} {why}".rstrip(), flush=True)
            shutil.rmtree(work)
    print(f"{survivors} of {len(chosen)} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
