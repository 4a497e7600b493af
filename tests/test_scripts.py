"""Smoke tests: both scripts run in-process at tiny sizes."""

import ast
import runpy
import sys
from pathlib import Path

import pytest

import resindex
from resindex import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
BASES = ("2", "3", "5", "8", "-2", "-3", "-4", "9/25", "1/2")


def run_script(monkeypatch, name: str, *argv: str) -> int:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_report_matrix_matches_cli(monkeypatch, capsys):
    assert run_script(monkeypatch, "report_matrix.py", "--x", "2000", "--t-max", "2") == 0
    script_out = capsys.readouterr().out
    argv = ["report", "--format", "csv", "--x", "2000", "--t", "1", "--t", "2"]
    assert cli.main(argv + [f"--g={g}" for g in BASES]) == 0
    assert script_out == capsys.readouterr().out
    assert len(script_out.splitlines()) == 1 + 9 * 2


def test_verify_lemmas_small(monkeypatch, capsys):
    sizes = ("--max-n", "20", "--max-h", "2", "--max-p", "50")
    assert run_script(monkeypatch, "verify_lemmas.py", *sizes) == 0
    script_out = capsys.readouterr().out
    assert cli.main(["verify", *sizes] + [f"--g={g}" for g in BASES]) == 0
    assert script_out == capsys.readouterr().out
    assert [line.split()[0] for line in script_out.splitlines()] == ["ok"] * 4 + ["convention:"]
    for argv in (
        ("--max-n", "-3", "--max-p", "10"),
        # bases 3, -3 and 9/25 have no counted prime <= 3
        (*sizes[:-2], "--max-p", "3"),
        # over the bound on max-p: refused up front, no traceback
        (*sizes[:-2], "--max-p", "100000000000000000000"),
    ):
        assert run_script(monkeypatch, "verify_lemmas.py", *argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
    # the CLI has no separate depth for the coset-density suite
    assert run_script(monkeypatch, "verify_lemmas.py", *sizes, "--rho-max-n", "30") == 2
    assert capsys.readouterr().out == ""


def test_public_names_resolve():
    for name in resindex.__all__:
        assert getattr(resindex, name) is not None


def _reads(tree: ast.Module) -> set[str]:
    """Every name a module reads: as a name, as an attribute or by a from-import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _defined(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every top-level function, class and assigned name, and of every method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (item.lineno, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                (node.lineno, name.id)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            )
    return out


def test_no_unused_imports():
    # every name an import binds is read in its module; __init__ only re-exports
    paths = sorted(ROOT.glob("src/resindex/*.py")) + sorted(SCRIPTS.glob("*.py")) + sorted(ROOT.glob("tests/*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    # every top-level definition and method in src is read in src, scripts or tests, and every
    # one in a script is read in that script; dunders are exempt
    read = set().union(*map(_reads, trees.values()))
    for path, tree in trees.items():
        if path.parent in (SCRIPTS, ROOT / "src" / "resindex"):
            read_by = _reads(tree) if path.parent == SCRIPTS else read
            unused.extend(
                f"{path.relative_to(ROOT)}:{line}: {name}"
                for line, name in _defined(tree)
                if name not in read_by and not (name.startswith("__") and name.endswith("__"))
            )
    assert unused == []
