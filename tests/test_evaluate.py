"""Label-blindness by construction: evaluate.py holds the code that reads
target labels, and only the CLI and the package root import it, so
scoring, selection and adaptation cannot reach the labels. The same AST
walk checks that one module writes every CSV file."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zooadapt"
LABEL_SIDE = {"read_labels", "accuracy", "spearman"}


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _imports_evaluate(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "zooadapt.evaluate" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("evaluate", "zooadapt.evaluate"):
                return True
            if module in ("", "zooadapt") and any(
                    a.name == "evaluate" for a in node.names):
                return True
    return False


def test_only_cli_and_package_root_import_evaluate():
    modules = _modules()
    assert "evaluate.py" in modules
    importers = {name for name, tree in modules.items()
                 if _imports_evaluate(tree)}
    assert importers <= {"cli.py", "__init__.py"}
    assert "cli.py" in importers


def test_label_side_functions_are_defined_only_in_evaluate():
    defined = {}
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name in LABEL_SIDE:
                defined.setdefault(node.name, []).append(name)
    assert defined == {fn: ["evaluate.py"] for fn in LABEL_SIDE}


def _imports_csv(tree: ast.Module) -> bool:
    return any(isinstance(node, ast.Import)
               and any(a.name.split(".")[0] == "csv" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.level == 0
               and (node.module or "").split(".")[0] == "csv"
               for node in ast.walk(tree))


def test_only_tensorio_imports_csv():
    """Every CSV file is written by tensorio.write_csv, so its dialect,
    float form and rejected-score sentinel are decided in one module."""
    importers = {name for name, tree in _modules().items()
                 if _imports_csv(tree)}
    assert importers == {"tensorio.py"}
