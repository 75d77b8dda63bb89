import ast
import os
import subprocess
import sys
from pathlib import Path

import parapose


def test_public_names_resolve():
    for name in parapose.__all__:
        assert getattr(parapose, name) is not None


def test_version_string():
    major, minor, patch = parapose.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_cli_import_leaves_heavy_modules_unloaded():
    # each cold `parapose solve` pays for every module this import loads;
    # -S keeps `site` (which may import typing itself) out of the child
    code = (
        "import sys; before = set(sys.modules); import parapose.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(parapose.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "parapose.cli" in added
    assert not added & {
        "dataclasses", "inspect", "xml.etree.ElementTree", "datetime", "typing",
        "pathlib", "argparse", "gettext", "locale", "cmath", "parapose.polytext",
    }


def test_text_grammar_resolves_from_package_and_multipoly():
    import parapose.multipoly
    import parapose.polytext

    for module in (parapose, parapose.multipoly):
        assert module.parse_poly is parapose.polytext.parse_poly
        assert module.PolyParseError is parapose.polytext.PolyParseError
    from parapose.multipoly import PolyParseError, parse_poly

    assert issubclass(PolyParseError, ValueError)
    assert parse_poly("CA - 1").to_text() == "CA - 1"
    assert not hasattr(parapose.multipoly, "no_such_name")
    assert not hasattr(parapose, "no_such_name")


def _module_trees():
    src = Path(parapose.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _loaded(tree) -> set:
    """Names a module reads, as bare names or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in _module_trees().items():
        kept = _loaded(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in kept:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_top_level_name_is_referenced():
    trees = _module_trees()
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [f"{name}: {d}" for d in defined
                        if d.startswith("_") and not d.startswith("__")
                        and d not in referenced]
    assert orphans == []
