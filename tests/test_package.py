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
        "pathlib",
    }
