"""Tests of the package surface: exported names and the README's library example."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["algebra", "simplicial", "codegen", "analysis", "cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"r2subfield.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import_of_the_package():
    namespace = {}
    exec("from r2subfield import *", namespace)
    assert {"code_report", "subset", "run_sweep", "Subset"} <= set(namespace)


def test_readme_library_example_prints_its_comments():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    expected = re.findall(r"#\s*(.+?)\s*$", block, re.M)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert expected == ["48 6 24", "True"]
    assert result.stdout.splitlines() == expected
