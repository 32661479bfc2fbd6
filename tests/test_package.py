"""Tests of the package surface: exported names and the README's library example."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from r2subfield import cli

ROOT = Path(__file__).resolve().parents[1]


def source_env():
    """The environment with ``src`` first on PYTHONPATH, for a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["algebra", "simplicial", "codegen", "analysis", "cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"r2subfield.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# The ring R, the codeword-list route, the generator rows, the full
# 2^(3m) message tables and the unit-pair self-orthogonality check live in
# tests/reference.py only; the row-reading front end of the message-weight
# kernel, the packed constants of the full table, the public chain of the
# two weighing stages (weight_distribution_bruteforce) and the public list
# route of those stages (factor_transforms, summarize_transforms,
# transforms_match_spectra), which weigh replaced, are gone.
MOVED_TO_TESTS = """
    R2_ZERO R2_ONE R2_U R2_USQ E1 E2 E3 BASIS r2_add r2_mul trace to_basis_coords
    from_basis_coords trace_triple r2_dot f2_row_basis build_defining_set
    subfield_defining_set subfield_generator_rows generator_matrix_subfield codeword
    code_words code_words_from_rows exact_minimality
    code_rows _product_rows _column_products _blocks _repunit
    message_weights_from_rows _column_patterns _column_counts _SPREAD _MAX_COLUMNS
    message_weights summarize_message_weights charsum_message_weights _constants
    _self_orthogonal _unit_pairs _unit_messages _unit_message_weights
    weight_distribution_bruteforce factor_transforms summarize_transforms
    transforms_match_spectra
""".split()


def test_reference_route_is_not_in_the_library():
    assert len(set(MOVED_TO_TESTS)) == 46
    modules = [importlib.import_module(name) for name in (
        "r2subfield", "r2subfield.algebra", "r2subfield.simplicial", "r2subfield.codegen",
        "r2subfield.analysis", "r2subfield.cli",
    )]
    leaked = [(mod.__name__, name) for mod in modules for name in MOVED_TO_TESTS
              if hasattr(mod, name)]
    assert leaked == []
    assert importlib.import_module("r2subfield.algebra").__all__ == ["f2_gram_is_zero"]


def test_cli_start_imports_no_process_pool():
    # a sweep runs its tasks in one process whatever --jobs says, so neither
    # starting the CLI nor a sweep imports a process pool
    code = (
        "import sys, r2subfield.cli as cli\n"
        "pool = {'concurrent.futures', 'multiprocessing'}\n"
        "cli.build_parser()\n"
        "print(sorted(pool & set(sys.modules)), file=sys.stderr)\n"
        "rc = cli.main(['verify', '--m', '1', '--jobs', '2'])\n"
        "print(rc, sorted(pool & set(sys.modules)), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=source_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "[]\n0 []\n"
    assert "verdict: PASS" in result.stdout


def test_python_m_runs_the_cli(capsys):
    argv = ["tables", "--family", "5", "--m", "2", "--sL", "0", "--sM", "0", "--sN", "2"]
    module = [sys.executable, "-m", "r2subfield"]
    env = source_env()
    result = subprocess.run([*module, *argv, "--format", "csv"], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert cli.main([*argv, "--format", "csv"]) == 0
    assert result.stdout == capsys.readouterr().out.encode()
    argv[2] = "10"
    result = subprocess.run([*module, *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == "error: family must be 1..9, got 10\n"


def test_star_import_of_the_package():
    namespace = {}
    exec("from r2subfield import *", namespace)
    assert {"code_report", "subset", "run_sweep", "Subset"} <= set(namespace)


def test_readme_library_example_prints_its_comments():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    expected = re.findall(r"#\s*(.+?)\s*$", block, re.M)
    result = subprocess.run(
        [sys.executable, "-c", block], env=source_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert expected == ["48 6 24", "True"]
    assert result.stdout.splitlines() == expected
