"""The test configuration in pyproject.toml, and the Python syntax floor it declares."""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_fails_and_the_run_goes_on(tmp_path):
    """A failing @given test exits 1 with its falsifying example, and later tests still run.

    Hypothesis imports libcst to write the failing example's patch, and
    that import's DeprecationWarning must not turn into an internal error.
    """
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_property.py::test_fails" in proc.stdout
    assert "PASSED test_property.py::test_passes" in proc.stdout
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


SYNTAX_FLOOR = (3, 10)  # pyproject.toml's requires-python


def test_every_module_parses_at_the_syntax_floor():
    """Every module of a test run parses with the grammar of the oldest supported Python.

    That is src/, the suites in pyproject's testpaths (tests/ and
    perfbench/), tools/ and the root conftest.py. A best-effort guard:
    ast.parse's feature_version rejects most newer syntax (except*, for
    one), but not every newer construct, and it checks nothing of the
    standard library or the dependencies a module uses.
    """
    modules = [ROOT / "conftest.py"]
    for tree in ("src", "tests", "perfbench", "tools"):
        found = sorted((ROOT / tree).rglob("*.py"))
        assert found, tree
        modules += found
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=SYNTAX_FLOOR)


def test_requires_python_is_the_syntax_floor():
    """pyproject's requires-python names SYNTAX_FLOOR (read by regex: tomllib is 3.11+)."""
    text = (ROOT / "pyproject.toml").read_text()
    found = re.findall(r'^requires-python\s*=\s*"([^"]*)"', text, re.MULTILINE)
    assert found == [">=" + ".".join(map(str, SYNTAX_FLOOR))]


def test_syntax_floor_rejects_exception_groups():
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=SYNTAX_FLOOR)


CODE_LINES_SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment


# a comment alone
def f(a,
      b):
    """Function docstring."""
    text = """not a
docstring"""
    return (a +
            b)
'''


def test_code_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    """Every line of a multi-line statement or string counts; docstrings and comments do not."""
    path = tmp_path / "snippet.py"
    path.write_text(CODE_LINES_SNIPPET)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"7 {path}", "7 total"]


def _digest_names():
    names = []
    for inst in ("cov9", "cov40", "hard16", "gmsc12"):
        names += [f"solve-{inst}-{algo}.json" for algo in ("random", "greedy", "ng", "bag")]
        names.append(f"solve-{inst}-bag.jsonl")
        if inst == "cov9":
            names.append("solve-cov9-brute.json")
    return names + ["gmsc-bench.stdout", "gmsc-bench.csv", "lp_x.csv", "lp_y.csv",
                    "experiment-results.csv", "experiment-summary.csv"]


def test_output_digest_is_repeatable_and_names_every_output():
    """Two runs print the same "sha256 name" lines, one per expected output.

    Each run writes into its own temporary directory, so equal hashes also
    show that no temporary path reaches a hashed output.
    """
    runs = [subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")],
                           capture_output=True, text=True) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    first, second = (proc.stdout.splitlines() for proc in runs)
    assert first == second
    assert all(re.fullmatch(r"[0-9a-f]{64} \S+", line) for line in first)
    assert [line.split(" ", 1)[1] for line in first] == _digest_names()
