"""The repository tracks no file that its ``.gitignore`` excludes, and the
package starts no threads or processes and reads no environment variable."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

import ghz_selftest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
# modules that start threads or processes, and the names that read the environment
FORBIDDEN = ("threading", "concurrent.futures", "multiprocessing",
             *(f"os.{name}" for name in sorted(ENVIRONMENT)))


def imported_names(node):
    """Dotted names an import statement binds or reads from."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def knob_uses(tree):
    """Line numbers of every import of a concurrency module and every read of
    the environment in a module."""
    return [node.lineno for node in ast.walk(tree)
            if any(name == f or name.startswith(f + ".")
                   for name in imported_names(node) for f in FORBIDDEN)
            or (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)]


def test_package_runs_in_one_thread_and_reads_no_environment():
    uses = {path.name: knob_uses(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(Path(ghz_selftest.__file__).parent.glob("*.py"))}
    assert {name: lines for name, lines in uses.items() if lines} == {}
    # the walk sees each form
    probe = ast.parse("import os, threading\nfrom concurrent import futures\n"
                      "import multiprocessing.pool\nfrom os import getenv\n"
                      "x = os.environ.get('A')\n")
    assert knob_uses(probe) == [1, 2, 3, 4, 5]
