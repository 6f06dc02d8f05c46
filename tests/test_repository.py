"""The repository tracks no file that its ``.gitignore`` excludes, the
package starts no threads or processes and reads no environment variable,
the command line and the scores leave the choice of game to tables, only
``states`` reads which form a POVM is held in, and only the pinned modules
build Kronecker products."""

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


# the game names; which game a strategy plays is decided by optimize.GAMES and
# states.Strategy.require, never by a comparison in these modules
GAME_NAMES = {"ghz", "counterexample", "partial_bell", "partial-bell"}
TABLE_READERS = ("cli.py", "scenario.py")


def game_comparisons(tree):
    """Line numbers of every comparison with a game name as an operand or as
    an item of a tuple, list or set operand."""
    def names(operand):
        items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
        return [c for c in items if isinstance(c, ast.Constant) and c.value in GAME_NAMES]

    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(names(operand) for operand in [node.left, *node.comparators])]


def test_command_line_and_scores_read_the_game_tables():
    package = Path(ghz_selftest.__file__).parent
    found = {name: game_comparisons(ast.parse((package / name).read_text(encoding="utf-8")))
             for name in TABLE_READERS}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the walk sees each form
    probe = ast.parse("s.task == 'ghz'\nif 'partial-bell' != m: pass\n"
                      "x = t in ('counterexample', 'partial_bell')\ny = t == GAMES['ghz']\n"
                      "z = len(s) != 2**n\n")
    assert game_comparisons(probe) == [1, 2, 3]


def basis_reads(tree):
    """Line numbers of every read of an attribute named ``basis``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "basis"]


def test_only_states_reads_a_povms_basis():
    # which form a POVM is held in, dense or basis, is decided in states.Povm
    found = {path.name: basis_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(Path(ghz_selftest.__file__).parent.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"states.py"}
    # the walk sees each form, and not the names that merely contain the word
    probe = ast.parse("p.basis\nq = s.povm.basis[0]\nghz_basis(n)\nbasis = 1\nx = p.ghz_basis\n")
    assert basis_reads(probe) == [1, 2]


# the modules that build Kronecker products through linalg.tensor; the see-saw
# and validation contract slot by slot (linalg.contract_slot) instead
TENSOR_IMPORTERS = {"__init__.py", "fixtures.py", "robustness.py", "scenario.py", "selftest.py"}


def tensor_uses(tree):
    """Line numbers of every import of ``linalg.tensor`` and every read of it
    as ``linalg.tensor``."""
    return [node.lineno for node in ast.walk(tree)
            if any(name.split(".")[-2:] == ["linalg", "tensor"] for name in imported_names(node))
            or (isinstance(node, ast.Attribute) and node.attr == "tensor"
                and isinstance(node.value, ast.Name) and node.value.id == "linalg")]


def test_only_the_pinned_modules_import_tensor():
    found = {path.name: tensor_uses(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(Path(ghz_selftest.__file__).parent.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == TENSOR_IMPORTERS
    # the walk sees each form, and not other names called tensor
    probe = ast.parse("from .linalg import tensor\nfrom ghz_selftest.linalg import (I2,\n"
                      "    tensor as kron)\nx = linalg.tensor(f)\nfrom .backends import kron_chain\n"
                      "tensor = 1\ny = np.tensor\nfrom .linalg import tensor_s\n")
    assert tensor_uses(probe) == [1, 2, 4]
