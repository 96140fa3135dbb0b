"""The test configuration itself: a failing test is reported as a failure
under the repository's pytest settings and the session runs on; the
package's own sources import no name they never use; and every parameter of
every public function carries an annotation the argument contract can read."""

import ast
import importlib
import inspect
import subprocess
import typing
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # reporting a failing example imports libcst, whose import warns; under
    # filterwarnings = error that warning must not become an INTERNALERROR
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_pair.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout


def test_no_module_imports_a_name_it_never_uses():
    dead = []
    for path in sorted((ROOT / "src" / "wzflow").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        dead += [f"{path.name}:{line} {name}" for name, line in imported.items()
                 if name not in used]
    assert not dead, dead


def test_every_public_parameter_has_an_annotation_that_resolves():
    unread = []
    for m in ("bridge", "density", "fields", "noise", "phase", "snls", "studies", "vlasov"):
        module = importlib.import_module(f"wzflow.{m}")
        for name, fn in vars(module).items():
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__ \
                    or name.startswith("_"):
                continue
            hints = typing.get_type_hints(fn)  # raises for a name that does not resolve
            unread += [f"{m}.{name}({p})" for p in inspect.signature(fn).parameters
                       if p not in hints]
    assert not unread, unread
