"""The README's Python quick start runs as written and prints what its
comments say, its conventions table holds every numeric module constant
with the module's value, and every package name it cites exists."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_blocks_run_and_print_the_stated_order():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    lo, hi = map(float, re.search(r"print\(report\.order\).*?(\d\.\d+)-(\d\.\d+)",
                                  blocks[1]).groups())
    paths = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-W", "error", "-c", "\n".join(blocks)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    order = float(run.stdout.splitlines()[-1])
    assert lo <= order <= hi, (order, lo, hi)


def test_conventions_table_lists_every_numeric_constant_with_its_value():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Numerical conventions", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([^`]+)` \|", section, re.M)
    table = {(module, name): eval(value, {"__builtins__": {}}) for module, name, value in rows}
    for (module, name), value in table.items():
        assert getattr(importlib.import_module(f"wzflow.{module}"), name) == value, name
    constants = set()  # the numeric UPPER_CASE names each module assigns at its top level
    for path in (ROOT / "src" / "wzflow").glob("*.py"):
        module = importlib.import_module(f"wzflow.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            name = getattr(node.targets[0], "id", "") if isinstance(node, ast.Assign) else ""
            if name.isupper() and type(getattr(module, name)) in (int, float):
                constants.add((path.stem, name))
    assert len(rows) == len(table) and set(table) == constants


def test_every_cited_module_name_resolves():
    readme = (ROOT / "README.md").read_text()
    modules = "|".join(path.stem for path in (ROOT / "src" / "wzflow").glob("[a-z]*.py"))
    cited = set(re.findall(rf"`(?:wzflow\.)?((?:{modules})(?:\.\w+)+)`", readme))
    assert cited
    for name in sorted(cited):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"wzflow.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
