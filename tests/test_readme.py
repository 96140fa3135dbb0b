"""The README's Python quick start runs as written and prints what its
comments say."""

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
