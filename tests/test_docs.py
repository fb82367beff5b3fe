"""The documentation runs against the library as shipped."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spraylab

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", README_BLOCKS[index]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spraylab import *", namespace)
    assert [name for name in spraylab.__all__ if name not in namespace] == []
