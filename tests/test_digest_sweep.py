"""``tools/digest_sweep.py`` digests the tree it lives in, or refuses to run."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_refuses_a_package_from_another_tree(tmp_path):
    # a copy of the script in a tree without src/ can only import amr_navkit
    # from elsewhere (here PYTHONPATH), so it must not digest anything
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "digest_sweep.py", tmp_path / "tools")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "digest_sweep.py")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"not {tmp_path / 'src'}" in done.stderr
