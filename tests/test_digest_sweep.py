"""``tools/digest_sweep.py`` digests the tree it lives in, or refuses to run,
and with ``--outcomes`` lists the eval episodes that missed their goals."""

import importlib.util
import json
import os
import re
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


def load_sweep():
    spec = importlib.util.spec_from_file_location("digest_sweep", ROOT / "tools" / "digest_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcomes_lists_every_episode_that_missed_its_goal(monkeypatch):
    # a 30-step budget leaves some of round 0's episodes short of their goals
    monkeypatch.setenv("AMR_EXECUTOR_MAX_STEPS", "30")
    sweep = load_sweep()
    digests = sweep.round_lines("eval", 0)
    lines = sweep.round_lines("eval", 0, outcomes=True)
    assert lines[:2] == digests
    episodes = [line.split() for line in lines[2:]]
    assert episodes and all(e[0] == "episode" and e[1] == "0" for e in episodes)
    assert {e[3] for e in episodes} <= {"timeout", "collision", "no_path"}
    tasks = [int(e[2]) for e in episodes]
    assert tasks == sorted(set(tasks)) and all(0 <= t < sweep.EVAL_TASKS for t in tasks)
    for e in episodes:
        if e[3] == "timeout":
            assert e[4] == "30"
        assert re.fullmatch(r"-?\d+\.\d\d", e[5])
    # the gen-data round has no episodes to list
    assert len(sweep.round_lines("gen-data", 0, outcomes=True)) == 2


def test_failed_episodes_reads_the_traces_file(tmp_path):
    rows = [
        {"task_index": 0, "outcome": "reached", "steps": 57, "min_clearance": 0.25},
        {"task_index": 1, "outcome": "collision", "steps": 62, "min_clearance": -0.009004},
        {"task_index": 2, "outcome": "timeout", "steps": 600, "min_clearance": 0.0602},
    ]
    (tmp_path / "report.traces.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert load_sweep().failed_episodes(tmp_path, 8378000) == [
        "episode 8378000 1 collision 62 -9.00",
        "episode 8378000 2 timeout 600 60.20",
    ]
