"""Outputs still match ``tools/digests.txt``: the scenes, eval and gen-data
digests of round 0 (master seed 0) and the eval digest of round 1 are
rerun, a few seconds in all. Round 1 is the suite round whose oracle plans
at the true radius behind the free-space certificate.

A change that means to change outputs rewrites the file with
``python3 tools/digest_sweep.py > tools/digests.txt`` and says so. A mismatch
on another Python or numpy build than the file's header names may be a
rounding difference between builds, which is a finding to report.
"""

import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tools" / "digests.txt"

_spec = importlib.util.spec_from_file_location("digest_sweep", ROOT / "tools" / "digest_sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_round_0_matches_the_committed_digests(tmp_path, monkeypatch):
    made_on, *lines = DIGESTS.read_text().splitlines()
    # the default config is the one digested
    for name in [n for n in os.environ if n.startswith("AMR_")]:
        monkeypatch.delenv(name)
    # both workloads' round 0 run on the same scenes, so they are made once
    round_0, round_1 = tmp_path / "0", tmp_path / "1"
    scenes_0, digest = sweep.gen_scenes(round_0, 0)
    scenes_1, _ = sweep.gen_scenes(round_1, 1)
    got = [
        f"scenes 0 {digest}",
        f"eval 0 {sweep.eval_digest(scenes_0, round_0, 0)}",
        f"eval 1 {sweep.eval_digest(scenes_1, round_1, 1)}",
        f"gen-data 0 {sweep.gen_digest(scenes_0, round_0, 0)}",
    ]
    want = list(dict.fromkeys(line for line in lines if line.split()[1] == "0" or line.startswith("eval 1 ")))
    assert len(want) == 4
    assert got == want, f"outputs differ from tools/digests.txt, made on {made_on[2:]}; this is {sweep.build()[2:]}"
