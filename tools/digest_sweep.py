"""Print one sha256 per benchmark suite round, to prove two trees give identical outputs.

Each round is one master seed run through the public CLI at the default
config with ``--workers 1``, sized like the benchmark's suite rounds:

* ``eval``: ``gen-scenes --count 8`` then ``eval --policy oracle --n-tasks 8``;
  the digest covers ``report.json``, ``report.csv`` and
  ``report.traces.jsonl``.
* ``gen-data``: ``gen-scenes --count 8`` then ``gen-data
  --episodes-per-scene 1``; the digest covers the dataset file (its manifest
  holds a timestamp and is left out).

Usage, from the root of the tree to check::

    PYTHONPATH=src python3 tools/digest_sweep.py [--seeds 8001000 8003000 8008000]

runs eval rounds 0-5 and gen-data rounds 0-11, then every ``--seeds`` master
seed of both, and prints ``<workload> <master seed> <sha256>`` per round. Run
it on two trees and ``diff`` the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
import tempfile
from pathlib import Path

from amr_navkit import cli

EVAL_ROUNDS = range(6)
GEN_ROUNDS = range(12)
SCENES = 8
EVAL_TASKS = 8
EPISODES_PER_SCENE = 1


def _cli(master_seed: int, *argv: str) -> None:
    rc = cli.main(["--seed", str(master_seed), "--workers", "1", *argv])
    if rc != 0:
        raise SystemExit(f"amr-navkit {argv[0]} exited with {rc} (master seed {master_seed})")


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def eval_digest(work: Path, master_seed: int) -> str:
    scenes = work / "scenes"
    _cli(master_seed, "gen-scenes", "--count", str(SCENES), "--out", str(scenes))
    report = work / "report"
    _cli(
        master_seed, "eval", "--scenes", str(scenes), "--n-tasks", str(EVAL_TASKS),
        "--policy", "oracle", "--out", str(report),
    )
    return _digest(*(report.with_suffix(s) for s in (".json", ".csv", ".traces.jsonl")))


def gen_digest(work: Path, master_seed: int) -> str:
    scenes = work / "scenes"
    _cli(master_seed, "gen-scenes", "--count", str(SCENES), "--out", str(scenes))
    data = work / "data.jsonl"
    _cli(
        master_seed, "gen-data", "--scenes", str(scenes),
        "--episodes-per-scene", str(EPISODES_PER_SCENE), "--out", str(data),
    )
    return _digest(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[], help="extra master seeds, run on both workloads")
    args = parser.parse_args(argv)
    # the default config is the one being checked: drop any env override of it
    for name in [n for n in os.environ if n.startswith("AMR_")]:
        del os.environ[name]
    logging.disable(logging.WARNING)
    rounds = [("eval", s) for s in [*EVAL_ROUNDS, *args.seeds]]
    rounds += [("gen-data", s) for s in [*GEN_ROUNDS, *args.seeds]]
    run = {"eval": eval_digest, "gen-data": gen_digest}
    for workload, seed in rounds:
        with tempfile.TemporaryDirectory() as tmp:
            print(workload, seed, run[workload](Path(tmp), seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
