"""amr-navkit benchmark: closed-loop oracle eval and demonstration generation.

    python3 perfbench/run.py --workload eval-oracle --seed 1 --seconds 40 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
over a fixed suite of rounds, for at least ``--seconds``, then checks one
round drawn from ``--seed``; gated timings are scaled to a reference machine
speed measured between items. ``--trace 1`` runs a warm-up round, then the
seed's first rounds (see ``measure.TRACE_ROUNDS``) four times: untraced,
traced, traced, untraced; it reports the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the metric names and units come from ``BENCHMARK.json``.
Lines before it are a readable table and the environment; the full result, and
the trace spans, are also written under ``.perfbench/results/``. The exit code
is 0 only when every output check passed. See ``perfbench/NOTES.md`` for why
the benchmark is built this way.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("eval-oracle", "gen-data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        # one fresh process per workload, so peak RSS stays per workload
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for w in WORKLOADS
        ]
        return max(codes)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "amr_navkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/amr_navkit and BENCHMARK.json ({ROOT})", file=sys.stderr)
        return 2
    # the CLI applies AMR_<SECTION>_<FIELD> overrides from the environment;
    # drop them so that every run uses the CLI default config
    cleared = sorted(k for k in os.environ if k.startswith("AMR_"))
    for key in cleared:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import amr_navkit
    import measure

    if Path(amr_navkit.__file__).resolve().parent != SRC / "amr_navkit":
        print(f"error: imported amr_navkit from {amr_navkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = measure.environment(ROOT, args.seed)
    env["cleared_env"] = cleared
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=ROOT / ".perfbench"))
    try:
        try:
            if args.trace:
                metrics, notes, problems = measure.run_traced(
                    args.workload, args.seed, work, results / f"{stem}-spans.jsonl"
                )
            else:
                metrics, notes, problems = measure.run_untraced(
                    args.workload, args.seed, args.seconds, work
                )
        except measure.CheckFailed as err:
            metrics, notes, problems = {}, {"attempted": 1, "failed": 1}, [str(err)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = measure.loadavg()

    if metrics:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            problems.append(f"metrics not measured: {missing}")
        wrong = [m["name"] for m in wanted if m["name"] in metrics and metrics[m["name"]][1] != m["unit"]]
        if wrong:
            problems.append(f"units differ from BENCHMARK.json: {wrong}")
    correct = not problems
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"notes": notes, "problems": problems}, sort_keys=True, default=str))
    (results / f"{stem}.json").write_text(
        json.dumps(
            {"env": env, "notes": notes, "problems": problems, "correct": correct,
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
            sort_keys=True, indent=1, default=str,
        )
        + "\n"
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": notes["attempted"],
                "failed": notes["failed"],
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted
                    if m["name"] in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
