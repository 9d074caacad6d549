import json

import numpy as np
import pytest

from amr_navkit.controller import ExecutorConfig
from amr_navkit.errors import SchemaMismatch
from amr_navkit.evaluation import (
    CSV_SCHEMA,
    EpisodeSummary,
    PolicySpec,
    bucket_label,
    evaluate,
    report_export,
    report_from_dict,
    report_to_csv,
    report_to_dict,
    summarize,
)
from amr_navkit.pipeline import sample_task
from amr_navkit.scene import sample_scene


def summary(i=0, outcome="reached", dist=0.01, ang=0.3, d0=1.5, ffr=True, vis=True):
    return EpisodeSummary(
        task_index=i,
        outcome=outcome,
        distance_error=dist,
        angle_error=ang,
        steps=50,
        min_clearance=0.2,
        start_target_dist=d0,
        ffr=ffr,
        initially_visible=vis,
    )


class TestBuckets:
    def test_boundary_assigns_lower(self):
        assert bucket_label(2.0) == "0-2"
        assert bucket_label(2.0000001) == "2-4"
        assert bucket_label(4.0) == "2-4"
        assert bucket_label(6.0) == "4-6"
        assert bucket_label(7.5) == "6+"
        assert bucket_label(0.0) == "0-2"


class TestSummarize:
    def test_single_episode_medians(self):
        rep = summarize([summary(dist=0.042, ang=1.7)])
        assert rep.n_episodes == 1
        assert rep.median_distance_error == pytest.approx(0.042)
        assert rep.median_angle_error == pytest.approx(1.7)
        assert rep.collision_rate == 0.0
        assert rep.success_rate == 1.0

    def test_bucket_counts_sum_to_total(self):
        rng = np.random.default_rng(0)
        rows = [
            summary(
                i,
                dist=float(rng.uniform(0, 0.2)),
                ang=float(rng.uniform(0, 5)),
                d0=float(rng.uniform(0, 9)),
                ffr=bool(rng.uniform() < 0.5),
                vis=bool(rng.uniform() < 0.5),
            )
            for i in range(40)
        ]
        rep = summarize(rows)
        assert sum(b.count for b in rep.buckets.values()) == 40
        assert len(rep.buckets) == 16  # explicit zero-count rows included

    def test_success_only_medians_consistency(self):
        rows = [
            summary(0, outcome="reached", dist=0.01, ang=0.1),
            summary(1, outcome="collision", dist=1.5, ang=90.0),
            summary(2, outcome="reached", dist=0.03, ang=0.5),
        ]
        rep = summarize(rows)
        clean = [r for r in rows if r.outcome != "collision"]
        assert rep.median_distance_error_success_only == pytest.approx(
            float(np.median([r.distance_error for r in clean]))
        )
        assert rep.collision_rate == pytest.approx(1 / 3)
        # failures still contribute to the primary medians
        assert rep.median_distance_error == pytest.approx(0.03)

    def test_success_requires_no_collision(self):
        rows = [summary(0, outcome="collision", dist=0.01, ang=0.1)]
        assert summarize(rows).success_rate == 0.0


class TestEvaluate:
    def test_single_task_report(self):
        scene = sample_scene(50)
        task = sample_task(scene, 1)[0]
        cfg = ExecutorConfig()
        rep, episodes = evaluate([task], {scene.seed: scene}, PolicySpec(), cfg)
        assert rep.n_episodes == 1
        [(summary, result)] = episodes
        assert (summary.task_index, summary.outcome) == (0, result.outcome)
        assert rep.outcomes.get("reached", 0) == 1
        assert rep.median_distance_error <= cfg.stop_pos_tol + 1e-9

    def test_deterministic(self):
        scene = sample_scene(51)
        tasks = [sample_task(scene, s)[0] for s in range(2)]
        cfg = ExecutorConfig()
        r1, _ = evaluate(tasks, {scene.seed: scene}, PolicySpec(), cfg)
        r2, _ = evaluate(tasks, {scene.seed: scene}, PolicySpec(), cfg)
        assert report_to_dict(r1) == report_to_dict(r2)

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], {}, PolicySpec(), ExecutorConfig())

    def test_worker_pool_matches_sequential(self):
        """A scene whose caches ``sample_task`` filled evaluates alike on one
        worker, on two (it is pickled), and as a freshly sampled scene."""
        scene = sample_scene(52)
        tasks = [sample_task(scene, s)[0] for s in range(3)]
        assert scene._views
        cfg = ExecutorConfig()
        runs = [
            evaluate(tasks, {scene.seed: s}, PolicySpec(), cfg, workers=workers)
            for s, workers in ((scene, 1), (scene, 2), (sample_scene(52), 1))
        ]
        reports = [report_to_dict(rep) for rep, _ in runs]
        assert reports[0] == reports[1] == reports[2]
        assert runs[0][1] == runs[1][1] == runs[2][1]


class TestExport:
    def _report(self):
        rows = [summary(i, dist=0.01 * i, ang=0.2 * i, d0=1.0 + i) for i in range(8)]
        return summarize(rows)

    def test_json_roundtrip(self, tmp_path):
        rep = self._report()
        path = tmp_path / "rep.json"
        report_export(rep, "json", str(path))
        back = report_from_dict(json.loads(path.read_text()))
        assert back.n_episodes == rep.n_episodes
        assert back.median_distance_error == pytest.approx(rep.median_distance_error, rel=1e-5)
        assert set(back.buckets) == set(rep.buckets)

    @pytest.mark.parametrize("where", ["top", "bucket"])
    @pytest.mark.parametrize("edit", ["add", "drop"])
    def test_from_dict_checks_field_names(self, where, edit):
        d = report_to_dict(self._report())
        target = d if where == "top" else next(iter(d["buckets"].values()))
        if edit == "add":
            target["bogus"] = 1
        else:
            del target["count" if where == "bucket" else "n_episodes"]
        with pytest.raises(SchemaMismatch):
            report_from_dict(d)

    def test_csv_header_fixed_and_versioned(self, tmp_path):
        rep = self._report()
        text = report_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_SCHEMA
        assert lines[1].startswith("bucket,ffr,visible,count,")
        assert len(lines) == 2 + 16  # schema + header + all bucket rows

    def test_zero_count_rows_explicit(self):
        rep = summarize([summary(0)])
        text = report_to_csv(rep)
        assert text.count("\n") == 2 + 16
        zero_rows = [l for l in text.splitlines()[2:] if ",0," in l]
        assert len(zero_rows) >= 15

    def test_six_significant_digits(self):
        rep = summarize([summary(0, dist=0.0123456789)])
        d = report_to_dict(rep)
        assert d["median_distance_error"] == float("0.0123457")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            report_export(self._report(), "xml", str(tmp_path / "rep.xml"))
