"""The pair runner's summary of synthetic perfbench runs."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(seed, correct=True, failed=0, **metrics):
    return {"seed": seed, "exit": 0, "correct": correct, "failed": failed, "attempted": 100,
            "metrics": metrics}


def pairs(parent, change, **extra):
    return [{"seed": 50 + i, "parent": run(50 + i, campaign_s=p, **extra),
             "change": run(50 + i, campaign_s=c, **extra)} for i, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_counts_wins_in_each_metric_direction():
    data = pairs([5.0, 4.0, 6.0, 5.0], [4.0, 4.5, 5.0, 4.0])
    data[1]["change"]["metrics"]["ratio"] = 0.9
    for p in data:
        p["parent"]["metrics"]["ratio"] = 0.5
        p["change"]["metrics"].setdefault("ratio", 0.4)
    s = bench_pairs.summarize(data, {"campaign_s": "lower", "ratio": "higher"})
    assert s["pairs"] == 4 and s["seeds"] == [50, 51, 52, 53]
    assert s["all_correct"] and s["failed"] == 0 and s["attempted"] == 800
    m = s["metrics"]["campaign_s"]
    assert m["change_wins"] == 3
    assert m["parent"]["median"] == 5.0 and m["change"]["median"] == 4.25
    assert m["change_over_parent_median"] == pytest.approx(0.85)
    assert m["pairs"] == [[5.0, 4.0], [4.0, 4.5], [6.0, 5.0], [5.0, 4.0]]
    assert s["metrics"]["ratio"]["change_wins"] == 1
    assert s["runs"] is data


def test_summary_keeps_failed_runs_and_skips_missing_metrics():
    data = pairs([5.0, 5.0], [4.0, 4.0], peak_rss_mb=50.0)
    data[0]["change"] = run(50, correct=False, failed=3)  # no result line: no metrics
    s = bench_pairs.summarize(data, {})
    assert not s["all_correct"] and s["failed"] == 3
    assert s["metrics"] == {}
    assert bench_pairs.summarize([], {})["metrics"] == {}


_SPREAD = [5.0, 5.1, 5.2, 5.3, 5.4] * 2  # parent IQR 0.2


@pytest.mark.parametrize("parent, change, met", [
    ([5.0] * 10, [4.0] * 9 + [6.0], True),  # 9 of 10 wins, median gain 1.0 above an IQR of 0
    ([5.0] * 10, [4.0] * 8 + [6.0] * 2, False),  # 8 of 10 wins
    (_SPREAD, [x - 0.05 for x in _SPREAD], False),  # 10 of 10 wins, gain 0.05 under the IQR
    (_SPREAD, [x - 0.5 for x in _SPREAD], True),
])
def test_claim_needs_nine_in_ten_wins_and_a_gain_above_the_parent_iqr(parent, change, met):
    s = bench_pairs.summarize(pairs(parent, change), {"campaign_s": "lower"})
    result = bench_pairs.claim_result(s, "campaign_s")
    assert result["met"] is met
    assert result["change_wins"] == f"{sum(c < p for p, c in zip(parent, change))}/10"


def _winning(**change):
    """Ten pairs the change wins on campaign_s by far, its runs updated by change."""
    data = pairs([5.0] * 10, [4.0] * 10)
    for p in data:
        p["change"].update(change)
    return data


@pytest.mark.parametrize("data, reason", [
    (_winning(metrics={}), "campaign_s is missing from a run"),
    (_winning(correct=False), "a run is not correct"),
    (_winning(exit=1), "a run exited non-zero"),
    (_winning(failed=5), "the change failed 0.05 of its operations, the parent 0"),
], ids=["missing_metric", "not_correct", "exit_nonzero", "failed_share"])
def test_claim_is_not_met_on_runs_that_went_wrong(data, reason):
    result = bench_pairs.claim_result(bench_pairs.summarize(data, {"campaign_s": "lower"}), "campaign_s")
    assert result["met"] is False
    assert result["reasons"] == [reason]


def test_claim_met_has_no_reasons_and_a_lower_failed_share_is_no_reason():
    data = pairs([5.0] * 10, [4.0] * 10)
    data[0]["parent"]["failed"] = 2
    s = bench_pairs.summarize(data, {"campaign_s": "lower"})
    assert s["failed_share"] == {"parent": 0.002, "change": 0.0}
    assert bench_pairs.claim_result(s, "campaign_s") | {"median_gain": None} == {
        "metric": "campaign_s", "change_wins": "10/10", "median_gain": None, "parent_iqr": 0.0,
        "met": True, "reasons": []}


def test_main_writes_the_file_when_a_run_has_no_result_line(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0.1, "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "campaign_s", "better": "lower"}]}))
    calls = []

    def fake_run_once(root, workload, seed, seconds):
        calls.append((root, workload, seed))
        if len(calls) == 3:  # the change's run on w1's second seed prints nothing
            return {"seed": seed, "exit": 1, "correct": False, "failed": None, "attempted": None,
                    "metrics": {}}
        return run(seed, campaign_s=5.0 if root == tmp_path else 4.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "out.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path / "c"), "--seeds", "1-2",
            "--claim", "w1:campaign_s", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    doc = json.loads(out.read_text())
    assert len(calls) == 8 and set(doc["workloads"]) == {"w1", "w2"}
    assert doc["workloads"]["w1"]["runs"][1]["change"]["exit"] == 1
    assert doc["claim"]["met"] is False and doc["claim"]["workload"] == "w1"
    assert "campaign_s is missing from a run" in doc["claim"]["reasons"]


def test_claim_of_an_unknown_workload_or_metric_stops_before_any_run(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0.1, "workloads": [{"name": "w1"}],
        "end_to_end": [{"name": "campaign_s", "better": "lower"}]}))
    monkeypatch.setattr(bench_pairs, "run_once", None)  # any run would raise TypeError
    for claim in ("w2:campaign_s", "w1:report_s", "w1"):
        with pytest.raises(SystemExit):
            bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--seeds", "1",
                              "--claim", claim, "--out", str(tmp_path / "out.json")])
    assert not (tmp_path / "out.json").exists()


def test_seed_list():
    assert bench_pairs.seed_list("51-54") == [51, 52, 53, 54]
    assert bench_pairs.seed_list("7") == [7]


def test_each_run_compiles_into_its_own_fresh_cache(tmp_path, monkeypatch):
    # bytecode in one checkout's source tree must not let that side skip compiling
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert cache.is_dir() and not any(cache.iterdir())
        assert "PYTHONDONTWRITEBYTECODE" not in env
        seen.append(cache)
        return subprocess.CompletedProcess(argv, 0, stdout='{"correct": true, "metrics": {}}\n')

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for _ in range(2):
        assert bench_pairs.run_once(checkout, "single_check", 1, 0.1)["correct"]
    assert len(seen) == 2 and seen[0] != seen[1]
    for cache in seen:
        assert not cache.resolve().is_relative_to(checkout.resolve())
        assert not cache.exists()
