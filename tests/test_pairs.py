"""tools/pairs.py: the pair runner's file, verdicts and cleanup, on a stub
benchmark in a throwaway git repository."""

import glob
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

# A bench/run.py that prints a report line and a result line built from
# SIDE's figures; it exits 1 on the seed in FAIL_SEED.
STUB = """
import argparse, json, sys
SIDE = {side!r}
FAIL_SEED = {fail_seed!r}
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
seed = int(a.seed)
if seed == FAIL_SEED:
    sys.exit("bench: measuring process exited 1")
# The rescaled map rate says the change is 2.5x faster, its raw map stage
# says it is slower; the train rate and its raw stage agree that it is faster.
fast = SIDE == "change"
map_rate = (25000.0 if fast else 10000.0) + seed
train_rate = (2000.0 if fast else 1000.0) + seed
stage = {{"preprocess": [0.5, 0.4, 0.4], "train": [3.0 if fast else 6.0],
          "map": [1.5, 1.0 + 0.01 * seed + (0.2 if fast else 0.0)] * 2,
          "evaluate": [0.3], "gradcheck": [0.2, 0.2]}}
report = {{"stage_seconds": stage, "slowness": [1.0, 1.2, 1.1],
           "samples": {{"train_px_per_s": [train_rate] * 4}},
           "digests": {{"history": "h", "representation": "r", "map": "m"}}}}
metrics = {{"setup_s": 1.0, "peak_rss_mb": 100.0, "train_px_per_s": train_rate,
            "test_oa": 0.8, "preprocess_s": 0.4, "map_px_per_s": map_rate,
            "fd_evals_per_s": 1000.0}}
print(json.dumps(report))
print(json.dumps({{"correct": True, "attempted": 9, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "u"}} for k, v in metrics.items()}}}}))
"""

BENCHMARK = {
    "command": ["python3", "bench/run.py"], "paths": ["bench"], "run_seconds": 30,
    "end_to_end": [
        {"name": n, "unit": "u", "better": b, "bound": 0.24} for n, b in (
            ("setup_s", "lower"), ("peak_rss_mb", "lower"), ("train_px_per_s", "higher"),
            ("test_oa", "higher"), ("preprocess_s", "lower"), ("map_px_per_s", "higher"),
            ("fd_evals_per_s", "higher"))],
}

RUN_KEYS = {"workload", "seed", "side", "pair", "exit_code", "timed_out", "wall_s",
            "tree_peak_rss_mb", "correct", "attempted", "failed", "metrics", "raw_s",
            "slowness", "digests", "error"}
STATS_KEYS = {"pairs", "won", "lost", "base", "change", "gain", "verdict"}


def children() -> set:
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as f:
            pids.update(int(p) for p in f.read().split())
    return pids


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def commit_stub(repo, side, fail_seed=None):
    (repo / "bench").mkdir(exist_ok=True)
    (repo / "bench" / "run.py").write_text(STUB.format(side=side, fail_seed=fail_seed))
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", side)


@pytest.fixture
def stub_repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    commit_stub(repo, "base")
    commit_stub(repo, "change", fail_seed=3)
    return repo


def test_runner_file_keeps_every_run_and_flags_raw_rescaled_disagreement(
        stub_repo, tmp_path, monkeypatch, capsys):
    temp_root = tmp_path / "temp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    monkeypatch.chdir(stub_repo)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--base", "HEAD~1", "--seconds", "1", "--out", str(out),
                       "stub:1-10"]) == 0

    # nothing outlives the call
    assert os.listdir(temp_root) == []
    assert children() == set()
    assert sorted(os.listdir(tmp_path)) == ["BENCH.json", "repo", "temp"]

    assert out.stat().st_size < pairs.MAX_BYTES
    doc = json.loads(out.read_text())
    assert set(doc) == {"schema", "base", "change", "command", "seconds", "same_bench",
                        "jobs", "environment", "notes", "runs", "summary"}
    assert doc["schema"] == pairs.SCHEMA
    assert doc["command"] == ["python3", "bench/run.py"] and doc["seconds"] == 1
    assert doc["same_bench"] is False  # the stub differs between the two commits
    assert doc["jobs"] == {"stub": list(range(1, 11))}

    # alternating order, every run kept; the failed one with its exit code
    runs = doc["runs"]
    assert [(r["seed"], r["side"]) for r in runs] == [
        (seed, side) for seed in range(1, 11)
        for side in (("base", "change") if seed % 2 else ("change", "base"))]
    assert all(set(r) == RUN_KEYS for r in runs)
    failed = runs[5]
    assert (failed["seed"], failed["side"]) == (3, "change")
    assert failed["exit_code"] == 1 and failed["correct"] is False
    assert failed["metrics"] is None and "measuring process exited 1" in failed["error"]
    assert all(r["exit_code"] == 0 and r["correct"] for r in runs if r is not failed)
    assert runs[0]["raw_s"]["map"] == pytest.approx(1.01)  # first-pass sample left out
    assert runs[0]["raw_s"]["epoch"] == pytest.approx(6.0 / 5)

    section = doc["summary"]["stub"]
    assert section["failed_runs"] == {"base": 0, "change": 1}
    assert section["outputs_differ"] == []
    assert set(section) == {"failed_runs", "outputs_differ", "metrics", "full_run_s",
                            "shares", "tree_peak_rss_mb"}
    metrics = section["metrics"]
    assert set(metrics) == {e["name"] for e in BENCHMARK["end_to_end"]}
    for entry in metrics.values():
        assert set(entry) == {"unit", "better", "bound", "rescaled", "raw", "disagree",
                              "bound_check"}
        assert set(entry["rescaled"]) == STATS_KEYS
        assert entry["rescaled"]["pairs"] == 10  # the failed pair counts too
    # The change wins 9 pairs and loses the one it failed, and it failed more
    # pairs than the base: no gain.
    map_ = metrics["map_px_per_s"]
    assert (map_["rescaled"]["won"], map_["rescaled"]["lost"]) == (9, 1)
    assert map_["rescaled"]["verdict"] == "same"
    assert map_["raw"]["verdict"] == "worse" and map_["raw"]["stage"] == "map"
    assert map_["disagree"] is True
    train = metrics["train_px_per_s"]
    assert train["rescaled"]["verdict"] == train["raw"]["verdict"] == "same"
    assert train["disagree"] is False and train["raw"]["gain"] == pytest.approx(2.0)
    assert metrics["test_oa"]["raw"] is None and metrics["test_oa"]["disagree"] is False
    assert metrics["test_oa"]["bound_check"] == "within"

    table = capsys.readouterr().out
    row = next(line for line in table.splitlines() if "| map_px_per_s |" in line)
    # failed runs: base, change; then the rescaled verdict beside its bound check
    assert row.startswith("| stub | 0 | 1 | map_px_per_s |")
    assert "| 9/10 | 2.50x | same | within |" in row
    assert "raw/rescaled disagree" in table


def test_three_pairs_give_no_verdict_and_no_flag(stub_repo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(stub_repo)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--base", "HEAD~1", "--seconds", "1", "--out", str(out),
                       "stub:4-6"]) == 0
    section = json.loads(out.read_text())["summary"]["stub"]
    for entry in section["metrics"].values():
        assert entry["rescaled"]["pairs"] == 3
        assert entry["rescaled"]["verdict"] == "few pairs"
        assert entry["raw"] is None or entry["raw"]["verdict"] == "few pairs"
        assert entry["disagree"] is False
    # the change won all three: a clear gain, but three pairs carry no verdict
    assert section["metrics"]["train_px_per_s"]["rescaled"]["won"] == 3
    assert section["full_run_s"]["verdict"] == "few pairs"
    assert "raw/rescaled disagree" not in capsys.readouterr().out


def alive(pid) -> bool:
    """Whether ``pid`` still runs; a zombie does not."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_an_interrupted_run_leaves_no_process_behind(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    script = tmp_path / "sleepy.py"
    script.write_text("import pathlib, subprocess, sys, time\n"
                      "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
                      f"pathlib.Path({str(pid_file)!r}).write_text(str(p.pid))\n"
                      "time.sleep(60)\n")
    run = pairs.run_bench([sys.executable, str(script)], str(tmp_path), "stub", 1, 1,
                          timeout=1.0, scratch=str(tmp_path))
    assert run["timed_out"] is True and run["exit_code"] == -9 and run["metrics"] is None
    assert children() == set()
    grandchild = int(pid_file.read_text())
    for _ in range(20):  # the killed grandchild is reaped by init, not by us
        if not alive(grandchild):
            break
        time.sleep(0.1)
    assert not alive(grandchild)


def ten(values):
    return [float(v) for v in values]


@pytest.mark.parametrize("base, change, higher, want", [
    # 10 of 10 pairs won, medians 20 apart against a quartile spread of ~4.5
    (ten(range(100, 110)), ten(range(120, 130)), True, "better"),
    # the same numbers where lower is better
    (ten(range(100, 110)), ten(range(120, 130)), False, "worse"),
    # 9 of 10 won, one tie: still better
    (ten(range(100, 110)), ten([100] + list(range(121, 130))), True, "better"),
    # 8 of 10 won: same, however far apart the medians are
    (ten(range(100, 110)), ten([99, 98] + list(range(202, 210))), True, "same"),
    # 10 of 10 won by 1, but the base's quartiles lie 4.5 apart: same
    (ten(range(100, 110)), ten(range(101, 111)), True, "same"),
])
def test_verdict_follows_nine_tenths_and_quartile_spread(base, change, higher, want):
    stats = pairs.compare(base, change, higher)
    assert stats["verdict"] == want
    assert stats["pairs"] == 10
    q1, q3 = stats["base"]["q1"], stats["base"]["q3"]
    assert (q1, q3) == (pytest.approx(102.25), pytest.approx(106.75))


@pytest.mark.parametrize("base, change, want", [
    # 9 of 10 won, but the change failed the tenth pair and the base none
    (ten(range(100, 110)), [None] + ten(range(121, 130)), "same"),
    # the base alone failed a pair, which the change wins: 10 of 10
    ([None] + ten(range(101, 110)), ten(range(120, 130)), "better"),
    # both failed a pair, a tie: 9 of 10 won, no more failures than the base
    ([None] + ten(range(101, 110)), [None] + ten(range(121, 130)), "better"),
    # the change failed every pair
    (ten(range(100, 110)), [None] * 10, "worse"),
])
def test_every_pair_run_counts_and_a_failed_side_loses_it(base, change, want):
    stats = pairs.compare(base, change, True)
    assert stats["pairs"] == 10 and stats["verdict"] == want


def test_bound_check_reads_the_benchmark_bound():
    base = ten(range(100, 110))
    for change, want in ((ten(range(80, 90)), "within"), (ten(range(70, 80)), "beyond")):
        stats = pairs.compare(base, change, True)
        assert pairs.bound_check(stats, base, change, 0.24, True) == want
    wide = ten([50, 60, 70, 80, 90, 110, 120, 130, 140, 150])
    stats = pairs.compare(wide, wide, True)
    assert pairs.bound_check(stats, wide, wide, 0.24, True) == "unresolved"


@pytest.mark.parametrize("text, job", [
    ("train-ip:33301-33303", ("train-ip", [33301, 33302, 33303])),
    ("map-pavia:7,9-10", ("map-pavia", [7, 9, 10])),
])
def test_jobs_name_a_workload_and_its_seeds(text, job):
    assert pairs.parse_job(text) == job
