"""The benchmark still runs on the library: one short gradcheck-toy run.

``bench/run.py`` calls hsimvt's public functions (and patches some of them
when tracing), so a library change that breaks what it calls shows up here
rather than only when the benchmark is next run.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_gradcheck_toy_bench_run_is_correct_with_no_failed_operation():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gradcheck-toy", "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout
    assert result["failed"] == 0, run.stdout
