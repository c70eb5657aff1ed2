"""The benchmark still runs on the library: short gradcheck-toy runs.

``bench/run.py`` calls hsimvt's public functions (and patches some of them
when tracing), so a library change that breaks what it calls shows up here
rather than only when the benchmark is next run. The traced run covers
the functions the tracer patches.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_result(*extra):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gradcheck-toy", "--seed", "1",
         "--seconds", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout
    assert result["failed"] == 0, run.stdout
    return result


@pytest.mark.slow
def test_gradcheck_toy_bench_run_is_correct_with_no_failed_operation():
    _bench_result()


@pytest.mark.slow
def test_traced_gradcheck_toy_bench_run_is_correct_with_no_failed_operation():
    # the tracer patches hsimvt functions by module attribute (bench/spans.py),
    # so a renamed or dropped function fails here
    _bench_result("--trace", "1")
