"""Compare two commits on the benchmark in alternating pairs.

    python3 tools/pairs.py --base PARENT [--change HEAD] WORKLOAD:SEEDS ...

``SEEDS`` is a comma list of seeds or ranges, e.g. ``train-ip:33301-33310``
or ``map-pavia:7,9``. Each commit is unpacked with ``git archive`` into a
temporary directory that is removed on exit, so nothing is registered in
``.git``. For each seed, both sides run the unchanged benchmark command
from the change's ``BENCHMARK.json`` (``python3 bench/run.py``) at its
``run_seconds`` (or ``--seconds``), the base first on even pairs and the
change first on odd ones. Every run is kept, a failed, incorrect or
timed-out one with its exit code, and every pair run counts in the
verdicts: a pair that one side failed is won by the other.

Per workload and end-to-end metric the file holds each side's median and
quartiles, the pairs each side won and a verdict, twice:

- *rescaled*: the metric as ``bench/run.py`` reports it, every sample
  rescaled by the in-process host-speed probe;
- *raw*: the median wall seconds of the metric's stage (``stage_seconds``
  in the report, first-pass sample left out where the loop added more),
  with no rescaling.

A verdict over fewer than ``MIN_PAIRS`` pairs reads "few pairs". A metric
whose raw and rescaled verdicts differ is flagged. The file is
written after every pair to ``BENCH_<short change commit>.json`` (or
``--out``), in one fixed schema, under ``MAX_BYTES``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

SCHEMA = "hsimvt-pairs/1"
MAX_BYTES = 100_000
ERROR_CHARS = 400       # stderr tail kept per failed run
POLL_S = 0.2
RUN_TIMEOUT_S = 900
FULL_RUN_EPOCHS = 300   # the paper's run length, for the derived full_run_s
MIN_PAIRS = 10          # fewer pairs than this give no verdict

# End-to-end metric -> the report stage whose raw seconds it rests on.
RAW_STAGE = {"preprocess_s": "preprocess", "train_px_per_s": "train",
             "map_px_per_s": "map", "fd_evals_per_s": "gradcheck"}
DIGESTS = ("history", "representation", "map")

NOTES = {
    "rescaled": "bench/run.py's figures: every timed sample rescaled to a nominal "
                "host speed by its in-process probe, which reads slow while forked "
                "workers fill the CPUs",
    "raw": "median wall seconds of the metric's stage over one run, no rescaling; "
           "lower is better",
    "gain": "change over base, oriented so that above 1 is better",
    "verdict": "better or worse: that side won at least 9 of 10 pairs run (a pair "
               "that one side alone failed is the other side's; ties and pairs "
               "both sides failed count for neither) and the medians differ by "
               "more than the base's quartile spread; never better when the "
               "change failed in more pairs than the base; otherwise same; "
               "few pairs under 10 pairs run",
    "bound": "within: the change's median is no worse than the base's by more than "
             "BENCHMARK.json's bound; unresolved: the base's quartile spread over "
             "its median exceeds the bound and not every change run beats every "
             "base run",
    "full_run_s": "derived, unbounded, raw: preprocess + 300 x the raw train "
                  "stage's seconds per epoch + map; shares are each stage's part",
    "tree_peak_rss_mb": "ru_maxrss from os.wait4 on the benchmark process: the "
                        "largest single process among it and its waited-for "
                        "descendants, not their sum",
}


def git(repo, *args, text=True):
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True,
                          text=text).stdout


def unpack(repo, commit, dest):
    """Extract ``commit``'s tree into ``dest`` with git archive."""
    os.makedirs(dest)
    payload = git(repo, "archive", "--format=tar", commit, text=False)
    with tarfile.open(fileobj=io.BytesIO(payload)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_job(text):
    workload, sep, seeds = text.partition(":")
    if not sep or not workload:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    try:
        return workload, parse_seeds(seeds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seeds in {text!r}: {exc}") from None


# --------------------------------------------------------------- one run

def run_bench(command, checkout, workload, seed, seconds, timeout, scratch):
    """One benchmark run in ``checkout``; returns its run record.

    The run gets its own session, so that on a timeout (or an interrupt of
    this process) its whole process group is killed and reaped here.
    """
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    out_path, err_path = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    started = time.monotonic()
    timed_out, status, usage = False, None, None
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        proc = subprocess.Popen(argv, cwd=checkout, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            while status is None:
                pid, status_, usage_ = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    status, usage = status_, usage_
                elif time.monotonic() - started > timeout:
                    timed_out = True
                    break
                else:
                    time.sleep(POLL_S)
        finally:
            if status is None:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        lines = out.read().strip().splitlines()
        err.seek(0)
        stderr = err.read()
    record = {"workload": workload, "seed": seed, "exit_code": proc.returncode,
              "timed_out": timed_out, "wall_s": round(time.monotonic() - started, 3),
              "tree_peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "correct": False,
              "attempted": None, "failed": None, "metrics": None, "raw_s": None,
              "slowness": None, "digests": None, "error": None}
    try:
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        record.update(
            correct=result["correct"] is True, attempted=result["attempted"],
            failed=result["failed"],
            metrics={k: v["value"] for k, v in result["metrics"].items()},
            raw_s=raw_stage_seconds(report), slowness=median(report["slowness"]),
            digests={k: report["digests"].get(k) for k in DIGESTS})
        epochs = train_epochs(report)
        if epochs:
            record["raw_s"]["epoch"] = record["raw_s"]["train"] / epochs
        if not record["correct"]:
            record["error"] = json.dumps([report["error"], report["failed_checks"]])[
                :ERROR_CHARS]
    except (IndexError, ValueError, KeyError, TypeError, AttributeError) as exc:
        if proc.returncode == 0:
            record["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
    if proc.returncode != 0 or timed_out:
        record["error"] = ("timed out; " if timed_out else "") + stderr[-ERROR_CHARS:]
    return record


def raw_stage_seconds(report):
    """Median unscaled seconds per stage, without a loop stage's first-pass sample."""
    return {stage: median(times[1:] or times)
            for stage, times in report["stage_seconds"].items()}


def train_epochs(report):
    """Epochs per train stage: ``train_px_per_s`` has one sample per epoch
    after the first, and only the later train stages' samples once the
    loop has repeated the stage."""
    runs = len(report["stage_seconds"].get("train", ()))
    samples = len(report["samples"].get("train_px_per_s", ()))
    return samples // max(1, runs - 1) + 1 if runs else None


def full_run(raw):
    """Raw seconds of a full run's stages, from one run's raw stage seconds;
    None unless the run timed all three."""
    if not raw or not all(raw.get(k) for k in ("preprocess", "epoch", "map")):
        return None
    return {"preprocess": raw["preprocess"], "train": FULL_RUN_EPOCHS * raw["epoch"],
            "map": raw["map"]}


# --------------------------------------------------------------- statistics

def median(values):
    return float(statistics.median(values)) if values else None


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(base, change, higher_is_better):
    """Each side's median and quartiles, the pairs won, and the verdict of a
    paired comparison: ``base[i]`` and ``change[i]`` ran as one pair, and a
    side that failed or gave no number reads None.

    Every pair run counts: one whose change side alone failed is lost, one
    whose base side alone failed is won, one where both failed is a tie,
    and a change that fails in more pairs than the base is never better.
    Fewer than ``MIN_PAIRS`` pairs give no verdict: "few pairs"."""
    sign = 1 if higher_is_better else -1
    won = lost = 0
    for b, c in zip(base, change):
        if c is None:
            lost += b is not None
        elif b is None or sign * (c - b) > 0:
            won += 1
        elif sign * (c - b) < 0:
            lost += 1
    pairs = len(base)
    more_failed = sum(c is None for c in change) > sum(b is None for b in base)
    base, change = numbers(base), numbers(change)
    mb, mc = median(base), median(change)
    q1, q3 = quartiles(base)
    apart = mb is not None and mc is not None and abs(mc - mb) > q3 - q1
    if pairs < MIN_PAIRS:
        call = "few pairs"
    elif won >= 0.9 * pairs and apart and sign * (mc - mb) > 0 and not more_failed:
        call = "better"
    elif lost >= 0.9 * pairs and (apart and sign * (mc - mb) < 0
                                  or mc is None and mb is not None):
        call = "worse"
    else:
        call = "same"
    cq1, cq3 = quartiles(change)
    gain = (mc / mb if higher_is_better else mb / mc) if mb and mc else None
    return {"pairs": pairs, "won": won, "lost": lost,
            "base": {"median": mb, "q1": q1, "q3": q3},
            "change": {"median": mc, "q1": cq1, "q3": cq3},
            "gain": gain, "verdict": call}


def numbers(values):
    return [v for v in values if v is not None]


def measured(rows):
    """Whether any side of any (seed, base, change) row gave a number."""
    return any(b is not None or c is not None for _, b, c in rows)


def bound_check(stats, base, change, bound, higher_is_better):
    """within, beyond or unresolved: the change against the benchmark's bound,
    on the runs that gave a number."""
    mb, mc = stats["base"]["median"], stats["change"]["median"]
    if mb is None or mc is None:
        return "unresolved"
    if not mb:
        return "within" if mc == mb else "unresolved"
    sign = 1 if higher_is_better else -1
    if sign * (mb - mc) / abs(mb) > bound:
        return "beyond"
    spread = (stats["base"]["q3"] - stats["base"]["q1"]) / abs(mb)
    base, change = numbers(base), numbers(change)
    all_better = (min(change) > max(base) if higher_is_better
                  else max(change) < min(base))
    return "unresolved" if spread > bound and not all_better else "within"


def paired(runs, workload, value):
    """(seed, base value, change value) for each pair run, a side's value
    None where that side failed, read incorrect or gave no number."""
    sides = {}
    for run in runs:
        if run["workload"] == workload:
            sides.setdefault(run["seed"], {})[run["side"]] = run
    out = []
    for seed, pair in sides.items():
        if len(pair) == 2:
            b, c = (value(run) if run["correct"] and run["exit_code"] == 0 else None
                    for run in (pair["base"], pair["change"]))
            out.append((seed, b, c))
    return out


def summarize(runs, bench):
    """Per workload: each end-to-end metric rescaled and raw, the derived
    full run, failed runs, and the seeds whose outputs differ."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        section = {
            "failed_runs": {side: sum(1 for r in mine if r["side"] == side and not (
                r["correct"] and r["exit_code"] == 0)) for side in ("base", "change")},
            "outputs_differ": [seed for seed, b, c in paired(
                runs, workload, lambda r: [r["digests"], r["metrics"].get("test_oa")])
                if None not in (b, c) and b != c],
            "metrics": {},
        }
        for spec in bench["end_to_end"]:
            name, higher = spec["name"], spec["better"] == "higher"
            rows = paired(runs, workload, lambda r: r["metrics"].get(name))
            if not measured(rows):
                continue
            _, base, change = zip(*rows)
            entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "rescaled": compare(base, change, higher), "raw": None,
                     "disagree": False}
            entry["bound_check"] = bound_check(entry["rescaled"], base, change,
                                               spec["bound"], higher)
            stage = RAW_STAGE.get(name)
            raw_rows = paired(runs, workload, lambda r: r["raw_s"].get(stage)) if stage else []
            if measured(raw_rows):
                _, rb, rc = zip(*raw_rows)
                entry["raw"] = dict(compare(rb, rc, False), stage=stage)
                entry["disagree"] = entry["raw"]["verdict"] != entry["rescaled"]["verdict"]
            section["metrics"][name] = entry
        full = paired(runs, workload, lambda r: full_run(r["raw_s"]))
        if measured(full):
            _, base, change = zip(*full)
            section["full_run_s"] = compare(
                *([sum(p.values()) if p else None for p in parts] for parts in (base, change)),
                False)
            section["shares"] = {
                side: {k: median([p[k] / sum(p.values()) for p in parts]) for k in parts[0]}
                if parts else None
                for side, parts in (("base", numbers(base)), ("change", numbers(change)))}
        rss = paired(runs, workload, lambda r: r["tree_peak_rss_mb"])
        if measured(rss):
            _, base, change = zip(*rss)
            section["tree_peak_rss_mb"] = compare(base, change, False)
        summary[workload] = section
    return summary


# --------------------------------------------------------------- output

def write_doc(path, doc):
    """Write ``doc`` atomically; refuse a file of MAX_BYTES or more."""
    payload = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if len(payload.encode()) >= MAX_BYTES:
        raise SystemExit(f"pairs: {path} would take {len(payload)} bytes, "
                         f"not under {MAX_BYTES}")
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(payload)
    os.replace(tmp, path)


def fmt(value):
    if value is None:
        return "-"
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.3g}"


def table(summary):
    """Markdown rows: each metric rescaled, with its bound check, beside its
    raw stage seconds."""
    lines = ["| workload | failed runs: base | change | metric | base | change | won "
             "| gain | verdict | bound | raw stage s: base | change | won | gain | verdict "
             "| flag |",
             "|" + " --- |" * 17]
    for workload, section in summary.items():
        failed = section["failed_runs"]
        for name, entry in section["metrics"].items():
            cells = [workload, str(failed["base"]), str(failed["change"]), name,
                     *stats_cells(entry["rescaled"]), entry["bound_check"],
                     *stats_cells(entry["raw"]),
                     "raw/rescaled disagree" if entry["disagree"] else ""]
            lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def stats_cells(part):
    """A comparison's five table cells: medians, pairs won, gain, verdict."""
    if part is None:
        return ["-"] * 5
    return [fmt(part["base"]["median"]), fmt(part["change"]["median"]),
            f"{part['won']}/{part['pairs']}",
            f"{part['gain']:.2f}x" if part["gain"] else "-", part["verdict"]]


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jobs", nargs="+", type=parse_job, metavar="WORKLOAD:SEEDS")
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", default="HEAD", help="the commit measured against it")
    parser.add_argument("--seconds", type=float,
                        help="each run's --seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out", help="the output file (default: BENCH_<short change>.json "
                                      "at the repository's root)")
    args = parser.parse_args(argv)

    repo = git(".", "rev-parse", "--show-toplevel").strip()
    sides = {side: git(repo, "rev-parse", "--verify", f"{commit}^{{commit}}").strip()
             for side, commit in (("base", args.base), ("change", args.change))}
    short = git(repo, "rev-parse", "--short", sides["change"]).strip()
    out = args.out or os.path.join(repo, f"BENCH_{short}.json")
    bench = json.loads(git(repo, "show", f"{sides['change']}:BENCHMARK.json"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    same_bench = all(
        git(repo, "rev-parse", f"{sides['base']}:{p}") == git(repo, "rev-parse",
                                                              f"{sides['change']}:{p}")
        for p in bench["paths"])
    doc = {"schema": SCHEMA, "base": sides["base"], "change": sides["change"],
           "command": bench["command"], "seconds": seconds, "same_bench": same_bench,
           "jobs": {w: seeds for w, seeds in args.jobs}, "environment": environment(),
           "notes": NOTES, "runs": [], "summary": {}}
    if not same_bench:
        print(f"pairs: {bench['paths']} differ between the two commits", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts = {side: os.path.join(tmp, side) for side in sides}
        for side, commit in sides.items():
            unpack(repo, commit, checkouts[side])
        for workload, seeds in args.jobs:
            for i, seed in enumerate(seeds):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    run = run_bench(bench["command"], checkouts[side], workload, seed,
                                    seconds, RUN_TIMEOUT_S, tmp)
                    doc["runs"].append(dict(run, side=side, pair=i))
                    print(f"pairs: {workload} seed {seed} {side}: exit {run['exit_code']}"
                          f"{' correct' if run['correct'] else ' NOT correct'}"
                          f" in {run['wall_s']:.0f} s", file=sys.stderr)
                doc["summary"] = summarize(doc["runs"], bench)
                write_doc(out, doc)
    print(table(doc["summary"]))
    print(f"pairs: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
