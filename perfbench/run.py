"""Benchmark of the qbrauer CLI: fixed job lists, each job a fresh process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is taken from ``src/`` beside this directory.

A workload is a list of CLI jobs.  One round gives the workload a fresh
cache directory and runs its job list twice in it: a cold pass, then a warm
pass.  Rounds repeat until ``--seconds`` have passed (at least three
rounds).  Before each round a fresh interpreter imports ``qbrauer.cli`` and
exits; the median of those is the set-up time.  Every job's exit code and
report are checked against the closed-form answer and against the report
of the seed program, frozen in ``expected/``.

Workloads (rank 4, so that enough rounds fit in one run; at rank 5 one pass
of these job lists takes 6-30 s per job):

* ``scan``: ``scan --n 4 --seed SEED``.  Deficiency-one Gram matrices and
  their determinants over F_p and Q(q); coefficients, the rewriting engine,
  cells, linear algebra and the semisimplicity layer.  No cache.
* ``jm``: the Jucys-Murphy triangularity certificates of C(1, [2]) and
  C(2, []) and the branching filtration of C(1, [2]).  Left multiplication
  through sigma, transition inverses, JM matrices.  No determinants, no
  cache.
* ``relations``: ``verify-relations --n 4``.  The cold pass builds and
  writes the generator-action table; the warm pass reads it.  The only
  workload that uses the disk cache; cells and linear algebra are idle.

``jm`` and ``relations`` are deterministic and ignore the seed; ``scan``
passes it to ``scan --seed``, whose verdict must not depend on it.

With ``--trace 0`` the metrics are end to end: ``wall_s`` (median round,
cold plus warm pass), ``cold_s`` and ``warm_s`` (median pass),
``setup_s``, ``peak_rss_mb`` (highest peak RSS of one job process, from
``os.wait4``) and ``pass_frac`` (jobs passed over jobs attempted).  With
``--trace 1`` untraced and traced rounds alternate; traced jobs run
``traced_cli.py`` and the per-layer metrics are medians over traced rounds.
The last line of stdout is the result object; the line before it records
the environment and per-job figures.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, List, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")

sys.path.insert(0, HERE)
from tracer import summarize  # noqa: E402
from layers import COEFF_OPS  # noqa: E402

JOB_TIMEOUT_S = 60.0
# a run must end within 180 s whatever --seconds says
HARD_LIMIT_S = 165.0
MIN_ROUNDS = 3
MIN_SETUP_SAMPLES = 7

# Closed form for n = 4 on the default range -6..4 (the bad set is
# {i : 4-2n <= i <= n-2} minus the odd i with 4-2n < i <= 3-n); written out
# so the check does not rely on the program under test.
SCAN_N4_VANISHING = [-4, -2, 0, 1, 2]
RANK_N4 = 105  # (2n-1)!! normal words


class Job(NamedTuple):
    name: str
    args: Callable[[int], List[str]]
    check: Callable[[dict, int], bool]
    seeded: bool = False


def _scan_ok(report, seed):
    return (
        report["vanishing_exponents"] == SCAN_N4_VANISHING
        and report["config"]["seed"] == seed
        and report["ok"] is True
    )


def _jm_ok(report, seed):
    return report["triangular_ok"] is True


def _branching_ok(report, seed):
    return report["report"]["ok"] is True


def _relations_ok(report, seed):
    return (
        report["rank"] == RANK_N4
        and report["failures"] == []
        and report["ok"] is True
    )


def _fixed(*args):
    return lambda seed: list(args)


WORKLOADS = {
    "scan": [
        Job(
            "scan-n4",
            lambda seed: ["scan", "--n", "4", "--seed", str(seed)],
            _scan_ok,
            seeded=True,
        )
    ],
    "jm": [
        Job("jm-spectrum-n4-f1-2", _fixed("jm-spectrum", "--n", "4", "--f", "1", "--lambda", "[2]"), _jm_ok),
        Job("jm-spectrum-n4-f2", _fixed("jm-spectrum", "--n", "4", "--f", "2", "--lambda", "[]"), _jm_ok),
        Job("branching-n4-f1-2", _fixed("branching", "--n", "4", "--f", "1", "--lambda", "[2]"), _branching_ok),
    ],
    "relations": [
        Job("verify-relations-n4", _fixed("verify-relations", "--n", "4"), _relations_ok)
    ],
}


class Outcome(NamedTuple):
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    timed_out: bool


def run_process(argv, env, stdout_path, timeout_s):
    """Run argv to completion; its own wall time, CPU time and peak RSS.

    The child is waited for with WNOWAIT first, so the kill timer can never
    hit a reaped (and possibly reused) pid; os.wait4 then reaps it and gives
    the child's own rusage rather than a maximum over all children."""
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    t0 = time.perf_counter()
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)

    def kill():
        with lock:
            if not state["done"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(max(timeout_s, 0.0), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["done"] = True
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        proc.returncode,
        state["killed"],
    )


def _tail(path, limit=2000):
    try:
        with open(path, "rb") as fh:
            return fh.read()[-limit:].decode(errors="replace")
    except OSError:
        return ""


def expected_report(job, seed):
    with open(os.path.join(EXPECTED, job.name + ".json")) as fh:
        text = fh.read()
    if job.seeded:
        report = json.loads(text)
        report["config"]["seed"] = seed
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return text


def check_job(job, seed, outcome, out_path):
    """None if the job passed, else the reason it failed."""
    if outcome.timed_out:
        return "timed out"
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}: {_tail(out_path + '.err')}"
    with open(out_path) as fh:
        text = fh.read()
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    try:
        if not job.check(report, seed):
            return "report fails its closed-form check"
    except (KeyError, TypeError):
        return "report lacks a checked field"
    if text != expected_report(job, seed):
        return "report differs from the frozen seed report"
    return None


class Bench:
    def __init__(self, workload, seed, tmp, hard_deadline):
        self.jobs = WORKLOADS[workload]
        self.seed = seed
        self.tmp = tmp
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failures = []
        self.per_job = {}
        self.peak_rss_kb = 0
        self._serial = 0

    def _path(self, stem):
        self._serial += 1
        return os.path.join(self.tmp, f"{self._serial:05d}-{stem}")

    def _timeout(self):
        return min(JOB_TIMEOUT_S, self.hard_deadline - time.perf_counter())

    def _env(self, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["PYTHONHASHSEED"] = "0"
        env["QBRAUER_CACHE_DIR"] = cache_dir
        return env

    def setup_sample(self):
        argv = [sys.executable, "-c", "import qbrauer.cli"]
        out = self._path("setup")
        res = run_process(argv, self._env(self.tmp), out, self._timeout())
        if res.exit_code != 0:
            raise RuntimeError(f"importing qbrauer.cli failed: {_tail(out + '.err')}")
        return res.wall_s

    def round(self, traced):
        """One cold and one warm pass of the job list in a fresh cache
        directory.  Returns pass walls, table bytes and, when traced, the
        summaries of each job's spans."""
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        env = self._env(cache)
        walls = {}
        traces = []
        for phase in ("cold", "warm"):
            walls[phase] = 0.0
            for job in self.jobs:
                args = job.args(self.seed)
                out = self._path(job.name)
                if traced:
                    spans = out + ".spans"
                    argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans, *args]
                else:
                    argv = [sys.executable, "-m", "qbrauer.cli", *args]
                res = run_process(argv, env, out, self._timeout())
                walls[phase] += res.wall_s
                self.attempted += 1
                reason = check_job(job, self.seed, res, out)
                if reason is not None:
                    self.failures.append({"job": job.name, "phase": phase, "reason": reason})
                self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
                key = f"{job.name}/{phase}/{'traced' if traced else 'plain'}"
                self.per_job.setdefault(key, []).append((res.wall_s, res.cpu_s))
                if traced and reason is None:
                    with open(spans) as fh:
                        dump = json.load(fh)
                    traces.append((summarize(dump["spans"]), dump["counts"]))
        table_bytes = sum(
            os.path.getsize(os.path.join(cache, name)) for name in os.listdir(cache)
        )
        shutil.rmtree(cache)
        if len(traces) < 2 * len(self.jobs):
            traces = []  # a job failed: the round's sums would not be comparable
        return walls, table_bytes, traces


def layer_metrics(traces, table_bytes):
    """Per-layer figures of one traced round (sums over its jobs)."""
    self_s = {}
    calls = {}
    incl = {}
    counts = {}
    for summary, job_counts in traces:
        for k, v in summary["layer_self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in summary["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in summary["inclusive_s"].items():
            incl[k] = incl.get(k, 0.0) + v
        for k, v in job_counts.items():
            counts[k] = counts.get(k, 0) + v

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    ops = sum(n(name) for name in COEFF_OPS)
    coeff_self = self_s.get("coefficients", 0.0)
    reduce_calls = n("algebra.Engine.reduce")
    return {
        "coefficients.self_s": (coeff_self, "s"),
        "coefficients.ops": (ops, "count"),
        "coefficients.us_per_op": (coeff_self / ops * 1e6 if ops else 0.0, "us"),
        "coefficients.specialize_calls": (n("coefficients.specialize"), "count"),
        "algebra.self_s": (self_s.get("algebra", 0.0), "s"),
        "algebra.reduce_calls": (reduce_calls, "count"),
        "algebra.reduce_hit_ratio": (
            counts.get("reduce_repeats", 0) / reduce_calls if reduce_calls else 0.0,
            "ratio",
        ),
        "algebra.right_mul_gen_calls": (n("algebra.Engine.right_mul_gen"), "count"),
        "algebra.mul_calls": (n("algebra.Engine.mul"), "count"),
        "algebra.table_build_s": (t("algebra.MulTable.build"), "s"),
        "algebra.table_save_s": (t("algebra.MulTable.save"), "s"),
        "algebra.table_load_s": (
            t("algebra.MulTable.load_or_build")
            - t("algebra.MulTable.build")
            - t("algebra.MulTable.save"),
            "s",
        ),
        "algebra.table_bytes": (table_bytes, "B"),
        "cells.self_s": (self_s.get("cells", 0.0), "s"),
        "cells.vector_calls": (n("cells.CellModule.vector"), "count"),
        "cells.gram_s": (t("cells.CellModule.gram"), "s"),
        "cells.jm_matrix_s": (t("cells.CellModule.jm_matrix"), "s"),
        "cells.transition_inv_s": (t("cells.CellModule.transition_inv"), "s"),
        "cells.filtration_s": (t("cells.CellModule.filtration_check"), "s"),
        "linalg.self_s": (self_s.get("linalg", 0.0), "s"),
        "linalg.det_calls": (n("linalg.mat_det"), "count"),
        "linalg.det_s": (t("linalg.mat_det"), "s"),
        "linalg.inverse_s": (t("linalg.mat_inverse"), "s"),
        "linalg.mat_mul_s": (t("linalg.mat_mul"), "s"),
        "semisimple.fp_dets": (counts.get("fp_dets", 0), "count"),
        "semisimple.symbolic_dets": (counts.get("symbolic_dets", 0), "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
    }


def calibration_s():
    """Time of a fixed pure-Python loop, to show host speed beside the figures."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def git_rev():
    """HEAD of the checkout, read from .git without leaving it; None when the
    checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(bench, seconds, trace):
    """Rounds until `seconds` have passed; with trace, untraced and traced
    rounds alternate.  Returns (metrics, round counts)."""
    start = time.perf_counter()
    setup = []
    plain = []  # (pass walls, table bytes, job traces) per round
    traced = []
    while True:
        now = time.perf_counter()
        enough = len(plain) >= MIN_ROUNDS and (not trace or len(traced) >= MIN_ROUNDS)
        if (enough and now - start >= seconds) or now >= bench.hard_deadline:
            break
        if not trace:
            setup.append(bench.setup_sample())
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(bench.round(use_trace))
    while not trace and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(bench.setup_sample())

    def med(values):
        return statistics.median(values) if values else 0.0

    def round_wall(r):
        return r[0]["cold"] + r[0]["warm"]

    if not trace:
        return {
            "wall_s": (med([round_wall(r) for r in plain]), "s"),
            "cold_s": (med([r[0]["cold"] for r in plain]), "s"),
            "warm_s": (med([r[0]["warm"] for r in plain]), "s"),
            "setup_s": (med(setup), "s"),
            "peak_rss_mb": (bench.peak_rss_kb / 1024.0, "MB"),
            "pass_frac": (
                (bench.attempted - len(bench.failures)) / bench.attempted, "ratio"
            ),
        }, {"rounds": len(plain), "setup_samples": len(setup)}
    per_round = [layer_metrics(traces, table_bytes) for _, table_bytes, traces in traced if traces]
    metrics = {
        name: (med([r[name][0] for r in per_round]), unit)
        for name, (_, unit) in layer_metrics([], 0).items()
    }
    metrics["trace.overhead_s"] = (
        med([round_wall(r) for r in traced]) - med([round_wall(r) for r in plain]),
        "s",
    )
    return metrics, {"rounds": len(plain), "traced_rounds": len(traced)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qbrauer", "cli.py")):
        print(f"qbrauer sources not found under {SRC}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    env_before = {
        "loadavg": os.getloadavg(),
        "calibration_s": calibration_s(),
    }
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    try:
        bench = Bench(args.workload, args.seed, tmp, t_start + HARD_LIMIT_S)
        bench.setup_sample()  # untimed: warms the file cache and writes bytecode where allowed
        metrics, counts = measure(bench, args.seconds, args.trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass

    per_job = {
        key: {
            "n": len(v),
            "median_wall_s": statistics.median(w for w, _ in v),
            "median_cpu_s": statistics.median(c for _, c in v),
        }
        for key, v in sorted(bench.per_job.items())
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": any(job.seeded for job in bench.jobs),
        "trace": args.trace,
        "environment": {
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_before": env_before["loadavg"],
            "loadavg_after": os.getloadavg(),
            "calibration_s_before": env_before["calibration_s"],
            "calibration_s_after": calibration_s(),
        },
        **counts,
        "jobs": per_job,
        "failures": bench.failures,
        "elapsed_s": time.perf_counter() - t_start,
    }
    print(json.dumps(detail, sort_keys=True))
    for failure in bench.failures:
        print(f"FAILED {failure['job']} ({failure['phase']}): {failure['reason']}", file=sys.stderr)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
