"""cubicsums benchmark driver.

    python3 perfbench/run.py --workload {sieve,verify,errorterm,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src.  One sequential driver process (this one) starts every benchmark
process in turn and waits for it:

1. set-up: fresh processes doing the workload's one-off preparation
   (interpreter start and `import cubicsums`; for errorterm also sieving
   and writing its N=1e6 table file), at least three and for at least
   two seconds.  `setup_s` is their median wall time.
2. timed runs: fresh processes, one after another, while the next one is
   expected to finish within S seconds (at least one).  `wall_minus_steal_s`
   (wall time less the share of it the hypervisor stole), `cpu_s`
   (user+sys from os.wait4) and `peak_rss_mib` (ru_maxrss) are medians over
   them.  Every output is checked against reference.json.
3. with --trace 1, one more process with every public function wrapped
   (spans.py); it prints the per-layer table and reports per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Temporary files live in perfbench/_work
and are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# DRIVER_RSS_NOTE: on Linux a child's ru_maxrss starts from the spawning
# process's peak RSS (execve keeps the old address space's high-water mark),
# so `peak_rss_mib` is max(driver peak, child peak).  The driver therefore
# imports no numpy and never loads span files; its own peak is printed so
# that a child peak near it stands out.

WORKLOADS = ("sieve", "verify", "errorterm")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
RUN_LIMIT_S = 170.0  # every process of one workload's run ends by then
SEED_STRIDE = 1000  # the k-th process of a run gets seed * SEED_STRIDE + k

# Per-layer metrics reported in the JSON line of a traced run (BENCHMARK.json
# lists the same names).  The full per-function table is printed above it.
LAYER_FUNCS = (
    "fieldspec.splitting_codes", "fieldspec.splitting_type",
    "arith.build_tables", "arith.estimate_rho", "arith.write_tables", "arith.read_tables",
    "arith.convolution_identity_failure", "arith.b_sum_identity_failure",
    "arith.b_from_cubic_character", "arith.tau_table", "arith.tau4_cuberoot_pair_sum",
    "arith.classical_ramanujan",
    "ideals.enumerate_ideals", "ideals.sum_cJ_over_I", "ideals.ramanujan_ideal",
    "sums.S_K_direct", "sums.S_K_reduced", "sums.remainder_values", "sums.compute_cX",
    "sums.meansquare_R", "sums.voronoi_P1_values",
    "exponents.simplify", "exponents.balance", "exponents.numeric_envelope_check",
    "exponents.scenario_block_bound", "exponents.scenario_remainder_xy",
    "exponents.scenario_mean_square_xt",
    "cli.cmd_sieve", "cli.cmd_verify", "cli.cmd_experiment",
)
LAYER_COUNTS = (  # (function, count, unit); "count.computed" is derived from the arguments
    ("fieldspec.splitting_codes", "primes", "count"),
    ("arith.build_tables", "entries", "count"),
    ("arith.build_tables", "table_bytes", "bytes"),
    ("arith.write_tables", "bytes", "bytes"),
    ("arith.read_tables", "bytes", "bytes"),
    ("arith.tau4_cuberoot_pair_sum", "pairs", "count.computed"),
    ("ideals.enumerate_ideals", "ideals", "count"),
    ("ideals.enumerate_ideals", "repeat_frac", "ratio"),
    ("sums.compute_cX", "pairs", "count.computed"),
    ("sums.meansquare_R", "samples", "count"),
    ("sums.voronoi_P1_values", "terms", "count.computed"),
)


# ----------------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_ticks():
    """(busy, steal) clock ticks so far, summed over the machine's CPUs, from
    the `cpu` line of /proc/stat; (0, 0) where it cannot be read.  Busy is
    user + nice + system + irq + softirq.  Steal is time a hypervisor kept a
    runnable virtual CPU off its physical one."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fh.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


def stolen_share(wall, ticks0, ticks1):
    """Seconds of `wall` lost to steal: wall times the machine-wide share of
    steal in busy + steal time between the two cpu_ticks() readings.

    Summed steal alone overstates the loss: an idle virtual CPU accrues
    steal too, and two busy CPUs lose time in parallel."""
    busy, steal = ticks1[0] - ticks0[0], ticks1[1] - ticks0[1]
    return wall * steal / (busy + steal) if steal > 0 else 0.0


class Proc(NamedTuple):
    wall: float  # seconds from start to reap
    steal: float  # seconds of `wall` lost to steal (stolen_share)
    cpu: float  # user+sys of the process (s)
    rss: float  # ru_maxrss (MiB)
    result: object  # the worker's result, None if it failed
    err: str  # its stdout and stderr


def run_process(job, tag, deadline=None):
    """Run worker.py on `job` in a fresh interpreter, killing it at `deadline`
    (a time.perf_counter() value), and return a Proc."""
    job_path = WORK / f"{tag}.job.json"
    job = dict(job, result=str(WORK / f"{tag}.result.json"))
    job_path.write_text(json.dumps(job))
    Path(job["result"]).unlink(missing_ok=True)
    if deadline is None:
        deadline = time.perf_counter() + RUN_LIMIT_S
    err_path = WORK / f"{tag}.stderr"
    with open(err_path, "wb") as err:
        ticks0 = cpu_ticks()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=err, stderr=err)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        steal = stolen_share(wall, ticks0, cpu_ticks())
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0:
        result = json.loads(Path(job["result"]).read_text())
    return Proc(wall, steal, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, result,
                err_path.read_text(errors="replace"))


def table_digest(table, deadline=None):
    return run_process({"digest": table}, "digest", deadline).result


# ----------------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------------

def provenance():
    info = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "src_sha256": _tree_digest(SRC),
    }
    info.update(_git_state())
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _git_state():
    # stop at ROOT: a checkout that is not a repository reports no revision
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode != 0:
            return {"git_rev": None, "git_dirty": None}
        st = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=10)
        return {"git_rev": rev.stdout.strip(), "git_dirty": bool(st.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_rev": None, "git_dirty": None}


def process_checks(workload, job_steps, result, ref, table, deadline):
    """Checks of one benchmark process, plus the table digest for sieve."""
    got = {s["name"]: s for s in (result or {}).get("steps", [])}
    checks = []
    for step in job_steps:
        res = got.get(step["name"]) or workloads.failed_step(step["name"])
        digest = None
        if workload == "sieve" and step["name"] == "sieve" and res["rc"] == 0:
            digest = table_digest(table, deadline)
        checks += workloads.step_checks(workload, res, ref, digest)
    return checks


def checked_process(workload, seed, table, ref, deadline, tag, trace_path=None):
    """One timed process of the workload: (Proc, checks)."""
    job_steps = workloads.steps(workload, seed, table)
    job = {"steps": job_steps, "trace": str(trace_path) if trace_path else None}
    p = run_process(job, tag, deadline)
    if p.result is None:
        print(f"# process {tag} failed:\n{p.err}", file=sys.stderr)
    return p, process_checks(workload, job_steps, p.result, ref, table, deadline)


def run_workload(workload, seed, seconds, trace, ref):
    deadline = time.perf_counter() + RUN_LIMIT_S
    table = str(WORK / "tables.bin")
    checks = []
    setup = []
    while len(setup) < SETUP_MIN_REPEATS or sum(setup) < SETUP_MIN_SECONDS:
        p = run_process({"steps": workloads.setup_steps(workload, table)}, "setup", deadline)
        if p.result is None or any(s["rc"] != 0 or s["error"] for s in p.result["steps"]):
            raise RuntimeError(f"set-up of {workload} failed:\n{p.err}\n{p.result}")
        setup.append(p.wall)
    if workload == "errorterm":
        checks.append(workloads.check_digest("setup.table_sha256", table_digest(table, deadline), ref["table"]))

    procs = []
    t_start = time.perf_counter()
    while not procs or time.perf_counter() - t_start + statistics.median(q.wall for q in procs) <= seconds:
        p, proc_checks = checked_process(workload, seed * SEED_STRIDE + len(procs), table, ref, deadline,
                                         f"run{len(procs)}")
        checks += proc_checks
        procs.append(p)

    out = {
        "setup": setup, "procs": procs, "checks": checks,
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(q.wall for q in procs),
        "steal_s": statistics.median(q.steal for q in procs),
        "wall_minus_steal_s": statistics.median(q.wall - q.steal for q in procs),
        "cpu_s": statistics.median(q.cpu for q in procs),
        "peak_rss_mib": statistics.median(q.rss for q in procs),
    }
    if trace:
        trace_path = WORK / "spans.jsonl"
        p, proc_checks = checked_process(workload, seed * SEED_STRIDE + len(procs), table, ref, deadline,
                                         "traced", trace_path)
        checks += proc_checks
        # spans are summarized in a child process: see DRIVER_RSS_NOTE
        summary = run_process({"aggregate": str(trace_path)}, "aggregate", deadline).result
        summary = summary or {"agg": {}, "non_cli_s": 0.0}
        out["trace"] = {
            "wall_s": p.wall,
            "agg": summary["agg"],
            "overhead_s": (p.wall - p.steal) - out["wall_minus_steal_s"],
            "non_cli_share": summary["non_cli_s"] / p.wall,
        }
    return out


# ----------------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------------

def _m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res):
    failed = sum(not ok for _, ok, _ in res["checks"])
    attempted = len(res["checks"])
    return {
        "wall_minus_steal_s": _m(res["wall_minus_steal_s"], "s"),
        "cpu_s": _m(res["cpu_s"], "s"),
        "peak_rss_mib": _m(res["peak_rss_mib"], "MiB"),
        "setup_s": _m(res["setup_s"], "s"),
        "pass_frac": _m((attempted - failed) / attempted, "ratio"),
    }


def per_layer(res):
    tr = res["trace"]
    agg = tr["agg"]
    out = {"run.wall_s": _m(res["wall_s"], "s"), "run.steal_s": _m(res["steal_s"], "s")}
    for f in LAYER_FUNCS:
        a = agg.get(f, {})
        out[f"{f}.calls"] = _m(int(a.get("calls", 0)), "count")
        out[f"{f}.total_s"] = _m(a.get("total_s", 0.0), "s")
        out[f"{f}.self_s"] = _m(a.get("self_s", 0.0), "s")
    for f, c, unit in LAYER_COUNTS:
        v = agg.get(f, {}).get(c, 0)
        out[f"{f}.{c}"] = _m(v if unit == "ratio" else int(v), unit)
    out["trace.wall_s"] = _m(tr["wall_s"], "s")
    out["trace.overhead_s"] = _m(tr["overhead_s"], "s")
    out["trace.non_cli_share"] = _m(tr["non_cli_share"], "ratio")
    return out


def print_human(workload, res):
    e2e = end_to_end(res)
    failed = sum(not ok for _, ok, _ in res["checks"])
    attempted = len(res["checks"])
    driver_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"== {workload}: {len(res['procs'])} timed process(es), {len(res['setup'])} set-up process(es), "
          f"driver peak RSS {driver_mib:.1f} MiB")
    for name in ("wall_s", "steal_s"):
        print(f"{workload} {name:<18} {res[name]:.4f} s")
    for name in ("wall_minus_steal_s", "cpu_s", "peak_rss_mib", "setup_s"):
        print(f"{workload} {name:<18} {e2e[name]['value']:.4f} {e2e[name]['unit']}")
    print(f"{workload} {'fail_frac':<18} {failed / attempted:.4f} ratio ({failed}/{attempted} checks failed)")
    for name in ("wall", "steal", "cpu"):
        print(f"{workload} samples {name}_s={[round(getattr(q, name), 3) for q in res['procs']]}")
    print(f"{workload} samples setup_s={[round(s, 3) for s in res['setup']]}")
    for name, ok, detail in res["checks"]:
        if not ok or "drift" in detail:
            print(f"{workload} check {'pass' if ok else 'FAIL'} {name} {detail}")
    tr = res.get("trace")
    if tr:
        print(f"{workload} trace wall_s={tr['wall_s']:.4f} overhead_s={tr['overhead_s']:.4f} "
              f"non_cli_share={tr['non_cli_share']:.4f}")
        print(f"{workload} {'layer':<44} {'calls':>8} {'total_s':>10} {'self_s':>10}  counts")
        rows = sorted(tr["agg"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, a in rows:
            extra = " ".join(f"{k}={v:.4g}" for k, v in a.items() if k not in ("calls", "total_s", "self_s"))
            print(f"{workload} {name:<44} {int(a['calls']):>8} {a['total_s']:>10.4f} {a['self_s']:>10.4f}  {extra}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "cubicsums" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'cubicsums'}; run from a source checkout", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(), sort_keys=True), flush=True)
    ref = json.loads((HERE / "reference.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, ref[w]) for w in names}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {}
    for w, res in results.items():
        print_human(w, res)
        m = per_layer(res) if args.trace else end_to_end(res)
        metrics.update(m if len(names) == 1 else {f"{w}.{k}": v for k, v in m.items()})
    checks = [c for res in results.values() for c in res["checks"]]
    failed = sum(not ok for _, ok, _ in checks)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
