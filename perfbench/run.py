"""Layered benchmark of omcool: end-to-end passes timed from outside, per-layer
spans from a separate traced pass, every pass checked against references.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--record PATH]
    python3 perfbench/run.py --self-check

One run starts a warm-up process, ``PROBES`` set-up probes (processes that
stop at the first engine call) and then passes, each a fresh process, until
``--seconds`` is spent; at least one pass always runs.  With ``--trace 1``
every pass is traced.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The lines before
it, each starting with ``#``, give every pass, the machine record and the
metrics with their sample counts.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

# The speed samples must run on one CPU; the passes get their own setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from speed import PERIOD_S, SpeedMonitor  # noqa: E402
from workloads import OCC_TOL, WORKLOADS, load_ref  # noqa: E402

PROBES = 7
#: A reference process start, run right after every probe: the interpreter
#: and numpy, the bulk of every process's set-up.  A probe's set-up time is
#: scaled by START_REF_S over the reference start's wall time.
START_ARGV = [sys.executable, "-c", "import numpy"]
#: Wall seconds of START_ARGV in the fast state of the machine the benchmark
#: was built on.
START_REF_S = 0.15
#: No pass starts, and every pass is killed, so that a run ends by this time.
HARD_LIMIT_S = 165.0

#: Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Per-layer metric -> (layer, field) of the traced pass's span summary.
LAYER_FIELDS = {
    "config.parse_s": ("config.parse", "self_s"),
    "schedule.build_cycle_s": ("schedule.build_cycle", "self_s"),
    "schedule.ramp_profile_calls": ("schedule.ramp_profile", "calls"),
    "schedule.ramp_profile_s": ("schedule.ramp_profile", "self_s"),
    "polariton.spectrum_calls": ("polariton.spectrum", "calls"),
    "polariton.spectrum_s": ("polariton.spectrum", "self_s"),
    "polariton.basis_calls": ("polariton.basis", "calls"),
    "polariton.basis_s": ("polariton.basis", "self_s"),
    "gaussian.propagate_calls": ("gaussian.propagate", "calls"),
    "gaussian.propagate_s": ("gaussian.propagate", "self_s"),
    "fock.operators_s": ("fock.operators", "self_s"),
    "fock.propagate_s": ("fock.propagate", "self_s"),
    "fock.observables_s": ("fock.observables", "self_s"),
    "fock.checks_s": ("fock.checks", "self_s"),
    "runner.run_protocol_s": ("runner.run_protocol", "self_s"),
    "runner.analyze_s": ("runner.analyze", "self_s"),
    "runner.probe_calls": ("runner.probe", "calls"),
    "runner.probe_s": ("runner.probe", "self_s"),
    "cli.self_s": ("cli.main", "self_s"),
    "bench.sweep_s": ("bench.sweep", "self_s"),
}


def log(line: str) -> None:
    print(f"# {line}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def reap(proc: subprocess.Popen, timeout: float, monitor: SpeedMonitor | None):
    """Wait for ``proc`` up to ``timeout`` seconds, sampling the CPU speed next
    to it if there is a ``monitor``, and kill its process group on expiry.
    Returns (exit code, rusage, exit time, timed out)."""
    deadline = time.monotonic() + timeout
    period = PERIOD_S if monitor is not None else timeout
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            while True:
                left = deadline - time.monotonic()
                exited = select.select([fd], [], [], max(0.0, min(left, period)))[0]
                if exited or left <= period:
                    break
                monitor.sample(proc.pid)
        finally:
            os.close(fd)
            if monitor is not None:
                monitor.release()
        t_exit = time.monotonic()
        timed_out = not exited
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
    except BaseException:
        # the harness itself is being stopped: never leave the child behind
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, t_exit, timed_out


def reference_start() -> float:
    """Wall seconds of one run of ``START_ARGV``."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(START_ARGV, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    code, _, t_exit, timed_out = reap(proc, 60.0, None)
    if code or timed_out:
        raise RuntimeError(f"reference start {START_ARGV} failed (exit {code})")
    return t_exit - t_spawn


def run_pass(workload, ref, seed: int, n: int, *, probe: bool, traced: bool,
             timeout: float, monitor: SpeedMonitor | None) -> dict:
    """Run one process of ``workload`` and measure and check it.

    A probe is followed by a reference start that scales its set-up time; a
    pass needs a ``monitor`` to scale its run times.
    """
    workdir = WORK / f"{workload.name}-{n}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec = workload.inputs(workdir, seed, ref)
    spec.update(probe=probe, trace=traced, result=str(workdir / "child.json"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with (workdir / "child.log").open("wb") as out:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)], cwd=ROOT,
            env=child_env(), stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        code, usage, t_exit, timed_out = reap(proc, timeout, None if probe else monitor)
    result = workdir / "child.json"
    child = json.loads(result.read_text()) if result.is_file() else {}
    rec = {"n": n, "kind": "probe" if probe else "pass", "traced": traced,
           "exit_code": code, "timed_out": timed_out, "wall_s": t_exit - t_spawn,
           "child": {k: child[k] for k in ("backend", "blas_threads") if k in child}}
    started = "t_first" in child
    if started:
        rec["raw"] = {"setup_s": child["t_first"] - t_spawn}
    if started and probe:
        rec["reference_start_s"] = reference_start()
        rec["setup_s"] = rec["raw"]["setup_s"] * START_REF_S / rec["reference_start_s"]
    elif started:
        rec["raw"]["run_s"] = t_exit - child["t_first"]
        rec["raw"]["cpu_s"] = usage.ru_utime + usage.ru_stime - child["cpu_first"]
        # a pass without a sample of its own takes the run's mean speed
        speed, samples = monitor.speed(child["t_first"], t_exit) or monitor.speed() or (1.0, 0)
        steal = monitor.steal_share(child["t_first"], t_exit)
        rec["speed"], rec["steal_share"] = [speed, samples], steal
        rec["run_s"] = rec["raw"]["run_s"] * (1.0 - steal) * speed
        rec["cpu_s"] = rec["raw"]["cpu_s"] * speed  # stolen time is not CPU time
        if child.get("peak_rss_bytes"):
            rec["peak_rss_mb"] = child["peak_rss_bytes"] / 1e6
    ok = code == 0 and not timed_out and started
    detail = "timed out" if timed_out else f"exit {code}" if code else ""
    if ok and not probe:
        check = workload.check(workdir, ref, child)
        ok, detail = check["ok"], check["detail"]
        rec["metrics"] = check["metrics"]
        rec["trace"] = child.get("trace")
    elif not started and not timed_out and code == 0:
        detail = "no engine call"
    if not ok and not detail:
        detail = "failed"
    if code not in (0, None) or timed_out:
        detail += "; log tail: " + (workdir / "child.log").read_text()[-300:].replace("\n", " | ")
    rec.update(ok=ok, detail=detail)
    return rec


def describe(rec: dict) -> str:
    parts = [f"{rec['kind']} {rec['n']}{' traced' if rec['traced'] else ''}",
             "ok" if rec["ok"] else "FAILED"]
    if "setup_s" in rec:
        parts.append(f"setup_s={rec['setup_s']:.4f} (raw {rec['raw']['setup_s']:.4f}, "
                     f"reference start {rec['reference_start_s']:.4f})")
    elif "raw" in rec:
        parts.append(f"raw setup_s={rec['raw']['setup_s']:.4f}")
    if "run_s" in rec:
        speed, samples = rec["speed"]
        for key in ("run_s", "cpu_s"):
            parts.append(f"{key}={rec[key]:.4f} (raw {rec['raw'][key]:.4f})")
        parts.append(f"speed {speed:.3f} from {samples} samples, "
                     f"steal {rec['steal_share']:.3f}")
    if "peak_rss_mb" in rec:
        parts.append(f"peak_rss_mb={rec['peak_rss_mb']:.1f}")
    parts.append(f"exit={rec['exit_code']}")
    if rec["detail"]:
        parts.append(f"({rec['detail']})")
    return " ".join(parts)


def measure(workload, seed: int, seconds: float, traced: bool) -> list[dict]:
    """All processes of one run, warm-up first (``n`` = 0)."""
    ref = load_ref(workload, "full")
    monitor = SpeedMonitor(workload.speed_kernel)
    t0 = time.monotonic()
    hard_end = t0 + HARD_LIMIT_S
    records = []

    def launch(**kwargs):
        timeout = min(workload.pass_timeout, hard_end - time.monotonic())
        rec = run_pass(workload, ref, seed, len(records), timeout=timeout, monitor=monitor,
                       **kwargs)
        log(describe(rec))
        records.append(rec)
        return rec

    for _ in range(1 + PROBES):
        launch(probe=True, traced=False)
    walls = []
    while True:
        estimate = statistics.median(walls) if walls else 0.0
        now = time.monotonic()
        if walls and (now - t0 + estimate > seconds or now + estimate > hard_end):
            break
        walls.append(launch(probe=False, traced=traced)["wall_s"])
    return records


def end_to_end_metrics(records) -> dict:
    """(median, samples) per end-to-end metric, over the processes that passed.

    ``setup_s`` comes from the probes, scaled by their reference starts;
    ``run_s`` and ``cpu_s`` come from the passes, at the reference speed of
    ``speed.py``.
    """
    counted = records[1:]  # the warm-up process pays for cold caches
    out = {}
    for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mb"):
        values = [r[key] for r in counted if key in r and r["ok"]]
        if values:
            out[key] = (statistics.median(values), values)
    failed = sum(not r["ok"] for r in counted)
    out["pass_frac"] = (1.0 - failed / len(counted), [])
    return out


def layer_metrics(records) -> dict:
    """Per-layer metrics of a traced run: medians over its traced passes."""
    traced = [r for r in records if r["kind"] == "pass" and r.get("trace")]
    samples: dict[str, list] = {}
    for rec in traced:
        layers, counters = rec["trace"]["layers"], rec["trace"]["counters"]
        for name, (layer, field) in LAYER_FIELDS.items():
            samples.setdefault(name, []).append(layers.get(layer, {}).get(field, 0))
        strokes = counters.get("gaussian.strokes", 0)
        prop_s = layers.get("gaussian.propagate", {}).get("self_s", 0.0)
        trajs = rec["trace"]["trajectories"]
        gauss = [t["min_physicality"] for t in trajs if t["engine"] == "gaussian"]
        leaks = [t["max_leakage"] for t in trajs if "max_leakage" in t]
        window = sum(layer["window_self_s"] for layer in layers.values())
        extra = {
            "gaussian.strokes": strokes,
            "gaussian.s_per_stroke": prop_s / strokes if strokes else 0.0,
            "gaussian.min_uncertainty_eig": min(gauss) if gauss else 0.0,
            "fock.max_leakage": max(leaks) if leaks else 0.0,
            "trace.run_s": rec["raw"]["run_s"],
            "trace.overhead_s": rec["trace"]["overhead_s"],
            "trace.accounted_frac": window / rec["raw"]["run_s"],
            "trace.spans": rec["trace"]["spans"],
        }
        for key in ("gaussian.occ_err", "fock.occ_err", "cli.csv_rows", "cli.csv_bytes",
                    "cli.validate_max_dev"):
            extra[key] = rec["metrics"].get(key, 0.0)
        for name, value in extra.items():
            samples.setdefault(name, []).append(value)
    return {m["name"]: statistics.median(samples[m["name"]]) if traced else 0.0
            for m in SPEC["per_layer"]}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def machine_record(records, seed: int) -> dict:
    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    child = next((r["child"] for r in records if r["child"]), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "numba": util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child.get("blas_threads"),
        "kernel_backend": child.get("backend"),
        "seed": seed,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def summarize(records, traced: bool) -> dict:
    counted = records[1:]
    failed = sum(not r["ok"] for r in counted)
    result = {"correct": failed == 0, "attempted": len(counted), "failed": failed}
    if traced:
        values = layer_metrics(records)
    else:
        values = {k: v for k, (v, _) in end_to_end_metrics(records).items()}
    result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return result


def report_lines(records, traced: bool) -> None:
    counted = records[1:]
    failed = sum(not r["ok"] for r in counted)
    if not traced:
        for key, (value, values) in end_to_end_metrics(records).items():
            if values:
                log(f"{key} = {value:.6g} {UNITS[key]} ({len(values)} samples: "
                    f"min {min(values):.6g}, median {statistics.median(values):.6g}, "
                    f"max {max(values):.6g})")
        log(f"fail_frac = {failed / len(counted):.6g} fraction ({failed} of {len(counted)} "
            f"processes failed: exit code, timeout, or output more than {OCC_TOL:g} "
            "from the reference)")
    else:
        for key, value in layer_metrics(records).items():
            log(f"{key} = {value:.6g} {UNITS[key]}")


def one_run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    log(f"workload {name} seed {seed} seconds {seconds:g} trace {int(traced)}")
    records = measure(workload, seed, seconds, traced)
    log("machine " + json.dumps(machine_record(records, seed), sort_keys=True))
    report_lines(records, traced)
    return {"records": records, "result": summarize(records, traced)}


def self_check() -> int:
    """Tiny passes of every workload; a perturbed reference and a killed pass must fail."""
    problems = []
    monitor = SpeedMonitor("small-dense")
    for workload in WORKLOADS.values():
        ref = load_ref(workload, "tiny")
        rec = run_pass(workload, ref, 1, 0, probe=False, traced=True,
                       timeout=workload.pass_timeout, monitor=monitor)
        log(f"{workload.name}: tiny traced pass: {describe(rec)}")
        if not rec["ok"]:
            problems.append(f"{workload.name}: tiny pass failed")
            continue
        child = {"trace": rec["trace"]}
        bad = workload.check(WORK / f"{workload.name}-0", workload.perturbed(ref, 10 * OCC_TOL),
                             child)
        log(f"{workload.name}: against a reference moved by {10 * OCC_TOL:g}: "
            f"{'passes (WRONG)' if bad['ok'] else 'fails, as it must'} ({bad['detail']})")
        if bad["ok"]:
            problems.append(f"{workload.name}: perturbed reference not detected")
    workload = WORKLOADS["fig1-cycle"]
    rec = run_pass(workload, load_ref(workload, "tiny"), 1, 1, probe=False, traced=False,
                   timeout=0.5, monitor=monitor)
    log(f"fig1-cycle: pass killed after 0.5 s: {describe(rec)}")
    if rec["ok"] or not rec["timed_out"]:
        problems.append("a killed pass was not counted as failed")
    for p in problems:
        log(f"SELF-CHECK PROBLEM: {p}")
    log("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def run_all(seed: int, seconds: float, record_path: str | None) -> int:
    """Every workload untraced, then traced; a summary table and an optional record."""
    results = {}
    machine = None
    for name in WORKLOADS:
        for traced in (False, True):
            run = one_run(name, seed, seconds, traced)
            machine = machine or machine_record(run["records"], seed)
            results.setdefault(name, {})["traced" if traced else "untraced"] = {
                **run["result"], "passes": [
                    {k: v for k, v in r.items() if k != "trace"} for r in run["records"]]}
    log("summary of the untraced runs")
    for name, res in results.items():
        u = res["untraced"]
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in u["metrics"].items()]
        cells.append(f"fail_frac={u['failed'] / u['attempted']:.3g} fraction")
        log(f"{name}: " + ", ".join(cells))
        # both runs' run_s are at the reference speed, so their difference is comparable
        t = res["traced"]
        traced_run_s = statistics.median(
            r["run_s"] for r in t["passes"] if r["kind"] == "pass" and "run_s" in r)
        t["run_s_minus_untraced"] = traced_run_s - u["metrics"]["run_s"]["value"]
        log(f"{name}: traced run_s minus untraced run_s = {t['run_s_minus_untraced']:.4g} s "
            f"(trace.overhead_s = {t['metrics']['trace.overhead_s']['value']:.4g} s)")
    if record_path:
        Path(record_path).write_text(json.dumps(
            {"machine": machine, "seconds": seconds, "workloads": results},
            indent=1, sort_keys=True) + "\n")
        log(f"wrote {record_path}")
    return 0 if all(r[m]["correct"] for r in results.values() for m in ("untraced", "traced")) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--record", help="with --all: write the results to this JSON file")
    parser.add_argument("--self-check", action="store_true", help="check the harness itself")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "omcool" / "__init__.py").is_file():
        print(f"error: no omcool source tree at {ROOT / 'src' / 'omcool'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    if args.self_check:
        return self_check()
    if args.all:
        return run_all(args.seed, args.seconds, args.record)
    if args.workload is None:
        parser.error("give --workload, --all or --self-check")
    run = one_run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(run["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
