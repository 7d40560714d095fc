"""One pass of a workload, in a fresh process started by ``run.py``.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the workload kind (``cli``: argv for ``omcool.cli.main``;
``design``: a JSON file of generated design points), the result file, and
two switches: ``probe`` ends the process at the first engine call, after
recording the set-up time; ``trace`` installs the span wrappers of
``tracer.py``.  The result file holds the clock readings the parent needs
(monotonic time and process CPU time at the first engine call) and, for a
pass, the active kernel backend, the BLAS thread count, the peak resident
memory and, when traced, the span summary.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def peak_rss_bytes():
    """High-water resident memory of this process image (``VmHWM``).

    ``ru_maxrss`` of a child, as ``os.wait4`` returns it, would also hold the
    parent's resident size at the fork, which the kernel carries into the
    child at ``exec``.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return None


def mark_first_engine_call(record, on_first):
    """Wrap both engines so the first call of either stamps ``record``."""
    import omcool.fock
    import omcool.gaussian

    def arm(module, name):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if "t_first" not in record:
                record["t_first"] = time.monotonic()
                record["cpu_first"] = time.process_time()
                on_first()
            return fn(*args, **kwargs)

        setattr(module, name, marked)

    arm(omcool.gaussian, "propagate")
    arm(omcool.fock, "propagate_fock")


def run_design_point(point):
    """The design-sweep traffic for one generated point.

    Places delta_f where the upper polariton branch reaches the requested
    frequency (a ``polariton_spectrum`` sweep), probes the expansion ramp,
    builds one cycle and runs it on the Gaussian engine, then compares it with
    the cooling map.  Module attributes are looked up at call time so that the
    traced pass sees every call.
    """
    import numpy as np

    from omcool import params as params_mod
    from omcool import polariton, runner, schedule

    base = point["params"]
    lo, hi, samples = point["sweep"]
    grid = np.linspace(lo, hi, samples)
    omega_a = np.array([polariton.polariton_spectrum(d, base["omega_b"], base["g"])[0]
                        for d in grid])
    order = np.argsort(omega_a)
    delta_f = float(np.interp(point["omega_A_target"], omega_a[order], grid[order]))
    p = params_mod.SystemParams(**base, delta_f=delta_f)
    tau, shape = point["tau"], point["shape"]
    transfer = runner.adiabaticity_probe(p, tau, shape)
    sched = schedule.build_default_cycle(p, tau, point["tau2"], tau, point["tau4"],
                                         targets=[0], cycles=1, ramp_shape=shape)
    initial = runner.InitialOccupations(basis="bare", pair=point["initial"]["pair"],
                                        targets=point["initial"]["targets"])
    traj = runner.run_protocol(p, sched, engine="gaussian", initial=initial,
                               tol=point["tol"], samples_per_stroke=point["samples_per_stroke"])
    report = runner.analyze_cycles(traj, p, target=0)
    return {
        "delta_f": delta_f,
        "eta": report.eta,
        "n_after": report.cycles[-1].n_after,
        "N_infinity": report.cooling_limit,
        "probe_transfer": transfer,
    }


def run_design(spec, tracer):
    points = json.loads(Path(spec["points"]).read_text())
    warnings.simplefilter("ignore")  # short ramps warn by design
    if tracer is None:
        results = [run_design_point(pt) for pt in points]
    else:
        results = tracer.span("bench.sweep", lambda: [run_design_point(pt) for pt in points])
    Path(spec["out"]).write_text(json.dumps(results))
    return 0


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    result_path = Path(spec["result"])
    record = {}

    def write_result():
        tmp = result_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, result_path)

    def on_first():
        if spec["probe"]:
            write_result()
            os._exit(0)

    import omcool._kernels
    import omcool.cli

    mark_first_engine_call(record, on_first)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    if spec["kind"] == "cli":
        rc = omcool.cli.main(spec["argv"])
    else:
        rc = run_design(spec, tracer)
    record["t_end"] = time.monotonic()
    record["backend"] = omcool._kernels.BACKEND
    record["blas_threads"] = blas_threads()
    record["peak_rss_bytes"] = peak_rss_bytes()
    if tracer is not None:
        window = (record.get("t_first", record["t_end"]), record["t_end"])
        record["trace"] = tracer.summary(window)
    write_result()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
