"""All rounds of one benchmark run, started by run.py (not by hand).

The worker is a fresh interpreter.  It imports rhokit and generates the
workload's inputs once; this set-up is what ``setup_s`` measures.  Each round
is then a child forked from the worker.  The child starts cold after import,
with no call into rhokit made yet, runs every unit once, and exits, so any
in-process cache is filled inside the timed phase of every round.  Forking
costs milliseconds where a new interpreter costs the whole import.  That
allows dozens of rounds per run, and the per-unit best over them is steady.

Only the first round checks every answer.  The other rounds must give
outputs whose digest equals the first round's.  Before ``import rhokit``
only standard-library modules are loaded, and numpy runs single-threaded,
so forking is safe.  Prints one JSON object on stdout.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 3  # traced, untraced, traced
LAUNCH_LIMIT_S = 140  # start no round after this, to end well within 180 s


def _blas_notes():
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None and threads is None:
                fn.restype = ctypes.c_int
                threads = fn()
    return {"blas": name, "blas_threads": threads}


def run_round(workload, inputs, traced, spans_path, check):
    """Body of one forked round; returns its report."""
    from workloads import Timer

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    timer = Timer(gauge=not traced)
    start, cpu_start = time.perf_counter(), time.thread_time()
    outputs = workload.run(inputs, tracer, timer)
    cpu = time.thread_time() - cpu_start - sum(timer.ref_s)  # the kernel is not the round's work
    wall = time.perf_counter() - start
    report = {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": cpu,
        "unit_s": timer.seconds,
        "lap_s": timer.laps,
        "ref_s": timer.ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": hashlib.sha256(repr(outputs).encode()).hexdigest(),
        "layer": {},
        "failed": 0,
        "problems": [],
    }
    if tracer is not None:
        report["layer"] = tracer.layer_metrics(cpu)
        report["spans"] = len(tracer.spans)
        report["missing_entry_points"] = tracer.missing
        if spans_path:
            tracer.dump(spans_path)
        tracer.op = "check"
    if check:
        chk = workload.check(inputs, outputs)
        report["layer"].update(chk.layer)
        report.update(failed=chk.failed_units, problems=chk.problems)
    return report


def fork_round(*args):
    """Run one round in a forked child and return its report."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            data = json.dumps(run_round(*args)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:  # the child must reach os._exit whatever happens
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()  # drain the pipe before waiting
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"round exited with status {status}")
    return json.loads(data)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="write the first traced round's spans here")
    args = p.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t0 = time.thread_time()
    import rhokit  # noqa: F401  (timed: this is the CLI's per-invocation cost)

    import_s = time.thread_time() - t0
    inputs = workload.make_inputs(args.seed)
    # CPU time since the process started: interpreter start, import, inputs
    report = {
        "ready": time.clock_gettime(time.CLOCK_MONOTONIC),
        "setup_s": time.process_time(),
        "import_s": import_s,
    }
    if not args.setup_only:
        # Move everything built so far (modules, inputs) out of the collector's
        # reach.  Otherwise each round's one full collection (about 30 ms on
        # catalog) lands on whichever unit the seed's order puts there.
        gc.collect()
        gc.freeze()
        started = time.monotonic()
        rounds = []
        need = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            spans = args.spans if traced and not rounds else None
            rounds.append(fork_round(workload, inputs, traced, spans, not rounds))
            elapsed = time.monotonic() - started
            if len(rounds) >= need and (elapsed >= args.seconds or elapsed >= LAUNCH_LIMIT_S):
                break
        report.update(rounds=rounds, attempted=workload.count(inputs), **_blas_notes())
    print(json.dumps(report))


if __name__ == "__main__":
    main()
