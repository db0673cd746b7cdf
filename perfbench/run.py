"""End-to-end benchmark of the CAE explainer serving stack.

One command runs one workload against the program's public entry
points only, checks every output against references computed apart
from the serving stack (see ``checks.py``), and prints one JSON object
as its last line::

    python3 perfbench/run.py --workload http_live --seed 1 --seconds 25 --trace 0

Workloads (``README.md`` gives their make-up and reasons):

* ``http_live`` -- ``tools/serve_daemon.py`` in its own process, driven
  open-loop over loopback at a fixed Poisson rate;
* ``sweep_table2`` -- the Table II methods through
  ``ExperimentContext.engine(executor="process", workers=2,
  store=...).explain_batch`` on unique images;
* ``restart_warm`` -- a fresh ``ExplainEngine`` reopened on a store that
  set-up filled, replaying its key set (every request a store hit).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload with spans wrapped around each layer's entry points and
reports the per-layer metrics instead.  Lines before the last one are
the run's self-report.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys
import time

#: BLAS threads per process.  Set before numpy loads so that this
#: process and every process it starts (daemon, pool workers) inherit
#: it: two pool workers plus an idle parent never run more compute
#: threads than cores.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("http_live", "sweep_table2", "restart_warm")


def missing_program() -> list:
    """Program files the benchmark drives; absent ones end the run."""
    needed = [os.path.join(SRC, "repro", "serve", "engine.py"),
              os.path.join(SRC, "repro", "eval", "pipeline.py"),
              os.path.join(ROOT, "tools", "serve_daemon.py")]
    return [p for p in needed if not os.path.isfile(p)]


#: prctl option that makes this process the parent of every orphaned
#: descendant, so that processes the program's children leave behind
#: (the daemon's or a pool's helpers) come back here to be waited for.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds the runner waits for its descendants before killing them.
REAP_TIMEOUT_S = 20.0


def adopt_orphans() -> None:
    """Make this process the subreaper of its descendants (Linux only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children() -> list:
    """Pids of this process's live children, from /proc."""
    pids = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.extend(int(x) for x in fh.read().split())
        except OSError:
            pass
    return pids


def stop_descendants() -> None:
    """Stop the multiprocessing resource tracker, which outlives its
    parent by design, then wait for every child, adopted orphans too,
    killing any still alive after REAP_TIMEOUT_S."""
    if "multiprocessing.resource_tracker" in sys.modules:
        from multiprocessing import resource_tracker
        try:
            resource_tracker._resource_tracker._stop()
        except Exception:
            pass
    deadline = time.monotonic() + REAP_TIMEOUT_S
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline and not killed:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
            killed = True
        time.sleep(0.02)


def on_term(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_program()
    if missing:
        print("perfbench: program files missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    adopt_orphans()
    signal.signal(signal.SIGTERM, on_term)
    try:
        import workloads  # numpy loads here, after the pinning

        return workloads.run(args, ROOT, WORK)
    finally:
        stop_descendants()


if __name__ == "__main__":
    sys.exit(main())
