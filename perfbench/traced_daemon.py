"""Start ``tools/serve_daemon.py`` with the benchmark's span wrappers
installed in the daemon's own process.

Usage (the traced ``http_live`` run does this)::

    PERFBENCH_SPANS_DIR=<dir> python3 perfbench/traced_daemon.py <daemon flags>

The wrappers go in first, then the daemon's ``main`` runs exactly as
the CLI would run it; the spans are written to ``<dir>`` when the
daemon exits after its SIGTERM drain.
"""

from __future__ import annotations

import os
import runpy
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer

    tracer.install_process("daemon", http=True)
    daemon = runpy.run_path(os.path.join(ROOT, "tools", "serve_daemon.py"),
                            run_name="serve_daemon")
    sys.exit(daemon["main"](sys.argv[1:]))
