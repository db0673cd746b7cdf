"""One-time model preparation for the end-to-end benchmark.

Trains the tiny-scale classifier, CAE and ICAM of the ``sweep_table2``
and ``restart_warm`` workloads, or loads them from the repo's
gitignored model cache (``.repro_cache/``) when an earlier run already
trained them.  ``run.py`` starts this as its own process before any
clock starts, so neither training time nor training memory reaches a
timed figure: ``setup_s`` and ``rss_peak_mb`` read the same on a cold
model cache as on a warm one.

Run it alone with ``python3 perfbench/prepare.py``.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Model cache shared with the repo's other benchmarks (gitignored).
CACHE_DIR = os.path.join(ROOT, ".repro_cache")
DATASET = "brain_tumor1"
#: Every Table II method servable without auxiliary training.
SWEEP_METHODS = ("cae", "icam", "lime", "gradcam", "fullgrad",
                 "simple_fullgrad", "occlusion")


def scale():
    """The tiny 16x16 scale both model-backed workloads use."""
    from repro.eval import ExperimentScale
    return ExperimentScale(image_size=16, train_divisor=400,
                           classifier_epochs=4, classifier_width=8,
                           cae_iterations=80, aux_epochs=1,
                           base_channels=8, seed=0,
                           min_train_per_class=24, min_test_per_class=16)


def context():
    """A fresh :class:`ExperimentContext` over the model cache."""
    from repro.eval import ExperimentContext
    return ExperimentContext(DATASET, scale(), cache_dir=CACHE_DIR)


def main() -> int:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    start = time.perf_counter()
    ctx = context()
    ctx.suite(SWEEP_METHODS)
    trained = sorted(ctx.train_times)
    print(f"prepare: {'trained ' + ','.join(trained) if trained else 'loaded'}"
          f" in {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
