"""Output checks of the end-to-end benchmark, computed apart from the
serving stack, and their self-test.

Every check raises :class:`CheckFailure` on a wrong output.  The
references are the benchmark's own: a SHA-1 over shape, dtype and
bytes for ``image_digest``, an argmax over ``classifier.predict_proba``
for an omitted label, and the explainer called directly on a batch of
one (no engine, cache, plan or pool) for a saliency map.

``python3 perfbench/checks.py`` runs the self-test alone: each check
must pass on a good output and fail on a corrupted one.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

#: Peak-relative bound for a map computed by the serving stack.
MAP_BOUND = 1e-3
#: Peak-relative bound for a map served from the float16 store records
#: (four float16 half-ulps at the peak, plus the compute bound).
STORE_MAP_BOUND = 4 * 2.0 ** -11 + MAP_BOUND


class CheckFailure(AssertionError):
    """A served output disagrees with its independent reference."""


def own_digest(image: np.ndarray) -> str:
    """SHA-1 over the image's shape, dtype and C-order bytes."""
    image = np.ascontiguousarray(image)
    h = hashlib.sha1()
    h.update(str(image.shape).encode())
    h.update(str(image.dtype).encode())
    h.update(image.tobytes())
    return h.hexdigest()


def own_argmax(classifier, image: np.ndarray) -> int:
    """The label a client omitting ``label`` must get back."""
    probs = classifier.predict_proba(np.asarray(image)[None])
    return int(np.argmax(probs[0]))


def direct_maps(explainer, images: np.ndarray,
                labels: np.ndarray) -> list:
    """The explainer called directly (no engine, cache, plan or pool)
    under the gradient contract the engine applies: ``no_grad`` for
    methods that declare they need no gradients."""
    from repro import nn
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if getattr(explainer, "needs_gradients", True):
        results = explainer.explain_batch(images, labels)
    else:
        with nn.no_grad():
            results = explainer.explain_batch(images, labels)
    return [np.asarray(r.saliency) for r in results]


def direct_map(explainer, image: np.ndarray, label: int) -> np.ndarray:
    """The explainer called directly on a batch of one."""
    return direct_maps(explainer, np.asarray(image)[None], [label])[0]


def check_map(saliency: np.ndarray, shape) -> None:
    saliency = np.asarray(saliency)
    if saliency.shape != tuple(shape):
        raise CheckFailure(f"map shape {saliency.shape}, want {tuple(shape)}")
    if not np.isfinite(saliency).all():
        raise CheckFailure("map holds NaN or infinite values")


def peak_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    peak = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got - want).max()) / peak


def check_reference(got: np.ndarray, want: np.ndarray,
                    bound: float = MAP_BOUND) -> float:
    err = peak_relative_error(got, want)
    if not err <= bound:
        raise CheckFailure(f"map differs from the direct explainer by "
                           f"{err:.3g} of its peak (bound {bound:.3g})")
    return err


def check_label(got: int, want: int) -> None:
    if int(got) != int(want):
        raise CheckFailure(f"label {got}, want {want}")


def check_digest(got: str, image: np.ndarray) -> None:
    want = own_digest(image)
    if got != want:
        raise CheckFailure(f"image_digest {got!r}, want {want!r}")


def check_computed_once(computed: int, unique_keys: int) -> None:
    """Work is done exactly once: one computation per unique key."""
    if int(computed) != int(unique_keys):
        raise CheckFailure(f"{computed} maps computed for {unique_keys} "
                           "unique keys")


def self_test() -> None:
    """Each check passes a good output and rejects a corrupted one."""
    rng = np.random.default_rng(7)
    image = rng.random((1, 8, 8)).astype(np.float32)
    want = rng.random((8, 8)).astype(np.float32)

    check_map(want, (8, 8))
    check_reference(want.copy(), want)
    check_reference(want.astype(np.float16), want, STORE_MAP_BOUND)
    check_label(1, 1)
    check_digest(own_digest(image), image)
    check_computed_once(5, 5)

    perturbed = want.copy()
    perturbed[3, 4] += 0.01 * float(np.abs(want).max())
    non_finite = want.copy()
    non_finite[0, 0] = np.nan
    other = image.copy()
    other[0, 0, 0] += 1.0
    corrupted = [
        ("perturbed map", lambda: check_reference(perturbed, want)),
        ("perturbed stored map",
         lambda: check_reference(perturbed.astype(np.float16), want,
                                 STORE_MAP_BOUND)),
        ("wrong map shape", lambda: check_map(want[:4], (8, 8))),
        ("non-finite map", lambda: check_map(non_finite, (8, 8))),
        ("wrong label", lambda: check_label(0, 1)),
        ("wrong digest", lambda: check_digest(own_digest(other), image)),
        ("wrong dtype digest",
         lambda: check_digest(own_digest(image.astype(np.float64)),
                              image)),
        ("extra computation", lambda: check_computed_once(6, 5)),
    ]
    for name, check in corrupted:
        try:
            check()
        except CheckFailure:
            continue
        raise RuntimeError(f"self-test: the check let a {name} pass")


if __name__ == "__main__":
    self_test()
    print("checks self-test: ok")
    sys.exit(0)
