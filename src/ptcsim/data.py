"""Small deterministic datasets for desk-scale training runs.

The workhorse is the classic 8x8 handwritten-digits set (via scikit-learn),
scaled to [0, 1].  Two synthetic generators cover environments without
scikit-learn and fast unit tests: noisy class-template images, and linearly
separable Gaussian clusters for MLP smoke tests.  All splits and draws are
seeded, so a (dataset, seed) pair always yields identical arrays.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import derive_rng


def _blur(img: np.ndarray) -> np.ndarray:
    """Cheap 3x3 box blur (edge-padded) to make templates smooth."""
    p = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for i in range(3):
        for j in range(3):
            out += p[i:i + img.shape[0], j:j + img.shape[1]]
    return out / 9.0


def synthetic_images(n_per_class: int = 120, n_classes: int = 10,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Noisy 8x8 images around smooth per-class templates, values in [0, 1]."""
    rng = derive_rng(seed, 20)
    templates = np.stack([_blur(rng.uniform(0.0, 1.0, (8, 8)))
                          for _ in range(n_classes)])
    xs, ys = [], []
    for cls in range(n_classes):
        noise = rng.normal(0.0, 0.12, size=(n_per_class, 8, 8))
        xs.append(np.clip(templates[cls] + noise, 0.0, 1.0))
        ys.append(np.full(n_per_class, cls, dtype=np.int64))
    x = np.concatenate(xs)[:, None, :, :]
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def synthetic_separable(n: int = 400, dim: int = 16, classes: int = 2,
                        seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated Gaussian clusters in [0, 1]^dim for toy MLP runs."""
    rng = derive_rng(seed, 21)
    centers = rng.uniform(0.15, 0.85, size=(classes, dim))
    y = rng.integers(0, classes, size=n)
    x = np.clip(centers[y] + rng.normal(0.0, 0.06, size=(n, dim)), 0.0, 1.0)
    return x, y.astype(np.int64)


def resolve_dataset(name: str) -> str:
    """The dataset :func:`load_dataset` returns for ``name``.

    ``digits`` needs scikit-learn; without it ``blobs`` is loaded instead.
    """
    if name == "digits":
        try:
            import sklearn.datasets  # noqa: F401
        except ImportError:
            return "blobs"
    return name


def load_dataset(name: str, seed: int = 0
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x_train, y_train, x_test, y_test) for a named dataset.

    ``digits``: scikit-learn's 1797 8x8 grayscale digits, pixel values
    divided by 16, deterministic 1500/297 split.  ``blobs``: the synthetic
    image set above, 80/20 split.  Image tensors are (N, 1, 8, 8).
    Without scikit-learn, ``digits`` gives ``blobs`` (see
    :func:`resolve_dataset`) and warns so.
    """
    loaded = resolve_dataset(name)
    if loaded != name:
        warnings.warn(f"dataset '{name}' needs scikit-learn, which is not "
                      f"installed; loading '{loaded}' instead",
                      UserWarning, stacklevel=2)
    name = loaded
    if name == "digits":
        from sklearn.datasets import load_digits
        bunch = load_digits()
        x = (bunch.images / 16.0)[:, None, :, :]
        y = bunch.target.astype(np.int64)
        perm = derive_rng(seed, 22).permutation(len(y))
        x, y = x[perm], y[perm]
        return x[:1500], y[:1500], x[1500:], y[1500:]
    if name == "blobs":
        x, y = synthetic_images(seed=seed)
        cut = int(0.8 * len(y))
        return x[:cut], y[:cut], x[cut:], y[cut:]
    raise ValueError(f"unknown dataset '{name}' (expected 'digits' or 'blobs')")
