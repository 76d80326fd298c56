"""Helpers that several test modules share."""

import struct

import numpy as np

from piecewise_prox.harness import _IMAGES_MAGIC, _LABELS_MAGIC
from piecewise_prox.piecewise import _entries
from piecewise_prox.prox import _prox_entries


def write_idx(images_path, labels_path, images, labels, rows: int, cols: int) -> None:
    """Inverse of load_idx for fixtures: images in [0, 1], shape (n, rows*cols)."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    n = images.shape[0]
    pix = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IMAGES_MAGIC, n, rows, cols))
        fh.write(pix.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", _LABELS_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


def prox_vector(surrogates, assignment, s: float, u) -> np.ndarray:
    """Coordinate i of u takes the prox of ``surrogates[assignment[i] - 1]``,
    by the route of ``Problem.prox_step`` on any table and any u; bad numbers
    and shapes raise its ValueError (``_entries``)."""
    u = np.asarray(u, dtype=float)
    return _prox_entries(_entries(surrogates, np.asarray(assignment), u.shape), s, u)
