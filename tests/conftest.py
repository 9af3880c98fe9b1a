"""Shared helpers for the test suite."""

import numpy as np


def unit_rows(rng, n, d):
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)
