import numpy as np


def random_spd(rng, n, scale=1.0):
    """Well-conditioned random SPD matrix."""
    W = rng.standard_normal((n, n))
    return scale * (W @ W.T + n * np.eye(n))


def random_sym(rng, n, scale=1.0):
    W = rng.standard_normal((n, n))
    return scale * 0.5 * (W + W.T)
