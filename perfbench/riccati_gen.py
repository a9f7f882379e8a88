"""Seeded generator of n=8 LQR Riccati experiment configs.

Recipe (per seed, numpy's default_rng):

    A  = O diag(U[0.3, 1.0]) O^T + 0.3 (X - X^T) / sqrt(n)
    B  = 0.2 N(n x n) / sqrt(n),  R = I,  Q = 0.01 Y Y^T / n
    P0 = 0.5 (Z Z^T / n + I)
    t in [0, 1] on 21 points, refine 512

A is anti-stable on purpose: with a stable A or a longer horizon the forward
Riccati flow leaves the SPD cone and the run exits with a numerical error.
The program sees only the JSON text, which is byte-identical for one seed.
"""

import json

import numpy as np

N = 8
POINTS = 21
REFINE = 512


def _sym(M):
    return 0.5 * (M + M.T)


def riccati_params(seed: int) -> dict:
    """Draw (A, B, Q, R, P0) for one seed as float64 arrays."""
    rng = np.random.default_rng(seed)
    O, _ = np.linalg.qr(rng.standard_normal((N, N)))
    X = rng.standard_normal((N, N))
    A = O @ np.diag(rng.uniform(0.3, 1.0, N)) @ O.T + 0.3 * (X - X.T) / np.sqrt(N)
    B = 0.2 * rng.standard_normal((N, N)) / np.sqrt(N)
    Y = rng.standard_normal((N, N))
    Q = _sym(0.01 * Y @ Y.T / N)
    Z = rng.standard_normal((N, N))
    P0 = _sym(0.5 * (Z @ Z.T / N + np.eye(N)))
    return {"A": A, "B": B, "Q": Q, "R": np.eye(N), "P0": P0}


def riccati_config(seed: int) -> dict:
    """The `spdflow run --config` document for one seed."""
    p = riccati_params(seed)
    return {
        "model": "riccati",
        "params": {k: p[k].tolist() for k in ("A", "B", "Q", "R")},
        "P0": p["P0"].tolist(),
        "grid": {"t0": 0.0, "t1": 1.0, "points": POINTS},
        "refine": REFINE,
    }


def riccati_config_text(seed: int) -> str:
    return json.dumps(riccati_config(seed), sort_keys=True, indent=1) + "\n"
