"""Frame invariance of the presets' errors.csv, a metamorphic test.

A change of coordinates P -> M P M^T, with A -> M A M^-1, B -> M B M^-1 and
m0 -> M m0, maps the gbm flow onto itself, and every scheme here is
equivariant under it in exact arithmetic.  The affine distance is invariant
under it, and the Frobenius distance under rotations.  So a preset run in
another frame must reproduce the original's ``spd`` column exactly and its
distance columns up to roundoff; no truth is needed.

The frames are two rotations by fixed angles and one non-orthogonal M of
condition number 2.8.  The Lie schemes are equivariant under a
non-orthogonal M too, because their generator D + F P^-1 / 2 (see
``models.from_drift``) maps to M (.) M^-1; a symmetric generator, the
solution X of X P + P X = F, would be equivariant under rotations only.
Each bound below is set from the largest relative change these frames give,
measured with numpy 2.4 / scipy-openblas 0.3.31, and the margin over it is
stated.  Case1's Lie rows from t = 1.3 are the known failure:
``test_case1_lie_tail_agrees`` holds them to the same bounds and is expected
to fail.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

import numpy as np
import pytest

from spdflow.cli import NOT_ON_MANIFOLD, NOT_RESOLVED, PRESETS, main
from spdflow.models import make_case_study


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


FRAMES = {
    "identity": np.eye(2),
    "rotation-0.5": _rotation(0.5),
    "rotation-2": _rotation(2.0),
    "cond-2.8": np.array([[1.5, 0.5], [0.0, 0.6]]),
}
ROTATIONS = ["rotation-0.5", "rotation-2"]
MOVED = ROTATIONS + ["cond-2.8"]
FROB, AFFINE = 2, 3  # columns of errors.csv
LIE, LIE_TAIL_T = ("lie_euler", "rkmk4"), 1.3

# Largest relative change of an affine cell over the three frames -> bound:
# euler 1.2e-4 -> 1e-3 (8x), riemannian_rk4 5.3e-4 -> 2e-3 (3.8x), rk4 3.0e-3
# at t = 2 -> 1e-2 (3.3x), lie_euler 7.3e-8 -> 1e-6 (14x) and rkmk4 3.9e-4 ->
# 2e-3 (5x) before t = 1.3, all under cond-2.8 or a rotation.  Case2: 1.2e-8
# (euler at t = 1.35) -> 1e-7 (8x).  At t = 0 the cell is roundoff of zero
# (at most 7e-16), which the absolute floor 1e-14 admits.
CASE1_AFFINE = {
    "euler": 1e-3,
    "riemannian_rk4": 2e-3,
    "rk4": 1e-2,
    "lie_euler": 1e-6,
    "rkmk4": 2e-3,
}
CASE2_AFFINE = 1e-7
AFFINE_FLOOR = 1e-14
# Frobenius cells under the rotations: at most 5.5e-8 (case1's rkmk4 before
# t = 1.3) -> 1e-6 (18x).
FROB_ROTATION = 1e-6


@functools.cache
def _rows(case, frame):
    """The errors.csv rows, split into cells, of preset ``case`` run as a gbm
    config in ``frame``."""
    p, M = make_case_study(case), FRAMES[frame]
    M_inv = np.linalg.inv(M)
    P0 = M.dot(p.P0).dot(M.T)
    config = {
        "model": "gbm",
        "params": {
            "A": M.dot(p.A).dot(M_inv).tolist(),
            "B": M.dot(p.B).dot(M_inv).tolist(),
            "m0": M.dot(p.m0).tolist(),
        },
        "P0": (0.5 * (P0 + P0.T)).tolist(),
        "grid": {"t0": p.t0, "t1": p.t1, "points": p.points},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", path, "--out", tmp]) == 0
        with open(os.path.join(tmp, "errors.csv")) as fh:
            return [line.split(",") for line in fh.read().splitlines()[1:]]


def _columns(case, frame, column, tail=False):
    """{integrator: (original cells, cells in ``frame``)} of one column, over
    the rows whose original cell is a number.  ``tail`` selects case1's Lie
    rows from t = LIE_TAIL_T, which are otherwise left out."""
    cells = {}
    for a, b in zip(_rows(case, "identity"), _rows(case, frame)):
        in_tail = case == "case1" and a[1] in LIE and float(a[0]) >= LIE_TAIL_T
        if in_tail == tail and a[column] not in (NOT_ON_MANIFOLD, NOT_RESOLVED):
            pair = cells.setdefault(a[1], ([], []))
            pair[0].append(float(a[column]))
            pair[1].append(float(b[column]))
    return cells


@pytest.mark.parametrize("frame", MOVED)
@pytest.mark.parametrize("case", PRESETS)
def test_spd_flags_identical(case, frame):
    original, moved = _rows(case, "identity"), _rows(case, frame)
    assert [r[:2] for r in moved] == [r[:2] for r in original]
    assert [(r[4], r[AFFINE] == NOT_RESOLVED) for r in moved] == [
        (r[4], r[AFFINE] == NOT_RESOLVED) for r in original
    ]


@pytest.mark.parametrize("frame", MOVED)
@pytest.mark.parametrize("case", PRESETS)
def test_affine_cells_agree(case, frame):
    for name, (original, moved) in _columns(case, frame, AFFINE).items():
        bound = CASE1_AFFINE[name] if case == "case1" else CASE2_AFFINE
        np.testing.assert_allclose(
            moved, original, rtol=bound, atol=AFFINE_FLOOR, err_msg=name
        )


@pytest.mark.parametrize("frame", ROTATIONS)
@pytest.mark.parametrize("case", PRESETS)
def test_frobenius_cells_agree_under_rotations(case, frame):
    for name, (original, moved) in _columns(case, frame, FROB).items():
        np.testing.assert_allclose(moved, original, rtol=FROB_ROTATION, err_msg=name)


@pytest.mark.xfail(
    strict=True,
    reason="case1's Lie rows change with the frame from t = 1.3 (ROADMAP item "
    "19: over 8 random rotations, rkmk4 by up to 300% from t = 1.31 and "
    "lie_euler by up to 110% from t = 1.79); here rkmk4 moves by 99% under "
    "a rotation and lie_euler by 5%",
)
@pytest.mark.parametrize("frame", MOVED)
def test_case1_lie_tail_agrees(frame):
    for name, (original, moved) in _columns("case1", frame, AFFINE, tail=True).items():
        np.testing.assert_allclose(
            moved, original, rtol=CASE1_AFFINE[name], atol=AFFINE_FLOOR,
            err_msg=name,
        )
