import numpy as np
import pytest

from boltzlab.errors import DomainError
from boltzlab.geometry import (
    Domain,
    classify_boundaries,
    classify_boundary,
    exit_times,
    sample_outgoing,
)

DISK = Domain("ball", 2, radius=1.0)
BALL3 = Domain("ball", 3, radius=1.0)
BOX2 = Domain("box", 2, lo=(0.0, 0.0), hi=(1.0, 1.0))


def _random_interior(domain, count, rng):
    lo, hi = domain.bounding_box()
    pts = []
    while len(pts) < count:
        x = rng.uniform(lo, hi)
        if domain.contains(x) and domain.boundary_distance(x) > 1e-6:
            pts.append(x)
    return np.array(pts)


def _tau(domain, x, v, sign=1):
    """exit_times at one phase point, as a length-1 batch."""
    return exit_times(domain, np.array([x], float), np.array([v], float), sign)[0]


def test_exit_time_disk_center():
    assert _tau(DISK, (0.0, 0.0), (1.0, 0.0), sign=1) == pytest.approx(1.0, abs=1e-15)


def test_exit_time_disk_offset_both_signs():
    # chord [(-1,0),(1,0)] traversed at speed 2 from x=0.5
    assert _tau(DISK, (0.5, 0.0), (2.0, 0.0), sign=1) == pytest.approx(0.25, abs=1e-14)
    assert _tau(DISK, (0.5, 0.0), (2.0, 0.0), sign=-1) == pytest.approx(0.75, abs=1e-14)


def test_exit_time_box_min_over_faces():
    # face hit times are 0.75 (x-face) and 0.5 (y-face); the minimum wins
    assert _tau(BOX2, (0.25, 0.5), (1.0, 1.0), sign=1) == pytest.approx(0.5, abs=1e-14)


def test_exit_time_zero_velocity_rejected():
    with pytest.raises(DomainError):
        _tau(DISK, (0.0, 0.0), (0.0, 0.0))


def test_exit_time_outside_rejected():
    with pytest.raises(DomainError):
        _tau(DISK, (2.0, 0.0), (1.0, 0.0))


def test_exit_point_lands_on_boundary():
    rng = np.random.default_rng(7)
    for domain in (DISK, BALL3, BOX2):
        X = _random_interior(domain, 200, rng)
        V = rng.normal(size=X.shape)
        tau = exit_times(domain, X, V, sign=1)
        hit = X + tau[:, None] * V
        assert np.all(np.abs(domain.boundary_distance(hit)) < 1e-10)


def test_reversal_identity():
    # tau_-(x, v) equals tau_+(x, -v) through the same code path
    rng = np.random.default_rng(8)
    for domain in (DISK, BALL3, BOX2):
        X = _random_interior(domain, 200, rng)
        V = rng.normal(size=X.shape)
        np.testing.assert_allclose(
            exit_times(domain, X, V, sign=-1),
            exit_times(domain, X, -V, sign=1),
            rtol=0, atol=1e-13,
        )


def test_chord_additivity():
    # moving a fraction of the way along the chord shortens tau_+ by exactly
    # that much and lengthens tau_- to the full chord complement
    rng = np.random.default_rng(9)
    for domain in (DISK, BOX2):
        X = _random_interior(domain, 100, rng)
        V = rng.normal(size=X.shape)
        tp = exit_times(domain, X, V, sign=1)
        step = 0.5 * tp
        Y = X + step[:, None] * V
        np.testing.assert_allclose(
            exit_times(domain, Y, V, sign=1), tp - step, rtol=1e-12, atol=1e-13
        )
        tm = exit_times(domain, X, V, sign=-1)
        np.testing.assert_allclose(
            exit_times(domain, Y, V, sign=-1), tm + step, rtol=1e-12, atol=1e-13
        )


def test_classify_boundary():
    assert classify_boundary(DISK, (0.0, 0.0), (1.0, 0.0)) == "interior"
    assert classify_boundary(DISK, (1.0, 0.0), (1.0, 0.0)) == "outgoing"
    assert classify_boundary(DISK, (1.0, 0.0), (-1.0, 0.5)) == "incoming"
    assert classify_boundary(DISK, (1.0, 0.0), (0.0, 1.0)) == "grazing"
    assert classify_boundary(BOX2, (1.0, 0.5), (1.0, 0.0)) == "outgoing"


def test_classify_boundaries_batch():
    # one call classifies mixed points as the one-point calls do
    for domain, X, V, want in (
            (DISK, [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, -1.0)],
             [(1.0, 0.0), (-1.0, 0.5), (0.0, 1.0), (0.3, -2.0)],
             ["interior", "incoming", "grazing", "outgoing"]),
            (BOX2, [(1.0, 0.5), (0.5, 0.0), (0.5, 0.5)],
             [(1.0, 0.0), (0.2, 1.0), (0.0, -1.0)],
             ["outgoing", "incoming", "interior"])):
        got = classify_boundaries(domain, np.array(X), np.array(V))
        assert got.tolist() == want
        assert [classify_boundary(domain, x, v) for x, v in zip(X, V)] == want
    # errors name the first offending point
    X = np.array([(0.0, 0.0), (2.0, 0.0), (0.0, 3.0)])
    with pytest.raises(DomainError, match="point 1 outside"):
        classify_boundaries(DISK, X, np.ones((3, 2)))
    V = np.array([(1.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
    with pytest.raises(DomainError, match="zero velocity at point 1"):
        classify_boundaries(DISK, np.zeros((3, 2)), V)


def test_sample_outgoing_classifies_outgoing():
    rng = np.random.default_rng(11)
    X, V = sample_outgoing(DISK, 25, rng)
    for x, v in zip(X, V):
        assert classify_boundary(DISK, x, v) == "outgoing"
