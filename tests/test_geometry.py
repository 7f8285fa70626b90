import math

import numpy as np
import pytest

from sagnacsim import geometry as G


def lhuilier_area(a, b, c):
    """Independent spherical-excess oracle from the three side arcs."""
    s = 0.5 * (a + b + c)
    t = (
        math.tan(s / 2)
        * math.tan((s - a) / 2)
        * math.tan((s - b) / 2)
        * math.tan((s - c) / 2)
    )
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


# ---------------------------------------------------------------------------
# helicity_from_path
# ---------------------------------------------------------------------------

def test_sagnac_quarter_helicity_triangle():
    seq = G.helicity_from_path(G.build_sagnac_path(math.pi / 4))
    assert len(seq) == 3
    for ang in G.helicity_triangle_angles(seq):
        assert ang == pytest.approx(math.pi / 2, abs=1e-12)


def test_mirror_path_validation():
    with pytest.raises(ValueError, match="non-unit"):
        G.MirrorPath((np.array([2.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])))
    with pytest.raises(ValueError, match="antiparallel"):
        G.MirrorPath((np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])))


# ---------------------------------------------------------------------------
# euler_area
# ---------------------------------------------------------------------------

def test_euler_octant():
    assert G.euler_area(math.pi / 2, math.pi / 2, math.pi / 2) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_euler_vanishing_triangle():
    assert G.euler_area(1e-4, 1e-4, 1e-4) < 1e-6


def test_euler_matches_lhuilier_on_random_triangles():
    rng = np.random.default_rng(19)
    for _ in range(200):
        pts = rng.normal(size=(3, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        arcs = [
            math.acos(max(-1.0, min(1.0, float(np.dot(pts[i], pts[(i + 1) % 3])))))
            for i in range(3)
        ]
        if min(arcs) < 1e-3 or max(arcs) > math.pi - 1e-3:
            continue
        assert G.euler_area(*arcs) == pytest.approx(
            lhuilier_area(*arcs), abs=1e-9
        )


def test_euler_rejects_invalid_triangle():
    with pytest.raises(ValueError, match="invalid triangle"):
        G.euler_area(0.1, 0.1, 1.0)


def test_euler_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        G.euler_area(math.pi - 1e-14, math.pi / 2, math.pi / 2)


def test_euler_rejects_out_of_range_angles():
    with pytest.raises(ValueError):
        G.euler_area(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        G.euler_area(1.0, math.pi, 1.0)


# ---------------------------------------------------------------------------
# omega / psi / theta
# ---------------------------------------------------------------------------

def test_omega_special_values():
    assert G.omega_from_theta(math.pi / 4) == pytest.approx(math.pi / 2, abs=1e-12)
    assert G.omega_from_theta(math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    assert G.omega_from_theta(3 * math.pi / 8) == pytest.approx(math.pi / 4, abs=1e-12)


def test_omega_symmetric_about_half_pi():
    for theta in (0.3, 0.8, 1.2):
        assert G.omega_from_theta(theta) == pytest.approx(
            G.omega_from_theta(math.pi - theta), abs=1e-12
        )


def test_psi_special_values():
    assert G.psi_from_omega(math.pi / 2) == pytest.approx(math.pi, abs=1e-12)
    assert G.psi_from_omega(0.0) == 0.0


def test_stage_chain():
    want = {math.pi / 4: math.pi, 3 * math.pi / 8: math.pi / 2,
            7 * math.pi / 16: math.pi / 4}
    for theta, psi in want.items():
        assert G.psi_from_omega(G.omega_from_theta(theta)) == pytest.approx(
            psi, abs=1e-12
        )


def test_psi_peaks_at_half_pi_omega():
    assert G.psi_from_omega(math.pi / 2) == pytest.approx(math.pi)
    for om in (0.4, 1.0):
        assert G.psi_from_omega(math.pi / 2 - om) == pytest.approx(
            G.psi_from_omega(math.pi / 2 + om), abs=1e-12
        )
        assert G.psi_from_omega(math.pi / 2 + om) < math.pi


def test_theta_for_psi_stage_list():
    assert G.theta_for_psi(math.pi) == pytest.approx(math.pi / 4, abs=1e-12)
    assert G.theta_for_psi(math.pi / 2) == pytest.approx(3 * math.pi / 8, abs=1e-12)
    assert G.theta_for_psi(math.pi / 4) == pytest.approx(7 * math.pi / 16, abs=1e-12)


def test_theta_for_psi_round_trip():
    for theta in np.linspace(math.pi / 4 + 0.01, math.pi / 2 - 0.01, 25):
        psi = G.psi_from_omega(G.omega_from_theta(theta))
        assert G.theta_for_psi(psi) == pytest.approx(theta, abs=1e-12)


def test_theta_for_psi_range_check():
    with pytest.raises(ValueError):
        G.theta_for_psi(0.0)
    with pytest.raises(ValueError):
        G.theta_for_psi(3.5)


# ---------------------------------------------------------------------------
# build_sagnac_path
# ---------------------------------------------------------------------------

def test_path_area_matches_closed_form_sweep():
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 100):
        path = G.build_sagnac_path(theta)
        seq = G.helicity_from_path(path)
        arcs = G.helicity_triangle_angles(seq)
        closed = G.omega_from_theta(theta)
        assert G.euler_area(*arcs) == pytest.approx(closed, abs=1e-9)
        assert lhuilier_area(*arcs) == pytest.approx(closed, abs=1e-9)


def test_path_apex_angle():
    theta = 0.9
    seq = G.helicity_from_path(G.build_sagnac_path(theta))
    alpha, beta, gamma = G.helicity_triangle_angles(seq)
    assert alpha == pytest.approx(math.pi / 2, abs=1e-12)
    assert gamma == pytest.approx(math.pi / 2, abs=1e-12)
    assert beta == pytest.approx(math.pi - 2 * theta, abs=1e-12)


def test_degenerate_limit():
    seq = G.helicity_from_path(G.build_sagnac_path(math.pi / 2 - 1e-4))
    area = G.euler_area(*G.helicity_triangle_angles(seq))
    assert abs(area) < 1e-3


def test_sweep_theta_rows():
    rows = list(G.sweep_theta(5))
    assert len(rows) == 5
    assert rows[0][0] == 0.0
    assert rows[0][1] == pytest.approx(math.pi, abs=1e-12)
    assert rows[-1][0] == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        list(G.sweep_theta(1))
