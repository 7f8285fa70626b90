"""Helicity-vector geometry of out-of-plane mirror paths.

A beam path through mirrors defines helicity vectors h_j = (-1)^n k_j with
n the number of prior reflections.  Plotted on the unit sphere and joined
by geodesics, the vectors enclose a signed area equal to the transverse
image rotation angle the mirror sequence imparts.  For the isosceles
Sagnac used here the helicity triangle has arcs (pi/2, pi - 2*theta, pi/2)
and the area collapses to the closed form cos(Omega/2) = sin(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
CLOSE_TOL = 1e-9


def _as_unit(v, tol: float = UNIT_TOL) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("direction vectors must be 3-vectors")
    if abs(np.linalg.norm(v) - 1.0) > tol:
        raise ValueError("non-unit input vectors")
    return v


@dataclass(frozen=True)
class MirrorPath:
    """Ordered unit propagation directions between reflections."""

    segments: tuple

    def __init__(self, segments):
        segs = tuple(_as_unit(s) for s in segments)
        if len(segs) < 2:
            raise ValueError("a mirror path needs at least 2 segments")
        for a, b in zip(segs, segs[1:]):
            if float(np.dot(a, b)) < -1.0 + UNIT_TOL:
                raise ValueError("consecutive segments are antiparallel")
        object.__setattr__(self, "segments", segs)


@dataclass(frozen=True)
class HelicitySequence:
    """Helicity vectors of a path, one per segment."""

    vectors: tuple

    def __len__(self):
        return len(self.vectors)


def helicity_from_path(path: MirrorPath) -> HelicitySequence:
    """Alternating-sign helicity vectors h_j = (-1)^j k_j (j prior reflections).

    If the final vector closes back onto the first (within 1e-9) the closing
    duplicate is dropped, leaving only the unique loop points.
    """
    vecs = [((-1.0) ** j) * k for j, k in enumerate(path.segments)]
    if len(vecs) > 2 and np.linalg.norm(vecs[-1] - vecs[0]) < CLOSE_TOL:
        vecs.pop()
    return HelicitySequence(tuple(vecs))


def helicity_triangle_angles(seq: HelicitySequence) -> tuple[float, float, float]:
    """Arc angles between consecutive helicity vectors of a triangular loop."""
    if len(seq) != 3:
        raise ValueError("helicity loop is not a triangle")
    v = seq.vectors
    dots = [float(np.dot(v[i], v[(i + 1) % 3])) for i in range(3)]
    return tuple(math.acos(max(-1.0, min(1.0, d))) for d in dots)


def euler_area(alpha: float, beta: float, gamma: float) -> float:
    """Spherical area of a geodesic triangle with side arcs alpha, beta, gamma.

    Uses the half-angle relation

        cos(Omega/2) = (1 + cos a + cos b + cos g)
                       / (4 cos(a/2) cos(b/2) cos(g/2))

    The arcs are angles (arccos of the helicity dot products); treating the
    dot products themselves as the arguments would be dimensionally
    inconsistent.  Returns unsigned Omega in [0, 2*pi]; orientation is the
    caller's concern.
    """
    for name, ang in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not 0.0 < ang < math.pi:
            raise ValueError(f"{name} must lie strictly between 0 and pi")
    denom = 4.0 * math.cos(alpha / 2) * math.cos(beta / 2) * math.cos(gamma / 2)
    if abs(denom) < 1e-12:
        raise ValueError("degenerate spherical triangle")
    rhs = (1.0 + math.cos(alpha) + math.cos(beta) + math.cos(gamma)) / denom
    if rhs > 1.0 + CLOSE_TOL or rhs < -1.0 - CLOSE_TOL:
        raise ValueError(f"invalid triangle: cos(Omega/2) = {rhs}")
    rhs = max(-1.0, min(1.0, rhs))
    return 2.0 * math.acos(rhs)


def omega_from_theta(theta: float) -> float:
    """Image rotation angle for base angle theta: cos(Omega/2) = sin(theta).

    Continuous branch Omega = 2 arccos(sin theta), symmetric about
    theta = pi/2.  The raw arccos is exposed by this same expression, so
    callers comparing other branch conventions can evaluate it directly.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    return 2.0 * math.acos(math.sin(theta))


def psi_from_omega(omega: float) -> float:
    """Relative rotation (mod pi) between the counter-propagating beams."""
    if not 0.0 <= omega <= 2.0 * math.pi:
        raise ValueError("omega must lie in [0, 2*pi]")
    return math.pi - abs(2.0 * omega - math.pi)


def theta_for_psi(psi: float) -> float:
    """Base angle in [pi/4, pi/2] realizing a requested relative rotation.

    On this branch omega = pi - 2*theta and psi = 2*omega, so
    theta = pi/2 - psi/4 exactly: psi = pi, pi/2, pi/4, ... gives the stage
    sequence theta = pi/4, 3*pi/8, 7*pi/16, ...
    """
    if not 0.0 < psi <= math.pi:
        raise ValueError("psi must lie in (0, pi]")
    return math.pi / 2 - psi / 4


def build_sagnac_path(theta: float) -> MirrorPath:
    """Anticlockwise four-segment Sagnac path for base angle theta.

    The beam enters along +z, traces the two congruent sides of an
    isosceles triangle lying in the x-y plane (base angles theta), and
    returns along -z.  The resulting helicity triangle has arcs
    (pi/2, pi - 2*theta, pi/2).
    """
    if not 0.0 < theta < math.pi / 2:
        raise ValueError("theta must lie strictly between 0 and pi/2")
    c, s = math.cos(theta), math.sin(theta)
    return MirrorPath(
        (
            np.array([0.0, 0.0, 1.0]),
            np.array([c, s, 0.0]),
            np.array([c, -s, 0.0]),
            np.array([0.0, 0.0, -1.0]),
        )
    )


def sweep_theta(count: int, lo: float = 0.0, hi: float = math.pi / 2):
    """Yield (theta, omega, psi) rows over a uniform theta grid."""
    if count < 2:
        raise ValueError("sample count must be at least 2")
    for i in range(count):
        theta = lo + (hi - lo) * i / (count - 1)
        omega = omega_from_theta(theta)
        yield theta, omega, psi_from_omega(omega)
