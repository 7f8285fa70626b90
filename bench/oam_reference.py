"""Independent OAM reference used to check every benchmark operation.

Nothing here imports sagnacsim.  Each total order N of the Hermite-Gauss
basis is an invariant block of the transverse rotation.  On the block,
ordered by n = 0..N (the mode HG_{n, N-n}), the rotation generator is
tridiagonal with off-diagonal entries sqrt((n + 1)(N - n)); its eigenvalues
are the OAM values l = -N, -N + 2, ..., N and its eigenvectors are the
Laguerre-Gauss modes (Beijersbergen et al., Opt. Commun. 96, 123 (1993)).
The sign of l is fixed by the documented LG_0^{+1} = (HG10 + i HG01)/sqrt(2)
and a rotation by alpha multiplies LG_l by exp(-i l alpha).

From the eigenbasis follow, for a stage with base angle theta and device
phase phi, Omega = 2 arccos(sin theta):

- the port-A power fraction sum_l w_l cos^2(l Omega + phi/2);
- the depth-d cascade leaf "r mod 2^d" power sum_{l = r mod 2^d} w_l;
- the biphoton port operators (1 +- e^{i phi} R(-2 Omega))/2 in the output
  frame, so branch XY has amplitude matrix P_X C P_Y^T.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# The documented first-order LG mode that carries l = +1.
LG_PLUS_ONE = {(1, 0): 1.0 / math.sqrt(2.0), (0, 1): 1j / math.sqrt(2.0)}


@functools.lru_cache(maxsize=None)
def _generator_eigenbasis(order: int) -> tuple[np.ndarray, np.ndarray]:
    n = np.arange(order)
    off = np.sqrt((n + 1.0) * (order - n))
    generator = np.diag(off, 1) + np.diag(off, -1)
    eigvals, vecs = np.linalg.eigh(generator)
    rounded = np.rint(eigvals)
    if np.max(np.abs(eigvals - rounded), initial=0.0) > 1e-8:
        raise ArithmeticError(f"generator spectrum of order {order} is not integral")
    # The factor i^n turns the real tridiagonal generator into the
    # angular-momentum operator whose eigenvectors are the LG modes.
    basis = (1j ** np.arange(order + 1))[:, None] * vecs
    return rounded.astype(int), basis


def order_blocks(terms) -> dict[int, np.ndarray]:
    """Group ``((n, m), amplitude)`` pairs into per-order vectors indexed by n."""
    blocks: dict[int, np.ndarray] = {}
    for (n, m), amp in terms:
        order = n + m
        block = blocks.setdefault(order, np.zeros(order + 1, dtype=complex))
        block[n] += amp
    return blocks


def _sign_of_l() -> int:
    eigvals, basis = _generator_eigenbasis(1)
    (vec,) = order_blocks(LG_PLUS_ONE.items()).values()
    weights = np.abs(basis.conj().T @ vec) ** 2
    return int(eigvals[int(np.argmax(weights))])


L_SIGN = _sign_of_l()


def lg_basis(order: int) -> tuple[np.ndarray, np.ndarray]:
    """OAM values l and LG columns over HG_{n, order-n}, n = 0..order."""
    eigvals, basis = _generator_eigenbasis(order)
    return L_SIGN * eigvals, basis


def oam_weights(terms) -> dict[int, float]:
    """Power in each OAM value l of an HG expansion given as (index, amp) pairs."""
    weights: dict[int, float] = {}
    for order, vec in order_blocks(terms).items():
        ls, basis = lg_basis(order)
        for l, w in zip(ls.tolist(), (np.abs(basis.conj().T @ vec) ** 2).tolist()):
            weights[l] = weights.get(l, 0.0) + w
    return weights


def omega(theta: float) -> float:
    """Image rotation of the isosceles out-of-plane Sagnac: cos(Omega/2) = sin(theta)."""
    return 2.0 * math.acos(math.sin(theta))


def port_a_fraction(weights: dict[int, float], theta: float, phi: float) -> float:
    big_omega = omega(theta)
    total = sum(weights.values())
    return sum(w * math.cos(l * big_omega + phi / 2.0) ** 2 for l, w in weights.items()) / total


def leaf_fractions(weights: dict[int, float], depth: int) -> dict[str, float]:
    """Power fraction at each leaf "r mod 2^depth" of the residue cascade."""
    modulus = 2**depth
    total = sum(weights.values())
    out = {f"{r} mod {modulus}": 0.0 for r in range(modulus)}
    for l, w in weights.items():
        out[f"{l % modulus} mod {modulus}"] += w / total
    return out


def rotation(order: int, angle: float) -> np.ndarray:
    """R(angle) on the order block: V diag(exp(-i l angle)) V^dagger."""
    ls, basis = lg_basis(order)
    return (basis * np.exp(-1j * ls * angle)) @ basis.conj().T


def frame_port_operators(index, theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-photon port operators P_A, P_B over an HG index list, output frame."""
    position = {tuple(idx): k for k, idx in enumerate(index)}
    size = len(index)
    back = np.zeros((size, size), dtype=complex)
    for order in sorted({n + m for n, m in index}):
        rows = [position.get((n, order - n)) for n in range(order + 1)]
        if None in rows:
            raise ValueError(f"index list does not hold the whole order-{order} block")
        back[np.ix_(rows, rows)] = rotation(order, -2.0 * omega(theta))
    phase = complex(math.cos(phi), math.sin(phi))
    eye = np.eye(size, dtype=complex)
    return 0.5 * (eye + phase * back), 0.5 * (eye - phase * back)


def branch_amplitudes(coeffs: np.ndarray, index, theta: float, phi: float) -> dict[str, np.ndarray]:
    """Unnormalized branch amplitude matrices P_X C P_Y^T for X, Y in {A, B}."""
    ports = dict(zip("AB", frame_port_operators(index, theta, phi)))
    return {x + y: ports[x] @ coeffs @ ports[y].T for x in "AB" for y in "AB"}
