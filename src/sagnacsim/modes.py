"""Hermite-Gauss and Laguerre-Gauss transverse modes at the beam waist.

Everything here lives in the waist plane (z = 0), where the Hermite-Gauss
field is real and separable:

    HG_nm(x, y) = h_n(x) h_m(y)
    h_n(x) = (sqrt(2)/w0)^(1/2) psi_n(sqrt(2) x / w0)

with psi_n the unit-normalized 1-D oscillator function, so that the 2-D
profile carries the usual amplitude A_nm = sqrt(2 / (2^(n+m) pi n! m!)).
The sorter model downstream is z-independent in the ideal case, so no Gouy
phase or wavefront curvature is tracked.

Beam states are finite complex expansions over the HG basis
(:class:`ModeExpansion`), stored as one coefficient vector per total
order.  Every grid image is the separable product Hy^T C Hx of
:func:`evaluate_expansion`; overlap decomposition, parity labels, and
transverse rotation operators complete the toolkit.  Rotations, and the
Sagnac stages built on them, are diagonal multiplies between
:func:`_to_oam` and :func:`_from_oam`, which carry the blocks to the LG
amplitudes of each order and back.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Literal, NamedTuple

import numpy as np

# Factorial of 171 overflows a double; reject orders past this point.
MAX_ORDER = 170

# Default sampling window: resolves mode orders up to ~8 with orthonormality
# errors well below 1e-6 (verified in the test suite).
DEFAULT_HALF_WIDTH_W0 = 8.0
DEFAULT_SAMPLES = 256

Parity = Literal["even", "odd"]

# i^k indexed by k mod 4, exact where complex powers round.
_I_POWERS = np.array([1, 1j, -1, -1j])


class HGIndex(NamedTuple):
    """Hermite-Gauss index pair; n counts x nodes, m counts y nodes."""

    n: int
    m: int

    @property
    def order(self) -> int:
        return self.n + self.m


class LGIndex(NamedTuple):
    """Laguerre-Gauss index pair; p radial, l azimuthal (signed OAM)."""

    p: int
    l: int

    @property
    def order(self) -> int:
        return 2 * self.p + abs(self.l)


@dataclass(frozen=True)
class BeamGeometry:
    """Waist radius and wavelength of the underlying Gaussian beam.

    The wavelength never enters waist-plane field values; it is carried so
    that downstream fiber calculations can relate the beam to a guided-mode
    scale.
    """

    w0: float
    wavelength: float = 633e-9

    def __post_init__(self):
        if not 0 < self.w0 < math.inf:
            raise ValueError("waist radius w0 must be positive and finite")
        if not 0 < self.wavelength < math.inf:
            raise ValueError("wavelength must be positive and finite")


def _check_index(idx) -> HGIndex:
    if not all(isinstance(v, (int, np.integer)) for v in idx):
        raise ValueError(f"HG indices must be integers, got {tuple(idx)}")
    idx = HGIndex(int(idx[0]), int(idx[1]))
    if idx.n < 0 or idx.m < 0:
        raise ValueError(f"HG indices must be nonnegative, got {idx}")
    if idx.order > MAX_ORDER:
        raise ValueError(f"order too large: n+m={idx.order} exceeds {MAX_ORDER}")
    return idx


def _check_norm(state) -> None:
    """Reject a state whose squared norm overflows, which would make every
    power computed from it nan."""
    if not math.isfinite(state.norm_sq()):
        raise ValueError("state norm is not finite: amplitudes too large")


def hermite_gauss_ladder(nmax: int, x, w0: float) -> np.ndarray:
    """All 1-D waist-plane Hermite-Gauss factors h_0..h_nmax at points x.

    Uses the stable normalized three-term recurrence, so it is safe at
    orders where 2^n n! would overflow.  Returns an array of shape
    (nmax + 1,) + shape(x).
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if nmax > MAX_ORDER:
        raise ValueError(f"order too large: {nmax} exceeds {MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    u = math.sqrt(2.0) * x / w0
    scale = math.sqrt(math.sqrt(2.0) / w0)
    out = np.empty((nmax + 1,) + u.shape, dtype=float)
    phi_prev = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    out[0] = scale * phi_prev
    if nmax == 0:
        return out
    phi = math.sqrt(2.0) * u * phi_prev
    out[1] = scale * phi
    for k in range(1, nmax):
        phi, phi_prev = (
            math.sqrt(2.0 / (k + 1)) * u * phi - math.sqrt(k / (k + 1)) * phi_prev,
            phi,
        )
        out[k + 1] = scale * phi
    return out


def hg_field_at(idx: HGIndex, x, y, geom: BeamGeometry):
    """Waist-plane HG_nm field value(s) at x, y (scalars or arrays).

    Real-valued at the waist.  Raises for orders beyond MAX_ORDER, where
    the normalization factorials overflow.
    """
    idx = _check_index(idx)
    hx = hermite_gauss_ladder(idx.n, x, geom.w0)[idx.n]
    hy = hermite_gauss_ladder(idx.m, y, geom.w0)[idx.m]
    return hx * hy


class ModeExpansion:
    """Finite complex expansion over the HG basis, stored per total order.

    ``blocks`` maps a total order o to a read-only complex vector of length
    o + 1 whose entry n multiplies HG_{n, o-n}; only blocks holding a
    nonzero coefficient are kept.  ``terms`` is a read-only mapping derived
    from the blocks, without exact zeros.  The squared norm is reported by
    :meth:`norm_sq` and never silently renormalized.
    """

    __slots__ = ("blocks", "geometry")

    def __init__(self, terms, geometry: BeamGeometry):
        self.blocks = {}
        for idx, amp in dict(terms).items():
            # Validated before anything is allocated for it: a block holds
            # at most MAX_ORDER + 1 entries.
            idx, amp = _check_index(HGIndex(*idx)), complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {idx}")
            if amp != 0:
                if idx.order not in self.blocks:
                    self.blocks[idx.order] = np.zeros(idx.order + 1, complex)
                self.blocks[idx.order][idx.n] = amp
        for block in self.blocks.values():
            block.setflags(write=False)
        _check_norm(self)
        self.geometry = geometry

    def _with_blocks(self, blocks) -> "ModeExpansion":
        """This expansion's geometry with the nonzero ``blocks``, unvalidated."""
        out = object.__new__(ModeExpansion)
        out.blocks = {o: block for o, block in blocks.items() if np.count_nonzero(block)}
        for block in out.blocks.values():
            block.setflags(write=False)
        out.geometry = self.geometry
        return out

    @property
    def terms(self) -> Mapping[HGIndex, complex]:
        """Read-only mapping of the nonzero coefficients."""
        return MappingProxyType({
            HGIndex(n, o - n): complex(block[n])
            for o, block in self.blocks.items()
            for n in np.flatnonzero(block).tolist()
        })

    def coeff(self, idx) -> complex:
        idx = HGIndex(*idx)
        block = self.blocks.get(idx.order)
        if block is None or min(idx) < 0:
            return 0j
        return complex(block[idx.n])

    def norm_sq(self) -> float:
        return float(sum(np.vdot(block, block).real for block in self.blocks.values()))

    def max_order(self) -> int:
        return max(self.blocks, default=0)

    def normalized(self) -> "ModeExpansion":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot normalize a zero expansion")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> "ModeExpansion":
        return self._with_blocks({o: block * factor for o, block in self.blocks.items()})

    def inner(self, other: "ModeExpansion") -> complex:
        """Hilbert-space inner product <self|other> (conjugate on self)."""
        return complex(sum(
            (np.vdot(block, other.blocks[o]) for o, block in self.blocks.items() if o in other.blocks),
            0j,
        ))

    def __add__(self, other: "ModeExpansion") -> "ModeExpansion":
        out = dict(self.blocks)
        for o, block in other.blocks.items():
            out[o] = out[o] + block if o in out else block
        return self._with_blocks(out)

    def __sub__(self, other: "ModeExpansion") -> "ModeExpansion":
        return self + other.scaled(-1.0)

    def pruned(self, tol: float = 0.0) -> "ModeExpansion":
        """Drop terms with |amplitude| <= tol (exact zeros by default)."""
        return self._with_blocks(
            {o: np.where(np.abs(block) > tol, block, 0j) for o, block in self.blocks.items()}
        )

    def __repr__(self):
        inside = ", ".join(
            f"({i.n},{i.m}): {a:.6g}" for i, a in sorted(self.terms.items())
        )
        return f"ModeExpansion({{{inside}}}, w0={self.geometry.w0:g})"


@dataclass(frozen=True)
class GridSpec:
    """Square sampling window: physical half width and samples per side.

    Samples are pixel-centered, so an even count gives a grid symmetric
    under x -> -x and y -> -y without a sample pinned at the origin.
    """

    half_width: float
    samples_per_side: int = DEFAULT_SAMPLES

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        n = self.samples_per_side
        if n < 16 or n % 2 != 0:
            raise ValueError("samples_per_side must be even and at least 16")
        if not math.isfinite(self.dx):
            raise ValueError("half_width is too large: the sample spacing is not finite")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.samples_per_side

    def axis(self) -> np.ndarray:
        n = self.samples_per_side
        return (np.arange(n) - (n - 1) / 2.0) * self.dx


def default_grid(geom: BeamGeometry, samples: int = DEFAULT_SAMPLES) -> GridSpec:
    return GridSpec(DEFAULT_HALF_WIDTH_W0 * geom.w0, samples)


@dataclass
class GridField:
    """Complex field sampled on a GridSpec; values[i, j] sits at (x_j, y_i)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.spec.samples_per_side
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (n, n):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {(n, n)}"
            )

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.spec.dx**2)

    def inner(self, other: "GridField") -> complex:
        if other.spec != self.spec:
            raise ValueError("grid specs differ")
        return complex(np.sum(np.conj(self.values) * other.values) * self.spec.dx**2)


def _coeff_matrix(expansion: ModeExpansion) -> np.ndarray:
    """Nonempty expansion as the matrix C[m, n] over its occupied n and m ranges."""
    occupied = [(o, np.flatnonzero(block), block) for o, block in expansion.blocks.items()]
    nmax = max(n[-1] for _o, n, _block in occupied)
    mmax = max(o - n[0] for o, n, _block in occupied)
    coeff = np.zeros((mmax + 1, nmax + 1), dtype=complex)
    for o, n, block in occupied:
        coeff[o - n, n] = block[n]
    return coeff


def sample_mode(expansion: ModeExpansion, spec: GridSpec) -> GridField:
    """The expansion rendered on a grid by :func:`evaluate_expansion`."""
    axis = spec.axis()
    return GridField(spec, evaluate_expansion(expansion, axis, axis))


def evaluate_expansion(expansion: ModeExpansion, xs, ys) -> np.ndarray:
    """Field of an expansion on the grid of 1-D axes xs and ys, with pixel
    [i, j] at (xs[j], ys[i]): the sum over C[m, n] h_n(x) h_m(y) as one
    product Hy^T C Hx of the coefficient matrix and a ladder per axis.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("evaluate_expansion takes 1-D x and y axes")
    if not expansion.blocks:
        return np.zeros((len(ys), len(xs)), dtype=complex)
    w0 = expansion.geometry.w0
    coeff = _coeff_matrix(expansion)
    hx = hermite_gauss_ladder(coeff.shape[1] - 1, xs, w0)
    hy = hermite_gauss_ladder(coeff.shape[0] - 1, ys, w0)
    return hy.T @ coeff @ hx


def sample_lg(idx: LGIndex, geom: BeamGeometry, spec: GridSpec) -> GridField:
    """Grid samples of the LG_p^l waist-plane profile, unit discrete norm.

    Synthesized from the exact HG expansion of :func:`lg_to_hg`, so the
    profile is r^|l| L_p^|l|(2 r^2 / w0^2) exp(-r^2 / w0^2) exp(i l phi) up to
    a positive factor.
    """
    field = sample_mode(lg_to_hg(idx, geom), spec)
    norm = math.sqrt(field.norm_sq())
    if norm == 0.0:
        raise ValueError("grid does not resolve the requested LG mode")
    return GridField(spec, field.values / norm)


def lg_to_hg(idx: LGIndex, geom: BeamGeometry) -> ModeExpansion:
    """LG_p^l as a unit-norm HG expansion over the order N = 2p + |l| block.

    LG_p^l is HG_{n, N-n} with n = (N + l)/2 rotated by -45 degrees, with a
    quarter-wave phase i^k on each HG_{k, N-k} (the cylindrical-lens mode
    converter of Beijersbergen et al., Opt. Commun. 96, 123 (1993)).  The
    global phase (-i)^|l| makes the field r^|l| L_p^|l|(2 r^2 / w0^2)
    exp(-r^2 / w0^2) exp(i l phi) times a positive constant, e.g.
    LG_0^{+1} = (HG_10 + i HG_01)/sqrt(2).  Exact to roundoff at every order
    up to MAX_ORDER.
    """
    idx = LGIndex(int(idx[0]), int(idx[1]))
    if idx.p < 0:
        raise ValueError("radial index p must be nonnegative")
    order = idx.order
    if order > MAX_ORDER:
        raise ValueError(f"order too large: {order} exceeds {MAX_ORDER}")
    column = rotation_matrix(order, -math.pi / 4)[:, (order + idx.l) // 2]
    amps = column * _I_POWERS[(np.arange(order + 1) - abs(idx.l)) % 4]
    return ModeExpansion({}, geom)._with_blocks({order: amps})


def _lobe_samples(spec: GridSpec, geom: BeamGeometry, order: int) -> float:
    """Approximate samples per lobe of the highest 1-D factor at this order."""
    if order == 0:
        lobe = 2.0 * geom.w0
    else:
        turning = geom.w0 * math.sqrt(order + 0.5)
        lobe = 2.0 * turning / (order + 1)
    return lobe / spec.dx


def decompose_grid(
    field: GridField, geom: BeamGeometry, max_order: int
) -> tuple[ModeExpansion, float]:
    """Project a sampled field onto HG modes of order <= max_order.

    Returns the expansion of discrete inner products together with the
    residual power (field norm^2 minus captured power).  Rejects grids with
    fewer than 6 samples per lobe of the highest requested mode.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    if max_order > MAX_ORDER:
        raise ValueError(f"order too large: {max_order} exceeds {MAX_ORDER}")
    if _lobe_samples(field.spec, geom, max_order) < 6.0:
        raise ValueError("grid under-resolved for requested order")
    h = hermite_gauss_ladder(max_order, field.spec.axis(), geom.w0)
    # c_nm = sum_ij h[m, i] h[n, j] F[i, j] dx^2, batched as H F H^T.
    coeffs = (h @ field.values @ h.T) * field.spec.dx**2
    out = ModeExpansion({}, geom)._with_blocks({
        o: coeffs[o - np.arange(o + 1), np.arange(o + 1)] for o in range(max_order + 1)
    })
    return out, field.norm_sq() - out.norm_sq()


def parity_2d(idx: HGIndex) -> Parity:
    """Parity under the point inversion E(x, y) -> E(-x, -y)."""
    idx = HGIndex(*idx)
    return "even" if (idx.n + idx.m) % 2 == 0 else "odd"


def parity_1d(idx: HGIndex) -> Parity:
    """Parity under the single-axis mirror E(x, y) -> E(-x, y)."""
    idx = HGIndex(*idx)
    return "even" if idx.n % 2 == 0 else "odd"


def oam_phase(idx: LGIndex, angle: float) -> complex:
    """Rotation eigenvalue exp(-i l angle) of an LG mode.

    Sign convention: a beam rotated anticlockwise by angle multiplies its
    LG_l component by exp(-i l angle).
    """
    idx = LGIndex(int(idx[0]), int(idx[1]))
    return cmath.exp(-1j * idx.l * angle)


# ---------------------------------------------------------------------------
# Transverse rotation operators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _lg_basis(order: int) -> np.ndarray:
    """Unitary whose column k is an LG mode of this order with l = order - 2k.

    The rotation generator a_x+ a_y - a_y+ a_x is tridiagonal on the
    HG_{n, order-n} block; conjugated by diag(i^n) it becomes the real
    symmetric matrix with off-diagonals sqrt((n+1)(order-n)), whose
    eigenvalues are exactly -order, -order+2, ..., order = -l.  Column
    phases are whatever LAPACK returns.  Read-only, as it is shared.
    """
    n = np.arange(order)
    off = np.sqrt((n + 1.0) * (order - n))
    _eigenvalues, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    basis = _I_POWERS[np.arange(order + 1) % 4, None] * vecs
    basis.setflags(write=False)
    return basis


def rotation_matrix(order: int, angle: float) -> np.ndarray:
    """Rotation of the HG basis restricted to one total order.

    Basis ordering is n = 0..order (so column n acts on HG_{n, order-n}).
    Built as V diag(exp(-i l angle)) V^dagger from the cached per-order LG
    basis V (see :func:`_lg_basis`), so it does not depend on the
    eigenvector phases and is unitary to ~1e-15 at every order up to
    MAX_ORDER.  HG_10 goes to cos(angle) HG_10 + sin(angle) HG_01, i.e. for
    order 1 the matrix on (c_01, c_10) is [[cos, sin], [-sin, cos]].
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"order too large: {order} exceeds {MAX_ORDER}")
    basis = _lg_basis(order)
    l = np.arange(order, -order - 1, -2)
    return ((basis * np.exp(-1j * l * angle)) @ basis.conj().T).real


def _to_oam(blocks) -> tuple[np.ndarray, np.ndarray]:
    """LG amplitudes of per-order blocks, with their l values.

    Each block c of order o becomes w = V^dagger c over the LG modes of that
    order (:func:`_lg_basis`); the amplitudes of all blocks are concatenated
    in the blocks' key order.  Every rotation and Sagnac port is diagonal in
    this basis.
    """
    w = [np.zeros(0, dtype=complex)]
    l = [np.zeros(0, dtype=int)]
    for o, block in blocks.items():
        w.append(block @ _lg_basis(o).conj())
        l.append(np.arange(o, -o - 1, -2))
    return np.concatenate(w), np.concatenate(l)


def _from_oam(orders, w: np.ndarray) -> dict[int, np.ndarray]:
    """Per-order blocks V w of amplitudes laid out by :func:`_to_oam` for ``orders``."""
    blocks = {}
    start = 0
    for o in orders:
        blocks[o] = _lg_basis(o) @ w[start:start + o + 1]
        start += o + 1
    return blocks


def rotate_exact(expansion: ModeExpansion, angle: float) -> ModeExpansion:
    """Rotate an expansion by multiplying its LG amplitudes by exp(-i l angle).

    Unitary to machine precision at every order up to MAX_ORDER.
    """
    w, l = _to_oam(expansion.blocks)
    return expansion._with_blocks(_from_oam(expansion.blocks, w * np.exp(-1j * l * angle)))


def rotate_field_bilinear(field: GridField, angle: float) -> GridField:
    """Rotate a sampled field by resampling with bilinear interpolation.

    Source points falling outside the sampled window read as zero.
    """
    xs = field.spec.axis()
    n = field.spec.samples_per_side
    dx = field.spec.dx
    X, Y = np.meshgrid(xs, xs)
    c, s = math.cos(angle), math.sin(angle)
    # The rotated field at (x, y) is the source field at R(-angle)(x, y).
    xs_src = c * X + s * Y
    ys_src = -s * X + c * Y
    fx = (xs_src - xs[0]) / dx
    fy = (ys_src - xs[0]) / dx
    i0 = np.floor(fy).astype(int)
    j0 = np.floor(fx).astype(int)
    ty = fy - i0
    tx = fx - j0
    values = np.zeros((n, n), dtype=complex)
    src = field.values
    for di, dj, w in (
        (0, 0, (1 - ty) * (1 - tx)),
        (0, 1, (1 - ty) * tx),
        (1, 0, ty * (1 - tx)),
        (1, 1, ty * tx),
    ):
        ii = i0 + di
        jj = j0 + dj
        ok = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
        contrib = np.zeros_like(values)
        contrib[ok] = src[ii[ok], jj[ok]] * w[ok]
        values += contrib
    return GridField(field.spec, values)


def rotate_grid(
    expansion: ModeExpansion,
    angle: float,
    spec: GridSpec | None = None,
    max_order: int | None = None,
) -> tuple[ModeExpansion, float]:
    """Grid route for rotation: sample, resample, decompose, renormalize.

    Kept as an independent cross-check of :func:`rotate_exact` (about 1e-3
    coefficient error at order 6 on the default grid).  Rotation is unitary
    in the model, so the decomposed result is rescaled back to the input
    norm; the captured-power fraction before rescaling is returned so
    callers can bound the interpolation loss.
    """
    if spec is None:
        spec = default_grid(expansion.geometry)
    if max_order is None:
        max_order = expansion.max_order()
    norm_in = expansion.norm_sq()
    if norm_in == 0.0:
        return ModeExpansion({}, expansion.geometry), 0.0
    fld = sample_mode(expansion, spec)
    rotated = rotate_field_bilinear(fld, angle)
    out, _residual = decompose_grid(rotated, expansion.geometry, max_order)
    captured = out.norm_sq() / norm_in
    if captured == 0.0:
        raise ValueError("grid rotation captured no power; grid too coarse")
    out = out.scaled(math.sqrt(norm_in / out.norm_sq()))
    return out, captured


def rotate_expansion(expansion: ModeExpansion, angle: float) -> ModeExpansion:
    """Rotate the transverse profile anticlockwise by the given angle.

    Multiples of pi use the exact coefficientwise parity factor
    (-1)^(n+m) per half turn; every other angle goes through
    :func:`rotate_exact`.
    """
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    reduced = angle % (2.0 * math.pi)
    if min(reduced, 2.0 * math.pi - reduced) < 1e-12:
        return expansion._with_blocks(expansion.blocks)
    if abs(reduced - math.pi) < 1e-12:
        return expansion._with_blocks(
            {o: -block if o % 2 else block for o, block in expansion.blocks.items()}
        )
    return rotate_exact(expansion, angle)
