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
order.  Its block rules (read-only blocks, each holding a nonzero entry,
a finite norm, scaling, normalising and pruning) live in ``_Blocks``,
which the two-photon state of :mod:`sagnacsim.quantum` shares.  Every
grid image is the separable product Hy^T C Hx of
:func:`evaluate_expansion`; overlap decomposition, parity labels, and
transverse rotation operators complete the toolkit.  Rotations, and the
Sagnac stages built on them, are diagonal multiplies between
:func:`_to_oam` and :func:`_from_oam`, which carry the blocks to the LG
amplitudes of each order and back.  The LG basis of an order is real up to
the phases i^n, so both run as one real batched product per chunk of
consecutive orders (:func:`_chunk_basis`) on the amplitudes viewed as float
pairs.
"""

from __future__ import annotations

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
    """Waist radius of the underlying Gaussian beam."""

    w0: float

    def __post_init__(self):
        if not 0 < self.w0 < math.inf:
            raise ValueError("waist radius w0 must be positive and finite")


def _check_index(idx) -> HGIndex:
    if not all(isinstance(v, (int, np.integer)) for v in idx):
        raise ValueError(f"HG indices must be integers, got {tuple(idx)}")
    idx = HGIndex(int(idx[0]), int(idx[1]))
    if idx.n < 0 or idx.m < 0:
        raise ValueError(f"HG indices must be nonnegative, got {idx}")
    if idx.order > MAX_ORDER:
        raise ValueError(f"order too large: n+m={idx.order} exceeds {MAX_ORDER}")
    return idx


def _check_lg_index(idx) -> LGIndex:
    if not all(isinstance(v, (int, np.integer)) for v in idx):
        raise ValueError(f"LG indices must be integers, got {tuple(idx)}")
    idx = LGIndex(int(idx[0]), int(idx[1]))
    if idx.p < 0:
        raise ValueError("radial index p must be nonnegative")
    if idx.order > MAX_ORDER:
        raise ValueError(f"order too large: {idx.order} exceeds {MAX_ORDER}")
    return idx


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


class _Blocks:
    """Storage of both state types: ``blocks`` maps an order key to a read-only
    complex array holding a nonzero entry.  A subclass extends :meth:`_adopt`
    to carry its other fields and names itself in ``_noun`` for the errors."""

    __slots__ = ("blocks", "geometry", "_norm_sq")

    def _freeze(self) -> None:
        """Make the blocks read-only; reject an overflowing norm, which makes every power nan."""
        for block in self.blocks.values():
            block.setflags(write=False)
        self._norm_sq = None
        if not math.isfinite(self.norm_sq()):
            raise ValueError("state norm is not finite: amplitudes too large")

    def _with_blocks(self, blocks):
        """This state with the nonzero ``blocks``, made read-only; unvalidated."""
        kept = {key: block for key, block in blocks.items() if np.count_nonzero(block)}
        for block in kept.values():
            block.setflags(write=False)
        return self._adopt(kept)

    def _adopt(self, blocks):
        """This state holding ``blocks`` as given: each already nonzero and read-only."""
        out = object.__new__(type(self))
        out.blocks, out.geometry, out._norm_sq = blocks, self.geometry, None
        return out

    def norm_sq(self) -> float:
        # Summed once: the blocks are read-only.
        if self._norm_sq is None:
            self._norm_sq = float(sum(np.vdot(block, block).real for block in self.blocks.values()))
        return self._norm_sq

    def normalized(self):
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError(f"cannot normalize a zero {self._noun}")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex):
        return self._with_blocks({key: block * factor for key, block in self.blocks.items()})

    def pruned(self, tol: float = 0.0):
        """Drop terms with |amplitude| <= tol (exact zeros by default)."""
        return self._with_blocks(
            {key: np.where(np.abs(block) > tol, block, 0j) for key, block in self.blocks.items()}
        )


class ModeExpansion(_Blocks):
    """Finite complex expansion over the HG basis, stored per total order.

    ``blocks`` maps a total order o to a read-only complex vector of length
    o + 1 whose entry n multiplies HG_{n, o-n}; only blocks holding a
    nonzero coefficient are kept.  ``terms`` is a read-only mapping derived
    from the blocks, without exact zeros.  The squared norm is reported by
    :meth:`norm_sq` and never silently renormalized.
    """

    __slots__ = ()
    _noun = "expansion"

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
        self._freeze()
        self.geometry = geometry

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

    def max_order(self) -> int:
        return max(self.blocks, default=0)

    def _from_rows(self, rows: np.ndarray) -> list["ModeExpansion"]:
        """One state over this expansion's orders per row of ``rows``, HG
        coefficients laid out as :func:`_to_oam` lays out the blocks.  The
        blocks are read-only views of ``rows``, kept where nonzero."""
        rows.setflags(write=False)
        if not self.blocks:
            return [self._adopt({}) for _row in rows]
        starts = _layout(tuple(self.blocks)).starts
        nonzero = np.logical_or.reduceat(rows != 0, starts, axis=1).tolist()
        return [
            self._adopt({
                o: row[s:s + o + 1]
                for o, s, keep in zip(self.blocks, starts.tolist(), flags) if keep
            })
            for row, flags in zip(rows, nonzero)
        ]

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
    idx = _check_lg_index(idx)
    order = idx.order
    # Column (order + l)/2 of the rotation by -pi/4, V diag(exp(i l pi/4)) V^dagger,
    # in O(order^2); the phases of V's columns cancel.
    basis = _lg_basis(order)
    l = np.arange(order, -order - 1, -2)
    column = ((basis * np.exp(1j * l * math.pi / 4)) @ basis[(order + idx.l) // 2].conj()).real
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


# ---------------------------------------------------------------------------
# Transverse rotation operators
# ---------------------------------------------------------------------------

def _real_lg_basis(order: int) -> np.ndarray:
    """Real orthogonal R with V = diag(i^n) R the LG basis of :func:`_lg_basis`.

    The rotation generator a_x+ a_y - a_y+ a_x is tridiagonal on the
    HG_{n, order-n} block; conjugated by diag(i^n) it becomes the real
    symmetric matrix with off-diagonals sqrt((n+1)(order-n)), whose
    eigenvalues are exactly -order, -order+2, ..., order = -l.  Column
    signs are whatever LAPACK's ``eigh`` returns.
    """
    n = np.arange(order)
    off = np.sqrt((n + 1.0) * (order - n))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]


@functools.lru_cache(maxsize=None)
def _lg_basis(order: int) -> np.ndarray:
    """Unitary whose column k is an LG mode of this order with l = order - 2k.

    It is diag(i^n) R with R from :func:`_real_lg_basis`; the biphoton sort
    and :func:`lg_to_hg` use it as a dense complex matrix, while
    :func:`_to_oam` and :func:`_from_oam` apply R from the chunks of
    :func:`_chunk_basis` and the phases i^n apart.  Read-only, as it is
    shared.
    """
    basis = _I_POWERS[np.arange(order + 1) % 4, None] * _real_lg_basis(order)
    basis.setflags(write=False)
    return basis


# Consecutive orders whose real LG bases share one zero-padded stack.
_CHUNK = 8


@functools.lru_cache(maxsize=None)  # one key per chunk: MAX_ORDER // _CHUNK + 1 at most
def _chunk_basis(chunk: int) -> np.ndarray:
    """R of the orders chunk*_CHUNK onward (:func:`_real_lg_basis`), stacked.

    Shape (K, P, P), with K orders and P the size of the largest; entry j
    holds R of order o = chunk*_CHUNK + j in its top-left (o+1) x (o+1)
    corner and zeros elsewhere.  About 14 MB for all chunks to MAX_ORDER.
    Read-only, as it is shared.
    """
    orders = range(chunk * _CHUNK, min((chunk + 1) * _CHUNK, MAX_ORDER + 1))
    size = orders[-1] + 1
    stack = np.zeros((len(orders), size, size))
    for j, o in enumerate(orders):
        stack[j, :o + 1, :o + 1] = _real_lg_basis(o)
    stack.setflags(write=False)
    return stack


class _Layout(NamedTuple):
    """Where the amplitudes of a tuple of orders sit, in order of the tuple."""

    l: np.ndarray  # OAM of each amplitude: o, o-2, ..., -o per order
    starts: np.ndarray  # index of each order's first amplitude
    phases: np.ndarray  # i^n of each amplitude, n its place in its block
    slots: np.ndarray  # place of each amplitude in the padded chunk stacks
    chunks: tuple  # (bases, places) per chunk present: see _layout
    padded: int  # length of the padded chunk stacks


@functools.lru_cache(maxsize=64)
def _layout(orders: tuple[int, ...]) -> _Layout:
    """Layout of the amplitudes of ``orders``.

    Of chunk c, only the entries [first, stop) of :func:`_chunk_basis` (c)
    that hold the orders present are multiplied, each cut to size x size for
    the largest of them, as one read-only view ``bases``; their amplitudes
    fill the (stop - first) * size ``places`` of the padded stacks,
    zero-padded.  Held for the most recent tuples only, as it costs a few
    arrays the length of the amplitudes.
    """
    present: dict[int, list[int]] = {}
    for o in orders:
        present.setdefault(o // _CHUNK, []).append(o % _CHUNK)
    chunks, place_of_order, offset = [], {}, 0
    for chunk, js in sorted(present.items()):
        first, stop = min(js), max(js) + 1
        size = chunk * _CHUNK + stop
        places = slice(offset, offset + (stop - first) * size)
        chunks.append((_chunk_basis(chunk)[first:stop, :size, :size], places))
        for j in js:
            place_of_order[chunk * _CHUNK + j] = offset + (j - first) * size
        offset = places.stop
    n = [np.arange(o + 1) for o in orders]
    layout = _Layout(
        np.concatenate([np.zeros(0, int), *(o - 2 * k for o, k in zip(orders, n))]),
        np.cumsum([0, *(o + 1 for o in orders)])[:-1],
        np.concatenate([np.zeros(0, complex), *(_I_POWERS[k % 4] for k in n)]),
        np.concatenate([np.zeros(0, int), *(place_of_order[o] + k for o, k in zip(orders, n))]),
        tuple(chunks),
        offset,
    )
    for array in layout[:4]:
        array.setflags(write=False)
    return layout


def rotation_matrix(order: int, angle: float) -> np.ndarray:
    """Rotation of the HG basis restricted to one total order, as a dense matrix.

    The reference the tests hold :func:`rotate_exact` and :func:`lg_to_hg`
    to; no library route builds it.

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


def _chunk_products(layout: _Layout, x: np.ndarray, transpose: bool) -> np.ndarray:
    """R x, or R^T x, for each order's amplitudes in each row of ``x``.

    The rows are padded into the chunk stacks of ``layout``; viewed as float
    pairs, each chunk is one real batched ``matmul`` with its real bases.
    The result has the shape and layout of x.
    """
    rows = np.atleast_2d(x)
    padded = np.zeros((len(rows), layout.padded), complex)
    for row, amplitudes in zip(padded, rows):
        row.put(layout.slots, amplitudes)
    out = np.empty_like(padded)
    for bases, places in layout.chunks:
        shape = (len(rows), *bases.shape[:2], 2)
        np.matmul(
            bases.transpose(0, 2, 1) if transpose else bases,
            padded[:, places].view(float).reshape(shape),
            out=out[:, places].view(float).reshape(shape),
        )
    return out.take(layout.slots, axis=1).reshape(x.shape)


def _to_oam(blocks) -> tuple[np.ndarray, np.ndarray]:
    """LG amplitudes of per-order blocks, with their l values.

    Each block c of order o becomes w = V^dagger c = R^T (i^-n c) over the LG
    modes of that order (:func:`_lg_basis`); the amplitudes of all blocks are
    concatenated in the blocks' key order.  Every rotation and Sagnac port is
    diagonal in this basis.
    """
    layout = _layout(tuple(blocks))
    c = np.concatenate([np.zeros(0, complex), *blocks.values()]) * layout.phases.conj()
    return _chunk_products(layout, c, transpose=True), layout.l


def _from_oam(orders, w: np.ndarray) -> np.ndarray:
    """HG coefficients V w = i^n (R w) of LG amplitudes laid out by
    :func:`_to_oam` for ``orders``, for each row of ``w`` at once: the
    result has the shape of w and the layout of the concatenated blocks."""
    layout = _layout(tuple(orders))
    return _chunk_products(layout, w, transpose=False) * layout.phases


def rotate_exact(expansion: ModeExpansion, angle: float) -> ModeExpansion:
    """Rotate the transverse profile anticlockwise by the given angle.

    The LG amplitudes are multiplied by exp(-i l angle), which is unitary to
    machine precision at every order up to MAX_ORDER.  Where angle % 2pi is
    exactly 0 the blocks come back unchanged, and where it is exactly pi each
    coefficient takes the exact parity factor (-1)^(n+m).
    """
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    reduced = angle % (2.0 * math.pi)
    if reduced == 0.0:
        return expansion._with_blocks(expansion.blocks)
    if reduced == math.pi:
        return expansion._with_blocks(
            {o: -block if o % 2 else block for o, block in expansion.blocks.items()}
        )
    w, l = _to_oam(expansion.blocks)
    return expansion._from_rows(_from_oam(expansion.blocks, (w * np.exp(-1j * l * angle))[None]))[0]


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

