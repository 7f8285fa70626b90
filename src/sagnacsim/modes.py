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
(:class:`ModeExpansion`), held as one read-only coefficient vector over a
sorted tuple of total orders, with ``blocks[o]`` a view of order o's
entries.  The rules on a finite norm, scaling, normalising and pruning
live in ``_Amplitudes``, which the two-photon state of
:mod:`sagnacsim.quantum` shares.  Every grid image is the separable
product Hy^T C Hx of :func:`evaluate_expansion`; overlap decomposition,
parity labels, and transverse rotation operators complete the toolkit.
Rotations, and the Sagnac stages built on them, are diagonal multiplies
between :func:`_to_oam` and :func:`_from_oam`, which carry the vector to
the LG amplitudes of each order, in the same places, and back.  The LG
basis of an order is V = diag(i^n) R with R real, so both run as one real
batched product per chunk of consecutive orders on the amplitudes viewed as
float pairs.  R is held only in those chunks (:func:`_chunk_basis`), and
the biphoton sort multiplies a tile by them on either side (:class:`_Band`).
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


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer_index(idx, kind: type = HGIndex):
    """``idx`` as a ``kind`` of ints, refusing a component that is not an integer."""
    a, b = kind(*idx)
    if not (_is_integer(a) and _is_integer(b)):
        raise ValueError(f"{kind.__name__.removesuffix('Index')} indices must be integers, got {(a, b)}")
    return kind(int(a), int(b))


def _check_index(idx) -> HGIndex:
    idx = _integer_index(idx)
    if idx.n < 0 or idx.m < 0:
        raise ValueError(f"HG indices must be nonnegative, got {idx}")
    if idx.order > MAX_ORDER:
        raise ValueError(f"order too large: n+m={idx.order} exceeds {MAX_ORDER}")
    return idx


def _check_lg_index(idx) -> LGIndex:
    idx = _integer_index(idx, LGIndex)
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


class _Amplitudes:
    """Rules both state types share: a finite norm summed once over the
    ``_pieces``, by default the ``blocks``, and scaling and pruning, each
    one :meth:`_map` of the read-only amplitudes.  A subclass names itself
    in ``_noun`` for errors."""

    __slots__ = ("geometry", "_norm_sq")

    def _check_norm(self) -> None:
        """Reject a norm that is not finite, which makes every power nan."""
        self._norm_sq = None
        if not math.isfinite(self.norm_sq()):
            raise ValueError("state norm is not finite: amplitudes too large")

    def norm_sq(self) -> float:
        # Summed once, as the amplitudes are read-only, and one vdot per
        # order or block: one vdot over several of them rounds differently.
        if self._norm_sq is None:
            self._norm_sq = float(sum(np.vdot(piece, piece).real for piece in self._pieces()))
        return self._norm_sq

    def _pieces(self):
        return self.blocks.values()

    def normalized(self):
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError(f"cannot normalize a zero {self._noun}")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex):
        return self._map(lambda a: a * factor)

    def pruned(self, tol: float = 0.0):
        """Drop terms with |amplitude| <= tol (exact zeros by default)."""
        return self._map(lambda a: np.where(np.abs(a) > tol, a, 0j))


class ModeExpansion(_Amplitudes):
    """Finite complex expansion over the HG basis, held as one read-only
    complex vector over a sorted tuple of total orders (:func:`_layout`):
    order o takes o + 1 entries, entry n multiplying HG_{n, o-n}.  Readers
    skip an order holding only zeros; ``blocks`` (a view of each order's
    entries) and ``terms`` are built when read.  The squared norm is
    reported by :meth:`norm_sq` and never silently renormalized."""

    __slots__ = ("_layout", "_vector")
    _noun = "expansion"

    def __init__(self, terms, geometry: BeamGeometry):
        amps, orders = {}, set()
        for idx, amp in dict(terms).items():
            # Every index is checked before the vector is allocated.
            idx, amp = _check_index(idx), complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {idx}")
            if amp != 0:
                amps[idx.order * (idx.order + 1) // 2 + idx.n] = amp  # as _Layout.mode
                orders.add(idx.order)
        self.geometry, self._layout = geometry, _layout(tuple(sorted(orders)))
        self._vector = np.zeros(len(self._layout.mode), complex)
        self._vector[np.searchsorted(self._layout.mode, list(amps))] = list(amps.values())
        self._vector.setflags(write=False)
        self._check_norm()

    def _with_vector(self, vector: np.ndarray, layout: _Layout | None = None) -> "ModeExpansion":
        """An expansion in this geometry holding ``vector`` in ``layout``, by
        default this one's; unvalidated (:func:`_expansion`)."""
        return _expansion(self.geometry, vector, layout or self._layout)

    def _with_blocks(self, blocks) -> "ModeExpansion":
        """An expansion in this geometry over per-order ``blocks``, in any key order; unvalidated."""
        layout = _layout(tuple(sorted(blocks)))
        vector = np.concatenate([np.zeros(0, complex), *(blocks[o] for o in layout.orders)])
        return self._with_vector(vector, layout)

    def _map(self, f) -> "ModeExpansion":
        return self._with_vector(f(self._vector))

    def _pieces(self):
        """Each order's entries, all-zero orders included: they add +0.0 to the norm."""
        return (self._vector[s:s + o + 1] for o, s in zip(self._layout.orders, self._layout.starts.tolist()))

    @property
    def blocks(self) -> Mapping[int, np.ndarray]:
        """Read-only mapping of each order holding a nonzero coefficient to a read-only view of it."""
        orders, starts = self._layout.orders, self._layout.starts
        occupied = np.logical_or.reduceat(self._vector != 0, starts).tolist()
        return MappingProxyType({
            o: self._vector[s:s + o + 1] for o, s, keep in zip(orders, starts.tolist(), occupied) if keep
        })

    @property
    def terms(self) -> Mapping[HGIndex, complex]:
        """Read-only mapping of the nonzero coefficients."""
        k = np.flatnonzero(self._vector)
        n = self._layout.n[k]
        return MappingProxyType(dict(zip(
            map(HGIndex, n.tolist(), (n + self._layout.l[k]).tolist()), self._vector[k].tolist()
        )))

    def coeff(self, idx) -> complex:
        idx, orders = _integer_index(idx), self._layout.orders
        if min(idx) < 0 or idx.order not in orders:
            return 0j
        return complex(self._vector[self._layout.starts[orders.index(idx.order)] + idx.n])

    def max_order(self) -> int:
        return max(self.blocks, default=0)

    def inner(self, other: "ModeExpansion") -> complex:
        """Hilbert-space inner product <self|other> (conjugate on self)."""
        _, mine, theirs = np.intersect1d(
            self._layout.mode, other._layout.mode, assume_unique=True, return_indices=True
        )
        return complex(np.vdot(self._vector[mine], other._vector[theirs]))

    def __add__(self, other: "ModeExpansion") -> "ModeExpansion":
        layout = _layout(tuple(sorted({*self._layout.orders, *other._layout.orders})))
        out = np.zeros(len(layout.mode), complex)
        out[np.searchsorted(layout.mode, self._layout.mode)] = self._vector
        out[np.searchsorted(layout.mode, other._layout.mode)] += other._vector
        return self._with_vector(out, layout)

    def __sub__(self, other: "ModeExpansion") -> "ModeExpansion":
        return self + other.scaled(-1.0)

    def __repr__(self):
        inside = ", ".join(
            f"({i.n},{i.m}): {a:.6g}" for i, a in sorted(self.terms.items())
        )
        return f"ModeExpansion({{{inside}}}, w0={self.geometry.w0:g})"


def _expansion(geometry: BeamGeometry, vector: np.ndarray, layout: _Layout) -> ModeExpansion:
    """An expansion in ``geometry`` holding ``vector`` (made read-only) in ``layout``; unvalidated."""
    vector.setflags(write=False)
    out = object.__new__(ModeExpansion)
    out.geometry, out._layout, out._vector, out._norm_sq = geometry, layout, vector, None
    return out


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
        if not _is_integer(n) or n < 16 or n % 2 != 0:
            raise ValueError(f"samples_per_side must be an even integer of at least 16, got {n!r}")
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
    k = np.flatnonzero(expansion._vector)
    if not k.size:
        return np.zeros((len(ys), len(xs)), dtype=complex)
    # C over the occupied n and m ranges only.
    n = expansion._layout.n[k]
    m = n + expansion._layout.l[k]
    coeff = np.zeros((m.max() + 1, n.max() + 1), dtype=complex)
    coeff[m, n] = expansion._vector[k]
    w0 = expansion.geometry.w0
    return hermite_gauss_ladder(m.max(), ys, w0).T @ coeff @ hermite_gauss_ladder(n.max(), xs, w0)


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
    # Column (order + l)/2 of the rotation by -pi/4, in O(order^2).
    column = _rotation_columns(order, -math.pi / 4, (order + idx.l) // 2)
    amps = column * _I_POWERS[(np.arange(order + 1) - abs(idx.l)) % 4]
    return _expansion(geom, amps, _layout((order,)))


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
    layout = _layout(tuple(range(max_order + 1)))
    out = _expansion(geom, coeffs[layout.n + layout.l, layout.n], layout)
    return out, field.norm_sq() - out.norm_sq()


def parity_2d(idx: HGIndex) -> Parity:
    """Parity under the point inversion E(x, y) -> E(-x, -y)."""
    idx = _check_index(idx)
    return "even" if (idx.n + idx.m) % 2 == 0 else "odd"


# ---------------------------------------------------------------------------
# Transverse rotation operators
# ---------------------------------------------------------------------------

def _real_lg_basis(order: int) -> np.ndarray:
    """Real orthogonal R of one order; column k of V = diag(i^n) R is the LG mode with l = order - 2k.

    The rotation generator a_x+ a_y - a_y+ a_x is tridiagonal on the
    HG_{n, order-n} block; conjugated by diag(i^n) it becomes the real
    symmetric matrix with off-diagonals sqrt((n+1)(order-n)), whose
    eigenvalues are exactly -order, -order+2, ..., order = -l.  Column
    signs are whatever LAPACK's ``eigh`` returns.  :func:`_chunk_basis` calls it once per order.
    """
    n = np.arange(order)
    off = np.sqrt((n + 1.0) * (order - n))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]


# i^n for n = 0..MAX_ORDER; the phases of V = diag(i^n) R at any order are a prefix.
_PHASES = _I_POWERS[np.arange(MAX_ORDER + 1) % 4]
_PHASES.setflags(write=False)

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


@functools.lru_cache(maxsize=None)
def _order_basis(order: int) -> np.ndarray:
    """R of one order: a read-only view into its :func:`_chunk_basis` stack, holding no memory of its own."""
    return _chunk_basis(order // _CHUNK)[order % _CHUNK, :order + 1, :order + 1]


def _rotation_columns(order: int, angle: float, columns: int | slice) -> np.ndarray:
    """``columns`` (an index or a slice) of V diag(exp(-i l angle)) V^dagger, the
    rotation by ``angle`` on one order: entry (a, b) is Re(i^(a-b) sum_j R[a, j]
    R[b, j] exp(-i l_j angle)), so the signs ``eigh`` gives R's columns cancel."""
    basis, n = _order_basis(order), np.arange(order + 1)
    rotated = (basis * np.exp(-1j * (order - 2 * n) * angle)) @ basis[columns].T
    return (rotated * _I_POWERS[np.subtract.outer(n, n[columns]) % 4]).real


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where the amplitudes of a tuple of orders sit, in order of the tuple."""

    orders: tuple[int, ...]
    l: np.ndarray  # OAM of each amplitude: o, o-2, ..., -o per order
    n: np.ndarray  # place of each amplitude in its order: 0, 1, ..., o
    mode: np.ndarray  # o (o + 1) / 2 + n: one number per HG mode, rising along sorted orders
    starts: np.ndarray  # index of each order's first amplitude
    phases: np.ndarray  # i^n of each amplitude
    slots: np.ndarray  # place of each amplitude in the padded chunk stacks
    spans: tuple  # (chunk, first, stop, size, places) per chunk present: see _layout
    padded: int  # length of the padded chunk stacks

    @functools.cached_property
    def chunks(self) -> tuple:
        """(bases, places) per chunk present, cut from :func:`_chunk_basis` on
        the first product: a state that is never transferred builds no basis."""
        return tuple(
            (_chunk_basis(c)[first:stop, :size, :size], places) for c, first, stop, size, places in self.spans
        )

    @functools.cached_property
    def bands(self) -> tuple[_Band, ...]:
        """The chunks present as :class:`_Band`, built on first use."""
        bands = []
        for bases, places in self.chunks:
            first, stop = self.slots.searchsorted((places.start, places.stop)).tolist()
            rows = self.slots[first:stop] - places.start
            phases, l = np.zeros(places.stop - places.start, complex), np.zeros(places.stop - places.start, int)
            phases[rows], l[rows] = self.phases[first:stop].conj(), self.l[first:stop]
            gaps = np.ones(len(l), bool)
            gaps[rows] = False
            bands.append(_Band(bases, places, slice(first, stop), rows, phases, l, np.flatnonzero(gaps)))
        return tuple(bands)


class _Band(NamedTuple):
    """One chunk of a layout, padded as the biphoton sort multiplies it on
    either side: its K * P places are K slots of P, each order's amplitudes
    first in its slot and zeros after them."""

    bases: np.ndarray  # R of the chunk's orders, (K, P, P), as in _Layout.chunks
    places: slice  # its places among the layout's ``padded``
    amplitudes: slice  # the layout's amplitudes it holds
    rows: np.ndarray  # their places, counted from the chunk's first
    inverse_phases: np.ndarray  # i^-n at each place, 0 between slots
    l: np.ndarray  # OAM at each place, 0 between slots
    gaps: np.ndarray  # the places between slots, counted as ``rows``

    def to_lg(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """R^T (i^-n x) over this chunk's places, for its amplitudes as the
        rows of ``x``: padded into the slots, one real batched product on
        their float pairs, into ``out`` if given."""
        k, p = self.bases.shape[:2]
        padded = np.empty((k * p, x.shape[1]), complex)
        padded[self.gaps] = 0
        padded[self.rows] = x
        padded *= self.inverse_phases[:, None]
        out = np.empty_like(padded) if out is None else out
        bases, shape = self.bases.transpose(0, 2, 1), (k, p, -1)
        np.matmul(bases, padded.view(float).reshape(shape), out=out.view(float).reshape(shape))
        return out


@functools.lru_cache(maxsize=64)
def _layout(orders: tuple[int, ...]) -> _Layout:
    """Layout of the amplitudes of ``orders``.

    Of chunk c, only the entries [first, stop) of :func:`_chunk_basis` (c)
    that hold the orders present are multiplied, each cut to size x size for
    the largest of them (a ``span``); their amplitudes fill the
    (stop - first) * size ``places`` of the padded stacks, zero-padded.
    Held for the most recent tuples only, as it costs a few arrays the
    length of the amplitudes.
    """
    present: dict[int, list[int]] = {}
    for o in orders:
        present.setdefault(o // _CHUNK, []).append(o % _CHUNK)
    spans, place_of_order, offset = [], {}, 0
    for chunk, js in sorted(present.items()):
        first, stop = min(js), max(js) + 1
        size = chunk * _CHUNK + stop
        places = slice(offset, offset + (stop - first) * size)
        spans.append((chunk, first, stop, size, places))
        for j in js:
            place_of_order[chunk * _CHUNK + j] = offset + (j - first) * size
        offset = places.stop
    sizes = [o + 1 for o in orders]
    starts = np.cumsum([0, *sizes])[:-1]
    order = np.repeat(np.array(orders, dtype=int), sizes)
    n = np.arange(len(order)) - np.repeat(starts, sizes)
    slots = np.repeat(np.array([place_of_order[o] for o in orders], dtype=int), sizes) + n
    arrays = (order - 2 * n, n, order * (order + 1) // 2 + n, starts, _PHASES[n], slots)
    for array in arrays:
        array.setflags(write=False)
    return _Layout(orders, *arrays, tuple(spans), offset)


def rotation_matrix(order: int, angle: float) -> np.ndarray:
    """Rotation of the HG basis restricted to one total order, as a dense matrix.

    The reference the tests hold :func:`rotate_exact` and :func:`lg_to_hg`
    to; no library route builds it.

    Basis ordering is n = 0..order (so column n acts on HG_{n, order-n}).
    Built as V diag(exp(-i l angle)) V^dagger (:func:`_rotation_columns`), so
    it does not depend on the eigenvector signs and is unitary to ~1e-15 at
    every order up to MAX_ORDER.  HG_10 goes to cos(angle) HG_10 + sin(angle)
    HG_01, i.e. for order 1 the matrix on (c_01, c_10) is [[cos, sin], [-sin, cos]].
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"order too large: {order} exceeds {MAX_ORDER}")
    return _rotation_columns(order, angle, slice(None))


def _chunk_products(layout: _Layout, x: np.ndarray, transpose: bool) -> np.ndarray:
    """R x, or R^T x, for each order's amplitudes in each row of ``x``.

    The rows are padded into the chunk stacks of ``layout``; viewed as float
    pairs, each chunk is one real batched ``matmul`` with its real bases.
    The result has the shape and layout of x.
    """
    rows = np.atleast_2d(x)
    padded = np.zeros((len(rows), layout.padded), complex)
    padded[:, layout.slots] = rows
    out = np.empty_like(padded)
    for bases, places in layout.chunks:
        shape = (len(rows), *bases.shape[:2], 2)
        np.matmul(
            bases.transpose(0, 2, 1) if transpose else bases,
            padded[:, places].view(float).reshape(shape),
            out=out[:, places].view(float).reshape(shape),
        )
    return out.take(layout.slots, axis=1).reshape(x.shape)


def _to_oam(layout: _Layout, c: np.ndarray) -> np.ndarray:
    """LG amplitudes of the HG coefficients ``c`` laid out by ``layout``.

    The coefficients c of each order o become w = V^dagger c = R^T (i^-n c)
    over the LG modes of that order (V = diag(i^n) R, :func:`_real_lg_basis`),
    in the same places: the amplitude at place k has OAM ``layout.l[k]``.
    Every rotation and Sagnac port is diagonal in this basis.
    """
    return _chunk_products(layout, c * layout.phases.conj(), transpose=True)


def _from_oam(layout: _Layout, w: np.ndarray) -> np.ndarray:
    """HG coefficients V w = i^n (R w) of LG amplitudes laid out by
    ``layout``, for each row of ``w`` at once: the result has the shape and
    layout of w."""
    return _chunk_products(layout, w, transpose=False) * layout.phases


def rotate_exact(expansion: ModeExpansion, angle: float) -> ModeExpansion:
    """Rotate the transverse profile anticlockwise by the given angle.

    The LG amplitudes are multiplied by exp(-i l angle), which is unitary to
    machine precision at every order up to MAX_ORDER.  Where angle % 2pi is
    exactly 0 the expansion comes back unchanged, and where it is exactly pi each
    coefficient takes the exact parity factor (-1)^(n+m).
    """
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    reduced = angle % (2.0 * math.pi)
    c, layout = expansion._vector, expansion._layout
    if reduced == 0.0:
        return expansion
    if reduced == math.pi:
        return expansion._with_vector(np.where(layout.l % 2 == 1, -c, c))
    return expansion._with_vector(_from_oam(layout, _to_oam(layout, c) * np.exp(-1j * layout.l * angle)))


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

