"""Post-selected two-photon mode functions: SPDC sources, fiber filtering,
biphoton sorting, compressors, heralding, and entanglement diagnostics.

All states live in the post-selected two-photon subspace; probabilities
are conditional on a pair being present.  Block ``(o1, o2)`` of a biphoton
has shape ``(o1 + 1, o2 + 1)``, entry ``[n1, n2]`` multiplying HG_{n1, o1-n1}
x HG_{n2, o2-n2}.  Only blocks holding a nonzero term are kept, in a few
dense read-only tiles: photon-1 orders that occupy the same photon-2 orders
form one tile over ``_layout(o1s) x _layout(o2s)``.  Both Sagnac ports are
diagonal over LG modes, so sorting takes each tile T to its LG amplitudes
V1^H T V2* (V = diag(i^n) R per order) in real batched products on the
chunk stacks of R and reads the four branch powers off them; a branch's HG
tiles are built only when its state is read, and heralding builds only the
trigger's row.  The compressor is the per-block product with its order-one
unitary, and the Schmidt spectrum is an SVD over the rows and columns that
carry support, at any order.  Norm and scaling follow the rules
:class:`~sagnacsim.modes.ModeExpansion` shares, and the two-photon
polarization is carried alongside as amplitudes over {HV, VH, HH, VV}.

Biphoton sorting works in each output beam's own transverse frame: the
deterministic 90 degree rotation every Sagnac output shares is dropped,
which leaves branch probabilities untouched and makes heralded states
directly comparable to the modes they were pumped from.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from types import MappingProxyType
from typing import IO

import numpy as np

from .formats import at_line, numbered_lines, parse_number
from .interferometer import SagnacStage, retarder
from .modes import (
    BeamGeometry,
    HGIndex,
    ModeExpansion,
    _Amplitudes,
    _check_index,
    _expansion,
    _from_oam,
    _integer_index,
    _layout,
    _order_basis,
    _PHASES,
    rotation_matrix,  # no caller; the benchmark's tracer wraps quantum.rotation_matrix
)

POLARIZATION_KEYS = ("HV", "VH", "HH", "VV")

# Symmetric Bell polarization produced by the type-II source.
def bell_polarization() -> dict[str, complex]:
    inv = 1.0 / math.sqrt(2.0)
    return {"HV": inv, "VH": inv}


# Pump-expansion coefficients for a fundamental-mode pump under typical
# conditions (0.1 mm pump waist, 1 mm crystal); overridable per call.
DEFAULT_C0 = 0.08
DEFAULT_C1 = 0.04
DEFAULT_C2 = -0.03

DEFAULT_GEOMETRY = BeamGeometry(1.0)

# Most coefficients the blocks of one biphoton state may hold: 2**24 complex
# entries are 268 MB, and a sort holds about as much again.  Block (o1, o2)
# holds (o1 + 1)(o2 + 1) entries however few of its terms are nonzero.
MAX_BIPHOTON_ENTRIES = 2**24


class BiphotonExpansion(_Amplitudes):
    """Finite expansion over ordered HG x HG products plus polarization.

    ``_tiles`` holds (rows, cols, tile) per tile (module docstring): the
    ``_layout`` of its photon-1 and photon-2 orders and the read-only tile
    over them.  ``blocks`` and ``terms`` are read from the tiles.
    """

    __slots__ = ("_tiles", "polarization")
    _noun = "biphoton state"

    def __init__(self, terms, polarization=None, geometry: BeamGeometry = DEFAULT_GEOMETRY):
        # Every term is validated, and the blocks it occupies are counted
        # against MAX_BIPHOTON_ENTRIES, before any tile is allocated.
        by_block: dict[tuple[int, int], list] = {}
        for (a, b), amp in dict(terms).items():
            a, b, amp = _check_index(a), _check_index(b), complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {(a, b)}")
            if amp != 0:
                by_block.setdefault((a.order, b.order), []).append((a.n, b.n, amp))
        entries = sum((o1 + 1) * (o2 + 1) for o1, o2 in by_block)
        if entries > MAX_BIPHOTON_ENTRIES:
            raise ValueError(
                f"biphoton blocks would hold {entries} entries, more than the limit of {MAX_BIPHOTON_ENTRIES}"
            )

        def put(block, entries):
            n1, n2, amps = zip(*entries)
            block[n1, n2] = amps

        self._tiles = _tiled(by_block, put)
        self._check_norm()
        pol = dict(polarization) if polarization is not None else bell_polarization()
        for k in pol:
            if k not in POLARIZATION_KEYS:
                raise ValueError(f"unknown polarization component '{k}'")
        self.polarization = {k: complex(v) for k, v in pol.items()}
        self.geometry = geometry

    def _with_tiles(self, tiles) -> "BiphotonExpansion":
        """This state over ``tiles`` (rows, cols, tile), made read-only; unvalidated.
        If a block of them holds only zeros, the nonzero blocks are tiled anew."""
        tiles = tuple(tiles)
        for rows, cols, tile in tiles:
            tile.setflags(write=False)
            if not np.logical_or.reduceat(np.logical_or.reduceat(tile != 0, rows.starts), cols.starts, axis=1).all():
                return self._with_blocks(_blocks_of(tiles))
        out = object.__new__(BiphotonExpansion)
        out._tiles, out.geometry, out.polarization, out._norm_sq = tiles, self.geometry, dict(self.polarization), None
        return out

    def _with_blocks(self, blocks) -> "BiphotonExpansion":
        """This state holding the nonzero ``blocks``, keyed (o1, o2); unvalidated."""
        return self._with_tiles(_tiled({k: block for k, block in blocks.items() if np.count_nonzero(block)}, np.copyto))

    def _map(self, f) -> "BiphotonExpansion":
        return self._with_tiles((rows, cols, f(tile)) for rows, cols, tile in self._tiles)

    @property
    def blocks(self) -> Mapping[tuple[int, int], np.ndarray]:
        """Read-only mapping of each occupied (o1, o2) to a read-only view of its block."""
        return MappingProxyType(_blocks_of(self._tiles))

    @property
    def terms(self) -> Mapping[tuple[HGIndex, HGIndex], complex]:
        """Read-only mapping of the nonzero coefficients."""
        return MappingProxyType({
            (HGIndex(n1, o1 - n1), HGIndex(n2, o2 - n2)): complex(block[n1, n2])
            for (o1, o2), block in self.blocks.items()
            for n1, n2 in np.argwhere(block).tolist()
        })

    def coeff(self, a, b) -> complex:
        a, b = _integer_index(a), _integer_index(b)
        for rows, cols, tile in self._tiles:
            if a.order in rows.orders and b.order in cols.orders and min(a.n, a.m, b.n, b.m) >= 0:
                at = rows.starts[rows.orders.index(a.order)] + a.n, cols.starts[cols.orders.index(b.order)] + b.n
                return complex(tile[at])
        return 0j

    def __repr__(self):
        inside = ", ".join(
            f"({a.n}{a.m},{b.n}{b.m}): {c:.4g}"
            for (a, b), c in sorted(self.terms.items())
        )
        return f"BiphotonExpansion({{{inside}}})"


def _tiled(blocks: dict, put) -> tuple:
    """Read-only tiles over the occupied (o1, o2) of ``blocks``, by the tile
    rule and by rising photon-1 order; ``put(view, blocks[key])`` fills each."""
    o1s_of: dict[tuple[int, ...], list[int]] = {}
    for o1, keys in groupby(sorted(blocks), key=lambda key: key[0]):
        o1s_of.setdefault(tuple(o2 for _, o2 in keys), []).append(o1)
    layouts = [(_layout(tuple(o1s)), _layout(o2s)) for o2s, o1s in o1s_of.items()]
    tiles = tuple((rows, cols, np.zeros((len(rows.n), len(cols.n)), complex)) for rows, cols in layouts)
    for key, view in _blocks_of(tiles).items():
        put(view, blocks[key])
    for *_, tile in tiles:
        tile.setflags(write=False)
    return tiles


def _blocks_of(tiles) -> dict:
    """(o1, o2) -> a view of its block, for each block of ``tiles``."""
    return {
        (o1, o2): tile[s1:s1 + o1 + 1, s2:s2 + o2 + 1]
        for rows, cols, tile in tiles
        for o1, s1 in zip(rows.orders, rows.starts.tolist())
        for o2, s2 in zip(cols.orders, cols.starts.tolist())
    }


def spdc_hg00(
    c0: float = DEFAULT_C0,
    c1: float = DEFAULT_C1,
    c2: float = DEFAULT_C2,
    geometry: BeamGeometry = DEFAULT_GEOMETRY,
) -> BiphotonExpansion:
    """Truncated biphoton expansion for a fundamental-Gaussian pump.

    Carries the zero-order term, the two diagonal first-order terms, and
    the four order-two cross terms; every other coefficient through total
    order 2 vanishes by the selection rules, and orders >= 4 are dropped
    (the downstream fiber removes them anyway).
    """
    h00, h10, h01 = HGIndex(0, 0), HGIndex(1, 0), HGIndex(0, 1)
    h20, h02 = HGIndex(2, 0), HGIndex(0, 2)
    terms = {
        (h00, h00): c0,
        (h10, h10): c1,
        (h01, h01): c1,
        (h00, h02): c2,
        (h02, h00): c2,
        (h00, h20): c2,
        (h20, h00): c2,
    }
    return BiphotonExpansion(terms, bell_polarization(), geometry)


def spdc_hg45(
    c1: float = DEFAULT_C1, geometry: BeamGeometry = DEFAULT_GEOMETRY
) -> BiphotonExpansion:
    """Biphoton expansion for a diagonal first-order pump (HG at 45 deg).

    Four equal order-one terms; all other order-one coefficients vanish
    and orders >= 3 are dropped as fiber-filtered.
    """
    h00, h10, h01 = HGIndex(0, 0), HGIndex(1, 0), HGIndex(0, 1)
    terms = {
        (h10, h00): c1,
        (h00, h10): c1,
        (h01, h00): c1,
        (h00, h01): c1,
    }
    return BiphotonExpansion(terms, bell_polarization(), geometry)


def load_biphoton_table(
    stream: IO[str] | str, geometry: BeamGeometry = DEFAULT_GEOMETRY
) -> BiphotonExpansion:
    """Parse a biphoton table: header ``biphoton v1``, lines ``j k s t re im``.

    ``#`` starts a comment.  An empty file yields an empty expansion with a
    warning; malformed lines raise with their line number.
    """
    text = stream if isinstance(stream, str) else stream.read()
    terms: dict[tuple[HGIndex, HGIndex], complex] = {}
    header_seen = False
    for lineno, fields in numbered_lines(text):
        with at_line(lineno):
            if not header_seen:
                if fields != ["biphoton", "v1"]:
                    raise ValueError("expected header 'biphoton v1'")
                header_seen = True
                continue
            if len(fields) != 6:
                raise ValueError("expected 'j k s t re im'")
            j, k, s, t = (parse_number(p, int) for p in fields[:4])
            re_part, im_part = (parse_number(p) for p in fields[4:])
            key = (_check_index((j, k)), _check_index((s, t)))
            terms[key] = terms.get(key, 0j) + complex(re_part, im_part)
    if not header_seen:
        warnings.warn("biphoton table file is empty", stacklevel=2)
    return BiphotonExpansion(terms, bell_polarization(), geometry)


# ---------------------------------------------------------------------------
# Three-mode fiber
# ---------------------------------------------------------------------------

def fiber_filter_biphoton(b: BiphotonExpansion) -> tuple[BiphotonExpansion, float]:
    """Keep terms with both photons in the guided span; renormalize.

    The span is orders 0 and 1: in the parabolic-index approximation a
    fiber with normalized frequency 4 < V <= 6 guides exactly HG00, HG10
    and HG01.  Returns the renormalized state and the post-selection
    probability (kept power over total power).
    """
    total = b.norm_sq()
    out = b._with_blocks({key: block for key, block in b.blocks.items() if max(key) <= 1})
    if out.norm_sq() == 0.0:
        raise ValueError("state fully rejected")
    probability = out.norm_sq() / total
    return out.normalized(), probability


# ---------------------------------------------------------------------------
# Biphoton sorting and heralding
# ---------------------------------------------------------------------------

@dataclass
class SortedBranch:
    """One port pair of a sorted biphoton and its share of the input power.

    ``state`` is the branch's normalized HG state, built from the sort's LG
    amplitudes when first read and kept; it is None when the probability
    is zero.
    """

    probability: float
    _power: float = field(repr=False, compare=False)  # unnormalized branch power
    _source: BiphotonExpansion = field(repr=False, compare=False)
    _tiles: tuple = field(repr=False, compare=False)  # (rows, cols, W^T) per source tile: see sort_biphoton
    _ports: np.ndarray = field(repr=False, compare=False)  # (f_A, f_B) of OAM l at column top + l
    _pair: tuple[int, int] = field(repr=False, compare=False)  # port rows for photons 1, 2

    @cached_property
    def state(self) -> BiphotonExpansion | None:
        if self._power == 0.0:
            return None
        scale = 1.0 / math.sqrt(self._power)
        return self._source._with_tiles(
            (rows, cols, np.concatenate([self._hg_rows((rows, cols, wt), o1, scale=scale) for o1 in rows.orders]))
            for rows, cols, wt in self._tiles
        )

    def _hg_rows(self, tile: tuple, o1: int, at: slice = slice(None), scale: float = 1.0) -> np.ndarray:
        """Rows ``at`` of photon-1 order ``o1`` of this branch's HG tile times ``scale``:
        V1 (f_i W f_j) V2^T with V = diag(i^n) R, V2^T row by row by ``_from_oam``."""
        (i, j), (rows, cols, wt), top = self._pair, tile, self._ports.shape[1] // 2
        s = rows.starts[rows.orders.index(o1)]
        place = rows.slots[s]
        left = _order_basis(o1)[at] * _PHASES[:o1 + 1][at, None] * (self._ports[i, top + rows.l[s:s + o1 + 1]] * scale)
        lg = (left @ wt[:, place:place + o1 + 1].T).take(cols.slots, axis=1)
        return _from_oam(cols, lg * self._ports[j, top + cols.l])


@dataclass
class BiphotonSortResult:
    """Conditional biphoton states and probabilities for the four port pairs."""

    branches: dict[str, SortedBranch]

    def probability(self, branch: str) -> float:
        return self.branches[branch].probability

    def state(self, branch: str) -> BiphotonExpansion:
        st = self.branches[branch].state
        if st is None:
            raise ValueError(f"branch {branch} has zero probability")
        return st


def sort_biphoton(b: BiphotonExpansion, stage: SagnacStage) -> BiphotonSortResult:
    """Sort each photon of a biphoton independently at one Sagnac stage.

    Returns the four conditional (normalized) states with probabilities
    summing to one.  States are reported in the output beams' own frames;
    the common output rotation would multiply both photons identically and
    is omitted.

    Both ports are diagonal over LG modes, so each tile T is taken once to
    W = V1^H T V2* = R1^T (i^-n1 T i^-n2) R2, a sub-tile per pair of chunks
    (``_Band.to_lg`` on each side), and W^T is kept over the padded places.
    Branch (i, j) has power g_i @ |W|^2 @ g_j^T, g = |f(l)|^2, and builds no
    state until its ``state`` is read.  Memory follows the occupied blocks.
    """
    total = b.norm_sq()
    if total == 0.0:
        raise ValueError("zero biphoton state")
    # ports[:, top + l] = (f_A, f_B) = (1 +- e^{i phi} e^{2 i l Omega})/2: the
    # ports (1 +- e^{i phi} R(-2 Omega))/2 of the output-beam frame over the
    # LG modes of OAM l, matching column k of R of order o at l = o - 2k.
    top = max(max(rows.orders[-1], cols.orders[-1]) for rows, cols, _ in b._tiles)
    back = cmath.exp(1j * stage.phi) * np.exp(2j * stage.omega * np.arange(-top, top + 1))
    ports = 0.5 * np.stack((1.0 + back, 1.0 - back))
    tiles, power = [], np.zeros((2, 2))
    for rows, cols, tile in b._tiles:
        wt = np.empty((cols.padded, rows.padded), complex)
        for band1 in rows.bands:
            gain1 = np.abs(ports[:, top + band1.l]) ** 2
            for band2 in cols.bands:
                x = band1.to_lg(tile[band1.amplitudes, band2.amplitudes])
                x = band2.to_lg(x.T, out=wt[band2.places, band1.places])
                power += gain1 @ (x.real**2 + x.imag**2).T @ (np.abs(ports[:, top + band2.l]) ** 2).T
        tiles.append((rows, cols, wt))
    return BiphotonSortResult({
        p1 + p2: SortedBranch(float(power[i, j]) / total, float(power[i, j]), b, tiles, ports, (i, j))
        for i, p1 in enumerate("AB")
        for j, p2 in enumerate("AB")
    })


@dataclass(frozen=True)
class CompressorSpec:
    """Stress compressor on the fiber: the polarization retarder acting on
    the first-order modes (HG10, HG01) as a waveplate acts on (H, V).

    ``axis_angle`` is the compression direction in the transverse plane
    (measured from x); the aligned first-order component picks up
    exp(i retardance) relative to the perpendicular one.
    """

    axis_angle: float
    retardance: float

    def __post_init__(self):
        if not 0.0 <= self.retardance < 2.0 * math.pi:
            raise ValueError("retardance must lie in [0, 2*pi)")
        self.matrix()  # the retarder refuses a non-finite axis angle

    def matrix(self) -> np.ndarray:
        """2x2 unitary on (c_10, c_01)."""
        return retarder(self.axis_angle, self.retardance)


COMPRESS_Y_QUARTER = CompressorSpec(axis_angle=math.pi / 2, retardance=math.pi / 2)


def compressor_apply(state, spec: CompressorSpec):
    """Apply a compressor to a single- or two-photon state.

    Acts as a unitary on the (HG10, HG01) subspace, leaves HG00 untouched,
    and rejects states with support above first order.
    """
    # Block order is n = 0..order, so the order-one block is (c_01, c_10).
    ops = {0: np.ones((1, 1)), 1: spec.matrix()[::-1, ::-1]}
    if isinstance(state, ModeExpansion):
        if state.max_order() > 1:
            raise ValueError("compressor model limited to first order")
        return state._with_blocks({o: ops[o] @ block for o, block in state.blocks.items()})
    if isinstance(state, BiphotonExpansion):
        if any(max(key) > 1 for key in state.blocks):
            raise ValueError("compressor model limited to first order")
        return state._with_blocks(
            {(o1, o2): ops[o1] @ block @ ops[o2].T for (o1, o2), block in state.blocks.items()}
        )
    raise TypeError("state must be a ModeExpansion or BiphotonExpansion")


@dataclass
class HeraldResult:
    """Conditional single-photon state after a trigger detection."""

    spatial: ModeExpansion
    polarization: dict[str, complex]
    probability: float


def herald(
    sort_result: BiphotonSortResult,
    trigger_port: str = "A",
    trigger_mode=HGIndex(0, 0),
) -> HeraldResult:
    """Condition on detecting ``trigger_mode`` in ``trigger_port``.

    The partner photon exits the complementary port; its normalized
    spatial state is returned together with the (unconsumed) two-photon
    polarization and the overall herald probability.
    """
    if trigger_port not in ("A", "B"):
        raise ValueError("trigger port must be 'A' or 'B'")
    other = "B" if trigger_port == "A" else "A"
    branch = sort_result.branches[trigger_port + other]
    trig = _check_index(trigger_mode)
    # Row trig.n of the branch's HG tile that holds the trigger's order.
    tile = next((tile for tile in branch._tiles if trig.order in tile[0].orders), None)
    if branch.probability <= 0.0 or tile is None:
        raise ValueError("zero-probability trigger")
    state = _expansion(branch._source.geometry, branch._hg_rows(tile, trig.order, slice(trig.n, trig.n + 1))[0], tile[1])
    power = state.norm_sq()
    if power == 0.0:
        raise ValueError("zero-probability trigger")
    return HeraldResult(
        spatial=state.scaled(1.0 / math.sqrt(power)),
        polarization=dict(branch._source.polarization),
        probability=branch.probability * power / branch._power,
    )


# ---------------------------------------------------------------------------
# Entanglement diagnostics
# ---------------------------------------------------------------------------

def schmidt_coefficients(b: BiphotonExpansion) -> list[float]:
    """Schmidt spectrum of a biphoton state at any order.

    Singular values of the photon-1 x photon-2 coefficient matrix over the
    occupied order blocks, normalized to unit sum of squares and sorted
    descending; one value per dimension of the smaller side (two for a
    first-order x first-order state).  The SVD runs only over the rows and
    columns that carry support, so memory follows the support, not the
    orders; the all-zero rest contributes the trailing zeros.
    """
    # The rows and columns of each tile that hold a nonzero entry, by their
    # HG modes o (o + 1) / 2 + n, and the entries they hold.
    parts = [
        (rows.mode[i], cols.mode[j], tile[np.ix_(i, j)])
        for rows, cols, tile in b._tiles
        for i, j in [(np.flatnonzero(tile.any(axis=1)), np.flatnonzero(tile.any(axis=0)))]
    ]
    modes1, modes2 = (np.array(sorted({m for p in parts for m in p[k].tolist()}), int) for k in (0, 1))
    mat = np.zeros((len(modes1), len(modes2)), dtype=complex)
    for m1, m2, entries in parts:
        mat[np.ix_(modes1.searchsorted(m1), modes2.searchsorted(m2))] = entries
    sv = np.linalg.svd(mat, compute_uv=False)
    total = float(np.sum(sv**2))
    if total == 0.0:
        raise ValueError("zero state has no Schmidt spectrum")
    sv = sv / math.sqrt(total)
    dims = min(sum(o + 1 for o in {o for tile in b._tiles for o in tile[k].orders}) for k in (0, 1))
    return [float(s) for s in sv] + [0.0] * (dims - len(sv))


@dataclass
class PathSplitReport:
    """Outcome of separating a polarization-Bell biphoton onto two paths."""

    spatial_schmidt: list[float]
    pbs_success_probability: float
    bs_coincidence_probability: float
    polarization_entanglement_consumed: bool


def pbs_split_bell(b: BiphotonExpansion) -> PathSplitReport:
    """Separate co-propagating photons with a polarizing beam splitter.

    Requires the symmetric HV+VH polarization.  The PBS routes H to one
    path and V to the other deterministically, consuming the polarization
    entanglement while the spatial coefficient matrix (and hence the
    spatial Schmidt spectrum) is untouched.  The 50:50 splitter
    alternative post-selects on one photon per path with probability 1/2.
    """
    pol = b.polarization
    hv = pol.get("HV", 0j)
    vh = pol.get("VH", 0j)
    if (
        abs(pol.get("HH", 0j)) > 1e-9
        or abs(pol.get("VV", 0j)) > 1e-9
        or abs(hv) < 1e-12
        or abs(hv - vh) > 1e-9 * abs(hv)
    ):
        raise ValueError("polarization state unsupported; need HV + VH")
    return PathSplitReport(
        spatial_schmidt=schmidt_coefficients(b.normalized()),
        pbs_success_probability=1.0,
        bs_coincidence_probability=0.5,
        polarization_entanglement_consumed=True,
    )
