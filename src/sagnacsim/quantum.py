"""Post-selected two-photon mode functions: SPDC sources, fiber filtering,
biphoton sorting, compressors, heralding, and entanglement diagnostics.

All states live in the post-selected two-photon subspace; probabilities
are conditional on a pair being present.  The spatial part of a biphoton
is a set of per-order coefficient blocks: block ``(o1, o2)`` has shape
``(o1 + 1, o2 + 1)`` and entry ``[n1, n2]`` multiplies HG_{n1, o1-n1} x
HG_{n2, o2-n2}; only blocks holding a nonzero term are kept, under the
norm and scaling rules :class:`~sagnacsim.modes.ModeExpansion` shares.  Both
Sagnac ports are diagonal over LG modes, so sorting takes each block C to
its LG amplitudes V1^H C V2* (V = diag(i^n) R, one real product with R per
photon order) and reads the four branch powers off them; a branch's HG
blocks are built only when its state is read, and heralding builds only
the trigger's row of them.  The compressor is the per-block product with
its order-one unitary, and the Schmidt spectrum is an SVD over the rows
and columns that carry support, at any order.  The two-photon
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
from itertools import accumulate, groupby
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

_INVERSE_PHASES = _PHASES.conj()  # i^-n, n = 0..MAX_ORDER: V^dagger = R^T diag(i^-n)


class BiphotonExpansion(_Amplitudes):
    """Finite expansion over ordered HG x HG products plus polarization.

    ``blocks`` maps ``(o1, o2)`` to a read-only coefficient block (layout in
    the module docstring); ``terms`` is derived from it.
    """

    __slots__ = ("blocks", "polarization")
    _noun = "biphoton state"

    def __init__(self, terms, polarization=None, geometry: BeamGeometry = DEFAULT_GEOMETRY):
        # Every term is validated, and the blocks it occupies are counted
        # against MAX_BIPHOTON_ENTRIES, before any block is allocated.
        checked = []
        for (a, b), amp in dict(terms).items():
            a, b, amp = _check_index(a), _check_index(b), complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {(a, b)}")
            if amp != 0:
                checked.append((a, b, amp))
        entries = sum((o1 + 1) * (o2 + 1) for o1, o2 in {(a.order, b.order) for a, b, _ in checked})
        if entries > MAX_BIPHOTON_ENTRIES:
            raise ValueError(
                f"biphoton blocks would hold {entries} entries, more than the limit of {MAX_BIPHOTON_ENTRIES}"
            )
        self.blocks = {}
        for a, b, amp in checked:
            if (a.order, b.order) not in self.blocks:
                self.blocks[a.order, b.order] = np.zeros((a.order + 1, b.order + 1), complex)
            self.blocks[a.order, b.order][a.n, b.n] = amp
        for block in self.blocks.values():
            block.setflags(write=False)
        self._check_norm()
        pol = dict(polarization) if polarization is not None else bell_polarization()
        for k in pol:
            if k not in POLARIZATION_KEYS:
                raise ValueError(f"unknown polarization component '{k}'")
        self.polarization = {k: complex(v) for k, v in pol.items()}
        self.geometry = geometry

    def _with_blocks(self, blocks) -> "BiphotonExpansion":
        """This state with the nonzero ``blocks``, made read-only; unvalidated."""
        out = object.__new__(BiphotonExpansion)
        out.blocks = {key: block for key, block in blocks.items() if np.count_nonzero(block)}
        for block in out.blocks.values():
            block.setflags(write=False)
        out.geometry, out.polarization, out._norm_sq = self.geometry, dict(self.polarization), None
        return out

    def _map(self, f) -> "BiphotonExpansion":
        return self._with_blocks({key: f(block) for key, block in self.blocks.items()})

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
        block = self.blocks.get((a.order, b.order))
        if block is None or min(a.n, a.m, b.n, b.m) < 0:
            return 0j
        return complex(block[a.n, b.n])

    def __repr__(self):
        inside = ", ".join(
            f"({a.n}{a.m},{b.n}{b.m}): {c:.4g}"
            for (a, b), c in sorted(self.terms.items())
        )
        return f"BiphotonExpansion({{{inside}}})"


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
    _amps: dict = field(repr=False, compare=False)  # (o1, o2) -> W = R1^T (i^-n1 C i^-n2) R2
    _rows: dict = field(repr=False, compare=False)  # order -> (f_A, f_B)
    _ports: tuple[int, int] = field(repr=False, compare=False)  # rows for photons 1, 2

    @cached_property
    def state(self) -> BiphotonExpansion | None:
        if self._power == 0.0:
            return None
        blocks, scale = {}, 1.0 / math.sqrt(self._power)
        for o1, keys in groupby(sorted(self._amps), key=lambda key: key[0]):
            layout, hg = self._hg_rows(o1, tuple(o2 for _, o2 in keys), scale=scale)
            starts = layout.starts.tolist()
            blocks.update(((o1, o), hg[:, s:s + o + 1]) for o, s in zip(layout.orders, starts))
        return self._source._with_blocks({key: blocks[key] for key in self._amps})

    def _hg_rows(self, o1: int, o2s: tuple[int, ...], rows: slice = slice(None), scale: float = 1.0) -> tuple:
        """The ``_layout`` of the sorted ``o2s``, and in it ``rows`` of this branch's HG
        blocks (o1, o2) times ``scale``: V1 (f_i W f_j) V2^T with V = diag(i^n) R, V2^T
        applied row by row by ``_from_oam``."""
        (i, j), f, layout = self._ports, self._rows, _layout(o2s)
        left = _order_basis(o1)[rows] * _PHASES[:o1 + 1][rows, None] * (f[o1][i] * scale)
        w = _joined([self._amps[o1, o2].T for o2 in o2s], axis=0).T
        return layout, _from_oam(layout, left @ w * _joined([f[o2][j] for o2 in o2s], axis=0))


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


def _joined(blocks: list[np.ndarray], axis: int) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=axis)


def _to_lg(order: int, x: np.ndarray) -> np.ndarray:
    """V^dagger x = R^T (i^-n x) over the HG rows n of ``x``: one real product on its float pairs."""
    x = np.ascontiguousarray(x * _INVERSE_PHASES[:order + 1, None])
    return (_order_basis(order).T @ x.view(float)).view(complex)


def _edges(orders: list[int]) -> list[int]:
    """Offsets of blocks of these orders joined along one axis."""
    return list(accumulate((o + 1 for o in orders), initial=0))


def sort_biphoton(b: BiphotonExpansion, stage: SagnacStage) -> BiphotonSortResult:
    """Sort each photon of a biphoton independently at one Sagnac stage.

    Returns the four conditional (normalized) states with probabilities
    summing to one.  States are reported in the output beams' own frames;
    the common output rotation would multiply both photons identically and
    is omitted.

    Both ports are diagonal over LG modes, so each block C is taken once to
    its LG amplitudes W = V1^H C V2* = R1^T (i^-n1 C i^-n2) R2: the blocks of
    each photon-1 order, side by side, take R1^T in one real product, and for
    each photon-2 order the matching column slices, stacked, take R2 in one.
    Branch (i, j) then has power sum |f_i(l1)|^2 |W|^2 |f_j(l2)|^2,
    accumulated once per photon-2 order, and builds no state until its
    ``state`` is read.  Only occupied blocks are joined, so memory follows
    the support.
    """
    total = b.norm_sq()
    if total == 0.0:
        raise ValueError("zero biphoton state")
    # rows[o] = (f_A, f_B) = (1 +- e^{i phi} e^{2 i l Omega})/2: the ports
    # (1 +- e^{i phi} R(-2 Omega))/2 of the output-beam frame over the LG
    # modes of order o, column k matching column k of R (_order_basis(o)), l = o - 2k.
    phase = cmath.exp(1j * stage.phi)
    rows = {}
    for o in {order for key in b.blocks for order in key}:
        back = phase * np.exp(2j * stage.omega * np.arange(o, -o - 1, -2))
        rows[o] = 0.5 * np.stack((1.0 + back, 1.0 - back))
    by_o1: dict[int, list[int]] = {}
    by_o2: dict[int, list[int]] = {}
    for o1, o2 in b.blocks:
        by_o1.setdefault(o1, []).append(o2)
        by_o2.setdefault(o2, []).append(o1)
    # left[o1, o2] = R1^T (i^-n1 C) for the block (o1, o2), a column slice of
    # one product per photon-1 order.
    left = {}
    for o1, o2s in by_o1.items():
        product = _to_lg(o1, _joined([b.blocks[o1, o2] for o2 in o2s], axis=1))
        edges = _edges(o2s)
        for o2, start, stop in zip(o2s, edges, edges[1:]):
            left[o1, o2] = product[:, start:stop]
    amps = dict.fromkeys(b.blocks)  # (o1, o2) -> W, in block order
    power = np.zeros((2, 2))
    for o2, o1s in by_o2.items():
        w = _to_lg(o2, _joined([left[o1, o2] for o1 in o1s], axis=0).T).T  # (V2^H left^T)^T
        gain1 = np.abs(_joined([rows[o1] for o1 in o1s], axis=1)) ** 2
        power += gain1 @ (w.real**2 + w.imag**2) @ (np.abs(rows[o2]) ** 2).T
        edges = _edges(o1s)
        for o1, start, stop in zip(o1s, edges, edges[1:]):
            amps[o1, o2] = w[start:stop]
    return BiphotonSortResult({
        p1 + p2: SortedBranch(float(power[i, j]) / total, float(power[i, j]), b, amps, rows, (i, j))
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
    # Row trig.n of the branch's blocks of the trigger's order.
    o2s = tuple(sorted(o2 for o1, o2 in branch._amps if o1 == trig.order))
    if branch.probability <= 0.0 or not o2s:
        raise ValueError("zero-probability trigger")
    layout, hg = branch._hg_rows(trig.order, o2s, slice(trig.n, trig.n + 1))
    state = ModeExpansion({}, branch._source.geometry)._with_vector(hg[0], layout)
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
    # The rows n1 and columns n2 of each block that hold a nonzero entry.
    support = {
        key: (np.flatnonzero(block.any(axis=1)).tolist(), np.flatnonzero(block.any(axis=0)).tolist())
        for key, block in b.blocks.items()
    }
    # Matrix rows and columns follow the sorted HG indices (n, m).
    rows = {a: i for i, a in enumerate(sorted(
        {(n1, o1 - n1) for (o1, _), (n1s, _) in support.items() for n1 in n1s}
    ))}
    cols = {c: j for j, c in enumerate(sorted(
        {(n2, o2 - n2) for (_, o2), (_, n2s) in support.items() for n2 in n2s}
    ))}
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for (o1, o2), (n1s, n2s) in support.items():
        at = np.ix_([rows[n, o1 - n] for n in n1s], [cols[n, o2 - n] for n in n2s])
        mat[at] = b.blocks[o1, o2][np.ix_(n1s, n2s)]
    sv = np.linalg.svd(mat, compute_uv=False)
    total = float(np.sum(sv**2))
    if total == 0.0:
        raise ValueError("zero state has no Schmidt spectrum")
    sv = sv / math.sqrt(total)
    dims = min(sum(o + 1 for o in set(orders)) for orders in zip(*b.blocks))
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
