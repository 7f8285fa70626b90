"""Post-selected two-photon mode functions: SPDC sources, fiber filtering,
biphoton sorting, compressors, heralding, and entanglement diagnostics.

All states live in the post-selected two-photon subspace; probabilities
are conditional on a pair being present.  The spatial part of a biphoton
is a set of per-order coefficient blocks: block ``(o1, o2)`` has shape
``(o1 + 1, o2 + 1)`` and entry ``[n1, n2]`` multiplies HG_{n1, o1-n1} x
HG_{n2, o2-n2}; only blocks holding a nonzero term are kept.  Sorting
computes P1 C P2^T for every block with one product per photon order:
the blocks of each photon-1 order side by side take P1 at once, and the
results for each photon-2 order, stacked, take P2^T at once for all four
branches; each branch block is a read-only view of those outputs.
Heralding reads one row of each block as a view, the compressor is the
per-block product with its order-one unitary, and the Schmidt spectrum
is an SVD over the rows and columns that carry support, at any order.
The two-photon polarization is carried alongside as amplitudes over
{HV, VH, HH, VV}.

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
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import IO

import numpy as np

from .formats import at_line, numbered_lines, parse_number
from .interferometer import SagnacStage
from .modes import (
    BeamGeometry,
    HGIndex,
    LGIndex,
    ModeExpansion,
    _check_index,
    _check_norm,
    rotation_matrix,
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


class BiphotonExpansion:
    """Finite expansion over ordered HG x HG products plus polarization.

    ``blocks`` maps ``(o1, o2)`` to a read-only coefficient block (layout in
    the module docstring); ``terms`` is derived from it.
    """

    __slots__ = ("blocks", "polarization", "geometry")

    def __init__(self, terms, polarization=None, geometry: BeamGeometry = DEFAULT_GEOMETRY):
        self.blocks = {}
        for (a, b), amp in dict(terms).items():
            # Validated before anything is allocated for it: a block is at
            # most (MAX_ORDER + 1) x (MAX_ORDER + 1).
            a, b, amp = _check_index(a), _check_index(b), complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"non-finite amplitude for {(a, b)}")
            if amp != 0:
                if (a.order, b.order) not in self.blocks:
                    self.blocks[a.order, b.order] = np.zeros((a.order + 1, b.order + 1), complex)
                self.blocks[a.order, b.order][a.n, b.n] = amp
        for block in self.blocks.values():
            block.setflags(write=False)
        _check_norm(self)
        pol = dict(polarization) if polarization is not None else bell_polarization()
        for k in pol:
            if k not in POLARIZATION_KEYS:
                raise ValueError(f"unknown polarization component '{k}'")
        self.polarization = {k: complex(v) for k, v in pol.items()}
        self.geometry = geometry

    def _with_blocks(self, blocks) -> "BiphotonExpansion":
        """This state's polarization and geometry with the nonzero ``blocks``."""
        kept = {key: block for key, block in blocks.items() if np.count_nonzero(block)}
        for block in kept.values():
            block.setflags(write=False)
        return self._adopt(kept)

    def _adopt(self, blocks) -> "BiphotonExpansion":
        """This state's polarization and geometry holding ``blocks`` as given:
        each one already nonzero and read-only."""
        out = object.__new__(BiphotonExpansion)
        out.blocks, out.polarization, out.geometry = blocks, dict(self.polarization), self.geometry
        return out

    @property
    def terms(self) -> Mapping[tuple[HGIndex, HGIndex], complex]:
        """Read-only mapping of the nonzero coefficients."""
        return MappingProxyType({
            (HGIndex(n1, o1 - n1), HGIndex(n2, o2 - n2)): complex(block[n1, n2])
            for (o1, o2), block in self.blocks.items()
            for n1, n2 in np.argwhere(block).tolist()
        })

    def coeff(self, a, b) -> complex:
        a, b = HGIndex(*a), HGIndex(*b)
        block = self.blocks.get((a.order, b.order))
        if block is None or min(a.n, a.m, b.n, b.m) < 0:
            return 0j
        return complex(block[a.n, b.n])

    def norm_sq(self) -> float:
        return float(sum(np.vdot(block, block).real for block in self.blocks.values()))

    def normalized(self) -> "BiphotonExpansion":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot normalize a zero biphoton state")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> "BiphotonExpansion":
        return self._with_blocks({k: v * factor for k, v in self.blocks.items()})

    def pruned(self, tol: float = 0.0) -> "BiphotonExpansion":
        return self._with_blocks(
            {k: np.where(np.abs(v) > tol, v, 0j) for k, v in self.blocks.items()}
        )

    def is_exchange_symmetric(self, tol: float = 1e-12) -> bool:
        for (o1, o2), block in self.blocks.items():
            mirror = self.blocks.get((o2, o1))
            diff = block if mirror is None else block - mirror.T
            if np.max(np.abs(diff)) > tol:
                return False
        return True

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


def dump_biphoton_table(b: BiphotonExpansion) -> str:
    lines = ["biphoton v1"]
    for (a, pb), c in sorted(b.terms.items()):
        lines.append(f"{a.n} {a.m} {pb.n} {pb.m} {c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Three-mode fiber
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberSpec:
    """Weakly guiding parabolic-index fiber in its three-mode regime.

    The normalized frequency is V = (omega_p n0 / c) a sqrt(2 Delta).  In
    the parabolic-profile oscillator approximation a mode group of total
    order N is guided when V > 2 (N + 1), so exactly the fundamental plus
    the two first-order modes propagate for 4 < V <= 6.
    """

    core_radius: float
    normalized_frequency: float
    index_contrast: float
    n0: float
    pump_frequency: float

    C_LIGHT = 299792458.0

    def __post_init__(self):
        if min(self.core_radius, self.normalized_frequency, self.index_contrast,
               self.n0, self.pump_frequency) <= 0:
            raise ValueError("all fiber parameters must be positive")
        if not self.index_contrast < 0.05:
            raise ValueError("index contrast too large for weak guidance")
        v_check = (
            self.pump_frequency
            * self.n0
            / self.C_LIGHT
            * self.core_radius
            * math.sqrt(2.0 * self.index_contrast)
        )
        if abs(v_check - self.normalized_frequency) > 1e-6 * self.normalized_frequency:
            raise ValueError(
                "normalized frequency inconsistent with fiber parameters"
            )

    @classmethod
    def from_v(
        cls,
        core_radius: float,
        normalized_frequency: float,
        index_contrast: float = 0.01,
        n0: float = 1.45,
    ) -> "FiberSpec":
        pump = (
            normalized_frequency
            * cls.C_LIGHT
            / (n0 * core_radius * math.sqrt(2.0 * index_contrast))
        )
        return cls(core_radius, normalized_frequency, index_contrast, n0, pump)

    @property
    def matched_waist(self) -> float:
        """Free-space waist that overlaps the guided fundamental: a sqrt(2/V)."""
        return self.core_radius * math.sqrt(2.0 / self.normalized_frequency)


def guided_modes(fiber: FiberSpec) -> list[LGIndex]:
    """Guided LG modes of a three-mode fiber: (0,0), (0,+1), (0,-1).

    Anything outside the window 4 < V <= 6 guides a different mode count
    and is rejected; this model only covers the three-mode regime.
    """
    v = fiber.normalized_frequency
    if not 4.0 < v <= 6.0:
        raise ValueError("fiber outside three-mode regime")
    return [LGIndex(0, 0), LGIndex(0, 1), LGIndex(0, -1)]


def fiber_filter_single(
    expansion: ModeExpansion, renormalize: bool = False
) -> tuple[ModeExpansion, float]:
    """Project onto the guided span {HG00, HG10, HG01}.

    Returns the projected expansion and the transmitted power fraction.
    A zero projection is flagged with a warning, not an error.
    """
    out = expansion._with_blocks({o: b for o, b in expansion.blocks.items() if o <= 1})
    total = expansion.norm_sq()
    fraction = out.norm_sq() / total if total > 0 else 0.0
    if total > 0 and out.norm_sq() == 0.0:
        warnings.warn("fiber filter removed all power", stacklevel=2)
    if renormalize and out.norm_sq() > 0:
        out = out.normalized()
    return out, fraction


def fiber_filter_biphoton(b: BiphotonExpansion) -> tuple[BiphotonExpansion, float]:
    """Keep terms with both photons in the guided span; renormalize.

    Returns the renormalized state and the post-selection probability
    (kept power over total power).
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

def _frame_port_maps(stage: SagnacStage, orders) -> dict[int, np.ndarray]:
    """Single-photon port operators in the output-beam frame, per total order.

    Factoring the common R(Omega) out of both ports leaves
    A = (1 + e^{i phi} R(-2 Omega))/2 and B = (1 - e^{i phi} R(-2 Omega))/2,
    evaluated with the exact rotation matrices.  Each value stacks (A, B)
    along its first axis.
    """
    phase = cmath.exp(1j * stage.phi)
    maps = {}
    for order in orders:
        back = phase * rotation_matrix(order, -2.0 * stage.omega)
        eye = np.eye(order + 1)
        maps[order] = np.stack((0.5 * (eye + back), 0.5 * (eye - back)))
    return maps


@dataclass
class SortedBranch:
    probability: float
    state: BiphotonExpansion | None


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


def _edges(orders: list[int]) -> list[int]:
    """Offsets of blocks of these orders joined along one axis."""
    return list(accumulate((o + 1 for o in orders), initial=0))


def sort_biphoton(b: BiphotonExpansion, stage: SagnacStage) -> BiphotonSortResult:
    """Sort each photon of a biphoton independently at one Sagnac stage.

    Returns the four conditional (normalized) states with probabilities
    summing to one.  States are reported in the output beams' own frames;
    the common output rotation would multiply both photons identically and
    is omitted.

    The port maps act once per photon order: the blocks of each photon-1
    order, side by side, take (P_A, P_B) in one product, and for each
    photon-2 order the matching column slices of those products, stacked
    as rows, take (P_A, P_B)^T in one product holding all four branches.
    Branch powers, normalization and the nonzero test of every block are
    computed once per such output, which is then made read-only; each
    branch block is a row slice of it.  Only occupied blocks are joined,
    so memory follows the support.
    """
    total = b.norm_sq()
    if total == 0.0:
        raise ValueError("zero biphoton state")
    maps = _frame_port_maps(stage, sorted({order for key in b.blocks for order in key}))
    by_o1: dict[int, list[int]] = {}
    by_o2: dict[int, list[int]] = {}
    for o1, o2 in b.blocks:
        by_o1.setdefault(o1, []).append(o2)
        by_o2.setdefault(o2, []).append(o1)
    # left[o1, o2][i] = P_i C for the block (o1, o2), a column slice of
    # one (2, o1 + 1, sum of o2 + 1) product per photon-1 order.
    left = {}
    for o1, o2s in by_o1.items():
        product = maps[o1] @ _joined([b.blocks[o1, o2] for o2 in o2s], axis=1)
        edges = _edges(o2s)
        for o2, start, stop in zip(o2s, edges, edges[1:]):
            left[o1, o2] = product[:, :, start:stop]
    # outputs[o2][i, j] = P_i C P_j^T for the blocks (o1, o2), stacked as
    # rows in block order.
    outputs = {}
    power = np.zeros((2, 2))
    for o2, o1s in by_o2.items():
        stacked = _joined([left[o1, o2] for o1 in o1s], axis=1)
        out = stacked[:, None] @ maps[o2].transpose(0, 2, 1)[None]
        flat = out.view(float)
        power += np.einsum("ijrc,ijrc->ij", flat, flat)
        outputs[o2] = out
    scale = np.zeros((2, 2))
    np.divide(1.0, np.sqrt(power), out=scale, where=power > 0)
    nonzero = {}  # o2 -> per-branch flags, one per block of the output
    rows = dict.fromkeys(b.blocks)  # (o1, o2) -> (flag index, row slice), in block order
    for o2, o1s in by_o2.items():
        out = outputs[o2]
        out *= scale[:, :, None, None]
        edges = _edges(o1s)
        nonzero[o2] = np.logical_or.reduceat(np.any(out, axis=3), edges[:-1], axis=2).tolist()
        out.setflags(write=False)
        for k, (o1, start, stop) in enumerate(zip(o1s, edges, edges[1:])):
            rows[o1, o2] = (k, slice(start, stop))
    branches = {}
    for i, p1 in enumerate("AB"):
        for j, p2 in enumerate("AB"):
            state = None
            if power[i, j] > 0:
                plane = {o2: out[i, j] for o2, out in outputs.items()}
                kept = {o2: flags[i][j] for o2, flags in nonzero.items()}
                state = b._adopt({
                    (o1, o2): plane[o2][span]
                    for (o1, o2), (k, span) in rows.items() if kept[o2][k]
                })
            branches[p1 + p2] = SortedBranch(float(power[i, j]) / total, state)
    return BiphotonSortResult(branches)


@dataclass(frozen=True)
class CompressorSpec:
    """Stress compressor on the fiber: retarder analogy on first-order modes.

    ``axis_angle`` is the compression direction in the transverse plane
    (measured from x); the aligned first-order component picks up
    exp(i retardance) relative to the perpendicular one.
    """

    axis_angle: float
    retardance: float

    def __post_init__(self):
        if not 0.0 <= self.retardance < 2.0 * math.pi:
            raise ValueError("retardance must lie in [0, 2*pi)")

    def matrix(self) -> np.ndarray:
        """2x2 unitary on (c_10, c_01)."""
        u = np.array([math.cos(self.axis_angle), math.sin(self.axis_angle)])
        proj = np.outer(u, u).astype(complex)
        perp = np.eye(2, dtype=complex) - proj
        return cmath.exp(1j * self.retardance) * proj + perp


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
    if branch.probability <= 0.0 or branch.state is None:
        raise ValueError("zero-probability trigger")
    trig = _check_index(trigger_mode)
    state = ModeExpansion({}, branch.state.geometry)._with_blocks({
        o2: block[trig.n] for (o1, o2), block in branch.state.blocks.items() if o1 == trig.order
    })
    power = state.norm_sq()
    if power == 0.0:
        raise ValueError("zero-probability trigger")
    return HeraldResult(
        spatial=state.scaled(1.0 / math.sqrt(power)),
        polarization=dict(branch.state.polarization),
        probability=branch.probability * power,
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
