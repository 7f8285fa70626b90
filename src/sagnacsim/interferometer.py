"""Two-port Sagnac transfer, parity sorting, OAM cascades, and the
direction-dependent polarization devices.

A stage with base angle theta rotates the co- and counter-propagating
beams by +Omega and -Omega; recombination at the splitter gives the port
operators

    A = (R(+Omega) + e^{i phi} R(-Omega)) / 2
    B = (R(+Omega) - e^{i phi} R(-Omega)) / 2

with phi an optional direction-dependent device phase.  At theta = pi/4
(Omega = pi/2) these reduce to the 2-D parity projectors followed by a
common 90 degree rotation of the surviving field, so even n+m exits port
A and odd n+m exits port B.

Both operators are diagonal in OAM: LG_p^l picks up exp(-+i l Omega) in
the two arms, so a stage multiplies each LG amplitude of an expansion by
the port factor (exp(-i l Omega) +- e^{i phi} exp(i l Omega)) / 2.
Stages and cascades therefore work on the LG amplitudes of the per-order
blocks (:func:`sagnacsim.modes._to_oam`), which keeps port powers
conserved to machine precision at every order.  A tree of such stages
sorts OAM by residue, the Sagnac counterpart of the Mach-Zehnder cascade
of Leach et al., PRL 88, 257901 (2002).  A cascade computes the port
factors of all its stages at once and returns each leaf's power with its
LG amplitudes; a leaf goes back to HG blocks only when its state is read.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .formats import at_line, key_values, numbered_lines, parse_number
from .geometry import omega_from_theta, psi_from_omega, theta_for_psi
from .modes import (
    LGIndex,
    ModeExpansion,
    _from_oam,
    _to_oam,
    rotate_exact,  # no caller; the benchmark's tracer wraps interferometer.rotate_exact
)


@dataclass(frozen=True)
class SagnacStage:
    """One interferometer stage: base angle theta plus device phase phi."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")

    @cached_property
    def omega(self) -> float:
        return omega_from_theta(self.theta)

    @cached_property
    def psi(self) -> float:
        return psi_from_omega(self.omega)


PARITY_STAGE = SagnacStage(math.pi / 4)


@dataclass(frozen=True)
class PortPair:
    """Output expansions at the two ports, with the input power for reference."""

    port_a: ModeExpansion
    port_b: ModeExpansion
    input_norm_sq: float


def _port_factors(omega, phase, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Port A and B amplitudes of LG modes with OAM ``l`` at image rotation
    ``omega`` and device phase factor ``phase`` = e^{i phi}: one stage's as
    scalars, or several stages' as columns, one row per stage."""
    plus = np.exp(-1j * l * omega)  # R(+Omega) eigenvalue
    # e^{i phi} multiplies the exponential instead of joining the exponent,
    # which would move the powers the CLI prints in their last digits.
    minus = np.exp(1j * l * omega) * phase
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def sagnac_transfer(expansion: ModeExpansion, stage: SagnacStage) -> PortPair:
    """Split an input expansion over the two Sagnac ports.

    Lossless for any stage: the two outputs carry the full input power.
    At theta = pi/4 with phi = 0 the ports hold the even and odd 2-D
    parity components (each rotated by 90 degrees).
    """
    w, l = _to_oam(expansion.blocks)
    factor_a, factor_b = _port_factors(stage.omega, cmath.exp(1j * stage.phi), l)
    return PortPair(
        expansion._with_blocks(_from_oam(expansion.blocks, factor_a * w)),
        expansion._with_blocks(_from_oam(expansion.blocks, factor_b * w)),
        expansion.norm_sq(),
    )


def port_powers(pair: PortPair) -> tuple[float, float]:
    """Fractions of the input power leaving ports A and B."""
    if pair.input_norm_sq == 0.0:
        raise ValueError("zero input power")
    return (
        pair.port_a.norm_sq() / pair.input_norm_sq,
        pair.port_b.norm_sq() / pair.input_norm_sq,
    )


def mz_1d_sort(expansion: ModeExpansion) -> PortPair:
    """Ideal single-axis parity sorter (Mach-Zehnder reference model).

    One arm mirrors x, so coefficients route to port A when n is even and
    to port B when n is odd; the surviving terms are passed unchanged.
    """

    def keep(parity: int) -> ModeExpansion:
        return expansion._with_blocks({
            o: np.where(np.arange(o + 1) % 2 == parity, block, 0j)
            for o, block in expansion.blocks.items()
        })

    return PortPair(keep(0), keep(1), expansion.norm_sq())


# ---------------------------------------------------------------------------
# Cascaded OAM sorting
# ---------------------------------------------------------------------------

@dataclass
class CascadeNode:
    """Node of a sorting tree: an internal stage or a labeled leaf."""

    label: str
    stage: SagnacStage | None = None
    child_a: "CascadeNode | None" = None
    child_b: "CascadeNode | None" = None
    residue: int | None = None
    modulus: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.stage is None


def cascade_build(depth: int) -> CascadeNode:
    """Sorting tree whose leaves partition OAM by residue modulo 2**depth.

    Level j (1-based) uses relative rotation psi_j = pi / 2**(j-1); the
    branch handling residue r applies the device phase phi = -r * psi_j so
    that its locally even class (l = r mod 2**j) exits port A.
    """
    if not 1 <= depth <= 5:
        raise ValueError("cascade depth must lie between 1 and 5")

    def build(level: int, residue: int) -> CascadeNode:
        modulus = 2 ** (level - 1)
        if level > depth:
            return CascadeNode(
                label=f"{residue} mod {modulus}", residue=residue, modulus=modulus
            )
        psi = math.pi / 2 ** (level - 1)
        stage = SagnacStage(theta_for_psi(psi), phi=-residue * psi)
        node = CascadeNode(
            label=f"stage{level}[r={residue}]",
            stage=stage,
            child_a=build(level + 1, residue),
            child_b=build(level + 1, residue + modulus),
        )
        return node

    return build(1, 0)


@dataclass
class LeafPower:
    """One leaf of a routed cascade: its label and share of the input power.

    ``state`` is the leaf's HG expansion, built from its LG amplitudes when
    first read and kept; it is None for an :class:`LGIndex` input.
    """

    label: str
    power: float
    _source: ModeExpansion | None = field(repr=False, compare=False)
    _row: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def state(self) -> ModeExpansion | None:
        if self._source is None:
            return None
        return self._source._with_blocks(_from_oam(self._source.blocks, self._row))


def cascade_route(node: CascadeNode, input_state) -> list[LeafPower]:
    """Route an input through a sorting tree; returns per-leaf power fractions.

    The input is taken to LG amplitudes once.  A depth-first walk lists
    the stages, whose port factors are then computed all at once; a second
    walk in the same order only multiplies each node's amplitudes by its
    stage's factors, and each leaf keeps its amplitudes and power.  Both
    walks keep their own stack, so they hold no arrays in reference cycles
    and a deep network cannot exhaust Python's recursion limit.
    An :class:`LGIndex` input is the single amplitude 1 at its l, so its
    leaves carry powers only; a :class:`ModeExpansion` input's leaves go
    back to HG, each on the first read of its ``state``.  Leaves are listed
    in depth-first order, port A first.
    """
    if isinstance(input_state, LGIndex):
        expansion, total = None, 1.0
        w, l = np.ones(1, dtype=complex), np.array([input_state.l])
    elif isinstance(input_state, ModeExpansion):
        expansion, total = input_state, input_state.norm_sq()
        if total == 0.0:
            raise ValueError("zero input power")
        w, l = _to_oam(expansion.blocks)
    else:
        raise TypeError("input must be an LGIndex or a ModeExpansion")
    stages: list[SagnacStage] = []
    todo = [node]  # depth-first, port A first
    while todo:
        n = todo.pop()
        if not n.is_leaf:
            stages.append(n.stage)
            todo += (n.child_b, n.child_a)
    factor_a, factor_b = _port_factors(  # row k: stage k's factors
        np.array([stage.omega for stage in stages])[:, None],
        np.array([cmath.exp(1j * stage.phi) for stage in stages])[:, None],
        l,
    )
    leaves: list[LeafPower] = []
    todo = [(node, w)]  # the same walk meets the stages in the same order
    k = 0
    while todo:
        n, amps = todo.pop()
        if n.is_leaf:
            power = float(np.vdot(amps, amps).real) / total
            leaves.append(LeafPower(n.label, power, expansion, amps))
        else:
            todo += ((n.child_b, factor_b[k] * amps), (n.child_a, factor_a[k] * amps))
            k += 1
    return leaves


def parse_network(text: str) -> CascadeNode:
    """Build a sorting tree from a line-based network description.

    Grammar (one directive per line, ``#`` comments)::

        stage <name> theta=<rad> phi=<rad>
        tree <depth>
        route <parent>.<A|B> -> <child>

    A lone ``tree`` directive expands to the standard residue cascade.
    Unrouted stage ports become leaves labeled ``<name>.<port>``.  Cycles,
    reused children, and unknown names are rejected.
    """
    stages: dict[str, SagnacStage] = {}
    routes: dict[tuple[str, str], tuple[str, int]] = {}  # -> (child, line)
    tree = None
    for lineno, fields in numbered_lines(text):
        with at_line(lineno):
            if fields[0] == "tree":
                if len(fields) != 2:
                    raise ValueError("expected 'tree <depth>'")
                tree = cascade_build(parse_number(fields[1], int, "'tree <depth>'"))
            elif fields[0] == "stage":
                if len(fields) != 4:
                    raise ValueError("expected 'stage <name> theta=<rad> phi=<rad>'")
                name = fields[1]
                if name in stages:
                    raise ValueError(f"duplicate stage '{name}'")
                kv = key_values(fields[2:], ("theta", "phi"))
                kv = {key: parse_number(val) for key, val in kv.items()}
                if set(kv) != {"theta", "phi"}:
                    raise ValueError("stage needs theta= and phi=")
                stages[name] = SagnacStage(kv["theta"], kv["phi"])
            elif fields[0] == "route":
                if len(fields) != 4 or fields[2] != "->":
                    raise ValueError("expected 'route <parent>.<A|B> -> <child>'")
                parent, dot, port = fields[1].rpartition(".")
                if not dot or port not in ("A", "B"):
                    raise ValueError("port must be .A or .B")
                if (parent, port) in routes:
                    raise ValueError(f"duplicate route from {fields[1]}")
                routes[parent, port] = (fields[3], lineno)
            else:
                raise ValueError(f"unknown directive '{fields[0]}'")

    if tree is not None:
        if stages or routes:
            raise ValueError("'tree' cannot be combined with explicit stages")
        return tree
    if not stages:
        raise ValueError("network defines no stages")

    for (parent, _), (child, lineno) in routes.items():
        with at_line(lineno):
            if parent not in stages:
                raise ValueError(f"route from unknown stage '{parent}'")
            if child not in stages:
                raise ValueError(f"route to unknown stage '{child}'")
    children = {child for child, _ in routes.values()}
    if len(children) != len(routes):
        raise ValueError("a stage is routed to more than once")
    roots = [name for name in stages if name not in children]
    if len(roots) != 1:
        # With no root every stage is routed to, so each lies on a cycle or below one.
        which = _stage_names(roots) if roots else f"every stage is routed to: {_stage_names(list(stages))}"
        raise ValueError(f"network must have exactly one root, found {len(roots)} ({which})")

    # Depth-first from the root with an explicit stack, port A first; a
    # stage is built once both children are, so a deep chain cannot
    # exhaust Python's recursion limit.  With one route into each stage, no
    # cycle is reachable from the root: a cycle shows as unreached stages.
    reached: set[str] = set()
    built: dict[str, CascadeNode] = {}
    todo = [(roots[0], False)]
    while todo:
        name, expanded = todo.pop()
        if not expanded:
            reached.add(name)
            todo.append((name, True))
            todo += [
                (route[0], False)
                for port in ("B", "A")
                if (route := routes.get((name, port))) is not None
            ]
            continue
        kids = {}
        for port in ("A", "B"):
            route = routes.get((name, port))
            kids[port] = CascadeNode(label=f"{name}.{port}") if route is None else built.pop(route[0])
        built[name] = CascadeNode(label=name, stage=stages[name], child_a=kids["A"], child_b=kids["B"])
    root = built[roots[0]]
    unreached = [name for name in stages if name not in reached]
    if unreached:
        raise ValueError(f"network contains stages unreachable from the root: {_stage_names(unreached)}")
    return root


def _stage_names(names: list[str]) -> str:
    """The first five stage names, quoted, then '...' if there are more."""
    return ", ".join([f"'{name}'" for name in names[:5]] + ["..."] * (len(names) > 5))


# ---------------------------------------------------------------------------
# Jones-calculus polarization elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JonesVector:
    h: complex = 0j
    v: complex = 0j

    def norm_sq(self) -> float:
        return abs(self.h) ** 2 + abs(self.v) ** 2

    def as_array(self) -> np.ndarray:
        return np.array([self.h, self.v], dtype=complex)


VERTICAL = JonesVector(0.0, 1.0)
DIAG_PLUS45 = JonesVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


def rotation2(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class FaradayRotator:
    """Nonreciprocal rotator: the lab-frame Jones matrix is the same for
    forward and backward passage (the rotation sense flips relative to the
    propagation direction, not relative to the lab)."""

    angle: float

    def matrix(self) -> np.ndarray:
        return rotation2(self.angle)


@dataclass(frozen=True)
class Waveplate:
    """Retarder with independent phases on its axis and the perpendicular.

    ``axis_angle`` is measured from horizontal.  The usual single-number
    retardance corresponds to phase_axis - phase_perp.
    """

    axis_angle: float
    phase_axis: float
    phase_perp: float = 0.0

    def matrix(self) -> np.ndarray:
        u = np.array([math.cos(self.axis_angle), math.sin(self.axis_angle)])
        proj = np.outer(u, u)
        perp = np.eye(2) - proj
        return cmath.exp(1j * self.phase_axis) * proj + cmath.exp(
            1j * self.phase_perp
        ) * perp


@dataclass(frozen=True)
class PolarizingBeamSplitter:
    """Transmits the component along its axis, deflects the perpendicular."""

    axis_angle: float

    def split(self, j: JonesVector) -> tuple[JonesVector, JonesVector]:
        u = np.array([math.cos(self.axis_angle), math.sin(self.axis_angle)])
        vec = j.as_array()
        amp = complex(u @ vec)
        transmitted = JonesVector(amp * u[0], amp * u[1])
        rest = vec - amp * u
        return transmitted, JonesVector(rest[0], rest[1])


def phase_device(
    pol: JonesVector,
    direction: str,
    retardance_fast: float,
    retardance_slow: float,
) -> tuple[JonesVector, float]:
    """Direction-dependent phase shifter: Faraday glass, waveplate, Faraday glass.

    A vertically polarized beam is rotated onto the waveplate's fast axis
    going forward (phase retardance_fast) and onto the slow axis going
    backward (phase retardance_slow), then restored to vertical.  The
    returned phase is the scalar picked up by the vertical component.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    vec = pol.as_array()
    norm = math.sqrt(pol.norm_sq())
    if norm == 0.0 or abs(pol.h) > 1e-9 * norm:
        raise ValueError("device modeled for vertical polarization only")
    # Fast axis at +45 deg; entry rotator maps V onto it, exit rotator maps
    # it back.  Backward passage meets the same nonreciprocal rotators in
    # reverse order, landing V on the slow axis instead.
    fg_in = FaradayRotator(-math.pi / 4)
    fg_out = FaradayRotator(math.pi / 4)
    wp = Waveplate(
        axis_angle=math.pi / 4,
        phase_axis=retardance_fast,
        phase_perp=retardance_slow,
    )
    if direction == "forward":
        chain = fg_out.matrix() @ wp.matrix() @ fg_in.matrix()
    else:
        chain = fg_in.matrix() @ wp.matrix() @ fg_out.matrix()
    out = chain @ vec
    phase = cmath.phase(out[1] / vec[1])
    result = JonesVector(complex(out[0]), complex(out[1]))
    return result, phase


@dataclass(frozen=True)
class IsolatorResult:
    """Where the light went: transmitted plus any deflected components."""

    transmitted: JonesVector
    deflected_pbs1: JonesVector
    deflected_pbs2: JonesVector

    def powers(self) -> dict[str, float]:
        return {
            "transmitted": self.transmitted.norm_sq(),
            "PBS1": self.deflected_pbs1.norm_sq(),
            "PBS2": self.deflected_pbs2.norm_sq(),
        }


def faraday_isolator(pol: JonesVector, direction: str) -> IsolatorResult:
    """Faraday isolator: PBS at +45 deg, rotator, PBS vertical.

    Forward, a +45 deg input is fully transmitted and leaves vertical.
    Backward, a vertical input passes the vertical PBS, is rotated onto
    -45 deg, and is fully deflected at the 45 deg PBS; any horizontal
    component is deflected immediately at the vertical PBS.  Spatial mode
    is untouched; only polarization routing is modeled.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    pbs1 = PolarizingBeamSplitter(math.pi / 4)  # +45 deg to vertical == 45 from H
    pbs2 = PolarizingBeamSplitter(math.pi / 2)  # vertical
    fg = FaradayRotator(math.pi / 4)
    zero = JonesVector()
    if direction == "forward":
        into, defl1 = pbs1.split(pol)
        rotated = fg.matrix() @ into.as_array()
        out, defl2 = pbs2.split(JonesVector(rotated[0], rotated[1]))
        return IsolatorResult(out, defl1, defl2)
    into, defl2 = pbs2.split(pol)
    rotated = fg.matrix() @ into.as_array()
    out, defl1 = pbs1.split(JonesVector(rotated[0], rotated[1]))
    return IsolatorResult(out, defl1, defl2)
