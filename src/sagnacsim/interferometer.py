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
Stages and cascades therefore work on the LG amplitudes of an expansion's
vector (:func:`sagnacsim.modes._to_oam`), which keeps port powers conserved
to machine precision at every order, and a port's state holds its row of
the product back as its vector.  A tree of such stages sorts OAM by
residue, the Sagnac counterpart of the Mach-Zehnder cascade of Leach et
al., PRL 88, 257901 (2002).  A sorting tree is immutable and keeps a level
plan from its first route; a cascade goes down it level by level,
multiplying each level's gathered port factors (one table of stages by OAM
values per route) by its parents' rows, and returns each leaf's power with
its LG amplitudes; a leaf goes back to HG only when its state is read.

The polarization elements are Jones-matrix functions: :func:`rotation2`
(also the Faraday rotator), :func:`retarder` (a waveplate, and on the
first-order modes (HG10, HG01) the fiber stress compressor) and
:func:`pbs_split`.  :func:`phase_device` and :func:`faraday_isolator`
chain them.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .formats import at_line, key_values, numbered_lines, parse_number
from .geometry import omega_from_theta, psi_from_omega, theta_for_psi
from .modes import (
    LGIndex,
    ModeExpansion,
    _check_lg_index,
    _from_oam,
    _to_oam,
    rotate_exact,  # no caller; the benchmark's tracer wraps interferometer.rotate_exact
)

# Deepest sorting tree cascade_build makes: 2**5 leaves.
MAX_CASCADE_DEPTH = 5


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


def _port_factor_table(omega, phase, top: int) -> np.ndarray:
    """Port A and B amplitudes of the LG modes with OAM l = -top..top at
    image rotation ``omega`` and device phase factor ``phase`` = e^{i phi}:
    shape (2, 2 top + 1) for one stage, (stages, 2, 2 top + 1) for arrays of
    stages.  exp(i l Omega) is taken once per |l|: its conjugate gives -l,
    and the l axis reversed gives the R(+Omega) eigenvalues exp(-i l Omega),
    so every factor has the bits of evaluating each exponential directly."""
    half = np.exp(1j * np.arange(top + 1) * np.asarray(omega)[..., None])
    minus = np.concatenate([half[..., :0:-1].conj(), half], axis=-1)
    plus = minus[..., ::-1]
    # e^{i phi} multiplies the exponential instead of joining the exponent,
    # which would move the powers the CLI prints in their last digits.
    minus = minus * np.asarray(phase)[..., None]
    table = np.stack([plus + minus, plus - minus], axis=-2)
    table *= 0.5
    return table


def sagnac_transfer(expansion: ModeExpansion, stage: SagnacStage) -> PortPair:
    """Split an input expansion over the two Sagnac ports.

    Lossless for any stage: the two outputs carry the full input power.
    At theta = pi/4 with phi = 0 the ports hold the even and odd 2-D
    parity components (each rotated by 90 degrees).
    """
    layout = expansion._layout
    top = int(layout.l.max(initial=0))
    factors = _port_factor_table(stage.omega, cmath.exp(1j * stage.phi), top).take(layout.l + top, axis=1)
    port_a, port_b = _from_oam(layout, factors * _to_oam(layout, expansion._vector))
    return PortPair(expansion._with_vector(port_a), expansion._with_vector(port_b), expansion.norm_sq())


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
        return expansion._with_vector(np.where(expansion._layout.n % 2 == parity, expansion._vector, 0j))

    return PortPair(keep(0), keep(1), expansion.norm_sq())


# ---------------------------------------------------------------------------
# Cascaded OAM sorting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CascadeNode:
    """Node of a sorting tree: a stage with both children, or a labeled leaf
    with neither.  A tree is immutable and compares by identity, and a root
    keeps the route plan built on its first route; the repr shows the label
    and stage only."""

    label: str
    stage: SagnacStage | None = None
    child_a: "CascadeNode | None" = field(default=None, repr=False)
    child_b: "CascadeNode | None" = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.stage is None) == (self.child_a is None) == (self.child_b is None):
            raise ValueError(f"cascade node '{self.label}' needs a stage and both children, or none of them")

    @property
    def is_leaf(self) -> bool:
        return self.stage is None

    @cached_property
    def _plan(self) -> _RoutePlan:
        return _route_plan(self)


@dataclass(frozen=True)
class _RoutePlan:
    """A tree's stages (Omega and e^{i phi}, stage k at factor table rows
    2k and 2k + 1 for ports A and B) and leaf labels in depth-first order,
    port A first, and per level of stages the index arrays of the products:
    ``places`` (the rows of the level above, or of the input, that each
    multiplies), ``factor_rows``, and the ``leaf_rows`` at ``leaf_slots``."""

    omega: np.ndarray
    phase: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    labels: tuple[str, ...]


def _route_plan(root: CascadeNode) -> _RoutePlan:
    if root.is_leaf:
        return _RoutePlan(np.zeros(0), np.zeros(0, dtype=complex), (), (root.label,))
    omega: list[float] = []
    phase: list[complex] = []
    labels: list[str] = []
    levels: list[tuple[list, list, list, list]] = []
    todo = [(root, -1, 0)]  # node, its parent's level, its row there
    while todo:
        node, above, row = todo.pop()
        if node.is_leaf:
            _, _, leaf_rows, leaf_slots = levels[above]
            leaf_rows.append(row)
            leaf_slots.append(len(labels))
            labels.append(node.label)
            continue
        if above + 1 == len(levels):
            levels.append(([], [], [], []))
        places, factor_rows, _, _ = levels[above + 1]
        k, i = len(omega), len(places)
        places += (row, row)
        factor_rows += (2 * k, 2 * k + 1)
        omega.append(node.stage.omega)
        phase.append(cmath.exp(1j * node.stage.phi))
        todo += ((node.child_b, above + 1, i + 1), (node.child_a, above + 1, i))
    return _RoutePlan(
        np.array(omega),
        np.array(phase, dtype=complex),
        tuple(tuple(np.array(index, dtype=np.intp) for index in level) for level in levels),
        tuple(labels),
    )


def cascade_build(depth: int) -> CascadeNode:
    """Sorting tree whose leaves partition OAM by residue modulo 2**depth.

    Level j (1-based) uses relative rotation psi_j = pi / 2**(j-1); the
    branch handling residue r applies the device phase phi = -r * psi_j so
    that its locally even class (l = r mod 2**j) exits port A.
    """
    if not isinstance(depth, (int, np.integer)):
        raise ValueError(f"cascade depth must be an integer, got {depth!r}")
    if not 1 <= depth <= MAX_CASCADE_DEPTH:
        raise ValueError(f"cascade depth must lie between 1 and {MAX_CASCADE_DEPTH}")

    def build(level: int, residue: int) -> CascadeNode:
        modulus = 2 ** (level - 1)
        if level > depth:
            return CascadeNode(label=f"{residue} mod {modulus}")
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
    _row: np.ndarray | None = field(repr=False, compare=False)

    @cached_property
    def state(self) -> ModeExpansion | None:
        if self._source is None:
            return None
        return self._source._with_vector(_from_oam(self._source._layout, self._row))


def cascade_route(node: CascadeNode, input_state) -> list[LeafPower]:
    """Route an input through a sorting tree; returns per-leaf power fractions.

    The input is taken to LG amplitudes once and goes down the tree level
    by level, along the plan the tree keeps (:class:`_RoutePlan`): each
    level multiplies its stages' port factors, gathered from one table of
    stages by OAM values, by its parents' rows.  The leaf rows land in one
    array, which the leaves view, and a leaf's power is numpy's sum of
    re^2 + im^2 over its row.  Nothing recurses, so a deep network cannot
    exhaust Python's recursion limit.  An :class:`LGIndex` input is the
    single amplitude 1 at its l, so its leaves carry powers only; a
    :class:`ModeExpansion` input's leaves go back to HG, each on the first
    read of its ``state``.  Leaves are listed in depth-first order, port A
    first.
    """
    if isinstance(input_state, LGIndex):
        labels, powers = _oam_leaf_powers(node, [_check_lg_index(input_state).l])
        return [LeafPower(label, power, None, None) for label, (power,) in zip(labels, powers.tolist())]
    if not isinstance(input_state, ModeExpansion):
        raise TypeError("input must be an LGIndex or a ModeExpansion")
    total = input_state.norm_sq()
    if total == 0.0:
        raise ValueError("zero input power")
    plan = node._plan
    w, l = _to_oam(input_state._layout, input_state._vector), input_state._layout.l
    rows = np.empty((len(plan.labels), len(w)), dtype=complex)
    powers = np.empty(len(plan.labels))
    for slots, leaves in _leaf_levels(plan, w, l):
        rows[slots] = leaves
        powers[slots] = _squares(leaves).sum(axis=1)
    powers /= total
    return [
        LeafPower(label, power, input_state, row)
        for label, power, row in zip(plan.labels, powers.tolist(), rows)
    ]


def _oam_leaf_powers(node: CascadeNode, ls) -> tuple[tuple[str, ...], np.ndarray]:
    """Leaf labels, and the power of the LG mode of each OAM in ``ls`` at
    each leaf (one row per leaf, one column per l).  The modes go through
    the tree as one amplitude vector with entry 1 for each l."""
    plan = node._plan
    powers = np.empty((len(plan.labels), len(ls)))
    for slots, leaves in _leaf_levels(plan, np.ones(len(ls), dtype=complex), np.array(ls)):
        powers[slots] = _squares(leaves)
    return plan.labels, powers


def _leaf_levels(plan: _RoutePlan, w: np.ndarray, l: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The amplitudes ``w`` (at OAM ``l``) that reach the leaves, one level
    at a time: the leaves' slots in depth-first order, and their rows."""
    if not plan.levels:  # the root is a leaf
        yield [0], w[None]
        return
    top = int(np.abs(l).max(initial=0))
    table = _port_factor_table(plan.omega, plan.phase, top).reshape(-1, 2 * top + 1)
    columns = l + top
    products = w[None]
    for places, factor_rows, leaf_rows, leaf_slots in plan.levels:
        products = table.take(factor_rows, axis=0).take(columns, axis=1) * products.take(places, axis=0)
        yield leaf_slots, products.take(leaf_rows, axis=0)


def _squares(amps: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of each amplitude: for one entry the bits of np.vdot."""
    return amps.real ** 2 + amps.imag ** 2


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

    # One stack walk from the root lists the reached stages, each after the
    # stage that routes to it; the nodes are then built in reverse, children
    # first, with an unrouted port as a leaf.  Nothing recurses, so a deep
    # chain cannot exhaust Python's recursion limit.  With one route into
    # each stage, no cycle is reachable from the root: a cycle shows as
    # unreached stages.
    reached: list[str] = []
    todo = [roots[0]]
    while todo:
        name = todo.pop()
        reached.append(name)
        todo += (routes[name, port][0] for port in "AB" if (name, port) in routes)
    seen = set(reached)
    unreached = [name for name in stages if name not in seen]
    if unreached:
        raise ValueError(f"network contains stages unreachable from the root: {_stage_names(unreached)}")
    nodes: dict[str, CascadeNode] = {}
    for name in reversed(reached):
        nodes[name] = CascadeNode(name, stages[name], *(
            nodes[routes[name, port][0]] if (name, port) in routes else CascadeNode(f"{name}.{port}")
            for port in "AB"
        ))
    return nodes[roots[0]]


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

    def __post_init__(self):
        if not (cmath.isfinite(self.h) and cmath.isfinite(self.v)):
            raise ValueError(f"Jones vector components must be finite, got ({self.h}, {self.v})")

    def norm_sq(self) -> float:
        return abs(self.h) ** 2 + abs(self.v) ** 2

    def as_array(self) -> np.ndarray:
        return np.array([self.h, self.v], dtype=complex)


VERTICAL = JonesVector(0.0, 1.0)
DIAG_PLUS45 = JonesVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


def rotation2(angle: float) -> np.ndarray:
    """Rotation by ``angle``; also the lab-frame Jones matrix of a Faraday
    rotator, the same for forward and backward passage (the rotation sense
    flips relative to the propagation direction, not relative to the lab)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def retarder(axis_angle: float, phase_axis: float, phase_perp: float = 0.0) -> np.ndarray:
    """Jones matrix of a retarder whose axis lies at ``axis_angle`` from
    horizontal: the component along the axis picks up exp(i phase_axis),
    the perpendicular one exp(i phase_perp).

    The usual single-number retardance is phase_axis - phase_perp.  On the
    first-order mode pair (HG10, HG01) the same matrix is the fiber stress
    compressor (:class:`sagnacsim.quantum.CompressorSpec`).
    """
    checked = {"axis_angle": axis_angle, "phase_axis": phase_axis, "phase_perp": phase_perp}
    for name, value in checked.items():
        if not math.isfinite(value):
            raise ValueError(f"retarder {name} must be finite, got {value}")
    u = np.array([math.cos(axis_angle), math.sin(axis_angle)])
    proj = np.outer(u, u)
    return cmath.exp(1j * phase_axis) * proj + cmath.exp(1j * phase_perp) * (np.eye(2) - proj)


def pbs_split(pol: JonesVector, axis_angle: float) -> tuple[JonesVector, JonesVector]:
    """Polarizing beam splitter with its axis at ``axis_angle`` from
    horizontal: the transmitted component along the axis, then the
    deflected perpendicular one."""
    u = np.array([math.cos(axis_angle), math.sin(axis_angle)])
    vec = pol.as_array()
    amp = complex(u @ vec)
    rest = vec - amp * u
    return JonesVector(amp * u[0], amp * u[1]), JonesVector(rest[0], rest[1])


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
    # Fast axis at +45 deg; the entry rotator (-45 deg) maps V onto it and
    # the exit rotator (+45 deg) maps it back.  Backward passage meets the
    # same nonreciprocal rotators in reverse order, landing V on the slow
    # axis instead.
    plate = retarder(math.pi / 4, retardance_fast, retardance_slow)
    turn = math.pi / 4 if direction == "forward" else -math.pi / 4
    out = rotation2(turn) @ plate @ rotation2(-turn) @ vec
    phase = cmath.phase(out[1] / vec[1])
    return JonesVector(complex(out[0]), complex(out[1])), phase


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
    fg = rotation2(math.pi / 4)
    if direction == "forward":  # PBS1 at +45 deg (45 deg from H), PBS2 vertical
        into, defl1 = pbs_split(pol, math.pi / 4)
        out, defl2 = pbs_split(JonesVector(*(fg @ into.as_array())), math.pi / 2)
    else:
        into, defl2 = pbs_split(pol, math.pi / 2)
        out, defl1 = pbs_split(JonesVector(*(fg @ into.as_array())), math.pi / 4)
    return IsolatorResult(out, defl1, defl2)
