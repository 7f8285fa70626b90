"""The four benchmark workloads.

Each workload draws its inputs from a seeded generator, runs one operation
per input through the program's public API, and checks the result with
:mod:`checks`.  ``round()`` returns one whole round of inputs; a run always
attempts whole rounds, so every run holds the same mix of operation kinds.
Module attributes are looked up at call time, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import oam_reference as ref
from run import child_env


class OpFailed(Exception):
    """The program reported a failure for an operation."""


def full_index(max_order: int) -> list[tuple[int, int]]:
    """Every HG index (n, m) with n + m <= max_order, ordered by order then n."""
    return [(n, order - n) for order in range(max_order + 1) for n in range(order + 1)]


def random_unit(rng, size: int) -> np.ndarray:
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    return vec / np.linalg.norm(vec)


def off_parity_theta(rng) -> float:
    """A base angle 0.1 to 0.6 rad away from pi/4, on either side."""
    return math.pi / 4 + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.6)


@dataclass
class StateInput:
    terms: dict
    state: object
    theta: float = 0.0
    phi: float = 0.0
    stage: object = None


class StageTransfer:
    """One sagnac_transfer of a full random expansion at a fresh random stage."""

    # Max orders of one round.  Every order from 6 to 40 appears once, so
    # operation times form a continuum and the percentiles move smoothly
    # with the machine's speed rather than jumping between size groups.
    ORDER_MIX = tuple(range(6, 41))

    def __init__(self, rng, sagnacsim, in_process: bool):
        self.rng = rng
        self.s = sagnacsim
        self.geometry = sagnacsim.BeamGeometry(1.0)

    def _input(self, max_order: int) -> StateInput:
        index = full_index(max_order)
        terms = dict(zip(index, random_unit(self.rng, len(index)).tolist()))
        theta = off_parity_theta(self.rng)
        phi = self.rng.uniform(0.0, 2.0 * math.pi)
        state = self.s.ModeExpansion(terms, self.geometry)
        return StateInput(terms, state, theta, phi, self.s.SagnacStage(theta, phi))

    def setup(self) -> None:
        for max_order in (6, 20, 40):
            self.op(self._input(max_order))

    def round(self) -> list[StateInput]:
        return [self._input(int(k)) for k in self.rng.permutation(self.ORDER_MIX)]

    def op(self, x: StateInput):
        return self.s.interferometer.sagnac_transfer(x.state, x.stage)

    def check(self, x: StateInput, pair) -> None:
        power_a = sum(abs(a) ** 2 for a in pair.port_a.terms.values())
        power_b = sum(abs(a) ** 2 for a in pair.port_b.terms.values())
        checks.check_transfer(list(x.terms.items()), x.theta, x.phi, power_a, power_b)


class OamCascade:
    """One cascade_route of a full random expansion through a depth-5 tree."""

    DEPTH = 5
    # Max orders of one round (15 to 66 terms), for the same reason as
    # StageTransfer.ORDER_MIX.
    ORDER_MIX = tuple(range(4, 11))

    def __init__(self, rng, sagnacsim, in_process: bool):
        self.rng = rng
        self.s = sagnacsim
        self.geometry = sagnacsim.BeamGeometry(1.0)

    def _input(self, max_order: int) -> StateInput:
        index = full_index(max_order)
        terms = dict(zip(index, random_unit(self.rng, len(index)).tolist()))
        return StateInput(terms, self.s.ModeExpansion(terms, self.geometry))

    def setup(self) -> None:
        self.tree = self.s.interferometer.cascade_build(self.DEPTH)
        self.op(self._input(max(self.ORDER_MIX)))

    def round(self) -> list[StateInput]:
        return [self._input(int(k)) for k in self.rng.permutation(self.ORDER_MIX)]

    def op(self, x: StateInput):
        return self.s.interferometer.cascade_route(self.tree, x.state)

    def check(self, x: StateInput, leaves) -> None:
        checks.check_cascade(
            list(x.terms.items()), [(leaf.label, leaf.power) for leaf in leaves], self.DEPTH
        )


@dataclass
class BiphotonInput:
    coeffs: np.ndarray
    state: object
    trigger_port: str
    trigger_mode: tuple[int, int]


class BiphotonSort:
    """One sort_biphoton of a random 784-term biphoton, then one herald.

    The stage is drawn once per run, so its port operators repeat.
    """

    MAX_ORDER = 6

    def __init__(self, rng, sagnacsim, in_process: bool):
        self.rng = rng
        self.s = sagnacsim
        self.index = full_index(self.MAX_ORDER)
        self.theta = off_parity_theta(rng)
        self.phi = rng.uniform(0.0, 2.0 * math.pi)

    def _input(self) -> BiphotonInput:
        size = len(self.index)
        coeffs = random_unit(self.rng, size * size).reshape(size, size)
        terms = {
            (a, b): coeffs[i, j]
            for i, a in enumerate(self.index)
            for j, b in enumerate(self.index)
        }
        port = "AB"[int(self.rng.integers(2))]
        mode = self.index[int(self.rng.integers(size))]
        return BiphotonInput(coeffs, self.s.BiphotonExpansion(terms), port, mode)

    def setup(self) -> None:
        self.stage = self.s.SagnacStage(self.theta, self.phi)
        self.op(self._input())

    def round(self) -> list[BiphotonInput]:
        return [self._input()]

    def op(self, x: BiphotonInput):
        q = self.s.quantum
        result = q.sort_biphoton(x.state, self.stage)
        return result, q.herald(result, x.trigger_port, x.trigger_mode)

    def check(self, x: BiphotonInput, out) -> None:
        result, heralded = out
        checks.check_biphoton(
            x.coeffs,
            self.index,
            self.theta,
            self.phi,
            {name: branch.probability for name, branch in result.branches.items()},
            x.trigger_port,
            x.trigger_mode,
            heralded.probability,
            np.array([heralded.spatial.coeff(idx) for idx in self.index]),
        )


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------

GRID = 256


def _read(out: Path, name: str) -> bytes:
    path = out / name
    if not path.is_file():
        raise checks.CheckFailed(f"missing output {name}")
    return path.read_bytes()


def _pgms(out: Path, *names: str) -> None:
    for name in names:
        checks.check_pgm(_read(out, name), GRID, GRID)


def _check_mode_phase(stdout, out):
    _pgms(out, "hg_1_1_intensity.pgm", "hg_1_1_phase.pgm")


def _check_sort_hg15(stdout, out):
    checks.check_port_lines(stdout, "1.000000", "0.000000")  # n + m even
    _pgms(out, "hg_1_5_portA_intensity.pgm", "hg_1_5_portB_intensity.pgm")


def _check_fiber_demo(stdout, out):
    checks.check_port_lines(stdout, "0.850000", "0.150000")
    _pgms(out, "fiber_demo_portA_intensity.pgm", "fiber_demo_portB_intensity.pgm")


def _check_fork(stdout, out):
    checks.check_fork_line(stdout)
    _pgms(out, "hg_1_0_interference.pgm")


def _check_sweep(stdout, out):
    checks.check_sweep_csv(_read(out, "sweep_theta.csv").decode("ascii"), 1000)


def _check_cascade(stdout, out):
    checks.check_cascade_csv(_read(out, "cascade.csv").decode("ascii"), 3, range(-8, 9))


def _check_bell(stdout, out):
    report = _read(out, "pipeline_bell.txt").decode("ascii")
    if report != stdout:
        raise checks.CheckFailed("bell report file differs from the printed report")
    checks.check_bell_report(report, 0.08, 0.04, -0.03)


def _check_herald_lg(stdout, out):
    report = _read(out, "pipeline_herald-lg.txt").decode("ascii")
    if report != stdout:
        raise checks.CheckFailed("herald-lg report file differs from the printed report")
    checks.check_herald_lg_report(report)


def _check_sort_lg23(stdout, out):
    checks.check_port_lines(stdout, "0.000000", "1.000000")  # l = 3 is odd
    _pgms(out, "lg_2_3_portA_intensity.pgm", "lg_2_3_portB_intensity.pgm")


def _check_sort_hg2020(stdout, out):
    fraction = ref.port_a_fraction(ref.oam_weights([((20, 20), 1.0)]), 1.0, 0.0)
    checks.check_port_lines(stdout, f"{fraction:.6f}", f"{1.0 - fraction:.6f}")
    _pgms(out, "hg_20_20_portA_intensity.pgm", "hg_20_20_portB_intensity.pgm")


def _check_csv_1024(stdout, out):
    checks.check_csv_grid(_read(out, "hg_1_1_intensity.csv").decode("ascii"), 1024)


# The README examples, then a grid-decomposed LG spec, a high-order sort
# and a large CSV render.
CLI_CYCLE = (
    ("mode hg:1,1 --phase", _check_mode_phase),
    ("sort hg:1,5", _check_sort_hg15),
    ("sort fiber-demo", _check_fiber_demo),
    ("interfere hg:1,0 --analyze-fork", _check_fork),
    ("sweep-theta --count 1000", _check_sweep),
    ("cascade --depth 3 --l=-8..8", _check_cascade),
    ("pipeline bell", _check_bell),
    ("pipeline herald-lg", _check_herald_lg),
    ("sort lg:2,3", _check_sort_lg23),
    ("sort hg:20,20 --theta 1.0", _check_sort_hg2020),
    ("mode hg:1,1 --grid-size 1024 --format csv", _check_csv_1024),
)


@dataclass
class CliOutput:
    stdout: str
    stderr: str


class CliSession:
    """One CLI command per operation, cycling through CLI_CYCLE in a seeded order.

    Outside tracing each command runs as ``python -m sagnacsim.cli`` in a
    fresh interpreter; under tracing ``sagnacsim.cli.main`` runs in process,
    after one warm-up cycle.
    """

    def __init__(self, rng, sagnacsim, in_process: bool):
        self.rng = rng
        self.s = sagnacsim
        self.in_process = in_process
        self.out = Path(__file__).resolve().parent / "_out" / f"cli-{os.getpid()}"

    def _fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def setup(self) -> None:
        self._fresh_out()
        if self.in_process:
            for entry in CLI_CYCLE:
                self.op(entry)
            self._fresh_out()

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.out.parent.rmdir()  # only once no other run uses it

    def round(self):
        return [CLI_CYCLE[int(k)] for k in self.rng.permutation(len(CLI_CYCLE))]

    def op(self, x) -> CliOutput:
        argv = x[0].split() + ["--out-dir", str(self.out)]
        if self.in_process:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.s.cli.main(argv)
            out = CliOutput(stdout.getvalue(), stderr.getvalue())
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "sagnacsim.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env(),
                cwd=self.out,
            )
            code = proc.returncode
            out = CliOutput(proc.stdout, proc.stderr)
        if code != 0:
            self._fresh_out()
            raise OpFailed(f"{x[0]!r} exited {code}: {out.stderr.strip()}")
        return out

    def check(self, x, out: CliOutput) -> None:
        command, check = x
        try:
            if out.stderr:
                raise checks.CheckFailed(f"wrote to stderr: {out.stderr!r}")
            meta = _read(self.out, "metadata.txt").decode("ascii").splitlines()
            grid = 1024 if "--grid-size 1024" in command else GRID
            if f"command {command.split()[0]}" not in meta or f"grid_size {grid}" not in meta:
                raise checks.CheckFailed(f"metadata {meta} lacks the command or grid size")
            check(out.stdout, self.out)
        except checks.CheckFailed as exc:
            raise checks.CheckFailed(f"{command!r}: {exc}") from None
        finally:
            self._fresh_out()


WORKLOADS = {
    "cli_session": CliSession,
    "stage_transfer": StageTransfer,
    "oam_cascade": OamCascade,
    "biphoton_sort": BiphotonSort,
}
