"""Correctness checks applied to every benchmark operation.

Library results are compared with :mod:`oam_reference`; CLI outputs are
checked for the property each command must have.  A check raises
:class:`CheckFailed` and otherwise returns nothing.  None of these compare
against a stored copy of earlier program output.
"""

from __future__ import annotations

import math

import numpy as np

import oam_reference as ref

TOL = 1e-9


class CheckFailed(Exception):
    """An output disagrees with the reference or with a stated property."""


def _close(what: str, got: float, want: float, tol: float = TOL) -> None:
    if not abs(got - want) <= tol:  # also rejects NaN
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# Library operations
# ---------------------------------------------------------------------------

def check_transfer(input_terms, theta: float, phi: float, power_a: float, power_b: float) -> None:
    """One stage transfer: A + B equals the input power, A matches the reference."""
    power_in = sum(abs(a) ** 2 for _, a in input_terms)
    _close("port A + B power", power_a + power_b, power_in, TOL * power_in)
    want = ref.port_a_fraction(ref.oam_weights(input_terms), theta, phi)
    _close("port A fraction", power_a / power_in, want)


def check_cascade(input_terms, leaves, depth: int) -> None:
    """Cascade leaves: one per residue, each at the reference power, summing to 1."""
    want = ref.leaf_fractions(ref.oam_weights(input_terms), depth)
    got = dict(leaves)
    if len(got) != len(leaves) or set(got) != set(want):
        raise CheckFailed(f"leaf labels {sorted(got)} differ from {sorted(want)}")
    _close("sum of leaf powers", sum(got.values()), 1.0)
    for label, power in leaves:
        _close(f"leaf {label}", power, want[label])


def check_biphoton(
    coeffs: np.ndarray,
    index,
    theta: float,
    phi: float,
    probabilities: dict[str, float],
    trigger_port: str,
    trigger_mode,
    herald_probability: float,
    herald_state: np.ndarray,
) -> None:
    """Four branch probabilities and one heralded partner state against the reference."""
    _close("sum of branch probabilities", sum(probabilities.values()), 1.0)
    total = float(np.sum(np.abs(coeffs) ** 2))
    amps = ref.branch_amplitudes(coeffs, index, theta, phi)
    if set(probabilities) != set(amps):
        raise CheckFailed(f"branches {sorted(probabilities)} differ from {sorted(amps)}")
    for name, amp in amps.items():
        _close(f"P_{name}", probabilities[name], float(np.sum(np.abs(amp) ** 2)) / total)
    other = "B" if trigger_port == "A" else "A"
    row = amps[trigger_port + other][list(map(tuple, index)).index(tuple(trigger_mode))]
    row_power = float(np.sum(np.abs(row) ** 2))
    _close("herald probability", herald_probability, row_power / total)
    err = float(np.max(np.abs(herald_state - row / math.sqrt(row_power))))
    _close("heralded state (max coefficient error)", err, 0.0)


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def check_port_lines(stdout: str, want_a: str, want_b: str) -> None:
    want = [f"port A power {want_a}", f"port B power {want_b}"]
    got = [line for line in stdout.splitlines() if line.startswith("port ")]
    if got != want:
        raise CheckFailed(f"port lines {got} differ from {want}")


def check_pgm(blob: bytes, width: int, height: int) -> None:
    """16-bit binary PGM with the header and payload size the grid implies."""
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    if not blob.startswith(header):
        raise CheckFailed(f"PGM header {blob[:len(header)]!r} differs from {header!r}")
    if len(blob) != len(header) + 2 * width * height:
        raise CheckFailed(f"PGM holds {len(blob)} bytes, want {len(header) + 2 * width * height}")


def check_fork_line(stdout: str) -> None:
    lines = [line for line in stdout.splitlines() if line.startswith("fork ")]
    if len(lines) != 1:
        raise CheckFailed(f"expected one fork line, got {lines}")
    fields = dict(tok.split("=") for tok in lines[0].split()[1:])
    upper, lower, diff = (int(fields[k]) for k in ("upper", "lower", "diff"))
    if diff != upper - lower or abs(diff) != 1:
        raise CheckFailed(f"fork line {lines[0]!r} lacks |diff| = 1")


def check_sweep_csv(text: str, count: int) -> None:
    """Each row satisfies cos(omega/2) = sin(theta) and psi = pi - |2 omega - pi|."""
    rows = text.splitlines()
    if rows[0] != "theta_rad,omega_rad,psi_rad" or len(rows) != count + 1:
        raise CheckFailed(f"sweep table has header {rows[0]!r} and {len(rows) - 1} rows")
    for k, row in enumerate(rows[1:]):
        theta, om, psi = (float(v) for v in row.split(","))
        _close(f"sweep row {k} theta", theta, (math.pi / 2) * k / (count - 1), 1e-12)
        _close(f"sweep row {k} cos(omega/2)", math.cos(om / 2.0), math.sin(theta), 1e-12)
        _close(f"sweep row {k} psi", psi, math.pi - abs(2.0 * om - math.pi), 1e-12)


def check_cascade_csv(text: str, depth: int, ls) -> None:
    """All power for each l sits at the leaf "l mod 2^depth"."""
    modulus = 2**depth
    rows = text.splitlines()
    if rows[0] != "input_label,leaf_label,power_fraction":
        raise CheckFailed(f"cascade table header {rows[0]!r}")
    seen: dict[int, dict[str, float]] = {}
    for row in rows[1:]:
        label, leaf, power = row.split(",")
        seen.setdefault(int(label.removeprefix("l=")), {})[leaf] = float(power)
    if sorted(seen) != sorted(ls):
        raise CheckFailed(f"cascade table covers l = {sorted(seen)}")
    for l, leaves in seen.items():
        if len(leaves) != modulus:
            raise CheckFailed(f"l={l} reaches {len(leaves)} leaves, want {modulus}")
        for leaf, power in leaves.items():
            want = 1.0 if leaf == f"{l % modulus} mod {modulus}" else 0.0
            _close(f"l={l} leaf {leaf}", power, want, 1e-12)


def _report_value(text: str, prefix: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(prefix):
            for tok in line.split():
                if tok.startswith(key + "="):
                    return tok[len(key) + 1:]
    raise CheckFailed(f"no '{key}=' on a line starting {prefix!r}")


def check_bell_report(text: str, c0: float, c1: float, c2: float) -> None:
    """Fiber then BB selection post-selects 2 c1^2/(c0^2 + 2 c1^2 + 4 c2^2); Schmidt is even."""
    norm = c0**2 + 2 * c1**2 + 4 * c2**2
    kept = float(_report_value(text, "filter:", "post_selection"))
    _close("fiber post-selection", kept, (c0**2 + 2 * c1**2) / norm)
    selected = float(_report_value(text, "select BB:", "probability"))
    _close("Bell post-selection", kept * selected, 2 * c1**2 / norm)
    want = "(0.7071068, 0.7071068)"
    schmidt = [line for line in text.splitlines() if line.startswith("schmidt:")]
    if schmidt != [f"schmidt: {want}"]:
        raise CheckFailed(f"Schmidt lines {schmidt} differ from {want}")
    if f"spatial_schmidt={want}" not in text:
        raise CheckFailed(f"pbs-split does not report spatial_schmidt={want}")


def check_herald_lg_report(text: str) -> None:
    lines = [line.strip() for line in text.splitlines() if "overlap lg+1=" in line]
    if lines != ["overlap lg+1=1.000000000"]:
        raise CheckFailed(f"heralded overlap lines {lines}, want overlap lg+1=1.000000000")


def check_csv_grid(text: str, size: int) -> None:
    """A size x size table of finite, nonnegative values."""
    rows = text.splitlines()
    if len(rows) != size:
        raise CheckFailed(f"CSV holds {len(rows)} rows, want {size}")
    for k, row in enumerate(rows):
        values = [float(v) for v in row.split(",")]
        if len(values) != size:
            raise CheckFailed(f"CSV row {k} holds {len(values)} values, want {size}")
        if not all(0.0 <= v < math.inf for v in values):
            raise CheckFailed(f"CSV row {k} holds a negative or non-finite value")
