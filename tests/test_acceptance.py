"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Expected total runtime is well under two minutes.
"""

import cmath
import math

import numpy as np
import pytest

from sagnacsim import geometry as G
from sagnacsim import interferometer as I
from sagnacsim import modes as M
from sagnacsim import quantum as Q
from sagnacsim.cli import main

GEOM = M.BeamGeometry(1.0)
GRID = M.default_grid(GEOM)


def lhuilier_area(a, b, c):
    s = 0.5 * (a + b + c)
    t = (
        math.tan(s / 2)
        * math.tan((s - a) / 2)
        * math.tan((s - b) / 2)
        * math.tan((s - c) / 2)
    )
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


def test_criterion_1_geometric_phase_closed_form():
    omega = G.omega_from_theta(math.pi / 4)
    psi = G.psi_from_omega(omega)
    assert abs(omega - math.pi / 2) < 1e-12
    assert abs(psi - math.pi) < 1e-12
    worst = 0.0
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 1000):
        arcs = G.helicity_triangle_angles(
            G.helicity_from_path(G.build_sagnac_path(theta))
        )
        closed = G.omega_from_theta(theta)
        worst = max(
            worst,
            abs(G.euler_area(*arcs) - closed),
            abs(lhuilier_area(*arcs) - closed),
        )
    assert worst < 1e-9
    print(f"\nPASS criterion 1: omega(pi/4)=pi/2, psi=pi; sweep worst {worst:.2e}")


def test_criterion_2_stage_table():
    table = {
        math.pi / 4: math.pi,
        3 * math.pi / 8: math.pi / 2,
        7 * math.pi / 16: math.pi / 4,
    }
    for theta, psi in table.items():
        got = G.psi_from_omega(G.omega_from_theta(theta))
        assert abs(got - psi) < 1e-12
    print("PASS criterion 2: theta {pi/4, 3pi/8, 7pi/16} -> psi {pi, pi/2, pi/4}")


def test_criterion_3_parity_routing():
    for n in range(7):
        for m in range(7 - n):
            e = M.ModeExpansion({M.HGIndex(n, m): 1.0}, GEOM)
            pa, pb = I.port_powers(I.sagnac_transfer(e, I.PARITY_STAGE))
            if (n + m) % 2 == 0:
                assert pa >= 1 - 1e-9
            else:
                assert pb >= 1 - 1e-9
            pa1, pb1 = I.port_powers(I.mz_1d_sort(e))
            if n % 2 == 0:
                assert pa1 >= 1 - 1e-9
            else:
                assert pb1 >= 1 - 1e-9
    print("PASS criterion 3: 2-D parity routing (n+m <= 6) and 1-D reference sorter")


def test_criterion_4_lg_routing_and_cascade():
    for l in range(-4, 5):
        if l == 0:
            e = M.ModeExpansion({M.HGIndex(0, 0): 1.0}, GEOM)
        else:
            field = M.sample_lg(M.LGIndex(0, l), GEOM, GRID)
            e, _ = M.decompose_grid(field, GEOM, abs(l))
        pa, pb = I.port_powers(I.sagnac_transfer(e, I.PARITY_STAGE))
        if l % 2 == 0:
            assert pa >= 1 - 1e-9
        else:
            assert pb >= 1 - 1e-9
    root = I.cascade_build(3)
    for l in range(-8, 9):
        leaves = I.cascade_route(root, M.LGIndex(0, l))
        powers = {leaf.label: leaf.power for leaf in leaves}
        assert powers[f"{l % 8} mod 8"] >= 1 - 1e-9
        # independent phase-arithmetic oracle along the winning path
        oracle = 1.0
        residue = 0
        for level in (1, 2, 3):
            psi = math.pi / 2 ** (level - 1)
            frac_a = abs(1 + cmath.exp(1j * (l - residue) * psi)) ** 2 / 4
            if (l - residue) % (2 ** level) == 0:
                oracle *= frac_a
            else:
                oracle *= 1 - frac_a
                residue += 2 ** (level - 1)
        assert powers[f"{l % 8} mod 8"] == pytest.approx(oracle, abs=1e-12)
    print("PASS criterion 4: LG parity routing (|l| <= 4); depth-3 cascade (|l| <= 8)")


def test_criterion_5_fiber_demo():
    first = math.sqrt(0.15 / 2.0)
    e = M.ModeExpansion(
        {
            M.HGIndex(0, 0): math.sqrt(0.85),
            M.HGIndex(1, 0): first,
            M.HGIndex(0, 1): -first,
        },
        GEOM,
    )
    pair = I.sagnac_transfer(e, I.PARITY_STAGE)
    pa, pb = I.port_powers(pair)
    assert abs(pa - 0.85) < 1e-6
    assert abs(pb - 0.15) < 1e-6
    port_b = pair.port_b.pruned(1e-12)
    assert set(i.order for i in port_b.terms) == {1}
    amps = sorted(abs(c) for c in port_b.terms.values())
    assert amps[0] == pytest.approx(amps[1], abs=1e-9)
    print("PASS criterion 5: 85/15 fiber demo ports (0.85, 0.15), port B first order")


def test_criterion_6_bell_pipeline():
    rng = np.random.default_rng(9)
    cases = [(0.08, 0.04, -0.03)] + [
        (rng.uniform(0.02, 0.2), rng.uniform(0.005, 0.1), rng.uniform(-0.08, 0.08))
        for _ in range(5)
    ]
    inv = 1.0 / math.sqrt(2.0)
    for c0, c1, c2 in cases:
        filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg00(c0, c1, c2))
        result = Q.sort_biphoton(filtered, I.PARITY_STAGE)
        coeffs = Q.schmidt_coefficients(result.state("BB"))
        assert abs(coeffs[0] - inv) < 1e-9
        assert abs(coeffs[1] - inv) < 1e-9
        brute = 2 * c1**2 / (c0**2 + 2 * c1**2)
        assert abs(result.probability("BB") - brute) < 1e-12
    print("PASS criterion 6: Bell branch Schmidt (1/sqrt2, 1/sqrt2); BB probability")


def test_criterion_7_herald_pipelines():
    inv = 1.0 / math.sqrt(2.0)
    hg45 = M.ModeExpansion(
        {M.HGIndex(1, 0): inv, M.HGIndex(0, 1): inv}, Q.DEFAULT_GEOMETRY
    )
    filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg45())
    plain = Q.herald(
        Q.sort_biphoton(filtered, I.PARITY_STAGE), "A", M.HGIndex(0, 0)
    )
    assert abs(abs(hg45.inner(plain.spatial)) - 1.0) < 1e-9

    squeezed = Q.compressor_apply(filtered, Q.COMPRESS_Y_QUARTER)
    lg_plus = M.lg_to_hg(M.LGIndex(0, 1), Q.DEFAULT_GEOMETRY)
    heralded = Q.herald(
        Q.sort_biphoton(squeezed, I.PARITY_STAGE), "A", M.HGIndex(0, 0)
    )
    assert abs(abs(lg_plus.inner(heralded.spatial)) - 1.0) < 1e-9

    delta = 0.9
    fwd = Q.CompressorSpec(axis_angle=1.1, retardance=delta)
    back = Q.CompressorSpec(axis_angle=1.1, retardance=2 * math.pi - delta)
    probe = M.ModeExpansion(
        {M.HGIndex(1, 0): 0.6, M.HGIndex(0, 1): 0.8j}, Q.DEFAULT_GEOMETRY
    )
    out = Q.compressor_apply(Q.compressor_apply(probe, fwd), back)
    defect = math.sqrt(
        sum(abs(out.coeff(i) - probe.coeff(i)) ** 2 for i in probe.terms)
    )
    assert defect < 1e-12
    print("PASS criterion 7: heralded HG45/LG+1 overlaps 1; compressor round trip")


def test_criterion_8_appendix_devices():
    def rot(a):
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

    rng = np.random.default_rng(21)
    for _ in range(100):
        rf, rs = rng.uniform(0.0, 2 * math.pi, size=2)
        diag = np.diag([cmath.exp(1j * rf), cmath.exp(1j * rs)])
        wp = rot(math.pi / 4) @ diag @ rot(-math.pi / 4)
        fwd_chain = rot(math.pi / 4) @ wp @ rot(-math.pi / 4)
        bwd_chain = rot(-math.pi / 4) @ wp @ rot(math.pi / 4)
        _, pf = I.phase_device(I.VERTICAL, "forward", rf, rs)
        _, pb = I.phase_device(I.VERTICAL, "backward", rf, rs)
        assert abs(cmath.exp(1j * pf) - (fwd_chain @ [0, 1])[1]) < 1e-12
        assert abs(cmath.exp(1j * pb) - (bwd_chain @ [0, 1])[1]) < 1e-12
        assert abs(cmath.exp(1j * (pf - pb)) - cmath.exp(1j * (rf - rs))) < 1e-12

    back = I.faraday_isolator(I.JonesVector(0.0, 1.0), "backward")
    assert abs(back.deflected_pbs1.norm_sq() - 1.0) < 1e-12
    fwd = I.faraday_isolator(I.DIAG_PLUS45, "forward")
    assert abs(fwd.transmitted.norm_sq() - 1.0) < 1e-12
    print("PASS criterion 8: phase device vs Jones chain; isolator routing")


def test_criterion_9_numerics_hygiene():
    idxs = [M.HGIndex(n, m) for n in range(7) for m in range(7 - n)]
    fields = {i: M.sample_mode(M.ModeExpansion({i: 1.0}, GEOM), GRID) for i in idxs}
    worst = 0.0
    for a in idxs:
        for b in idxs:
            want = 1.0 if a == b else 0.0
            worst = max(worst, abs(fields[a].inner(fields[b]) - want))
    assert worst < 1e-6

    rng = np.random.default_rng(77)
    worst_energy = 0.0
    for _ in range(500):
        terms = {
            i: complex(rng.normal(), rng.normal()) for i in idxs
        }
        e = M.ModeExpansion(terms, GEOM)
        e = e.scaled(1.0 / math.sqrt(e.norm_sq()))
        stage = I.SagnacStage(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        pa, pb = I.port_powers(I.sagnac_transfer(e, stage))
        worst_energy = max(worst_energy, abs(pa + pb - 1.0))
    assert worst_energy < 1e-9

    worst_order = 0.0
    for order in range(7):
        vec = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        vec /= np.linalg.norm(vec)
        e = M.ModeExpansion(
            {M.HGIndex(n, order - n): vec[n] for n in range(order + 1)}, GEOM
        )
        out, _ = M.rotate_grid(e, rng.uniform(0.2, 1.4))
        by_order = {}
        for idx, c in out.terms.items():
            by_order[idx.order] = by_order.get(idx.order, 0.0) + abs(c) ** 2
        worst_order = max(
            worst_order,
            abs(by_order.get(order, 0.0) - 1.0),
            *(v for k, v in by_order.items() if k != order),
        )
    assert worst_order < 1e-5
    print(
        f"PASS criterion 9: orthonormality {worst:.1e}; energy {worst_energy:.1e};"
        f" order power {worst_order:.1e}"
    )


def test_criterion_10_fork_surrogate(tmp_path, capsys):
    code = main(
        ["--out-dir", str(tmp_path), "interfere", "hg:1,0", "--analyze-fork"]
    )
    out = capsys.readouterr().out
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("fork")][0]
    parts = dict(p.split("=") for p in line.split()[1:])
    upper, lower = int(parts["upper"]), int(parts["lower"])
    assert abs(upper - lower) == 1
    print(f"PASS criterion 10: fork cut counts upper={upper} lower={lower}")
