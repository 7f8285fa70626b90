#!/usr/bin/env python3
"""Self-test of the OAM reference and of the checks built on it.

    python3 bench/selftest.py

Each check is fed a real program result, which it must accept, and then a
perturbed copy, which it must reject: a port power off by 1e-6, two
swapped cascade leaves, a wrong biphoton probability, a wrong Schmidt pair
and a truncated PGM.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oam_reference as ref  # noqa: E402
from run import scipy_import_us  # noqa: E402
from workloads import full_index, random_unit  # noqa: E402

FAILURES: list[str] = []


def accepts(name: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        FAILURES.append(f"{name}: true result rejected: {exc}")


def rejects(name: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed:
        return
    FAILURES.append(f"{name}: perturbed result accepted")


def test_reference() -> None:
    for order in range(41):
        ls, basis = ref.lg_basis(order)
        if sorted(ls.tolist()) != list(range(-order, order + 1, 2)):
            FAILURES.append(f"order {order}: OAM values {sorted(ls.tolist())}")
        rot = ref.rotation(order, 0.7)
        if np.max(np.abs(rot @ rot.conj().T - np.eye(order + 1))) > 1e-12:
            FAILURES.append(f"order {order}: reference rotation not unitary")
    weights = ref.oam_weights(ref.LG_PLUS_ONE.items())
    if {l for l, w in weights.items() if w > 1e-12} != {1}:
        FAILURES.append(f"documented LG_0^{{+1}} has OAM weights {weights}")


def test_library(sagnacsim) -> None:
    rng = np.random.default_rng(7)
    geometry = sagnacsim.BeamGeometry(1.0)

    index = full_index(12)
    terms = dict(zip(index, random_unit(rng, len(index)).tolist()))
    theta, phi = 0.55, 1.1
    pair = sagnacsim.sagnac_transfer(
        sagnacsim.ModeExpansion(terms, geometry), sagnacsim.SagnacStage(theta, phi)
    )
    pa = sum(abs(a) ** 2 for a in pair.port_a.terms.values())
    pb = sum(abs(a) ** 2 for a in pair.port_b.terms.values())
    items = list(terms.items())
    accepts("transfer", checks.check_transfer, items, theta, phi, pa, pb)
    rejects("transfer, port A + 1e-6", checks.check_transfer, items, theta, phi, pa + 1e-6, pb)
    rejects("transfer, 1e-6 moved A to B", checks.check_transfer, items, theta, phi, pa - 1e-6, pb + 1e-6)

    index = full_index(10)
    terms = dict(zip(index, random_unit(rng, len(index)).tolist()))
    tree = sagnacsim.cascade_build(5)
    leaves = [
        (leaf.label, leaf.power)
        for leaf in sagnacsim.cascade_route(tree, sagnacsim.ModeExpansion(terms, geometry))
    ]
    items = list(terms.items())
    accepts("cascade", checks.check_cascade, items, leaves, 5)
    i, j = int(np.argmax([p for _, p in leaves])), int(np.argmin([p for _, p in leaves]))
    swapped = list(leaves)
    swapped[i], swapped[j] = (leaves[i][0], leaves[j][1]), (leaves[j][0], leaves[i][1])
    rejects("cascade, two leaves swapped", checks.check_cascade, items, swapped, 5)

    index = full_index(3)
    size = len(index)
    coeffs = random_unit(rng, size * size).reshape(size, size)
    state = sagnacsim.BiphotonExpansion(
        {(a, b): coeffs[p, q] for p, a in enumerate(index) for q, b in enumerate(index)}
    )
    theta, phi = 1.0, 0.4
    result = sagnacsim.sort_biphoton(state, sagnacsim.SagnacStage(theta, phi))
    heralded = sagnacsim.herald(result, "B", (1, 1))
    probs = {name: b.probability for name, b in result.branches.items()}
    partner = np.array([heralded.spatial.coeff(idx) for idx in index])
    args = (coeffs, index, theta, phi)
    accepts("biphoton", checks.check_biphoton, *args, probs, "B", (1, 1), heralded.probability, partner)
    moved = dict(probs, AA=probs["AA"] + 1e-6, BB=probs["BB"] - 1e-6)
    rejects("biphoton, 1e-6 moved BB to AA", checks.check_biphoton, *args, moved, "B", (1, 1),
            heralded.probability, partner)
    rejects("biphoton, wrong heralded state", checks.check_biphoton, *args, probs, "B", (1, 1),
            heralded.probability, partner[::-1])


def test_cli(sagnacsim) -> None:
    from sagnacsim import cli

    out = HERE / "_out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["pipeline", "bell", "--out-dir", str(out)])
            cli.main(["mode", "hg:1,1", "--out-dir", str(out)])
        report = (out / "pipeline_bell.txt").read_text()
        accepts("bell report", checks.check_bell_report, report, 0.08, 0.04, -0.03)
        wrong = report.replace("schmidt: (0.7071068, 0.7071068)", "schmidt: (0.8000000, 0.6000000)")
        rejects("bell report, wrong Schmidt pair", checks.check_bell_report, wrong, 0.08, 0.04, -0.03)

        pgm = (out / "hg_1_1_intensity.pgm").read_bytes()
        accepts("PGM", checks.check_pgm, pgm, 256, 256)
        rejects("PGM, truncated by one byte", checks.check_pgm, pgm[:-1], 256, 256)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_out").rmdir()

    accepts("sweep table", checks.check_sweep_csv, _sweep_table(1000), 1000)
    rejects("sweep table, psi off by 1e-9", checks.check_sweep_csv, _sweep_table(1000, 1e-9), 1000)


def _sweep_table(count: int, psi_error: float = 0.0) -> str:
    rows = ["theta_rad,omega_rad,psi_rad"]
    for k in range(count):
        theta = (math.pi / 2) * k / (count - 1)
        om = ref.omega(theta)
        psi = math.pi - abs(2.0 * om - math.pi) + (psi_error if k == count // 2 else 0.0)
        rows.append(f"{theta!r},{om!r},{psi!r}")
    return "\n".join(rows) + "\n"


def test_importtime_parser() -> None:
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:       300 |        300 |     scipy.special._ufuncs",
        "import time:        20 |        320 |   scipy.special",
        "import time:        10 |        480 | sagnacsim.modes",
        "import time:        70 |         70 | scipy.optimize",
    ])
    got = scipy_import_us(log)
    if got != 150 + 320 + 70:
        FAILURES.append(f"importtime parser: scipy share {got}, want 540")


def main() -> int:
    import sagnacsim

    test_reference()
    test_library(sagnacsim)
    test_cli(sagnacsim)
    test_importtime_parser()
    for msg in FAILURES:
        print(f"FAIL {msg}")
    print("selftest:", "FAILED" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
