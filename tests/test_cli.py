import math
import os
import shlex

import numpy as np
import pytest

from sagnacsim import cli
from sagnacsim import formats as F
from sagnacsim.cli import main
from test_formats import reference_csv
from test_modes import hg_field_at
from test_quantum import one_term_per_block_table


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# mode
# ---------------------------------------------------------------------------

def test_mode_hg11_four_lobes(tmp_path, capsys):
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "mode", "hg:1,1")
    assert code == 0
    magic, w, h, maxval, img = F.parse_pnm(read(tmp_path / "hg_1_1_intensity.pgm"))
    assert (magic, w, h, maxval) == ("P5", 256, 256, 65535)
    arr = img.astype(float)
    half = 128
    quads = [
        arr[:half, :half], arr[:half, half:], arr[half:, :half], arr[half:, half:]
    ]
    for quad in quads:
        assert quad.max() > 0.9 * arr.max()
    # nodal cross through the middle stays dark
    assert arr[half - 1 : half + 1, :].max() < 0.01 * arr.max()
    assert arr[:, half - 1 : half + 1].max() < 0.01 * arr.max()


def test_mode_lg01_annulus(tmp_path, capsys):
    code, _, _ = run(capsys, "--out-dir", str(tmp_path), "mode", "lg:0,1")
    assert code == 0
    _, _, _, _, img = F.parse_pnm(read(tmp_path / "lg_0_1_intensity.pgm"))
    arr = img.astype(float)
    # nearest-to-center samples sit half a pixel off the vortex null, where
    # the intensity is ~1 percent of the ring peak
    center = arr[127:129, 127:129]
    assert center.max() < 0.02 * arr.max()


def test_mode_phase_image_constant_for_hg00(tmp_path, capsys):
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "mode", "hg:0,0", "--phase"
    )
    assert code == 0
    _, _, _, _, img = F.parse_pnm(read(tmp_path / "hg_0_0_phase.pgm"))
    assert img.max() - img.min() == 0


def test_mode_bad_spec_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "mode", "zzz")
    assert code == 2
    assert "usage error" in err


def test_mode_bad_lg_spec_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "mode", "lg:x")
    assert code == 2
    assert "expected lg:p,l" in err


def test_grid_size_cap_rejected_while_parsing(tmp_path, capsys, monkeypatch):
    from sagnacsim import cli

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was requested")

    monkeypatch.setattr(cli, "GridSpec", no_grid)
    out_dir = tmp_path / "out"
    for value in ("4098", str(10**12), "0", "15", "17", "-256"):
        for argv in (
            ("--grid-size", value, "--out-dir", str(out_dir), "mode", "hg:0,0"),
            ("--out-dir", str(out_dir), "sort", "hg:1,1", "--grid-size", value),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert f"grid size {value} is not an even number from 16 to 4096" in err
    assert not out_dir.exists()


def test_mode_model_error_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "mode", "hg:200,0")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("message", ["Unable to allocate 3.22 GiB for an array", ""])
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, message):
    def exhaust(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_sort", exhaust)
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "sort", "hg:1,1")
    assert code == 3 and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_mode_deterministic_bytes(tmp_path, capsys):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(capsys, "--out-dir", str(d), "mode", "hg:2,1")
        assert code == 0
    assert read(d1 / "hg_2_1_intensity.pgm") == read(d2 / "hg_2_1_intensity.pgm")


def test_mode_ppm_and_csv_formats(tmp_path, capsys):
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "--format", "ppm", "mode", "hg:0,0"
    )
    assert code == 0
    magic, *_ = F.parse_pnm(read(tmp_path / "hg_0_0_intensity.ppm"))
    assert magic == "P6"
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "--format", "csv", "mode", "hg:0,0"
    )
    assert code == 0
    text = (tmp_path / "hg_0_0_intensity.csv").read_text()
    assert len(text.strip().split("\n")) == 256


# Grid 16 is one band; 130 and 258 split into 2 and 5 bands, the last short.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, bands", [(16, 1), (130, 2), (258, 5)])
def test_csv_images_match_reference_across_bands(tmp_path, capsys, monkeypatch, grid, bands):
    rows = max(1, cli.CSV_BAND_VALUES // grid)
    assert -(-grid // rows) == bands
    commands = (
        ("mode", "hg:1,1", "--phase"),
        ("sort", "hg:1,1", "--theta", "1.0"),
        ("interfere", "hg:1,0"),
    )

    def run_all(out, fmt):
        for argv in commands:
            code, _, err = run(
                capsys, "--out-dir", str(out), "--grid-size", str(grid), "--format", fmt, *argv
            )
            assert (code, err) == (0, "")

    run_all(tmp_path / "csv", "csv")
    run_all(tmp_path / "pgm", "pgm")
    with monkeypatch.context() as patch:
        patch.setattr(F, "csv_matrix", reference_csv)
        run_all(tmp_path / "ref", "csv")
    paths = sorted((tmp_path / "csv").glob("*.csv"))
    assert len(paths) == 5
    for path in paths:
        text = path.read_text()
        assert text == (tmp_path / "ref" / path.name).read_text()
        # The bands hold the rows the unbanded image writer renders.
        values = np.array([[float(v) for v in row.split(",")] for row in text.splitlines()])
        to_levels = F.phase_levels if path.stem.endswith("_phase") else F.scale_to_levels
        _, _, _, _, levels = F.parse_pnm(read(tmp_path / "pgm" / f"{path.stem}.pgm"))
        assert np.array_equal(levels, to_levels(values))


def test_metadata_sidecar(tmp_path, capsys):
    run(capsys, "--out-dir", str(tmp_path), "mode", "hg:0,0")
    meta = (tmp_path / "metadata.txt").read_text()
    assert meta.startswith("tool sagnacsim")
    assert "command mode" in meta


@pytest.mark.parametrize("argv", [
    ("mode", "hg:1,1", "--phase", "--grid-size", "64"),
    ("--format", "csv", "interfere", "hg45", "--analyze-fork", "--grid-size", "64"),
    ("--w0", "0.5", "sort", "my 'mode'.hgx", "--theta", "1.0", "--grid-size", "64"),
    ("cascade", "--l=-2..2"),
    ("pipeline", "bell", "--c0", "0.6"),
])
def test_metadata_argv_reruns_the_command(tmp_path, capsys, monkeypatch, argv):
    def run_in(directory, args):
        directory.mkdir()
        (directory / "my 'mode'.hgx").write_text("hg-expansion v1 w0=1\n1 0 0.6 0\n0 1 0 0.8\n")
        monkeypatch.chdir(directory)
        code, _, err = run(capsys, *args)
        assert (code, err) == (0, "")
        return {p.name: p.read_bytes() for p in (directory / "out").iterdir()}

    first = run_in(tmp_path / "first", ("--out-dir", "out", *argv))
    lines = first["metadata.txt"].decode("ascii").splitlines()
    assert lines[-1] == "argv " + shlex.join(("--out-dir", "out", *argv))
    assert run_in(tmp_path / "second", shlex.split(lines[-1][len("argv "):])) == first


# ---------------------------------------------------------------------------
# sort
# ---------------------------------------------------------------------------

def test_sort_hg15_report(tmp_path, capsys):
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "sort", "hg:1,5")
    assert code == 0
    assert "port A power 1.000000" in out
    assert "port B power 0.000000" in out
    assert (tmp_path / "hg_1_5_portA_intensity.pgm").exists()
    assert (tmp_path / "hg_1_5_portB_intensity.pgm").exists()


def test_sort_roundoff_port_renders_dark(tmp_path, capsys):
    code, _, _ = run(capsys, "--out-dir", str(tmp_path), "sort", "hg:1,5")
    assert code == 0
    _, _, _, _, img = F.parse_pnm(read(tmp_path / "hg_1_5_portB_intensity.pgm"))
    assert not img.any()
    _, _, _, _, img = F.parse_pnm(read(tmp_path / "hg_1_5_portA_intensity.pgm"))
    assert img.max() == 65535


def test_sort_partial_ports_render_unthresholded(tmp_path, capsys):
    from sagnacsim import interferometer as I
    from sagnacsim import modes as M

    code, _, _ = run(capsys, "--out-dir", str(tmp_path), "sort", "hg:1,1", "--theta", "1.0")
    assert code == 0
    geom = M.BeamGeometry(1.0)
    pair = I.sagnac_transfer(
        M.ModeExpansion({M.HGIndex(1, 1): 1.0}, geom), I.SagnacStage(1.0, 0.0)
    )
    grid = M.GridSpec(8.0, 256)
    for port, state in (("portA", pair.port_a), ("portB", pair.port_b)):
        field = M.sample_mode(state, grid)
        want = F.pgm_bytes(F.scale_to_levels(np.abs(field.values[::-1]) ** 2))
        assert read(tmp_path / f"hg_1_1_{port}_intensity.pgm") == want


def test_sort_overflowing_state_exits_3(tmp_path, capsys):
    path = tmp_path / "big.hgx"
    path.write_text("hg-expansion v1 w0=1\n0 0 1e308 1e308\n")
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "sort", str(path))
    assert code == 3
    assert err == "error: state norm is not finite: amplitudes too large\n"
    assert "nan" not in out


def test_sort_hg45_report(tmp_path, capsys):
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "sort", "hg45")
    assert code == 0
    assert "port B power 1.000000" in out


def test_sort_fiber_demo(tmp_path, capsys):
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "sort", "fiber-demo")
    assert code == 0
    assert "port A power 0.850000" in out
    assert "port B power 0.150000" in out


def test_sort_high_order_conserves_power(tmp_path, capsys):
    # Reference split from the OAM weights of HG_85,85 (independent numpy
    # computation); the port powers must also sum to one.
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path), "sort", "hg:85,85", "--theta", "1.0"
    )
    assert code == 0
    assert "port A power 0.503535" in out
    assert "port B power 0.496465" in out
    pa, pb = (float(line.split()[-1]) for line in out.splitlines())
    assert pa + pb == pytest.approx(1.0, abs=2e-6)


def test_sort_lg_spec_independent_of_grid_size(tmp_path, capsys):
    reports = []
    for size in ("32", "128", "1024"):
        code, out, _ = run(
            capsys, "--out-dir", str(tmp_path / size), "--grid-size", size,
            "sort", "lg:2,3", "--theta", "1.0",
        )
        assert code == 0
        reports.append(out)
    assert reports[0] == "port A power 0.921927\nport B power 0.078073\n"
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_sort_expansion_file_input(tmp_path, capsys):
    src = tmp_path / "state.hgx"
    src.write_text("hg-expansion v1 w0=1\n1 0 0.70710678 0\n0 1 0.70710678 0\n")
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "sort", str(src))
    assert code == 0
    assert "port B power 1.000000" in out


# ---------------------------------------------------------------------------
# interfere
# ---------------------------------------------------------------------------

def test_interfere_hg10_fork(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path), "interfere", "hg:1,0", "--analyze-fork"
    )
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("fork")][0]
    parts = dict(p.split("=") for p in line.split()[1:])
    assert abs(int(parts["upper"]) - int(parts["lower"])) == 1
    assert (tmp_path / "hg_1_0_interference.pgm").exists()


def test_interfere_hg00_no_fork(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path), "interfere", "hg:0,0", "--analyze-fork"
    )
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("fork")][0]
    parts = dict(p.split("=") for p in line.split()[1:])
    assert int(parts["upper"]) == int(parts["lower"])


def test_interfere_identical_beams_uniform(tmp_path, capsys):
    # zero tilt, no offset, no rotation: constructive everywhere
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "--format", "csv",
        "interfere", "hg:0,0", "--tilt", "0", "--offset", "0", "0",
        "--ref-phase", "0", "--no-output-rotation",
    )
    assert code == 0
    rows = (tmp_path / "hg_0_0_interference.csv").read_text().strip().split("\n")
    arr = np.array([[float(v) for v in row.split(",")] for row in rows])
    # 4x the single-beam intensity, sample for sample
    from sagnacsim import modes as M

    geom = M.BeamGeometry(1.0)
    single = M.sample_mode(
        M.ModeExpansion({M.HGIndex(0, 0): 1.0}, geom), M.default_grid(geom)
    )
    expected = 4.0 * np.abs(single.values[::-1]) ** 2
    assert np.allclose(arr, expected, atol=1e-12)


def test_interfere_hg45_extra_mirror(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path), "interfere", "hg45", "--analyze-fork"
    )
    assert code == 0
    assert (tmp_path / "hg45_interference.pgm").exists()


@pytest.mark.parametrize("spec", ["hg:1,0", "hg45", "lg:2,3"])
def test_interfere_matches_per_term_reference(tmp_path, capsys, spec):
    from sagnacsim import modes as M

    geom = M.BeamGeometry(1.0)
    grid = M.default_grid(geom)
    x, y = np.meshgrid(grid.axis(), grid.axis())
    # The sorter output is the input turned by 90 degrees, E(y, -x).  For
    # hg45 the reference arm's extra mirror reads E(-x, y), and its default
    # offset moves the reference sideways as well as down.
    mirror, (dx, dy) = (-1.0, (0.75, -0.75)) if spec == "hg45" else (1.0, cli.FORK_OFFSET)
    tilt = np.exp(1j * (math.pi * cli.FORK_TILT_FRINGES / grid.half_width * x + cli.FORK_REF_PHASE))
    field = np.zeros(x.shape, dtype=complex)
    for idx, amp in cli.parse_mode_spec(spec, geom).terms.items():
        field += amp * hg_field_at(idx, y, -x, geom)
        field += amp * hg_field_at(idx, mirror * (x - dx), y - dy, geom) * tilt
    want = np.abs(field[::-1]) ** 2

    for fmt in ("csv", "pgm"):
        code, _, err = run(capsys, "--out-dir", str(tmp_path), "--format", fmt, "interfere", spec)
        assert (code, err) == (0, "")
    stem = tmp_path / f"{cli._stem(spec)}_interference"
    text = stem.with_suffix(".csv").read_text()
    got = np.array([[float(v) for v in row.split(",")] for row in text.splitlines()])
    assert np.max(np.abs(got - want)) < 1e-12 * want.max()
    _, _, _, _, levels = F.parse_pnm(read(stem.with_suffix(".pgm")))
    assert np.array_equal(levels, F.scale_to_levels(got))


# ---------------------------------------------------------------------------
# sweep-theta
# ---------------------------------------------------------------------------

def test_sweep_theta_csv(tmp_path, capsys):
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "sweep-theta", "--count", "9"
    )
    assert code == 0
    rows = (tmp_path / "sweep_theta.csv").read_text().strip().split("\n")
    assert rows[0] == "theta_rad,omega_rad,psi_rad"
    assert len(rows) == 10
    first = [float(v) for v in rows[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(math.pi, abs=1e-12)
    mid = [float(v) for v in rows[5].split(",")]  # theta = pi/4 at index 4
    assert mid[0] == pytest.approx(math.pi / 4, abs=1e-12)
    assert mid[1] == pytest.approx(math.pi / 2, abs=1e-12)
    assert mid[2] == pytest.approx(math.pi, abs=1e-12)
    omegas = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(omegas, omegas[1:]))


def test_sweep_theta_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        run(capsys, "--out-dir", str(d), "sweep-theta", "--count", "100")
    assert read(d1 / "sweep_theta.csv") == read(d2 / "sweep_theta.csv")


def test_sweep_theta_count_guard(tmp_path, capsys):
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path), "sweep-theta", "--count", "1"
    )
    assert code == 3


def test_sweep_theta_count_bounded_before_any_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep_theta", lambda *a: pytest.fail("rows were made"))
    code, out, err = run(
        capsys, "--out-dir", str(tmp_path), "sweep-theta", "--count", str(cli.MAX_SWEEP_COUNT + 1)
    )
    assert code == 2 and out == ""
    assert err == f"usage error: count {cli.MAX_SWEEP_COUNT + 1} is more than {cli.MAX_SWEEP_COUNT}\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def test_cascade_csv_depth2(tmp_path, capsys):
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "cascade", "--depth", "2", "--l=-3..3"
    )
    assert code == 0
    rows = (tmp_path / "cascade.csv").read_text().strip().split("\n")
    assert rows[0] == "input_label,leaf_label,power_fraction"
    table = {}
    for row in rows[1:]:
        label, leaf, power = row.split(",")
        table.setdefault(label, {})[leaf] = float(power)
    for l in range(-3, 4):
        winner = max(table[f"l={l}"].items(), key=lambda kv: kv[1])
        assert winner[0] == f"{l % 4} mod 4"
        assert winner[1] == pytest.approx(1.0, abs=1e-9)
        assert sum(table[f"l={l}"].values()) == pytest.approx(1.0, abs=1e-9)


def test_cascade_depth1_odd_l(tmp_path, capsys):
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "cascade", "--depth", "1", "--l", "7"
    )
    assert code == 0
    rows = (tmp_path / "cascade.csv").read_text().strip().split("\n")[1:]
    powers = {r.split(",")[1]: float(r.split(",")[2]) for r in rows}
    assert powers["1 mod 2"] == pytest.approx(1.0, abs=1e-12)


def test_cascade_superposition_file(tmp_path, capsys):
    src = tmp_path / "mix.hgx"
    src.write_text(
        "hg-expansion v1 w0=1\n0 0 0.8366600265340756 0\n1 0 0.5477225575051661 0\n"
    )
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "cascade", "--depth", "1",
        "--input", str(src),
    )
    assert code == 0
    rows = (tmp_path / "cascade.csv").read_text().strip().split("\n")[1:]
    powers = {r.split(",")[1]: float(r.split(",")[2]) for r in rows}
    assert powers["0 mod 2"] == pytest.approx(0.7, abs=1e-9)
    assert powers["1 mod 2"] == pytest.approx(0.3, abs=1e-9)
    assert sum(powers.values()) == pytest.approx(1.0, abs=1e-9)


def test_cascade_network_file(tmp_path, capsys):
    net = tmp_path / "net.txt"
    net.write_text("tree 2\n")
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "cascade", "--network", str(net),
        "--l", "2",
    )
    assert code == 0
    rows = (tmp_path / "cascade.csv").read_text().strip().split("\n")[1:]
    powers = {r.split(",")[1]: float(r.split(",")[2]) for r in rows}
    assert powers["2 mod 4"] == pytest.approx(1.0, abs=1e-9)


def test_cascade_network_deeper_than_the_recursion_limit(tmp_path, capsys):
    # Each stage passes even l to port A, which feeds the next stage.
    net = tmp_path / "chain.txt"
    lines = [f"stage s{i} theta=0.7853981633974483 phi=0" for i in range(3000)]
    lines += [f"route s{i}.A -> s{i + 1}" for i in range(2999)]
    net.write_text("\n".join(lines) + "\n")
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "cascade", "--network", str(net), "--l", "2",
    )
    assert code == 0
    rows = (tmp_path / "cascade.csv").read_text().strip().split("\n")[1:]
    powers = {r.split(",")[1]: float(r.split(",")[2]) for r in rows}
    assert len(powers) == 3001
    assert powers["s2999.A"] == pytest.approx(1.0, abs=1e-12)


def test_cascade_bad_network_exits_3(tmp_path, capsys):
    net = tmp_path / "net.txt"
    for text in ("nonsense\n", "tree x\n"):
        net.write_text(text)
        code, _, err = run(
            capsys, "--out-dir", str(tmp_path), "cascade", "--network", str(net)
        )
        assert code == 3
        assert "line 1" in err
    assert "expected 'tree <depth>'" in err


def test_cascade_bad_l_list_exits_2(tmp_path, capsys):
    cases = (("--l=a..b", "a..b"), ("--l=1..2..3", "1..2..3"), ("--l=1,x", "x"), ("--l=5..3,1", "5..3"))
    for arg, chunk in cases:
        code, _, err = run(capsys, "--out-dir", str(tmp_path), "cascade", arg)
        assert code == 2
        assert f"usage error: bad l list entry '{chunk}'" in err


@pytest.mark.parametrize("argv, message", [
    (("--network", "NET", "--depth", "4", "--l=0..1"), "give either --depth or --network, not both"),
    (("--input", "hg45", "--l=0..1"), "give either --l or --input, not both"),
])
def test_cascade_refuses_conflicting_options(tmp_path, capsys, argv, message):
    net = tmp_path / "net.txt"
    net.write_text("tree 2\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [str(net) if arg == "NET" else arg for arg in argv]
    code, out, err = run(capsys, "--out-dir", str(out_dir), "cascade", *argv)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize("argv", [("--depth", "9"), ("--depth", "0", "--l=1"), ("--depth=-1",)])
def test_cascade_depth_out_of_range_is_a_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "cascade", *argv)
    assert (code, out, err) == (2, "", "usage error: cascade depth must lie between 1 and 5\n")
    assert os.listdir(tmp_path) == []


def test_cascade_network_rejects_non_finite_numbered(tmp_path, capsys):
    net = tmp_path / "net.txt"
    for value in ("nan", "inf"):
        net.write_text(f"# stage\nstage s theta={value} phi=0\n")
        code, _, err = run(capsys, "--out-dir", str(tmp_path), "cascade", "--network", str(net))
        assert code == 3
        assert err == f"error: line 2: '{value}' is not finite\n"


def test_cascade_l_list_bounded_while_parsing(tmp_path, capsys, monkeypatch):
    def no_range(*args):
        raise AssertionError("a range was expanded before the checks")

    full = f"-{cli.MAX_ORDER}..{cli.MAX_ORDER}"  # 341 values
    past_cap = ",".join([full] * 3 + ["0", "1"])
    assert 3 * (2 * cli.MAX_ORDER + 1) + 2 == cli.MAX_L_VALUES + 1
    cases = (
        (f"--l=0..{cli.MAX_ORDER + 1}", f"'0..{cli.MAX_ORDER + 1}' goes beyond |l| = 170"),
        (f"--l={-cli.MAX_ORDER - 1}", f"'{-cli.MAX_ORDER - 1}' goes beyond |l| = 170"),
        (f"--l={past_cap}", "holds 1025 values, more than 1024"),
    )
    with monkeypatch.context() as patch:
        patch.setattr(cli, "range", no_range, raising=False)
        for arg, message in cases:
            code, _, err = run(capsys, "--out-dir", str(tmp_path), "cascade", arg)
            assert code == 2
            assert message in err
    at_cap = cli._parse_l_list(",".join([full] * 3 + ["0"]))
    assert len(at_cap) == cli.MAX_L_VALUES
    assert at_cap[:2] == [-cli.MAX_ORDER, -cli.MAX_ORDER + 1]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_bell(tmp_path, capsys):
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", "bell")
    assert code == 0
    assert "schmidt: (0.7071068, 0.7071068)" in out
    assert "post_selection=0.72727272727272729" in out
    assert (tmp_path / "pipeline_bell.txt").read_text() == out


@pytest.mark.parametrize("name", ["bell", "herald", "herald-lg"])
def test_pipeline_reports_match_recorded_bytes(tmp_path, capsys, name):
    # Every digit of the 17-digit reports is pinned, so a change that moves
    # a bit of a probability or amplitude has to update these files.
    with open(os.path.join(os.path.dirname(__file__), "data", f"pipeline_{name}.txt"), "rb") as fh:
        recorded = fh.read()
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", name)
    assert code == 0
    assert out.encode("ascii") == recorded
    assert read(tmp_path / f"pipeline_{name}.txt") == recorded


def test_pipeline_reports_skip_roundoff_terms(tmp_path, capsys):
    # The exact parity sort leaves ~1e-33 residue on the BB state's cross
    # terms; only the two physical terms are listed.
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", "bell")
    assert code == 0
    final = [line.split() for line in out.split("final state:\n")[1].splitlines()]
    assert [line[:4] for line in final] == [["0", "1", "0", "1"], ["1", "0", "1", "0"]]
    for line in final:
        assert float(line[4]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", "herald-lg")
    assert code == 0
    final = out.split("final heralded state:\n")[1].splitlines()
    assert [line.split()[:2] for line in final] == [["0", "1"], ["1", "0"]]


def test_pipeline_reports_print_roundoff_parts_as_zero(tmp_path, capsys):
    # Beside 0.7 a part of 1e-15 carries 2e-30 of the power, under the floor,
    # and a part of 1e-9 carries 2e-18, over it.
    table = tmp_path / "t.bip"
    table.write_text("biphoton v1\n0 0 0 0 0.7 1e-15\n1 0 1 0 1e-15 0.7\n0 1 0 1 0.7 1e-9\n")
    script = tmp_path / "p.pipe"
    script.write_text(f"source table {table}\n")
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", str(script))
    assert code == 0
    assert out.split("final state:\n")[1].splitlines() == [
        "  0 0 0 0 0.69999999999999996 0",
        "  0 1 0 1 0.69999999999999996 1.0000000000000001e-09",
        "  1 0 1 0 0 0.69999999999999996",
    ]


def test_pipeline_table_past_the_block_budget_exits_3(tmp_path, capsys):
    # One term per block to order 100 would need 26.5 M block entries.
    table = tmp_path / "big.bip"
    table.write_text(one_term_per_block_table(100))
    script = tmp_path / "p.pipe"
    script.write_text(f"# big\nsource table {table}\nfilter\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "--out-dir", str(out_dir), "pipeline", str(script))
    assert (code, out) == (3, "")
    assert err == (
        f"error: line 2: {table}: biphoton blocks would hold 26532801 entries,"
        f" more than the limit of {2**24}\n"
    )
    assert os.listdir(out_dir) == []


def test_pipeline_herald(tmp_path, capsys):
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", "herald")
    assert code == 0
    assert "overlap hg45=1.000000000" in out


def test_pipeline_herald_lg(tmp_path, capsys):
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", "herald-lg")
    assert code == 0
    assert "overlap lg+1=1.000000000" in out


def test_pipeline_custom_script(tmp_path, capsys):
    script = tmp_path / "custom.pipe"
    script.write_text("source hg00\nfilter\nsort theta=0.7853981633974483\nselect BB\nschmidt\n")
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", str(script))
    assert code == 0
    assert "schmidt: (0.7071068, 0.7071068)" in out


def test_pipeline_table_source(tmp_path, capsys):
    table = tmp_path / "pump.bip"
    table.write_text(
        "biphoton v1\n"
        "0 0 0 0 0.08 0\n1 0 1 0 0.04 0\n0 1 0 1 0.04 0\n"
        "0 0 0 2 -0.03 0\n0 2 0 0 -0.03 0\n0 0 2 0 -0.03 0\n2 0 0 0 -0.03 0\n"
    )
    script = tmp_path / "p.pipe"
    script.write_text(f"source table {table}\nfilter\nsort\nselect BB\nschmidt\n")
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "pipeline", str(script))
    assert code == 0
    assert "schmidt: (0.7071068, 0.7071068)" in out


def test_pipeline_script_error_numbered(tmp_path, capsys):
    script = tmp_path / "bad.pipe"
    script.write_text("source hg00\nfrobnicate\n")
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "pipeline", str(script))
    assert code == 3
    assert "line 2" in err


def test_pipeline_numbers_numbered(tmp_path, capsys):
    cases = (
        ("source hg00\nfilter\nsort theta=abc\n", "line 3: expected a number, got 'abc'"),
        ("source hg45\nfilter\ncompressor axis=inf\n", "line 3: 'inf' is not finite"),
        ("source hg45\n\nsort phi=nan\n", "line 3: 'nan' is not finite"),
        ("source hg45\nfilter\nsort\nherald mode=0,x\n", "line 4: expected an integer, got 'x'"),
    )
    script = tmp_path / "bad.pipe"
    for text, message in cases:
        script.write_text(text)
        code, _, err = run(capsys, "--out-dir", str(tmp_path), "pipeline", str(script))
        assert code == 3
        assert err == f"error: {message}\n"


def test_pipeline_model_faults_numbered(tmp_path, capsys):
    cases = (
        ("source hg45\nfilter\nsort theta=5\n", "line 3: theta must lie in [0, pi]"),
        ("source hg45\nfilter\ncompressor retardance=7\n", "line 3: retardance must lie in [0, 2*pi)"),
        ("source hg45\nfilter\nsort\nherald mode=200,0\n", "line 4: order too large: n+m=200 exceeds 170"),
        ("source hg45\nfilter\nsort\n# trigger\nherald port=C\n", "line 5: trigger port must be 'A' or 'B'"),
    )
    script = tmp_path / "bad.pipe"
    for text, message in cases:
        script.write_text(text)
        code, _, err = run(capsys, "--out-dir", str(tmp_path), "pipeline", str(script))
        assert code == 3
        assert err == f"error: {message}\n"


def test_pipeline_table_faults_name_both_lines(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("biphoton v1\n0 0 0 x 1 0\n")
    script = tmp_path / "p.pipe"
    script.write_text(f"# table\nsource table {table}\nfilter\n")
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "pipeline", str(script))
    assert code == 3
    assert err == f"error: line 2: {table}: line 2: expected an integer, got 'x'\n"
    table.write_text("biphoton v1\n0 0 0 -1 1 0\n")
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "pipeline", str(script))
    assert err.startswith(f"error: line 2: {table}: line 2: HG indices must be nonnegative")


@pytest.mark.parametrize("text, message", [
    pytest.param("source hg00\nfilter\nsort thta=1.0\n", "line 3: unknown key 'thta'", id="sort-unknown-key"),
    pytest.param("source hg00\nfilter\nsort theta=1 theta=1\n", "line 3: duplicate key 'theta'", id="sort-duplicate-key"),
    pytest.param("source hg45\nfilter\ncompressor axis=1 retard=1\n", "line 3: unknown key 'retard'", id="compressor-unknown-key"),
    pytest.param("source hg45\nfilter\nsort\nherald prot=A\n", "line 4: unknown key 'prot'", id="herald-unknown-key"),
    pytest.param("source hg45\nfilter\nsort\nherald port=A port=B\n", "line 4: duplicate key 'port'", id="herald-duplicate-key"),
    pytest.param("source hg00\nfilter extra\n", "line 2: unexpected field 'extra' after 'filter'", id="filter-field"),
    pytest.param("source hg00\nfilter\nschmidt junk\n", "line 3: unexpected field 'junk' after 'schmidt'", id="schmidt-field"),
    pytest.param("source hg00\nfilter\npbs-split 1\n", "line 3: unexpected field '1' after 'pbs-split'", id="pbs-split-field"),
    pytest.param("# s\nsource hg45 x\n", "line 2: unexpected field 'x' after 'source hg45'", id="source-field"),
])
def test_pipeline_lines_reject_unknown_keys_and_extra_fields(tmp_path, capsys, text, message):
    script = tmp_path / "bad.pipe"
    script.write_text(text)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "--out-dir", str(out_dir), "pipeline", str(script))
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert os.listdir(out_dir) == []


def test_only_sampling_subcommands_build_a_grid(tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was requested")

    monkeypatch.setattr(cli, "GridSpec", no_grid)
    for argv in (
        ("pipeline", "bell", "--half-width", "3"),
        ("cascade", "--depth", "2", "--half-width", "3"),
        ("sweep-theta", "--count", "5", "--half-width", "3"),
    ):
        out_dir = tmp_path / argv[0]
        code, _, err = run(capsys, "--out-dir", str(out_dir), "--grid-size", "64", *argv)
        assert (code, err) == (0, "")
        meta = (out_dir / "metadata.txt").read_text().splitlines()
        assert meta[3:5] == ["grid_size 64", "half_width 3"]
    with pytest.raises(AssertionError, match="a grid was requested"):
        main(["--out-dir", str(tmp_path / "mode"), "mode", "hg:0,0"])


@pytest.mark.parametrize("argv", [("pipeline", "bell"), ("cascade",), ("sweep-theta",)])
def test_default_half_width_must_be_finite(tmp_path, capsys, argv):
    code, out, err = run(capsys, "--out-dir", str(tmp_path), *argv, "--w0", "1e308")
    assert (code, out, err) == (3, "", "error: the default half width 8*w0 is not finite\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", ["-1", "0", "-0"])
@pytest.mark.parametrize("argv", [
    ("pipeline", "bell"), ("cascade",), ("sweep-theta",), ("mode", "hg:0,0"), ("sort", "hg:1,0"),
])
def test_half_width_must_be_positive_while_parsing(tmp_path, capsys, argv, value):
    code, _, err = run(capsys, "--out-dir", str(tmp_path), *argv, f"--half-width={value}")
    assert code == 2
    assert f"argument --half-width: expected a positive number, got '{value}'" in err
    assert os.listdir(tmp_path) == []


def test_cascade_and_sort_file_model_faults_numbered(tmp_path, capsys):
    net = tmp_path / "net.txt"
    for text, message in (
        ("tree 9\n", "line 1: cascade depth must lie between 1 and 5"),
        ("# s\nstage s theta=5 phi=0\n", "line 2: theta must lie in [0, pi]"),
    ):
        net.write_text(text)
        code, _, err = run(capsys, "--out-dir", str(tmp_path), "cascade", "--network", str(net))
        assert (code, err) == (3, f"error: {message}\n")
    exp = tmp_path / "e.txt"
    for text, message in (
        ("hg-expansion v1 w0=-1\n", "line 1: waist radius w0 must be positive and finite"),
        ("hg-expansion v1 w0=1\n0 200 1 0\n", "line 2: order too large: n+m=200 exceeds 170"),
    ):
        exp.write_text(text)
        code, _, err = run(capsys, "--out-dir", str(tmp_path), "sort", str(exp))
        assert (code, err) == (3, f"error: {message}\n")


FLOAT_OPTIONS = (
    ("mode", "hg:1,1", "--w0"),
    ("mode", "hg:1,1", "--half-width"),
    ("sort", "hg:1,1", "--theta"),
    ("sort", "hg:1,1", "--phi"),
    ("interfere", "hg:1,0", "--tilt"),
    ("interfere", "hg:1,0", "--ref-phase"),
    ("interfere", "hg:1,0", "--cut"),
    ("sweep-theta", None, "--theta-min"),
    ("sweep-theta", None, "--theta-max"),
    ("pipeline", "bell", "--c0"),
    ("pipeline", "bell", "--c1"),
    ("pipeline", "bell", "--c2"),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, spec, option", FLOAT_OPTIONS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_float_options_must_be_finite(tmp_path, capsys, command, spec, option, value):
    argv = ["--out-dir", str(tmp_path), command] + ([spec] if spec else []) + [f"{option}={value}"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"argument {option}: '{value}' is not finite" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.filterwarnings("error")
def test_offset_must_be_finite(tmp_path, capsys):
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "interfere", "hg:1,0", "--offset", "nan", "0")
    assert code == 2
    assert "argument --offset: 'nan' is not finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("mode", "hg:1,1", "--w0", "1e-300"),
    ("mode", "hg:1,1", "--w0", "1e-320"),
    ("mode", "hg:1,1", "--w0", "1e-300", "--format", "csv"),
    ("mode", "hg:1,1", "--half-width", "1e308"),
    ("interfere", "hg:1,0", "--tilt", "1e308"),
    ("interfere", "hg:1,0", "--tilt", "1e308", "--analyze-fork"),
])
def test_non_finite_images_refused(tmp_path, capsys, argv):
    code, out, err = run(capsys, "--out-dir", str(tmp_path), *argv)
    assert code == 3
    assert err.startswith("error: ") and "finite" in err
    assert "fork" not in out
    assert os.listdir(tmp_path) == []


def test_pipeline_unknown_name_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "pipeline", "nope")
    assert code == 2


def test_pipeline_coefficient_overrides(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path), "pipeline", "bell",
        "--c0", "0.1", "--c1", "0.05", "--c2", "0.0",
    )
    assert code == 0
    want = 2 * 0.05**2 / (0.1**2 + 2 * 0.05**2)
    line = [l for l in out.splitlines() if l.startswith("select BB")][0]
    assert float(line.split("=")[1]) == pytest.approx(want, abs=1e-12)


def test_usage_error_no_command(capsys):
    assert main([]) == 2
