"""Command-line front end.

Subcommands: mode, sort, interfere, sweep-theta, cascade, pipeline.
All artifacts are byte-deterministic for identical invocations on the same
machine and numpy/BLAS build (ROADMAP item 7): fixed float formatting, no
timestamps, version and arguments recorded in a sidecar ``metadata.txt``.
Exit codes: 0 success, 2 usage, 3 numeric/model error.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys

import numpy as np

from . import __version__
from . import formats
from .geometry import sweep_theta
from .interferometer import (
    MAX_CASCADE_DEPTH,
    SagnacStage,
    _oam_leaf_powers,
    cascade_build,
    cascade_route,
    parse_network,
    port_powers,
    sagnac_transfer,
)
from .modes import (
    DEFAULT_HALF_WIDTH_W0,
    MAX_ORDER,
    BeamGeometry,
    GridSpec,
    HGIndex,
    LGIndex,
    ModeExpansion,
    decompose_grid,  # no caller; the benchmark's tracer wraps cli.decompose_grid
    evaluate_expansion,
    lg_to_hg,
    rotate_exact,
    sample_lg,  # no caller; the benchmark's tracer wraps cli.sample_lg
    sample_mode,
)
from . import quantum as Q


class UsageError(Exception):
    pass


# Interference defaults frozen for reproducible fork demos: the reference
# beam is steered 0.75 w0 below the output axis with a quarter-wave path
# offset, and tilted by 10 fringes across the window.  Analysis cuts sit
# at +-1.5 w0 with a 5 percent row-relative peak threshold.
FORK_TILT_FRINGES = 10.0
FORK_OFFSET = (0.0, -0.75)
FORK_REF_PHASE = math.pi / 2
FORK_CUT_W0 = 1.5
FORK_THRESHOLD = 0.05

# A port power fraction at or below this is rounding residue of the exact
# transfer (at most 7e-28 measured for single HG modes up to order 170 at
# the parity stage); such a port renders dark instead of as noise scaled
# to full contrast, and such a term is left out of pipeline reports.
ROUNDOFF_POWER = 1e-20

# Largest --grid-size accepted; every grid array is grid_size^2 samples.
MAX_GRID_SIZE = 4096

# Most OAM values one --l list may hold (each |l| is at most MAX_ORDER).
MAX_L_VALUES = 1024

# Most rows one sweep-theta table may hold; the rows are kept in memory
# until the file is written, at about 230 bytes each.
MAX_SWEEP_COUNT = 100_000

# A CSV image is formatted and written in bands of whole rows holding about
# this many values, so its text never exists whole.
CSV_BAND_VALUES = 1 << 14


_DIAGONAL = 1.0 / math.sqrt(2.0)
_FIBER_FIRST = math.sqrt(0.15 / 2.0)

# HG terms of each named mode spec.  The fiber output of the sorting demo
# is 85 percent fundamental plus 15 percent split equally over the
# diagonal first-order superposition.
PRESETS = {
    "hg45": {HGIndex(1, 0): _DIAGONAL, HGIndex(0, 1): _DIAGONAL},
    "hg45m": {HGIndex(1, 0): _DIAGONAL, HGIndex(0, 1): -_DIAGONAL},
    "fiber-demo": {
        HGIndex(0, 0): math.sqrt(0.85), HGIndex(1, 0): _FIBER_FIRST, HGIndex(0, 1): -_FIBER_FIRST
    },
}


def parse_mode_spec(spec: str, geom: BeamGeometry) -> ModeExpansion:
    """Resolve ``hg:n,m``, ``lg:p,l``, a preset name, or an expansion file."""
    if spec in PRESETS:
        return ModeExpansion(PRESETS[spec], geom)
    if spec.startswith("hg:"):
        try:
            n, m = (int(p) for p in spec[3:].split(","))
        except ValueError:
            raise UsageError(f"bad mode spec '{spec}': expected hg:n,m") from None
        return ModeExpansion({HGIndex(n, m): 1.0}, geom)
    if spec.startswith("lg:"):
        try:
            p, l = (int(v) for v in spec[3:].split(","))
        except ValueError:
            raise UsageError(f"bad mode spec '{spec}': expected lg:p,l") from None
        return lg_to_hg(LGIndex(p, l), geom)
    if os.path.exists(spec):
        e = formats.read_expansion(spec)
        return ModeExpansion(e.terms, geom)
    raise UsageError(f"unknown mode spec or missing file '{spec}'")


def _stem(spec: str) -> str:
    if os.path.exists(spec):
        base = os.path.basename(spec)
        return os.path.splitext(base)[0]
    return spec.replace(":", "_").replace(",", "_").replace("-", "_")


def _write_bytes(path: str, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)


def _image_paths(args, stem: str, kind: str) -> str:
    ext = {"pgm": "pgm", "ppm": "ppm", "csv": "csv"}[args.format]
    return os.path.join(args.out_dir, f"{stem}_{kind}.{ext}")


def _emit_image(args, path: str, raw: np.ndarray, to_levels) -> None:
    """Write ``raw`` (top row first) as CSV values, or as the image of
    ``to_levels(raw)``; an image with a non-finite value is refused."""
    if not np.isfinite(raw).all():
        raise ValueError(f"{path}: image values are not finite; not written")
    if args.format == "csv":
        rows = max(1, CSV_BAND_VALUES // raw.shape[1])
        with open(path, "w", encoding="ascii") as fh:
            for start in range(0, len(raw), rows):
                fh.write(formats.csv_matrix(raw[start : start + rows]))
    else:
        write = formats.pgm_bytes if args.format == "pgm" else formats.ppm_bytes
        _write_bytes(path, write(to_levels(raw)))


def _write_metadata(args) -> None:
    path = os.path.join(args.out_dir, "metadata.txt")
    lines = [
        f"tool sagnacsim {__version__}",
        f"command {args.command}",
        f"w0 {formats.fmt_float(args.w0)}",
        f"grid_size {args.grid_size}",
        f"half_width {formats.fmt_float(args.half_width_value)}",
        f"format {args.format}",
        f"argv {shlex.join(args.argv)}",
    ]
    with open(path, "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.write("\n".join(lines) + "\n")


def _geometry(args) -> BeamGeometry:
    """The beam of ``--w0``; also fixes the half width that metadata.txt
    records, whether or not the subcommand samples a grid."""
    geom = BeamGeometry(args.w0)
    half = args.half_width if args.half_width is not None else DEFAULT_HALF_WIDTH_W0 * args.w0
    if not math.isfinite(half):
        raise ValueError("the default half width 8*w0 is not finite")
    args.half_width_value = half
    return geom


def _geometry_and_grid(args) -> tuple[BeamGeometry, GridSpec]:
    geom = _geometry(args)
    return geom, GridSpec(args.half_width_value, args.grid_size)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_mode(args) -> None:
    geom, grid = _geometry_and_grid(args)
    stem = _stem(args.spec)
    field = sample_mode(parse_mode_spec(args.spec, geom), grid)
    path = _image_paths(args, stem, "intensity")
    _emit_image(args, path, np.abs(field.values[::-1]) ** 2, formats.scale_to_levels)
    print(f"wrote {path}")
    if args.phase:
        ppath = _image_paths(args, stem, "phase")
        _emit_image(args, ppath, np.angle(field.values[::-1]), formats.phase_levels)
        print(f"wrote {ppath}")


def cmd_sort(args) -> None:
    geom, grid = _geometry_and_grid(args)
    expansion = parse_mode_spec(args.spec, geom)
    stage = SagnacStage(args.theta, args.phi)
    pair = sagnac_transfer(expansion, stage)
    pa, pb = port_powers(pair)
    stem = _stem(args.spec)
    for port, state, power in (("portA", pair.port_a, pa), ("portB", pair.port_b, pb)):
        if power <= ROUNDOFF_POWER:
            state = ModeExpansion({}, geom)
        field = sample_mode(state, grid)
        path = _image_paths(args, f"{stem}_{port}", "intensity")
        _emit_image(args, path, np.abs(field.values[::-1]) ** 2, formats.scale_to_levels)
    print(f"port A power {pa:.6f}")
    print(f"port B power {pb:.6f}")


def cmd_interfere(args) -> None:
    geom, grid = _geometry_and_grid(args)
    if args.tilt < 0:
        raise UsageError("tilt must be nonnegative")
    expansion = parse_mode_spec(args.spec, geom)
    ref_spec = args.reference if args.reference is not None else args.spec
    reference = parse_mode_spec(ref_spec, geom)

    # Sorter output is the input rotated by 90 degrees.
    output = expansion if args.no_output_rotation else rotate_exact(
        expansion, math.pi / 2
    )
    offset = tuple(args.offset) if args.offset is not None else FORK_OFFSET
    if args.spec == "hg45" and args.offset is None:
        offset = (0.75, -0.75)
    if args.spec == "hg45" and not args.no_extra_mirror:
        # The reference arm's extra mirror flips x, which for the diagonal
        # mode cancels the sorter rotation.
        reference = ModeExpansion(
            {i: c * (-1.0) ** i.n for i, c in reference.terms.items()},
            reference.geometry,
        )

    # Pixel (i, j) sits at (x, y) = (xs[j], xs[i]); the shifted reference
    # and its tilt, a phase along x, keep both beams separable.
    xs = grid.axis()
    tau = math.pi * args.tilt / grid.half_width
    dx, dy = (offset[0] * geom.w0, offset[1] * geom.w0)
    out_field = evaluate_expansion(output, xs, xs)
    ref_field = evaluate_expansion(reference, xs - dx, xs - dy) * np.exp(
        1j * (tau * xs + args.ref_phase)
    )
    inten = np.abs(out_field + ref_field) ** 2

    stem = _stem(args.spec)
    path = _image_paths(args, stem, "interference")
    _emit_image(args, path, inten[::-1], formats.scale_to_levels)
    print(f"wrote {path}")

    if args.analyze_fork:
        upper, lower = fork_fringe_counts(inten, xs, cut=args.cut * geom.w0)
        print(f"fork upper={upper} lower={lower} diff={upper - lower}")


def fork_fringe_counts(inten: np.ndarray, xs: np.ndarray, cut: float) -> tuple[int, int]:
    """Count fringe maxima along the two horizontal analysis cuts."""

    def count(row: np.ndarray) -> int:
        thr = FORK_THRESHOLD * float(row.max())
        hits = 0
        for i in range(1, len(row) - 1):
            if row[i] > thr and row[i] > row[i - 1] and row[i] >= row[i + 1]:
                hits += 1
        return hits

    i_up = int(np.argmin(np.abs(xs - cut)))
    i_lo = int(np.argmin(np.abs(xs + cut)))
    return count(inten[i_up]), count(inten[i_lo])


def cmd_sweep_theta(args) -> None:
    _geometry(args)
    if args.count > MAX_SWEEP_COUNT:
        raise UsageError(f"count {args.count} is more than {MAX_SWEEP_COUNT}")
    rows = ["theta_rad,omega_rad,psi_rad"]
    for theta, omega, psi in sweep_theta(args.count, args.theta_min, args.theta_max):
        rows.append(
            ",".join(formats.fmt_float(v) for v in (theta, omega, psi))
        )
    path = os.path.join(args.out_dir, args.output)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path}")


def _parse_l_list(text: str) -> list[int]:
    """The OAM values of a ``--l`` list of integers and ``a..b`` ranges;
    bounds and the total count are checked before any range is expanded."""
    ranges = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            bounds = chunk.split("..") if ".." in chunk else [chunk, chunk]
            lo, hi = (int(v) for v in bounds)
        except ValueError:
            raise UsageError(
                f"bad l list entry '{chunk}': expected an integer or a..b"
            ) from None
        if lo > hi:
            raise UsageError(f"bad l list entry '{chunk}': a range a..b needs a <= b")
        if max(abs(lo), abs(hi)) > MAX_ORDER:
            raise UsageError(f"l list entry '{chunk}' goes beyond |l| = {MAX_ORDER}")
        ranges.append((lo, hi))
    count = sum(hi - lo + 1 for lo, hi in ranges)
    if not count:
        raise UsageError("empty l list")
    if count > MAX_L_VALUES:
        raise UsageError(f"l list holds {count} values, more than {MAX_L_VALUES}")
    return [l for lo, hi in ranges for l in range(lo, hi + 1)]


def cmd_cascade(args) -> None:
    if args.network is not None and args.depth is not None:
        raise UsageError("give either --depth or --network, not both")
    if args.input is not None and args.l is not None:
        raise UsageError("give either --l or --input, not both")
    if args.depth is not None and not 1 <= args.depth <= MAX_CASCADE_DEPTH:
        raise UsageError(f"cascade depth must lie between 1 and {MAX_CASCADE_DEPTH}")
    geom = _geometry(args)
    if args.network is not None:
        with open(args.network, "r", encoding="ascii") as fh:
            root = parse_network(fh.read())
    else:
        root = cascade_build(2 if args.depth is None else args.depth)
    rows = ["input_label,leaf_label,power_fraction"]
    if args.input is not None:
        expansion = parse_mode_spec(args.input, geom)
        leaves = cascade_route(root, expansion)
        label = _stem(args.input)
        for leaf in leaves:
            rows.append(f"{label},{leaf.label},{formats.fmt_float(leaf.power)}")
    else:
        ls = _parse_l_list("-3..3" if args.l is None else args.l)
        labels, powers = _oam_leaf_powers(root, ls)
        for l, column in zip(ls, powers.T):
            rows += [f"l={l},{leaf},{formats.fmt_float(p)}" for leaf, p in zip(labels, column.tolist())]
    path = os.path.join(args.out_dir, args.output)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

NAMED_PIPELINES = {
    "bell": """\
source hg00
filter
sort
select BB
schmidt
pbs-split
""",
    "herald": """\
source hg45
filter
sort
herald port=A mode=0,0
""",
    "herald-lg": """\
source hg45
filter
compressor axis=1.5707963267948966 retardance=1.5707963267948966
sort
herald port=A mode=0,0
""",
}


def _kv_number(kv: dict[str, str], key: str, default: float) -> float:
    return formats.parse_number(kv[key]) if key in kv else default


def _no_more_fields(parts: list[str], count: int) -> None:
    """Reject any field of a pipeline line after its first ``count``."""
    if len(parts) > count:
        raise ValueError(f"unexpected field '{parts[count]}' after '{' '.join(parts[:count])}'")


def run_pipeline_script(script: str, name: str, overrides: dict) -> list[str]:
    """Execute a pipeline script and return its report lines."""
    report = [f"pipeline {name}"]
    state = None
    sort_result = None
    herald_result = None
    geom = Q.DEFAULT_GEOMETRY

    for lineno, parts in formats.numbered_lines(script):
        with formats.at_line(lineno):
            op = parts[0]
            if op == "source":
                if len(parts) < 2:
                    raise ValueError("source needs an argument")
                if parts[1] in ("hg00", "hg45"):
                    _no_more_fields(parts, 2)
                if parts[1] == "hg00":
                    state = Q.spdc_hg00(
                        overrides.get("c0", Q.DEFAULT_C0),
                        overrides.get("c1", Q.DEFAULT_C1),
                        overrides.get("c2", Q.DEFAULT_C2),
                    )
                elif parts[1] == "hg45":
                    state = Q.spdc_hg45(overrides.get("c1", Q.DEFAULT_C1))
                elif parts[1] == "table":
                    if len(parts) != 3:
                        raise ValueError("source table needs a path")
                    try:
                        with open(parts[2], "r", encoding="ascii") as fh:
                            state = Q.load_biphoton_table(fh)
                    except (OSError, ValueError) as exc:
                        raise ValueError(f"{parts[2]}: {exc}") from exc
                else:
                    raise ValueError(f"unknown source '{parts[1]}'")
                report.append(
                    f"source {parts[1]}: norm2={formats.fmt_float(state.norm_sq())}"
                    f" terms={len(state.terms)}"
                )
            elif op == "filter":
                _no_more_fields(parts, 1)
                if state is None:
                    raise ValueError("filter before source")
                state, prob = Q.fiber_filter_biphoton(state)
                report.append(f"filter: post_selection={formats.fmt_float(prob)}")
            elif op == "compressor":
                kv = formats.key_values(parts[1:], ("axis", "retardance"))
                spec = Q.CompressorSpec(
                    axis_angle=_kv_number(kv, "axis", math.pi / 2),
                    retardance=_kv_number(kv, "retardance", math.pi / 2),
                )
                if state is None:
                    raise ValueError("compressor before source")
                state = Q.compressor_apply(state, spec)
                report.append(
                    f"compressor: axis={formats.fmt_float(spec.axis_angle)}"
                    f" retardance={formats.fmt_float(spec.retardance)}"
                )
            elif op == "sort":
                kv = formats.key_values(parts[1:], ("theta", "phi"))
                stage = SagnacStage(_kv_number(kv, "theta", math.pi / 4), _kv_number(kv, "phi", 0.0))
                if state is None:
                    raise ValueError("sort before source")
                sort_result = Q.sort_biphoton(state, stage)
                probs = " ".join(
                    f"P_{k}={formats.fmt_float(v.probability)}"
                    for k, v in sorted(sort_result.branches.items())
                )
                report.append(
                    f"sort: theta={formats.fmt_float(stage.theta)}"
                    f" phi={formats.fmt_float(stage.phi)} {probs}"
                )
            elif op == "select":
                if len(parts) != 2 or parts[1] not in ("AA", "AB", "BA", "BB"):
                    raise ValueError("select needs AA|AB|BA|BB")
                if sort_result is None:
                    raise ValueError("select before sort")
                prob = sort_result.probability(parts[1])
                state = sort_result.state(parts[1])
                report.append(f"select {parts[1]}: probability={formats.fmt_float(prob)}")
            elif op == "herald":
                kv = formats.key_values(parts[1:], ("port", "mode"))
                port = kv.get("port", "A")
                mode = kv.get("mode", "0,0").split(",")
                if len(mode) != 2:
                    raise ValueError("bad herald mode")
                n, m = (formats.parse_number(v, int) for v in mode)
                if sort_result is None:
                    raise ValueError("herald before sort")
                herald_result = Q.herald(sort_result, port, HGIndex(n, m))
                report.append(
                    f"herald port={port} mode={n},{m}:"
                    f" probability={formats.fmt_float(herald_result.probability)}"
                )
                for ref_name, ref in (
                    ("hg45", ModeExpansion(PRESETS["hg45"], geom)),
                    ("lg+1", lg_to_hg(LGIndex(0, 1), geom)),
                    ("lg-1", lg_to_hg(LGIndex(0, -1), geom)),
                ):
                    ov = abs(ref.inner(herald_result.spatial))
                    report.append(f"  overlap {ref_name}={ov:.9f}")
            elif op == "schmidt":
                _no_more_fields(parts, 1)
                if state is None:
                    raise ValueError("schmidt before a state exists")
                coeffs = Q.schmidt_coefficients(state)
                inside = ", ".join(f"{c:.7f}" for c in coeffs)
                report.append(f"schmidt: ({inside})")
            elif op == "pbs-split":
                _no_more_fields(parts, 1)
                if state is None:
                    raise ValueError("pbs-split before a state exists")
                rep = Q.pbs_split_bell(state)
                inside = ", ".join(f"{c:.7f}" for c in rep.spatial_schmidt)
                report.append(
                    f"pbs-split: success={formats.fmt_float(rep.pbs_success_probability)}"
                    f" bs_coincidence={formats.fmt_float(rep.bs_coincidence_probability)}"
                    f" spatial_schmidt=({inside})"
                )
            else:
                raise ValueError(f"unknown pipeline op '{op}'")

    if herald_result is not None:
        report.append("final heralded state:")
        final, label = herald_result.spatial, lambda idx: f"{idx.n} {idx.m}"
    elif state is not None:
        report.append("final state:")
        final, label = state, lambda key: f"{key[0].n} {key[0].m} {key[1].n} {key[1].m}"
    else:
        return report
    # A term, or a real or imaginary part, carrying at most ROUNDOFF_POWER
    # of the state's power is rounding residue of the exact transfer: such a
    # term is not listed and such a part prints as 0.
    floor = ROUNDOFF_POWER * final.norm_sq()
    for key, amp in sorted(final.terms.items()):
        if abs(amp) ** 2 > floor:
            parts = (formats.fmt_float(x if x * x > floor else 0.0) for x in (amp.real, amp.imag))
            report.append(f"  {label(key)} {' '.join(parts)}")
    return report


def cmd_pipeline(args) -> None:
    _geometry(args)
    overrides = {}
    if args.c0 is not None:
        overrides["c0"] = args.c0
    if args.c1 is not None:
        overrides["c1"] = args.c1
    if args.c2 is not None:
        overrides["c2"] = args.c2
    if args.name in NAMED_PIPELINES:
        script = NAMED_PIPELINES[args.name]
        name = args.name
    elif os.path.exists(args.name):
        with open(args.name, "r", encoding="ascii") as fh:
            script = fh.read()
        name = _stem(args.name)
    else:
        raise UsageError(f"unknown pipeline '{args.name}'")
    report = run_pipeline_script(script, name, overrides)
    text = "\n".join(report) + "\n"
    sys.stdout.write(text)
    path = os.path.join(args.out_dir, f"pipeline_{name}.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    try:
        return formats.parse_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def positive_float(text: str) -> float:
    value = finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got '{text}'")
    return value


def grid_size(text: str) -> int:
    value = int(text)
    if value < 16 or value > MAX_GRID_SIZE or value % 2:
        raise argparse.ArgumentTypeError(
            f"grid size {value} is not an even number from 16 to {MAX_GRID_SIZE}"
        )
    return value


def _add_common_options(parser, suppress: bool) -> None:
    # The same flags are registered on the main parser (real defaults) and
    # on every subparser (SUPPRESS), so they work on either side of the
    # subcommand without the subparser clobbering earlier values.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--w0", type=finite_float, default=default(1.0), help="beam waist radius"
    )
    parser.add_argument(
        "--grid-size", type=grid_size, default=default(256),
        help=f"samples per grid side (even, 16 to {MAX_GRID_SIZE})",
    )
    parser.add_argument(
        "--half-width", type=positive_float, default=default(None),
        help="grid half width (default 8*w0)",
    )
    parser.add_argument("--out-dir", default=default("."), help="output directory")
    parser.add_argument(
        "--format", choices=("pgm", "ppm", "csv"), default=default("pgm"),
        help="image output format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagnacsim",
        description="Transverse-mode sorting in out-of-plane Sagnac interferometers.",
    )
    _add_common_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "mode", help="render a mode's intensity (and phase)", parents=[common]
    )
    p.add_argument("spec", help="hg:n,m | lg:p,l | hg45 | fiber-demo | file")
    p.add_argument("--phase", action="store_true", help="also write a phase image")
    p.set_defaults(func=cmd_mode)

    p = sub.add_parser("sort", help="split a mode over the two Sagnac ports", parents=[common])
    p.add_argument("spec")
    p.add_argument("--theta", type=finite_float, default=math.pi / 4)
    p.add_argument("--phi", type=finite_float, default=0.0)
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("interfere", help="render output-vs-reference interference", parents=[common])
    p.add_argument("spec")
    p.add_argument("--reference", default=None, help="reference mode spec")
    p.add_argument(
        "--tilt", type=finite_float, default=FORK_TILT_FRINGES,
        help="reference tilt in fringes across the window",
    )
    p.add_argument(
        "--offset", type=finite_float, nargs=2, default=None, metavar=("DX", "DY"),
        help="reference beam offset in units of w0",
    )
    p.add_argument("--ref-phase", type=finite_float, default=FORK_REF_PHASE)
    p.add_argument("--no-output-rotation", action="store_true")
    p.add_argument("--no-extra-mirror", action="store_true")
    p.add_argument("--analyze-fork", action="store_true")
    p.add_argument("--cut", type=finite_float, default=FORK_CUT_W0)
    p.set_defaults(func=cmd_interfere)

    p = sub.add_parser("sweep-theta", help="tabulate theta, omega, psi", parents=[common])
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--theta-min", type=finite_float, default=0.0)
    p.add_argument("--theta-max", type=finite_float, default=math.pi / 2)
    p.add_argument("--output", default="sweep_theta.csv")
    p.set_defaults(func=cmd_sweep_theta)

    p = sub.add_parser("cascade", help="route OAM values through a sorting tree", parents=[common])
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--network", default=None, help="network description file")
    p.add_argument("--l", default=None, help="comma list or a..b range")
    p.add_argument("--input", default=None, help="expansion file to route")
    p.add_argument("--output", default="cascade.csv")
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("pipeline", help="run a biphoton pipeline", parents=[common])
    p.add_argument("name", help="bell | herald | herald-lg | script file")
    p.add_argument("--c0", type=finite_float, default=None)
    p.add_argument("--c1", type=finite_float, default=None)
    p.add_argument("--c2", type=finite_float, default=None)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    args.argv = argv
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        # A render that overflows shows as non-finite values, which
        # _emit_image refuses with a message instead of a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            args.func(args)
        _write_metadata(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
