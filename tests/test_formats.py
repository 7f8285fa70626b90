import math
import os
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sagnacsim import formats as F
from sagnacsim import modes as M

GEOM = M.BeamGeometry(1.0)


def dump_expansion(e):
    """The expansion text format: header ``hg-expansion v1 w0=<meters>``,
    one ``n m re im`` line per term, sorted by index."""
    lines = [f"hg-expansion v1 w0={F.fmt_float(e.geometry.w0)}"]
    for idx, amp in sorted(e.terms.items()):
        lines.append(f"{idx.n} {idx.m} {F.fmt_float(amp.real)} {F.fmt_float(amp.imag)}")
    return "\n".join(lines) + "\n"


def test_expansion_round_trip():
    e = M.ModeExpansion(
        {M.HGIndex(0, 0): 0.5 + 0.25j, M.HGIndex(3, 1): -0.125}, GEOM
    )
    text = dump_expansion(e)
    back = F.parse_expansion(text)
    assert back.terms == e.terms
    assert back.geometry.w0 == GEOM.w0


def test_expansion_header_and_comments():
    text = """# a comment
hg-expansion v1 w0=0.001
0 0 1 0   # fundamental
1 0 0 -0.5
"""
    e = F.parse_expansion(text)
    assert e.geometry.w0 == 0.001
    assert e.coeff((1, 0)) == -0.5j


def test_expansion_parse_errors_numbered():
    with pytest.raises(ValueError, match="line 1"):
        F.parse_expansion("not a header\n")
    with pytest.raises(ValueError, match="line 3"):
        F.parse_expansion("hg-expansion v1 w0=1\n0 0 1 0\n1 2 three 0\n")
    with pytest.raises(ValueError, match="header"):
        F.parse_expansion("")


def test_expansion_file_io(tmp_path):
    e = M.ModeExpansion({M.HGIndex(2, 2): 1.0}, GEOM)
    path = tmp_path / "state.hgx"
    path.write_text(dump_expansion(e), encoding="ascii")
    assert F.read_expansion(path).terms == e.terms


def test_pgm_round_trip():
    levels = np.arange(16, dtype=np.uint16).reshape(4, 4) * 4000
    blob = F.pgm_bytes(levels)
    magic, w, h, maxval, arr = F.parse_pnm(blob)
    assert (magic, w, h, maxval) == ("P5", 4, 4, 65535)
    assert np.array_equal(arr, levels)


def test_ppm_round_trip():
    levels = np.arange(16, dtype=np.uint16).reshape(4, 4) * 4000
    blob = F.ppm_bytes(levels)
    magic, w, h, maxval, arr = F.parse_pnm(blob)
    assert (magic, w, h) == ("P6", 4, 4)
    assert np.array_equal(arr[:, :, 0], levels)
    assert np.array_equal(arr[:, :, 2], levels)


def test_intensity_levels_full_scale():
    spec = M.GridSpec(8.0, 64)
    field = M.sample_mode(M.ModeExpansion({M.HGIndex(0, 0): 1.0}, GEOM), spec)
    levels = F.scale_to_levels(np.abs(field.values) ** 2)
    assert levels.max() == 65535
    assert levels.min() == 0
    assert levels.dtype == np.uint16


def test_intensity_levels_zero_field():
    assert np.all(F.scale_to_levels(np.zeros((32, 32))) == 0)


def test_phase_levels_range():
    spec = M.GridSpec(8.0, 64)
    field = M.sample_lg(M.LGIndex(0, 1), GEOM, spec)
    levels = F.phase_levels(np.angle(field.values))
    assert levels.min() >= 0
    assert levels.max() <= 65535
    # a vortex covers the full phase range
    assert levels.max() - levels.min() > 60000


def test_float_format_round_trips():
    vals = [math.pi, 1 / 3, 1e-17, -2.5e300]
    for v in vals:
        assert float(F.fmt_float(v)) == v


def test_csv_matrix_shape():
    data = np.array([[1.0, 2.0], [3.0, 4.0]])
    text = F.csv_matrix(data)
    rows = text.strip().split("\n")
    assert len(rows) == 2
    assert rows[0] == "1,2"
    for empty in (np.zeros((0, 3)), np.zeros((2, 0))):
        assert F.csv_matrix(empty) == reference_csv(empty)


def test_expansion_parse_rejects_non_finite_numbered():
    with pytest.raises(ValueError, match="line 1: 'inf' is not finite"):
        F.parse_expansion("hg-expansion v1 w0=inf\n")
    with pytest.raises(ValueError, match="line 3: 'nan' is not finite"):
        F.parse_expansion("hg-expansion v1 w0=1\n0 0 1 0\n1 0 nan 0\n")
    with pytest.raises(ValueError, match="line 2: expected an integer, got '1.5'"):
        F.parse_expansion("hg-expansion v1 w0=1\n1.5 0 1 0\n")


def test_numbered_lines_skip_comments_and_blanks():
    text = "# head\n\na b  # tail\n   \n  c=1\n#\n"
    assert list(F.numbered_lines(text)) == [(3, ["a", "b"]), (5, ["c=1"])]


def test_at_line_numbers_value_errors_only():
    with pytest.raises(ValueError, match="^line 7: bad value$"):
        with F.at_line(7):
            raise ValueError("bad value")
    with pytest.raises(KeyError):
        with F.at_line(7):
            raise KeyError("x")


def test_key_values():
    assert F.key_values(["phi=2", "theta=x=y"], ("theta", "phi")) == {"theta": "x=y", "phi": "2"}
    assert F.key_values([], ("theta",)) == {}
    with pytest.raises(ValueError, match="^unknown key 'thta'$"):
        F.key_values(["thta=1"], ("theta", "phi"))
    with pytest.raises(ValueError, match="^duplicate key 'theta'$"):
        F.key_values(["theta=1", "phi=0", "theta=1"], ("theta", "phi"))
    with pytest.raises(ValueError, match="^malformed parameter 'c'$"):
        F.key_values(["theta=1", "c"], ("theta", "c"))


def test_expansion_model_faults_numbered():
    with pytest.raises(ValueError, match="^line 2: waist radius w0 must be positive"):
        F.parse_expansion("# w0\nhg-expansion v1 w0=-1\n")
    with pytest.raises(ValueError, match="^line 3: order too large"):
        F.parse_expansion("hg-expansion v1 w0=1\n0 0 1 0\n0 200 1 0\n")
    with pytest.raises(ValueError, match="^line 2: HG indices must be nonnegative"):
        F.parse_expansion("hg-expansion v1 w0=1\n-1 0 1 0\n")


# ---------------------------------------------------------------------------
# CSV kernel against the per-value '%.17g' loop it replaced
# ---------------------------------------------------------------------------

def reference_csv(data) -> str:
    """The per-value loop csv_matrix replaced; its text is the contract."""
    rows = []
    for row in data:
        rows.append(",".join(f"{float(v):.17g}" for v in row))
    return "\n".join(rows) + "\n"


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _step(x: float, steps: int) -> float:
    """``x`` moved ``steps`` representable doubles up (or down)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


SIGNS = st.sampled_from([1.0, -1.0])
RAW_BITS = st.integers(0, 2**64 - 1).map(_from_bits)
SPECIALS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072009e-308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308, allow_subnormal=True),
)
POWERS_OF_TEN = st.builds(
    lambda k, steps, sign: sign * _step(float(f"1e{k}"), steps),
    st.integers(-323, 308), st.integers(-3, 3), SIGNS,
)
# The '%g' notation switches at exponent -4 and at 17 digits.
SWITCHES = st.builds(
    lambda base, steps, sign: sign * _step(base, steps),
    st.sampled_from([1e-5, 1e-4, 1e16, 1e17]), st.integers(-40, 40), SIGNS,
)


@st.composite
def halfway(draw):
    """A double exactly halfway between two 17-digit decimals.

    n / 2^(17-k) with n odd and the value in [10^k, 10^(k+1)) has 18
    significant digits, the last a 5; n < 2^53 keeps it exact for k <= 14.
    """
    k = draw(st.integers(-7, 14))
    scale = Fraction(2) ** (17 - k)
    lo = math.ceil(Fraction(10) ** k * scale)
    hi = math.ceil(Fraction(10) ** (k + 1) * scale)
    n = draw(st.integers(lo, hi - 1)) | 1
    assume(n < hi)
    value = Fraction(n) / scale
    assert (value * Fraction(10) ** (16 - k)).denominator == 2
    return draw(SIGNS) * float(value)


@st.composite
def matrices(draw, values):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=float).reshape(rows, cols)


@pytest.mark.parametrize(
    "values",
    [RAW_BITS, SPECIALS, POWERS_OF_TEN, halfway(), SWITCHES],
    ids=["raw_bits", "specials", "powers_of_ten", "halfway", "g_switches"],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_csv_matrix_matches_reference(values, data):
    matrix = data.draw(matrices(values))
    assert F.csv_matrix(matrix) == reference_csv(matrix)


def test_csv_matrix_every_power_of_ten_and_neighbours():
    values = [
        sign * _step(float(f"1e{k}"), steps)
        for k in range(-323, 309)
        for steps in range(-2, 3)
        for sign in (1.0, -1.0)
    ]
    matrix = np.array(values).reshape(-1, 20)
    assert F.csv_matrix(matrix) == reference_csv(matrix)


def test_csv_matrix_matches_reference_on_random_bits():
    rng = np.random.default_rng(6)
    matrix = rng.integers(0, 2**64, size=(500, 200), dtype=np.uint64).view(np.float64)
    assert F.csv_matrix(matrix) == reference_csv(matrix)


def test_csv_tables_built_on_first_use():
    code = (
        "import sagnacsim.cli\n"
        "from sagnacsim import formats\n"
        "print(formats._csv_tables.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(F.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "0\n"


def test_pgm_serialization_deterministic():
    spec = M.GridSpec(8.0, 64)
    field = M.sample_mode(M.ModeExpansion({M.HGIndex(1, 1): 1.0}, GEOM), spec)
    inten = np.abs(field.values) ** 2
    assert F.pgm_bytes(F.scale_to_levels(inten)) == F.pgm_bytes(F.scale_to_levels(inten))
