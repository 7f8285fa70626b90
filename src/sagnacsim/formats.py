"""Deterministic text and image serialization.

Everything here produces byte-stable output for identical inputs: floats
are written with 17 significant digits, images carry no timestamps or
comments, and scaling rules are fixed.
"""

from __future__ import annotations

import contextlib
import functools
import math
import re

import numpy as np

from .modes import BeamGeometry, HGIndex, ModeExpansion, _check_index

PGM_MAXVAL = 65535


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def numbered_lines(text: str):
    """``(lineno, fields)`` for each line of ``text`` that holds more than a
    ``#`` comment; ``fields`` are its whitespace-separated words."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


@contextlib.contextmanager
def at_line(lineno: int):
    """Re-raise any ValueError raised while line ``lineno`` of an input
    file is handled as ``line <lineno>: <message>``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc


def key_values(fields: list[str]) -> dict[str, str]:
    """The ``key=value`` fields of a line as a dict; a later key wins."""
    kv = {}
    for tok in fields:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"malformed parameter '{tok}'")
        kv[key] = val
    return kv


def parse_number(text: str, kind=float, expected: str | None = None):
    """One number (``float`` or ``int``); a malformed or non-finite value is
    a ValueError naming, if given, the ``expected`` form."""
    try:
        value = kind(text)
    except ValueError:
        expected = expected or ("an integer" if kind is int else "a number")
        raise ValueError(f"expected {expected}, got '{text}'") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"'{text}' is not finite")
    return value


# ---------------------------------------------------------------------------
# Expansion text format
# ---------------------------------------------------------------------------

def dump_expansion(e: ModeExpansion) -> str:
    """Serialize an expansion: header ``hg-expansion v1 w0=<meters>``,
    one ``n m re im`` line per term, sorted by index."""
    lines = [f"hg-expansion v1 w0={fmt_float(e.geometry.w0)}"]
    for idx, amp in sorted(e.terms.items()):
        lines.append(f"{idx.n} {idx.m} {fmt_float(amp.real)} {fmt_float(amp.imag)}")
    return "\n".join(lines) + "\n"


def parse_expansion(text: str) -> ModeExpansion:
    """Parse the expansion text format; ``#`` comments allowed anywhere."""
    geometry = None
    terms: dict[HGIndex, complex] = {}
    for lineno, fields in numbered_lines(text):
        with at_line(lineno):
            if geometry is None:
                header = re.fullmatch(r"hg-expansion v1 w0=(\S+)", " ".join(fields))
                if not header:
                    raise ValueError("expected header 'hg-expansion v1 w0=<meters>'")
                geometry = BeamGeometry(parse_number(header.group(1)))
                continue
            if len(fields) != 4:
                raise ValueError("expected 'n m re im'")
            key = _check_index([parse_number(p, int) for p in fields[:2]])
            re_part, im_part = (parse_number(p) for p in fields[2:])
            terms[key] = terms.get(key, 0j) + complex(re_part, im_part)
    if geometry is None:
        raise ValueError("missing 'hg-expansion v1' header")
    return ModeExpansion(terms, geometry)


def read_expansion(path) -> ModeExpansion:
    with open(path, "r", encoding="ascii") as fh:
        return parse_expansion(fh.read())


def write_expansion(path, e: ModeExpansion) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_expansion(e))


# ---------------------------------------------------------------------------
# PGM / PPM images (16 bit, big endian payload)
# ---------------------------------------------------------------------------

def scale_to_levels(data: np.ndarray) -> np.ndarray:
    """Scale nonnegative data to [0, 65535] against its own maximum."""
    peak = float(np.max(data)) if data.size else 0.0
    if peak <= 0.0:
        return np.zeros(data.shape, dtype=np.uint16)
    levels = np.rint(data / peak * PGM_MAXVAL)
    return np.clip(levels, 0, PGM_MAXVAL).astype(np.uint16)


def phase_levels(phase: np.ndarray) -> np.ndarray:
    """16-bit levels mapping phases in [-pi, pi] onto [0, 65535]."""
    levels = np.floor((phase + math.pi) / (2.0 * math.pi) * (PGM_MAXVAL + 1))
    return np.clip(levels, 0, PGM_MAXVAL).astype(np.uint16)


def pgm_bytes(levels: np.ndarray) -> bytes:
    h, w = levels.shape
    header = f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii")
    return header + levels.astype(">u2").tobytes()


def ppm_bytes(levels: np.ndarray) -> bytes:
    """Grayscale levels replicated over the three color channels."""
    h, w = levels.shape
    header = f"P6\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii")
    rgb = np.repeat(levels[:, :, None], 3, axis=2)
    return header + rgb.astype(">u2").tobytes()


# ---------------------------------------------------------------------------
# CSV matrices: an exact vectorised '%.17g'
# ---------------------------------------------------------------------------
#
# Each value v with 1e-280 <= |v| <= 1e280 is written from its 17
# significant digits D = round(|v| * 10^(16-k)), 10^16 <= D < 10^17, where
# k is the decimal exponent.  10^(16-k) is an exact double-double, so the
# product is known to ~1e-14 in units of D: the integer part is exact and
# the rounding is read off the low word.  A lane whose fraction is within
# _TIE_MARGIN of one half, and every nonzero lane outside that range or not
# finite, is formatted by '%' instead.  The text is laid out from a
# per-lane row of candidate bytes (sign, "0.000" prefix, each digit
# followed by a possible decimal point, exponent, separator) by keeping the
# columns the '%g' layout of that lane needs, in order.

_CSV_MIN, _CSV_MAX = 1e-280, 1e280
_POW10_MIN, _POW10_MAX = -270, 300  # covers 16 - k for every k the range gives
_TIE_MARGIN = 1e-6  # far above the ~1e-14 error of the product
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter

# Candidate byte columns of one lane.  Digit i sits at _digit_col(i) and a
# possible decimal point right after it; the 16 digits after the leading
# one are written as four 8-byte "d.d.d.d." groups.
_MINUS, _ZERO, _ZERO_DOT, _ZEROS, _LEAD, _GROUPS = 0, 1, 2, 3, 6, 8
_EXP_E, _EXP_SIGN, _EXP_HUNDREDS, _EXP_TENS, _SEP = 41, 42, 43, 44, 46
_LANE_WIDTH = 48

# Layout classes: '%g' fixed notation for exponents -4..16, scientific
# notation with a two- or three-digit exponent, and zero.
_FIXED_MIN, _FIXED_MAX = -4, 16
_SCI2, _SCI3, _ZERO_CLASS = 21, 22, 23
_CLASSES = 24
_K_OFFSET = 300


def _digit_col(i: int) -> int:
    return _LEAD if i == 0 else _GROUPS + 2 * (i - 1)


def _lane_columns(negative: bool, cls: int, sig: int) -> list[int]:
    """Columns kept for a lane of layout class ``cls`` with ``sig``
    significant digits (trailing zeros removed), in output order."""
    cols = [_MINUS] if negative else []
    digits = [_digit_col(i) for i in range(sig)]
    if cls == _ZERO_CLASS:
        cols.append(_ZERO)
    elif cls < _SCI2:
        exp = cls + _FIXED_MIN
        if exp < 0:
            cols += [_ZERO, _ZERO_DOT] + list(range(_ZEROS, _ZEROS - exp - 1)) + digits
        else:
            cols += [_digit_col(i) for i in range(exp + 1)]
            if sig > exp + 1:
                cols += [_digit_col(exp) + 1] + digits[exp + 1 :]
    else:
        cols += digits[:1] + ([_LEAD + 1] + digits[1:] if sig > 1 else [])
        cols += [_EXP_E, _EXP_SIGN] + ([_EXP_HUNDREDS] if cls == _SCI3 else [])
        cols += [_EXP_TENS, _EXP_TENS + 1]
    return cols + [_SEP]


@functools.cache
def _csv_tables():
    """Tables of the CSV kernel, built on first use."""
    hi, lo = [], []
    for e in range(_POW10_MIN, _POW10_MAX + 1):
        if e >= 0:
            h = float(10**e)
            lo.append(float(10**e - int(h)))
        else:
            den = 10**-e
            h = 1 / den
            num, pow2 = h.as_integer_ratio()
            lo.append((pow2 - num * den) / (pow2 * den))
        hi.append(h)
    keep = np.zeros((2, _CLASSES, 17, _LANE_WIDTH), dtype=bool)
    for negative in (0, 1):
        for cls in range(_CLASSES):
            for sig in range(1, 18):
                keep[negative, cls, sig - 1, _lane_columns(negative, cls, sig)] = True

    quad = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    groups = np.full((10000, 8), ord("."), dtype=np.uint8)
    groups[:, ::2] = quad + ord("0")
    trailing = np.argmax(quad[:, ::-1] != 0, axis=1)
    trailing[0] = 4
    lead = np.frombuffer(b"0.1.2.3.4.5.6.7.8.9.", dtype=np.uint16)
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), dtype=np.uint16)
    classes = np.array([
        k - _FIXED_MIN if _FIXED_MIN <= k <= _FIXED_MAX else _SCI2 if abs(k) < 100 else _SCI3
        for k in range(-_K_OFFSET, _K_OFFSET + 1)
    ])
    blank = np.zeros(_LANE_WIDTH, dtype=np.uint8)
    blank[[_MINUS, _ZERO, _ZERO_DOT, _EXP_E, _SEP]] = list(b"-0.e,")
    blank[_ZEROS : _ZEROS + 3] = ord("0")
    return (np.array(hi), np.array(lo), keep.reshape(-1, _LANE_WIDTH), groups.view(np.uint64).ravel(),
            lead, pairs, trailing, classes, blank)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _digits(a: np.ndarray, k: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """D = round(a * 10^(16-k)), the distance of a * 10^(16-k) from D,
    and whether a * 10^(16-k) < 10^16."""
    e = 16 - k - _POW10_MIN
    t = hi[e]
    p = a * t
    ah, al = _split(a)
    th, tl = _split(t)
    low = (((ah * th - p) + ah * tl + al * th) + al * tl) + a * lo[e]
    r = np.rint(low)
    base = p.astype(np.int64)
    below = base + np.floor(low).astype(np.int64) < 10**16
    return base + r.astype(np.int64), np.abs(low - r), below


def csv_matrix(data: np.ndarray) -> str:
    """Rows of comma-separated ``'%.17g'`` values, each row ended by a newline."""
    data = np.asarray(data, dtype=float)
    if not data.size:
        return "\n" * max(len(data), 1)
    hi, lo, keep_table, groups, lead_chars, pairs, trailing, classes, blank = _csv_tables()
    width = data.shape[1]
    v = data.ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= _CSV_MIN) & (a <= _CSV_MAX)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)

    # Decimal exponent k: log10 can be off by one next to a power of ten;
    # such lanes are redone with the neighbouring exponent, and a D that
    # rounds up to 10^17 is 10^16 with the next exponent.
    k = np.floor(np.log10(a)).astype(np.int64)
    d, dist, below = _digits(a, k, hi, lo)
    redo = np.flatnonzero(fast & (below | (d >= 10**17)))
    if redo.size:
        k[redo] += np.where(below[redo], -1, 1)
        d[redo], dist[redo], _ = _digits(a[redo], k[redo], hi, lo)
    top = d == 10**17
    d[top] = 10**16
    k[top] += 1
    fast &= (dist < 0.5 - _TIE_MARGIN) & (d >= 10**16) & (d < 10**17)
    slow = np.flatnonzero(~fast & ~zero)
    d[~fast] = 10**16
    k[~fast] = 0

    lanes = np.empty((n, _LANE_WIDTH), dtype=np.uint8)
    lanes[:] = blank
    lanes[width - 1 :: width, _SEP] = ord("\n")
    upper = d // 10**8
    lower = d - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    eight = np.stack((upper, lower), axis=1)
    high4 = eight // 10000
    quads = np.stack((high4, eight - high4 * 10000), axis=2).reshape(n, 4)
    lanes.view(np.uint16)[:, _LEAD // 2] = lead_chars[lead]
    lanes.view(np.uint64)[:, _GROUPS // 8 : _GROUPS // 8 + 4] = groups[quads]
    exp = np.abs(k)
    lanes[:, _EXP_SIGN] = np.where(k < 0, ord("-"), ord("+"))
    lanes[:, _EXP_HUNDREDS] = exp // 100 + ord("0")
    lanes.view(np.uint16)[:, _EXP_TENS // 2] = pairs[exp % 100]

    # Trailing zeros of D; a lane needs the next group only when every
    # group after it is zero.
    zeros = trailing[quads[:, 3]]
    for j in (2, 1, 0):
        more = np.flatnonzero(zeros == 4 * (3 - j))
        if not more.size:
            break
        zeros[more] += trailing[quads[more, j]]
    cls = classes[k + _K_OFFSET]
    cls[zero] = _ZERO_CLASS
    keep = keep_table[(np.signbit(v) * _CLASSES + cls) * 17 + 16 - zeros]
    for i in slow.tolist():
        text = ("%.17g" % v[i]).encode("ascii")
        lanes[i, : len(text)] = list(text)
        keep[i, :_SEP] = np.arange(_SEP) < len(text)
    return np.compress(keep.ravel(), lanes.ravel()).tobytes().decode("ascii")


def parse_pnm(blob: bytes) -> tuple[str, int, int, int, np.ndarray]:
    """Minimal netpbm reader for P5/P6 with 2-byte samples.

    Returns (magic, width, height, maxval, array) with array shape
    (height, width) for P5 and (height, width, 3) for P6.
    """
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(blob):
            raise ValueError("truncated netpbm header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    magic = tokens[0].decode("ascii")
    if magic not in ("P5", "P6"):
        raise ValueError(f"unsupported netpbm magic {magic!r}")
    width, height, maxval = (int(t) for t in tokens[1:4])
    pos += 1  # single whitespace byte after maxval
    channels = 3 if magic == "P6" else 1
    count = width * height * channels
    payload = blob[pos : pos + 2 * count]
    if len(payload) != 2 * count:
        raise ValueError("truncated netpbm payload")
    arr = np.frombuffer(payload, dtype=">u2").astype(np.uint16)
    if magic == "P6":
        return magic, width, height, maxval, arr.reshape(height, width, 3)
    return magic, width, height, maxval, arr.reshape(height, width)
