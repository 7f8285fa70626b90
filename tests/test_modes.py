import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnacsim import modes as M

GEOM = M.BeamGeometry(1.0)
GRID = M.default_grid(GEOM)


def single(n, m, amp=1.0):
    return M.ModeExpansion({M.HGIndex(n, m): amp}, GEOM)


def coeff_distance(a, b):
    keys = set(a.terms) | set(b.terms)
    return math.sqrt(sum(abs(a.coeff(k) - b.coeff(k)) ** 2 for k in keys))


def lg_zero_radial_exact(l):
    """Independent LG_0^l synthesis: (a_x+ + i sgn(l) a_y+)^{|l|} expanded
    binomially gives coefficients (i sgn)^k sqrt(C(N,k)/2^N) on HG_{N-k,k}."""
    n_tot = abs(l)
    sgn = 1j if l > 0 else -1j
    terms = {}
    for k in range(n_tot + 1):
        amp = (sgn ** k) * math.sqrt(math.comb(n_tot, k) / 2.0 ** n_tot)
        terms[M.HGIndex(n_tot - k, k)] = amp
    return M.ModeExpansion(terms, GEOM)


# ---------------------------------------------------------------------------
# hermite_gauss_ladder
# ---------------------------------------------------------------------------

def hg_field_at(idx, x, y, geom):
    """Waist-plane HG_nm field at x, y: the product of two ladder factors."""
    return (
        M.hermite_gauss_ladder(idx.n, x, geom.w0)[idx.n]
        * M.hermite_gauss_ladder(idx.m, y, geom.w0)[idx.m]
    )


def test_h1_vanishes_on_its_node():
    for y in (-2.0, 0.0, 0.3, 1.7):
        assert hg_field_at(M.HGIndex(1, 0), 0.0, y, GEOM) == pytest.approx(0.0, abs=1e-300)


def test_hg00_unit_power_by_quadrature():
    # Gauss-Hermite product rule in u = sqrt(2) x / w0, where the HG00 power
    # density is a constant times exp(-u^2 - v^2), so the rule is exact.
    nodes, weights = np.polynomial.hermite.hermgauss(20)
    u, v = np.meshgrid(nodes, nodes)
    x, y = u / math.sqrt(2.0), v / math.sqrt(2.0)
    density = hg_field_at(M.HGIndex(0, 0), x, y, GEOM) ** 2
    weight = np.outer(weights, weights) * np.exp(u**2 + v**2)
    val = float(np.sum(weight * density)) / 2.0
    assert val == pytest.approx(1.0, abs=1e-8)


def test_hg32_lobe_grid():
    # 4 x-lobes (3 sign changes) by 3 y-lobes (2 sign changes)
    field = M.sample_mode(single(3, 2), GRID)
    xs = GRID.axis()
    row = np.real(field.values[int(np.argmin(np.abs(xs - 1.0)))])
    col = np.real(field.values[:, int(np.argmin(np.abs(xs - 1.0)))])

    def sign_changes(v):
        live = v[np.abs(v) > 1e-6 * np.max(np.abs(v))]
        return int(np.sum(np.sign(live[1:]) != np.sign(live[:-1])))

    assert sign_changes(row) == 3
    assert sign_changes(col) == 2


def test_order_guard():
    with pytest.raises(ValueError, match="order too large"):
        M.hermite_gauss_ladder(171, 0.1, GEOM.w0)


def test_high_order_stays_finite():
    v = hg_field_at(M.HGIndex(170, 0), 1.3, 0.0, GEOM)
    assert math.isfinite(v)


# ---------------------------------------------------------------------------
# lg_to_hg
# ---------------------------------------------------------------------------

def test_lg_plus_coefficients():
    e = M.lg_to_hg(M.LGIndex(0, 1), GEOM)
    inv = 1.0 / math.sqrt(2.0)
    assert e.coeff((1, 0)) == pytest.approx(inv)
    assert e.coeff((0, 1)) == pytest.approx(1j * inv)
    assert e.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_lg_minus_conjugate():
    e = M.lg_to_hg(M.LGIndex(0, -1), GEOM)
    assert e.coeff((0, 1)) == pytest.approx(-1j / math.sqrt(2.0))


def test_lg_orthogonality():
    plus = M.lg_to_hg(M.LGIndex(0, 1), GEOM)
    minus = M.lg_to_hg(M.LGIndex(0, -1), GEOM)
    assert abs(plus.inner(minus)) < 1e-15


def test_lg_to_hg_rejects_out_of_range():
    with pytest.raises(ValueError, match="nonnegative"):
        M.lg_to_hg(M.LGIndex(-1, 1), GEOM)
    with pytest.raises(ValueError, match="order too large"):
        M.lg_to_hg(M.LGIndex(0, 171), GEOM)
    with pytest.raises(ValueError, match="order too large"):
        M.lg_to_hg(M.LGIndex(85, -1), GEOM)
    for idx in ((0, 1.7), (1.0, 1), (0, np.float64(2.0))):
        with pytest.raises(ValueError, match="LG indices must be integers"):
            M.lg_to_hg(idx, GEOM)


def test_lg_to_hg_is_a_column_of_the_dense_rotation_to_max_order():
    for order in range(M.MAX_ORDER + 1):
        dense = M.rotation_matrix(order, -math.pi / 4)
        for l in range(-order, order + 1, 2):
            phases = M._I_POWERS[(np.arange(order + 1) - abs(l)) % 4]
            want = dense[:, (order + l) // 2] * phases
            got = M.lg_to_hg(M.LGIndex((order - abs(l)) // 2, l), GEOM).blocks[order]
            assert np.max(np.abs(got - want)) <= 1e-15


def lg_polar_field(p, l, x, y):
    """LG_p^l at the waist (w0 = 1) from its polar closed form, with the
    generalized Laguerre polynomial L_p^|l|(t) summed term by term."""
    a = abs(l)
    t = 2.0 * (x**2 + y**2)
    laguerre = sum(
        (-1) ** k * math.comb(p + a, p - k) * t**k / math.factorial(k)
        for k in range(p + 1)
    )
    norm = math.sqrt(2.0 * math.factorial(p) / (math.pi * math.factorial(p + a)))
    radial = norm * t ** (a / 2) * laguerre * np.exp(-t / 2)
    return radial * np.exp(1j * l * np.arctan2(y, x))


def test_lg_to_hg_matches_polar_field():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.5, 2.5, size=30)
    y = rng.uniform(-2.5, 2.5, size=20)
    for p, l in ((0, 1), (0, -2), (1, 0), (1, 1), (1, -1), (2, 3), (3, 1), (2, -4)):
        e = M.lg_to_hg(M.LGIndex(p, l), GEOM)
        assert e.norm_sq() == pytest.approx(1.0, abs=1e-14)
        got = M.evaluate_expansion(e, x, y)
        assert np.max(np.abs(got - lg_polar_field(p, l, x[None, :], y[:, None]))) < 1e-12
    # p = 0 against the binomial synthesis, phases included, to high order
    for l in (5, -12, 40, -40):
        e = M.lg_to_hg(M.LGIndex(0, l), GEOM)
        assert coeff_distance(e, lg_zero_radial_exact(l)) < 1e-13


# ---------------------------------------------------------------------------
# sample_mode / sample_lg
# ---------------------------------------------------------------------------

def test_sample_zero_expansion():
    field = M.sample_mode(M.ModeExpansion({}, GEOM), GRID)
    assert np.all(field.values == 0)


def test_sample_hg00_discrete_norm():
    field = M.sample_mode(single(0, 0), GRID)
    assert field.norm_sq() == pytest.approx(1.0, abs=1e-6)


def test_sample_hg01_odd_mirror():
    field = M.sample_mode(single(0, 1), GRID)
    flipped = field.values[::-1, :]
    assert np.allclose(field.values, -flipped, atol=1e-12)


def test_sample_lg_fundamental_matches_hg00():
    lg = M.sample_lg(M.LGIndex(0, 0), GEOM, GRID)
    hg = M.sample_mode(single(0, 0), GRID)
    overlap = abs(lg.inner(hg)) / math.sqrt(lg.norm_sq() * hg.norm_sq())
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_sample_lg_first_order_decomposition():
    field = M.sample_lg(M.LGIndex(0, 1), GEOM, GRID)
    e, residual = M.decompose_grid(field, GEOM, 1)
    inv = 1.0 / math.sqrt(2.0)
    assert e.coeff((1, 0)) == pytest.approx(inv, abs=1e-6)
    assert e.coeff((0, 1)) == pytest.approx(1j * inv, abs=1e-6)
    assert residual < 1e-9


def test_sample_lg_l2_even_parity_only():
    field = M.sample_lg(M.LGIndex(0, 2), GEOM, GRID)
    e, _ = M.decompose_grid(field, GEOM, 4)
    odd_power = sum(
        abs(c) ** 2 for i, c in e.terms.items() if (i.n + i.m) % 2 == 1
    )
    assert odd_power < 1e-16


def test_sample_lg_matches_binomial_synthesis():
    for l in (2, -2, 3, 4):
        field = M.sample_lg(M.LGIndex(0, l), GEOM, GRID)
        e, _ = M.decompose_grid(field, GEOM, abs(l))
        exact = lg_zero_radial_exact(l)
        assert abs(exact.inner(e)) == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# decompose_grid
# ---------------------------------------------------------------------------

def test_decompose_round_trip():
    field = M.sample_mode(single(2, 0), GRID)
    e, residual = M.decompose_grid(field, GEOM, 4)
    assert e.coeff((2, 0)) == pytest.approx(1.0, abs=1e-6)
    for idx, c in e.terms.items():
        if idx != (2, 0):
            assert abs(c) < 1e-6
    assert abs(residual) < 1e-9


def test_decompose_zero_field():
    field = M.GridField(GRID, np.zeros((GRID.samples_per_side,) * 2))
    e, residual = M.decompose_grid(field, GEOM, 3)
    assert e.pruned().terms == {}
    assert residual == 0.0


def test_decompose_85_15_split():
    first = math.sqrt(0.15 / 2.0)
    e_in = M.ModeExpansion(
        {
            M.HGIndex(0, 0): math.sqrt(0.85),
            M.HGIndex(1, 0): first,
            M.HGIndex(0, 1): -first,
        },
        GEOM,
    )
    field = M.sample_mode(e_in, GRID)
    e, _ = M.decompose_grid(field, GEOM, 2)
    assert abs(e.coeff((0, 0))) ** 2 == pytest.approx(0.85, abs=1e-4)


def test_decompose_under_resolved():
    coarse = M.GridSpec(8.0, 16)
    field = M.sample_mode(single(0, 0), coarse)
    with pytest.raises(ValueError, match="under-resolved"):
        M.decompose_grid(field, GEOM, 8)


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "idx,want",
    [((1, 1), "even"), ((3, 2), "odd"), ((0, 0), "even"), ((1, 5), "even")],
)
def test_parity_2d(idx, want):
    assert M.parity_2d(M.HGIndex(*idx)) == want


@pytest.mark.parametrize(
    "idx,message",
    [((1.5, 0), "HG indices must be integers, got (1.5, 0)"), ((-1, 0), "HG indices must be nonnegative")],
)
def test_parity_2d_refuses_a_bad_index(idx, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        M.parity_2d(idx)


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

def test_rotate_hg10_half_turn():
    out = M.rotate_exact(single(1, 0), math.pi)
    assert out.coeff((1, 0)) == pytest.approx(-1.0, abs=1e-15)
    assert abs(out.coeff((0, 1))) < 1e-15


def test_rotate_hg10_quarter_turn():
    out = M.rotate_exact(single(1, 0), math.pi / 2)
    assert abs(single(0, 1).inner(out)) == pytest.approx(1.0, abs=1e-12)


def test_rotate_hg11_quarter_turn_self_similar():
    e = single(1, 1)
    out = M.rotate_exact(e, math.pi / 2)
    assert abs(e.inner(out)) == pytest.approx(1.0, abs=1e-12)


def test_rotate_exact_is_exact_only_at_whole_and_half_turns():
    rng = np.random.default_rng(17)
    terms = {(n, o - n): complex(*rng.normal(size=2)) for o in (5, 6, 170) for n in range(o + 1)}
    e = M.ModeExpansion(terms, GEOM)
    for angle in (0.0, 2 * math.pi):
        out = M.rotate_exact(e, angle)
        assert out.blocks.keys() == e.blocks.keys()
        assert all(np.array_equal(out.blocks[o], e.blocks[o]) for o in e.blocks)
    for angle in (math.pi, 3 * math.pi, -math.pi):
        out = M.rotate_exact(e, angle)
        assert all(np.array_equal(out.blocks[o], (-1) ** o * e.blocks[o]) for o in e.blocks)
    # Near a half or whole turn the rotation is the true one, not a snapped parity flip.
    for angle in (math.pi + 9e-13, math.pi - 9e-13, 9e-13):
        out = M.rotate_exact(e, angle)
        want = M.rotation_matrix(170, angle) @ e.blocks[170]
        assert np.max(np.abs(out.blocks[170] - want)) <= 1e-12
    for angle in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            M.rotate_exact(e, angle)


def test_rotation_matrix_unitary():
    for order in range(M.MAX_ORDER + 1):
        for angle in (0.3, 1.1, math.pi / 2, -2.0):
            d = M.rotation_matrix(order, angle)
            assert np.max(np.abs(d.T @ d - np.eye(order + 1))) <= 1e-12
    with pytest.raises(ValueError, match="order too large"):
        M.rotation_matrix(M.MAX_ORDER + 1, 0.3)


def test_rotation_matrix_first_order_form():
    ang = 0.73
    d = M.rotation_matrix(1, ang)
    # basis ordering n=0 (HG01), n=1 (HG10)
    assert d[1, 1] == pytest.approx(math.cos(ang))
    assert d[0, 1] == pytest.approx(math.sin(ang))
    assert d[1, 0] == pytest.approx(-math.sin(ang))


def test_lg_eigenvectors_of_rotation():
    ang = 1.234
    for p, l in ((0, 1), (0, -1), (2, 3), (20, -7), (85, 0), (0, 170)):
        e = M.lg_to_hg(M.LGIndex(p, l), GEOM)
        out = M.rotate_exact(e, ang)
        expected = cmath.exp(-1j * l * ang)
        for idx in e.terms:
            assert out.coeff(idx) == pytest.approx(e.coeff(idx) * expected, abs=1e-14)


def test_rotation_unitarity_grid_path():
    rng = np.random.default_rng(11)
    for order in (2, 4, 6):
        vec = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        vec /= np.linalg.norm(vec)
        e = M.ModeExpansion(
            {M.HGIndex(n, order - n): vec[n] for n in range(order + 1)}, GEOM
        )
        for ang in (0.5, 2.0):
            out, _ = M.rotate_grid(e, ang)
            assert math.sqrt(out.norm_sq()) == pytest.approx(
                math.sqrt(e.norm_sq()), abs=1e-6
            )


def test_order_power_conserved_under_grid_rotation():
    rng = np.random.default_rng(23)
    for order in range(7):
        vec = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        vec /= np.linalg.norm(vec)
        e = M.ModeExpansion(
            {M.HGIndex(n, order - n): vec[n] for n in range(order + 1)}, GEOM
        )
        out, captured = M.rotate_grid(e, 0.9)
        assert captured > 0.98
        by_order = {}
        for idx, c in out.terms.items():
            by_order[idx.order] = by_order.get(idx.order, 0.0) + abs(c) ** 2
        assert by_order.get(order, 0.0) == pytest.approx(1.0, abs=1e-5)
        for other, power in by_order.items():
            if other != order:
                assert power < 1e-5


def test_parity_consistency_closed_vs_grid():
    e = M.ModeExpansion(
        {M.HGIndex(3, 2): 0.6, M.HGIndex(2, 0): 0.8j}, GEOM
    )
    closed = M.rotate_exact(e, math.pi)
    for idx, c in e.terms.items():
        want = c * (1.0 if idx.order % 2 == 0 else -1.0)
        assert closed.coeff(idx) == want
    gridded, _ = M.rotate_grid(e, math.pi)
    assert coeff_distance(closed, gridded) < 1e-5


def test_rotation_composition_first_order_exact():
    e = M.ModeExpansion({M.HGIndex(1, 0): 0.6, M.HGIndex(0, 1): 0.8j}, GEOM)
    lhs = M.rotate_exact(M.rotate_exact(e, 0.4), 0.9)
    rhs = M.rotate_exact(e, 1.3)
    assert coeff_distance(lhs, rhs) < 1e-14


def test_rotation_composition_exact_path():
    rng = np.random.default_rng(5)
    vec = rng.normal(size=7) + 1j * rng.normal(size=7)
    e = M.ModeExpansion({M.HGIndex(n, 6 - n): vec[n] for n in range(7)}, GEOM)
    lhs = M.rotate_exact(M.rotate_exact(e, 0.7), 1.1)
    rhs = M.rotate_exact(e, 1.8)
    assert coeff_distance(lhs, rhs) < 1e-13


# 1-6 random terms of any order up to MAX_ORDER, as a unit-norm expansion.
_unit_states = st.dictionaries(
    st.integers(0, M.MAX_ORDER).flatmap(
        lambda order: st.integers(0, order).map(lambda n: (n, order - n))
    ),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False),
    min_size=1,
    max_size=6,
).map(lambda terms: M.ModeExpansion(terms, GEOM).normalized())
_angles = st.floats(-2 * math.pi, 2 * math.pi)
PROPERTY = settings(max_examples=40, deadline=None)


@PROPERTY
@given(_unit_states)
def test_oam_round_trip_returns_the_blocks(e):
    back = M._from_oam(e._layout, M._to_oam(e._layout, e._vector))
    assert np.max(np.abs(back - e._vector)) <= 1e-12


@PROPERTY
@given(_unit_states, st.lists(_angles, min_size=1, max_size=5))
def test_oam_round_trip_of_stacked_states(e, phases):
    # The same state once per row, each time with another global phase.
    c = e._vector
    w = M._to_oam(e._layout, c)
    factors = np.exp(1j * np.array(phases))
    stacked = M._from_oam(e._layout, np.outer(factors, w))
    assert stacked.shape == (len(phases), len(c))
    assert np.max(np.abs(stacked - np.outer(factors, c))) <= 1e-12
    for k, factor in enumerate(factors):
        assert np.max(np.abs(stacked[k] - M._from_oam(e._layout, factor * w))) <= 1e-12


# Sparse sets of orders that span several chunks of the stacked route and
# always hold its two ends, in any key order.
_order_sets = st.sets(st.integers(1, M.MAX_ORDER - 1), max_size=8).flatmap(
    lambda orders: st.permutations([0, *orders, M.MAX_ORDER])
)


# The same with a subset of the orders (never all of them) left all-zero.
_orders_some_zero = _order_sets.flatmap(
    lambda orders: st.tuples(st.just(orders), st.sets(st.sampled_from(orders), max_size=len(orders) - 1))
)


def flat_and_reference(orders, zeroed, rng):
    """An expansion over ``orders`` whose ``zeroed`` orders it holds as
    all-zero (by pruning), built from terms in a shuffled key order, and the
    dict of per-order blocks it must read as."""
    blocks = {
        o: (1e-9 if o in zeroed else 1.0) * (1 + rng.random(o + 1)) * np.exp(2j * np.pi * rng.random(o + 1))
        for o in orders
    }
    terms = [((n, o - n), complex(a)) for o, block in blocks.items() for n, a in enumerate(block)]
    e = M.ModeExpansion(dict(terms[k] for k in rng.permutation(len(terms))), GEOM).pruned(1e-6)
    assert e._layout.orders == tuple(sorted(orders))
    return e, {o: block for o, block in blocks.items() if o not in zeroed}


def assert_reads_as(e, blocks):
    """Every reader of ``e`` against per-order ``blocks``, all-zero ones dropped."""
    blocks = {o: block for o, block in sorted(blocks.items()) if np.any(block)}
    assert list(e.blocks) == list(blocks)
    assert all(np.array_equal(e.blocks[o], block) for o, block in blocks.items())
    assert dict(e.terms) == {
        M.HGIndex(n, o - n): a for o, block in blocks.items() for n, a in enumerate(block.tolist()) if a != 0
    }
    assert e.max_order() == max(blocks, default=0)
    assert e.norm_sq() == sum(np.vdot(block, block).real for block in blocks.values())


@PROPERTY
@given(_orders_some_zero, _orders_some_zero, st.integers(0, 2**32 - 1))
def test_flat_state_reads_as_its_blocks(first, second, seed):
    rng = np.random.default_rng(seed)
    e, want = flat_and_reference(*first, rng)
    f, other = flat_and_reference(*second, rng)
    assert_reads_as(e, want)
    for o in (*first[0], M.MAX_ORDER + 1):
        for n in range(o + 1):
            assert e.coeff((n, o - n)) == (want[o][n] if o in want else 0)
    assert e.coeff((-1, 2)) == 0
    some = next(iter(want))
    with pytest.raises(ValueError):
        e.blocks[some][0] = 1.0
    with pytest.raises(TypeError):
        e.blocks[some] = want[some]
    shared = [o for o in sorted(want) if o in other]
    assert abs(e.inner(f) - sum((np.vdot(want[o], other[o]) for o in shared), 0j)) <= 1e-13 * math.sqrt(
        e.norm_sq() * f.norm_sq()
    )
    assert_reads_as(e + f, {o: want.get(o, 0) + other.get(o, 0) for o in {*want, *other}})
    assert_reads_as(e - f, {o: want.get(o, 0) + other.get(o, 0) * -1.0 for o in {*want, *other}})
    factor = complex(*rng.normal(size=2))
    assert_reads_as(e.scaled(factor), {o: block * factor for o, block in want.items()})
    assert_reads_as(e.pruned(1.5), {o: np.where(np.abs(block) > 1.5, block, 0j) for o, block in want.items()})
    scale = 1.0 / math.sqrt(e.norm_sq())
    assert_reads_as(e.normalized(), {o: block * scale for o, block in want.items()})


@PROPERTY
@given(_orders_some_zero, st.integers(0, 2**32 - 1))
def test_norm_sums_the_order_slices_bit_for_bit_as_the_blocks(orders_zeroed, seed):
    # The norm sums one vdot per order slice of the vector, all-zero orders
    # included; each adds +0.0, so it is the per-block sum to the bit.
    orders, zeroed = orders_zeroed
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-150, 150, size=len(orders))
    blocks = {
        o: np.zeros(o + 1, complex) if o in zeroed else s * (rng.normal(size=o + 1) + 1j * rng.normal(size=o + 1))
        for o, s in zip(orders, scales)
    }
    e = M.ModeExpansion({}, GEOM)._with_blocks(blocks)
    assert e._layout.orders == tuple(sorted(orders))
    assert list(e.blocks) == sorted(set(orders) - zeroed)
    want = float(sum(np.vdot(block, block).real for block in e.blocks.values()))
    assert e.norm_sq() == want and math.copysign(1.0, e.norm_sq()) == math.copysign(1.0, want)


def lg_basis_reference(order):
    """V = diag(i^n) R, with R the eigenvectors of the real tridiagonal
    rotation generator (off-diagonals sqrt((n+1)(order-n))), diagonalised here."""
    n = np.arange(order)
    off = np.sqrt((n + 1.0) * (order - n))
    real = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]
    return np.array([1, 1j, -1, -1j])[np.arange(order + 1) % 4, None] * real


@PROPERTY
@given(_order_sets, st.integers(0, 2**32 - 1))
def test_chunked_oam_route_matches_the_per_order_bases(orders, seed):
    rng = np.random.default_rng(seed)
    blocks = {o: rng.normal(size=o + 1) + 1j * rng.normal(size=o + 1) for o in orders}
    scale = 1.0 / math.sqrt(sum(np.vdot(b, b).real for b in blocks.values()))
    blocks = {o: b * scale for o, b in blocks.items()}
    # The state holds its orders sorted, whatever the key order it was given.
    e = M.ModeExpansion({}, GEOM)._with_blocks(blocks)
    w = M._to_oam(e._layout, e._vector)
    want = np.concatenate([lg_basis_reference(o).conj().T @ blocks[o] for o in sorted(orders)])
    assert np.max(np.abs(w - want)) <= 1e-14
    assert np.array_equal(e._layout.l, np.concatenate([np.arange(o, -o - 1, -2) for o in sorted(orders)]))
    back = M._from_oam(e._layout, w)
    assert np.max(np.abs(back - np.concatenate([blocks[o] for o in sorted(orders)]))) <= 1e-13


@PROPERTY
@given(_unit_states, _angles, _angles)
def test_rotation_composition_up_to_max_order(e, a, b):
    lhs = M.rotate_exact(M.rotate_exact(e, a), b)
    rhs = M.rotate_exact(e, a + b)
    assert coeff_distance(lhs, rhs) <= 1e-12


def test_rotation_propagates_under_resolved_grid():
    e = M.ModeExpansion({M.HGIndex(5, 5): 1.0}, GEOM)
    with pytest.raises(ValueError, match="under-resolved"):
        M.rotate_grid(e, 0.4, spec=M.GridSpec(8.0, 16))


def test_rotation_composition_grid_path():
    # Bilinear resampling limits coefficient accuracy at order >= 2; the
    # measured composition defect on the default grid is a few 1e-4.
    e = M.ModeExpansion({M.HGIndex(2, 0): 1.0}, GEOM)
    lhs = M.rotate_grid(M.rotate_grid(e, 0.4)[0], 0.9)[0]
    rhs = M.rotate_grid(e, 1.3)[0]
    assert coeff_distance(lhs, rhs) < 5e-3


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_orthonormality_order_6():
    idxs = [M.HGIndex(n, m) for n in range(7) for m in range(7 - n)]
    fields = {i: M.sample_mode(M.ModeExpansion({i: 1.0}, GEOM), GRID) for i in idxs}
    for a in idxs:
        for b in idxs:
            want = 1.0 if a == b else 0.0
            assert abs(fields[a].inner(fields[b]) - want) < 1e-6


def test_sampling_deterministic():
    e = M.ModeExpansion({M.HGIndex(2, 1): 0.5, M.HGIndex(0, 0): 0.5}, GEOM)
    a = M.sample_mode(e, GRID)
    b = M.sample_mode(e, GRID)
    assert np.array_equal(a.values, b.values)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        M.GridSpec(8.0, 15)
    with pytest.raises(ValueError):
        M.GridSpec(8.0, 17)
    with pytest.raises(ValueError):
        M.GridSpec(-1.0, 64)


def test_grid_spec_rejects_non_finite_spacing():
    with pytest.raises(ValueError, match="sample spacing is not finite"):
        M.GridSpec(1e308, 256)
    with pytest.raises(ValueError, match="half_width must be positive"):
        M.GridSpec(math.nan, 256)


def test_geometry_requires_finite_positive_values():
    for w0 in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="w0 must be positive and finite"):
            M.BeamGeometry(w0)


def test_norm_reported_not_renormalized():
    e = M.ModeExpansion({M.HGIndex(0, 0): 2.0}, GEOM)
    assert e.norm_sq() == pytest.approx(4.0)
    assert e.normalized().norm_sq() == pytest.approx(1.0)


def test_expansion_terms_are_read_only_and_drop_zeros():
    e = M.ModeExpansion({(1, 0): 0.5, (0, 1): 0.0, (2, 0): 0j}, GEOM)
    assert dict(e.terms) == {M.HGIndex(1, 0): 0.5}
    assert list(e.blocks) == [1]
    with pytest.raises(TypeError):
        e.terms[M.HGIndex(0, 0)] = 1.0
    with pytest.raises(ValueError):
        e.blocks[1][0] = 1.0
    assert e.coeff((0, 1)) == 0
    assert e.coeff((-1, 2)) == 0
    assert e.coeff((5, 5)) == 0
    cancelled = e - e
    assert cancelled.blocks == {} and dict(cancelled.terms) == {}
    assert M.rotate_exact(e, 0.4).pruned(0.1).blocks.keys() == {1}


@pytest.mark.parametrize("idx", [(1.0, 0), (0.0, 0), (0, np.float64(2.0))])
def test_expansion_coeff_refuses_a_non_integer_index(idx):
    e = M.ModeExpansion({(1, 0): 1.0}, GEOM)
    with pytest.raises(ValueError, match=re.escape(f"HG indices must be integers, got {idx}")):
        e.coeff(idx)


def test_expansion_rejects_bad_index_before_allocating():
    with pytest.raises(ValueError, match="nonnegative"):
        M.ModeExpansion({(-1, 0): 1.0}, GEOM)
    with pytest.raises(ValueError, match="nonnegative"):
        M.ModeExpansion({(0, 0): 1.0, (2, -1): 1.0}, GEOM)
    with pytest.raises(ValueError, match="order too large"):
        M.ModeExpansion({(M.MAX_ORDER + 1, 0): 1.0}, GEOM)
    # A block of this order would need 8 TB; the index check must come first.
    with pytest.raises(ValueError, match="order too large"):
        M.ModeExpansion({(0, 10**12): 1.0}, GEOM)


def test_expansion_rejects_non_integer_index():
    for idx in ((1.5, 0.9), (1.0, 0), (0, np.float64(2.0))):
        with pytest.raises(ValueError, match="HG indices must be integers"):
            M.ModeExpansion({idx: 1.0}, GEOM)
    e = M.ModeExpansion({(np.int64(1), np.int32(2)): 1.0, (True, 0): 0.5}, GEOM)
    assert dict(e.terms) == {M.HGIndex(1, 2): 1.0, M.HGIndex(1, 0): 0.5}


def test_expansion_rejects_overflowing_norm():
    for terms in ({(0, 0): complex(1e308, 1e308)}, {(0, 0): 1e200, (3, 1): 1e200}):
        with pytest.raises(ValueError, match="state norm is not finite"):
            M.ModeExpansion(terms, GEOM)
    assert M.ModeExpansion({(0, 0): 2.0**500}, GEOM).norm_sq() == 2.0**1000


def reference_evaluate(expansion, x, y):
    """Per-term field sum, the loop the block contraction replaced."""
    out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    for idx, amp in expansion.terms.items():
        out = out + amp * hg_field_at(idx, x, y, expansion.geometry)
    return out


def test_evaluate_expansion_matches_per_term_sum():
    rng = np.random.default_rng(23)
    geom = M.BeamGeometry(0.7)
    # Sparse and irregular support: the occupied n and m ranges differ.
    terms = {(0, 3): 0.4 - 0.2j, (5, 1): -0.3j, (2, 2): 0.25, (7, 0): 0.1 + 0.1j}
    e = M.ModeExpansion(terms, geom)
    # Unequal, unsorted axes: pixel [i, j] sits at (x[j], y[i]).
    x = rng.uniform(-3.0, 3.0, size=40)
    y = rng.uniform(-3.0, 3.0, size=7)
    got = M.evaluate_expansion(e, x, y)
    assert got.shape == (7, 40)
    assert np.max(np.abs(got - reference_evaluate(e, x[None, :], y[:, None]))) < 1e-13
    point = M.evaluate_expansion(e, [0.3], [-0.2])
    assert point.shape == (1, 1)
    assert point[0, 0] == pytest.approx(complex(reference_evaluate(e, 0.3, -0.2)), abs=1e-14)
    empty = M.evaluate_expansion(M.ModeExpansion({}, geom), x, y)
    assert empty.shape == (7, 40) and np.all(empty == 0)
    with pytest.raises(ValueError, match="1-D x and y axes"):
        M.evaluate_expansion(e, x[None, :], y[:, None])
