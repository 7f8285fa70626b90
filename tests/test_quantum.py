import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnacsim import modes as M
from sagnacsim import quantum as Q
from sagnacsim.interferometer import PARITY_STAGE, SagnacStage

GEOM = Q.DEFAULT_GEOMETRY


# ---------------------------------------------------------------------------
# per-term reference: every term pushed through the single-photon maps one
# by one and accumulated in dicts, independent of the block layout
# ---------------------------------------------------------------------------

def _ref_port_maps(stage, max_order):
    phase = cmath.exp(1j * stage.phi)
    maps = {}
    for order in range(max_order + 1):
        back = M.rotation_matrix(order, -2.0 * stage.omega).astype(complex)
        eye = np.eye(order + 1, dtype=complex)
        maps[order] = {"A": 0.5 * (eye + phase * back), "B": 0.5 * (eye - phase * back)}
    return maps


def _ref_apply(mat, idx):
    col = mat[:, idx.n]
    return {M.HGIndex(n, idx.order - n): complex(col[n]) for n in range(idx.order + 1) if col[n] != 0}


def reference_sort(terms, stage):
    """Unnormalized branch amplitudes {"AA": {(a, b): amp}, ...}."""
    terms = {(M.HGIndex(*a), M.HGIndex(*b)): complex(c) for (a, b), c in terms.items()}
    maps = _ref_port_maps(stage, max(max(a.order, b.order) for a, b in terms))
    branches = {}
    for p1 in "AB":
        for p2 in "AB":
            acc = {}
            for (ia, ib), amp in terms.items():
                for ja, ca in _ref_apply(maps[ia.order][p1], ia).items():
                    for jb, cb in _ref_apply(maps[ib.order][p2], ib).items():
                        acc[ja, jb] = acc.get((ja, jb), 0j) + amp * ca * cb
            branches[p1 + p2] = acc
    return branches


def _ref_compress_index(idx, mat):
    if idx.order == 0:
        return {idx: 1.0 + 0j}
    src = 0 if idx.n == 1 else 1  # matrix basis is (c_10, c_01)
    return {M.HGIndex(1, 0): complex(mat[0, src]), M.HGIndex(0, 1): complex(mat[1, src])}


def reference_compress(terms, spec):
    mat = spec.matrix()
    acc = {}
    for (ia, ib), amp in terms.items():
        for ja, ca in _ref_compress_index(ia, mat).items():
            for jb, cb in _ref_compress_index(ib, mat).items():
                acc[ja, jb] = acc.get((ja, jb), 0j) + amp * ca * cb
    return acc


def _max_diff(got, want):
    keys = set(got) | set(want)
    return max((abs(got.get(k, 0j) - want.get(k, 0j)) for k in keys), default=0.0)


def assert_sort_matches_reference(b, stage, trigger_modes=()):
    """Block sort and herald against the per-term reference to 1e-12."""
    result = Q.sort_biphoton(b, stage)
    ref = reference_sort(b.terms, stage)
    total = sum(abs(c) ** 2 for c in b.terms.values())
    for name, acc in ref.items():
        power = sum(abs(c) ** 2 for c in acc.values())
        assert result.probability(name) == pytest.approx(power / total, abs=1e-12)
        if power / total > 1e-20:
            want = {k: c / math.sqrt(power) for k, c in acc.items()}
            assert _max_diff(result.state(name).terms, want) < 1e-12
    for port, other in (("A", "B"), ("B", "A")):
        acc = ref[port + other]
        for trig in trigger_modes:
            partner = {ib: c for (ia, ib), c in acc.items() if ia == trig}
            power = sum(abs(c) ** 2 for c in partner.values())
            if power / total < 1e-20:
                continue
            h = Q.herald(result, port, trig)
            assert h.probability == pytest.approx(power / total, abs=1e-12)
            want = {k: c / math.sqrt(power) for k, c in partner.items()}
            assert _max_diff(h.spatial.terms, want) < 1e-12


def hg45():
    inv = 1.0 / math.sqrt(2.0)
    return M.ModeExpansion({M.HGIndex(1, 0): inv, M.HGIndex(0, 1): inv}, GEOM)


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def test_spdc_hg00_coefficients():
    b = Q.spdc_hg00()
    assert b.coeff((1, 0), (1, 0)) == pytest.approx(0.04)
    assert b.coeff((0, 0), (0, 0)) == pytest.approx(0.08)
    assert b.coeff((0, 0), (2, 0)) == pytest.approx(-0.03)
    assert b.coeff((1, 0), (0, 1)) == 0


def test_spdc_hg00_exchange_symmetric():
    b = Q.spdc_hg00()
    assert b.is_exchange_symmetric()


def test_spdc_hg45_equal_terms():
    b = Q.spdc_hg45()
    assert b.coeff((1, 0), (0, 0)) == b.coeff((0, 0), (0, 1))
    assert b.coeff((1, 0), (0, 1)) == 0
    assert b.norm_sq() == pytest.approx(4 * 0.04**2)


def test_spdc_polarization_is_bell():
    b = Q.spdc_hg00()
    inv = 1.0 / math.sqrt(2.0)
    assert b.polarization["HV"] == pytest.approx(inv)
    assert b.polarization["VH"] == pytest.approx(inv)
    assert "HH" not in b.polarization


# ---------------------------------------------------------------------------
# biphoton table io
# ---------------------------------------------------------------------------

def test_table_round_trip():
    b = Q.spdc_hg00()
    text = Q.dump_biphoton_table(b)
    b2 = Q.load_biphoton_table(text)
    assert b2.terms == b.terms


def test_table_empty_warns():
    with pytest.warns(UserWarning, match="empty"):
        b = Q.load_biphoton_table("")
    assert b.terms == {}


def test_table_malformed_line_numbered():
    text = "biphoton v1\n0 0 0 0 0.08 0\nnot a line\n"
    with pytest.raises(ValueError, match="line 3"):
        Q.load_biphoton_table(text)


def test_table_requires_header():
    with pytest.raises(ValueError, match="line 1"):
        Q.load_biphoton_table("0 0 0 0 0.08 0\n")


def test_table_rejects_negative_index():
    with pytest.raises(ValueError, match="line 2"):
        Q.load_biphoton_table("biphoton v1\n0 0 0 -1 0.08 0\n")


def test_table_rejects_order_above_max():
    with pytest.raises(ValueError, match="line 3: order too large"):
        Q.load_biphoton_table("biphoton v1\n0 0 0 0 1 0\n200 0 0 0 1 0\n")
    with pytest.raises(ValueError, match="line 2: order too large"):
        Q.load_biphoton_table("biphoton v1\n0 0 100 71 1 0\n")
    b = Q.load_biphoton_table("biphoton v1\n0 0 100 70 1 0\n")
    assert b.coeff((0, 0), (100, 70)) == 1


def test_biphoton_rejects_bad_index_before_allocating():
    with pytest.raises(ValueError, match="nonnegative"):
        Q.BiphotonExpansion({((-1, 0), (0, 0)): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        Q.BiphotonExpansion({((0, 0), (2, -1)): 1})
    with pytest.raises(ValueError, match="order too large"):
        Q.BiphotonExpansion({((0, 0), (10**12, 0)): 1})


def test_biphoton_rejects_non_integer_index_and_overflow():
    with pytest.raises(ValueError, match="HG indices must be integers"):
        Q.BiphotonExpansion({((1.5, 0), (0, 0)): 1})
    with pytest.raises(ValueError, match="state norm is not finite"):
        Q.BiphotonExpansion({((0, 0), (0, 0)): complex(1e308, 1e308)})
    with pytest.raises(ValueError, match="line 2: 'inf' is not finite"):
        Q.load_biphoton_table("biphoton v1\n0 0 0 0 inf 0\n")


def test_biphoton_terms_are_read_only_and_drop_zeros():
    b = Q.BiphotonExpansion({((1, 0), (0, 0)): 0.5, ((0, 1), (0, 0)): 0.0})
    assert dict(b.terms) == {(M.HGIndex(1, 0), M.HGIndex(0, 0)): 0.5}
    with pytest.raises(TypeError):
        b.terms[(M.HGIndex(0, 0), M.HGIndex(0, 0))] = 1.0
    assert b.coeff((0, 1), (0, 0)) == 0
    assert b.coeff((-1, 2), (0, 0)) == 0
    assert list(b.blocks) == [(1, 0)]


# ---------------------------------------------------------------------------
# fiber
# ---------------------------------------------------------------------------

def test_guided_modes_three_mode_regime():
    fiber = Q.FiberSpec.from_v(core_radius=2e-6, normalized_frequency=5.0)
    modes = Q.guided_modes(fiber)
    assert modes == [M.LGIndex(0, 0), M.LGIndex(0, 1), M.LGIndex(0, -1)]


def test_matched_waist():
    fiber = Q.FiberSpec.from_v(core_radius=2e-6, normalized_frequency=5.0)
    assert fiber.matched_waist == pytest.approx(2e-6 * math.sqrt(2.0 / 5.0))


def test_guided_modes_rejects_other_regimes():
    for v in (3.0, 6.5, 12.0):
        fiber = Q.FiberSpec.from_v(core_radius=2e-6, normalized_frequency=v)
        with pytest.raises(ValueError, match="three-mode"):
            Q.guided_modes(fiber)


def test_fiber_spec_validation():
    with pytest.raises(ValueError, match="weak guidance"):
        Q.FiberSpec.from_v(2e-6, 5.0, index_contrast=0.2)
    with pytest.raises(ValueError, match="inconsistent"):
        Q.FiberSpec(2e-6, 5.0, 0.01, 1.45, 1e15)


def test_fiber_filter_single_projects():
    e = M.ModeExpansion(
        {
            M.HGIndex(0, 0): 0.5,
            M.HGIndex(1, 0): 0.5,
            M.HGIndex(2, 2): 0.5,
            M.HGIndex(0, 3): 0.5,
        },
        GEOM,
    )
    out, frac = Q.fiber_filter_single(e)
    assert set(out.terms) == {M.HGIndex(0, 0), M.HGIndex(1, 0)}
    assert out.coeff((0, 0)) == 0.5
    assert frac == pytest.approx(0.5)


def test_fiber_filter_single_zero_projection_flagged():
    e = M.ModeExpansion({M.HGIndex(2, 0): 1.0}, GEOM)
    with pytest.warns(UserWarning, match="removed all power"):
        out, frac = Q.fiber_filter_single(e)
    assert frac == 0.0
    assert out.terms == {}


def test_fiber_filter_then_sort_demo():
    first = math.sqrt(0.15 / 2.0)
    e = M.ModeExpansion(
        {
            M.HGIndex(0, 0): math.sqrt(0.85),
            M.HGIndex(1, 0): first,
            M.HGIndex(0, 1): -first,
            M.HGIndex(3, 1): 0.0,
        },
        GEOM,
    )
    filtered, frac = Q.fiber_filter_single(e)
    assert frac == pytest.approx(1.0)
    from sagnacsim.interferometer import port_powers, sagnac_transfer

    pair = sagnac_transfer(filtered, PARITY_STAGE)
    pa, pb = port_powers(pair)
    assert pa == pytest.approx(0.85, abs=1e-12)
    assert pb == pytest.approx(0.15, abs=1e-12)
    assert set(pair.port_a.pruned(1e-12).terms) == {M.HGIndex(0, 0)}
    assert all(i.order == 1 for i in pair.port_b.pruned(1e-12).terms)


def test_fiber_filter_biphoton_removes_order_two():
    b = Q.spdc_hg00()
    out, prob = Q.fiber_filter_biphoton(b)
    assert set(out.terms) == {
        (M.HGIndex(0, 0), M.HGIndex(0, 0)),
        (M.HGIndex(1, 0), M.HGIndex(1, 0)),
        (M.HGIndex(0, 1), M.HGIndex(0, 1)),
    }
    c0, c1, c2 = 0.08, 0.04, -0.03
    brute = (c0**2 + 2 * c1**2) / (c0**2 + 2 * c1**2 + 4 * c2**2)
    assert prob == pytest.approx(brute, abs=1e-15)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_fiber_filter_biphoton_keeps_first_order_pump():
    b = Q.spdc_hg45()
    out, prob = Q.fiber_filter_biphoton(b)
    assert prob == pytest.approx(1.0)
    assert len(out.terms) == 4


def test_fiber_filter_biphoton_full_rejection():
    b = Q.BiphotonExpansion({((2, 0), (0, 0)): 1.0})
    with pytest.raises(ValueError, match="fully rejected"):
        Q.fiber_filter_biphoton(b)


# ---------------------------------------------------------------------------
# sorting
# ---------------------------------------------------------------------------

def test_sort_bell_branch():
    filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg00())
    result = Q.sort_biphoton(filtered, PARITY_STAGE)
    c0, c1 = 0.08, 0.04
    assert result.probability("BB") == pytest.approx(
        2 * c1**2 / (c0**2 + 2 * c1**2), abs=1e-12
    )
    bb = result.state("BB")
    inv = 1.0 / math.sqrt(2.0)
    assert bb.coeff((1, 0), (1, 0)) == pytest.approx(inv, abs=1e-12)
    assert bb.coeff((0, 1), (0, 1)) == pytest.approx(inv, abs=1e-12)
    assert abs(bb.coeff((1, 0), (0, 1))) < 1e-12


def test_sort_hg45_branches():
    filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg45())
    result = Q.sort_biphoton(filtered, PARITY_STAGE)
    assert result.probability("AB") == pytest.approx(0.5, abs=1e-12)
    assert result.probability("BA") == pytest.approx(0.5, abs=1e-12)
    ab = result.state("AB")
    # photon 1 fundamental, photon 2 in the diagonal first-order state
    assert ab.coeff((0, 0), (1, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert ab.coeff((0, 0), (0, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_sort_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(10):
        terms = {}
        for n1 in range(2):
            for m1 in range(2 - n1):
                for n2 in range(2):
                    for m2 in range(2 - n2):
                        terms[(M.HGIndex(n1, m1), M.HGIndex(n2, m2))] = complex(
                            rng.normal(), rng.normal()
                        )
        b = Q.BiphotonExpansion(terms)
        stage = SagnacStage(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        result = Q.sort_biphoton(b, stage)
        total = sum(br.probability for br in result.branches.values())
        assert total == pytest.approx(1.0, abs=1e-9)


def _random_state(rng, max_order, count):
    index = [(n, o - n) for o in range(max_order + 1) for n in range(o + 1)]
    picks = rng.integers(len(index), size=(count, 2))
    return {
        (index[i], index[j]): complex(rng.normal(), rng.normal()) for i, j in picks
    }


def test_sort_and_herald_match_reference_on_random_states():
    rng = np.random.default_rng(29)
    triggers = [M.HGIndex(0, 0), M.HGIndex(1, 0), M.HGIndex(2, 3), M.HGIndex(0, 6)]
    for count in (1, 5, 40, 200):
        b = Q.BiphotonExpansion(_random_state(rng, 6, count))
        stage = SagnacStage(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert_sort_matches_reference(b, stage, triggers)
    # every term of a dense order-6 x order-6 state, at an off-parity stage
    index = [(n, o - n) for o in range(7) for n in range(o + 1)]
    dense = {(a, c): complex(rng.normal(), rng.normal()) for a in index for c in index}
    assert_sort_matches_reference(Q.BiphotonExpansion(dense), SagnacStage(0.5, 1.1), triggers)


def test_pipeline_states_match_reference():
    bell, _ = Q.fiber_filter_biphoton(Q.spdc_hg00())
    hg45, _ = Q.fiber_filter_biphoton(Q.spdc_hg45())
    squeezed = Q.compressor_apply(hg45, Q.COMPRESS_Y_QUARTER)
    want = reference_compress(hg45.terms, Q.COMPRESS_Y_QUARTER)
    assert _max_diff(squeezed.terms, want) < 1e-12
    triggers = [M.HGIndex(0, 0), M.HGIndex(1, 0), M.HGIndex(0, 1)]
    for b in (bell, hg45, squeezed):
        assert_sort_matches_reference(b, PARITY_STAGE, triggers)
        assert_sort_matches_reference(b, SagnacStage(1.0, 0.3), triggers)


def test_compressor_matches_reference_on_random_states():
    rng = np.random.default_rng(31)
    for _ in range(10):
        terms = _random_state(rng, 1, 6)
        spec = Q.CompressorSpec(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        b = Q.BiphotonExpansion(terms)
        want = reference_compress(b.terms, spec)
        assert _max_diff(Q.compressor_apply(b, spec).terms, want) < 1e-12


def test_compressor_rejects_higher_order_biphoton():
    b = Q.BiphotonExpansion({((0, 0), (1, 0)): 1.0, ((2, 0), (0, 0)): 1.0})
    with pytest.raises(ValueError, match="first order"):
        Q.compressor_apply(b, Q.COMPRESS_Y_QUARTER)


_hg_index = st.integers(0, M.MAX_ORDER).flatmap(
    lambda order: st.integers(0, order).map(lambda n: (n, order - n))
)
_amplitude = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.dictionaries(st.tuples(_hg_index, _hg_index), _amplitude, min_size=1, max_size=6),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi),
)
def test_sort_probabilities_sum_to_one_up_to_max_order(terms, theta, phi):
    result = Q.sort_biphoton(Q.BiphotonExpansion(terms), SagnacStage(theta, phi))
    total = sum(br.probability for br in result.branches.values())
    assert abs(total - 1.0) <= 1e-12


def test_sort_preserves_exchange_symmetry():
    filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg00())
    assert filtered.is_exchange_symmetric()
    result = Q.sort_biphoton(filtered, PARITY_STAGE)
    assert result.state("BB").is_exchange_symmetric(tol=1e-12)
    assert result.state("AA").is_exchange_symmetric(tol=1e-12)


# ---------------------------------------------------------------------------
# compressor
# ---------------------------------------------------------------------------

def test_compressor_hg45_to_lg():
    out = Q.compressor_apply(hg45(), Q.COMPRESS_Y_QUARTER)
    lg = M.lg_to_hg(M.LGIndex(0, 1), GEOM)
    assert abs(lg.inner(out)) == pytest.approx(1.0, abs=1e-9)


def test_compressor_zero_retardance_identity():
    spec = Q.CompressorSpec(axis_angle=0.3, retardance=0.0)
    e = hg45()
    out = Q.compressor_apply(e, spec)
    assert abs(e.inner(out)) == pytest.approx(1.0, abs=1e-15)


def test_compressor_round_trip():
    delta = 1.234
    fwd = Q.CompressorSpec(axis_angle=0.7, retardance=delta)
    back = Q.CompressorSpec(axis_angle=0.7, retardance=2 * math.pi - delta)
    e = M.ModeExpansion(
        {M.HGIndex(1, 0): 0.6, M.HGIndex(0, 1): 0.8j, M.HGIndex(0, 0): 0.0},
        GEOM,
    )
    out = Q.compressor_apply(Q.compressor_apply(e, fwd), back)
    assert math.sqrt(sum(abs(out.coeff(i) - e.coeff(i)) ** 2 for i in e.terms)) < 1e-12


def test_compressor_rejects_higher_order():
    e = M.ModeExpansion({M.HGIndex(2, 0): 1.0}, GEOM)
    with pytest.raises(ValueError, match="first order"):
        Q.compressor_apply(e, Q.COMPRESS_Y_QUARTER)


def _stokes(vec):
    c1, c2 = vec
    return np.array(
        [
            abs(c1) ** 2 - abs(c2) ** 2,
            2 * (c1.conjugate() * c2).real,
            2 * (c1.conjugate() * c2).imag,
        ]
    )


def _solve_two_compressor_angles(target):
    """Analytic two-retarder solve on the first-order sphere.

    A half-turn retarder at axis h maps the HG10 pole state to the linear
    state at angle 2h; a quarter-turn retarder at axis q then lifts it to
    ellipticity set by the angle between them.  Candidate q comes from the
    target's Stokes azimuth; candidate h from inverting the quarter-turn.
    """
    s = _stokes(target)
    azimuth = 0.5 * math.atan2(s[1], s[0])
    candidates = []
    for q in (azimuth, azimuth + math.pi / 2):
        qmat = Q.CompressorSpec(
            axis_angle=q % (2 * math.pi), retardance=math.pi / 2
        ).matrix()
        w = qmat.conj().T @ np.asarray(target)
        # strip global phase, check linearity, read the linear angle
        ref = w[np.argmax(np.abs(w))]
        w = w * (ref.conjugate() / abs(ref))
        if np.max(np.abs(w.imag)) > 1e-9:
            continue
        gamma = math.atan2(w[1].real, w[0].real)
        candidates.append((gamma / 2.0, q))
    return candidates


def test_two_compressors_cover_first_order_sphere():
    rng = np.random.default_rng(71)
    hg10 = M.ModeExpansion({M.HGIndex(1, 0): 1.0}, GEOM)
    for _ in range(20):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        target_vec = raw / np.linalg.norm(raw)
        target = M.ModeExpansion(
            {M.HGIndex(1, 0): target_vec[0], M.HGIndex(0, 1): target_vec[1]}, GEOM
        )
        best = 0.0
        for h, q in _solve_two_compressor_angles(target_vec):
            half = Q.CompressorSpec(axis_angle=h % (2 * math.pi), retardance=math.pi)
            quarter = Q.CompressorSpec(
                axis_angle=q % (2 * math.pi), retardance=math.pi / 2
            )
            out = Q.compressor_apply(Q.compressor_apply(hg10, half), quarter)
            best = max(best, abs(target.inner(out)))
        assert best == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# herald
# ---------------------------------------------------------------------------

def test_herald_without_compressor_gives_hg45():
    filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg45())
    result = Q.sort_biphoton(filtered, PARITY_STAGE)
    h = Q.herald(result, "A", M.HGIndex(0, 0))
    assert abs(hg45().inner(h.spatial)) == pytest.approx(1.0, abs=1e-9)
    assert h.polarization == filtered.polarization


def test_herald_with_compressor_gives_lg():
    filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg45())
    squeezed = Q.compressor_apply(filtered, Q.COMPRESS_Y_QUARTER)
    result = Q.sort_biphoton(squeezed, PARITY_STAGE)
    h = Q.herald(result, "A", M.HGIndex(0, 0))
    lg = M.lg_to_hg(M.LGIndex(0, 1), GEOM)
    assert abs(lg.inner(h.spatial)) == pytest.approx(1.0, abs=1e-9)


def test_herald_empty_branch_errors():
    filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg00())
    result = Q.sort_biphoton(filtered, PARITY_STAGE)
    with pytest.raises(ValueError, match="zero-probability"):
        Q.herald(result, "A", M.HGIndex(0, 0))  # AB branch empty for this pump


def test_herald_overlap_invariant_under_pump_phase():
    base, _ = Q.fiber_filter_biphoton(Q.spdc_hg45())
    rotated = base.scaled(cmath.exp(1j * 1.9))
    squeezed = Q.compressor_apply(rotated, Q.COMPRESS_Y_QUARTER)
    result = Q.sort_biphoton(squeezed, PARITY_STAGE)
    h = Q.herald(result, "A", M.HGIndex(0, 0))
    lg = M.lg_to_hg(M.LGIndex(0, 1), GEOM)
    assert abs(lg.inner(h.spatial)) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# schmidt / pbs
# ---------------------------------------------------------------------------

def test_schmidt_bell_state():
    inv = 1.0 / math.sqrt(2.0)
    b = Q.BiphotonExpansion(
        {((1, 0), (1, 0)): inv, ((0, 1), (0, 1)): inv}
    )
    coeffs = Q.schmidt_coefficients(b)
    # oracle: eigenvalues of M M^dagger for the identity/sqrt(2) matrix
    mat = np.array([[inv, 0], [0, inv]])
    lam = np.linalg.eigvalsh(mat @ mat.conj().T)
    want = sorted((math.sqrt(v) for v in lam), reverse=True)
    assert coeffs == pytest.approx(want, abs=1e-12)
    assert coeffs == pytest.approx([inv, inv], abs=1e-12)


def test_schmidt_product_state():
    b = Q.BiphotonExpansion({((1, 0), (1, 0)): 1.0})
    assert Q.schmidt_coefficients(b) == pytest.approx([1.0, 0.0], abs=1e-12)


def test_schmidt_diagonal_weights():
    b = Q.BiphotonExpansion(
        {((1, 0), (1, 0)): 0.9, ((0, 1), (0, 1)): math.sqrt(0.19)}
    )
    assert Q.schmidt_coefficients(b) == pytest.approx(
        [0.9, math.sqrt(0.19)], abs=1e-12
    )


def test_schmidt_any_order_recovers_known_decomposition():
    rng = np.random.default_rng(47)
    index = [(n, o - n) for o in range(11) for n in range(o + 1)]
    for rank in (1, 3, 6):
        rows = [index[i] for i in rng.choice(len(index), size=12, replace=False)]
        cols = [index[i] for i in rng.choice(len(index), size=9, replace=False)]

        def orthonormal(size):
            raw = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
            return np.linalg.qr(raw)[0]

        weights = np.sort(rng.uniform(0.1, 1.0, size=rank))[::-1]
        weights /= np.linalg.norm(weights)
        mat = orthonormal(len(rows)) @ np.diag(weights) @ orthonormal(len(cols)).T
        b = Q.BiphotonExpansion(
            {(a, c): mat[i, j] for i, a in enumerate(rows) for j, c in enumerate(cols)}
        )
        coeffs = Q.schmidt_coefficients(b)
        dims = min(
            sum(o + 1 for o in {n + m for n, m in side}) for side in (rows, cols)
        )
        assert len(coeffs) == dims
        assert coeffs[:rank] == pytest.approx(list(weights), abs=1e-12)
        assert max(coeffs[rank:]) < 1e-12


def test_schmidt_one_term_per_order_to_max_order():
    # A dense matrix over these orders would be 14706 x 14706; the SVD runs
    # over the 171 supported rows and columns only.
    weights = np.arange(1, M.MAX_ORDER + 2, dtype=float)
    b = Q.BiphotonExpansion({((o, 0), (0, o)): weights[o] for o in range(M.MAX_ORDER + 1)})
    coeffs = Q.schmidt_coefficients(b)
    assert len(coeffs) == sum(o + 1 for o in range(M.MAX_ORDER + 1))
    want = sorted(weights / np.linalg.norm(weights), reverse=True)
    assert coeffs[: len(want)] == pytest.approx(want, abs=1e-12)
    assert not any(coeffs[len(want):])


def test_schmidt_rejects_zero_state():
    with pytest.raises(ValueError, match="zero state"):
        Q.schmidt_coefficients(Q.BiphotonExpansion({}))
    with pytest.raises(ValueError, match="zero state"):
        Q.schmidt_coefficients(Q.BiphotonExpansion({((1, 0), (1, 0)): 0.0}))


def test_pbs_split_bell_report():
    inv = 1.0 / math.sqrt(2.0)
    b = Q.BiphotonExpansion({((1, 0), (1, 0)): inv, ((0, 1), (0, 1)): inv})
    rep = Q.pbs_split_bell(b)
    assert rep.pbs_success_probability == 1.0
    assert rep.bs_coincidence_probability == 0.5
    assert rep.spatial_schmidt == pytest.approx([inv, inv], abs=1e-12)
    assert rep.polarization_entanglement_consumed


def test_pbs_split_rejects_product_polarization():
    b = Q.BiphotonExpansion(
        {((1, 0), (1, 0)): 1.0}, polarization={"HH": 1.0}
    )
    with pytest.raises(ValueError, match="unsupported"):
        Q.pbs_split_bell(b)


# ---------------------------------------------------------------------------
# pipeline invariants
# ---------------------------------------------------------------------------

def test_bell_structure_independent_of_pump_coefficients():
    rng = np.random.default_rng(83)
    for _ in range(10):
        c0 = rng.uniform(0.01, 0.2)
        c1 = rng.uniform(0.005, 0.1)
        c2 = rng.uniform(-0.1, 0.1)
        filtered, prob = Q.fiber_filter_biphoton(Q.spdc_hg00(c0, c1, c2))
        result = Q.sort_biphoton(filtered, PARITY_STAGE)
        coeffs = Q.schmidt_coefficients(result.state("BB"))
        inv = 1.0 / math.sqrt(2.0)
        assert coeffs == pytest.approx([inv, inv], abs=1e-9)
        assert result.probability("BB") == pytest.approx(
            2 * c1**2 / (c0**2 + 2 * c1**2), abs=1e-12
        )


def test_filter_reports_probability_in_unit_interval():
    rng = np.random.default_rng(101)
    for _ in range(10):
        terms = {}
        for n1 in range(3):
            for m1 in range(3 - n1):
                for n2 in range(3):
                    for m2 in range(3 - n2):
                        terms[(M.HGIndex(n1, m1), M.HGIndex(n2, m2))] = complex(
                            rng.normal(), rng.normal()
                        )
        b = Q.BiphotonExpansion(terms)
        out, prob = Q.fiber_filter_biphoton(b)
        assert 0.0 <= prob <= 1.0
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)
