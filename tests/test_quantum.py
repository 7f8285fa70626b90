import cmath
import math
import re
import tracemalloc

import mpmath
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
# by one and accumulated in dicts, independent of the block layout; the maps
# come from the closed-form binomial rotation sum at 30 digits, so they share
# no roundoff with either route of the program
# ---------------------------------------------------------------------------

def _ref_rotation(order, angle):
    """Rotation of the order block, (a_x^+, a_y^+) -> (c a_x^+ + s a_y^+,
    -s a_x^+ + c a_y^+), expanded binomially (Wigner's small d), as mpmath
    numbers: entry [k][n] takes HG_{n, order-n} to HG_{k, order-k}."""
    c, s = mpmath.cos(angle), mpmath.sin(angle)
    mat = [[mpmath.mpf(0)] * (order + 1) for _ in range(order + 1)]
    for n in range(order + 1):
        m = order - n
        for p in range(n + 1):
            for q in range(m + 1):
                term = math.comb(n, p) * math.comb(m, q) * c ** (p + m - q) * s ** (n - p + q)
                mat[p + q][n] += -term if q % 2 else term
    for k in range(order + 1):
        for n in range(order + 1):
            ratio = mpmath.mpf(math.factorial(k) * math.factorial(order - k))
            mat[k][n] *= mpmath.sqrt(ratio / (math.factorial(n) * math.factorial(order - n)))
    return mat


def _ref_port_maps(stage, orders):
    """(1 +- e^{i phi} R(-2 Omega))/2 of each order, evaluated at 30 digits."""
    maps = {}
    with mpmath.workdps(30):
        phase = mpmath.expj(mpmath.mpf(stage.phi))
        for order in orders:
            back = _ref_rotation(order, -2 * mpmath.mpf(stage.omega))
            maps[order] = {
                port: np.array([
                    [complex(((k == n) + sign * phase * back[k][n]) / 2) for n in range(order + 1)]
                    for k in range(order + 1)
                ])
                for port, sign in (("A", 1), ("B", -1))
            }
    return maps


def _ref_apply(mat, idx):
    col = mat[:, idx.n]
    return {M.HGIndex(n, idx.order - n): complex(col[n]) for n in range(idx.order + 1) if col[n] != 0}


def reference_sort(terms, stage):
    """Unnormalized branch amplitudes {"AA": {(a, b): amp}, ...}."""
    terms = {(M.HGIndex(*a), M.HGIndex(*b)): complex(c) for (a, b), c in terms.items()}
    maps = _ref_port_maps(stage, {idx.order for key in terms for idx in key})
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


def test_reference_rotation_matches_rotation_matrix():
    rng = np.random.default_rng(7)
    with mpmath.workdps(30):
        for order in range(13):
            for angle in (0.0, math.pi / 4, *rng.uniform(-2 * math.pi, 2 * math.pi, size=3)):
                want = np.array(_ref_rotation(order, mpmath.mpf(angle)), dtype=float)
                assert np.abs(M.rotation_matrix(order, angle) - want).max() < 1e-13


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
    """Block sort and herald against the per-term reference.

    Branch amplitudes, sqrt(P total) times the state, and herald rows are
    compared unnormalized to 1e-12 sqrt(total): on a normalized state that
    is 1e-12 / sqrt(P), the conditioning of normalization.
    """
    result = Q.sort_biphoton(b, stage)
    ref = reference_sort(b.terms, stage)
    total = sum(abs(c) ** 2 for c in b.terms.values())
    bound = 1e-12 * math.sqrt(total)
    for name, acc in ref.items():
        power = sum(abs(c) ** 2 for c in acc.values())
        prob = result.probability(name)
        assert prob == pytest.approx(power / total, abs=1e-12)
        state = result.branches[name].state
        got = {} if state is None else {k: c * math.sqrt(prob * total) for k, c in state.terms.items()}
        assert _max_diff(got, acc) < bound
    for port, other in (("A", "B"), ("B", "A")):
        acc = ref[port + other]
        for trig in trigger_modes:
            partner = {ib: c for (ia, ib), c in acc.items() if ia == trig}
            try:
                h = Q.herald(result, port, trig)
            except ValueError:  # nothing behind this trigger
                got = {}
            else:
                power = sum(abs(c) ** 2 for c in partner.values())
                assert h.probability == pytest.approx(power / total, abs=1e-12)
                got = {k: c * math.sqrt(h.probability * total) for k, c in h.spatial.terms.items()}
            assert _max_diff(got, partner) < bound


def exchange_symmetric(b, tol=1e-12):
    """Whether swapping the two photons leaves every coefficient within tol."""
    for (o1, o2), block in b.blocks.items():
        mirror = b.blocks.get((o2, o1))
        diff = block if mirror is None else block - mirror.T
        if np.max(np.abs(diff)) > tol:
            return False
    return True


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
    assert exchange_symmetric(b)


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

def dump_biphoton_table(b):
    """The biphoton table format: header ``biphoton v1``, lines ``j k s t re im``."""
    lines = ["biphoton v1"]
    for (a, pb), c in sorted(b.terms.items()):
        lines.append(f"{a.n} {a.m} {pb.n} {pb.m} {c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"


def test_table_round_trip():
    b = Q.spdc_hg00()
    text = dump_biphoton_table(b)
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


def one_term_per_block_table(top):
    """A biphoton table with the one term (HG_o1,0, HG_0,o2) in every block up to order ``top``."""
    return "biphoton v1\n" + "".join(f"{o1} 0 0 {o2} 1 0\n" for o1 in range(top + 1) for o2 in range(top + 1))


def test_biphoton_block_budget_refuses_before_allocating():
    # To order 100 the blocks would hold 5151**2 = 26.5 M entries (424 MB).
    text = one_term_per_block_table(100)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"26532801 entries, more than the limit of {2**24}"):
            Q.load_biphoton_table(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_biphoton_block_budget_admits_the_sparse_order_80_table():
    # 3321**2 = 11.0 M entries (176 MB of blocks), inside the budget.
    b = Q.load_biphoton_table(one_term_per_block_table(80))
    assert sum(block.size for block in b.blocks.values()) == 3321**2
    result = Q.sort_biphoton(b, SagnacStage(0.6, 0.4))
    assert sum(branch.probability for branch in result.branches.values()) == pytest.approx(1.0, abs=1e-12)


def tile_keys(b):
    """(o1, o2) of every block the tiles of ``b`` hold, tile by tile."""
    return [(o1, o2) for rows, cols, _ in b._tiles for o1 in rows.orders for o2 in cols.orders]


def assert_tile_rule(b):
    """The tiles hold each occupied block once and no other, photon-1 orders
    that occupy the same photon-2 orders share one, and each is read-only."""
    keys = tile_keys(b)
    assert len(keys) == len(set(keys)) and set(keys) == {(a.order, c.order) for a, c in b.terms}
    assert len({cols.orders for _, cols, _ in b._tiles}) == len(b._tiles)
    assert sum(tile.size for *_, tile in b._tiles) == sum(block.size for block in b.blocks.values())
    assert not any(tile.flags.writeable for *_, tile in b._tiles)


@settings(max_examples=60, deadline=None)
@given(
    pattern=st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=30),
    data=st.data(),
)
def test_tiles_hold_exactly_the_occupied_blocks(pattern, data):
    terms = {}
    for o1, o2 in pattern:
        for _ in range(data.draw(st.integers(1, 3))):
            n1, n2 = data.draw(st.integers(0, o1)), data.draw(st.integers(0, o2))
            terms[(n1, o1 - n1), (n2, o2 - n2)] = complex(1 + n1 + o2, o1 - n2)
    b = Q.BiphotonExpansion(terms)
    assert_tile_rule(b)
    assert set(tile_keys(b)) == pattern
    assert sum(tile.size for *_, tile in b._tiles) == sum((o1 + 1) * (o2 + 1) for o1, o2 in pattern)
    assert dict(b.terms) == {(M.HGIndex(*a), M.HGIndex(*c)): amp for (a, c), amp in terms.items()}
    for (a, c), amp in terms.items():
        assert b.coeff(a, c) == amp
    for again in (Q.BiphotonExpansion(b.terms), b._with_blocks(b.blocks)):
        assert list(again.blocks) == list(b.blocks)
        assert all(np.array_equal(again.blocks[key], block) for key, block in b.blocks.items())
        assert again.norm_sq() == b.norm_sq()
    # Pruning can empty blocks; the rest are tiled anew by the same rule.
    tol = data.draw(st.sampled_from([0.0, 3.0, 8.0, 20.0]))
    pruned = b.pruned(tol)
    assert_tile_rule(pruned)
    assert dict(pruned.terms) == {key: amp for key, amp in b.terms.items() if abs(amp) > tol}


def test_tiles_of_the_fixed_states():
    index = [(n, o - n) for o in range(7) for n in range(o + 1)]
    dense = Q.BiphotonExpansion({(a, c): 1.0 for a in index for c in index})
    assert [(rows.orders, cols.orders) for rows, cols, _ in dense._tiles] == [(tuple(range(7)),) * 2]
    diagonal = Q.BiphotonExpansion({((o, 0), (0, o)): 1.0 for o in range(101)})
    assert [(rows.orders, cols.orders) for rows, cols, _ in diagonal._tiles] == [((o,), (o,)) for o in range(101)]
    hg00 = Q.spdc_hg00()
    assert [(rows.orders, cols.orders) for rows, cols, _ in hg00._tiles] == [((0,), (0, 2)), ((1,), (1,)), ((2,), (0,))]
    for b in (dense, diagonal, hg00):
        assert_tile_rule(b)


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


def test_biphoton_coeff_refuses_a_non_integer_index():
    with pytest.raises(ValueError, match=re.escape("HG indices must be integers, got (0.5, 0)")):
        Q.spdc_hg00().coeff((0.5, 0), (0, 0))


# ---------------------------------------------------------------------------
# fiber
# ---------------------------------------------------------------------------

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


_hg_index_12 = st.integers(0, 12).flatmap(
    lambda order: st.integers(0, order).map(lambda n: (n, order - n))
)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.dictionaries(st.tuples(_hg_index_12, _hg_index_12), _amplitude, min_size=1, max_size=30),
    theta=st.one_of(st.just(math.pi / 4), st.floats(0.0, math.pi)),
    phi=st.one_of(st.just(0.0), st.floats(0.0, 2 * math.pi)),
)
def test_sort_by_order_groups_matches_reference_on_sparse_blocks(terms, theta, phi):
    # Sparse block patterns: rows of blocks share photon-2 orders, some rows
    # and columns hold one block, and the parity stage empties branches.
    b = Q.BiphotonExpansion(terms)
    stage = SagnacStage(theta, phi)
    triggers = sorted({M.HGIndex(*a) for a, _ in terms})
    assert_sort_matches_reference(b, stage, triggers)
    result = Q.sort_biphoton(b, stage)
    for name, branch in result.branches.items():
        if branch.state is None:
            continue
        for block in branch.state.blocks.values():
            assert not block.flags.writeable and np.any(block)
            assert not any(np.shares_memory(block, given) for given in b.blocks.values())
        if name in ("AB", "BA"):
            for trig in triggers:
                try:
                    heralded = Q.herald(result, name[0], trig)
                except ValueError:  # nothing behind this trigger
                    continue
                assert not any(block.flags.writeable for block in heralded.spatial.blocks.values())


def test_sort_memory_follows_the_support():
    # One term per (o, o) block up to o = 100: 5.6 MB of blocks.  A dense
    # matrix over the occupied orders would be 424 MB, about 76 times that.
    b = Q.BiphotonExpansion({((o, 0), (0, o)): 1.0 + o for o in range(101)})
    given = sum(block.nbytes for block in b.blocks.values())
    stage = SagnacStage(0.6, 0.4)
    Q.sort_biphoton(b, stage)  # builds the cached per-order LG bases outside the trace
    tracemalloc.start()
    try:
        result = Q.sort_biphoton(b, stage)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(branch.state is not None for branch in result.branches.values())
    assert peak < 16 * given


def test_sort_and_herald_build_no_branch_state_until_read():
    b = Q.BiphotonExpansion(_random_state(np.random.default_rng(37), 4, 30))
    result = Q.sort_biphoton(b, SagnacStage(0.9, 0.2))
    Q.herald(result, "A", M.HGIndex(0, 0))
    Q.herald(result, "B", M.HGIndex(1, 1))
    assert all("state" not in vars(branch) for branch in result.branches.values())
    for branch in result.branches.values():
        first = branch.state
        assert first is not None and branch.state is first


def test_sort_and_herald_memory_stays_near_the_block_bytes():
    # One term per block to order 40: 11.9 MB of blocks.  The sort holds the
    # blocks' LG amplitudes and one product per photon order; no branch state.
    b = Q.BiphotonExpansion({((o1, 0), (0, o2)): 1.0 + o1 - 0.5j * o2 for o1 in range(41) for o2 in range(41)})
    given = sum(block.nbytes for block in b.blocks.values())
    stage = SagnacStage(0.6, 0.4)
    Q.herald(Q.sort_biphoton(b, stage), "A", M.HGIndex(3, 4))  # caches the LG bases untraced
    tracemalloc.start()
    try:
        heralded = Q.herald(Q.sort_biphoton(b, stage), "A", M.HGIndex(3, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert heralded.spatial.max_order() == 40
    assert peak < 3 * given


def test_sort_and_herald_of_one_term_per_block_to_order_60_stay_near_the_block_bytes():
    # One term per block to order 60: 57 MB of blocks in one tile.  The sort
    # holds W^T over the padded chunk places of both photons and the products
    # of one pair of chunks at a time; the herald one row.
    b = Q.BiphotonExpansion({((o1, 0), (0, o2)): 1.0 + o1 - 0.5j * o2 for o1 in range(61) for o2 in range(61)})
    given = sum(block.nbytes for block in b.blocks.values())
    stage = SagnacStage(0.6, 0.4)
    Q.herald(Q.sort_biphoton(b, stage), "A", M.HGIndex(3, 4))  # caches the LG bases untraced
    tracemalloc.start()
    try:
        heralded = Q.herald(Q.sort_biphoton(b, stage), "A", M.HGIndex(3, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert heralded.spatial.max_order() == 60
    assert peak <= 2.2 * given


def test_sort_preserves_exchange_symmetry():
    filtered, _ = Q.fiber_filter_biphoton(Q.spdc_hg00())
    assert exchange_symmetric(filtered)
    result = Q.sort_biphoton(filtered, PARITY_STAGE)
    assert exchange_symmetric(result.state("BB"))
    assert exchange_symmetric(result.state("AA"))


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


def test_compressor_matches_an_independent_retarder():
    # rot(a) diag(e^{i delta}, 1) rot(-a) on (c_10, c_01), built here
    # rather than taken from CompressorSpec.matrix().
    def rot(a):
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

    rng = np.random.default_rng(59)
    for _ in range(200):
        a, delta = rng.uniform(-2 * math.pi, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
        want = rot(a) @ np.diag([cmath.exp(1j * delta), 1.0]) @ rot(-a)
        spec = Q.CompressorSpec(axis_angle=a, retardance=delta)
        assert np.abs(spec.matrix() - want).max() < 1e-15
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        e = M.ModeExpansion({M.HGIndex(1, 0): c[0], M.HGIndex(0, 1): c[1]}, GEOM)
        out = Q.compressor_apply(e, spec)
        got = np.array([out.coeff(M.HGIndex(1, 0)), out.coeff(M.HGIndex(0, 1))])
        assert np.abs(got - want @ c).max() < 1e-15


@pytest.mark.parametrize("axis", [math.nan, math.inf, -math.inf])
def test_compressor_refuses_non_finite_axis_when_built(axis):
    with pytest.raises(ValueError, match="retarder axis_angle must be finite"):
        Q.CompressorSpec(axis_angle=axis, retardance=1.0)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, -math.inf)])
def test_biphoton_refuses_a_non_finite_polarization(value):
    with pytest.raises(ValueError, match="polarization component 'HV' must be finite"):
        Q.BiphotonExpansion({((1, 0), (1, 0)): 1.0}, polarization={"HV": value, "VH": 1.0})


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
