import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnacsim import interferometer as I
from sagnacsim import modes as M
from sagnacsim import quantum as Q

GEOM = M.BeamGeometry(1.0)
GRID = M.default_grid(GEOM)


def single(n, m, amp=1.0):
    return M.ModeExpansion({M.HGIndex(n, m): amp}, GEOM)


def hg45():
    inv = 1.0 / math.sqrt(2.0)
    return M.ModeExpansion({M.HGIndex(1, 0): inv, M.HGIndex(0, 1): inv}, GEOM)


def lg_expansion(l):
    field = M.sample_lg(M.LGIndex(0, l), GEOM, GRID)
    e, _ = M.decompose_grid(field, GEOM, abs(l))
    return e


def random_expansion(rng, max_order=6):
    terms = {}
    for n in range(max_order + 1):
        for m in range(max_order + 1 - n):
            terms[M.HGIndex(n, m)] = complex(rng.normal(), rng.normal())
    e = M.ModeExpansion(terms, GEOM)
    return e.scaled(1.0 / math.sqrt(e.norm_sq()))


# ---------------------------------------------------------------------------
# sagnac_transfer / port_powers
# ---------------------------------------------------------------------------

def test_hg01_exits_port_b():
    pa, pb = I.port_powers(I.sagnac_transfer(single(0, 1), I.PARITY_STAGE))
    assert pb == pytest.approx(1.0, abs=1e-12)


def test_hg15_and_hg32_routing():
    pa, _ = I.port_powers(I.sagnac_transfer(single(1, 5), I.PARITY_STAGE))
    assert pa == pytest.approx(1.0, abs=1e-12)
    _, pb = I.port_powers(I.sagnac_transfer(single(3, 2), I.PARITY_STAGE))
    assert pb == pytest.approx(1.0, abs=1e-12)


def test_zero_rotation_stage_passes_input():
    stage = I.SagnacStage(math.pi / 2)  # omega = 0
    e = hg45()
    pair = I.sagnac_transfer(e, stage)
    pa, pb = I.port_powers(pair)
    assert pa == pytest.approx(1.0, abs=1e-12)
    assert pb == pytest.approx(0.0, abs=1e-12)
    assert abs(e.inner(pair.port_a)) == pytest.approx(1.0, abs=1e-12)


def test_lg_parity_routing():
    pa1, pb1 = I.port_powers(I.sagnac_transfer(lg_expansion(1), I.PARITY_STAGE))
    assert pb1 == pytest.approx(1.0, abs=1e-9)
    pa2, pb2 = I.port_powers(I.sagnac_transfer(lg_expansion(2), I.PARITY_STAGE))
    assert pa2 == pytest.approx(1.0, abs=1e-9)


def test_output_rotated_by_90_degrees():
    # the port field is the input's parity component turned a quarter turn
    pair = I.sagnac_transfer(single(1, 0), I.PARITY_STAGE)
    assert abs(pair.port_b.coeff((0, 1))) == pytest.approx(1.0, abs=1e-12)


def test_port_powers_zero_input():
    pair = I.sagnac_transfer(M.ModeExpansion({}, GEOM), I.PARITY_STAGE)
    with pytest.raises(ValueError, match="zero input"):
        I.port_powers(pair)


def test_parity_eigenmode_full_port():
    for n, m in ((0, 0), (2, 1), (3, 3)):
        pa, pb = I.port_powers(I.sagnac_transfer(single(n, m), I.PARITY_STAGE))
        assert {round(pa, 9), round(pb, 9)} == {0.0, 1.0}


def test_hg45_exits_port_b():
    pa, pb = I.port_powers(I.sagnac_transfer(hg45(), I.PARITY_STAGE))
    assert pb == pytest.approx(1.0, abs=1e-12)


def test_even_odd_mix_splits():
    inv = 1.0 / math.sqrt(2.0)
    e = M.ModeExpansion({M.HGIndex(0, 0): inv, M.HGIndex(1, 0): inv}, GEOM)
    pa, pb = I.port_powers(I.sagnac_transfer(e, I.PARITY_STAGE))
    assert pa == pytest.approx(0.5, abs=1e-12)
    assert pb == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# mz_1d_sort
# ---------------------------------------------------------------------------

def test_mz_splits_lg_into_hg_parts():
    e = M.lg_to_hg(M.LGIndex(0, 1), GEOM)
    pair = I.mz_1d_sort(e)
    pa, pb = I.port_powers(pair)
    assert pa == pytest.approx(0.5, abs=1e-12)
    assert pb == pytest.approx(0.5, abs=1e-12)
    assert set(pair.port_a.terms) == {M.HGIndex(0, 1)}
    assert set(pair.port_b.terms) == {M.HGIndex(1, 0)}


def test_mz_routes_by_n_parity():
    pa, _ = I.port_powers(I.mz_1d_sort(single(2, 3)))
    assert pa == pytest.approx(1.0)
    pa, _ = I.port_powers(I.mz_1d_sort(single(0, 0)))
    assert pa == pytest.approx(1.0)
    _, pb = I.port_powers(I.mz_1d_sort(single(1, 0)))
    assert pb == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_losslessness_random_inputs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        e = random_expansion(rng)
        stage = I.SagnacStage(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        pa, pb = I.port_powers(I.sagnac_transfer(e, stage))
        assert pa + pb == pytest.approx(1.0, abs=1e-9)


def test_parity_projector_idempotent():
    rng = np.random.default_rng(5)
    e = random_expansion(rng, max_order=4)
    pair = I.sagnac_transfer(e, I.PARITY_STAGE)
    again_a = I.sagnac_transfer(pair.port_a, I.PARITY_STAGE)
    assert again_a.port_a.norm_sq() == pytest.approx(
        pair.port_a.norm_sq(), abs=1e-12
    )
    assert again_a.port_b.norm_sq() < 1e-12
    again_b = I.sagnac_transfer(pair.port_b, I.PARITY_STAGE)
    assert again_b.port_a.norm_sq() < 1e-12


def test_port_complementarity_at_parity_point():
    rng = np.random.default_rng(17)
    for _ in range(20):
        e = random_expansion(rng, max_order=5)
        pair = I.sagnac_transfer(e, I.PARITY_STAGE)
        assert abs(pair.port_a.inner(pair.port_b)) < 1e-9


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def test_cascade_depth_1_parity_split():
    root = I.cascade_build(1)
    even = I.cascade_route(root, M.LGIndex(0, 2))
    assert even[0].label == "0 mod 2"
    assert even[0].power == pytest.approx(1.0, abs=1e-12)
    odd = I.cascade_route(root, M.LGIndex(0, 7))
    assert odd[1].label == "1 mod 2"
    assert odd[1].power == pytest.approx(1.0, abs=1e-12)


def test_cascade_depth_2_leaf_order():
    root = I.cascade_build(2)
    labels = [leaf.label for leaf in I.cascade_route(root, M.LGIndex(0, 0))]
    assert labels == ["0 mod 4", "2 mod 4", "1 mod 4", "3 mod 4"]


def test_cascade_depth_2_residues():
    root = I.cascade_build(2)
    for l in range(-4, 5):
        leaves = I.cascade_route(root, M.LGIndex(0, l))
        top = max(leaves, key=lambda lf: lf.power)
        assert top.label == f"{l % 4} mod 4"
        assert top.power == pytest.approx(1.0, abs=1e-12)


def test_cascade_negative_l():
    root = I.cascade_build(2)
    leaves = I.cascade_route(root, M.LGIndex(0, -1))
    top = max(leaves, key=lambda lf: lf.power)
    assert top.label == "3 mod 4"


def test_cascade_phase_arithmetic_oracle():
    # Independent residue-tree walk: leaf powers are products of the branch
    # factors |1 +- e^{i(l psi + phi)}|^2 / 4 with phi = -r psi per branch.
    root = I.cascade_build(2)
    for l in range(-4, 5):
        got = {lf.label: lf.power for lf in I.cascade_route(root, M.LGIndex(0, l))}
        for r in range(4):
            r1 = r % 2  # residue handled by the level-2 stage on this path
            a1 = abs(1 + cmath.exp(1j * l * math.pi)) ** 2 / 4
            p1 = a1 if r1 == 0 else 1.0 - a1
            a2 = abs(1 + cmath.exp(1j * (l - r1) * math.pi / 2)) ** 2 / 4
            p2 = a2 if r < 2 else 1.0 - a2
            assert got[f"{r} mod 4"] == pytest.approx(p1 * p2, abs=1e-12)


def test_cascade_superposition_splits():
    e = lg_expansion(2) + lg_expansion(3)
    e = e.scaled(1.0 / math.sqrt(e.norm_sq()))
    leaves = I.cascade_route(I.cascade_build(1), e)
    assert leaves[0].power == pytest.approx(0.5, abs=1e-9)
    assert leaves[1].power == pytest.approx(0.5, abs=1e-9)


def test_cascade_hg10_goes_odd():
    leaves = I.cascade_route(I.cascade_build(1), single(1, 0))
    assert leaves[1].label == "1 mod 2"
    assert leaves[1].power == pytest.approx(1.0, abs=1e-12)


def test_cascade_completeness_depth_3():
    root = I.cascade_build(3)
    for l in range(-8, 9):
        leaves = I.cascade_route(root, M.LGIndex(0, l))
        winners = [lf for lf in leaves if lf.power > 1 - 1e-9]
        assert len(winners) == 1
        assert winners[0].label == f"{l % 8} mod 8"


def test_cascade_depth_bounds():
    with pytest.raises(ValueError):
        I.cascade_build(0)
    with pytest.raises(ValueError):
        I.cascade_build(6)


def test_cascade_build_refuses_a_non_integer_depth():
    with pytest.raises(ValueError, match=r"^cascade depth must be an integer, got 2\.5$"):
        I.cascade_build(2.5)


# ---------------------------------------------------------------------------
# per-term reference: the dict code the OAM-basis operators replaced
# ---------------------------------------------------------------------------

def reference_rotate(terms, angle):
    """Rotate a term dict block by block with the per-order rotation matrices."""
    by_order = {}
    for idx, amp in terms.items():
        by_order.setdefault(idx.order, {})[idx.n] = amp
    out = {}
    for order, block in by_order.items():
        vec = np.zeros(order + 1, dtype=complex)
        for n, amp in block.items():
            vec[n] = amp
        rotated = M.rotation_matrix(order, angle) @ vec
        for n in range(order + 1):
            if rotated[n] != 0:
                out[M.HGIndex(n, order - n)] = complex(rotated[n])
    return out


def reference_transfer(terms, stage):
    """Port term dicts (R(+Omega) +- e^{i phi} R(-Omega)) / 2."""
    plus = reference_rotate(terms, stage.omega)
    minus = reference_rotate(terms, -stage.omega)
    phase = cmath.exp(1j * stage.phi)
    port_a, port_b = {}, {}
    for idx in set(plus) | set(minus):
        p, m = plus.get(idx, 0j), phase * minus.get(idx, 0j)
        port_a[idx] = 0.5 * (p + m)
        port_b[idx] = 0.5 * (p - m)
    return port_a, port_b


def reference_cascade(node, input_state):
    """Two walks: rotation-eigenvalue arithmetic for an LGIndex, per-term
    transfers for an expansion.  Leaves are (label, power, terms or None)."""
    leaves = []
    if isinstance(input_state, M.LGIndex):

        def walk_lg(n, weight):
            if n.is_leaf:
                leaves.append((n.label, weight, None))
                return
            plus = cmath.exp(-1j * input_state.l * n.stage.omega)
            minus = cmath.exp(1j * (input_state.l * n.stage.omega + n.stage.phi))
            walk_lg(n.child_a, weight * abs(0.5 * (plus + minus)) ** 2)
            walk_lg(n.child_b, weight * abs(0.5 * (plus - minus)) ** 2)

        walk_lg(node, 1.0)
        return leaves
    total = sum(abs(a) ** 2 for a in input_state.terms.values())

    def walk(n, terms):
        if n.is_leaf:
            leaves.append((n.label, sum(abs(a) ** 2 for a in terms.values()) / total, terms))
            return
        port_a, port_b = reference_transfer(terms, n.stage)
        walk(n.child_a, port_a)
        walk(n.child_b, port_b)

    walk(node, dict(input_state.terms))
    return leaves


def max_diff(terms, want):
    return max((abs(terms.get(k, 0j) - want.get(k, 0j)) for k in set(terms) | set(want)), default=0.0)


def random_sparse(rng, max_order, count):
    """Unit-norm expansion with ``count`` random terms of order <= max_order."""
    terms = {}
    while len(terms) < count:
        order = int(rng.integers(max_order + 1))
        n = int(rng.integers(order + 1))
        terms[M.HGIndex(n, order - n)] = complex(rng.normal(), rng.normal())
    return M.ModeExpansion(terms, GEOM).normalized()


def test_rotate_and_transfer_match_reference_on_random_states():
    rng = np.random.default_rng(41)
    states = [random_expansion(rng, max_order) for max_order in (0, 1, 6, 17, 40)]
    states += [random_sparse(rng, 40, count) for count in (1, 3, 30, 200)]
    for e in states:
        for _ in range(3):
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            assert max_diff(M.rotate_exact(e, angle).terms, reference_rotate(e.terms, angle)) < 1e-12
            stage = I.SagnacStage(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            pair = I.sagnac_transfer(e, stage)
            want_a, want_b = reference_transfer(e.terms, stage)
            assert max_diff(pair.port_a.terms, want_a) < 1e-12
            assert max_diff(pair.port_b.terms, want_b) < 1e-12
        mz = I.mz_1d_sort(e)
        assert dict(mz.port_a.terms) == {i: c for i, c in e.terms.items() if i.n % 2 == 0}
        assert dict(mz.port_b.terms) == {i: c for i, c in e.terms.items() if i.n % 2 == 1}


@pytest.mark.parametrize("max_order", [60, 100, 170])
def test_transfer_of_full_expansions_matches_dense_port_operators(max_order):
    rng = np.random.default_rng(max_order)
    e = random_expansion(rng, max_order)
    stage = I.SagnacStage(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
    pair = I.sagnac_transfer(e, stage)
    phase = cmath.exp(1j * stage.phi)
    for o, block in e.blocks.items():
        plus = M.rotation_matrix(o, stage.omega) @ block
        minus = phase * (M.rotation_matrix(o, -stage.omega) @ block)
        for port, want in ((pair.port_a, (plus + minus) / 2), (pair.port_b, (plus - minus) / 2)):
            assert np.max(np.abs(port.blocks.get(o, 0j) - want)) <= 1e-13
    assert abs(sum(I.port_powers(pair)) - 1.0) <= 1e-12


def test_port_states_keep_nonzero_blocks_as_read_only_views():
    # At theta = pi/2 (Omega = 0, phi = 0) port A gets the input back and
    # port B exact zeros at every order it holds.
    e = M.ModeExpansion({(0, 0): 1.0, (1, 2): 2.0, (40, 0): 1j}, GEOM)
    pair = I.sagnac_transfer(e, I.SagnacStage(math.pi / 2))
    port_a, port_b = pair.port_a, pair.port_b
    assert list(port_a.blocks) == [0, 3, 40] and dict(port_b.blocks) == {}
    assert dict(port_b.terms) == {} and port_b.max_order() == 0 and port_b.norm_sq() == 0.0
    assert port_b.coeff((40, 0)) == 0 and port_a.max_order() == 40
    assert max_diff(port_a.terms, e.terms) <= 1e-14
    for block in port_a.blocks.values():
        assert np.shares_memory(block, port_b._vector.base) and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = 1.0
    assert port_a.norm_sq() == pytest.approx(6.0, rel=1e-14)


def clear_basis_caches():
    """Drop every cached LG basis: the chunk stacks, the per-order views of
    them and the layouts that cut chunks from them."""
    for cache in (M._chunk_basis, M._order_basis, M._layout):
        cache.cache_clear()


def run_every_basis_route():
    """Each route that reads the LG basis, at every order up to MAX_ORDER; nothing is kept."""
    e = random_expansion(np.random.default_rng(2), M.MAX_ORDER)
    I.sagnac_transfer(e, I.SagnacStage(0.7, 0.2))
    I.cascade_route(I.cascade_build(3), e)
    # Blocks (o, 0) and (0, o) at every order; every branch state and a herald.
    terms = {}
    for o in range(M.MAX_ORDER + 1):
        terms[(o, 0), (0, 0)] = 1.0
        terms[(0, 0), (0, o)] = 0.5j
    result = Q.sort_biphoton(Q.BiphotonExpansion(terms), I.SagnacStage(0.7, 0.2))
    assert all(branch.state is not None for branch in result.branches.values())
    Q.herald(result, "A", M.HGIndex(0, 0))
    for order in range(M.MAX_ORDER + 1):
        M.lg_to_hg(M.LGIndex(0, order), GEOM)
        M.rotation_matrix(order, 0.3)


def test_every_basis_route_runs_eigh_once_per_order(monkeypatch):
    clear_basis_caches()
    sizes = []
    eigh = np.linalg.eigh

    def counted(matrix, *args, **kwargs):
        sizes.append(len(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    run_every_basis_route()
    assert sorted(sizes) == list(range(1, M.MAX_ORDER + 2))


def test_order_170_transfer_holds_bounded_caches():
    # Every LG basis that the routes reach, held once: the chunk stacks of R
    # are about 14 MB to MAX_ORDER, and the per-order views add nothing.
    clear_basis_caches()
    tracemalloc.start()
    try:
        run_every_basis_route()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert M._chunk_basis.cache_info().currsize == math.ceil((M.MAX_ORDER + 1) / M._CHUNK)
    assert M._order_basis.cache_info().currsize <= M.MAX_ORDER + 1
    assert M._layout.cache_info().maxsize is not None
    assert held <= 20e6


def direct_port_factors(omega, phase, l):
    """Port A and B factors of each stage (omega, phase = e^{i phi}) at each
    OAM in l, each exponential evaluated on its own."""
    plus = np.exp(-1j * l * omega)
    minus = np.exp(1j * l * omega) * phase
    return np.array([(plus + minus) * 0.5, (plus - minus) * 0.5])


def test_stage_factors_are_the_direct_port_factors():
    rng = np.random.default_rng(3)
    for k in range(200):
        top = int(rng.integers(0, M.MAX_ORDER + 1)) if k else M.MAX_ORDER
        theta = (0.0, math.pi / 4, math.pi / 2, math.pi)[k % 4] if k % 5 == 0 else rng.uniform(0, math.pi)
        stage = I.SagnacStage(theta, rng.uniform(-10, 10) if k % 3 else 0.0)
        phase = cmath.exp(1j * stage.phi)
        table = I._port_factor_table(stage.omega, phase, top)
        direct = direct_port_factors(stage.omega, phase, np.arange(-top, top + 1))
        assert np.array_equal(table.view(np.uint64), direct.view(np.uint64))  # also the signs of zeros
    omega = rng.uniform(0.0, math.pi, 50)
    phase = np.exp(1j * rng.uniform(-10.0, 10.0, 50))
    direct = direct_port_factors(omega[:, None], phase[:, None], np.arange(-40, 41)).transpose(1, 0, 2)
    assert np.array_equal(I._port_factor_table(omega, phase, 40).view(np.uint64), direct.view(np.uint64))


def test_cascade_matches_reference_through_depth_5():
    rng = np.random.default_rng(43)
    tree = I.cascade_build(5)
    states = [random_expansion(rng, max_order) for max_order in (0, 3, 10)]
    states += [random_sparse(rng, 10, count) for count in (1, 5, 20)]
    for e in states:
        got = I.cascade_route(tree, e)
        want = reference_cascade(tree, e)
        assert [leaf.label for leaf in got] == [label for label, _, _ in want]
        for leaf, (_, power, terms) in zip(got, want):
            assert abs(leaf.power - power) < 1e-12
            assert max_diff(leaf.state.terms, terms) < 1e-12
    for depth in range(1, 6):
        tree = I.cascade_build(depth)
        for l in range(-40, 41):
            got = I.cascade_route(tree, M.LGIndex(0, l))
            want = reference_cascade(tree, M.LGIndex(0, l))
            assert [(leaf.label, leaf.state) for leaf in got] == [(lab, None) for lab, _, _ in want]
            assert max(abs(leaf.power - power) for leaf, (_, power, _) in zip(got, want)) < 1e-12


def test_cascade_rejects_other_inputs():
    with pytest.raises(TypeError):
        I.cascade_route(I.cascade_build(1), (0, 2))
    with pytest.raises(ValueError, match="zero input"):
        I.cascade_route(I.cascade_build(1), M.ModeExpansion({}, GEOM))
    for idx, message in (
        ((-3, 1), "radial index p must be nonnegative"),
        ((0, 171), "order too large: 171 exceeds 170"),
        ((85, -1), "order too large: 171 exceeds 170"),
        ((0, 1.5), "LG indices must be integers"),
    ):
        with pytest.raises(ValueError, match=message):
            I.cascade_route(I.cascade_build(2), M.LGIndex(*idx))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: single(1, 0).coeff((True, 0)), "HG indices must be integers"),
        (lambda: Q.BiphotonExpansion({((0, False), (0, 0)): 1.0}), "HG indices must be integers"),
        (lambda: I.cascade_route(I.cascade_build(1), M.LGIndex(0, True)), "LG indices must be integers"),
        (lambda: I.cascade_build(True), "cascade depth must be an integer"),
        (lambda: M.GridSpec(4.0, 16.0), "samples_per_side must be an even integer"),
    ],
    ids=["coeff", "biphoton-term", "lg-index", "cascade-depth", "grid-samples"],
)
def test_a_bool_or_float_count_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_cascade_node_has_a_stage_and_both_children_or_none():
    leaf = I.CascadeNode("leaf")
    for args in ((I.PARITY_STAGE,), (I.PARITY_STAGE, leaf), (I.PARITY_STAGE, None, leaf), (None, leaf, leaf)):
        with pytest.raises(ValueError, match="needs a stage and both children, or none of them"):
            I.CascadeNode("x", *args)


def test_a_lone_leaf_passes_its_input():
    e = random_expansion(np.random.default_rng(13), 4)
    (leaf,) = I.cascade_route(I.CascadeNode("only"), e)
    assert leaf.label == "only" and abs(leaf.power - 1.0) < 1e-15
    assert max_diff(leaf.state.terms, e.terms) < 1e-12
    (leaf,) = I.cascade_route(I.CascadeNode("only"), M.LGIndex(0, 7))
    assert (leaf.label, leaf.power, leaf.state) == ("only", 1.0, None)


def test_cascade_routes_a_chain_deeper_than_the_recursion_limit():
    # Each stage passes even l to port A, which feeds the next stage.
    stage = I.SagnacStage(math.pi / 4)
    node = I.CascadeNode("end")
    for i in range(3000):
        node = I.CascadeNode(f"s{i}", stage, node, I.CascadeNode(f"s{i}.B"))
    got = I.cascade_route(node, M.ModeExpansion({(1, 1): 1.0}, GEOM))
    assert [leaf.label for leaf in got] == ["end"] + [f"s{i}.B" for i in range(3000)]
    assert abs(got[0].power - 1.0) < 1e-12 and sum(leaf.power for leaf in got[1:]) < 1e-12


def test_cascade_builds_a_leaf_state_only_when_read(monkeypatch):
    calls = []
    from_oam = I._from_oam
    monkeypatch.setattr(I, "_from_oam", lambda *args: calls.append(args) or from_oam(*args))
    leaves = I.cascade_route(I.cascade_build(5), random_expansion(np.random.default_rng(7)))
    assert calls == []
    assert repr(leaves[3]) == f"LeafPower(label={leaves[3].label!r}, power={leaves[3].power!r})"
    state = leaves[3].state
    assert len(calls) == 1
    assert leaves[3].state is state and len(calls) == 1


def test_cascade_chain_holds_little_more_than_its_leaf_rows():
    # 300 stages in a chain; a full order-40 input has D = 861 LG amplitudes,
    # and each of the 301 leaves keeps one row of them.
    lines = [f"stage s{i} theta=0.8 phi=0.3" for i in range(300)]
    lines += [f"route s{i}.A -> s{i + 1}" for i in range(299)]
    root = I.parse_network("\n".join(lines) + "\n")
    e = random_expansion(np.random.default_rng(11), 40)
    rows = 300 * 861 * 16
    I.cascade_route(root, e)  # builds the cached per-order LG bases outside the trace
    tracemalloc.start()
    try:
        leaves = I.cascade_route(root, e)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(leaves) == 301
    assert held <= 1.2 * rows and peak <= 4.5 * rows


def test_cascade_chain_route_peaks_at_three_leaf_row_units():
    # The route of a tree it has not planned yet: the plan, the factor table,
    # the level products and the powers come on top of the leaf rows.
    lines = [f"stage s{i} theta=0.8 phi=0.3" for i in range(300)]
    lines += [f"route s{i}.A -> s{i + 1}" for i in range(299)]
    text = "\n".join(lines) + "\n"
    e = random_expansion(np.random.default_rng(12), 40)
    I.cascade_route(I.parse_network(text), e)  # builds the cached per-order LG bases
    root = I.parse_network(text)
    rows = 300 * 861 * 16
    tracemalloc.start()
    try:
        leaves = I.cascade_route(root, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(leaves) == 301
    assert peak <= 3 * rows


def test_cascade_chain_holds_path_factors_not_leaf_rows():
    # Each of the 301 leaves holds its path factors at l = -40..40, not a row
    # of the input's 861 LG amplitudes; the route of a tree it has not planned
    # yet builds the factor table of both ports of the 300 stages on the way.
    lines = [f"stage s{i} theta=0.8 phi=0.3" for i in range(300)]
    lines += [f"route s{i}.A -> s{i + 1}" for i in range(299)]
    text = "\n".join(lines) + "\n"
    e = random_expansion(np.random.default_rng(14), 40)
    I.cascade_route(I.parse_network(text), e)  # builds the cached per-order LG bases
    root = I.parse_network(text)
    unit = 301 * 81 * 16
    tracemalloc.start()
    try:
        leaves = I.cascade_route(root, e)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(leaves) == 301
    assert held <= 2 * unit and peak <= 10 * unit


def test_port_factor_table_is_stages_by_oam_values():
    # 300 stages and an order-40 input (D = 861 LG amplitudes): the table
    # holds both ports of each stage at l = -40..40, not at each amplitude.
    rng = np.random.default_rng(5)
    omega = rng.uniform(0.0, math.pi, 300)
    phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 300))
    unit = 300 * 2 * 81 * 16
    tracemalloc.start()
    try:
        table = I._port_factor_table(omega, phase, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (300, 2, 81) and table.nbytes == unit
    assert peak <= 3.5 * unit


def test_parse_network_builds_a_chain_deeper_than_the_recursion_limit():
    lines = [f"stage s{i} theta=0.8 phi=0" for i in range(3000)]
    lines += [f"route s{i}.A -> s{i + 1}" for i in range(2999)]
    node = I.parse_network("\n".join(lines) + "\n")
    for i in range(3000):
        assert (node.label, node.child_b.label) == (f"s{i}", f"s{i}.B")
        node = node.child_a
    assert node.is_leaf and node.label == "s2999.A"


def hg_indices(max_order):
    return st.integers(0, max_order).flatmap(lambda order: st.integers(0, order).map(lambda n: (n, order - n)))


_hg_index = hg_indices(M.MAX_ORDER)
_amplitude = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False)
_DEPTH_5 = I.cascade_build(5)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.dictionaries(_hg_index, _amplitude, min_size=1, max_size=6),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi),
)
def test_port_and_leaf_powers_sum_to_one_up_to_max_order(terms, theta, phi):
    e = M.ModeExpansion(terms, GEOM)
    pa, pb = I.port_powers(I.sagnac_transfer(e, I.SagnacStage(theta, phi)))
    assert abs(pa + pb - 1.0) <= 1e-12
    leaves = I.cascade_route(_DEPTH_5, e)
    assert abs(sum(leaf.power for leaf in leaves) - 1.0) <= 1e-12
    assert abs(sum(leaf.state.norm_sq() for leaf in leaves) / e.norm_sq() - 1.0) <= 1e-12


@st.composite
def random_network(draw, max_stages=12, max_depth=None):
    """Text of a network file: 1 to ``max_stages`` stages at random theta and
    phi, each stage after the first routed from a random free port of a
    stage less than ``max_depth`` deep, so that leaves sit at different
    depths; lines in random order."""
    count = draw(st.integers(1, max_stages))
    lines = [
        f"stage s{i} theta={draw(st.floats(0.0, math.pi))!r} phi={draw(st.floats(-10.0, 10.0))!r}"
        for i in range(count)
    ]
    free = [("s0", "A", 1), ("s0", "B", 1)]  # (stage, port, depth of the stage)
    for child in range(1, count):
        open_ports = [i for i, (_, _, depth) in enumerate(free) if max_depth is None or depth < max_depth]
        parent, port, depth = free.pop(draw(st.sampled_from(open_ports)))
        lines.append(f"route {parent}.{port} -> s{child}")
        free += [(f"s{child}", "A", depth + 1), (f"s{child}", "B", depth + 1)]
    return "\n".join(draw(st.permutations(lines))) + "\n"


_low_hg_index = hg_indices(40)


@settings(max_examples=40, deadline=None)
@given(
    text=random_network(),
    terms=st.dictionaries(_low_hg_index, _amplitude, min_size=1, max_size=6),
    lg=st.tuples(st.integers(0, 20), st.integers(-40, 40)),
)
def test_random_networks_route_like_the_reference(text, terms, lg):
    root = I.parse_network(text)
    e = M.ModeExpansion(terms, GEOM).normalized()
    got = I.cascade_route(root, e)
    want = reference_cascade(root, e)
    assert [leaf.label for leaf in got] == [label for label, _, _ in want]
    for leaf, (_, power, leaf_terms) in zip(got, want):
        assert abs(leaf.power - power) <= 1e-12
        assert max_diff(leaf.state.terms, leaf_terms) <= 1e-12
    got = I.cascade_route(root, M.LGIndex(*lg))
    want = reference_cascade(root, M.LGIndex(*lg))
    assert [(leaf.label, leaf.state) for leaf in got] == [(label, None) for label, _, _ in want]
    for leaf, (_, power, _) in zip(got, want):
        assert abs(leaf.power - power) <= 1e-12


def per_node_rows(node, w, l):
    """Leaf rows of the per-node walk that the level plan replaced: the
    factors of all stages at every amplitude, listed depth-first, then each
    node's amplitudes times its stage's factors, port A first."""
    stages, todo = [], [node]
    while todo:
        n = todo.pop()
        if not n.is_leaf:
            stages.append(n.stage)
            todo += (n.child_b, n.child_a)
    factor_a, factor_b = direct_port_factors(
        np.array([stage.omega for stage in stages])[:, None],
        np.array([cmath.exp(1j * stage.phi) for stage in stages])[:, None],
        l,
    )
    rows, todo, k = [], [(node, w)], 0
    while todo:
        n, amps = todo.pop()
        if n.is_leaf:
            rows.append(amps)
        else:
            todo += ((n.child_b, factor_b[k] * amps), (n.child_a, factor_a[k] * amps))
            k += 1
    return rows


@settings(max_examples=30, deadline=None)
@given(
    text=random_network(max_stages=40, max_depth=8),
    terms=st.dictionaries(hg_indices(12), _amplitude, min_size=1, max_size=8),
    ls=st.lists(st.integers(-M.MAX_ORDER, M.MAX_ORDER), min_size=1, max_size=12),
)
def test_level_plan_routes_random_trees_like_the_per_node_walk(text, terms, ls):
    root = I.parse_network(text)
    e = M.ModeExpansion(terms, GEOM)
    got = I.cascade_route(root, e)
    want = reference_cascade(root, e)
    assert [leaf.label for leaf in got] == [label for label, _, _ in want]
    assert max(abs(leaf.power - power) for leaf, (_, power, _) in zip(got, want)) <= 1e-12
    # The path factors over l = -top..top are the per-node walk of ones.
    oam = np.arange(-e.max_order(), e.max_order() + 1)
    walked = per_node_rows(root, np.ones(len(oam), complex), oam)
    assert all(np.array_equal(row, node_row) for row, node_row in zip(I._leaf_factors(root._plan, oam), walked))
    # Every l in one pass: each (leaf, l) power has the bits of a one-l route.
    labels, powers = I._oam_leaf_powers(root, ls)
    assert list(labels) == [leaf.label for leaf in got]
    for l, column in zip(ls, powers.T.tolist()):
        assert column == [leaf.power for leaf in I.cascade_route(root, M.LGIndex(0, l))]
        assert column == [np.vdot(row, row).real for row in per_node_rows(root, np.ones(1, complex), np.array([l]))]


@settings(max_examples=40, deadline=None)
@given(
    text=random_network(max_stages=40, max_depth=8),
    terms=st.dictionaries(hg_indices(12), _amplitude, min_size=1, max_size=12),
)
def test_leaf_powers_from_the_oam_spectrum_are_the_leaf_state_powers(text, terms):
    e = M.ModeExpansion(terms, GEOM)
    total = e.norm_sq()
    leaves = I.cascade_route(I.parse_network(text), e)
    assert abs(sum(leaf.power for leaf in leaves) - 1.0) <= 1e-12
    for leaf in leaves:
        assert abs(leaf.power * total - leaf.state.norm_sq()) <= 1e-14 * total


def test_a_tree_routed_twice_builds_its_plan_once(monkeypatch):
    calls = []
    route_plan = I._route_plan
    monkeypatch.setattr(I, "_route_plan", lambda root: calls.append(root) or route_plan(root))
    tree = I.cascade_build(3)
    e = random_expansion(np.random.default_rng(8), 5)
    first = I.cascade_route(tree, e)
    second = I.cascade_route(tree, e)
    I.cascade_route(tree, M.LGIndex(0, 3))
    assert calls == [tree]
    assert [(leaf.label, leaf.power) for leaf in first] == [(leaf.label, leaf.power) for leaf in second]


def test_a_deep_tree_is_frozen_with_a_short_repr_and_identity_equality():
    lines = [f"stage s{i} theta=0.8 phi=0" for i in range(3000)]
    lines += [f"route s{i}.A -> s{i + 1}" for i in range(2999)]
    text = "\n".join(lines) + "\n"
    chain, other = I.parse_network(text), I.parse_network(text)
    assert repr(chain) == "CascadeNode(label='s0', stage=SagnacStage(theta=0.8, phi=0.0))"
    assert chain == chain and chain != other and hash(chain) != hash(other)
    for name, value in (("label", "x"), ("child_a", None), ("stage", I.PARITY_STAGE)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chain, name, value)


# ---------------------------------------------------------------------------
# network files
# ---------------------------------------------------------------------------

def test_network_tree_shortcut():
    root = I.parse_network("tree 2\n")
    labels = [lf.label for lf in I.cascade_route(root, M.LGIndex(0, 1))]
    assert labels == ["0 mod 4", "2 mod 4", "1 mod 4", "3 mod 4"]


def test_network_explicit_stages():
    text = """
# two-stage chain
stage root theta=0.7853981633974483 phi=0.0
stage next theta=1.1780972450961724 phi=0.0
route root.A -> next
"""
    root = I.parse_network(text)
    leaves = I.cascade_route(root, M.LGIndex(0, 0))
    labels = [lf.label for lf in leaves]
    assert labels == ["next.A", "next.B", "root.B"]
    assert leaves[0].power == pytest.approx(1.0, abs=1e-12)


def test_network_errors():
    with pytest.raises(ValueError, match="line 1"):
        I.parse_network("bogus directive\n")
    with pytest.raises(ValueError, match="duplicate route"):
        I.parse_network(
            "stage a theta=0.8 phi=0\nstage b theta=0.8 phi=0\n"
            "stage c theta=0.8 phi=0\nroute a.A -> b\nroute a.A -> c\n"
        )
    with pytest.raises(ValueError, match="exactly one root"):
        I.parse_network(
            "stage a theta=0.8 phi=0\nstage b theta=0.8 phi=0\n"
            "route a.A -> b\nroute b.A -> a\n"
        )
    with pytest.raises(ValueError, match="exactly one root"):
        I.parse_network(
            "stage a theta=0.8 phi=0\nstage b theta=0.8 phi=0\n"
        )
    with pytest.raises(ValueError, match="unreachable"):
        I.parse_network(
            "stage a theta=0.8 phi=0\nstage b theta=0.8 phi=0\n"
            "stage c theta=0.8 phi=0\nroute b.A -> c\nroute c.A -> b\n"
        )
    with pytest.raises(ValueError, match="unknown stage"):
        I.parse_network("stage a theta=0.8 phi=0\nroute a.A -> ghost\n")


def test_network_root_and_reach_errors_name_the_stages():
    def message(text):
        with pytest.raises(ValueError) as info:
            I.parse_network(text)
        return str(info.value)

    stage = "stage {} theta=0.8 phi=0\n".format
    # A cycle with no root: every stage is named, in file order.
    assert message(stage("a") + stage("b") + "route b.A -> a\nroute a.A -> b\n") == (
        "network must have exactly one root, found 0 (every stage is routed to: 'a', 'b')"
    )
    # A cycle beside a rooted tree is named as the unreachable stages.
    assert message(
        stage("a") + stage("c") + stage("b") + "route b.A -> c\nroute c.A -> b\n"
    ) == "network contains stages unreachable from the root: 'c', 'b'"
    # At most five names, then '...'.
    assert message("".join(stage(f"s{k}") for k in range(7))) == (
        "network must have exactly one root, found 7 ('s0', 's1', 's2', 's3', 's4', ...)"
    )
    assert message(stage("r") + stage("s") + "route r.A -> s\n" + stage("t")).endswith(
        "found 2 ('r', 't')"
    )


def test_stage_validates_on_construction():
    for theta, phi in ((0.5, float("nan")), (0.5, math.inf), (5.0, 0.0), (-0.1, 0.0), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="theta must lie in|phi must be finite"):
            I.SagnacStage(theta, phi)
    stage = I.SagnacStage(math.pi, -7.0)  # bounds are inclusive; phi any finite value
    assert "omega" not in vars(stage)  # omega and psi stay lazy
    assert math.isfinite(stage.omega) and math.isfinite(stage.psi)


def test_network_model_faults_numbered():
    with pytest.raises(ValueError, match=r"^line 1: theta must lie in \[0, pi\]$"):
        I.parse_network("stage s theta=5 phi=0\n")
    with pytest.raises(ValueError, match="^line 2: cascade depth must lie between 1 and 5$"):
        I.parse_network("# deep\ntree 9\n")
    with pytest.raises(ValueError, match="^line 3: route to unknown stage 'ghost'$"):
        I.parse_network("stage a theta=0.8 phi=0\n\nroute a.A -> ghost\n")
    with pytest.raises(ValueError, match="^line 2: route from unknown stage 'b'$"):
        I.parse_network("stage a theta=0.8 phi=0\nroute b.A -> a\n")


# ---------------------------------------------------------------------------
# phase device
# ---------------------------------------------------------------------------

def jones_chain_oracle(direction, rf, rs):
    """Literal five-element matrix product, built independently."""
    def rot(a):
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

    diag = np.diag([cmath.exp(1j * rf), cmath.exp(1j * rs)])
    wp = rot(math.pi / 4) @ diag @ rot(-math.pi / 4)
    if direction == "forward":
        chain = rot(math.pi / 4) @ wp @ rot(-math.pi / 4)
    else:
        chain = rot(-math.pi / 4) @ wp @ rot(math.pi / 4)
    out = chain @ np.array([0.0, 1.0])
    return out, cmath.phase(out[1])


def test_phase_device_forward_quarter():
    out, phase = I.phase_device(I.VERTICAL, "forward", math.pi / 2, 0.0)
    assert phase == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(out.h) < 1e-12
    assert abs(abs(out.v) - 1.0) < 1e-12


def test_phase_device_isotropic_plate():
    _, pf = I.phase_device(I.VERTICAL, "forward", 1.1, 1.1)
    _, pb = I.phase_device(I.VERTICAL, "backward", 1.1, 1.1)
    assert pf == pytest.approx(pb, abs=1e-12)


def test_phase_device_against_jones_oracle():
    rng = np.random.default_rng(47)
    for _ in range(100):
        rf, rs = rng.uniform(0.0, 2 * math.pi, size=2)
        for direction in ("forward", "backward"):
            out, phase = I.phase_device(I.VERTICAL, direction, rf, rs)
            oracle_vec, oracle_phase = jones_chain_oracle(direction, rf, rs)
            assert abs(out.h - oracle_vec[0]) < 1e-12
            assert abs(out.v - oracle_vec[1]) < 1e-12
            assert abs(
                cmath.exp(1j * phase) - cmath.exp(1j * oracle_phase)
            ) < 1e-12
        _, pf = I.phase_device(I.VERTICAL, "forward", rf, rs)
        _, pb = I.phase_device(I.VERTICAL, "backward", rf, rs)
        assert abs(
            cmath.exp(1j * (pf - pb)) - cmath.exp(1j * (rf - rs))
        ) < 1e-12


def test_phase_device_rejects_horizontal():
    with pytest.raises(ValueError, match="vertical"):
        I.phase_device(I.JonesVector(1.0, 0.0), "forward", 0.4, 0.2)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 0.4), "axis_angle"),
    ((math.inf, 0.4), "axis_angle"),
    ((0.3, math.nan), "phase_axis"),
    ((0.3, 0.4, -math.inf), "phase_perp"),
])
def test_retarder_refuses_non_finite_inputs(args, name):
    with pytest.raises(ValueError, match=f"retarder {name} must be finite"):
        I.retarder(*args)


@pytest.mark.parametrize("direction, fast, slow, name", [
    ("forward", math.nan, 0.0, "phase_axis"),
    ("backward", 0.3, math.inf, "phase_perp"),
])
def test_phase_device_refuses_non_finite_retardance(direction, fast, slow, name):
    with pytest.raises(ValueError, match=f"retarder {name} must be finite"):
        I.phase_device(I.VERTICAL, direction, fast, slow)


@pytest.mark.parametrize("h, v", [
    (math.nan, 1.0), (0.0, complex(1.0, math.inf)), (complex(math.nan, 0.0), 0.0),
])
def test_jones_vector_refuses_non_finite_components(h, v):
    with pytest.raises(ValueError, match="Jones vector components must be finite"):
        I.JonesVector(h, v)


# ---------------------------------------------------------------------------
# faraday isolator
# ---------------------------------------------------------------------------

def test_isolator_forward_diagonal():
    res = I.faraday_isolator(I.DIAG_PLUS45, "forward")
    assert res.transmitted.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert abs(res.transmitted.h) < 1e-12
    assert res.deflected_pbs1.norm_sq() < 1e-12
    assert res.deflected_pbs2.norm_sq() < 1e-12


def test_isolator_backward_vertical_deflects_pbs1():
    res = I.faraday_isolator(I.JonesVector(0.0, 1.0), "backward")
    assert res.deflected_pbs1.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert res.transmitted.norm_sq() < 1e-12


def test_isolator_backward_horizontal_deflects_pbs2():
    res = I.faraday_isolator(I.JonesVector(1.0, 0.0), "backward")
    assert res.deflected_pbs2.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_isolator_round_trip_blocks_return():
    fwd = I.faraday_isolator(I.DIAG_PLUS45, "forward")
    back = I.faraday_isolator(fwd.transmitted, "backward")
    assert back.transmitted.norm_sq() < 1e-12


def test_isolator_energy_conserved():
    rng = np.random.default_rng(3)
    for _ in range(20):
        j = I.JonesVector(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        )
        for direction in ("forward", "backward"):
            res = I.faraday_isolator(j, direction)
            total = sum(res.powers().values())
            assert total == pytest.approx(j.norm_sq(), abs=1e-9)
