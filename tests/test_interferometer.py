import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnacsim import interferometer as I
from sagnacsim import modes as M

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
            plus = M.oam_phase(input_state, n.stage.omega)
            minus = M.oam_phase(input_state, -n.stage.omega) * cmath.exp(1j * n.stage.phi)
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


def test_parse_network_builds_a_chain_deeper_than_the_recursion_limit():
    lines = [f"stage s{i} theta=0.8 phi=0" for i in range(3000)]
    lines += [f"route s{i}.A -> s{i + 1}" for i in range(2999)]
    node = I.parse_network("\n".join(lines) + "\n")
    for i in range(3000):
        assert (node.label, node.child_b.label) == (f"s{i}", f"s{i}.B")
        node = node.child_a
    assert node.is_leaf and node.label == "s2999.A"


_hg_index = st.integers(0, M.MAX_ORDER).flatmap(
    lambda order: st.integers(0, order).map(lambda n: (n, order - n))
)
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
def random_network(draw):
    """Text of a network file: 1-12 stages at random theta and phi, each
    stage after the first routed from a random free port, so that leaves sit
    at different depths; lines in random order."""
    count = draw(st.integers(1, 12))
    lines = [
        f"stage s{i} theta={draw(st.floats(0.0, math.pi))!r} phi={draw(st.floats(-10.0, 10.0))!r}"
        for i in range(count)
    ]
    free = [("s0", "A"), ("s0", "B")]
    for child in range(1, count):
        parent, port = free.pop(draw(st.integers(0, len(free) - 1)))
        lines.append(f"route {parent}.{port} -> s{child}")
        free += [(f"s{child}", "A"), (f"s{child}", "B")]
    return "\n".join(draw(st.permutations(lines))) + "\n"


_low_hg_index = st.integers(0, 40).flatmap(
    lambda order: st.integers(0, order).map(lambda n: (n, order - n))
)


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
