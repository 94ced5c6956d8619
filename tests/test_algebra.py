import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagdisc import algebra as alg
from lagdisc.families import flat_disc, nonminimal_map, sw_cone

finite4 = st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4)


def vec(*c):
    return np.array(c, dtype=float)


# ---------------------------------------------------------------------------
# complex structures
# ---------------------------------------------------------------------------
def test_apply_I_examples():
    assert np.allclose(alg.apply_I(vec(1, 0, 0, 0)), vec(0, 1, 0, 0))
    assert np.allclose(alg.apply_I(vec(0, 0, 1, 0)), vec(0, 0, 0, 1))


def test_apply_J_examples():
    assert np.allclose(alg.apply_J(vec(0, 0, 1, 0)), vec(1, 0, 0, 0))


@given(finite4)
@settings(max_examples=200)
def test_I_squared(coords):
    v = np.array(coords)
    assert np.allclose(alg.apply_I(alg.apply_I(v)), -v, atol=1e-14)


@given(finite4)
@settings(max_examples=200)
def test_J_squared(coords):
    v = np.array(coords)
    assert np.allclose(alg.apply_J(alg.apply_J(v)), -v, atol=1e-14)


@given(finite4)
@settings(max_examples=200)
def test_I_J_anticommute(coords):
    v = np.array(coords)
    assert np.allclose(alg.apply_I(alg.apply_J(v)) + alg.apply_J(alg.apply_I(v)),
                       0.0, atol=1e-14)


def test_quaternion_relations_bulk(rng):
    v = rng.normal(size=(1000, 4))
    assert np.max(np.abs(alg.apply_I(alg.apply_I(v)) + v)) <= 1e-14
    assert np.max(np.abs(alg.apply_J(alg.apply_J(v)) + v)) <= 1e-14
    K = alg.apply_I(alg.apply_J(v))
    assert np.max(np.abs(alg.apply_I(alg.apply_J(K)) + v)) <= 1e-14
    assert np.max(np.abs(alg.apply_I(alg.apply_J(v))
                         + alg.apply_J(alg.apply_I(v)))) <= 1e-14


# ---------------------------------------------------------------------------
# symplectic form and holomorphic area
# ---------------------------------------------------------------------------
def test_symplectic_examples(rng):
    assert alg.symplectic(vec(1, 0, 0, 0), vec(0, 1, 0, 0)) == 1.0
    assert alg.symplectic(vec(1, 0, 0, 0), vec(0, 0, 1, 0)) == 0.0
    a = rng.normal(size=(100, 4))
    assert np.max(np.abs(alg.symplectic(a, a))) <= 1e-14 * np.max(np.abs(a)) ** 2


def test_symplectic_is_inner_with_I(rng):
    a = rng.normal(size=(1000, 4))
    b = rng.normal(size=(1000, 4))
    lhs = alg.symplectic(a, b)
    rhs = alg.inner(alg.apply_I(a), b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs) + 1)


def test_inner_bitwise_matches_sum_reduction(rng):
    """The fixed-order sum equals numpy's length-4 reduction bitwise."""
    frames = rng.normal(size=(18240, 2, 4))
    e_x, e_y = frames[:, 0, :], frames[:, 1, :]       # strided (T, 4) views
    stacks = rng.normal(size=(2, 5, 7, 4))
    pairs = [(e_x, e_y), (e_x, e_x), (e_y, e_y), (stacks[0], stacks[1]),
             (frames[7, 0], frames[7, 1])]
    for a, b in pairs:
        got = alg.inner(a, b)
        want = np.sum(a * b, axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_holomorphic_area_examples():
    assert alg.holomorphic_area(vec(1, 0, 0, 0), vec(0, 0, 1, 0)) == 1 + 0j
    # frame of the (1,2) cone at r=1, theta=pi/2: equals e2lam * gbar = -2i
    fr = sw_cone(1, 2).frame(1.0, np.pi / 2)
    hol = alg.holomorphic_area(fr.e_x, fr.e_y)
    assert abs(hol - (-2j)) <= 1e-12


def test_holomorphic_area_antisymmetry(rng):
    a = rng.normal(size=(200, 4))
    scale = np.max(np.abs(a)) ** 2
    assert np.max(np.abs(alg.holomorphic_area(a, a))) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# Lagrangian angle
# ---------------------------------------------------------------------------
def test_angle_flat_frame():
    e2lam, gbar = alg.lagrangian_angle(vec(1, 0, 0, 0), vec(0, 0, 1, 0))
    assert e2lam == 1.0 and gbar == 1.0 + 0j


def test_angle_sw_cone_paper_value():
    fr = sw_cone(1, 2).frame(1.0, np.pi / 2)
    e2lam, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
    assert abs(e2lam - 2.0) <= 1e-12
    assert abs(gbar - np.exp(-1j * np.pi / 2)) <= 1e-12


def test_angle_nonminimal(rng):
    x = rng.uniform(-0.9, 0.9, 100)
    y = rng.uniform(-0.3, 0.3, 100)
    fr = nonminimal_map().frame_xy(x, y)
    e2lam, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
    assert np.max(np.abs(e2lam - 1.0)) <= 1e-12
    assert np.max(np.abs(gbar - np.exp(-1j * x))) <= 1e-12


def test_angle_degenerate_frame():
    with pytest.raises(ValueError, match="tangent frame is numerically degenerate"):
        alg.lagrangian_angle(np.zeros(4), np.zeros(4))


def test_holomorphic_vs_lagrangian_frames(rng):
    # the omega/angle distinction: a holomorphic frame e_y = I e_x is
    # symplectic (omega = |e_x|^2 != 0) and its angle degenerates because
    # the (2,0)-form vanishes on complex lines; a quaternionic frame
    # e_y = J e_x spans a Lagrangian plane (omega = 0) with
    # |dz1^dz2| = |e_x|^2 and angle -1
    e_x = rng.normal(size=(50, 4))
    e2 = alg.inner(e_x, e_x)

    e_y = alg.apply_I(e_x)
    assert np.max(np.abs(alg.symplectic(e_x, e_y) - e2) / e2) <= 1e-12
    assert np.max(np.abs(alg.holomorphic_area(e_x, e_y)) / e2) <= 1e-12
    with pytest.raises(ValueError, match="holomorphic area vanishes"):
        alg.lagrangian_angle(e_x, e_y)

    e_y = alg.apply_J(e_x)
    assert np.max(np.abs(alg.symplectic(e_x, e_y)) / e2) <= 1e-12
    hol = alg.holomorphic_area(e_x, e_y)
    assert np.max(np.abs(np.abs(hol) - e2) / e2) <= 1e-12
    _, gbar = alg.lagrangian_angle(e_x, e_y)
    assert np.max(np.abs(gbar + 1.0)) <= 1e-12


def test_polar_frame_identity_all_families(rng):
    # d_theta u / r + gbar * J d_r u = 0 with gbar computed from the frame
    for ex in (flat_disc(np.eye(2)), sw_cone(1, 2), sw_cone(2, 3),
               sw_cone(3, 4), nonminimal_map()):
        r = rng.uniform(0.05, 0.999, 1000)
        th = rng.uniform(-np.pi, np.pi, 1000)
        fr = ex.frame(r, th)
        e_r = np.cos(th)[:, None] * fr.e_x + np.sin(th)[:, None] * fr.e_y
        e_t = -np.sin(th)[:, None] * fr.e_x + np.cos(th)[:, None] * fr.e_y
        _, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
        resid = e_t + alg.complex_scale(gbar, alg.apply_J(e_r))
        assert np.max(np.abs(resid)) <= 1e-12

