"""Continuum oracle for the stationarity functional of the non-minimal example.

On the exact map u = (e^{-ix}, iy) and its exact frames, Gauss-Legendre
quadrature in r and the trapezoid rule in theta give

    S(f) = int_D sum_k <I Hess f(u) d_k u, d_k u> dA,

the first variation of the Dirichlet energy along the Hamiltonian field
I grad f, and the normalization the discrete tester uses,
|S(f)| / (max |Hess f(u)|_F int_D |du|^2).  The limits of the discrete
stationarity values are these numbers, so the oracle tells a wrong test
problem apart from a discretization floor.
"""

import numpy as np
import pytest

from lagdisc import algebra as alg
from lagdisc import domains as dom
from lagdisc import families as fam
from lagdisc import hamiltonians as hams
from lagdisc import residuals as res
from conftest import centred_differences, z1_arc_reference_gradient


def continuum_stationarity(example, fs, n_r=400, n_theta=1600, block=40):
    """[(raw S(f), normalized |S(f)|) for f in fs] by tensor quadrature on
    the unit disc, ``block`` Gauss-Legendre radii at a time.  Each block's
    frames enter once, through the packed frame identity of
    ``residuals._frame_block``, <I(H e), e> = <H, sym((-I e) (x) e)>_F,
    which every packed Hessian is then dotted with."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (x + 1.0)
    w_r = 0.5 * w * r * (2 * np.pi / n_theta)
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    total, h_sq, grad_sq = np.zeros(len(fs)), np.zeros(len(fs)), 0.0
    for s in range(0, n_r, block):
        R, T = (a.ravel() for a in np.meshgrid(r[s:s + block], theta,
                                                indexing="ij"))
        weight = np.repeat(w_r[s:s + block], n_theta)
        frame = example.frame(R, T)
        grad_sq += float(weight @ (alg.inner(frame.e_x, frame.e_x)
                                   + alg.inner(frame.e_y, frame.e_y)))
        S = weight[:, None] * res._frame_block(
            np.stack([frame.e_x, frame.e_y], axis=1))
        z = example.value(R, T)
        for k, f in enumerate(fs):
            Hu = f.hessian(z)
            total[k] += np.einsum("ti,ti->", Hu, S)
            h_sq[k] = max(h_sq[k], np.max((Hu * Hu) @ hams.UPPER_WEIGHTS))
    return [(float(t), float(abs(t) / (np.sqrt(h) * grad_sq)))
            for t, h in zip(total, h_sq)]


def _z1_arc_with_old_sign(center, width):
    """The z1-arc function with A = -(1 - phi^2) B'/phi, the sign paired with
    G = +y, differentiated as before the closed form (its Hessian is a
    centred difference of the gradient, step 1e-5, packed)."""
    grad = z1_arc_reference_gradient(center, width, a_sign=-1.0)
    return hams.Hamiltonian(
        None, grad,
        lambda z: centred_differences(grad, z, 1e-5, symmetrize=True)[
            ..., hams.UPPER_I, hams.UPPER_J])


@pytest.mark.parametrize("center,width,raw,normalized", [
    (0.45, 0.35, -0.329, 8.83e-5), (0.6, 0.25, -0.346, 1.35e-4)])
def test_oracle_reproduces_old_sign_limits(center, width, raw, normalized):
    # negative control: with the old sign the first variation does not
    # vanish, and the oracle gives the values the discrete tester levelled
    # off at (8.7e-5 and 1.3e-4 at 96x384)
    [(got_raw, got)] = continuum_stationarity(
        fam.nonminimal_map(), [_z1_arc_with_old_sign(center, width)], 200, 800)
    assert got_raw == pytest.approx(raw, rel=5e-3)
    assert got == pytest.approx(normalized, rel=5e-3)


def test_oracle_vanishes_on_the_curve_report_batch():
    nm = fam.nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    batch = res.curve_report_batch(d, nm, size=12, seed=5)
    assert sum(f.name.startswith("z1arc") for f in batch) == 6
    for f, (_, normalized) in zip(batch, continuum_stationarity(nm, batch)):
        assert normalized <= 1e-8, f.name


def test_discrete_stationarity_order_at_least_2(mesh_cache):
    nm = fam.nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    batch = res.curve_report_batch(d, nm, size=12, seed=5)
    vals, hs = [], []
    for rings, sectors in [(24, 96), (48, 192), (96, 384)]:
        m = mesh_cache(rings, sectors)
        vals.append(res.stationarity_test(fam.sample(nm, m), d, batch))
        hs.append(m.h_max)
    assert res.fit_order(hs, vals) >= 2.0
