"""Wider cross-checks: more originals, parameter sweeps, consistency sums.

These push the same two-route agreement as the acceptance suite over a
broader slice of the parameter space, plus a few interface paths the
focused module tests do not reach.
"""

import cmath
import math

import pytest

from fltrans.laplace import inverse_laplace
from fltrans.numerics import QuadratureSpec, integrate_adaptive, \
    integrate_semi_infinite
from fltrans.pairs import catalog_lookup, lookup, make_pair_15
from fltrans.rte2d import TransportParams, fl_intensity
from fltrans.verify import fl_inversion, spacetime_transform, \
    verify_pair_mixed

SPEC = QuadratureSpec()


@pytest.mark.parametrize("oid", ["exp_decay:0.5", "exp_decay:2", "poly_exp:2,1"])
@pytest.mark.parametrize("pid,d", [("1.2", 2), ("2.1", 3), ("2.2", 2),
                                   ("2.4", 2)])
def test_more_originals_across_rows(oid, pid, d):
    f = catalog_lookup(oid)
    rep = verify_pair_mixed(pid, d, f, [(0.5, 1.0), (1.5, 2.0)], SPEC, 48)
    assert rep.passed, (oid, pid, d, rep.rel_errors, rep.failures)


@pytest.mark.parametrize("oid", ["sine:1", "unit"])
@pytest.mark.parametrize("pid", ["1.1", "1.2", "1.4"])
def test_growing_originals_on_type1_rows(oid, pid):
    # type-1 rows keep phi = s, so sigma0 = 0 originals are admissible
    f = catalog_lookup(oid)
    rep = verify_pair_mixed(pid, 2, f, [(0.5, 1.0), (1.0, 2.0)], SPEC, 48)
    assert rep.passed, (oid, pid, rep.rel_errors, rep.failures)


@pytest.mark.parametrize("a", [0.4, 1.7])
@pytest.mark.parametrize("d", [2, 3])
def test_pair_15_parameter_sweep(a, d):
    # two-route agreement for non-default shift parameters
    pair = make_pair_15(a)
    f = catalog_lookup("exp_decay:1")
    for k, t in ((0.5, 1.0), (2.0, 2.0)):
        lhs = spacetime_transform(pair, d, f, k, t, SPEC)
        rhs = fl_inversion(pair, d, f, k, t, 48)
        assert lhs == pytest.approx(rhs, rel=1e-7), (a, d, k, t)


def test_row_11_d2_unit_original_oracle():
    # with f = 1 the d=2 row 1.1 value is int_0^t J0(k r) dr
    from fltrans.radial_fourier import kernel_ghat
    unit = catalog_lookup("unit")
    k, t = 1.5, 2.0
    oracle = integrate_adaptive(lambda r: kernel_ghat(2, k, r), 0.0, t, SPEC)
    assert oracle.converged
    lhs = spacetime_transform(lookup("1.1"), 2, unit, k, t, SPEC)
    rhs = fl_inversion(lookup("1.1"), 2, unit, k, t, 48)
    assert lhs == pytest.approx(oracle.value, rel=1e-9)
    assert rhs == pytest.approx(oracle.value, rel=1e-9)


def test_row_14_convolution_oracle():
    # L^{-1}[s^{-1} e^{-k^2/(4s)}] = J0(k sqrt(t)): the d=2 row 1.4 image
    # against exp_decay(1) is the convolution with e^{-t}
    from fltrans.radial_fourier import kernel_ghat
    f = catalog_lookup("exp_decay:1")
    k, t = 1.0, 2.0
    oracle = integrate_adaptive(
        lambda tau: kernel_ghat(2, k, math.sqrt(tau)) * math.exp(-(t - tau)),
        0.0, t, SPEC)
    assert oracle.converged
    rhs = fl_inversion(lookup("1.4"), 2, f, k, t, 48)
    lhs = spacetime_transform(lookup("1.4"), 2, f, k, t, SPEC)
    assert rhs == pytest.approx(oracle.value, rel=1e-9)
    assert lhs == pytest.approx(oracle.value, rel=1e-9)


def test_row_22_heat_kernel_oracle():
    # row 2.2's image for exp_decay(a) is s^{-d/2} a.../(k^2/s + a):
    # for d = 2 the original is exactly e^{-k^2 t / ...} -- derive:
    # s^{-1}/(k^2/s + 1) = 1/(s + k^2), original e^{-k^2 t}
    f = catalog_lookup("exp_decay:1")
    for k in (0.5, 1.0, 2.0):
        for t in (0.5, 2.0):
            rhs = fl_inversion(lookup("2.2"), 2, f, k, t, 48)
            assert rhs == pytest.approx(math.exp(-k * k * t), rel=1e-9)
            lhs = spacetime_transform(lookup("2.2"), 2, f, k, t, SPEC)
            assert lhs == pytest.approx(math.exp(-k * k * t), rel=1e-7)


def test_inverse_laplace_accepts_laplace_image_and_callable():
    # a catalog image is itself the callable inverse_laplace takes
    a = inverse_laplace(catalog_lookup("exp_decay:1").fhat, 1.0, 32)
    b = inverse_laplace(lambda s: 1.0 / (s + 1.0), 1.0, 32)
    assert a == b


def test_semi_infinite_complex_integrand():
    s = complex(1.0, 2.0)
    res = integrate_semi_infinite(lambda t: cmath.exp(-s * t), 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0 / s, rel=1e-11)


def test_dyson_angular_consistency():
    # the directional FL radiance is the directional free propagator
    # 1/(s + c/ell + i c k mu) applied to the initial condition A0/(2 pi)
    # plus the in-scattering source (c/ell) ihat(k, s); integrating it over
    # the unit circle must reproduce fl_intensity (the resolvent identity
    # behind the solution)
    p = TransportParams(1.0, 1.0, 1.0)

    def radiance(k, s, mu):
        source = (p.A0 + (p.c / p.ell) * fl_intensity(p, k, s)) / (2.0 * math.pi)
        return source / (s + p.c / p.ell + 1j * p.c * k * mu)

    for k in (0.5, 1.0, 2.0):
        for s in (0.5, 1.5):
            res = integrate_adaptive(
                lambda th: radiance(k, complex(s), math.cos(th)).real,
                0.0, 2.0 * math.pi, SPEC)
            assert res.converged
            want = fl_intensity(p, k, complex(s)).real
            assert res.value == pytest.approx(want, rel=1e-10), (k, s)


def test_eval_fl_complex_s_branch_consistency():
    # image values on conjugate points are conjugate (real originals)
    f = catalog_lookup("exp_decay:1")
    for pid in ("1.2", "2.1", "2.3", "2.4"):
        pair = lookup(pid)
        s = complex(0.8, 1.3)
        up = pair.fl_profile(1.0, 2, f.fhat)(s)
        dn = pair.fl_profile(1.0, 2, f.fhat)(s.conjugate())
        assert up == pytest.approx(dn.conjugate(), rel=1e-12)


def test_cli_out_files(tmp_path):
    from fltrans.cli import main
    out = tmp_path / "grid.csv"
    code = main(["rte", "--t", "0.5,1", "--r", "0.25", "--energy",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("r,t,smooth,ballistic_weight\n")
    energy = tmp_path / "grid.csv.energy.csv"
    assert energy.read_text().startswith("t,energy\n")

    pairs_out = tmp_path / "registry.txt"
    assert main(["pairs", "--out", str(pairs_out)]) == 0
    assert "2.4" in pairs_out.read_text()

    tr_out = tmp_path / "tr.csv"
    assert main(["transform", "--dim", "3", "--profile", "exponential",
                 "--grid", "0,1", "--out", str(tr_out)]) == 0
    lines = tr_out.read_text().splitlines()
    assert lines[0] == "x,value,error_estimate,converged"
    # d=3 exponential at k=0: 4 pi int r^2 e^-r dr = 8 pi
    assert float(lines[1].split(",")[1]) == pytest.approx(8 * math.pi, rel=1e-9)
