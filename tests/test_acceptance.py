"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run ``pytest -s`` to see them
all) and asserts every stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from fgig import (
    NaturalParams,
    SpreadForm,
    SupportForm,
    from_support,
    reparameterize,
    solve_support,
    spectral_roots,
)
from fgig.asymptotics import convergence_curve, endpoint_asymptotics
from fgig.characterization import (
    compare_series,
    initial_coefficients,
    n_prime,
    oracle_coefficients,
    series_coefficients,
    solve_c,
    verify_fixed_point,
)
from fgig.convolution import free_convolve
from fgig.entropy import (
    gibbs_bound,
    gig_entropy,
    log_bessel_k,
    maximality_scan,
)
from fgig.levy import (
    fsd_report,
    fsd_threshold,
    levy_triplet,
    reconstruct_cumulant,
)
from fgig.measures import (
    FreePoissonParams,
    build_fgig,
    build_free_poisson,
    fgig_density,
    kolmogorov_distance,
    mode,
    mode_quadratic,
)
from fgig.params import support_residuals
from fgig.transforms import fid_certificate, r_fgig, r_free_poisson

from conftest import (bessel_k_half_integer, endpoint_deviation,
                      fsd_discriminant_spread, quartic_under_root)


def report(number, passed, detail):
    status = "pass" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {detail}")
    assert passed, detail


def random_support(rng):
    while True:
        a = rng.uniform(0.05, 3.0)
        b = a + rng.uniform(0.05, 6.0)
        lam = rng.uniform(-6.0, 6.0)
        if abs(lam) * ((math.sqrt(a) - math.sqrt(b))
                       / (math.sqrt(a) + math.sqrt(b))) ** 2 < 1.0:
            return SupportForm(a, b, lam)


def random_natural(rng, lam_lo=-5.0, lam_hi=5.0):
    return NaturalParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                         rng.uniform(lam_lo, lam_hi))


def test_c01_parameter_consistency():
    rng = np.random.default_rng(101)
    worst_rt = worst_res = 0.0
    for _ in range(100):
        s = random_support(rng)
        p = from_support(s)
        back = solve_support(p)
        worst_rt = max(worst_rt, abs(back.a - s.a) / s.a,
                       abs(back.b - s.b) / s.b)
        r1, r2 = support_residuals(p, back)
        sab = math.sqrt(back.a * back.b)
        scale1 = max(1.0, abs(1 - p.lam), p.alpha * sab,
                     p.beta * (back.a + back.b) / (2 * back.a * back.b))
        scale2 = max(1.0, abs(1 + p.lam), p.beta / sab,
                     p.alpha * (back.a + back.b) / 2)
        worst_res = max(worst_res, abs(r1) / scale1, abs(r2) / scale2)
    fixture = from_support(SupportForm(1.0, 4.0, 0.0))
    back = solve_support(NaturalParams(2.0, 8.0, 0.0))
    fixture_err = max(abs(fixture.alpha - 2.0), abs(fixture.beta - 8.0),
                      abs(back.a - 1.0), abs(back.b - 4.0))
    ok = worst_rt <= 1e-10 and worst_res <= 1e-12 and fixture_err <= 1e-14
    report(1, ok, f"round-trip {worst_rt:.2e} (<=1e-10), residual "
                  f"{worst_res:.2e} (<=1e-12), fixture {fixture_err:.2e} "
                  f"(<=1e-14)")


def test_c02_root_identities():
    rng = np.random.default_rng(102)
    worst = 0.0
    signs_ok = True
    for _ in range(100):
        p = random_natural(rng, -6.0, 6.0)
        r = spectral_roots(p)
        a2 = p.alpha ** 2
        worst = max(worst,
                    abs(4 * p.beta * r.eta * r.delta ** 2 - a2) / a2,
                    abs(quartic_under_root(p, 0.0) - a2) / a2,
                    abs(quartic_under_root(p, p.alpha)
                        - (p.lam * p.alpha) ** 2) / a2)
        signs_ok = signs_ok and r.gamma < 0 and r.delta < 0
        if p.lam == 0:
            signs_ok = signs_ok and r.eta == pytest.approx(p.alpha, rel=1e-12)
        else:
            signs_ok = signs_ok and r.eta > p.alpha * (1 - 1e-12)
    eq_case = spectral_roots(NaturalParams(1.3, 0.6, 0.0))
    signs_ok = signs_ok and abs(eq_case.eta - 1.3) <= 1e-12 * 1.3
    ok = worst <= 1e-12 and signs_ok
    report(2, ok, f"identity residuals {worst:.2e} (<=1e-12 rel), sign "
                  f"pattern {'ok' if signs_ok else 'violated'}")


def test_c03_fid_certificate():
    # stated: max Im r <= 1e-9 on the lower half-plane, read on the axis,
    # where the maximum principle puts its supremum.  Two routes: the
    # theorem (the sign pattern delta < 0 < alpha <= eta gives tau >= 0),
    # and the boundary values of r against tau on the cut, with a lab gate
    # of 2e-9 of max |r| against a box worst of 2.1e-11 (71,000 triples,
    # log alpha, log beta in [-6, 6], lam in [-50, 50])
    rng = np.random.default_rng(103)
    worst = worst_cut = -math.inf
    signs_ok = passed = True
    for _ in range(20):
        cert = fid_certificate(random_natural(rng, -5.0, 5.0))
        worst = max(worst, cert.max_imag)
        worst_cut = max(worst_cut, cert.cut_residual)
        signs_ok = signs_ok and cert.sign_pattern
        passed = passed and cert.passed
    ok = worst <= 1e-9 and worst_cut <= 2e-9 and signs_ok and passed
    report(3, ok, f"theorem: sign pattern {'ok' if signs_ok else 'violated'}; "
                  f"boundary: max Im r {worst:.2e} (<=1e-9 stated), cut "
                  f"against tau {worst_cut:.2e} of max|r| (<=2e-9 lab), "
                  f"20 triples")


def test_c04_levy_khintchine():
    # stated: reconstruction and both bounds 1e-6.  Lab gates: 1e-13
    # relative on the reconstruction and 1e-12 of max(1, r(0)) on the
    # bounds, against box worsts of 3.0e-15 and 1.0e-16 (1300 triples,
    # log alpha, log beta in [-6, 6], lam in [-50, 50])
    rng = np.random.default_rng(104)
    worst = worst_rel = worst_bound = 0.0
    for _ in range(10):
        p = random_natural(rng, -4.0, 4.0)
        t = levy_triplet(p)
        worst = max(worst, t.drift, t.semicircular)
        worst_bound = max(worst_bound, max(t.drift, t.semicircular)
                          / max(1.0, abs(r_fgig(p, 0.0))))
        zs = rng.uniform(-3, 3, 50) + 1j * rng.uniform(-3, -0.1, 50)
        for z in zs:
            z = complex(z)
            want = z * r_fgig(p, z)
            err = abs(want - reconstruct_cumulant(t, z))
            worst = max(worst, err)
            worst_rel = max(worst_rel, err / abs(want))
    ok = worst <= 1e-6 and worst_rel <= 1e-13 and worst_bound <= 1e-12
    report(4, ok, f"reconstruction and drift/semicircular bounds {worst:.2e} "
                  f"(<=1e-6 stated); reconstruction {worst_rel:.2e} rel "
                  f"(<=1e-13 lab), bounds {worst_bound:.2e} of max(1, r(0)) "
                  f"(<=1e-12 lab)")


def test_c05_fsd():
    # critical spread ratio fixture
    fixture_err = abs(fsd_threshold(3.0, 4.0) + 4.0 * math.sqrt(3.0) / 9.0)

    # bisection localization of the discriminant sign change
    rng = np.random.default_rng(105)
    worst_loc = 0.0
    for _ in range(5):
        A = 10 ** rng.uniform(-0.5, 0.5)
        B = A * rng.uniform(1.5, 4.0)
        lam_star = fsd_threshold(A, B)
        lo, hi = lam_star - 0.5, lam_star + 0.5
        assert fsd_discriminant_spread(SpreadForm(A, B, lo)) < 0
        assert fsd_discriminant_spread(SpreadForm(A, B, hi)) > 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if fsd_discriminant_spread(SpreadForm(A, B, mid)) < 0:
                lo = mid
            else:
                hi = mid
        worst_loc = max(worst_loc, abs(0.5 * (lo + hi) - lam_star))

    # the slope route's monotonicity agrees with the verdict
    agree = True
    count = 0
    while count < 20:
        A = 10 ** rng.uniform(-1, 1)
        B = A * rng.uniform(1.05, 5.0)
        lam = rng.uniform(-4.0, 1.5)
        if not max(1.0, abs(lam)) * A < B:
            continue
        agree = agree and fsd_report(
            from_support(reparameterize(SpreadForm(A, B, lam)))).agrees
        count += 1
    ok = fixture_err <= 1e-12 and worst_loc <= 1e-9 and agree
    report(5, ok, f"threshold fixture {fixture_err:.2e} (<=1e-12), bisection "
                  f"{worst_loc:.2e} (<=1e-9), verdict/slope agree: {agree}")


def test_c06_unimodality():
    fixture_err = abs(mode(NaturalParams(2.0, 8.0, 0.0))
                      - (-11.0 + math.sqrt(153.0)))
    rng = np.random.default_rng(106)
    worst_res = 0.0
    monotone = True
    for _ in range(20):
        p = random_natural(rng, -4.0, 4.0)
        x = mode(p)
        s = solve_support(p)
        y = x / (math.sqrt(s.a) * math.sqrt(s.b))  # the quadratic's unit
        c2, c1, c0 = mode_quadratic(p)
        scale = max(abs(c2 * y * y), abs(c1 * y), abs(c0))
        worst_res = max(worst_res, abs(c2 * y * y + c1 * y + c0) / scale)
        xs = np.linspace(s.a, s.b, 10_000)
        ys = fgig_density(p, xs)
        peak = np.max(ys)
        before = ys[xs <= x]
        after = ys[xs >= x]
        monotone = monotone and bool(
            np.all(np.diff(before) >= -1e-9 * peak)
            and np.all(np.diff(after) <= 1e-9 * peak))
    ok = fixture_err <= 1e-10 and worst_res <= 1e-10 and monotone
    report(6, ok, f"mode fixture {fixture_err:.2e} (<=1e-10), quadratic "
                  f"residual {worst_res:.2e} (<=1e-10), monotone: {monotone}")


def test_c07_convolution_identity():
    start = time.time()
    worst_k = 0.0
    for al, be, lam in [(2.0, 8.0, 1.0), (1.0, 1.0, 2.0)]:
        x_law = build_fgig(NaturalParams(al, be, -lam), 1024)
        y_law = build_free_poisson(FreePoissonParams(1.0 / al, lam), 1024)
        out = free_convolve(x_law, y_law)
        target = build_fgig(NaturalParams(al, be, lam), 1024)
        worst_k = max(worst_k, kolmogorov_distance(out, target))
    elapsed = time.time() - start

    rng = np.random.default_rng(107)
    zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, -0.05, 100)
    worst_r = 0.0
    for al, be, lam in [(2.0, 8.0, 1.0), (1.0, 1.0, 2.0)]:
        total = (r_fgig(NaturalParams(al, be, -lam), zs)
                 + r_free_poisson(FreePoissonParams(1.0 / al, lam), zs)
                 - r_fgig(NaturalParams(al, be, lam), zs))
        worst_r = max(worst_r, float(np.max(np.abs(total))))
    ok = worst_k <= 1e-4 and worst_r <= 1e-10 and elapsed <= 300.0
    report(7, ok, f"Kolmogorov {worst_k:.2e} (<=1e-4), R-additivity "
                  f"{worst_r:.2e} (<=1e-10), runtime {elapsed:.0f}s (<=300)")


def test_c08_characterization():
    rng = np.random.default_rng(108)
    worst_dev = 0.0
    for _ in range(5):
        alpha = rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.5, 3.0)
        series = series_coefficients(alpha, lam, 8)
        oracle = oracle_coefficients(alpha, lam, 8)
        worst_dev = max(worst_dev, compare_series(series, oracle))

    rep = verify_fixed_point(2.0, 1.0)

    bounds_ok = True
    for _ in range(5):
        alpha = rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.5, 3.0)
        c = solve_c(alpha, lam)
        _, a1 = initial_coefficients(alpha, lam)
        u = 1.0 + c * c
        b1 = n_prime(alpha, lam)
        bounds_ok = bounds_ok and (1.0 / u ** 2 - 1e-12 <= a1 <= 1.0 / u
                                   + 1e-12)
        bounds_ok = bounds_ok and (-1.0 - 1e-12 <= b1 <= -c * c + 1e-12)
    ok = (worst_dev <= 1e-6 and rep.fixed_point_distance <= 1e-3
          and rep.key_eq_residual <= 1e-9 and bounds_ok)
    report(8, ok, f"series dev {worst_dev:.2e} (<=1e-6), fixed point "
                  f"{rep.fixed_point_distance:.2e} (<=1e-3), key equation "
                  f"{rep.key_eq_residual:.2e} (<=1e-9), bounds: {bounds_ok}")


def test_c09_limits():
    betas = [1e-1, 1e-2, 1e-3, 1e-4]
    worst_curve = 0.0
    for lam in (2.0, 0.0, -3.0):
        worst_curve = max(worst_curve,
                          convergence_curve(1.0, lam, betas)[-1])

    # the endpoints over their closed-form leading terms and the finite
    # root over its limit, each by one Richardson step in beta**q from
    # alpha beta = 1e-12 and 1e-14; the worst reading per regime
    regimes = {"|lam|<1": (0.5, 0.0, -0.5), "lam>1": (2.0, 45.0),
               "lam<-1": (-3.0, -45.0), "lam=1": (1.0,), "lam=-1": (-1.0,)}
    worst = {name: max(endpoint_deviation(endpoint_asymptotics(alpha, lam),
                                          alpha, lam,
                                          (1e-12 / alpha, 1e-14 / alpha))
                       for alpha in (1e-3, 1.0, 1e3) for lam in lams)
             for name, lams in regimes.items()}
    ok = worst_curve <= 0.05 and max(worst.values()) <= 1e-8
    readings = ", ".join(f"{name} {dev:.1e}" for name, dev in worst.items())
    report(9, ok, f"curve at beta=1e-4 {worst_curve:.3f} (<=0.05), endpoints "
                  f"and root limits by Richardson: {readings} (<=1e-8)")


def test_c10_entropy():
    gap = abs(gig_entropy(2.0, 8.0, 1.0) - gibbs_bound(2.0, 8.0, 1.0))

    worst_bessel = 0.0
    for w in np.geomspace(0.1, 20.0, 15):
        for order in (0.5, 1.5):
            exact = bessel_k_half_integer(order, w)
            worst_bessel = max(worst_bessel,
                               abs(math.exp(log_bessel_k(order, w)) - exact)
                               / exact)

    p = NaturalParams(2.0, 8.0, 1.0)
    scan = maximality_scan(p, [
        1.1, 0.9,
        NaturalParams(2.0, 8.0, 1.2),
        NaturalParams(2.0, 8.0, 0.8),
        NaturalParams(2.2, 8.0, 1.0),
        NaturalParams(2.0, 8.8, 1.0),
    ])
    margins_ok = all(margin > 0 for _, _, margin in scan.entries)
    ok = gap <= 1e-6 and worst_bessel <= 1e-10 and margins_ok
    report(10, ok, f"Gibbs gap {gap:.2e} (<=1e-6), Bessel oracle "
                   f"{worst_bessel:.2e} (<=1e-10), margins positive: "
                   f"{margins_ok}")
