"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""
import math
import time

import numpy as np

import cvbell as cb
from reference import ghz_dp_settings, heralded_wigner, twb_bw_dp_settings

SQRT2 = math.sqrt(2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_tripartite_dp_ghz():
    t0 = time.time()
    res = cb.log_j_maximize(lambda j: cb.b3_ghz_closed(5.0, j), 1e-8, 1.0)
    ok = res.max_value >= 2.99
    ok &= cb.b3_ghz_closed(3.0, 0.0) == 2.0
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(0.0, 3.0)
        j = rng.uniform(0.0, 0.5)
        assembled = cb.DpRates(cb.ghz_state(r), ghz_dp_settings(j)).bell()
        worst = max(worst, abs(cb.b3_ghz_closed(r, j) - assembled))
    ok &= worst < 1e-10
    dt = time.time() - t0
    ok &= dt < 1.0
    _report(1, ok, f"max(r=5) = {res.max_value:.6f} >= 2.99, B(J=0) = 2 exactly, "
                   f"closed-vs-assembly {worst:.2e} < 1e-10, {dt:.2f}s < 1s")


def test_criterion_2_tripartite_dp_su21():
    t0 = time.time()
    sym = cb.log_j_maximize(lambda j: cb.b3_su21_closed(1e4, j), 1e-9, 1e-2)
    ok = abs(sym.max_value - 2.89) <= 0.01
    s = cb.su21_opt_state(1e5)
    opt = cb.log_j_maximize(lambda j: cb.DpRates(s, cb.su21_opt_dp_settings(j)).bell(),
                            1e-8, 1e-1)
    ok &= abs(opt.max_value - 2.99) <= 0.01
    jn = opt.arg_max[0] * 1e5
    ok &= abs(jn - 3.21) <= 0.15 * 3.21
    dt = time.time() - t0
    ok &= dt < 5.0
    _report(2, ok, f"symmetric max(N=1e4) = {sym.max_value:.4f} (2.89 +/- 0.01), "
                   f"optimized = {opt.max_value:.4f} (2.99 +/- 0.01) at JN = {jn:.3f} "
                   f"(3.21 +/- 15%), {dt:.2f}s < 5s")


def test_criterion_3_tripartite_ps():
    t0 = time.time()
    sym = cb.b3_ps_from_coeffs(cb.su21_ps_coeffs(100.0, 100.0))    # total N = 400
    ok = abs(sym - 2.63) <= 0.02
    degen = cb.b3_ps_from_coeffs(cb.su21_ps_coeffs(10.0, 1e-3))
    ok &= abs(degen - 2 * SQRT2) <= 0.01
    pi_t = cb.maximize_scalar(
        lambda lns: [cb.b3_ps_from_coeffs(cb.su21_pi_coeffs(math.exp(ln))) for ln in lns],
        math.log(0.05), math.log(20.0), tol=1e-6)
    n_t = math.exp(pi_t.arg_max[0])
    ok &= abs(pi_t.max_value - 2.22) <= 0.02 and abs(n_t - 1.0) <= 0.3
    pi_g = cb.maximize_scalar(
        lambda rs: [cb.b3_ps_from_coeffs(cb.ghz_pi_coeffs(r)) for r in rs],
        0.05, 2.0, tol=1e-6)
    ok &= abs(pi_g.max_value - 2.09) <= 0.02 and abs(pi_g.arg_max[0] - 0.42) <= 0.05
    dt = time.time() - t0
    ok &= dt < 60.0
    _report(3, ok, f"symmetric = {sym:.4f} (2.63 +/- 0.02), degenerate = "
                   f"{degen:.4f} (2sqrt2 +/- 0.01), point-op maxima "
                   f"{pi_t.max_value:.4f} at N = {n_t:.3f} and {pi_g.max_value:.4f} "
                   f"at r = {pi_g.arg_max[0]:.3f}, {dt:.1f}s < 60s")


def test_criterion_4_bipartite_dp():
    t0 = time.time()
    r = 5.0
    n = 2 * math.sinh(r) ** 2
    s = cb.twb_state(n)
    bw = cb.log_j_maximize(lambda j: cb.DpRates(s, twb_bw_dp_settings(j)).bell(),
                           1e-10, 1e-1)
    ok = abs(bw.max_value - 2.19) <= 0.01
    imp = cb.log_j_maximize(lambda j: cb.DpRates(s, cb.twb_dp_settings(j)).bell(),
                            1e-10, 1e-1)
    ok &= abs(imp.max_value - 2.32) <= 0.01
    scaling = math.exp(2 * r) * imp.arg_max[0]
    target = math.log(3.0) / 32.0
    ok &= abs(scaling - target) <= 0.10 * target
    n2 = 1e3
    p = cb.ConditionalParams(n2=n2, n3=1e-2 / n2, eta=1.0)
    cond = cb.log_j_maximize(lambda j: cb.DpRates(p, cb.conditional_dp_settings(j)).bell(),
                             1e-9, 1e-2)
    ok &= abs(cond.max_value - 2.41) <= 0.01
    jn2 = cond.arg_max[0] * n2
    ok &= abs(jn2 - 0.042) <= 0.15 * 0.042
    dt = time.time() - t0
    ok &= dt < 10.0
    _report(4, ok, f"BW = {bw.max_value:.4f} (2.19 +/- 0.01), improved = "
                   f"{imp.max_value:.4f} (2.32 +/- 0.01) with e^(2r)J = {scaling:.5f} "
                   f"(ln3/32 +/- 10%), heralded = {cond.max_value:.4f} (2.41 +/- 0.01) "
                   f"at J*N2 = {jn2:.4f} (0.042 +/- 15%), {dt:.2f}s < 10s")


def test_criterion_5_bipartite_ps():
    t0 = time.time()
    ns = np.linspace(0.0, 40.0, 120)
    vals = np.array([cb.f_twb(v) for v in ns])
    ok = bool(np.all(np.diff(vals) > 0)) and cb.f_twb(1e8) > 1 - 1e-7
    # brute-force two-stage angle grid against the closed CHSH maximum
    f = 0.7
    coarse = np.linspace(0, 2 * np.pi, 720, endpoint=False)

    def chsh_grid(t1s, t2s, p1s, p2s):
        def corr(a, b):
            return np.cos(a) * np.cos(b) + f * np.sin(a) * np.sin(b)
        A = corr(t1s[:, None, None, None], p1s[None, None, :, None])
        B = corr(t1s[:, None, None, None], p2s[None, None, None, :])
        C = corr(t2s[None, :, None, None], p1s[None, None, :, None])
        D = corr(t2s[None, :, None, None], p2s[None, None, None, :])
        return np.abs(A + B + C - D)

    E = np.cos(coarse)[:, None] * np.cos(coarse)[None, :] \
        + f * np.sin(coarse)[:, None] * np.sin(coarse)[None, :]
    U = np.full((720, 720), -np.inf)
    V = np.full((720, 720), -np.inf)
    argU = np.zeros((720, 720), dtype=int)
    argV = np.zeros((720, 720), dtype=int)
    for k in range(720):
        col = E[:, k]
        su = col[:, None] + col[None, :]
        mu = su > U
        U[mu] = su[mu]
        argU[mu] = k
        dv = col[:, None] - col[None, :]
        mv = dv > V
        V[mv] = dv[mv]
        argV[mv] = k
    i, jj = np.unravel_index(int(np.argmax(U + V)), U.shape)
    k1, k2 = argU[i, jj], argV[i, jj]
    step = 2 * np.pi / 720
    loc = [np.linspace(a - step, a + step, 41)
           for a in (coarse[i], coarse[jj], coarse[k1], coarse[k2])]
    grid_max = float(chsh_grid(*loc).max())
    closed = cb.b2_ps_from_f(f)
    ok &= abs(closed - grid_max) < 1e-6
    # heralded beats traced pointwise
    pointwise = True
    for n in np.linspace(0.1, 10.0, 25):
        p = cb.ConditionalParams(n, 0.1, eta=0.8)
        pointwise &= cb.f_conditional(p) >= cb.f_traced(p)
    ok &= pointwise
    dt = time.time() - t0
    ok &= dt < 30.0
    _report(5, ok, f"f_twb monotone to 1, CHSH closed {closed:.8f} vs grid "
                   f"{grid_max:.8f} (1e-6), f_1 >= f_tr on [0.1, 10], {dt:.1f}s < 30s")


def test_criterion_6_homodyne():
    t0 = time.time()
    psis = np.linspace(-math.pi, math.pi, 200)
    below = True
    for n2 in (0.5, 1.0, 5.0):
        p = cb.ConditionalParams(n2=n2, n3=0.5, eta=1.0)
        for psi in psis:
            eh = float(cb.e_h(p, psi, 0.0))
            cl = cb.classical_reference(psi)
            below &= abs(eh) <= abs(cl) + 1e-12 and eh * cl >= -1e-12
    rng = np.random.default_rng(600)
    p = cb.ConditionalParams(n2=1.0, n3=0.5, eta=1.0)
    tw = cb.twb_state(3.0)
    violations = 0
    for _ in range(10000):
        t1, t2, p1, p2 = rng.uniform(-math.pi, math.pi, 4)
        if cb.chsh_h(p, [[t1, t2, p1, p2]])[0] > 2.0:
            violations += 1
        if cb.chsh_h(tw, [[t1, t2, p1, p2]])[0] > 2.0:
            violations += 1
    ok = below and violations == 0
    dt = time.time() - t0
    ok &= dt < 30.0
    _report(6, ok, f"|E_H| below the sawtooth on 200-pt grids (3 parameter sets), "
                   f"{violations} CHSH values above 2 in 1e4 random settings, "
                   f"{dt:.1f}s < 30s")


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    cutoff = 30
    phot = cb.TripartitePhotonNumbers(0.5, 0.5)
    st = cb.su21_fock(phot, cutoff)
    gs = cb.su21_state(phot)
    worst_dp = 0.0
    rng = np.random.default_rng(700)
    for _ in range(10):
        al = rng.normal(0, 0.3, 3) + 1j * rng.normal(0, 0.3, 3)
        worst_dp = max(worst_dp, abs(cb.displaced_parity_expect(st, al)
                                     - cb.e_dp(gs, al)))
    tw = cb.twb_fock(math.tanh(math.asinh(math.sqrt(0.5))), cutoff)
    gw = cb.twb_state(1.0)
    for _ in range(10):
        al = rng.normal(0, 0.3, 2) + 1j * rng.normal(0, 0.3, 2)
        worst_dp = max(worst_dp, abs(cb.displaced_parity_expect(tw, al)
                                     - cb.e_dp(gw, al)))
    ok = worst_dp < 1e-4

    X, Z = (math.pi / 2, 0.0), (0.0, 0.0)
    c = cb.su21_ps_coeffs(0.5, 0.5)
    worst_ps = max(
        abs(abs(cb.pseudospin_expect(st, [Z, X, X])) - abs(c.c1)),
        abs(abs(cb.pseudospin_expect(st, [X, Z, X])) - abs(c.c2)),
        abs(abs(cb.pseudospin_expect(st, [X, X, Z])) - abs(c.c3)),
        abs(abs(cb.pseudospin_expect(tw, [X, X])) - cb.f_twb(1.0)),
    )
    ok &= worst_ps < 1e-4

    worst_h = 0.0
    for th, ph in ((0.0, 0.0), (0.6, -0.4), (1.3, 0.8)):
        worst_h = max(worst_h, abs(cb.quadrature_orthant_expect(tw, th, ph)
                                   - float(cb.e_h(gw, th, ph))))
    params = cb.ConditionalParams(0.5, 0.5, eta=0.8)
    rho = cb.onoff_condition(st, 2, 0.8)
    for th in (0.0, 0.7, 1.9):
        worst_h = max(worst_h, abs(
            cb.quadrature_orthant_expect(rho, th, 0.0)
            - float(cb.e_h(params, th, 0.0))))
    ok &= worst_h < 1e-4

    worst_p1 = 0.0
    for eta in (0.3, 0.7, 1.0):
        prob = cb.click_probability(st, 2, eta)
        worst_p1 = max(worst_p1, abs(prob - cb.p_click(
            cb.ConditionalParams(0.5, 0.5, eta=eta))))
    ok &= worst_p1 < 1e-9

    from numpy.polynomial.legendre import leggauss
    xg, wg = leggauss(28)
    xs, ws = xg * 6.0, wg * 6.0
    g2 = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    w2 = np.outer(ws, ws).ravel()
    total = 0.0
    for (x1, x2), w in zip(g2, w2):
        pts = np.concatenate([np.broadcast_to([x1, x2], (g2.shape[0], 2)), g2], axis=1)
        total += w * float(np.dot(heralded_wigner(params, pts), w2))
    ok &= abs(total - 1.0) < 1e-3
    grid = np.stack(np.meshgrid(np.linspace(-1.5, 1.5, 31),
                                np.linspace(-1.5, 1.5, 31), [0.0], [0.0],
                                indexing="ij"), axis=-1).reshape(-1, 4)
    wmin = float(np.min(heralded_wigner(cb.ConditionalParams(1.0, 0.5, eta=1.0), grid)))
    ok &= wmin < 0.0
    dt = time.time() - t0
    ok &= dt < 120.0
    _report(7, ok, f"DP {worst_dp:.2e} < 1e-4, PS {worst_ps:.2e} < 1e-4, orthant "
                   f"{worst_h:.2e} < 1e-4, click {worst_p1:.2e} < 1e-9, heralded "
                   f"Wigner integral {total:.6f} (1 +/- 1e-3) with min {wmin:.4f} < 0, "
                   f"{dt:.1f}s < 120s")


def test_criterion_8_quantum_bounds():
    rng = np.random.default_rng(800)
    s3 = [cb.ghz_state(1.5), cb.su21_state(cb.TripartitePhotonNumbers(0.7, 0.4))]
    s2 = cb.twb_state(2.5)
    params = cb.ConditionalParams(0.8, 0.4, eta=0.9)
    b2max = b3max = 0.0
    for _ in range(600):
        a = rng.normal(0, 0.6, 3) + 1j * rng.normal(0, 0.6, 3)
        ap = rng.normal(0, 0.6, 3) + 1j * rng.normal(0, 0.6, 3)
        st = s3[int(rng.integers(0, 2))]
        b3max = max(b3max, cb.DpRates(st, cb.DpSettings(tuple(a), tuple(ap))).bell())
        two = cb.DpSettings(tuple(a[:2]), tuple(ap[:2]))
        b2max = max(b2max, cb.DpRates(s2, two).bell())
        b2max = max(b2max, cb.DpRates(params, two).bell())
    for f in np.linspace(0, 1, 21):
        b2max = max(b2max, cb.b2_ps_from_f(f))
    for mags in ((1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (0.2, 0.9, 0.4)):
        b3max = max(b3max, cb.klyshko_max(mags).max_value)
    ok = b2max <= 2 * SQRT2 + 1e-9 and b3max <= 4.0 + 1e-9
    _report(8, ok, f"max B2 = {b2max:.9f} <= 2sqrt2 + 1e-9, "
                   f"max B3 = {b3max:.9f} <= 4 + 1e-9")


def test_criterion_9_documented_exclusions():
    # surface-figure overlays and the exact B3 = 3 limit are excluded from
    # quantitative acceptance; criterion 1 substitutes the r = 5 bound
    _report(9, True, "excluded from quantitative acceptance: 3-D surface "
                     "overlays (no digitized data) and the unattained B3 = 3 "
                     "limit (r = 5 bound substitutes)")
