import decimal
import math
import warnings
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.typing import NDArray

from cvbell import (
    CutoffTooSmallError,
    FockDensityOperator,
    InvalidParameterError,
    PrecisionError,
    TripartitePhotonNumbers,
    UndefinedStateError,
    click_probability,
    displaced_parity_expect,
    e_dp,
    f_twb,
    ghz_fock,
    ghz_state,
    onoff_condition,
    pseudospin_expect,
    quadrature_orthant_expect,
    su21_fock,
    su21_ps_coeffs,
    su21_state,
    twb_fock,
    wigner_reconstruct,
)
from cvbell import fock
from cvbell.fock import _expect, _half_line_matrices, _pure_fock, _rotated, displacement
from reference import (displacement_one, matrix, min_eigenvalue, pseudospin_axis_op,
                       su21_amplitudes, twb_amplitudes)

X_AXIS = (math.pi / 2, 0.0)
Z_AXIS = (0.0, 0.0)


class TestBuilders:
    @pytest.mark.parametrize("build", [
        lambda c: su21_fock(TripartitePhotonNumbers(0.3, 0.3), c),
        lambda c: twb_fock(0.5, c),
        lambda c: ghz_fock(0.42, c),
    ], ids=["su21", "twb", "ghz"])
    @pytest.mark.parametrize("cutoff", [3000, 10**8])
    def test_oversized_cutoff_is_rejected_before_allocating(self, build, cutoff, monkeypatch):
        def no_array(*args, **kwargs):
            raise AssertionError("the builder allocated")

        for name in ("zeros", "empty", "ones", "arange", "full"):
            monkeypatch.setattr(np, name, no_array)
        with pytest.raises(InvalidParameterError, match=rf"^cutoff {cutoff} on [23] modes gives "
                                                        r".* amplitudes, above the limit 1000000$"):
            build(cutoff)

    def test_amplitude_limit_is_inclusive(self, monkeypatch):
        # a two-mode cutoff-6 ket holds 36 amplitudes
        monkeypatch.setattr(fock, "MAX_AMPLITUDES", 36)
        assert twb_fock(0.1, 6).kets.size == 36
        monkeypatch.setattr(fock, "MAX_AMPLITUDES", 35)
        with pytest.raises(InvalidParameterError, match="gives 36 amplitudes, above the limit 35"):
            twb_fock(0.1, 6)

    def test_amplitude_limit_admits_the_largest_checked_cutoffs(self):
        # verify passes at every cutoff up to 100; CI runs it at 80
        assert 100**3 <= fock.MAX_AMPLITUDES < 101**3 and 1000**2 <= fock.MAX_AMPLITUDES

    def test_su21_vacuum(self):
        st = su21_fock(TripartitePhotonNumbers(0.0, 0.0), 8)
        assert st.kets[0, 0, 0, 0] == pytest.approx(1.0)
        assert st.weights[0] == pytest.approx(1.0)

    def test_su21_single_pair_amplitude(self):
        # n2 = 1, n3 = 0: component |1,1,0> has amplitude sqrt(N2)/(1+N1) = 1/2
        st = su21_fock(TripartitePhotonNumbers(1.0, 0.0), 20)
        assert st.kets[0, 1, 1, 0] == pytest.approx(0.5)
        assert st.kets[0, 0, 0, 0] == pytest.approx(1 / math.sqrt(2.0))

    def test_su21_norm_within_tail_budget(self):
        st = su21_fock(TripartitePhotonNumbers(0.5, 0.5), 25)
        assert np.sum(np.abs(st.kets[0]) ** 2) >= 1.0 - 1e-6

    @staticmethod
    def _assert_exact(ket, ref):
        """The same support, and each amplitude within 4e-15 of its exact value, relative."""
        assert np.array_equal(ket != 0, ref != 0)
        assert np.all(np.abs(ket - ref) <= 4e-15 * np.abs(ref))

    @pytest.mark.parametrize("cutoff", [30, 40, 41, 60])
    @pytest.mark.parametrize("photons", [(0.3, 0.3, 0.4, -1.1), (1.0, 0.0, 0.7, 0.0),
                                         (0.0, 0.8, 0.0, 2.3), (0.3, 0.3, 100.7, -51.3)],
                             ids=["both", "n3=0", "n2=0", "large-phases"])
    def test_su21_matches_exact_amplitudes(self, cutoff, photons):
        p = TripartitePhotonNumbers(*photons)
        ref = su21_amplitudes(p, cutoff)
        state = su21_fock(p, cutoff)
        self._assert_exact(state.kets[0], ref)
        assert state.weights[0] == pytest.approx(1 / np.sum(np.abs(ref) ** 2), rel=1e-15)

    def test_su21_matches_exact_amplitudes_at_four_photons(self):
        # N1 = 4: a rounding of A's singular values moves the vacuum amplitude four-fold
        p = TripartitePhotonNumbers(2.0, 2.0, 0.5, 0.2)
        self._assert_exact(su21_fock(p, 64).kets[0], su21_amplitudes(p, 64))

    @pytest.mark.parametrize("cutoff", [30, 40, 41, 60])
    @pytest.mark.parametrize("x", [0.3, math.tanh(math.asinh(math.sqrt(0.5))), 0.7])
    def test_twb_matches_exact_amplitudes(self, cutoff, x):
        self._assert_exact(twb_fock(x, cutoff).kets[0], twb_amplitudes(x, cutoff))

    @pytest.mark.parametrize("cutoff", [30, 40])
    def test_su21_support_takes_the_same_paths(self, cutoff):
        # p + q < cutoff on |p+q, p, q>: too many pairs for the pure ket, few for the heralded
        state = su21_fock(TripartitePhotonNumbers(0.3, 0.3), cutoff)
        assert np.count_nonzero(state.kets) == cutoff * (cutoff + 1) // 2
        assert state._pairs is None
        if cutoff == 40:
            rho = onoff_condition(state, 2, 0.8)
            size = np.count_nonzero(rho.kets.reshape(rho.weights.size, -1), axis=1)
            assert size @ size == 22140 and rho._pairs is not None

    @pytest.mark.parametrize("build,vacuum,tail", [
        (lambda: twb_fock(0.7, 20), math.sqrt(1 - 0.49), 0.49**20),
        (lambda: su21_fock(TripartitePhotonNumbers(1.0, 1.0), 40), 1 / math.sqrt(3), (2 / 3)**40),
        (lambda: ghz_fock(0.42, 30), math.cosh(0.42) ** -1.5, 0.0),
    ], ids=["twb", "su21", "ghz"])
    def test_vacuum_amplitude_is_physical_and_tail_exact(self, build, vacuum, tail):
        st = build()
        k = st.kets[0]
        assert k.flat[0] == pytest.approx(vacuum, rel=1e-15)
        assert 1.0 - np.vdot(k, k).real == pytest.approx(tail, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("build,error", [
        (lambda: su21_fock(TripartitePhotonNumbers(1e17, 0.0), 30), PrecisionError),
        (lambda: su21_fock(TripartitePhotonNumbers(1e300, 1e300), 30), PrecisionError),
        (lambda: su21_fock(TripartitePhotonNumbers(1e308, 1e308), 30), PrecisionError),
        (lambda: ghz_fock(20.0, 30), PrecisionError),
        (lambda: ghz_fock(1e300, 30), PrecisionError),
        (lambda: twb_fock(float(np.nextafter(1.0, 0.0)), 30), CutoffTooSmallError),
    ], ids=["su21-1e17", "su21-1e300", "su21-sum-overflows", "ghz-20", "ghz-1e300",
            "twb-below-1"])
    def test_squeezing_at_the_end_of_double_precision(self, build, error):
        # where A's largest singular value rounds to 1 the state is a precision error;
        # just below it, the cutoff needed is finite and named
        with pytest.raises(error) as err:
            build()
        if error is CutoffTooSmallError:
            assert 1e16 < err.value.suggested_cutoff < 1e17

    @pytest.mark.parametrize("build,cutoffs", [
        (lambda c: twb_fock(0.1, c), [2, 3]),
        (lambda c: twb_fock(0.9, c), [10, 40, 65]),
        (lambda c: su21_fock(TripartitePhotonNumbers(0.3, 0.3, 0.4, -1.1), c), [4, 14]),
        (lambda c: su21_fock(TripartitePhotonNumbers(2.0, 2.0), c), [10, 40]),
        (lambda c: ghz_fock(0.42, c), [2, 4, 9]),
        (lambda c: ghz_fock(0.8, c), [4, 12, 20]),
        (lambda c: ghz_fock(1.2, c), [4, 20, 40, 48]),
    ], ids=["twb-0.1", "twb-0.9", "su21-0.3", "su21-2", "ghz-0.42", "ghz-0.8", "ghz-1.2"])
    def test_suggested_cutoff_succeeds(self, build, cutoffs):
        for cutoff in cutoffs:
            with pytest.raises(CutoffTooSmallError) as err:
                build(cutoff)
            st = build(err.value.suggested_cutoff)
            assert 1.0 - np.vdot(st.kets[0], st.kets[0]).real <= 1e-6

    def test_su21_cutoff_guard(self):
        with pytest.raises(CutoffTooSmallError) as err:
            su21_fock(TripartitePhotonNumbers(2.0, 2.0), 10)
        assert err.value.suggested_cutoff > 10

    def test_twb_vacuum(self):
        st = twb_fock(0.0, 6)
        assert st.kets[0, 0, 0] == pytest.approx(1.0)

    def test_twb_amplitude(self):
        st = twb_fock(0.5, 30)
        assert st.kets[0, 1, 1] == pytest.approx(math.sqrt(0.75) * 0.5)

    def test_twb_tail_guard_and_suggestion(self):
        # X = 0.9 at cutoff 40 leaves 0.9^80 ~ 2e-4 outside, far over the budget
        with pytest.raises(CutoffTooSmallError) as err:
            twb_fock(0.9, 40)
        assert err.value.suggested_cutoff >= 66
        st = twb_fock(0.9, err.value.suggested_cutoff)
        assert np.sum(np.abs(st.kets[0]) ** 2) >= 1.0 - 1e-6

    @pytest.mark.parametrize("build", [
        lambda: su21_fock(TripartitePhotonNumbers(0.3, 0.3), 30),
        lambda: su21_fock(TripartitePhotonNumbers(2.0, 2.0), 62),
        lambda: twb_fock(0.5, 30),
        lambda: twb_fock(0.9, 66),
    ], ids=["su21-0.3", "su21-2", "twb-0.5", "twb-0.9"])
    def test_one_renormalized_ket(self, build):
        # the truncated ket falls short of norm 1, and its weight makes up the rest
        st = build()
        assert st.kets.shape[0] == 1 and st.weights[0] >= 1.0
        assert abs(st.weights[0] * np.sum(np.abs(st.kets[0]) ** 2) - 1.0) < 1e-15


GHZ_SETTINGS = [(0.3 + 0.2j, -0.25 + 0.1j, 0.15 - 0.3j), (0.1j, 0.2, -0.3 - 0.1j),
                (-0.4 + 0.1j, 0.05 - 0.35j, 0.2 + 0.25j)]


class TestGhzFock:
    """The tritter ket, built from A alone, against ghz_state's covariance."""

    @pytest.mark.parametrize("r", [0.1, 0.42, 0.8])
    def test_displaced_parity_matches_covariance_path(self, r):
        st = ghz_fock(r, 50)
        for al in GHZ_SETTINGS:
            assert abs(displaced_parity_expect(st, al) - e_dp(ghz_state(r), al)) <= 1e-12

    @pytest.mark.parametrize("r", [0.1, 0.42, 0.8])
    def test_opposite_orientation_misses(self, r):
        # -A squeezes the x-differences and the y-sum instead
        st = _pure_fock(-math.tanh(r) * (np.eye(3) - 2.0 / 3.0), 50)
        assert max(abs(displaced_parity_expect(st, al) - e_dp(ghz_state(r), al))
                   for al in GHZ_SETTINGS) > 1e-2

    def test_rejects_bad_squeezing(self):
        for r in (-0.1, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                ghz_fock(r, 20)


class TestDisplacedParity:
    def test_vacuum_no_displacement(self):
        st = twb_fock(0.0, 10)
        assert displaced_parity_expect(st, [0.0, 0.0]) == pytest.approx(1.0)

    def test_coherent_parity_single_mode(self):
        amps = np.zeros((1, 30), dtype=complex)
        amps[0, 0] = 1.0
        st = FockDensityOperator(1, 30, amps, [1.0])
        assert displaced_parity_expect(st, [0.5]) == pytest.approx(
            math.exp(-0.5), abs=1e-10)

    def test_matches_gaussian_path(self, photons_03, su21_fock_03):
        gs = su21_state(photons_03)
        al = (0.1, 0.1j, 0.0)
        assert displaced_parity_expect(su21_fock_03, al) == pytest.approx(
            e_dp(gs, al), abs=1e-5)

    def test_amplitude_guard(self, su21_fock_03):
        with pytest.raises(PrecisionError):
            displaced_parity_expect(su21_fock_03, [2.0, 0.0, 0.0])

    def test_cutoff_doubling_stability(self, photons_03):
        al = (0.2, -0.1 + 0.1j, 0.05j)
        a = displaced_parity_expect(su21_fock(photons_03, 16), al)
        b = displaced_parity_expect(su21_fock(photons_03, 32), al)
        assert abs(a - b) < 1e-6


def _exact_displacement(alpha: complex, cutoff: int) -> NDArray:
    """<m|D(alpha)|n> from the finite Laguerre sum L_j^(k)(x) = sum_i C(j+k, j-i)(-x)^i/i!,
    summed exactly in fractions; only the square roots and e^(-x/2) are 40-digit decimals."""
    def dec(f: Fraction) -> decimal.Decimal:
        return decimal.Decimal(f.numerator) / f.denominator

    re, im = Fraction(alpha.real), Fraction(alpha.imag)
    x = re * re + im * im
    terms = [Fraction(1)]                        # (-x)^i / i!
    for i in range(1, cutoff):
        terms.append(terms[-1] * -x / i)
    powers = {}                                  # base^k for alpha (m >= n) and -alpha* (m < n)
    for base in ((re, im), (-re, im)):
        pw = [(Fraction(1), Fraction(0))]
        for _ in range(1, cutoff):
            pr, pi = pw[-1]
            pw.append((pr * base[0] - pi * base[1], pr * base[1] + pi * base[0]))
        powers[base] = pw
    out = np.zeros((cutoff, cutoff), dtype=complex)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        env = (-dec(x) / 2).exp()
        for m in range(cutoff):
            for n in range(cutoff):
                lo, hi = min(m, n), max(m, n)
                lag = sum(math.comb(hi, lo - i) * terms[i] for i in range(lo + 1))
                pr, pi = powers[(re, im) if m >= n else (-re, im)][hi - lo]
                mag = (decimal.Decimal(math.factorial(lo)) / math.factorial(hi)).sqrt() * env
                out[m, n] = complex(mag * dec(lag * pr), mag * dec(lag * pi))
    return out


class TestDisplacementMatrix:
    @pytest.mark.parametrize("alpha", [0.1, 0.5 + 0.5j, 1.5, 3.0, 5.0, -2.0 + 1.0j, 0.0])
    def test_matches_exact_laguerre_sum(self, alpha):
        got = displacement([alpha], 40)[0]
        assert np.max(np.abs(got - _exact_displacement(complex(alpha), 40))) < 1e-13

    @pytest.mark.parametrize("cutoff", [1, 2, 30, 40])
    def test_zero_is_exactly_identity(self, cutoff):
        assert np.array_equal(displacement([0.0], cutoff), np.eye(cutoff)[None])
        assert np.array_equal(displacement([0.0, 0j], cutoff), np.stack([np.eye(cutoff)] * 2))

    @pytest.mark.parametrize("alpha", [0.3 - 0.8j, 2.0, -1.1 + 2.4j])
    def test_adjoint_is_minus_alpha(self, alpha):
        # <m|D(alpha)|n> = conj(<n|D(-alpha)|m>), since D(alpha)^dag = D(-alpha)
        d, dm = displacement([alpha, -alpha], 30)
        assert np.max(np.abs(d - dm.conj().T)) < 1e-15

    BATCH = [0.3 - 0.8j, 0.0, 1.7, -0.05j, 0.0, -1.1 + 2.4j]

    @pytest.mark.parametrize("cutoff", [2, 3, 30, 40])
    def test_batch_rows_are_single_builds(self, cutoff):
        # one recurrence over every amplitude gives each row bit for bit, zeros included
        batch = displacement(self.BATCH, cutoff)
        assert batch.shape == (len(self.BATCH), cutoff, cutoff)
        for alpha, row in zip(self.BATCH, batch):
            assert np.array_equal(row, displacement_one(alpha, cutoff))
            assert np.array_equal(row, displacement([alpha], cutoff)[0])

    @pytest.mark.parametrize("cutoff", [2, 3, 30, 40])
    def test_batch_rows_match_exact_laguerre_sum(self, cutoff):
        for alpha, row in zip(self.BATCH[:3], displacement(self.BATCH[:3], cutoff)):
            assert np.max(np.abs(row - _exact_displacement(complex(alpha), cutoff))) < 1e-13


class TestPseudospin:
    def test_vacuum_z(self):
        st = twb_fock(0.0, 10)
        # even number states carry -1 in the ladder definition
        assert pseudospin_expect(st, [Z_AXIS, Z_AXIS]) == pytest.approx(1.0)
        amps = np.zeros((1, 10), dtype=complex)
        amps[0, 0] = 1.0
        assert pseudospin_expect(FockDensityOperator(1, 10, amps, [1.0]),
                                 [Z_AXIS]) == pytest.approx(-1.0)

    def test_twb_spin_flip_value(self):
        st = twb_fock(math.tanh(math.asinh(1.0)), 40)
        assert pseudospin_expect(st, [X_AXIS, X_AXIS]) == pytest.approx(
            f_twb(2.0), abs=1e-9)
        assert f_twb(2.0) == pytest.approx(math.sqrt(8.0) / 3.0)

    def test_series_coefficient_magnitudes(self, su21_fock_03):
        c = su21_ps_coeffs(0.3, 0.3)
        o1 = pseudospin_expect(su21_fock_03, [Z_AXIS, X_AXIS, X_AXIS])
        o2 = pseudospin_expect(su21_fock_03, [X_AXIS, Z_AXIS, X_AXIS])
        o3 = pseudospin_expect(su21_fock_03, [X_AXIS, X_AXIS, Z_AXIS])
        assert abs(o1) == pytest.approx(abs(c.c1), abs=1e-5)
        assert abs(o2) == pytest.approx(abs(c.c2), abs=1e-5)
        assert abs(o3) == pytest.approx(abs(c.c3), abs=1e-5)

    def test_all_z_sign_discrepancy_is_surfaced(self, su21_fock_03):
        # ladder definition gives -1 on this state; the closed forms use +1
        zzz = pseudospin_expect(su21_fock_03, [Z_AXIS, Z_AXIS, Z_AXIS])
        assert zzz == pytest.approx(-1.0, abs=1e-9)

    @given(case=st.sampled_from(["su21", "twb", "heralded", "mixture", "sparse"]),
           axes=st.lists(st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
                         min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_axis_operator(self, case, axes):
        state = _pseudospin_states()[case]
        axes = axes[:state.n_modes]
        ops = [pseudospin_axis_op(th, ph, state.cutoff) for th, ph in axes]
        assert abs(pseudospin_expect(state, axes)
                   - _dense_expect(state.kets, state.weights, ops)) < 1e-13

    def test_block_pairs_on_the_oracle_states(self):
        # su21's 820 amplitudes make 2,080 ordered pairs within one block on every
        # mode, at most 2^M per amplitude; the table keeps s <= t, (2,080 + 820)/2
        state = su21_fock(TripartitePhotonNumbers(0.3, 0.3), 40)
        assert np.count_nonzero(state.kets) == 820
        assert state._blocks[0].size == 1450

    ODD_AXES = [[Z_AXIS] * 3, [X_AXIS] * 3, [(0.7, 0.4), (1.9, -1.1), (2.6, 0.3)]]

    @pytest.mark.parametrize("name,cutoff", [("su21", 21), ("su21", 41), ("heralded", 41)])
    def test_odd_cutoff_matches_dense_axis_operator(self, name, cutoff, photons_03):
        # the dense operator leaves an odd cutoff's top level unpaired, as the blocks do
        state = su21_fock(photons_03, cutoff)
        if name == "heralded":
            state = onoff_condition(state, 2, 0.8)
        for axes in self.ODD_AXES:
            axes = axes[:state.n_modes]
            ops = [pseudospin_axis_op(th, ph, cutoff) for th, ph in axes]
            assert abs(pseudospin_expect(state, axes)
                       - _dense_expect(state.kets, state.weights, ops)) < 1e-13

    @pytest.mark.parametrize("cutoff", [1, 3, 5, 7])
    def test_unpaired_top_level(self, cutoff):
        # weight on every level, |cutoff - 1> included, whose partner |cutoff> is cut off
        rng = np.random.default_rng(cutoff)
        kets = rng.normal(size=(2, cutoff, cutoff)) + 1j * rng.normal(size=(2, cutoff, cutoff))
        state = FockDensityOperator(2, cutoff, kets, _unit_trace(kets, np.array([0.4, 0.9])))
        for axes in self.ODD_AXES:
            axes = axes[:2]
            ops = [pseudospin_axis_op(th, ph, cutoff) for th, ph in axes]
            assert abs(pseudospin_expect(state, axes)
                       - _dense_expect(state.kets, state.weights, ops)) < 1e-13
        # |cutoff - 1> alone is even: s_z's -cos(theta), and no s_+- term
        top = np.zeros((1, cutoff), dtype=complex)
        top[0, -1] = 1.0
        assert pseudospin_expect(FockDensityOperator(1, cutoff, top, [1.0]),
                                 [(0.7, 0.4)]) == -math.cos(0.7)


class TestOnOffCondition:
    def test_eta_zero_degenerate(self, su21_fock_03):
        with pytest.raises(UndefinedStateError):
            onoff_condition(su21_fock_03, 2, 0.0)

    def test_no_photon_on_the_mode_undefined(self):
        st = su21_fock(TripartitePhotonNumbers(0.3, 0.0), 20)
        assert click_probability(st, 2, 0.8) == 0.0
        with pytest.raises(UndefinedStateError, match="click probability on mode 2 is 0"):
            onoff_condition(st, 2, 0.8)

    def test_click_probability_value(self):
        # n3 = 1, eta = 1: eta N3/(1 + eta N3) = 1/2
        st = su21_fock(TripartitePhotonNumbers(0.0, 1.0), 40)
        prob = click_probability(st, 2, 1.0)
        assert prob == pytest.approx(0.5, abs=1e-9)

    def test_conditioned_state_has_no_vacuum(self, su21_fock_03):
        rho = onoff_condition(su21_fock_03, 2, 1.0)
        assert abs(matrix(rho)[0, 0]) < 1e-12

    def test_conditioned_operator_is_physical(self, su21_fock_03):
        rho = onoff_condition(su21_fock_03, 2, 0.8)
        assert np.real(np.trace(matrix(rho))) == pytest.approx(1.0, abs=1e-12)
        assert min_eigenvalue(rho) >= -1e-9


class TestOrthant:
    def test_two_mode_vacuum_uncorrelated(self):
        st = twb_fock(0.0, 12)
        for th, ph in ((0.0, 0.0), (0.7, -0.3), (1.2, 2.0)):
            assert quadrature_orthant_expect(st, th, ph) == pytest.approx(0.0, abs=1e-12)

    def test_twb_arcsine_value(self, twb_fock_n1):
        # n = 1: correlation tanh(2r) with sinh^2 r = 1/2, so E = (2/pi) asin(tanh 2r)
        r = math.asinh(math.sqrt(0.5))
        expected = (2 / math.pi) * math.asin(math.tanh(2 * r))
        assert quadrature_orthant_expect(twb_fock_n1, 0.0, 0.0) == pytest.approx(
            expected, abs=1e-6)

    def test_expectation_bounded(self, twb_fock_n1):
        for th in np.linspace(0, 2 * math.pi, 7):
            assert abs(quadrature_orthant_expect(twb_fock_n1, th, 0.3)) <= 1.0 + 1e-9


def _split(state):
    """The one-ket ``state`` w|k><k| as the two kets k and 2k, weighted w/2 and w/8."""
    kets = np.concatenate([state.kets, 2 * state.kets])
    return FockDensityOperator(state.n_modes, state.cutoff, kets,
                               state.weights[0] * np.array([0.5, 0.125]))


def _product_state(cutoff=20):
    rng = np.random.default_rng(3)
    decay = 0.6 ** np.arange(cutoff)
    a, b = (decay * (rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff))
            for _ in range(2))
    amps = np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return FockDensityOperator(2, cutoff, amps[None], [1.0])


class TestExpectationKernel:
    """One ket and the same pure state split over two weighted kets give the
    same expectations."""

    @pytest.fixture(params=["twb", "product"])
    def pure(self, request, twb_fock_n1):
        return twb_fock_n1 if request.param == "twb" else _product_state()

    def test_density_matches_pure(self, pure):
        rho = _split(pure)
        cases = [
            (displaced_parity_expect, ([0.2 + 0.1j, -0.3j],)),
            (pseudospin_expect, ([(0.7, 0.4), (1.9, -1.1)],)),
            (quadrature_orthant_expect, (1.1, 0.6)),
        ]
        for fn, args in cases:
            want = np.asarray(fn(pure, *args))
            assert np.max(np.abs(np.asarray(fn(rho, *args)) - want)) < 1e-12, fn.__name__

    def test_rotation_acts_like_a_rotated_state(self, pure):
        # R = exp(-i theta n) on each mode, applied to the amplitudes instead
        th, ph = 0.8, -1.3
        n = np.arange(pure.cutoff)
        kets = pure.kets * np.outer(np.exp(-1j * th * n), np.exp(-1j * ph * n))
        rotated = FockDensityOperator(2, pure.cutoff, kets, pure.weights)
        assert quadrature_orthant_expect(pure, th, ph) == pytest.approx(
            quadrature_orthant_expect(rotated, 0.0, 0.0), abs=1e-13)

    def test_single_mode_density_coherent_parity(self):
        vacuum = np.zeros((1, 30), dtype=complex)
        vacuum[0, 0] = 1.0
        rho = FockDensityOperator(1, 30, vacuum, np.ones(1))
        assert displaced_parity_expect(rho, [0.5]) == pytest.approx(
            math.exp(-0.5), abs=1e-10)


class TestClickProbability:
    def test_zero_efficiency(self, su21_fock_03):
        assert click_probability(su21_fock_03, 2, 0.0) == 0.0

    @pytest.mark.parametrize("mode,eta", [(2, -0.1), (2, 1.5), (2, math.nan), (3, 0.5),
                                          (-1, 0.5)])
    def test_rejects_bad_eta_or_mode(self, su21_fock_03, mode, eta):
        with pytest.raises(InvalidParameterError):
            click_probability(su21_fock_03, mode, eta)


class TestNonFiniteInput:
    # each entry point with one argument replaced by ``bad``, on the n = 1 twin beam
    CALLS = {
        "displaced_parity_expect": lambda st, bad: displaced_parity_expect(st, [bad, 0.0]),
        "displaced_parity_expect-imag": lambda st, bad: displaced_parity_expect(
            st, [0.1, complex(0.0, bad)]),
        "quadrature_orthant_expect": lambda st, bad: quadrature_orthant_expect(st, bad, 0.0),
        "pseudospin_expect": lambda st, bad: pseudospin_expect(st, [(bad, 0.0), Z_AXIS]),
        "pseudospin_expect-phi": lambda st, bad: pseudospin_expect(st, [X_AXIS, (0.2, bad)]),
        "wigner_reconstruct": lambda st, bad: wigner_reconstruct(st, [0.0, 0.1, bad, 0.0]),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_rejected(self, twb_fock_n1, call, bad):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            call(twb_fock_n1, bad)

    def test_density_operator_rejected(self):
        rho = onoff_condition(su21_fock(TripartitePhotonNumbers(0.3, 0.3), 20), 2, 0.8)
        with pytest.raises(InvalidParameterError, match="must be finite"):
            quadrature_orthant_expect(rho, 0.0, math.nan)
        with pytest.raises(InvalidParameterError, match="must be finite"):
            displaced_parity_expect(rho, [0.0, math.nan])


def _half_line_gauss_legendre(cutoff: int) -> tuple[NDArray, NDArray]:
    """Reference (H, G) by 800-node Gauss-Legendre quadrature on [0, R], R past
    the classical turning point of the highest basis state."""
    from numpy.polynomial.legendre import leggauss

    R = np.sqrt(2.0 * cutoff) + 8.0
    xg, wg = leggauss(800)
    xs, ws = (xg + 1) * R / 2, wg * R / 2
    psi = np.zeros((cutoff, xs.size))
    psi[0] = np.pi**-0.25 * np.exp(-xs**2 / 2)
    if cutoff > 1:
        psi[1] = np.sqrt(2.0) * xs * psi[0]
    for n in range(2, cutoff):
        psi[n] = np.sqrt(2.0 / n) * xs * psi[n - 1] - np.sqrt((n - 1) / n) * psi[n - 2]
    H = np.einsum("nk,mk,k->nm", psi, psi, ws)
    n = np.arange(cutoff)
    odd = (n[:, None] + n[None, :]) % 2 == 1
    H = np.where(odd, H, np.eye(cutoff) * 0.5)
    return H, np.where(odd, 2 * H, 0.0)


class TestHalfLineMatrix:
    @pytest.mark.parametrize("cutoff", [2, 3, 12, 26, 30, 40, 41, 60])
    def test_matches_gauss_legendre(self, cutoff):
        H, G = _half_line_matrices(cutoff)
        H_ref, G_ref = _half_line_gauss_legendre(cutoff)
        assert np.max(np.abs(H - H_ref)) < 1e-13
        assert np.max(np.abs(G - G_ref)) < 1e-13

    def test_vacuum_one_photon_overlap(self):
        # int_0^inf psi_0 psi_1 = sqrt(2) pi^(-1/2) int_0^inf x e^(-x^2) = 1/sqrt(2 pi)
        H, _ = _half_line_matrices(12)
        assert abs(H[0, 1] - 1 / math.sqrt(2 * math.pi)) < 1e-16
        assert H[0, 1] == H[1, 0]

    @pytest.mark.parametrize("cutoff", [7, 30])
    def test_sign_matrix_lives_on_odd_sums(self, cutoff):
        H, G = _half_line_matrices(cutoff)
        n = np.arange(cutoff)
        odd = (n[:, None] + n[None, :]) % 2 == 1
        assert np.array_equal(G[odd], 2 * H[odd])
        assert np.all(G[~odd] == 0.0)
        assert np.array_equal(H[~odd], (np.eye(cutoff) / 2)[~odd])

    @pytest.mark.parametrize("cutoff", [1, 2, 41])
    def test_no_warning_from_the_masked_division(self, cutoff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _half_line_matrices.__wrapped__(cutoff)


def _dense_expect(kets, weights, ops) -> float:
    """Re sum_i w_i <k_i| (x)ops |k_i>, one einsum over every index of the kets
    and every entry of the operators."""
    bra, ket = "abcdefgh"[:len(ops)], "pqrstuvw"[:len(ops)]
    spec = f"z,z{bra}," + ",".join(b + k for b, k in zip(bra, ket)) + f",z{ket}->"
    return float(np.real(np.einsum(spec, weights, kets.conj(), *ops, kets, optimize=True)))


def _random_state(seed, n_modes, cutoff, rank, sparse):
    """Random kets with unit trace; a sparse ket keeps at most sqrt(cutoff^n_modes)
    amplitudes, so its pairs are no more than its amplitudes."""
    rng = np.random.default_rng(seed)
    kets = (rng.normal(size=(rank,) + (cutoff,) * n_modes)
            + 1j * rng.normal(size=(rank,) + (cutoff,) * n_modes))
    if sparse:
        flat = kets.reshape(rank, -1)
        for row in flat:
            row[rng.permutation(row.size)[rng.integers(1, math.isqrt(row.size) + 1):]] = 0.0
    return FockDensityOperator(n_modes, cutoff, kets,
                               _unit_trace(kets, rng.uniform(0.1, 1.0, rank)))


@cache
def _pseudospin_states():
    su21 = su21_fock(TripartitePhotonNumbers(0.3, 0.3, 0.4, -1.1), 20)
    return {"su21": su21, "twb": twb_fock(0.5, 20), "heralded": onoff_condition(su21, 2, 0.8),
            "mixture": _random_state(11, 2, 8, 3, sparse=False),
            "sparse": _random_state(12, 3, 6, 2, sparse=True)}


def _mixture(cutoff=16, rank=3):
    rng = np.random.default_rng(5)
    decay = 0.55 ** np.add.outer(np.arange(cutoff), np.arange(cutoff))
    kets = decay * (rng.normal(size=(rank, cutoff, cutoff))
                    + 1j * rng.normal(size=(rank, cutoff, cutoff)))
    return kets, _unit_trace(kets, rng.uniform(0.2, 1.0, rank))


def _unit_trace(kets, weights):
    return weights / (weights @ np.sum(np.abs(kets.reshape(weights.size, -1)) ** 2, axis=1))


class TestWeightedKets:
    def test_mixture_matches_dense_reference(self):
        kets, weights = _mixture()
        rho = FockDensityOperator(2, 16, kets, weights)
        alphas, axes, th, ph = [0.2 + 0.1j, -0.3j], [(0.7, 0.4), (1.9, -1.1)], 0.4, -0.9
        par = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
        dp_ops = [d @ (par[:, None] * d.conj().T) for d in displacement(alphas, 16)]
        assert abs(displaced_parity_expect(rho, alphas)
                   - _dense_expect(kets, weights, dp_ops)) < 1e-12
        ps_ops = [pseudospin_axis_op(t, p, 16) for t, p in axes]
        assert abs(pseudospin_expect(rho, axes) - _dense_expect(kets, weights, ps_ops)) < 1e-12
        _, G = _half_line_matrices(16)
        assert abs(quadrature_orthant_expect(rho, th, ph) - _dense_expect(
            kets, weights, [_rotated(G, th), _rotated(G, ph)])) < 1e-12

    def test_onoff_matches_dense_formula(self):
        st = su21_fock(TripartitePhotonNumbers(0.3, 0.3), 20)
        prob, rho = click_probability(st, 2, 0.8), onoff_condition(st, 2, 0.8)
        flat = np.moveaxis(st.kets[0], 2, -1).reshape(-1, 20)
        dense = st.weights[0] * (flat * (1.0 - 0.2 ** np.arange(20))) @ flat.conj().T / prob
        assert np.max(np.abs(matrix(rho) - dense)) < 1e-15

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_heralding_a_mixture_matches_dense_reference(self, mode):
        # two three-mode kets; rho and Pi_1 on ``mode`` formed densely
        rng = np.random.default_rng(9)
        c, eta = 6, 0.7
        decay = 0.5 ** np.add.outer(np.add.outer(np.arange(c), np.arange(c)), np.arange(c))
        kets = decay * (rng.normal(size=(2, c, c, c)) + 1j * rng.normal(size=(2, c, c, c)))
        weights = _unit_trace(kets, np.array([0.3, 0.8]))
        flat = kets.reshape(2, -1)
        rho = np.einsum("i,ik,il->kl", weights, flat, flat.conj()).reshape((c,) * 6)
        click = 1.0 - (1.0 - eta) ** np.arange(c)
        kept = np.einsum("abcdkk,k->abcd", np.moveaxis(rho, (mode, mode + 3), (4, 5)), click)
        prob_ref = float(np.real(np.einsum("abab->", kept)))
        rho_ref = kept.reshape(c * c, c * c) / prob_ref
        st = FockDensityOperator(3, c, kets, weights)
        assert abs(click_probability(st, mode, eta) - prob_ref) < 1e-12
        cond = onoff_condition(st, mode, eta)
        assert np.max(np.abs(matrix(cond) - rho_ref)) < 1e-12

    @pytest.mark.parametrize("case", ["mixture", "heralded"])
    def test_matrix_is_a_density_matrix(self, case):
        if case == "mixture":
            rho = FockDensityOperator(2, 16, *_mixture())
        else:
            rho = onoff_condition(su21_fock(TripartitePhotonNumbers(0.3, 0.3), 20), 2, 0.8)
        m = matrix(rho)
        assert np.max(np.abs(m - m.conj().T)) < 1e-15
        assert abs(np.real(np.trace(m)) - 1.0) < 1e-12
        assert min_eigenvalue(rho) >= -1e-9

    @given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 3),
           cutoff=st.integers(2, 7), rank=st.integers(1, 3), sparse=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_pair_sum_matches_dense_reference(self, seed, n_modes, cutoff, rank, sparse):
        # a sparse state takes the pair sum and a dense one the contraction
        state = _random_state(seed, n_modes, cutoff, rank, sparse)
        assert (state._pairs is None) == (not sparse)
        rng = np.random.default_rng(seed + 1)
        ops = [(rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff)))
               / cutoff for _ in range(n_modes)]
        ops = [op + op.conj().T for op in ops]    # Hermitian, as every observable
        assert abs(_expect(state, ops) - _dense_expect(state.kets, state.weights, ops)) < 1e-13

    @pytest.mark.parametrize("case", ["su21", "heralded", "mixture", "sparse"])
    def test_cached_marginals_are_the_slice_sums(self, case):
        # each mode's number distribution, cached once, is the direct sum of the
        # squared slices over the other modes, and the click probability weighs it
        state = _pseudospin_states()[case]
        assert len(state._marginals) == state.n_modes
        for mode, marginal in enumerate(state._marginals):
            others = tuple(j for j in range(1, state.n_modes + 1) if j != mode + 1)
            direct = state.weights @ np.sum(np.abs(state.kets) ** 2, axis=others)
            assert np.array_equal(marginal, direct)
            loop = sum(w * np.array([np.sum(np.abs(np.take(k, n, axis=mode)) ** 2)
                                     for n in range(state.cutoff)])
                       for w, k in zip(state.weights, state.kets))
            assert np.max(np.abs(marginal - loop)) < 1e-15
            click = 1.0 - (1.0 - 0.7) ** np.arange(state.cutoff)
            assert click_probability(state, mode, 0.7) == float(click @ direct)

    def test_pair_table_on_the_oracle_states(self):
        # the heralded state's 20,540 ordered pairs (the n3 = 0 slice has weight 0)
        # are fewer than its 64,000 amplitudes, and the table keeps s <= t,
        # (20,540 + 780)/2; the pure su21 ket's 820^2 are more, so it is dense
        state = su21_fock(TripartitePhotonNumbers(0.3, 0.3), 40)
        assert state._pairs is None
        assert onoff_condition(state, 2, 0.8)._pairs[0].size == 10660

    BAD = {
        # trace 1 with one weight of the wrong sign
        "negative": lambda k, w: (k, _unit_trace(k, w * [1.0, 1.0, -1.0])),
        "nan": lambda k, w: (k, np.where(np.arange(3) == 1, np.nan, w)),
        "inf": lambda k, w: (k, np.where(np.arange(3) == 1, np.inf, w)),
        "column": lambda k, w: (k, w[:, None]),
        "too-few": lambda k, w: (k, w[:2]),
        "ket-shape": lambda k, w: (k[:, :, :15], w),
        "trace": lambda k, w: (k, 1.01 * w),
    }

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_rejects_bad_weights(self, bad):
        with pytest.raises(InvalidParameterError):
            FockDensityOperator(2, 16, *bad(*_mixture()))
