"""Bell-inequality tests for two- and three-mode continuous-variable states.

Gaussian covariance machinery, a truncated Fock-space oracle, the heralded
(degaussified) two-mode state, and three measurement strategies: displaced
parity, pseudospin, and dichotomized homodyne.
"""
from .errors import (
    ConditioningError,
    CutoffTooSmallError,
    CvBellError,
    InvalidParameterError,
    PrecisionError,
    UndefinedStateError,
)
from .gaussian import (
    GaussianState,
    TripartitePhotonNumbers,
    ghz_r_from_photons,
    ghz_state,
    su21_state,
    twb_state,
)
from .fock import (
    FockDensityOperator,
    click_probability,
    displaced_parity_expect,
    ghz_fock,
    onoff_condition,
    pseudospin_expect,
    quadrature_orthant_expect,
    su21_fock,
    twb_fock,
    wigner_reconstruct,
)
from .conditional import ConditionalParams, p_click
from .bell_dp import (
    DpRates,
    DpSettings,
    b3_ghz_closed,
    b3_su21_closed,
    conditional_dp_settings,
    e_dp,
    su21_opt_dp_settings,
    su21_opt_state,
    su21_sym_state,
    twb_dp_settings,
)
from .bell_ps import (
    PsCoefficients,
    b2_ps_from_f,
    b3_ps_from_coeffs,
    f_conditional,
    f_traced,
    f_twb,
    ghz_pi_coeffs,
    su21_pi_coeffs,
    su21_ps_coeffs,
)
from .homodyne import chsh_h, classical_reference, e_h
from .optim import ScanResult, klyshko_max, log_j_maximize, maximize_scalar

__version__ = "0.1.0"
