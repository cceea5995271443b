import inspect

import cvbell

# Every name ``import cvbell`` exposes, submodules aside.  A new public name,
# or the return of a removed wrapper, has to be added here on purpose.
PUBLIC_NAMES = {
    # errors
    "ConditioningError", "CutoffTooSmallError", "CvBellError", "InvalidParameterError",
    "PrecisionError", "UndefinedStateError", "UnsupportedRegimeError",
    # gaussian
    "CouplingParams", "GaussianState", "TripartitePhotonNumbers", "coupling_to_photons",
    "ghz_r_from_photons", "ghz_state", "ghz_total_photons", "reduce_state", "su21_state",
    "twb_state", "wigner_eval",
    # fock
    "FockDensityOperator", "click_probability", "displaced_parity_expect",
    "onoff_condition", "orthant_probabilities", "pseudospin_expect",
    "quadrature_orthant_expect", "su21_fock", "twb_fock", "wigner_reconstruct",
    # conditional
    "ConditionalParams", "TwoGaussianWigner", "p_click", "w1_eval", "w_traced",
    # bell_dp
    "BellValue", "DpSettings", "b2_dp", "b3_dp_general", "b3_ghz_closed", "b3_su21_closed",
    "conditional_dp_settings", "e_dp_conditional", "e_dp_gaussian", "e_dp_ghz_closed",
    "ghz_dp_settings", "large_squeezing_residual", "su21_opt_dp_settings", "su21_opt_state",
    "su21_sym_dp_settings", "su21_sym_state", "twb_bw_dp_settings", "twb_dp_settings",
    # bell_ps
    "PsCoefficients", "PsSettings", "b2_ps_from_f", "b3_ps", "b3_ps_from_coeffs", "e_ps3",
    "f_conditional", "f_traced", "f_twb", "ghz_pi_coeffs", "pi_coeffs_quadrature",
    "su21_pi_coeffs", "su21_ps_coeffs",
    # homodyne
    "chsh_h", "classical_reference", "e_h",
    # optim
    "ScanResult", "asymptote_relations", "klyshko_max", "log_j_maximize", "maximize_scalar",
}


def test_public_names_are_pinned():
    exposed = {name for name, obj in vars(cvbell).items()
               if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exposed == PUBLIC_NAMES
