import ast
import inspect
from pathlib import Path

import cvbell

# Every name ``import cvbell`` exposes, submodules aside.  A new public name,
# or the return of a removed wrapper, has to be added here on purpose.
PUBLIC_NAMES = {
    # errors
    "ConditioningError", "CutoffTooSmallError", "CvBellError", "InvalidParameterError",
    "PrecisionError", "UndefinedStateError",
    # gaussian
    "GaussianState", "TripartitePhotonNumbers", "ghz_r_from_photons", "ghz_state", "su21_state",
    "twb_state",
    # fock
    "FockDensityOperator", "click_probability", "displaced_parity_expect",
    "onoff_condition", "pseudospin_expect",
    "quadrature_orthant_expect", "su21_fock", "twb_fock", "wigner_reconstruct",
    # conditional
    "ConditionalParams", "p_click",
    # bell_dp
    "DpRates", "DpSettings", "b3_ghz_closed", "b3_su21_closed",
    "conditional_dp_settings", "e_dp", "e_dp_ghz_closed",
    "su21_opt_dp_settings", "su21_opt_state", "su21_sym_state", "twb_dp_settings",
    # bell_ps
    "PsCoefficients", "b2_ps_from_f", "b3_ps_from_coeffs",
    "f_conditional", "f_traced", "f_twb", "ghz_pi_coeffs", "pi_coeffs_quadrature",
    "su21_pi_coeffs", "su21_ps_coeffs",
    # homodyne
    "chsh_h", "classical_reference", "e_h",
    # optim
    "ScanResult", "klyshko_max", "log_j_maximize", "maximize_scalar",
}


def _exposed() -> set[str]:
    return {name for name, obj in vars(cvbell).items()
            if not name.startswith("_") and not inspect.ismodule(obj)}


def test_public_names_are_pinned():
    assert _exposed() == PUBLIC_NAMES


def _references() -> dict[str | None, set[str]]:
    """For each top-level definition in the package's modules other than
    ``__init__.py``, the names it refers to as a name or an attribute, its own
    name aside; other top-level statements are keyed by None.  Mentions in
    docstrings or comments are not references."""
    refs: dict[str | None, set[str]] = {}
    for path in Path(cvbell.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            refs.setdefault(own, set()).update(names - {own})
    return refs


def test_every_public_name_is_used_by_the_package():
    """The package exports only what it runs: each public name is referred to
    in ``cvbell`` itself, by code other than public names that are unused
    in turn (so a helper used only by an unused export is unused too)."""
    exposed, refs = _exposed(), _references()
    unused: set[str] = set()
    while True:
        used = set().union(*(names for own, names in refs.items() if own not in unused))
        if exposed - used == unused:
            break
        unused = exposed - used
    assert unused == set()
