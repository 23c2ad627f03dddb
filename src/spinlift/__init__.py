"""Exact spinor L-factor algebra for liftings from GL(2) x GSp(4) to GSp(6).

Satake-parameter algebra, exact local factors and their tensor products,
the degree-3 torus lifting with its eigenvalue and local-factor identities,
cuspidality templates, Hodge-type weight rigidity, and Gamma-completion
bookkeeping, all verified from self-generated q-expansion fixtures.

Importing the package loads no submodule: each exported name is imported
from its module on first access, so a caller pays only for what it uses.
"""

import importlib

_EXPORTS = {
    "analytic": (
        "AbscissaError", "EulerProductResult", "GammaProfile", "critical_values",
        "linf_rankin_selberg", "linf_spin3", "truncated_euler_product",
    ),
    "cuspidality": ("CuspidalityVerdict", "EisensteinKind", "cuspidality_decision"),
    "hodge": (
        "HodgeType", "hodge_gl2", "hodge_gsp4", "hodge_gsp6", "kunneth_tensor",
        "weight_solver",
    ),
    "lifting": (
        "LiftInput", "TensorIdentityReport", "WeightCheck", "lift_input_from_records",
        "lift_weights", "lifted_spin_factor_exact", "synthetic_lift_input",
        "verify_eigenvalue_product", "verify_tensor_identity",
    ),
    "localfactors": (
        "LocalFactor", "PoleError", "evaluate", "gl2_factor_exact",
        "gsp4_spin_factor_exact", "tensor_local_factor",
    ),
    "modforms": (
        "EigenvalueRecord", "QSeries", "delta", "eisenstein", "fixture_records",
        "load_fixtures", "newform_weight26", "write_fixtures",
    ),
    "satake": ("SatakeParams", "saito_kurokawa_satake", "satake_from_gl2"),
}
#: Exported name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # Also how `from spinlift import modforms` falls through to the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
