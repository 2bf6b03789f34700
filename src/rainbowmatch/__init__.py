"""Rainbow matchings in bipartite, r-partite and general uniform hypergraphs:
solvers, shifting with constructive pull-back, extremal constructions, exact
brute-force oracles, and desk-scale verification harnesses.

Importing the package registers its modules without executing them. A
module runs the first time one of its names is read, here or on the module,
so a command pays only for the modules it calls into."""

import importlib.util
import sys

# the module that defines each public name; extremal re-exports core's
# f_r2 and g_formula, core forwards the oracles' two, verify forwards the
# names its drivers, exhaustive and sampling, took from it, and index (the
# cell index) exports none
_EXPORTS = {
    "core": ("ConjectureId", "Edge", "Family", "GENERAL", "GroundSet", "Hypergraph",
             "PARTITE", "RainbowMatching", "f_r2", "g_formula", "is_matching",
             "pm_decomposition"),
    "errors": ("InputError", "PreconditionError", "RainbowError", "TheoremViolationError"),
    "exhaustive": ("compute_threshold_exact", "enumerate_shifted", "iter_shifted"),
    "extremal": ("ekr_star", "f_large_n", "r3_counterexample", "star_family",
                 "steal_family"),
    "index": (),
    "instances": ("Instance", "parse_instance", "serialize_instance"),
    "oracles": ("nu_exact", "rainbow_exact"),
    "sampling": ("scan_large_n",),
    "shifting": ("ShiftLog", "ShiftStep", "is_shifted", "pullback_rainbow",
                 "shift_hypergraph", "shifted_closure"),
    "solvers": ("AlgoTrace", "DegreeMatrix", "HallCheck", "StepRecord",
                "check_hall_condition", "greedy_bipartite", "hall_size_algorithm",
                "large_n_procedure", "meshulam_r2", "r3_solve", "simple_algorithm"),
    "verify": ("MatrixCheck", "VerifyReport", "check_conjecture", "check_matrix_conjecture"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _register(name: str) -> None:
    """Put the submodule in sys.modules and bind it on the package, without
    executing it: reading any of its attributes executes it. Bound, so that
    `from . import name` finds it and leaves it as it is; importing a module
    not bound on its package reads the module's __spec__ (Python 3.11 and
    later), which would execute it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _module in _EXPORTS:
    _register(_module)
del _module


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[owner], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
