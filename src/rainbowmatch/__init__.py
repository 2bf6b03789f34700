"""Rainbow matchings in bipartite, r-partite and general uniform hypergraphs:
solvers, shifting with constructive pull-back, extremal constructions, exact
brute-force oracles, and desk-scale verification harnesses."""

from .core import (GENERAL, PARTITE, Edge, Family, GroundSet, Hypergraph,
                   RainbowMatching, is_matching, nu_exact, pm_decomposition,
                   rainbow_exact)
from .errors import (InputError, PreconditionError, RainbowError,
                     TheoremViolationError)
from .extremal import (ekr_star, f_large_n, f_r2, g_formula, r3_counterexample,
                       star_family, steal_family)
from .instances import Instance, parse_instance, serialize_instance
from .shifting import (ShiftLog, ShiftStep, is_shifted, pullback_rainbow,
                       shift_hypergraph, shifted_closure)
from .solvers import (AlgoTrace, DegreeMatrix, HallCheck, StepRecord,
                      check_hall_condition, greedy_bipartite,
                      hall_size_algorithm, large_n_procedure, meshulam_r2,
                      r3_solve, simple_algorithm)
from .verify import (ConjectureId, MatrixCheck, VerifyReport,
                     check_conjecture, check_matrix_conjecture,
                     compute_threshold_exact, enumerate_shifted, iter_shifted,
                     scan_large_n)

__all__ = [
    "AlgoTrace", "ConjectureId", "DegreeMatrix", "Edge", "Family",
    "GENERAL", "GroundSet", "HallCheck", "Hypergraph",
    "InputError", "Instance", "MatrixCheck", "PARTITE", "PreconditionError",
    "RainbowError", "RainbowMatching", "ShiftLog", "ShiftStep", "StepRecord",
    "TheoremViolationError", "VerifyReport", "check_conjecture",
    "check_hall_condition", "check_matrix_conjecture",
    "compute_threshold_exact", "ekr_star", "enumerate_shifted",
    "f_large_n", "f_r2", "g_formula", "greedy_bipartite",
    "hall_size_algorithm", "is_matching", "is_shifted", "iter_shifted",
    "large_n_procedure", "meshulam_r2", "nu_exact", "parse_instance",
    "pm_decomposition", "pullback_rainbow", "r3_counterexample", "r3_solve",
    "rainbow_exact", "scan_large_n", "serialize_instance",
    "shift_hypergraph", "shifted_closure", "simple_algorithm", "star_family",
    "steal_family",
]
