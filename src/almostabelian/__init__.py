"""Nilpotent almost abelian Lie algebras with complex structure.

Classification of the admissible Jordan types, construction of the
canonical models and their structure equations, and Betti/Hodge numbers
computed both by closed representation-theoretic formulas and by exact
rank oracles on the Chevalley-Eilenberg and Dolbeault complexes.
"""

from .cohomology import (
    CohomologyTable,
    betti_closed,
    betti_oracle,
    closed_table,
    hodge_closed,
    hodge_oracle,
    module_triple,
    oracle_table,
    verify_symmetry,
)
from .model import (
    AlgebraModel,
    ComplexModel,
    InvalidModelError,
    StructureEquations,
    admits_complex_structure,
    build_algebra,
    enumerate_models,
    jordan_partition,
    nijenhuis_vanishes,
    nilpotency_step,
    stable_series,
    structure_equations,
)
from .partitions import Partition, partitions_of, restricted_count
from .sl2 import Sl2Module, decompose_from_weights, delta, irreducible, tensor, wedge

__all__ = [
    "AlgebraModel",
    "CohomologyTable",
    "ComplexModel",
    "InvalidModelError",
    "Partition",
    "Sl2Module",
    "StructureEquations",
    "admits_complex_structure",
    "betti_closed",
    "betti_oracle",
    "build_algebra",
    "closed_table",
    "decompose_from_weights",
    "delta",
    "enumerate_models",
    "hodge_closed",
    "hodge_oracle",
    "irreducible",
    "jordan_partition",
    "module_triple",
    "nijenhuis_vanishes",
    "nilpotency_step",
    "oracle_table",
    "partitions_of",
    "restricted_count",
    "stable_series",
    "structure_equations",
    "tensor",
    "verify_symmetry",
    "wedge",
]

__version__ = "0.1.0"
