"""Explicit recursive towers of curves built from rank-2 Drinfeld modules.

The package provides exact finite-field arithmetic, the twisted
polynomial ring of q-linearized polynomials, rank-2 Drinfeld modules
over k[T] with isogenies, the recursive tower enumerations with their
supersingular loci, and point-count / zeta consistency reporting.
"""

__version__ = "0.1.0"

from .finite_field import (
    CapExceededError,
    DEFAULT_CAP,
    FieldElement,
    FieldSpec,
    embed,
    make_field,
    prime_power,
    subfield_elements,
    trace_to_subfield,
)
from .linearized import LinearizedPoly, kernel_in, preimages, splitting_field
from .drinfeld import (
    APoly,
    DrinfeldModule,
    Rank1Module,
    isogeny_from_kernel,
    verify_isogeny,
)
from .tower import (
    TowerPoint,
    X0Point,
    cofactor_poly,
    enumerate_x0,
    enumerate_xprime,
    kernel_line_poly,
    module_from_torsion_point,
    quotient_torsion_poly,
    supersingular_z_values,
    torsion_poly,
    verify_descent,
)
from .counting import CountReport, count_points, hermitian_check, zeta_consistency
