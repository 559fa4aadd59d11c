"""GF(2^m) arithmetic: representation tables, Mastrovito multiplier
circuits, LFSR polynomial division, basis conversions, and block-code
metrics, with a CLI that regenerates every reference table.
"""

from .algebra import (
    BasisTriple,
    ConjugacyClass,
    basis_table,
    basis_triple,
    conjugacy_class,
    dual_basis_coords,
    find_dual_basis,
    from_coords,
    minimal_polynomial,
    normal_basis,
    normal_basis_coords,
    roots_in_field,
    trace,
)
from .code_metrics import (
    CodeBook,
    CodeCapabilities,
    capabilities,
    hamming_distance,
    min_distance,
)
from .errata import ERRATA, Erratum
from .errors import Gf2mError
from .field import GF2m, FieldElement, PowerForm
from .lfsr import LfsrConfig, TraceRow, divide, from_polynomial, period
from .mastrovito import (
    ComplexityReport,
    MastrovitoMatrix,
    SerialStepSpec,
    build_z_matrix,
    complexity_report,
    constant_equations,
    constant_mul_matrix,
    constant_xor_counts,
    emit_netlist,
    general_multiplier_netlist,
    mat_vec_mul,
    serial_interleaved_multiply,
    squaring_matrix,
    symbolic_z_matrix,
    xor_count,
    xor_count_estimate,
)
from .netlist import NetlistBuilder, XorNetlist
from .polynomial import (
    Gf2Poly,
    is_irreducible,
    is_primitive,
    order_of_x,
    poly_divmod,
    primitive_poly,
)

__version__ = "0.1.0"

__all__ = [
    "BasisTriple",
    "CodeBook",
    "CodeCapabilities",
    "ComplexityReport",
    "ConjugacyClass",
    "ERRATA",
    "Erratum",
    "FieldElement",
    "GF2m",
    "Gf2Poly",
    "Gf2mError",
    "LfsrConfig",
    "MastrovitoMatrix",
    "NetlistBuilder",
    "PowerForm",
    "SerialStepSpec",
    "TraceRow",
    "XorNetlist",
    "__version__",
    "basis_table",
    "basis_triple",
    "build_z_matrix",
    "capabilities",
    "complexity_report",
    "conjugacy_class",
    "constant_equations",
    "constant_mul_matrix",
    "constant_xor_counts",
    "divide",
    "dual_basis_coords",
    "emit_netlist",
    "find_dual_basis",
    "from_coords",
    "from_polynomial",
    "general_multiplier_netlist",
    "hamming_distance",
    "is_irreducible",
    "is_primitive",
    "mat_vec_mul",
    "min_distance",
    "minimal_polynomial",
    "normal_basis",
    "normal_basis_coords",
    "order_of_x",
    "period",
    "poly_divmod",
    "primitive_poly",
    "roots_in_field",
    "serial_interleaved_multiply",
    "squaring_matrix",
    "symbolic_z_matrix",
    "trace",
    "xor_count",
    "xor_count_estimate",
]
