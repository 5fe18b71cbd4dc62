"""Exact resultants of quadratic binomial complete intersections.

The library computes factored resultants from the cycles of the functional
graph behind the sparse coefficient matrices C(lambda), realizes the
square-free monomial basis rewriting for specialized complete intersections,
and reproduces the built-in quintic Macaulay duals, their Hilbert functions
and higher Hessians.
"""

__version__ = "1.0.0"

from .coeff_matrix import CoeffMatrix, MatrixEntry, build_c, build_cprime
from .det_factor import BinomialFactor, FactoredPoly, decompose, factor_determinant
from .errors import (
    BinresError,
    DegenerateSampleError,
    DegenerateSystemError,
    DegreeRangeError,
    DependentFormsError,
    GenericityExhaustedError,
    InternalCheckError,
    MissingParameterError,
    ModeMismatchError,
    NonSquareMatrixError,
    ParseError,
    SingularCoeffMatrixError,
    ValidationError,
)
from .frames import (
    ColumnFrame,
    MonomialFrame,
    RowFrame,
    build_column_frame,
    build_frame,
    build_row_frame,
    cyclic_orders,
    identity_order,
)
from .inverse_system import (
    HessianMatrix,
    ann_generator_counts,
    annihilator_forms,
    annihilator_system,
    apply_diff,
    builtin_dual,
    catalecticant_hilbert,
    catalecticant_matrix,
    hess2_vanishing_order,
    hess_det_eval,
    hessian,
)
from .normal_form import NormalFormResult, QuadraticSpace, is_normal_form, to_normal_form
from .oracle import (
    ModularContext,
    det_mod,
    ideal_dim,
    membership,
    quotient_dim,
    run_selftest,
    sylvester_resultant_2,
)
from .polynomials import ParamPoly, XPoly, monomials, poly_mul, specialize
from .resultant import (
    DeltaChain,
    delta,
    delta_chain,
    divides,
    factored_gcd,
    radical,
    resultant,
    resultant_eval,
)
from .rewrite import RewriteTable, hilbert_function, reduce, rewrite_table
from .systems import (
    BinomialSystem,
    Generator,
    cyclic_system,
    make_system,
    parse,
    parse_assignment,
    parse_x_polynomial,
)
