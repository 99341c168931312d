"""slicekit: quaternionic slice analysis made executable.

Slice-unit matrix constructions, multi-sheet continuation of the square root
and logarithm, the representation formula with its path invariant, the
stem/tensor star product, and slice-regular power-series calculus.
"""

from .quat import ImaginaryUnit, Quaternion, embed_slice, hamilton_product, quat_inverse
from .qmat import QuaternionMatrix, complex_adjoint, qmat_inverse, qmat_mul, qmat_rank
from .sliceunits import (
    SliceUnitMatrix,
    eta,
    full_slice_rank_permutation,
    has_full_slice_rank,
    is_left_slice_linearly_independent,
    slice_matrix,
    unit_product,
    zeta,
)
from .paths import Arc, Chain, Line, NPartPath, beta_path, lift, make_npart_path
from .monodromy import (
    GermKey,
    LogModel,
    SqrtModel,
    continue_segment,
    evaluate_lifted,
    germ_key,
    junction_switch,
)
from .representation import (
    evaluate_via_formula,
    extendability_check,
    invariance_check,
    representation_vector,
)
from .stemtensor import StemValue, star_vector
from .stems import (
    SampledStem,
    StemSystem,
    build_stem_system,
    stem_add,
    stem_cr_residual,
    stem_from_slice,
    stem_star,
    validate_stem_system,
)
from .calculus import (
    AxSymDomain,
    SliceRegularPoly,
    leibniz,
    regular_conjugate,
    regular_reciprocal,
    slice_derivative,
    star_product,
    stem_series_check,
    symmetrization,
    taylor_eval,
)

__version__ = "0.1.0"
