"""Endomorphism monoids of free G-acts and their idempotent-generated shadows.

The package builds the rank-r slice of such a monoid as a Rees matrix
structure, derives presentations of the maximal subgroup attached to a
rank-r idempotent, reduces them through connectivity and rising-point
decompositions, and checks by coset enumeration, at n or at the (r+2, r)
slice, that the presented group is the expected wreath product.
"""

from .biorder import (
    ESquare,
    enumerate_idempotents,
    esquare_at,
    idempotent_at,
    is_rectangular_band,
    singular_witness,
    square_condition,
)
from .endo import (
    Endo,
    KernelData,
    WreathElem,
    compose,
    from_wreath,
    green_test,
    identity_endo,
    image,
    is_idempotent,
    kernel,
    parse_endo,
    parse_wreath,
    rank,
    to_wreath,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)
from .errors import (
    BadRank,
    Capped,
    GactError,
    IncompleteTable,
    IndexOutOfRange,
    NotDecomposable,
    NotInH,
    ParseError,
    RankMismatch,
    ResourceLimit,
    StepNotApplicable,
    TableNotGroup,
    WitnessNotFound,
    ZeroEntry,
)
from .fpgroup import Abelianization, CosetTable, abelianization, todd_coxeter, word_equal
from .groups import (
    Group,
    cyclic_group,
    ginv,
    gmul,
    group_from_table_file,
    group_from_text,
    make_group,
    symmetric_group,
    trivial_group,
)
from .presentation import (
    Presentation,
    SchreierSystem,
    build_gr_presentation,
    build_quotient_presentation,
    eliminate_generators,
    lavers_presentation,
    presentation_to_text,
    schreier_build,
)
from .reduction import (
    MergeWitness,
    PositionGraph,
    connectivity,
    decompose,
    find_singular_witness,
    is_simple_form,
    rising_point,
    simple_form_elem,
    simplify_presentation,
    step_d,
    step_u,
    step_u_prime,
    value_component_counts,
)
from .rees import (
    KernelIndex,
    SandwichMatrix,
    build_sandwich,
    kernel_list,
    lambda_list,
    matrix_to_text,
    q_of,
    set_partitions,
    theta,
)
