"""Exact local calculus of smooth orbifolds.

Linear chart models (a finite rational matrix group acting on R^n or a half
space), equivariant polynomial map germs between them, regular values and
preimage suborbifold structure, the invariant projection onto a
differential kernel (read off the generators of the homomorphism kernel),
obstruction certificates for real-valued maps, and the compact 1-orbifold /
no-retraction bookkeeping.  All core arithmetic is exact over Q.
"""

__version__ = "0.1.0"

from .ratlin import Matrix, MultiPoly, Rational, Subspace, kernel, kernel_image_rank
from .groups import (
    FiniteMatrixGroup,
    GroupHom,
    Subgroup,
    find_invariant_subspace,
    generate_closure,
    index2_subgroups,
    verify_homomorphism,
)
from .charts import (
    ChartEmbedding,
    LocalChart,
    build_chart,
    isotropy_at,
    product_chart,
    stratify,
    suborbifold_model,
    verify_embedding,
)
from .germs import (
    MapGerm,
    PreimageModel,
    build_germ,
    cocycle_identities,
    faithfulness_check,
    invariant_projection,
    is_regular_value,
    lift_replacement_invariance,
    obstruction_certificate,
    preimage_model,
    real_target_structure,
    recenter_germ,
    sard_sample,
)
from .onedim import (
    OneOrbifoldComponent,
    assemble_components,
    boundary_parity,
    classify_1_orbifold,
    forbidden_index2_check,
    no_retraction_hypothesis,
    retraction_contradiction,
)

__all__ = [
    "__version__",
    "Matrix", "MultiPoly", "Rational", "Subspace", "kernel", "kernel_image_rank",
    "FiniteMatrixGroup", "GroupHom", "Subgroup", "find_invariant_subspace",
    "generate_closure", "index2_subgroups", "verify_homomorphism",
    "ChartEmbedding", "LocalChart", "build_chart", "isotropy_at",
    "product_chart", "stratify", "suborbifold_model", "verify_embedding",
    "MapGerm", "PreimageModel", "build_germ", "cocycle_identities",
    "faithfulness_check", "invariant_projection", "is_regular_value",
    "lift_replacement_invariance", "obstruction_certificate",
    "preimage_model", "real_target_structure",
    "recenter_germ", "sard_sample",
    "OneOrbifoldComponent", "assemble_components", "boundary_parity",
    "classify_1_orbifold", "forbidden_index2_check",
    "no_retraction_hypothesis", "retraction_contradiction",
]
