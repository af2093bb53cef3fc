"""Exact refutation certificates for graph norming properties.

Computes homomorphism-density polynomials of small graphs over step-function
kernels in exact rational arithmetic, decides positive semidefiniteness of
their Hessians with witness extraction, and emits machine-checkable
certificates that specific graphs are not (weakly) norming.
"""

__version__ = "0.1.0"

from .errors import SizeGuardError, UsageError
from .graphs import (
    Graph,
    bowtie_blowup,
    cartesian_k2,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
    kpm_graph,
    structural_report,
    verify_bowtie_structure,
)
from .matrices import SymRationalMatrix, block_pm_ones, cut_norm, sample_matrix
from .polys import SparsePoly
from .homs import (
    SymbolicTemplate,
    counting_lemma_check,
    density,
    eulerian_indicator_check,
    hatami_box_check,
    norm_powers,
    sidorenko_check,
    symbolic_profile,
    weighted_hom_count,
)
from .hessians import (
    HessianMatrix,
    PsdResult,
    allones_hessian,
    annihilates_ones,
    hessian_matrix,
    psd_certify,
    quadratic_form,
)
from .certificates import (
    Certificate,
    Refusal,
    certify_bowtie_cycle,
    certify_kpm,
    random_witness_search,
    screen_necessary,
    verify_certificate,
)
