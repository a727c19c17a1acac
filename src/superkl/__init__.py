"""Exact combinatorics of tensor products of quantum exterior powers:
01-matrix weight posets, canonical bases, graded decomposition polynomials,
crystal graphs, super weight dictionaries, and small quiver Hecke algebras.
"""

from .laurent import LaurentInt, bar, div_exact, qfact, qint
from .weights import (
    Interval,
    Matrix01,
    TypeNC,
    WeightPI,
    defect,
    dominance_leq,
    enumerate_weights,
    equivalent_type,
    in_Lambda_J,
    in_leq_J,
    in_lt_J,
    kappa,
    order_leq,
    parse_matrix,
    truncate,
    weight_of,
)
from .qmodule import (
    ModuleVec,
    act_e,
    act_e_star,
    act_f,
    act_f_star,
    act_k,
    divided_power_e,
    divided_power_f,
    form,
)
from .canonical import (
    bar_psi,
    canonical_basis,
    canonical_basis_direct,
    dual_canonical,
    kl_d,
    kl_d_stable,
    kl_p,
    kl_p_stable,
    twisted_canonical,
    young_word_dim,
)
from .crystal import (
    WindowTower,
    crystal_e,
    crystal_f,
    is_prinjective,
    lambda_circ,
    same_block,
)
from .superweights import (
    SuperWeight,
    bruhat_leq,
    dominance_super,
    from_matrix01,
    linkage_up,
    rho,
    to_matrix01,
)
from .klr import (
    AHAElem,
    KLRContext,
    KLRElem,
    aha_mul,
    b_idempotent,
    klr_degree,
    klr_mul,
    nilhecke_act,
    nilhecke_graded_rank_check,
    verify_relations,
)

__version__ = "0.1.0"
