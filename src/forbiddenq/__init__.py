"""Exact continued-fraction loop weights and certified forbidden conductor values."""

from .exact import (
    AlgebraicNumber,
    IntPoly,
    NoSignChange,
    isolate_root,
    real_roots,
)
from .continuants import (
    f_poly,
    g_identity_check,
    g_poly,
    g_roots,
    prefix_pairs,
    ratio_in_q,
    u_point,
    u_set,
)
from .loops import (
    BrokenPath,
    BudgetExceeded,
    DegenerateC,
    FormulaWeight,
    LoopWitness,
    NonPositiveQ,
    OutOfRange,
    PathEval,
    SearchConfig,
    SearchResult,
    ZeroDenominator,
    brute_enumerate_loops,
    chain_length,
    check_chain_proposition,
    closed_form_c5,
    evaluate_path,
    lemma_weight_squared,
    search_nonunit_loop,
    shifted_alternating_loop,
    verify_witness,
    weight_squared,
)
from .families import (
    DarbouxWitness,
    NegativeDiscriminant,
    PellWitness,
    cos2_family,
    darboux_witnesses,
    fibonacci,
    golden_targets,
    norm_form,
    pell_witnesses,
    quadratic_targets,
)

__version__ = "0.1.0"
