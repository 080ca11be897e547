"""Exact continued-fraction loop weights and certified forbidden conductor values."""

from .exact import (
    AlgebraicNumber,
    IntPoly,
    NoSignChange,
    isolate_root,
)
from .continuants import (
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
    chain_length,
    evaluate_path,
    lemma_weight_squared,
    search_nonunit_loop,
    shifted_alternating_loop,
    verify_witness,
    weight_squared,
)
from .families import (
    DarbouxWitness,
    PellWitness,
    cos2_family,
    darboux_witnesses,
    golden_targets,
    norm_form,
    pell_witnesses,
)

__version__ = "0.1.0"
