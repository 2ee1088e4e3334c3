"""
Exact-arithmetic insertion algorithms and W-graphs for the two Gelfand
models of the symmetric group's Iwahori-Hecke algebra.
"""

from .laurent import LaurentPoly
from .perm import (
    Involution,
    Permutation,
    conj_by_s,
    conj_compare,
    cycles_sorted,
    enumerate_involutions,
    knuth_move,
    length,
    parse_involution,
)
from .tableau import (
    BumpingPath,
    Tableau,
    dual_equiv,
    odd_lines,
    pq_rs,
    reading_word,
    restrict,
    rs_insert,
    rs_uninsert,
    standard_tableaux,
    transpose,
)
from .beissinger import (
    cbs_insert,
    p_cbs,
    p_cbs_inverse,
    p_rbs,
    p_rbs_inverse,
    psi,
    psi_cycle_stats,
    psi_orbit,
    rbs_insert,
    simcbs_partner,
    simrbs_partner,
)
from .hecke import HeckeElement, h_bar, h_s_mul, kl_basis, kl_cells, kl_wgraph
from .gelfand import (
    DescentData,
    GelfandVertex,
    ModuleElement,
    MuTable,
    bar_module,
    canonical_basis,
    descent_data,
    embed,
    h_action,
    hat_p,
    iota_line,
    lambda_shape,
    tau,
    transfer_points,
)
from .wgraph import (
    WGraph,
    build_gamma,
    cells,
    character_check,
    classify,
    classify_graph,
    combinatorial_bidirected,
    export,
    molecules,
    parse_wgraph,
    verify_axioms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
