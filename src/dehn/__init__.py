"""Symbolic Dehn-twist calculus on surfaces, with exact equality engines.

The package models twist words on a genus-g surface with at most one
boundary component, decides word equality exactly (faithful free-group
action rel boundary, homology at genus 1, Dehn reduction for closed genus
>= 2), rewrites words (commutation pulls, positivization, the chain
substitution), and computes invariants of the Lefschetz fibrations the
words describe.
"""

from .constructions import (
    branched_double_cover,
    mapping_torus_homology,
    splitting_words,
    swap_matrix,
    theorem11_family,
    trefoil_completions,
)
from .fibration import (
    AbelianGroup,
    Fibration,
    double_report,
    euler_characteristic,
    fiber_sum,
    first_homology,
    gn_word,
    is_allowable,
)
from .freegroup import WordGrowthExceeded
from .pi1 import decide_equal, dehn_reduce
from .rewriting import (
    chain_substitute,
    commute_pull,
    inverse_twist_expansion,
    positivize,
    prop9_factor,
)
from .surface import SurfaceSig, Twist, TwistWord, chain_word

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "Fibration", "SurfaceSig", "Twist", "TwistWord",
    "WordGrowthExceeded", "branched_double_cover", "chain_substitute",
    "chain_word", "commute_pull", "decide_equal", "dehn_reduce",
    "double_report", "euler_characteristic", "fiber_sum", "first_homology",
    "gn_word", "inverse_twist_expansion", "is_allowable",
    "mapping_torus_homology", "positivize", "prop9_factor",
    "splitting_words", "swap_matrix", "theorem11_family",
    "trefoil_completions",
]
