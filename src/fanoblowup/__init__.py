"""Exact K-stability invariants for blow-ups of P^1-bundles over Fano varieties.

Given a Fano base V of dimension n-1 with -K_V ~ r*L and a branch divisor
B ~ l*L, the variety Y = Bl_{B_inf} P(L + O) is Fano for 0 <= l < r+1.  This
package computes, in exact rational arithmetic: anti-canonical volumes, the
piecewise Zariski decompositions of -K_Y - t*D for the two horizontal
divisors, their S- and beta-invariants, the pair-reduction coefficient
a(n, r) with its finite-m refinement approximations a_m, and the resulting
K-unstable / reduces-to-pair classification.

The package namespace re-exports the ``__all__`` of each module but cli; a
public name is declared once, in its module.  These are the names that the
README's Library section lists; a module's other public names, such as
``exactmath.ZERO`` or ``catalog.default_catalog_path``, stay importable from
the module.
"""

from .exactmath import *
from .geometry import *
from .nef import *
from .invariants import *
from .refinement import *
from .catalog import *

__version__ = "0.1.0"

__all__ = [
    *exactmath.__all__,
    *geometry.__all__,
    *nef.__all__,
    *invariants.__all__,
    *refinement.__all__,
    *catalog.__all__,
    "__version__",
]
