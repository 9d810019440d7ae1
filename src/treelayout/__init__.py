"""Block layouts of fixed-topology binary trees for external memory.

The package lays a static binary tree out into size-B blocks (or into a
single block-size-independent linear order) so that the worst-case number
of distinct blocks touched on any root-to-node path is near-minimal, and
ships the measurement side: a transfer-cost simulator, a piecewise
theoretical cost bound, an adversarial tree generator, and a brute-force
optimal-layout oracle for tiny instances.
"""

from . import aware, cost, oblivious, tree
from .tree import *
from .aware import *
from .oblivious import *
from .cost import *

__all__ = tree.__all__ + aware.__all__ + oblivious.__all__ + cost.__all__

__version__ = "0.1.0"
