"""curvlab: a numerical laboratory for algebraic curvature operators.

Curvature tensors held as their operator on Lambda^2, with enforced symmetries,
model geometries (spheres, complex projective space, products, flat paddings),
orthonormal frames and their weighted lifts, the isotropic-curvature functional
and its pinching family, multistart Stiefel minimization behind the condition
checkers, and the quadratic reaction ODE with cone-margin experiments.

The package exports the public names of four modules, each listed once in
its module's ``__all__``.
"""

from . import conditions, flow, frames, tensors
from .tensors import *
from .frames import *
from .conditions import *
from .flow import *

__version__ = "0.1.0"

__all__ = tensors.__all__ + frames.__all__ + conditions.__all__ + flow.__all__
