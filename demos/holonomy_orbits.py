"""
Zero frames and their holonomy orbits
=====================================

A boundary model has frames where the isotropic expression vanishes.
Those zero sets are not isolated: acting on a zero frame with the
holonomy group of the model (U(2) for CP^2, block rotations for a
product) produces new zero frames.  A generic rotation outside the
group does not.
"""

import numpy as np

from curvlab import (
    ProductBlockGroup,
    UnitaryGroup,
    fubini_study,
    holonomy_orbit_invariance,
    isotropic_curvature,
    product,
    random_block_rotation,
    sphere,
)
from curvlab.frames import Frame

e = np.eye(4)

# CP^2: the zero frames are (x, Jx, y, Jy); with the standard complex
# structure that is the basis order (e0, e2, e1, e3)
fs = fubini_study(2, 4.0)
zero_fs = Frame(n=4, vectors=np.array([e[0], e[2], e[1], e[3]]))
print(f"CP^2 zero frame value      u = {isotropic_curvature(fs, zero_fs):+.3e}")
worst = holonomy_orbit_invariance(fs, zero_fs, UnitaryGroup(2), samples=300, seed=0)
print(f"over 300 U(2) images       max |u| = {worst:.3e}")

# product of spheres: split the pairs across the factors
prod = product(sphere(2, 1.0), sphere(2, 1.0))
zero_prod = Frame(n=4, vectors=e.copy())
print(f"\nproduct zero frame value   u = {isotropic_curvature(prod, zero_prod):+.3e}")
worst = holonomy_orbit_invariance(prod, zero_prod, ProductBlockGroup((2, 2)), samples=300, seed=0)
print(f"over 300 block rotations   max |u| = {worst:.3e}")

# control: a rotation that mixes the factors, one SO(4) block, leaves the zero set
moved = Frame(n=4, vectors=zero_prod.vectors @ random_block_rotation(1, (4,)).T)
print(f"\ngeneric SO(4) control      |u| = {abs(isotropic_curvature(prod, moved)):.3f}  (off the zero set)")
