"""
Hat maps, exponentials, and coadjoint transport
===============================================

A walk through the fixed-size kernel underneath everything else:
flat 3-vectors as so(3), flat 6-vector twists as se(3), the
closed-form Rodrigues exponential, and the coadjoint action that
moves momenta between frames while pinning the orbit invariants.
"""

import numpy as np

from gyrostat import lie

rng = np.random.default_rng(7)

# hat turns a body angular velocity into the matrix that acts as the
# cross product; vee inverts it.
omega = np.array([0.3, -1.1, 0.7])
W = lie.hat(omega)
print("hat(omega) @ e1      =", W @ np.array([1.0, 0.0, 0.0]))
print("omega x e1           =", np.cross(omega, [1.0, 0.0, 0.0]))
print("vee(hat(omega))      =", lie.vee(W))

# The exponential is Rodrigues' formula; the output is a genuine
# rotation no matter how large the input.
g = lie.exp_group(omega)
print("max |R^T R - I|      =", np.max(np.abs(g.rot.T @ g.rot - np.eye(3))))
print("det R                =", np.linalg.det(g.rot))

# Composition and inverse behave like the group they model.
h = lie.random_group(rng, lie.SO3)
gh = lie.compose(g, h)
round_trip = lie.compose(gh, lie.inverse(h))
print("compose/inverse gap  =", np.max(np.abs(round_trip.rot - g.rot)))

# Coadjoint transport slides a momentum along its orbit. On so(3)* the
# orbit is a sphere, so |pi| cannot move.
mu = lie.coalgebra(lie.SO3, (1.0, 2.0, 3.0))
moved = lie.Ad_star(h, mu)
print("|pi| before / after  =",
      np.linalg.norm(mu[:3]), "/", np.linalg.norm(moved[:3]))

# On se(3)* the invariants are pi . gamma and |gamma|.
nu = lie.coalgebra(lie.SE3, (0.4, -0.2, 0.9), (0.0, 0.0, 1.0))
k = lie.random_group(rng, lie.SE3)
moved = lie.Ad_star(k, nu)
print("pi . gamma before / after =", nu[:3] @ nu[3:],
      "/", moved[:3] @ moved[3:])
print("|gamma| before / after    =", np.linalg.norm(nu[3:]),
      "/", np.linalg.norm(moved[3:]))
