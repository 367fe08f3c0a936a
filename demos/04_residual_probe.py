"""
Two residuals that vanish together
==================================

For a closed one-form section, "the section is an invariant set of
the dynamics" and "the section solves the Hamilton-Jacobi equation"
are the same statement. The probe computes both defects
independently at each sampled configuration and classifies the pair:
PASS when both are tiny, FAIL when both are large, INCONSISTENT if
they ever disagree, which would mean a bug, not physics.
"""

import numpy as np

from gyrostat import hamilton_jacobi as hj
from gyrostat import lie
from gyrostat.systems import (HeavyTopRotorParams, RigidBodyRotorParams,
                              heavy_top_system, rigid_body_system)

rng = np.random.default_rng(3)
RB = RigidBodyRotorParams((1.0, 2.0, 3.0), (0.5, 0.4, 0.3))
HT = HeavyTopRotorParams((2.0, 1.5, 1.0), (0.4, 0.3), 1.2, 9.8, 0.5,
                         np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))


def show(title, probe):
    print(title)
    print("  verdict:", probe.verdict)
    for rel, res, label in zip(probe.relatedness[:4], probe.hj,
                               probe.labels):
        print(f"  relatedness {rel:11.4e}   hj {res:11.4e}   {label}")
    print()


# A spinning equilibrium: constant body momentum along the third axis
# with the rotor momentum that parks the rotors. This section solves
# the system, and both residuals agree it does.
c = 1.3
ib, jj = np.asarray(RB.ibar), np.asarray(RB.j)
nu = lie.coalgebra(lie.SO3, (0.0, 0.0, c))
section = hj.constant_body_section(nu, (0.0, 0.0, jj[2] * c / (ib[2] + jj[2])))
samples = hj.isotropy_configurations(rng, nu, 6, 3)
show("spun-up rotor equilibrium",
     hj.theorem_equivalence_probe(rigid_body_system(RB), section,
                                  samples, nu))

# The heavy top with a tilted axis: the zero candidate leaves the
# gravity torque unbalanced, so both residuals land on the same
# analytic value mgh |a x chi|.
a = np.array([0.0, 0.0, 1.0])
mu = lie.coalgebra(lie.SE3, np.zeros(3), a)
section = hj.constant_body_section(mu, np.zeros(2))
samples = hj.isotropy_configurations(rng, mu, 6, 2)
show("tilted heavy top, zero candidate",
     hj.theorem_equivalence_probe(heavy_top_system(HT), section,
                                  samples, mu))
print("analytic residual mgh |a x chi| =",
      HT.mgh * np.linalg.norm(np.cross(a, HT.chi)))
print()

# A section that is not closed never reaches the residual stage; the
# probe rejects it at the gate.
try:
    hj.theorem_equivalence_probe(
        rigid_body_system(RB), hj.shear_section(lie.SO3, 3),
        [hj.random_configuration(rng, lie.SO3, 3) for _ in range(4)],
        lie.coalgebra(lie.SO3, np.zeros(3)))
except hj.GateRejection as exc:
    print("sheared section:", exc)

# Closed sections also satisfy the pullback identity that the gate
# relies on; the defect is finite-difference small.
print("pullback identity defect of an exact section:",
      f"{hj.pullback_identity_defect(hj.rotor_quadratic_section()):.3e}")
