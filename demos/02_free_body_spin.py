"""
A torque-free body carrying three locked rotors
===============================================

Integrate the reduced flow for ten seconds and check what the
geometry promises: energy and the orbit radius are conserved to
integrator accuracy, and the rotor momenta never move at all.
"""

import numpy as np

from gyrostat import lie
from gyrostat.controlled import flat_dynamical_field
from gyrostat.integrate import run, standard_invariants
from gyrostat.poisson import reduced_point
from gyrostat.systems import RigidBodyRotorParams, rigid_body_system

params = RigidBodyRotorParams(ibar=(1.0, 2.0, 3.0), j=(0.5, 0.4, 0.3))
sys = rigid_body_system(params)

p0 = reduced_point(lie.SO3, (1.0, 0.4, -0.7), theta=(0.0, 0.0, 0.0),
                   l=(0.1, -0.2, 0.3))
traj = run(flat_dynamical_field(sys, p0.layout), p0, 1e-3, 10.0,
           standard_invariants(sys.hamiltonian, lie.SO3))

print(f"integrated {len(traj.states) - 1} RK4 steps to "
      f"t = {traj.times[-1]:g}")
for name in traj.series:
    print(f"max relative drift of {name}: {traj.max_drift(name):.3e}")

# l is a momentum conjugate to a cyclic variable, so it is frozen
# exactly, not merely to truncation error.
print("rotor momenta at t = 0 :", traj.states[0, -3:])
print("rotor momenta at t = 10:", traj.states[-1, -3:])

# The body momentum itself wanders on its sphere.
print("\n  t      pi")
for i in range(0, len(traj.states), 2000):
    pi = np.array2string(traj.states[i, :3], precision=4,
                         suppress_small=True)
    print(f"{i * traj.dt:5.2f}  {pi}")
