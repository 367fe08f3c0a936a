"""Lie-Poisson mechanics of rigid bodies and heavy tops with internal rotors.

The package provides the group/algebra kernel for SO(3) and SE(3)
(:mod:`gyrostat.lie`), Poisson brackets and Hamiltonian vector fields on
reduced spaces (:mod:`gyrostat.poisson`), controlled Hamiltonian systems
with vertically lifted forces and controls (:mod:`gyrostat.controlled`),
the full dynamical field over a reduced state, attitude reconstruction
and momentum drift (:mod:`gyrostat.reduction`), the two worked rotor
systems (:mod:`gyrostat.systems`), Hamilton-Jacobi residual diagnostics
for one-form sections (:mod:`gyrostat.hamilton_jacobi`), a fixed-step
RK4 integrator with drift tracking (:mod:`gyrostat.integrate`), and a
scenario CLI (:mod:`gyrostat.cli`).
"""

__version__ = "0.1.0"
