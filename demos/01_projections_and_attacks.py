"""Perturbation sets, the two projections, and projected-gradient attacks.

Run:  python3 demos/01_projections_and_attacks.py
"""

import numpy as np

from advstab import (
    AttackConfig,
    PerturbationSet,
    SoftmaxLinear,
    project_extreme,
    project_onto_set,
    projgrad_identity_check,
)
from advstab.rng import stream
from advstab.threat import pgd_attack_batch

# %% The two projections ------------------------------------------------------
# Set projection pulls a point to the nearest feasible perturbation; extreme
# projection snaps a gradient to the nearest extreme point of the ball.

l2 = PerturbationSet("l2", radius=1.0, dim=2)
linf = PerturbationSet("linf", radius=0.5, dim=2)

g = np.array([3.0, 4.0])
print("L2 set projection of (3,4) with radius 1:   ", project_onto_set(g, l2))
print("L2 extreme projection of (0,5) with radius 1:", project_extreme(np.array([0.0, 5.0]), l2))
print("Linf clamp of (0.2,-3) with radius 0.5:      ", project_onto_set(np.array([0.2, -3.0]), linf))
print("Linf sign map of (-0.3,0) with radius 0.5:   ", project_extreme(np.array([-0.3, 0.0]), linf))

# For gradients above the norm floor 1/psi, the extreme projection equals the
# set projection of the rescaled gradient -- the identity that turns the
# attack update into a Lipschitz map.
ok = projgrad_identity_check(np.array([0.2, 0.1]), l2, psi=10.0)
print("\nrescaling identity holds for ||g|| >= 1/psi:", ok)
print("below the floor it is not applicable:        ", projgrad_identity_check(np.array([0.01, 0.0]), l2, psi=10.0))

# %% Attacking a linear classifier ---------------------------------------------
# The loss of a linear softmax model is convex in the perturbation, so the
# attack should find (nearly) the exact inner maximum.

rng = stream(7, 0)
model = SoftmaxLinear(input_dim=4, class_count=3)
w = model.init_params(rng) + rng.standard_normal(model.param_dim)
x, y = rng.standard_normal(4)[None], [0]  # one sample, as a batch of one row
pset = PerturbationSet("l2", radius=0.5, dim=4)

clean = model.loss_batch(w, x, y, np.zeros((1, 4)))[0]
print(f"\nclean loss:               {clean:.4f}")
for steps in (1, 3, 10, 30):
    cfg = AttackConfig(steps=steps, step_size=1.0, init="zero")
    val = model.loss_batch(w, x, y, pgd_attack_batch(model, w, x, y, pset, cfg, stream(8, steps)))[0]
    print(f"attacked loss, K={steps:>2}:      {val:.4f}")

delta = pgd_attack_batch(model, w, x, y, pset, AttackConfig(steps=30, step_size=1.0), stream(9, 0))[0]
print(f"final perturbation norm:  {np.linalg.norm(delta):.4f}  (radius {pset.radius})")
