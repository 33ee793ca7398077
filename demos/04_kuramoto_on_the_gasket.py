"""Phase oscillators coupled through a kernel on the Sierpinski gasket.

Each level-m cell hosts one oscillator; the coupling weight between two cells
is the cell-averaged kernel times the target cell's measure.  With coupling
on, the order parameter climbs toward synchrony; with coupling off, the
phases just drift at their natural frequencies.
"""

import numpy as np

from fractalips import (
    SelfSimilarMeasure,
    assemble_deterministic,
    builtin_kernels,
    integrate_ips,
    kuramoto_model,
    martingale_level,
    preset,
    project_kernel,
    sample_bernoulli,
)
from fractalips.experiments import kuramoto_fields

meas = SelfSimilarMeasure.uniform(preset("sg"))
m = 4
km = project_kernel(meas, builtin_kernels(2)["expdist"], m, 2)

omega_fn, phase_fn = kuramoto_fields(11, 2)
omega = martingale_level(meas, omega_fn, m, 2)
phases = martingale_level(meas, phase_fn, m, 2)


def order_parameter(traj):
    z = np.exp(2j * np.pi * traj.values[:, :, 0])
    return np.abs(z.mean(axis=1))


for K in (0.0, 1.0, 3.0):
    model = kuramoto_model(K, omega)
    graph = assemble_deterministic(km, meas)
    traj = integrate_ips(model, graph, phases, T=20.0, dt=5e-3, output_stride=400)
    r = order_parameter(traj)
    print(f"K = {K}: order parameter  start {r[0]:.3f}  "
          f"mid {r[len(r) // 2]:.3f}  end {r[-1]:.3f}")

# the W-random version couples through Bernoulli edges with the same averages
model = kuramoto_model(1.0, omega)
for seed in (0, 1):
    graph = sample_bernoulli(km, meas, seed)
    traj = integrate_ips(model, graph, phases, T=20.0, dt=5e-3, output_stride=400)
    print(f"bernoulli seed {seed}: end order parameter "
          f"{order_parameter(traj)[-1]:.3f}")
