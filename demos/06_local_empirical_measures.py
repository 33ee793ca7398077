"""Mean-field behavior through local empirical measures.

Subdivide each coarse cell into k^l fine cells carrying i.i.d. random initial
phases, run the coupled system, and collect the distribution of states inside
each coarse cell.  As l grows these local empirical measures settle down; the
1-Wasserstein distance between successive refinements, integrated over the
coarse cells, quantifies the convergence.
"""

import numpy as np

from fractalips import SelfSimilarMeasure, builtin_kernels, kuramoto_model, preset
from fractalips.analysis import vlasov_self_convergence
from fractalips.experiments import uniform_phase_sampler

meas = SelfSimilarMeasure.uniform(preset("sg"))
# one model for every level (its frequencies are zero), so the levels run as
# one union of systems
model = kuramoto_model(1.0, 0.0)

table = vlasov_self_convergence(
    meas,
    lambda level: model,
    builtin_kernels(2)["expdist"],
    uniform_phase_sampler,
    m=2,
    ells=(1, 2, 3),
    T=1.0,
    dt=2e-3,
    seeds=range(5),
    sublevel=2,
    output_stride=50,
)

print("integrated W1 distance between successive refinements")
print("t        " + "   ".join(f"l={lo}->" + str(hi) for lo, hi in table.ell_pairs))
med = np.median(table.distances, axis=0)  # over seeds
for ti, t in enumerate(table.times):
    print(f"{t:5.2f}    " + "    ".join(f"{med[p, ti]:.4f}"
                                        for p in range(len(table.ell_pairs))))

worst = np.median(table.distances.max(axis=2), axis=0)
print("\nmedian of the max-over-time distances:", np.round(worst, 4))
print("each extra refinement level scales the distance by roughly 3^(-1/2).")
