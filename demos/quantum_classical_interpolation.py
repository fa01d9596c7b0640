"""Make the elastic band breakable only on a segment [d - eps, d + eps] and
the machine interpolates between two worlds.

eps = 1 reproduces the quantum cosine law exactly.  eps = 0 is a classical
threshold device: the outcome is decided entirely by which side of d the
particle sits on.  In between, the outcome probability is a clamped ramp in
the axis coordinate t = v.u, which is neither of the two.

One structural fingerprint of the intermediate regime: the expectation
curve t -> p1 - p2 is affine exactly at eps = 1.  Anything else produces a
kinked ramp, so no linear-operator bookkeeping can represent it.
"""

import numpy as np

from qmachine import (
    ElasticSpec,
    expectation_from_axis,
    linearity_deviation,
    probabilities_from_axis,
)


def probability_profiles():
    print("P(up) as a function of the axis coordinate t = v.u")
    bands = [ElasticSpec(1.0, 0.0), ElasticSpec(0.5, 0.0), ElasticSpec(0.5, 0.2),
             ElasticSpec(0.0, 0.0)]
    ts = np.linspace(-1.0, 1.0, 9)
    print("      t  " + "  ".join(f"eps={b.epsilon:.1f},d={b.d:+.1f}" for b in bands))
    for t in ts:
        cells = "        ".join(
            f"{probabilities_from_axis(float(t), b).p1:5.3f}" for b in bands
        )
        print(f"  {t:+.2f}  {cells}")
    print()


def expectation_kinks():
    print("Expectation curve and its distance from the best affine fit:")
    for eps in (1.0, 0.75, 0.5, 0.25, 0.0):
        band = ElasticSpec(eps, 0.0)
        curve = [expectation_from_axis(t, band) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        dev = linearity_deviation(band)
        shape = "  ".join(f"{e:+.2f}" for e in curve)
        print(f"  eps={eps:4.2f}:  E = [{shape}]   affine deviation = {dev:.4f}")
    print()
    print("Only eps = 1 is exactly affine; the machine below eps = 1 has no")
    print("linear-operator representation of its observables.")


if __name__ == "__main__":
    probability_profiles()
    expectation_kinks()
