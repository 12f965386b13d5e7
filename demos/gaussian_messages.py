"""Tour of the diagonal-Gaussian message algebra.

Everything the fitting schemes exchange is an unnormalized diagonal Gaussian
stored in natural parameters: a log scale, a linear coefficient vector, and
the (negative half) precision per coordinate.  Multiplying two messages adds
their natural parameters; dividing subtracts them.  That one identity powers
the whole message-passing loop: the global approximation is a product of
messages, and removing one factor's contribution is a division.

    python demos/gaussian_messages.py
"""

import numpy as np

from ffep.gaussian import DiagGaussian, divide, eval_log, multiply, natural_to_moments


def show(name, g):
    if g.is_proper:
        print(f"{name}: mean={np.round(g.mean, 4)} var={np.round(g.variance, 4)} "
              f"log_mass={g.log_mass:.4f}")
    else:
        print(f"{name}: improper, precision={np.round(g.precision, 4)} "
              f"linear={np.round(g.linear, 4)}")


def main():
    prior = DiagGaussian.from_mean_var([0.0, 0.0], [25.0, 25.0])
    likeish = DiagGaussian.from_mean_var([1.0, -2.0], [1.0, 4.0], log_mass=-0.3)
    show("prior", prior)
    show("factor message", likeish)

    posterior = multiply(prior, likeish)
    show("product", posterior)

    cavity = divide(posterior, likeish)
    show("product / factor message", cavity)
    print("division undoes multiplication:",
          np.allclose(cavity.mean, prior.mean),
          np.allclose(cavity.variance, prior.variance))

    # messages need not be proper densities on their own; a downward
    # correction (negative precision contribution) is a valid message as
    # long as the full product stays proper
    correction = DiagGaussian(log_scale=0.0,
                              linear=np.array([0.2, 0.0]),
                              neg_half_precision=np.array([0.05, -0.01]))
    show("correction message", correction)
    show("product with correction", multiply(posterior, correction))

    # natural parameters <-> raw moments round trip
    m0, m1, m2 = natural_to_moments(likeish)
    print(f"moments of the factor message: mass={m0:.4f} "
          f"m1={np.round(m1, 4)} m2={np.round(m2, 4)}")

    # log-density evaluation matches the quadratic form
    theta = np.array([0.5, -1.0])
    print(f"log value at {theta}: {eval_log(posterior, theta):.6f}")


if __name__ == "__main__":
    main()
