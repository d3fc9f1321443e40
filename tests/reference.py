"""Reference routes that the tests check the package against, kept out of the shipped package.

Not a test module: pytest collects only test_*.py files. The tests import it by
name, as pyproject.toml puts tests/ on pytest's path.
"""

from coupledosc.numerics import hermite_fn


def fock_projection(kern, k: int) -> float:
    """<phi_k| rho |phi_k> by double quadrature."""
    phi = hermite_fn(k, kern.grid.nodes) * kern.grid.weights
    return float(phi @ kern.values @ phi)
