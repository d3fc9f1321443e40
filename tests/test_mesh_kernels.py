"""The squeezed-Gaussian kernels against the expressions they replaced, bit for bit.

boosted_wavefunction and squeezed_gaussian form their mesh in place in their
result. Each node must still take the operations of the one-line expressions
below, in their order, on every shape: the references are those expressions as
the package wrote them before, and the kernels must match them by int64 view
and leave every argument as it was.
"""

import math

import numpy as np
import pytest

from coupledosc.covariant import boosted_wavefunction
from coupledosc.numerics import squeezed_gaussian

SQRT2 = math.sqrt(2.0)


def reference_boosted(z, t, eta):
    za = np.asarray(z, dtype=float)
    ta = np.asarray(t, dtype=float)
    u = (za + ta) / SQRT2
    v = (za - ta) / SQRT2
    with np.errstate(over="ignore"):
        out = np.pi ** -0.5 * np.exp(-0.5 * (math.exp(-eta) * u * u + math.exp(eta) * v * v))
    return out if out.ndim else float(out)


def reference_squeezed(x1, x2, eta):
    x1a = np.asarray(x1, dtype=float)
    x2a = np.asarray(x2, dtype=float)
    em, ep = np.exp(-eta), np.exp(eta)
    with np.errstate(over="ignore"):
        out = np.pi ** -0.5 * np.exp(-0.25 * (em * (x1a + x2a) ** 2 + ep * (x1a - x2a) ** 2))
    return out if out.ndim else float(out)


KERNELS = [(boosted_wavefunction, reference_boosted), (squeezed_gaussian, reference_squeezed)]
ETAS = [0.0, 0.44, -0.44, 2.0, -2.0, 709.7, -709.7]
N = 201  # an N x N mesh is past numpy's 256 KiB threshold for reusing temporaries


def coordinates(n, seed):
    """n values: zeros, the bulk of the Gaussian, and magnitudes up to 1e200, both signs."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, n)
    far = rng.random(n) < 0.3
    x[far] = np.copysign(10.0 ** rng.uniform(-3.0, 200.0, far.sum()), x[far])
    x[rng.random(n) < 0.05] = 0.0
    return x


def readonly(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def argument_sets():
    """(id, x1, x2) over every shape the kernels are called with, and integer and read-only input."""
    col, row = coordinates(N, 1)[:, None], coordinates(N, 2)[None, :]
    yield "1-d", coordinates(N, 3), coordinates(N, 4)
    yield "64xN", coordinates(64 * N, 5).reshape(64, N), coordinates(64 * N, 6).reshape(64, N)
    yield "NxN", coordinates(N * N, 7).reshape(N, N), coordinates(N * N, 8).reshape(N, N)
    yield "Nx1-by-1xN", col, row
    yield "0-d-by-1-d", 0.75, coordinates(N, 9)
    yield "read-only", readonly(col), readonly(row)
    ints = np.arange(-N // 2, N // 2 + 1, dtype=np.int64)
    yield "int64", ints[:, None], ints[None, :] * 3
    yield "huge-int", np.array([2**62, -(2**62), 7]), np.array([-3, 2**61, 0])
    yield "int-lists", [[-2], [0], [5]], [[1, -1, 4]]


def same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("kernel, reference", KERNELS, ids=["boosted", "squeezed"])
def test_bits_of_every_shape(kernel, reference, eta):
    for name, x1, x2 in argument_sets():
        before = [np.array(x, copy=True) for x in (x1, x2)]
        same_bits(kernel(x1, x2, eta), reference(x1, x2, eta))
        for x, kept in zip((x1, x2), before):
            np.testing.assert_array_equal(np.asarray(x), kept, err_msg=name)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("kernel, reference", KERNELS, ids=["boosted", "squeezed"])
def test_bits_of_0d_input(kernel, reference, eta):
    x1, x2 = coordinates(300, 10), coordinates(300, 11)
    for a, b in zip(x1, x2):
        arrays = np.array(a), np.array(b)
        for pair in ((float(a), float(b)), (a, b), arrays, (int(a), int(b))):
            got = kernel(*pair, eta)
            assert type(got) is float
            same_bits(got, reference(*pair, eta))
        assert (arrays[0][()], arrays[1][()]) == (a, b)


def test_0d_input_keeps_the_scalar_square():
    # a numpy scalar's ** 2 is pow, which is not always the correctly rounded square an
    # array's ** 2 takes: the 0-d route keeps the scalar's bits where the two differ
    x = np.random.default_rng(12).uniform(-3.0, 3.0, 20000)
    rounded_apart = [v for v, square in zip(x, np.square(x)) if v**2 != square]
    split = [v for v in rounded_apart if reference_squeezed(v, 0.0, 0.44) != reference_squeezed([v], 0.0, 0.44)[0]]
    assert split, "no point where pow and the square give different psi"
    for v in split:
        same_bits(squeezed_gaussian(v, 0.0, 0.44), reference_squeezed(v, 0.0, 0.44))
