import numpy as np
import pytest

from prenet.errors import NumericError
from prenet.ndcore import (
    _CHUNK_ELEMENTS,
    _CUMSUM_MAX_OUTPUT,
    _ROW_BLOCK,
    _matmul_cumsum,
    _matmul_rows,
    finite_diff_grad,
    glorot_uniform,
    make_rng,
    matmul,
    relu,
)


def naive_matmul(a, b):
    """Independent triple-loop oracle, ascending inner index."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        got = matmul(np.eye(2), np.array([[3.0], [4.0]]))
        assert np.array_equal(got, np.array([[3.0], [4.0]]))

    def test_row_times_column(self):
        got = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert np.array_equal(got, np.array([[11.0]]))

    def test_matches_triple_loop_oracle_exactly(self):
        rng = make_rng(7)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_matches_oracle_on_random_shapes(self):
        rng = make_rng(11)
        for _ in range(20):
            m, k, n = rng.integers(1, 12, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            matmul(np.ones(3), np.ones((3, 1)))

    def test_associativity_within_tolerance(self):
        rng = make_rng(3)
        for _ in range(10):
            a = rng.standard_normal((4, 5))
            b = rng.standard_normal((5, 6))
            c = rng.standard_normal((6, 3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.allclose(left, right, rtol=1e-9)

    def test_finite_output_on_finite_input(self):
        rng = make_rng(5)
        a = rng.standard_normal((30, 40)) * 1e6
        b = rng.standard_normal((40, 10)) * 1e6
        assert np.all(np.isfinite(matmul(a, b)))


def _operands(m, k, n, fill, seed):
    rng = make_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    # every product in a -0.0 output column or matrix is -0.0; the
    # contract's leading 0.0 makes their sum +0.0
    if fill == "neg_zero_columns":
        a = np.abs(a)
        b[:, ::2] = -0.0
    elif fill == "all_neg_zero":
        a[:] = -0.0
        b = np.abs(b)
    elif fill == "mixed_zeros":
        a[rng.random(a.shape) < 0.4] = 0.0
        a[rng.random(a.shape) < 0.4] = -0.0
        b[rng.random(b.shape) < 0.4] = -0.0
    elif fill == "huge_times_tiny":
        a *= 1e300
        b *= 1e-300
    elif fill == "subnormal_products":
        a *= 1e-300
        b *= 1e-10
    elif fill == "overflow_to_inf":
        a = np.abs(a) * 1e306 + 1e306
        b = np.abs(b) + 0.5
    elif fill == "lone_overflow":
        # out[0, 0] overflows to inf and out[2, 0] to inf - inf = nan,
        # while out[0, 1] and out[2, 1], which share their complex pair
        # in the cumsum kernel when n is even, stay finite
        a[0, 1] = a[2, 2] = 1e200
        a[2, 3] = -1e200
        b[1:4, 0] = 1e200
        b[1:4, 1] = 1e-200
    return a, b


# chunk length of the cumsum kernel for a 10x20 output
_STEP = _CHUNK_ELEMENTS // 200 - 1

BYTE_EXACT_CASES = [
    # (m, k, n, fill)
    (10, 63, 20, "normal"),
    (10, 64, 20, "normal"),
    (10, 65, 20, "normal"),
    (10, 512, 20, "normal"),
    (20, 512, 1, "normal"),
    (3, 1031, 5, "normal"),
    (10, _STEP - 1, 20, "normal"),
    (10, _STEP, 20, "normal"),
    (10, _STEP + 1, 20, "normal"),
    (10, 2 * _STEP, 20, "normal"),
    (10, 2 * _STEP + 1, 20, "normal"),
    (1, 512, 1, "normal"),
    (1, 300, 17, "normal"),
    (23, 300, 1, "normal"),
    (20, 40, 20, "normal"),
    (130, 40, 130, "normal"),  # m*n beyond the chunk budget
    (10, 20, 20, "normal"),
    (10, 130, 20, "neg_zero_columns"),
    (4, 70, 3, "all_neg_zero"),
    (4, 9, 3, "all_neg_zero"),
    (8, 200, 6, "mixed_zeros"),
    (8, 200, 6, "huge_times_tiny"),
    (8, 200, 6, "subnormal_products"),
    (8, 200, 6, "overflow_to_inf"),
    # tall shapes (m > n): the row-blocked loop, or the cumsum kernel
    # for large enough k when n == 1
    (278, 10, 20, "normal"),
    (278, 20, 2, "normal"),
    (512, 20, 1, "normal"),
    (256, 40, 2, "normal"),
    (_ROW_BLOCK - 1, 10, 2, "normal"),
    (_ROW_BLOCK, 10, 2, "normal"),
    (_ROW_BLOCK + 1, 10, 2, "normal"),
    (2 * _ROW_BLOCK + 1, 10, 2, "normal"),
    (300, 10, 4, "neg_zero_columns"),
    (128, 40, 4, "neg_zero_columns"),
    (300, 10, 4, "mixed_zeros"),
    # odd m*n: the cumsum kernel pads one zero entry to pair with
    (7, 513, 3, "normal"),
    (5, 33, 1, "normal"),
    (9, 40, 3, "mixed_zeros"),
    (3, 16, 1, "all_neg_zero"),
    # one non-finite entry beside a finite one
    (8, 200, 6, "lone_overflow"),
    (64, 40, 2, "lone_overflow"),
    (300, 10, 4, "lone_overflow"),
    (4, 10, 30, "lone_overflow"),
]


@pytest.mark.parametrize("m,k,n,fill", BYTE_EXACT_CASES)
def test_matmul_bytes_equal_triple_loop_oracle(m, k, n, fill):
    """Byte comparison, unlike array_equal, tells -0.0 from +0.0."""
    a, b = _operands(m, k, n, fill, seed=m * 7919 + k * 31 + n)
    with np.errstate(over="ignore", invalid="ignore"):
        assert matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()


@pytest.mark.parametrize(
    "m,k,n,fill", [case for case in BYTE_EXACT_CASES if case[0] * case[2] <= _CUMSUM_MAX_OUTPUT]
)
def test_both_kernels_bytes_equal_triple_loop_oracle(m, k, n, fill):
    """Outputs small enough for the cumsum kernel are checked on both
    kernels, whichever one the shape rule picks for them."""
    a, b = _operands(m, k, n, fill, seed=m * 7919 + k * 31 + n)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = naive_matmul(a, b).tobytes()
        assert _matmul_rows(a, b).tobytes() == expected
        assert _matmul_cumsum(a, b).tobytes() == expected


class TestRelu:
    def test_definition(self):
        assert np.array_equal(relu(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]])

    def test_all_negative_becomes_zero(self):
        x = -np.abs(make_rng(0).standard_normal((4, 5))) - 0.1
        assert np.array_equal(relu(x), np.zeros_like(x))

    def test_identity_on_nonnegative(self):
        x = np.abs(make_rng(1).standard_normal((4, 5)))
        assert np.array_equal(relu(x), x)

    def test_idempotent(self):
        x = make_rng(2).standard_normal((6, 6))
        assert np.array_equal(relu(relu(x)), relu(x))


class TestGlorotUniform:
    def test_bound_20x20(self):
        limit = np.sqrt(6.0 / 40.0)  # 0.3872983...
        w = glorot_uniform(20, 20, make_rng(0))
        assert w.shape == (20, 20)
        assert np.all(np.abs(w) < limit)

    def test_strictly_inside_bound_many_shapes(self):
        rng = make_rng(9)
        for fan_in, fan_out in [(1, 1), (3, 50), (100, 2), (21, 20)]:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = glorot_uniform(fan_in, fan_out, rng)
            assert np.all(np.abs(w) < limit)

    def test_same_seed_bitwise_identical(self):
        w1 = glorot_uniform(7, 5, make_rng(42))
        w2 = glorot_uniform(7, 5, make_rng(42))
        assert np.array_equal(w1, w2)

    def test_monte_carlo_mean_fan_one(self):
        rng = make_rng(123)
        draws = np.array([glorot_uniform(1, 1, rng)[0, 0] for _ in range(100_000)])
        assert np.abs(draws).max() < np.sqrt(3.0)
        assert abs(draws.mean()) < 0.02

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            glorot_uniform(0, 3, make_rng(0))
        with pytest.raises(ValueError):
            glorot_uniform(3, 0, make_rng(0))


class TestFiniteDiffGrad:
    def test_square(self):
        grad = finite_diff_grad(lambda t: t[0] ** 2, np.array([3.0]), h=1e-5)
        assert abs(grad[0] - 6.0) < 1e-6

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 4.25, np.array([1.0, -2.0, 0.5]), h=1e-5)
        assert np.array_equal(grad, np.zeros(3))

    def test_abs_away_from_kink(self):
        grad = finite_diff_grad(lambda t: abs(t[0]), np.array([2.0]), h=1e-5)
        assert abs(grad[0] - 1.0) < 1e-6

    def test_quadratic_form_matches_analytic(self):
        rng = make_rng(17)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2.0
            theta = rng.standard_normal(n)
            grad = finite_diff_grad(lambda t: 0.5 * t @ a @ t, theta, h=1e-5)
            expect = a @ theta
            assert np.all(
                np.abs(grad - expect) <= 1e-5 * np.maximum(np.abs(expect), 1.0)
            )

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: t[0], np.array([1.0]), h=0.0)

    def test_non_finite_function_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda t: float("nan"), np.array([1.0]), h=1e-5)


def test_make_rng_is_seeded_pcg64():
    rng = make_rng(5)
    assert isinstance(rng.bit_generator, np.random.PCG64)
    assert np.array_equal(make_rng(5).integers(0, 100, 10), make_rng(5).integers(0, 100, 10))
