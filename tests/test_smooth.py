import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piecewise_prox import Dataset, least_squares, logistic_loss, smooth, spectral_norm


def finite_diff_gradient(loss, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
    return g


class TestDataset:
    def test_shapes_validated(self):
        with pytest.raises(ValueError, match="labels shape"):
            Dataset(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        X, y = np.ones((3, 2)), np.ones(3)
        X[1, 0] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            Dataset(X, np.ones(3))
        y[2] = bad
        with pytest.raises(ValueError, match="labels must be finite"):
            Dataset(np.ones((3, 2)), y)

    def test_binary_labels_enforced_for_logistic(self):
        with pytest.raises(ValueError, match=r"\+-1"):
            logistic_loss(Dataset(np.ones((2, 1)), np.array([0.0, 1.0])))


class TestValues:
    def test_logistic_zero_margin(self):
        loss = logistic_loss(Dataset(np.array([[1.0]]), np.array([1.0])))
        assert loss.value(np.zeros(1)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_least_squares_interpolation(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((5, 3))
        x_star = rng.standard_normal(3)
        loss = least_squares(Dataset(D, D @ x_star))
        assert loss.value(x_star) == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(loss.gradient(x_star), 0.0, atol=1e-12)

    def test_logistic_toy_scalar_summation(self):
        X = np.array([[1.0, -2.0], [0.5, 0.25]])
        y = np.array([1.0, -1.0])
        x = np.array([0.3, -0.2])
        loss = logistic_loss(Dataset(X, y))
        expect = 0.0
        for i in range(2):
            margin = y[i] * (X[i] @ x)
            expect += math.log(1.0 + math.exp(-margin)) / 2
        assert loss.value(x) == pytest.approx(expect, rel=1e-12)

    def test_dimension_mismatch(self):
        loss = least_squares(Dataset(np.ones((2, 3)), np.ones(2)))
        with pytest.raises(ValueError, match="shape"):
            loss.value(np.zeros(4))
        with pytest.raises(ValueError, match="shape"):
            loss.gradient(np.zeros(2))

    def test_logistic_overflow_safe(self):
        loss = logistic_loss(Dataset(np.array([[1.0]]), np.array([1.0])))
        big = loss.value(np.array([-1000.0]))
        assert big == pytest.approx(1000.0, rel=1e-12)  # asymptotic linear branch
        assert loss.value(np.array([1000.0])) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(loss.gradient(np.array([-1000.0]))).all()


class TestProducts:
    @pytest.mark.parametrize("kind", ["least-squares", "logistic"])
    def test_given_product_gives_the_same_bytes(self, kind):
        rng = np.random.default_rng(21)
        n, d = 50, 7
        X = rng.standard_normal((n, d))
        if kind == "logistic":
            loss = logistic_loss(Dataset(X, rng.choice((-1.0, 1.0), size=n)))
        else:
            loss = least_squares(Dataset(X, rng.standard_normal(n)))
        for _ in range(20):
            x = rng.uniform(-3, 3, size=d)
            Xx = X @ x
            assert np.float64(loss.value(x, Xx)).tobytes() == np.float64(loss.value(x)).tobytes()
            assert loss.gradient(x, Xx).tobytes() == loss.gradient(x).tobytes()

    def test_product_shape_checked(self):
        loss = least_squares(Dataset(np.ones((2, 3)), np.ones(2)))
        with pytest.raises(ValueError, match="Xx has shape"):
            loss.value(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="Xx has shape"):
            loss.gradient(np.zeros(3), np.zeros(1))


class TestLogisticValue:
    def test_within_4_ulp_of_logaddexp(self):
        rng = np.random.default_rng(5)
        t = np.concatenate([rng.standard_normal(40000), 40.0 * rng.standard_normal(40000),
                            rng.uniform(-800.0, 800.0, 20000)])
        got = smooth._log1pexp(t)
        want = np.logaddexp(0.0, t)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))

    @pytest.mark.parametrize("x", [1e300, -1e300, math.inf, -math.inf])
    def test_extremes_equal_logaddexp_without_overflow(self, x):
        loss = logistic_loss(Dataset(np.array([[1.0]]), np.array([1.0])))
        with np.errstate(over="raise", invalid="raise"):
            got = loss.value(np.array([x]))
            assert got == float(np.logaddexp(0.0, -x))
            assert smooth._log1pexp(np.array([x]))[0] == np.logaddexp(0.0, x)


class TestInPlaceOracle:
    """value and _weights work in buffers of their own: the same bits as the
    plain formulas, the inputs left as they were."""

    def logistic(self, seed=0, n=300, d=7):
        rng = np.random.default_rng(seed)
        X = 3.0 * rng.standard_normal((n, d))
        return logistic_loss(Dataset(X, rng.choice((-1.0, 1.0), size=n))), rng

    def test_logistic_bits_equal_the_plain_formulas(self):
        loss, rng = self.logistic()
        y, n = loss.data.labels, loss.data.n
        for _ in range(20):
            Xx = 40.0 * rng.standard_normal(n)
            kept = Xx.copy()
            m = y * Xx
            plain_value = float(np.mean(np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(-m)))))
            plain_weights = -y * (0.5 * (1.0 + np.tanh(0.5 * -m))) / n
            assert np.float64(loss.value(np.zeros(7), Xx)).tobytes() == \
                np.float64(plain_value).tobytes()
            assert loss._weights(Xx).tobytes() == plain_weights.tobytes()
            assert Xx.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("kind", ["logistic", "least-squares"])
    def test_weights_of_a_batch_equal_its_rows(self, kind):
        # the estimate_G path hands _weights k products at once
        loss, rng = self.logistic()
        if kind == "least-squares":
            loss = least_squares(Dataset(loss.data.features, rng.standard_normal(loss.data.n)))
        products = rng.standard_normal((5, 7)) @ loss.data.features.T
        kept = products.copy()
        batch = loss._weights(products)
        assert batch.tobytes() == np.stack([loss._weights(row) for row in products]).tobytes()
        assert products.tobytes() == kept.tobytes()


class TestGradients:
    def test_logistic_single_point(self):
        loss = logistic_loss(Dataset(np.array([[1.0]]), np.array([1.0])))
        assert loss.gradient(np.zeros(1))[0] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("kind", ["least-squares", "logistic"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        n, d = 40, 6
        X = rng.standard_normal((n, d))
        if kind == "logistic":
            y = rng.choice((-1.0, 1.0), size=n)
            loss = logistic_loss(Dataset(X, y))
        else:
            y = rng.standard_normal(n)
            loss = least_squares(Dataset(X, y))
        for _ in range(20):
            x = rng.uniform(-2, 2, size=d)
            g = loss.gradient(x)
            fd = finite_diff_gradient(loss, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestLipschitz:
    def test_identity_design(self):
        loss = least_squares(Dataset(np.eye(3), np.zeros(3)))
        assert loss.lipschitz_bound() == pytest.approx(2.0, rel=1e-9)

    def test_single_row_logistic(self):
        loss = logistic_loss(Dataset(np.array([[2.0]]), np.array([1.0])))
        assert loss.lipschitz_bound() == pytest.approx(1.0, rel=1e-9)

    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((12, 7))
        assert spectral_norm(A) == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-7)

    def test_gradients_rows_match_gradient(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 5))
        P = rng.uniform(-3, 3, size=(7, 5))
        for loss in (least_squares(Dataset(X, rng.standard_normal(30))),
                     logistic_loss(Dataset(X, rng.choice((-1.0, 1.0), size=30)))):
            G = loss._gradients(P)
            for row, p in zip(G, P):
                g = loss.gradient(p)
                assert np.linalg.norm(row - g) <= 1e-12 * np.linalg.norm(g)

    @pytest.mark.parametrize("kind,seed", [("least-squares", 3), ("logistic", 13)])
    def test_secant_ratios_below_bound(self, kind, seed):
        rng = np.random.default_rng(seed)
        n, d = 30, 5
        X = rng.standard_normal((n, d))
        if kind == "logistic":
            loss = logistic_loss(Dataset(X, rng.choice((-1.0, 1.0), size=n)))
        else:
            loss = least_squares(Dataset(X, rng.standard_normal(n)))
        L = loss.lipschitz_bound()
        for _ in range(1000):
            x = rng.uniform(-3, 3, size=d)
            y = rng.uniform(-3, 3, size=d)
            num = np.linalg.norm(loss.gradient(x) - loss.gradient(y))
            den = np.linalg.norm(x - y)
            assert num <= L * den * (1.0 + 1e-9)


def true_sigma(A):
    return float(np.linalg.svd(A, compute_uv=False)[0])


def with_singular_values(rng, n, d, sv):
    """An n x d matrix with singular values sv in Gaussian-drawn directions."""
    U, _ = np.linalg.qr(rng.standard_normal((n, len(sv))))
    V, _ = np.linalg.qr(rng.standard_normal((d, len(sv))))
    return (U * sv) @ V.T


class TestSpectralNorm:
    """spectral_norm is never below sigma_max, on both of its paths."""

    def test_start_orthogonal_to_top_direction(self):
        # the all-ones start of power iteration is in the null space here
        assert spectral_norm(np.array([[1.0, -1.0], [1.0, -1.0], [0.0, 0.0]])) == pytest.approx(
            2.0, rel=1e-12)

    def test_tiled_rank_two(self):
        A = np.tile([[3.0, -3.0], [0.1, 0.1]], (50, 1))
        assert spectral_norm(A) == pytest.approx(30.0, rel=1e-12)

    @pytest.mark.parametrize("shape", [(4, 3), (0, 3), (3, 0), (0, 0)])
    def test_zero_matrix(self, shape):
        assert spectral_norm(np.zeros(shape)) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), d=st.integers(1, 12), rank=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_never_below_sigma(self, n, d, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, n, d)
        A = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
        assert spectral_norm(A) >= true_sigma(A) * (1.0 - 1e-12)


class TestLanczosPath:
    """Above ``_GRAM_CAP``: a probabilistic upper bound, at most ~3% high."""

    @pytest.fixture(autouse=True)
    def no_gram(self, monkeypatch):
        monkeypatch.setattr(smooth, "_GRAM_CAP", 0)

    @staticmethod
    def matrices():
        rng = np.random.default_rng(11)
        return {
            # 300 singular values in [0.95, 1]: 60 steps leave theta low
            "flat": with_singular_values(rng, 400, 300, np.linspace(1.0, 0.95, 300)),
            "rank-1": np.outer(rng.standard_normal(250), rng.standard_normal(400)),
            "gap": with_singular_values(rng, 300, 500, np.r_[3.0, np.linspace(1.0, 0.1, 299)]),
        }

    @pytest.mark.parametrize("name", ["flat", "rank-1", "gap"])
    def test_upper_bound_within_five_percent(self, name):
        A = self.matrices()[name]
        sigma = true_sigma(A)
        got = spectral_norm(A)
        assert sigma <= got <= 1.05 * sigma
        assert np.float64(spectral_norm(A)).tobytes() == np.float64(got).tobytes()

    def test_rank_one_breaks_down(self):
        A = self.matrices()["rank-1"]
        calls = []

        def apply(v):
            calls.append(1)
            return A @ (A.T @ v)

        theta = smooth._lanczos_top(apply, A.shape[0])
        assert len(calls) == 2
        assert theta == pytest.approx(true_sigma(A) ** 2, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((40, 30))) == 0.0


class TestConvexity:
    @pytest.mark.parametrize("kind", ["least-squares", "logistic"])
    def test_midpoint_convexity(self, kind):
        rng = np.random.default_rng(8)
        n, d = 25, 4
        X = rng.standard_normal((n, d))
        if kind == "logistic":
            loss = logistic_loss(Dataset(X, rng.choice((-1.0, 1.0), size=n)))
        else:
            loss = least_squares(Dataset(X, rng.standard_normal(n)))
        for _ in range(200):
            x = rng.uniform(-2, 2, size=d)
            y = rng.uniform(-2, 2, size=d)
            mid = loss.value(0.5 * (x + y))
            assert mid <= 0.5 * (loss.value(x) + loss.value(y)) + 1e-10
