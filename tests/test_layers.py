"""Every hand-written backward against the finite-difference oracle,
plus the exact algebra the normalization layer promises."""

import math

import numpy as np
import pytest
from helpers import fd_grad, rel_err
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_lab.errors import ConfigError, DomainError, UsageError
from collapse_lab.net.layers import (
    BatchNorm,
    Dense,
    LeakyReLU,
    ReLU,
    accuracy,
    softmax_cross_entropy,
)

SEEDS = range(5)
TOL = 1e-4

# (batch, channels, seed) for the kernel-equivalence tests
BATCHES = st.tuples(st.integers(2, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))


class TestDense:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_grads_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        layer = Dense(4, 3, rng)
        x = rng.standard_normal((5, 4))
        c = rng.standard_normal((5, 3))  # fixed linear functional of the output

        def loss():
            return float(np.sum(c * layer.forward(x, "eval")))

        grad_in = None

        def run_backward():
            nonlocal grad_in
            layer.forward(x, "train")
            grad_in = layer.backward(c)

        run_backward()
        assert rel_err(layer.gw, fd_grad(loss, layer.w)) < TOL
        assert rel_err(layer.gb, fd_grad(loss, layer.b)) < TOL
        assert rel_err(grad_in, fd_grad(loss, x)) < TOL

    def test_backward_needs_train_forward(self):
        layer = Dense(2, 2, np.random.default_rng(0))
        with pytest.raises(UsageError):
            layer.backward(np.ones((3, 2)))
        layer.forward(np.ones((3, 2)), "eval")
        with pytest.raises(UsageError):
            layer.backward(np.ones((3, 2)))

    def test_init_scale(self):
        layer = Dense(400, 50, np.random.default_rng(1))
        assert abs(layer.w.std() - 1 / math.sqrt(400)) < 0.005
        assert np.all(layer.b == 0.0)


class TestBnForward:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(3)
        x = 2.5 * rng.standard_normal((64, 4)) + 1.0
        layer = BatchNorm(4)
        layer.forward(x, "train")
        x_hat = layer.x_hat
        assert np.abs(x_hat.mean(axis=0)).max() < 1e-12
        # biased variance of x_hat is var/(var+eps), a hair under 1
        assert np.abs(x_hat.var(axis=0) - 1.0).max() < 1e-4

    def test_eval_uses_running_stats(self):
        x = np.array([[0.5, -2.0], [1.0, 3.0], [0.25, 0.0]])
        out = BatchNorm(2).forward(x, "eval")
        assert np.array_equal(out, x * (1.0 / np.sqrt(1.0 + 1e-5)))

    def test_shift_on_zero_input(self):
        x = np.zeros((3, 2))
        out = BatchNorm(2, alpha=0.1).forward(x, "eval")
        assert np.all(out == 0.1)

    def test_running_stats_blend(self):
        layer = BatchNorm(2)
        layer.running_mean[:] = [1.0, -1.0]
        layer.running_var[:] = [4.0, 9.0]
        x = np.random.default_rng(0).standard_normal((16, 2))
        layer.forward(x, "train")
        want_mean = 0.9 * np.array([1.0, -1.0]) + 0.1 * x.mean(axis=0)
        want_var = 0.9 * np.array([4.0, 9.0]) + 0.1 * x.var(axis=0)
        assert np.allclose(layer.running_mean, want_mean, rtol=0, atol=1e-15)
        assert np.allclose(layer.running_var, want_var, rtol=0, atol=1e-15)

    def test_eval_touches_nothing(self):
        layer = BatchNorm(4)
        before = (layer.running_mean.copy(), layer.running_var.copy())
        layer.forward(np.random.default_rng(1).standard_normal((8, 4)), "eval")
        assert np.array_equal(layer.running_mean, before[0])
        assert np.array_equal(layer.running_var, before[1])

    def test_train_batch_floor(self):
        with pytest.raises(DomainError):
            BatchNorm(4).forward(np.ones((1, 4)), "train")
        out = BatchNorm(4).forward(np.ones((1, 4)), "eval")
        assert out.shape == (1, 4)

    def test_shape_and_mode_validation(self):
        with pytest.raises(DomainError):
            BatchNorm(4).forward(np.ones((4, 3)), "train")
        with pytest.raises(DomainError):
            BatchNorm(4).forward(np.ones(4), "train")
        with pytest.raises(ConfigError):
            BatchNorm(4).forward(np.ones((4, 4)), "predict")

    def test_alpha_must_be_nonnegative(self):
        with pytest.raises(ConfigError):
            BatchNorm(4, alpha=-0.2)

    def test_shifted_output_is_plain_plus_constant(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 4))
        plain = BatchNorm(4).forward(x, "train")
        shifted = BatchNorm(4, alpha=0.3).forward(x, "train")
        assert np.array_equal(shifted, plain + 0.3)


def bn_grads(layer: BatchNorm, x: np.ndarray, grad_out: np.ndarray):
    """(grad_in, grad_gamma, grad_beta) of one train-mode step, copied out."""
    layer.forward(x, "train")
    grad_in = layer.backward(grad_out)
    return grad_in, layer.ggamma.copy(), layer.gbeta.copy()


class TestBnBackward:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_grads_match_fd(self, seed, alpha):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 4))
        layer = BatchNorm(4, alpha=alpha)
        layer.gamma[:] = rng.uniform(0.5, 1.5, 4)
        layer.beta[:] = rng.uniform(-0.5, 0.5, 4)
        c = rng.standard_normal((8, 4))

        def loss():
            return float(np.sum(c * layer.forward(x, "train")))

        grad_in, grad_gamma, grad_beta = bn_grads(layer, x, c)
        assert rel_err(grad_gamma, fd_grad(loss, layer.gamma)) < TOL
        assert rel_err(grad_beta, fd_grad(loss, layer.beta)) < TOL
        assert rel_err(grad_in, fd_grad(loss, x)) < TOL

    def test_grad_beta_is_column_sum(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 4))
        c = rng.standard_normal((8, 4))
        _, _, grad_beta = bn_grads(BatchNorm(4), x, c)
        assert np.array_equal(grad_beta, c.sum(axis=0))

    def test_shift_changes_no_gradient(self):
        """Identical parameters and input give bitwise-identical gradients
        whether the constant shift is 0 or not; the shift has no gradient."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 4))
        c = rng.standard_normal((8, 4))
        outs = [bn_grads(BatchNorm(4, alpha=alpha), x, c) for alpha in (0.0, 0.25)]
        for a, b in zip(*outs):
            assert np.array_equal(a, b)

    def test_gamma_doubling_doubles_grad_in(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 4))
        c = rng.standard_normal((8, 4))
        in1, _, _ = bn_grads(BatchNorm(4), x, c)
        in2, _, _ = bn_grads(BatchNorm(4, gamma_init=2.0), x, c)
        assert np.array_equal(in2, 2.0 * in1)

    def test_zero_grad_out(self):
        x = np.random.default_rng(0).standard_normal((8, 4))
        grad_in, grad_gamma, grad_beta = bn_grads(BatchNorm(4), x, np.zeros((8, 4)))
        assert not grad_in.any() and not grad_gamma.any() and not grad_beta.any()

    def test_backward_needs_train_forward(self):
        layer = BatchNorm(4)
        with pytest.raises(UsageError):
            layer.backward(np.ones((8, 4)))
        layer.forward(np.ones((8, 4)), "eval")
        with pytest.raises(UsageError):
            layer.backward(np.ones((8, 4)))


class TestActivations:
    def test_relu_values(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]), "eval")
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_zero_input_uses_inactive_branch(self):
        layer = ReLU()
        layer.forward(np.array([[0.0, 1e-300, -0.0]]), "train")
        grad = layer.backward(np.ones((1, 3)))
        assert np.array_equal(grad, [[0.0, 1.0, 0.0]])

    def test_leaky_values(self):
        layer = LeakyReLU()
        out = layer.forward(np.array([[-2.0, 3.0]]), "train")
        assert np.array_equal(out, [[-0.02, 3.0]])
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(grad, [[0.05, 5.0]])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make", [ReLU, LeakyReLU])
    def test_grads_match_fd(self, seed, make):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 5))
        x += np.where(x >= 0, 0.1, -0.1)  # keep every probe on one side of the kink
        c = rng.standard_normal((6, 5))
        layer = make()

        def loss():
            return float(np.sum(c * layer.forward(x, "eval")))

        layer.forward(x, "train")
        grad_in = layer.backward(c)
        assert rel_err(grad_in, fd_grad(loss, x)) < TOL

    @pytest.mark.parametrize("make", [ReLU, LeakyReLU])
    def test_backward_needs_train_forward(self, make):
        layer = make()
        with pytest.raises(UsageError):
            layer.backward(np.ones((2, 2)))
        layer.forward(np.ones((2, 2)), "eval")
        with pytest.raises(UsageError):
            layer.backward(np.ones((2, 2)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 7, 9])
        loss, grad = softmax_cross_entropy(logits, labels)
        onehot = np.zeros((4, 10))
        onehot[np.arange(4), labels] = 1.0
        assert math.isclose(loss, math.log(10), rel_tol=1e-12)
        assert np.allclose(grad, (0.1 - onehot) / 4, rtol=0, atol=1e-15)
        assert np.abs(grad.sum(axis=1)).max() < 1e-15

    def test_grad_is_probs_minus_onehot_over_n(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        loss, grad = softmax_cross_entropy(logits, labels)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        onehot = np.zeros((6, 4))
        onehot[np.arange(6), labels] = 1.0
        assert np.allclose(grad, (probs - onehot) / 6, rtol=0, atol=1e-15)

    def test_confident_correct_prediction(self):
        logits = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-12

    def test_stable_at_huge_logits(self):
        logits = np.array([[1e4, 0.0], [0.0, 1e4]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert math.isfinite(loss) and loss >= 0
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grad_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits, labels)
        assert rel_err(grad, fd_grad(loss, logits)) < TOL

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            softmax_cross_entropy(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(DomainError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=int))

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert accuracy(logits, np.array([0, 1, 1, 1])) == 0.75


class TestInputsUntouched:
    """No layer writes into an array its caller passed in: a caller may
    reuse both the forward input and the backward grad_out."""

    LAYERS = {
        "dense": lambda: Dense(6, 6, np.random.default_rng(0)),
        "bn": lambda: BatchNorm(6),
        "psbn": lambda: BatchNorm(6, alpha=0.1),
        "relu": ReLU,
        "leaky": LeakyReLU,
    }

    @pytest.mark.parametrize("name", LAYERS)
    def test_forward_and_backward_leave_inputs(self, name):
        layer = self.LAYERS[name]()
        x, grad_out = sample((8, 6), 1), sample((8, 6), 2)
        x_before, grad_before = x.copy(), grad_out.copy()
        layer.forward(x, "eval")
        layer.forward(x, "train")
        layer.backward(grad_out)
        assert np.array_equal(x, x_before) and np.array_equal(grad_out, grad_before)

    def test_softmax_cross_entropy_leaves_logits(self):
        logits = sample((8, 6), 3)
        before = logits.copy()
        softmax_cross_entropy(logits, np.arange(8) % 6)
        assert np.array_equal(logits, before)


def _softmax_cross_entropy_wrapped(logits, labels):
    """softmax_cross_entropy as it was before it called the ufunc reductions directly
    and formed the gradient on the softmax buffer."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=1, keepdims=True)
    probs /= total
    n = logits.shape[0]
    idx = np.arange(n)
    loss = float(-np.mean(shifted[idx, labels] - np.log(total[:, 0])))
    grad = probs.copy()
    grad[idx, labels] -= 1.0
    grad /= n
    return loss, grad


def sample(shape, seed):
    """Shifted, scaled normal draws with one +0.0 and one -0.0 planted."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * rng.uniform(0.1, 10.0) + rng.uniform(-3.0, 3.0)
    x.flat[rng.integers(0, x.size, 2)] = [0.0, -0.0]
    return x


# BatchNorm's kernels against the formulas they replaced, the two-pass
# variance and the twelve-pass backward, may differ by rounding only: within
# REF_TOL of the largest term each formula combines (|gamma*inv_std*g| for
# the input gradient, |g*x_hat| summed down a column for the gamma
# gradient, the largest value itself for the forward arrays). For a batch of
# two the input gradient is only what is left of terms that cancel, so its
# own size is no scale for their rounding.
REF_TOL = 1e-12


def close_to(have, want, scale) -> bool:
    return bool(np.abs(have - want).max() <= REF_TOL * scale)


class TestKernelEquivalence:
    """The layer kernels against the plain formulas they compute, bit for
    bit; the formulas are kept here as the reference."""

    @settings(deadline=None)
    @given(BATCHES)
    def test_bn_forward(self, case):
        n, c, seed = case
        rng = np.random.default_rng(seed)
        x = sample((n, c), seed)
        layer = BatchNorm(c, alpha=0.1)
        layer.gamma[:] = rng.uniform(-2.0, 2.0, c)
        layer.beta[:] = rng.uniform(-1.0, 1.0, c)
        layer.running_mean[:] = rng.standard_normal(c)
        layer.running_var[:] = rng.uniform(0.5, 2.0, c)
        want_mean, want_var = layer.running_mean.copy(), layer.running_var.copy()
        eval_x_hat = (x - want_mean) * (1.0 / np.sqrt(want_var + layer.eps))
        assert np.array_equal(
            layer.forward(x, "eval"), layer.gamma * eval_x_hat + layer.beta + layer.alpha
        )

        out = layer.forward(x, "train")
        mean = x.mean(axis=0)
        centred = x - mean
        var = np.einsum("ij,ij->j", centred, centred) / n  # one pass
        inv_std = 1.0 / np.sqrt(var + layer.eps)
        x_hat = centred * inv_std
        want_mean *= 0.9
        want_mean += 0.1 * mean
        want_var *= 0.9
        want_var += 0.1 * var
        assert np.array_equal(layer.x_hat, x_hat)
        assert np.array_equal(layer.inv_std, inv_std)
        assert np.array_equal(out, layer.gamma * x_hat + layer.beta + layer.alpha)
        assert np.array_equal(layer.running_mean, want_mean)
        assert np.array_equal(layer.running_var, want_var)

        # the two-pass variance of x.var
        old_inv_std = 1.0 / np.sqrt(x.var(axis=0) + layer.eps)
        old_x_hat = (x - mean) * old_inv_std
        old_out = layer.gamma * old_x_hat + layer.beta + layer.alpha
        for have, want in ((layer.inv_std, old_inv_std), (layer.x_hat, old_x_hat), (out, old_out)):
            assert close_to(have, want, np.abs(want).max())

    @settings(deadline=None)
    @given(BATCHES)
    def test_bn_backward(self, case):
        n, c, seed = case
        layer = BatchNorm(c)
        layer.gamma[:] = np.random.default_rng(seed).uniform(-2.0, 2.0, c)
        layer.forward(sample((n, c), seed), "train")
        grad_out = sample((n, c), seed + 1)
        x_hat, inv_std, gamma = layer.x_hat, layer.inv_std, layer.gamma
        want_gamma, want_beta = np.einsum("ij,ij->j", grad_out, x_hat), grad_out.sum(axis=0)
        want_in = (grad_out - x_hat * (want_gamma / n) - want_beta / n) * (gamma * inv_std)
        grad_gamma, grad_beta = layer.ggamma, layer.gbeta
        got = (layer.backward(grad_out), layer.ggamma, layer.gbeta)
        assert got[1] is grad_gamma and got[2] is grad_beta  # written in place
        for have, want in zip(got, (want_in, want_gamma, want_beta)):
            assert np.array_equal(have, want)

        # the twelve-pass form: inv_std/n * (n*g*gamma - sum(g*gamma) - x_hat*sum(g*gamma*x_hat))
        g = grad_out * gamma
        old_in = (inv_std / n) * (n * g - np.sum(g, axis=0) - x_hat * np.sum(g * x_hat, axis=0))
        old_gamma = np.sum(grad_out * x_hat, axis=0)
        assert close_to(got[0], old_in, np.abs(g * inv_std).max())
        assert close_to(got[1], old_gamma, np.abs(grad_out * x_hat).sum(axis=0).max())

    @settings(deadline=None)
    @given(BATCHES)
    def test_dense(self, case):
        n, c, seed = case
        layer = Dense(c, 5, np.random.default_rng(seed))
        layer.b[:] = np.arange(5.0) / 3
        x, grad_out = sample((n, c), seed), sample((n, 5), seed + 1)
        assert np.array_equal(layer.forward(x, "train"), x @ layer.w + layer.b)
        assert np.array_equal(layer.backward(grad_out), grad_out @ layer.w.T)
        assert np.array_equal(layer.gw, x.T @ grad_out)
        assert np.array_equal(layer.gb, grad_out.sum(axis=0))
        assert layer.backward(grad_out, input_grad=False) is None

    @settings(deadline=None)
    @given(BATCHES)
    def test_activations(self, case):
        n, c, seed = case
        x, grad_out = sample((n, c), seed), sample((n, c), seed + 1)
        relu, leaky = ReLU(), LeakyReLU()
        out = relu.forward(x, "train")
        assert np.array_equal(out, np.where(x > 0, x, 0.0))
        assert not np.signbit(out).any()  # -0.0 comes out as +0.0, as from where
        assert np.array_equal(relu.backward(grad_out), np.where(x > 0, grad_out, 0.0))
        assert np.array_equal(leaky.forward(x, "train"), np.where(x > 0, x, leaky.slope * x))
        assert np.array_equal(leaky.backward(grad_out), np.where(x > 0, grad_out, leaky.slope * grad_out))

    @settings(deadline=None)
    @given(st.integers(1, 40), st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_softmax_cross_entropy(self, n, k, seed):
        logits = sample((n, k), seed)
        labels = np.random.default_rng(seed).integers(0, k, size=n)
        loss, grad = softmax_cross_entropy(logits, labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        want_probs = exp / exp.sum(axis=1, keepdims=True)
        log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
        idx = np.arange(n)
        want_grad = want_probs.copy()
        want_grad[idx, labels] -= 1.0
        want_grad /= n
        assert loss == float(-np.mean(log_probs[idx, labels]))
        assert np.array_equal(grad, want_grad)

    @settings(deadline=None)
    @given(st.integers(1, 300), st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_softmax_cross_entropy_as_before(self, n, k, seed):
        logits = sample((n, k), seed)
        labels = np.random.default_rng(seed).integers(0, k, size=n)
        loss, grad = softmax_cross_entropy(logits, labels)
        want_loss, want_grad = _softmax_cross_entropy_wrapped(logits, labels)
        assert loss.hex() == want_loss.hex()
        assert np.array_equal(grad, want_grad)
