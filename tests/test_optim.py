"""Objective, optimizer, and schedule tests."""

import math

import numpy as np
import pytest

from mirnet_forge import tensor as T
from mirnet_forge.blocks import DAU, init_weights
from mirnet_forge.config import ConfigError, TrainConfig
from mirnet_forge.optim import Adam, charbonnier_loss, cosine_lr
from mirnet_forge.tensor import ContractError, ShapeError, Tensor
from mirnet_forge.verify import grad_check

from oracles import charbonnier_loops

RNG = np.random.default_rng


class TestCharbonnier:
    @pytest.mark.parametrize("mode", ["per_pixel_mean", "global_norm"])
    def test_zero_difference_floor(self, mode):
        # With pred == target every distance is sqrt(eps^2) == eps, and the
        # square root of the squared constant is exact in both precisions.
        x = Tensor(RNG(0).normal(size=(2, 3, 4, 4)).astype(np.float32))
        y = Tensor(x.data.copy())
        loss = charbonnier_loss(x, y, mode)
        assert loss.data == np.float32(1e-3)

    @pytest.mark.parametrize("mode", ["per_pixel_mean", "global_norm"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_loop_oracle(self, mode, seed):
        pred = Tensor(RNG(seed).normal(size=(2, 3, 5, 5)))
        target = Tensor(RNG(seed + 50).normal(size=(2, 3, 5, 5)))
        loss = charbonnier_loss(pred, target, mode)
        expected = charbonnier_loops(pred.data, target.data, 1e-3, mode)
        assert np.isclose(float(loss.data), expected, rtol=1e-12, atol=0)

    def test_approaches_l1_for_large_differences(self):
        pred = Tensor(np.full((1, 1, 4, 4), 5.0))
        target = Tensor(np.zeros((1, 1, 4, 4)))
        loss = charbonnier_loss(pred, target)
        assert abs(float(loss.data) - 5.0) < 1e-6

    @pytest.mark.parametrize("mode", ["per_pixel_mean", "global_norm"])
    def test_gradient(self, mode):
        pred = Tensor(RNG(7).normal(size=(1, 2, 4, 4)), requires_grad=True)
        target = Tensor(RNG(8).normal(size=(1, 2, 4, 4)), requires_grad=True)
        rep = grad_check(
            lambda: charbonnier_loss(pred, target, mode), [pred, target])
        assert rep.passed, rep

    def test_gradient_smooth_at_zero(self):
        # The whole point of the smoothing constant: finite slope at d == 0.
        pred = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        target = Tensor(np.zeros((1, 1, 2, 2)))
        with T.Tape() as tape:
            loss = charbonnier_loss(pred, target)
        T.backward(tape, loss)
        assert np.all(np.isfinite(pred.grad))
        assert np.all(pred.grad == 0.0)

    def test_no_gradient_for_a_target_without_grad(self):
        pred = Tensor(RNG(9).normal(size=(1, 2, 4, 4)), requires_grad=True)
        target = Tensor(RNG(10).normal(size=(1, 2, 4, 4)))
        with T.Tape() as tape:
            charbonnier_loss(pred, target)
        (_, _, back), = tape.nodes
        gp, gt = back(np.asarray(1.0))
        assert gt is None
        d = pred.data - target.data
        np.testing.assert_allclose(gp, d / (np.sqrt(d * d + 1e-6) * d.size), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            charbonnier_loss(Tensor(np.zeros((1, 1, 2, 2))),
                             Tensor(np.zeros((1, 1, 2, 3))))

    def test_bad_config_rejected(self):
        with pytest.raises(ContractError, match="unknown loss mode 'huber'"):
            charbonnier_loss(Tensor(np.zeros((1, 1, 2, 2))),
                             Tensor(np.zeros((1, 1, 2, 2))), mode="huber")


class TestCosineSchedule:
    def test_endpoints(self):
        s = TrainConfig(lr_init=2e-4, lr_min=1e-6, total_steps=1000)
        assert np.isclose(cosine_lr(0, s), 2e-4, rtol=1e-12)
        assert cosine_lr(1000, s) == 1e-6
        assert cosine_lr(5000, s) == 1e-6

    def test_midpoint(self):
        s = TrainConfig(lr_init=2e-4, lr_min=1e-6, total_steps=1000)
        assert np.isclose(cosine_lr(500, s), (2e-4 + 1e-6) / 2, rtol=1e-12)

    def test_monotone_nonincreasing(self):
        s = TrainConfig(lr_init=2e-4, lr_min=1e-6, total_steps=700_000)
        lrs = [cosine_lr(t, s) for t in range(0, 700_001, 3500)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert lrs[0] > lrs[-1]

    def test_quarter_point_value(self):
        # lr(T/4) = lr_min + 0.5*(lr_init - lr_min)*(1 + cos(pi/4))
        s = TrainConfig(lr_init=1e-3, lr_min=1e-5, total_steps=400)
        expected = 1e-5 + 0.5 * (1e-3 - 1e-5) * (1 + math.cos(math.pi / 4))
        assert np.isclose(cosine_lr(100, s), expected, rtol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ContractError):
            cosine_lr(-1, TrainConfig())
        with pytest.raises(ConfigError):
            TrainConfig(lr_init=1e-6, lr_min=2e-4)
        with pytest.raises(ConfigError):
            TrainConfig(total_steps=0)

    @pytest.mark.parametrize("field", ["lr_init", "lr_min"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_rate_rejected(self, field, value):
        with pytest.raises(ConfigError, match="must be finite"):
            TrainConfig(**{field: value})


def _adam_loops(data, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar-loop reference of bias-corrected Adam over a step sequence."""
    p = data.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = g.astype(np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def _named(**params):
    """An Adam that has named `params`."""
    opt = Adam()
    opt.init_state(params)
    return opt


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # Bias correction makes the first update lr * g/(|g| + eps*...) which
        # is lr * sign(g) up to eps.
        p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        _named(p=p).step([(p, np.array([0.3, -0.7, 1e4]))], 0.01)
        assert np.allclose(p.data, [0.99, -1.99, 0.49], atol=1e-6)

    def test_matches_loop_oracle_over_steps(self):
        rng = RNG(9)
        start = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(20)]
        p = Tensor(start.copy(), requires_grad=True)
        opt = _named(p=p)
        for g in grads:
            opt.step([(p, g.copy())], 3e-3)
        assert np.allclose(p.data, _adam_loops(start, grads, 3e-3),
                           rtol=1e-10, atol=1e-12)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([8.0]), requires_grad=True)
        opt = _named(p=p)
        for _ in range(400):
            opt.step([(p, 2.0 * (p.data - 3.0))], 0.05)
        assert abs(float(p.data[0]) - 3.0) < 1e-2

    def test_missing_gradient_treated_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = _named(p=p)
        opt.step([], 0.1)
        assert p.data[0] == 1.0
        assert opt.m["p"][0] == 0.0 and opt.v["p"][0] == 0.0

    def test_state_keyed_by_name(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = _named(w=p)
        opt.step([(p, np.array([1.0]))], 0.1)
        assert set(opt.m) == {"w"} and set(opt.v) == {"w"}
        assert opt.names == {p: "w"}
        assert opt.t == 1

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ContractError, match="misaligned with parameter p"):
            _named(p=p).step([(p, np.array([1.0]))], 0.1)

    def test_nonpositive_lr_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ContractError):
            _named(p=p).step([(p, np.array([1.0]))], 0.0)

    @pytest.mark.parametrize("name", ["w", "ab", "abc"])
    def test_mapping_rejected_before_the_step_counts(self, name):
        # iterating a {name: parameter} dict yields its names, which unpack
        # into a pair or fail to by the length of the name
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = _named(**{name: p})
        with pytest.raises(ContractError, match=r"\(parameter, gradient\) pairs"):
            opt.step({name: p}, 0.1)
        assert opt.t == 0 and p.data[0] == 1.0

    def test_updates_buffers_in_place(self):
        # three blocks and a partial fourth; the in-place update must be bit
        # for bit the whole-array expression, evaluated in float32
        rng = RNG(12)
        start = rng.normal(size=(3, 70_000)).astype(np.float32)
        grads = [rng.normal(size=start.shape).astype(np.float32) for _ in range(3)]
        p = Tensor(start.copy(), requires_grad=True)
        data = p.data
        opt = _named(p=p)
        buffers = None
        for g in grads:
            opt.step([(p, g)], 1e-3)
            buffers = buffers or (opt.m["p"], opt.v["p"])
        assert p.data is data
        assert opt.m["p"] is buffers[0] and opt.v["p"] is buffers[1]
        expected, m, v = start, 0.0 * start, 0.0 * start
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            mhat, vhat = m / (1.0 - 0.9 ** t), v / (1.0 - 0.999 ** t)
            expected = expected - 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_array_equal(p.data, expected)

    def test_non_contiguous_parameter_rejected(self):
        # a copy would leave every other reference to the array stale
        p = Tensor(np.arange(6.0).reshape(2, 3).T, requires_grad=True)
        data = p.data
        with pytest.raises(ContractError) as info:
            _named(w=p).step([(p, np.ones((3, 2)))], 0.1)
        assert str(info.value) == "parameter w is not C-contiguous"
        assert p.data is data
        np.testing.assert_array_equal(data, np.arange(6.0).reshape(2, 3).T)

    def test_state_keeps_parameter_dtype(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        opt = _named(p=p)
        for _ in range(2):
            opt.step([(p, np.array([0.5, 0.25]))], 0.01)   # float64 gradient
        assert p.data.dtype == opt.m["p"].dtype == opt.v["p"].dtype == np.float32

    def test_deterministic(self):
        def run():
            rng = RNG(11)
            p = Tensor(rng.normal(size=(5,)).astype(np.float32),
                       requires_grad=True)
            opt = _named(p=p)
            for _ in range(10):
                opt.step([(p, rng.normal(size=(5,)).astype(np.float32))], 1e-3)
            return p.data.tobytes()

        assert run() == run()


def _two_phase_gradients(tape, loss):
    """Leaf gradients of a reverse replay that holds every gradient until the
    whole tape is replayed, accumulated in the replay's order: the reference
    that a streamed update must equal."""
    grads, leaves = {loss.node[1]: np.ones_like(loss.data)}, {}
    for i in reversed(range(len(tape.nodes))):
        refs, _, back = tape.nodes[i]
        g = grads.pop(i, None)
        for ref, ig in zip(refs, () if g is None else back(g)):
            if ig is not None and ref is not None:
                acc = leaves if isinstance(ref, Tensor) else grads
                acc[ref] = acc[ref] + ig if ref in acc else ig
    return list(leaves.items())


class TestStreamedUpdate:
    """Adam.step over tensor.gradients applies each gradient once it is final.
    Each parameter's update is elementwise and independent of the others, so
    the result is backward followed by step, bit for bit."""

    def _train(self, mode, steps=3):
        dau = init_weights(DAU(8), seed=4)
        params = dau.named_parameters()
        opt = Adam()
        opt.init_state(params)
        rng = RNG(5)
        for _ in range(steps):
            x = Tensor(rng.random((2, 8, 8, 8), dtype=np.float32))
            y = Tensor(rng.random((2, 8, 8, 8), dtype=np.float32))
            with T.Tape() as tape:
                loss = charbonnier_loss(dau(dau(x)), y)   # each weight named twice
            if mode == "streamed":
                opt.step(T.gradients(tape, loss), 1e-3)
            elif mode == "backward":
                T.backward(tape, loss)
                opt.step([(p, p.grad) for p in params.values()], 1e-3)
            else:
                opt.step(_two_phase_gradients(tape, loss), 1e-3)
        return {name: (p.data.tobytes(), opt.m[name].tobytes(), opt.v[name].tobytes())
                for name, p in params.items()}

    def test_module_applied_twice_matches_backward_then_step(self):
        # the weights are named by nodes of both applications, far apart; a
        # gradient handed over before its earliest node lacks that node's part
        dau = init_weights(DAU(8), seed=4)
        with T.Tape() as tape:
            dau(dau(Tensor(np.zeros((1, 8, 8, 8), np.float32))))
        spans = {}
        for i, (refs, _, _) in enumerate(tape.nodes):
            for ref in refs:
                if isinstance(ref, Tensor):
                    spans[ref] = (spans.get(ref, (i,))[0], i)
        assert len(spans) == len(dau.named_parameters())
        assert min(last - first for first, last in spans.values()) > len(tape.nodes) // 3
        streamed = self._train("streamed")
        assert streamed == self._train("backward") == self._train("held")
        start = init_weights(DAU(8), seed=4).named_parameters()
        assert all(streamed[name][0] != p.data.tobytes() for name, p in start.items())

    def test_parameter_off_the_tape_gets_a_zero_gradient_update(self):
        # a stream names only what the tape names; step still decays m and v
        # of every named parameter and moves it, as a zero gradient would
        w, u = (Tensor(RNG(s).normal(size=(4,)), requires_grad=True) for s in (6, 7))
        twin_w, twin_u = (Tensor(t.data.copy(), requires_grad=True) for t in (w, u))
        opt, twin = _named(w=w, u=u), _named(w=twin_w, u=twin_u)
        for o, a, b in ((opt, w, u), (twin, twin_w, twin_u)):
            o.step([(a, np.ones(4)), (b, np.full(4, -2.0))], 0.1)
        m, v, before = opt.m["u"].copy(), opt.v["u"].copy(), u.data.copy()
        with T.Tape() as tape:
            loss = T.tsum(T.mul(w, w))
        opt.step(T.gradients(tape, loss), 0.1)
        twin.step([(twin_w, 2.0 * twin_w.data), (twin_u, np.zeros(4))], 0.1)
        np.testing.assert_array_equal(opt.m["u"], 0.9 * m)
        np.testing.assert_array_equal(opt.v["u"], 0.999 * v)
        assert np.all(u.data != before)
        for name, (a, b) in {"w": (w, twin_w), "u": (u, twin_u)}.items():
            np.testing.assert_array_equal(a.data, b.data)
            np.testing.assert_array_equal(opt.m[name], twin.m[name])
            np.testing.assert_array_equal(opt.v[name], twin.v[name])

    @pytest.mark.parametrize("twice", [True, False], ids=["twice", "unnamed"])
    def test_gradient_of_no_named_parameter_rejected(self, twice):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = p if twice else Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ContractError, match="comes twice or names no parameter"):
            _named(p=p).step([(p, np.array([1.0])), (q, np.array([1.0]))], 0.1)
