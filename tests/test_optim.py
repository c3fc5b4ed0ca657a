import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplrec.optim import _SLICE, Adam, cosine_annealed_lr

from oracles import adam_step_expr


class TestAdam:
    """`Adam.step` updates its moments and the parameters in place; it must
    be bitwise the fresh-array expression of tests/oracles.py."""

    @given(seed=st.integers(0, 10_000), hidden=st.integers(1, 8), m=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_steps_equal_oracle(self, seed, hidden, m):
        rng = np.random.default_rng(seed)
        shapes = {"w1": (hidden, 3), "b1": (hidden,), "wv": (hidden,), "bv": (1,), "wa": (m, hidden), "ba": (m,)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        expected = {name: p.copy() for name, p in params.items()}
        opt, state = Adam(1e-2), {}
        moments = None
        for step in range(6):
            # gradients spanning 1e-8 to 1e3 in magnitude, of either sign
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.uniform(-8, 3, size=p.shape)
                     for name, p in params.items()}
            opt.lr = cosine_annealed_lr(1e-2, step, 6)
            opt.step(params, grads)
            adam_step_expr(state, expected, grads, opt.lr)
            for name in params:
                assert np.array_equal(params[name], expected[name])
                assert np.array_equal(opt._m[name], state["m", name])
                assert np.array_equal(opt._v[name], state["v", name])
            if moments is None:
                moments = {name: (opt._m[name], opt._v[name]) for name in params}
            assert all(opt._m[name] is mo and opt._v[name] is vo for name, (mo, vo) in moments.items())
        assert opt.t == 6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slices_equal_oracle(self, dtype):
        # several slices with a ragged last one, a 2-D one, exactly one slice, less than one
        rng = np.random.default_rng(7)
        shapes = {"long": (2 * _SLICE + 7,), "rows": (3, _SLICE // 2 + 1), "one": (_SLICE,), "short": (5,)}
        params = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        expected = {name: p.copy() for name, p in params.items()}
        opt, state = Adam(1e-2), {}
        moments = None
        for step in range(3):
            grads = {name: (rng.normal(size=p.shape) * 10.0 ** rng.uniform(-8, 3, size=p.shape)).astype(dtype)
                     for name, p in params.items()}
            opt.step(params, grads)
            adam_step_expr(state, expected, grads, opt.lr)
            for name in params:
                assert params[name].dtype == dtype
                assert np.array_equal(params[name], expected[name])
                assert np.array_equal(opt._m[name], state["m", name])
                assert np.array_equal(opt._v[name], state["v", name])
            if moments is None:
                moments = {name: (opt._m[name], opt._v[name]) for name in params}
            assert all(opt._m[name] is mo and opt._v[name] is vo for name, (mo, vo) in moments.items())

    def test_scratch_is_one_slice(self):
        # the benchmark catalog's float32 advantage head
        rng = np.random.default_rng(8)
        params = {"wa": rng.normal(size=(3711, 256)).astype(np.float32)}
        grads = {"wa": rng.normal(size=(3711, 256)).astype(np.float32)}
        opt = Adam(1e-3)
        opt.step(params, grads)
        assert all(s.size <= _SLICE for s in opt._scratch["wa"])
        tracemalloc.start()
        try:
            opt.step(params, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _SLICE * 4

    def test_non_contiguous_parameter_rejected(self):
        with pytest.raises(ValueError, match="C-contiguous"):
            Adam(1e-3).step({"w": np.zeros((4, 3)).T}, {"w": np.zeros((3, 4))})
