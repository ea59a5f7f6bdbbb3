"""Adam: moments pair with the parameters by position."""
import numpy as np
import pytest

from oracle import adam_step
from ptcsearch import StateError
from ptcsearch.optim import Adam


def _stepped_adam():
    params = [np.ones(3), np.ones((2, 2))]
    opt = Adam(lr=0.1)
    opt.step(params, [np.full(3, 0.5), np.full((2, 2), -0.5)])
    return opt, params


def test_adam_rejects_a_shorter_parameter_list():
    opt, (a, _) = _stepped_adam()
    held = a.copy()
    with pytest.raises(StateError):
        opt.step([a], [np.ones(3)])
    assert np.array_equal(a, held) and opt.t == 1


def test_adam_rejects_a_reshaped_parameter():
    opt, (a, b) = _stepped_adam()
    with pytest.raises(StateError):
        opt.step([a, b.reshape(4)], [np.ones(3), np.ones(4)])
    assert opt.t == 1


def test_adam_accepts_the_same_parameter_set():
    opt, params = _stepped_adam()
    opt.step(params, [np.ones(3), np.ones((2, 2))])
    assert opt.t == 2


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_flat_moments_match_the_per_parameter_formula_bit_for_bit(weight_decay):
    rng = np.random.default_rng(7)
    shapes = [(5,), (3, 4), (2, 3, 2)]
    params = [rng.normal(size=s) for s in shapes]
    expected = [p.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = Adam(lr=0.05, weight_decay=weight_decay)
    moments = None
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        held = [g.copy() for g in grads]
        lr = None if t % 2 else 0.02       # the base rate, then an override
        opt.step(params, grads, lr=lr)
        adam_step(expected, grads, m, v, t, 0.05 if lr is None else lr,
                  weight_decay=weight_decay)
        for got, want in zip(params, expected):
            assert got.tobytes() == want.tobytes()
        assert opt._m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
        assert opt._v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()
        assert all(np.array_equal(g, h) for g, h in zip(grads, held))
        if moments is None:
            moments = opt._m, opt._v
        assert opt._m is moments[0] and opt._v is moments[1]
