"""Adam: moments pair with the parameters by position."""
import numpy as np
import pytest

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
