"""Checkers measure, ``run_property`` judges.

Each ``verify_<id>`` returns its residual as a float and takes no tolerance
or seed; the residual does not depend on the tolerance it is judged at.
"""

import numpy as np
import pytest

from conftest import random_bm
from schurblock import PROPERTIES, block_identity, run_property
from schurblock import verify


def _instance(seed=307, n=3, d=2):
    rng = np.random.default_rng(seed)
    return {"A": random_bm(rng, n, d), "B": random_bm(rng, n, d),
            "xi": rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d),
            "gamma": rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)}


def _checker_args(pid, x):
    return [x[key] for key in PROPERTIES[pid].needs]


@pytest.mark.parametrize("pid", list(PROPERTIES))
def test_checker_returns_a_float(pid):
    x = _instance()
    residual = getattr(verify, f"verify_{pid}")(*_checker_args(pid, x))
    assert type(residual) is float
    assert residual == run_property(pid, x).worst_residual


@pytest.mark.parametrize("pid", list(PROPERTIES))
def test_residual_does_not_depend_on_the_tolerance(pid):
    x = _instance()
    default = PROPERTIES[pid].tol
    residuals = {run_property(pid, x, tol=t).worst_residual
                 for t in (default, 2 * default, default / 2)}
    assert len(residuals) == 1


@pytest.mark.parametrize("pid", list(PROPERTIES))
@pytest.mark.parametrize("knob", ["tol", "seed"])
def test_checkers_take_no_tolerance_or_seed(pid, knob):
    x = _instance()
    with pytest.raises(TypeError):
        getattr(verify, f"verify_{pid}")(*_checker_args(pid, x), **{knob: 1e-8})


def _routes_scaled(monkeypatch, diag_factor, sum_factor):
    original = verify.cauchy_schwarz_rhs_routes

    def scaled(*args):
        rhs_diag, rhs_sum = original(*args)
        return rhs_diag * diag_factor, rhs_sum * sum_factor

    monkeypatch.setattr(verify, "cauchy_schwarz_rhs_routes", scaled)


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-5])
def test_halved_cauchy_schwarz_bound_fails_at_every_scale(s, monkeypatch):
    # the identity pair reaches the bound exactly, so half of it is exceeded
    # by a factor 2 whatever the scale of the vectors
    _routes_scaled(monkeypatch, 0.5, 0.5)
    i = block_identity(2, 2)
    e1 = np.zeros(4, dtype=complex)
    e1[0] = s
    result = run_property("cauchy_schwarz", {"A": i, "B": i, "xi": e1, "gamma": e1})
    assert not result.passed
    assert result.worst_residual == 1.0


@pytest.mark.parametrize("disagreement,passes", [(2e-10, False), (5e-11, True)])
def test_rhs_routes_must_agree_to_1e_10(disagreement, passes, monkeypatch):
    x = _instance()
    assert run_property("cauchy_schwarz", x).passed
    _routes_scaled(monkeypatch, 1.0, 1.0 + disagreement)
    assert run_property("cauchy_schwarz", x).passed is passes
