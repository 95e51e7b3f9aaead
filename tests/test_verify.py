import numpy as np
import pytest

from nnapprox import LITERAL, RESCALED, mult_error_bound, verify_mult
from nnapprox import verify as ver


@pytest.mark.parametrize("variant", [LITERAL, RESCALED], ids=["literal", "rescaled"])
def test_verify_mult_passes_at_coarse_step(variant):
    for m in (2, 4):
        rep = verify_mult(m, variant, step=0.05)
        assert rep.passed
        assert 0.0 < rep.measured_max_error <= rep.claimed_bound == mult_error_bound(m, variant)
        assert rep.params == {"m": m, "variant": variant.value}
        assert rep.grid["step"] == 0.05


@pytest.mark.parametrize("n", [1, 10, 20, 200])
def test_verify_mult_grids(monkeypatch, n):
    seen = []
    evaluate = ver.evaluate
    monkeypatch.setattr(ver, "evaluate", lambda net, x: seen.append(x) or evaluate(net, x))
    verify_mult(2, LITERAL, step=1.0 / n)
    verify_mult(2, RESCALED, step=1.0 / n)
    literal, rescaled = seen
    # the literal grid is every (i/n, j/n) with i + j <= n, the rescaled one all of them
    assert len(literal) == (n + 1) * (n + 2) // 2
    assert np.all(literal[:, 1] + literal[:, 2] <= 1.0)
    assert len(rescaled) == (n + 1) ** 2
    assert np.all(literal[:, 0] == 1.0) and np.all(rescaled[:, 0] == 1.0)


def test_verify_mult_reports_bound_override():
    rep = verify_mult(3, RESCALED, step=0.1, bound=1e-12)
    assert rep.claimed_bound == 1e-12 and not rep.passed
    rep = verify_mult(3, RESCALED, step=0.1, bound=1.0)
    assert rep.claimed_bound == 1.0 and rep.passed
    assert rep.to_dict()["claimed_bound"] == 1.0
    assert list(rep.to_dict()) == [
        "construction", "params", "grid", "measured_max_error", "claimed_bound", "passed", "seconds"
    ]


@pytest.mark.parametrize("step", [0.0, -0.1, 1.5, 3.0])
def test_verify_mult_rejects_step_outside_unit_interval(step):
    with pytest.raises(ValueError, match="step"):
        verify_mult(2, RESCALED, step=step)
