"""Tests for the independent Bromwich-contour inversion used as an oracle."""

import math

import numpy as np
import pytest

import fzwave.cli
import fzwave.laplace_oracle
from fzwave.errors import NumericsError, ValidationError
from fzwave.kernel import spectral_kernel, spectral_kernel_alpha0
from fzwave.laplace_oracle import bromwich_invert
from fzwave.params import ModelParams

P_EXP = ModelParams(alpha=0.25, beta=0.45, tau=0.1, epsilon=0.01)


def test_rho_zero_inverts_to_unit_step():
    assert bromwich_invert(0.0, 1.0, P_EXP) == pytest.approx(1.0, abs=1e-4)


def test_beta_zero_inverts_to_unit_step():
    p = ModelParams(0.25, 0.0, 0.1)
    assert bromwich_invert(2.0, 0.7, p) == pytest.approx(1.0, abs=1e-4)


def test_oracle_agrees_with_spectral_route():
    want = spectral_kernel(1.0, 1.0, P_EXP).total
    got = bromwich_invert(1.0, 1.0, P_EXP)
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def test_oracle_agrees_with_alpha0_closed_form():
    p = ModelParams(0.0, 0.45, 0.1)
    want = spectral_kernel_alpha0(1.0, 1.0, 0.45, 0.1)
    got = bromwich_invert(1.0, 1.0, p)
    assert abs(got - want) <= 1e-5


def test_contour_abscissa_independence():
    # the inverse transform cannot depend on the (admissible) contour placement
    vals = [
        bromwich_invert(1.0, 1.0, P_EXP, s0=s0) for s0 in (0.5, 1.0, 2.0)
    ]
    assert max(vals) - min(vals) <= 1e-5


def test_small_time_guard():
    with pytest.raises(ValidationError):
        bromwich_invert(1.0, 1e-4, P_EXP)


def test_time_past_the_exponential_range_is_refused():
    # e^(s0 t) passes the largest float near s0 t = 709.78: refused before it is
    # taken, as the start-node budget refuses shorter times, not an OverflowError
    with pytest.raises(NumericsError):
        bromwich_invert(1.0, 800.0, P_EXP)


def test_tail_gate_clears_with_larger_p_max():
    # theta ~ 25 at rho=5, beta=0.99: the tail bound asks for p_max past 1e4
    p_hot = ModelParams(0.25, 0.99, 0.1)
    got = bromwich_invert(5.0, 1.0, p_hot)
    want = spectral_kernel(5.0, 1.0, p_hot).total
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


@pytest.mark.parametrize("rho, t, beta", [
    (8.0, 0.5, 0.45), (20.0, 2.0, 0.45), (86.0, 0.5, 0.45), (860.0, 1.0, 0.45),
    (5.0, 1.0, 0.99), (1.0, 0.01, 0.45),
])
def test_oracle_reaches_the_rho_range_of_the_fields(rho, t, beta):
    # the fields sum rho up to _rho_max(0.01) ~ 860 and the Gaussian plan to
    # about 86; the oracle's own tail bound sets a line long enough for each
    p = ModelParams(0.25, beta, 0.1, 0.01)
    want = spectral_kernel(rho, t, p).total
    got = bromwich_invert(rho, t, p)
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def test_line_is_evaluated_in_fixed_blocks(monkeypatch):
    # at (860, 1) the start line has 237,252 nodes and the last doubling level
    # 1,898,008; each is evaluated 2^16 nodes at a time, so memory stays fixed
    q_hat = fzwave.laplace_oracle._q_hat
    sizes = []

    def spy(pp, *args):
        sizes.append(pp.size)
        return q_hat(pp, *args)

    monkeypatch.setattr(fzwave.laplace_oracle, "_q_hat", spy)
    got = bromwich_invert(860.0, 1.0, P_EXP)
    assert max(sizes) <= 1 << 16
    # the value of the same line evaluated in one block per level
    assert abs(got - -5.001288814421301e-06) <= 1e-12


def test_start_node_budget_refuses_before_sampling(monkeypatch):
    # at t = 50, e^(s0 t) asks for p_max ~ 1e10: refused before any node is
    # evaluated, naming the p_max the tail bound asks for
    def unreachable(*args):
        raise AssertionError("the integrand was evaluated")

    monkeypatch.setattr(fzwave.laplace_oracle, "_q_hat", unreachable)
    with pytest.raises(NumericsError, match="p_max = 1.2e\\+10"):
        bromwich_invert(1.0, 50.0, P_EXP)


def test_config_validation():
    with pytest.raises(ValidationError) as exc:
        bromwich_invert(1.0, 1.0, P_EXP, s0=0.0)
    assert exc.value.field == "s0"
    with pytest.raises(ValidationError):
        bromwich_invert(-1.0, 1.0, P_EXP)


def test_unconverged_node_doubling_is_refused(monkeypatch, capsys):
    # one level leaves no second Richardson value to compare with
    monkeypatch.setattr(fzwave.laplace_oracle, "_MAX_DOUBLINGS", 1)
    with pytest.raises(NumericsError, match="did not converge") as exc:
        bromwich_invert(1.0, 1.0, P_EXP)
    assert exc.value.achieved == math.inf
    assert fzwave.cli.run_command(["oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("numerical failure: Bromwich node doubling")


def test_imaginary_residual_is_refused(monkeypatch):
    # an even, purely imaginary term integrates to an imaginary part that the
    # two half-lines of a real kernel never leave
    q_hat = fzwave.laplace_oracle._q_hat

    def skewed(pp, *args):
        return q_hat(pp, *args) + 1e-3j * np.exp(-np.square(pp))

    monkeypatch.setattr(fzwave.laplace_oracle, "_q_hat", skewed)
    with pytest.raises(NumericsError, match="imaginary residual") as exc:
        bromwich_invert(1.0, 1.0, P_EXP)
    assert exc.value.achieved > 1e-6
