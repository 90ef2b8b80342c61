"""Tests for the independent Bromwich-contour inversion used as an oracle."""

import math

import numpy as np
import pytest

import fzwave.cli
import fzwave.laplace_oracle
from fzwave.errors import NumericsError, ValidationError
from fzwave.kernel import spectral_kernel, spectral_kernel_alpha0
from fzwave.laplace_oracle import BromwichConfig, bromwich_invert
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
        bromwich_invert(1.0, 1.0, P_EXP, BromwichConfig(s0=s0)) for s0 in (0.5, 1.0, 2.0)
    ]
    assert max(vals) - min(vals) <= 1e-5


def test_small_time_guard():
    with pytest.raises(ValidationError):
        bromwich_invert(1.0, 1e-4, P_EXP)


def test_tail_gate_raises_rather_than_truncates():
    # theta ~ 25 at rho=5, beta=0.99: the p_max = 1e4 tail misses abs_tol
    p_hot = ModelParams(0.25, 0.99, 0.1)
    with pytest.raises(NumericsError):
        bromwich_invert(5.0, 1.0, p_hot)


def test_time_past_the_exponential_range_is_refused():
    # e^(s0 t) passes the largest float near s0 t = 709.78: refused before it is
    # taken, as the tail gate refuses shorter times, not an OverflowError
    with pytest.raises(NumericsError):
        bromwich_invert(1.0, 800.0, P_EXP)


def test_tail_gate_clears_with_larger_p_max():
    p_hot = ModelParams(0.25, 0.99, 0.1)
    got = bromwich_invert(5.0, 1.0, p_hot, BromwichConfig(p_max=1e5, n_nodes=1 << 18))
    want = spectral_kernel(5.0, 1.0, p_hot).total
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def test_config_validation():
    with pytest.raises(ValidationError):
        BromwichConfig(s0=0.0)
    with pytest.raises(ValidationError):
        BromwichConfig(p_max=-1.0)
    with pytest.raises(ValidationError):
        BromwichConfig(n_nodes=8)
    with pytest.raises(ValidationError):
        bromwich_invert(-1.0, 1.0, P_EXP)
    with pytest.raises(ValidationError) as exc:
        bromwich_invert(1.0, 1.0, P_EXP, BromwichConfig(p_max=50.0))
    assert exc.value.field == "p_max"


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
