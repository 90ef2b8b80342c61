import math
import sys

import numpy as np
import pytest

from fzwave.errors import ValidationError
from fzwave.params import (
    ModelParams,
    PhysicalParams,
    _require_in,
    _require_reals,
    nondimensionalize,
    validate_model,
)


def test_experiment_parameters_accepted():
    p = ModelParams(alpha=0.25, beta=0.45, tau=0.1, epsilon=0.01)
    assert validate_model(p) is p


def test_validate_is_idempotent():
    p = ModelParams(0.25, 0.45, 0.1)
    assert validate_model(validate_model(p)) is p


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(alpha=1.0, beta=0.45, tau=0.1), "alpha"),
        (dict(alpha=-0.1, beta=0.45, tau=0.1), "alpha"),
        (dict(alpha=0.25, beta=1.5, tau=0.1), "beta"),
        (dict(alpha=0.25, beta=-0.01, tau=0.1), "beta"),
        (dict(alpha=0.25, beta=0.45, tau=1.0), "tau"),
        (dict(alpha=0.25, beta=0.45, tau=0.0), "tau"),
        (dict(alpha=0.25, beta=0.45, tau=0.1, epsilon=0.0), "epsilon"),
        (dict(alpha=0.25, beta=0.45, tau=0.1, epsilon=1.5), "epsilon"),
    ],
)
def test_out_of_range_fields_name_the_offender(kwargs, field):
    with pytest.raises(ValidationError) as exc:
        validate_model(ModelParams(**kwargs))
    assert exc.value.field == field


@pytest.mark.parametrize("value, admissible, ok", [
    (0, "[0, 1)", True),
    (1, "[0, 1)", False),
    (0.0, "(0, 1]", False),
    (1.0, "(0, 1]", True),
    (0.0, "[0, 1]", True),
    (1.0, "[0, 1]", True),
    (0.0, "(0, 1)", False),
    (1.0, "(0, 1)", False),
    (0.5, "(0, 1)", True),
    (np.float64(0.1), "(0, 1)", True),
    (-1e-300, "[0, inf)", False),
    (1e300, "(0, inf)", True),
    (math.inf, "(0, inf)", False),
    (-math.inf, "[0, 1)", False),
    (math.nan, "[0, 1]", False),
    (True, "[0, 1]", False),
    (False, "[0, 1]", False),
    (np.bool_(True), "[0, 1]", False),
    (np.float32(0.5), "[0, 1]", False),
    ("0.5", "[0, 1]", False),
    (0.002, "[0.001, inf) (a note after the interval)", True),
    (0.0005, "[0.001, inf) (a note after the interval)", False),
    (0.0, "(0, 1) for a note without brackets", False),
])
def test_require_in_decides_by_type_finiteness_and_interval(value, admissible, ok):
    if ok:
        got = _require_in("x", value, admissible)
        assert type(got) is float and got == value
        return
    with pytest.raises(ValidationError) as exc:
        _require_in("x", value, admissible)
    assert exc.value.field == "x"
    assert exc.value.value is value
    assert exc.value.admissible == admissible


def test_require_in_refuses_ints_beyond_the_floats():
    # float() of these ints overflows; they are refused like inf
    assert _require_in("rho", 2**1023, "(0, inf)") == 2.0**1023
    for big in (2**1024, -(2**1024), 10**400):
        with pytest.raises(ValidationError) as exc:
            _require_in("rho", big, "[0, inf)")
        assert exc.value.value == big


def test_validation_message_cuts_a_long_repr_and_keeps_the_value():
    big = 10**400
    err = ValidationError("nx", big, "[3, 24000]")
    assert err.value is big
    assert str(err) == f"nx={repr(big)[:80]}... (401 characters) is invalid; admissible: [3, 24000]"
    assert str(ValidationError("nx", 5, "[6, 9]")) == "nx=5 is invalid; admissible: [6, 9]"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python prints ints of any length")
def test_validation_message_names_a_value_whose_repr_raises():
    huge = 10**5000  # repr raises ValueError past Python's 4,300-digit limit
    with pytest.raises(ValidationError) as exc:
        _require_in("x", huge, "[0, 1]")
    assert exc.value.value is huge
    assert str(exc.value) == "x=<int without a printable repr> is invalid; admissible: [0, 1]"


@pytest.mark.parametrize("values, admissible, increasing, want", [
    (0.5, "(0, 1)", False, [0.5]),
    ([0, 0.5, 0.25], "[0, 1)", False, [0.0, 0.5, 0.25]),
    ((1, 2.0), "(0, inf)", True, [1.0, 2.0]),
    (np.arange(3), "[0, inf)", True, [0.0, 1.0, 2.0]),
    (np.float32([0.5, 1.0]), "(0, 1]", True, [0.5, 1.0]),
    (np.float64(2.0), "(0, inf)", False, [2.0]),
    (np.array([[0.0, 1.0], [2.0, 3.0]]), "[0, inf)", False, [[0.0, 1.0], [2.0, 3.0]]),
    ([], "(-inf, inf)", False, []),
    (np.array([]), "(-inf, inf)", False, []),
    ([], "(-inf, inf)", True, None),
    (np.array([]), "(-inf, inf)", True, None),
    ([0.5, True], "[0, 1]", False, None),
    (np.array([True, False]), "[0, 1]", False, None),
    (np.bool_(True), "[0, 1]", False, None),
    (["1"], "(0, inf)", False, None),
    ("1", "(0, inf)", False, None),
    ([1j], "(-inf, inf)", False, None),
    (np.array([0j, 1.0]), "(-inf, inf)", False, None),
    ([np.float32(0.5)], "[0, 1]", False, None),
    ([[0.5, 1.0]], "(0, inf)", False, None),
    ([1.0, None], "(-inf, inf)", False, None),
    ([1.0, 10**400], "(0, inf)", False, None),
    ([1.0, math.nan], "(-inf, inf)", False, None),
    (np.array([1.0, math.inf]), "(-inf, inf)", False, None),
    (np.array([0.0, 1.0]), "(0, inf)", False, None),
    ([0.0, 1.0], "[0, 1)", False, None),
    ([1.0, 1.0], "(0, inf)", True, None),
    ([2.0, 1.0], "(0, inf)", False, [2.0, 1.0]),
    ([2.0, 1.0], "(0, inf)", True, None),
    (np.array([[0.0, 1.0]]), "[0, inf)", True, None),
])
def test_require_reals_takes_require_ins_rule_per_entry(values, admissible, increasing, want):
    if want is not None:
        got = _require_reals("x", values, admissible, increasing)
        assert got.dtype == float
        np.testing.assert_array_equal(got, want)
        return
    with pytest.raises(ValidationError) as exc:
        _require_reals("x", values, admissible, increasing)
    assert exc.value.field == "x"
    assert exc.value.value is values
    assert exc.value.admissible == admissible


def test_require_reals_returns_a_float_array_as_given():
    x = np.linspace(0.0, 1.0, 5)
    assert _require_reals("x", x, "(-inf, inf)", increasing=True) is x


def test_boundary_values_admitted():
    # alpha = 0 and beta in {0, 1} are valid; they route to dedicated kernels
    validate_model(ModelParams(0.0, 0.0, 0.5))
    validate_model(ModelParams(0.0, 1.0, 0.5))
    validate_model(ModelParams(0.25, 0.45, 0.1, epsilon=1.0))


def test_tau_is_relaxation_time_ratio():
    phys = PhysicalParams(
        density=1.0, modulus=1.0, tau_sigma=0.01, tau_eps=0.1, alpha=0.5, beta=0.5
    )
    model, _ = nondimensionalize(phys, epsilon=0.01)
    assert model.tau == pytest.approx(0.1, rel=1e-15)


def test_unit_inputs_give_unit_scales():
    phys = PhysicalParams(1.0, 1.0, 0.5, 1.0, 0.5, 0.5)
    model, scales = nondimensionalize(phys, epsilon=0.01)
    assert scales.time == pytest.approx(1.0)  # 1^(1/alpha) = 1
    assert scales.length == pytest.approx(1.0)


def test_alpha_zero_has_no_time_scale():
    phys = PhysicalParams(1.0, 1.0, 0.5, 1.0, 0.0, 0.5)
    with pytest.raises(ValidationError):
        nondimensionalize(phys, epsilon=0.01)


def test_relaxation_ordering_enforced():
    with pytest.raises(ValidationError):
        nondimensionalize(
            PhysicalParams(1.0, 1.0, 1.0, 0.5, 0.5, 0.5), epsilon=0.01
        )


def test_round_trip_scaling():
    phys = PhysicalParams(
        density=2.7, modulus=70.0, tau_sigma=0.03, tau_eps=0.2, alpha=0.4, beta=0.6
    )
    model, scales = nondimensionalize(phys, epsilon=0.01)
    for name in ("length", "time", "displacement", "stress", "velocity"):
        factor = getattr(scales, name)
        assert factor > 0 and math.isfinite(factor)
    # the scale group is internally consistent ...
    assert scales.velocity == pytest.approx(scales.length / scales.time, rel=1e-12)
    assert scales.displacement == pytest.approx(scales.length, rel=1e-12)
    assert scales.time == pytest.approx(phys.tau_eps ** (1.0 / phys.alpha), rel=1e-12)
    # ... and undoing each factor recovers the dimensional input to 1e-12
    assert model.tau * phys.tau_eps == pytest.approx(phys.tau_sigma, rel=1e-12)
    x_phys = 3.7
    assert (x_phys / scales.length) * scales.length == pytest.approx(x_phys, rel=1e-12)
