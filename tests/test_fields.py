"""Contact fields, the complex parameterization, and the real-part split."""

import numpy as np
import pytest

from conftest import cached_suite
from crsphere.fields import (VField, complex_contact, complex_contact_norm,
                             contact_from_generating, decompose, phat_shat, pi_im, pi_re)
from crsphere.operators import HolField


def test_contact_field_requires_real_generating(suite6):
    rng = np.random.default_rng(40)
    g = suite6.basis.random_scalar(rng)
    with pytest.raises(ValueError):
        contact_from_generating(suite6, g)
    contact_from_generating(suite6, g.real_part())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_contact_field_rejects_non_finite_generating(value):
    suite = cached_suite(4)
    with pytest.raises(ValueError, match="must be finite"):
        contact_from_generating(suite, suite.basis.constant(value))


def test_contact_defining_equation(suite6):
    # the parameterization Z_f = f T - (dbar f)# satisfies the complex
    # contact equation, checked through the stored residual
    rng = np.random.default_rng(41)
    for _ in range(5):
        f = suite6.basis.random_scalar(rng)
        Zc = complex_contact(suite6, f)
        assert Zc.definition_residual(suite6) < 1e-10
        g = f.real_part()
        X = contact_from_generating(suite6, g)
        assert X.contact_residual(suite6) < 1e-10


def test_phat_shat_split(suite6):
    rng = np.random.default_rng(44)
    V = HolField(suite6.basis.random_scalar(rng), suite6.basis.random_scalar(rng))
    phat, shat = phat_shat(suite6, V)
    back = phat.as_hol_field() + shat
    assert (back - V).fs_norm(0) < 1e-10
    # idempotence: a complex contact field is all P-hat
    p2, s2 = phat_shat(suite6, phat.as_hol_field())
    assert (p2.parameter - phat.parameter).l2_norm() < 1e-10
    assert s2.fs_norm(0) < 1e-10


def test_pi_re_fixes_real_parameters(suite6):
    rng = np.random.default_rng(45)
    for _ in range(5):
        g = suite6.basis.random_scalar(rng).real_part()
        X = pi_re(suite6, complex_contact(suite6, g))
        assert (X.generating - g).l2_norm() < 1e-9


def test_pi_re_pi_im_decomposition(suite6):
    rng = np.random.default_rng(46)
    f = suite6.basis.random_scalar(rng)
    Zc = complex_contact(suite6, f)
    X, Y = decompose(suite6, Zc)
    assert X.generating.is_real(1e-10)
    assert (X.generating - 1j * Y.parameter - f).l2_norm() < 1e-9
    assert Y.certificate < 1e-9


def test_pi_im_certificate_detects_real_content(suite6):
    # a purely real parameter has pi_im = 0 with a certificate at noise level
    rng = np.random.default_rng(47)
    g = suite6.basis.random_scalar(rng).real_part()
    Y = pi_im(suite6, complex_contact(suite6, g))
    assert complex_contact_norm(Y.parameter, 2) < 1e-9


def test_complex_contact_norm_formula(suite6):
    # frozen: |f|_cc^2 = |f|_s^2 + (1/levi) |Zbar f|_s^2 with levi = 1/2
    from crsphere import frame_derivative
    rng = np.random.default_rng(48)
    f = suite6.basis.random_scalar(rng)
    for s in (0, 1, 2):
        direct = np.sqrt(f.fs_norm(s) ** 2 + 2.0 * frame_derivative(f, ["Zb"]).fs_norm(s) ** 2)
        assert abs(complex_contact_norm(f, s) - direct) < 1e-10


def test_vfield_norm_uses_parameter(suite6):
    rng = np.random.default_rng(49)
    f = suite6.basis.random_scalar(rng)
    Y = VField(complex_contact(suite6, f), 0.0)
    assert abs(Y.fs_norm(3) - complex_contact_norm(f, 3)) < 1e-12


def test_horizontal_part_matches_derivative(suite6):
    # frozen relation for the round structure: the horizontal coefficient of
    # Z_f is 2i Zbar f (minus sharp of the (0,1)-form dbar f at levi = 1/2)
    from crsphere import frame_derivative
    rng = np.random.default_rng(50)
    f = suite6.basis.random_scalar(rng)
    Zc = complex_contact(suite6, f)
    expect = 2j * frame_derivative(f, ["Zb"]).coeffs
    assert np.max(np.abs(Zc.horizontal.coeffs - expect)) < 1e-10
