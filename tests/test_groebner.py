"""Image-curve equations from one resultant on a line."""

import pytest

from germimage.errors import PreconditionError
from germimage.groebner import image_curve_equation
from germimage.poly import MapGerm, Polynomial, compose_target

from _helpers import variables

x, y = variables(2)
u2, v2 = variables(2)


def test_image_curve_cusp():
    germ = MapGerm((x + y) ** 2, (x + y) ** 3)
    phi = image_curve_equation(germ)
    assert phi == u2**3 - v2 * v2
    assert compose_target(phi, germ).is_zero()
    assert phi.constant_term().is_zero()


def test_image_curve_univariate():
    x1 = Polynomial.variable(1, 0)
    assert image_curve_equation(MapGerm(x1, x1)) == u2 - v2
    assert image_curve_equation(MapGerm(x1 * x1, x1**3)) == u2**3 - v2 * v2


def test_image_curve_zero_component():
    germ = MapGerm(x, Polynomial.zero(2))
    assert image_curve_equation(germ) == v2
    germ2 = MapGerm(Polynomial.zero(2), y)
    assert image_curve_equation(germ2) == u2


def test_image_curve_precondition():
    with pytest.raises(PreconditionError, match="not a curve"):
        image_curve_equation(MapGerm(x, x * y))


def test_image_curve_skips_a_direction_on_which_the_map_is_constant():
    # F is constant on the first direction d = (1, 1), so d = (1, 2) is used
    germ = MapGerm(x - y, (x - y) ** 2)
    assert image_curve_equation(germ) == u2 * u2 - v2
