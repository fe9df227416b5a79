"""Domain layer: parameter validation, angle handling, selection values."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacmeter.model import (
    Coupling,
    OrthogonalSelection,
    Point,
    PointerParams,
    SelectionParams,
    postselection_probability,
    strong_conditional_value,
    weak_value,
)

angles = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
phis = st.floats(min_value=0.0, max_value=math.pi - 1e-3)


def test_weak_value_frozen_point():
    sel = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)
    a = weak_value(sel)
    assert a.real == pytest.approx(0.2320508075688772, abs=1e-15)
    assert a.imag == pytest.approx(0.1339745962155614, abs=1e-15)


def test_weak_value_matches_definition():
    sel = SelectionParams(phi=1.1, delta=0.7)
    assert weak_value(sel) == pytest.approx(cmath.exp(0.7j) * math.tan(0.55), abs=1e-15)


def test_weak_value_orthogonal_guard():
    with pytest.raises(OrthogonalSelection):
        weak_value(SelectionParams(phi=math.pi))
    with pytest.raises(OrthogonalSelection):
        weak_value(SelectionParams(phi=math.pi - 1e-8))


def test_postselection_probability_at_orthogonal_point_is_zero():
    assert postselection_probability(SelectionParams(phi=math.pi)) == pytest.approx(0.0, abs=1e-30)


@given(phi=phis, delta=angles)
@settings(max_examples=60)
def test_probability_complements_to_one(phi, delta):
    sel = SelectionParams(phi=phi, delta=delta)
    assert postselection_probability(sel) + math.sin(phi / 2) ** 2 == pytest.approx(1.0, abs=1e-14)


@given(phi=st.floats(min_value=1e-3, max_value=math.pi - 1e-3), delta=angles)
@settings(max_examples=60)
def test_strong_value_is_weak_value_projection(phi, delta):
    # sin(phi)cos(delta) equals 2 Re A / (1 + |A|^2) for A = e^{i delta} tan(phi/2)
    sel = SelectionParams(phi=phi, delta=delta)
    a = weak_value(sel)
    bridged = 2.0 * a.real / (1.0 + abs(a) ** 2)
    assert bridged == pytest.approx(strong_conditional_value(sel), abs=1e-12)


@given(phi=phis, delta=angles)
@settings(max_examples=60)
def test_delta_wraps_on_construction(phi, delta):
    sel = SelectionParams(phi=phi, delta=delta)
    assert 0.0 <= sel.delta < 2.0 * math.pi
    shifted = SelectionParams(phi=phi, delta=delta + 2.0 * math.pi)
    assert shifted.delta == pytest.approx(sel.delta, abs=1e-9)


def test_phi_domain_is_hard_validated():
    assert SelectionParams(phi=-1e-13).phi == 0.0
    assert SelectionParams(phi=math.pi + 1e-13).phi == math.pi
    with pytest.raises(ValueError):
        SelectionParams(phi=-0.1)
    with pytest.raises(ValueError):
        SelectionParams(phi=3.3)
    with pytest.raises(ValueError):
        SelectionParams(phi=math.nan)


def test_pointer_validation():
    with pytest.raises(ValueError):
        PointerParams(r=-0.5)
    with pytest.raises(ValueError):
        PointerParams(r=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        PointerParams(r=1.0, sigma=-2.0)
    with pytest.raises(ValueError):
        PointerParams(r=math.inf)


def test_pointer_alpha_and_norm_factor():
    ptr = PointerParams(r=2.0, theta=math.pi / 6)
    assert ptr.alpha == pytest.approx(2.0 * cmath.exp(1j * math.pi / 6), abs=1e-15)
    assert ptr.norm_factor_sq == pytest.approx(0.2, abs=1e-15)
    wrapped = PointerParams(r=2.0, theta=math.pi / 6 + 2.0 * math.pi)
    assert wrapped.theta == pytest.approx(ptr.theta, abs=1e-9)


def test_coupling_validation_and_constant():
    with pytest.raises(ValueError):
        Coupling(strength=-0.1)
    with pytest.raises(ValueError):
        Coupling(strength=math.nan)
    cpl = Coupling(strength=0.9)
    assert cpl.coupling_constant(PointerParams(r=0.0, sigma=2.0)) == pytest.approx(1.8)


class TestPoint:
    POINT = Point(math.pi / 5, 0.3, 1.5, 0.2, 0.7, 0.4)
    # each part's constructor and the fields it is built from
    PARTS = {"phi": (SelectionParams, ("phi", "delta")), "r": (PointerParams, ("r", "theta", "sigma")),
             "sigma": (PointerParams, ("r", "theta", "sigma")), "strength": (Coupling, ("strength",))}

    def test_split_of_equal_numbers_returns_the_same_objects(self):
        parts = self.POINT.split()
        assert parts == (SelectionParams(math.pi / 5, 0.3), PointerParams(1.5, 0.2, 0.7), Coupling(0.4))
        again = Point(*self.POINT).split()
        assert all(a is b for a, b in zip(parts, again))
        # a part is shared by points that differ in the other parts
        sel, pointer, coupling = self.POINT._replace(r=3.0, strength=0.9).split()
        assert sel is parts[0] and pointer is not parts[1] and coupling is not parts[2]

    @pytest.mark.parametrize("field, value", [("phi", 4.0), ("phi", math.nan), ("r", -1.0), ("r", math.inf),
                                              ("sigma", 0.0), ("strength", -0.5), ("strength", math.inf)])
    def test_invalid_part_raises_as_its_constructor_does(self, field, value):
        point = self.POINT._replace(**{field: value})
        cls, names = self.PARTS[field]
        with pytest.raises(ValueError) as direct:
            cls(*(getattr(point, name) for name in names))
        for _ in range(2):  # a refused part is not memoized
            with pytest.raises(ValueError) as split:
                point.split()
            assert type(split.value) is type(direct.value) and str(split.value) == str(direct.value)

    def test_label(self):
        assert self.POINT.label() == "phi=0.628319 delta=0.3 r=1.5 theta=0.2 sigma=0.7 strength=0.4"


@given(phi=st.floats(min_value=1e-4, max_value=math.pi - 1e-4))
@settings(max_examples=40)
def test_weak_value_magnitude_tracks_selection_angle(phi):
    sel = SelectionParams(phi=phi, delta=1.234)
    assert abs(weak_value(sel)) == pytest.approx(math.tan(phi / 2.0), rel=1e-12)
