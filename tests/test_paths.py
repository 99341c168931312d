import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit.errors import (
    DisconnectedSegments,
    LengthMismatch,
    NonRealJunction,
    OutOfRange,
)
from slicekit.paths import (
    Arc,
    Chain,
    Line,
    NPartPath,
    beta_path,
    constant_path,
    eval_path,
    half_turns,
    lift,
    make_npart_path,
)
from slicekit.quat import Quaternion, embed_slice


def test_constant_path_is_valid():
    path = constant_path(2.5)
    assert path.parts == 1
    assert path.at(0.3) == 2.5


def test_beta_is_a_two_part_path():
    beta = beta_path()
    assert beta.parts == 2
    assert abs(beta.at(0.0) - 1) < 1e-15
    assert abs(beta.at(0.5) + 1) < 1e-12
    assert abs(beta.at(1.0) - 1) < 1e-15


def test_non_real_junction_rejected():
    up = Arc(0j, 1.0, 0.0, math.pi / 2)  # ends at i
    with pytest.raises(NonRealJunction):
        make_npart_path([up, Line(1j, 2j)])


def test_disconnected_segments_rejected():
    with pytest.raises(DisconnectedSegments):
        make_npart_path([Line(0j, 1 + 0j), Line(2 + 0j, 3 + 0j)])


def test_eval_out_of_range():
    with pytest.raises(OutOfRange):
        eval_path(beta_path(), 1.5)


def test_lift_examples(unit_i, unit_j, unit_k):
    const = constant_path(0.7)
    assert lift(const, (unit_k,)).at(0.5) == Quaternion(0.7)

    beta = beta_path()
    lifted = lift(beta, (unit_i, unit_j))
    junction = lifted.at(0.5)
    assert (junction - Quaternion(-1)).norm() < 1e-12

    five = make_npart_path([half_turns(5)])
    assert (lift(five, (unit_k,)).endpoint - Quaternion(-1)).norm() < 1e-12


def test_lift_length_mismatch(unit_i):
    with pytest.raises(LengthMismatch):
        lift(beta_path(), (unit_i,))


def test_lift_matches_slice_embedding(unit_i, unit_j):
    beta = beta_path()
    lifted = lift(beta, (unit_i, unit_j))
    for t, unit in ((0.2, unit_i), (0.35, unit_i), (0.6, unit_j), (0.9, unit_j)):
        expected = embed_slice(beta.at(t), unit)
        assert (lifted.at(t) - expected).norm() < 1e-14


class TestTruncation:
    def test_full_truncation_is_identity(self):
        beta = beta_path()
        assert beta.truncate(1.0) is beta

    def test_zero_truncation_is_initial_constant(self):
        beta = beta_path()
        start = beta.truncate(0.0)
        assert start.parts == 1
        assert start.at(0.0) == start.at(1.0) == beta.at(0.0)

    def test_open_and_closed_at_junction(self):
        beta = beta_path()
        open_half = beta.truncate(0.5)
        closed_half = beta.truncate_closed(0.5)
        assert open_half.parts == 2
        assert closed_half.parts == 1
        # the open form ends with a constant start of the second part
        assert abs(open_half.at(0.75) - open_half.at(1.0)) < 1e-12
        assert abs(open_half.endpoint - closed_half.endpoint) < 1e-12

    def test_agreement_where_defined(self):
        beta = beta_path()
        for t in (0.25, 0.5, 0.75):
            a = beta.truncate(t)
            b = beta.truncate_closed(t)
            assert abs(a.endpoint - beta.at(t)) < 1e-12
            assert abs(b.endpoint - beta.at(t)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            beta_path().truncate(-0.1)


class TestExtension:
    def test_degenerate_extension(self):
        beta = beta_path()
        extended = beta.extend_to(beta.endpoint)
        assert extended.parts == 2
        assert abs(extended.endpoint - beta.endpoint) < 1e-15

    def test_constant_path_extension(self):
        path = constant_path(1.0).extend_to(1.3)
        assert path.parts == 1
        assert abs(path.endpoint - 1.3) < 1e-15

    def test_extension_endpoint(self):
        target = 1 + 0.1j
        assert abs(beta_path().extend_to(target).endpoint - target) < 1e-12

    def test_extension_keeps_interior(self):
        beta = beta_path()
        extended = beta.extend_to(1 + 0.5j)
        assert abs(extended.at(0.25) - beta.at(0.25)) < 1e-12


class TestSegments:
    def test_arc_argument_increment_exact(self):
        assert half_turns(5).argument_increment() == 5 * math.pi
        assert half_turns(1).reversed().argument_increment() == -math.pi

    def test_line_argument_increment(self):
        seg = Line(1 + 0j, 1 + 1j)
        assert seg.argument_increment() == pytest.approx(math.pi / 4)

    def test_off_center_arc_increment_matches_samples(self):
        arc = Arc(0.5 + 0j, 1.0, 0.0, math.pi)
        total = 0.0
        prev = arc.at(0.0)
        for k in range(1, 2001):
            cur = arc.at(k / 2000)
            total += cmath.phase(cur / prev)
            prev = cur
        assert arc.argument_increment() == pytest.approx(total, abs=1e-9)

    def test_min_distance_to_origin(self):
        assert half_turns(1).min_distance_to_origin() == 1.0
        assert Line(-1 + 0j, 1 + 0j).min_distance_to_origin() == 0.0
        assert Line(1 + 1j, -1 + 1j).min_distance_to_origin() == pytest.approx(1.0)
        assert Arc(3 + 0j, 1.0, 0.0, 2 * math.pi).min_distance_to_origin() == pytest.approx(2.0)

    def test_chain_prefix_and_reverse(self):
        chain = Chain((Line(0j, 1 + 0j), Line(1 + 0j, 1 + 1j)))
        assert chain.at(0.25) == 0.5 + 0j
        assert chain.prefix(0.5).end == 1 + 0j
        assert chain.reversed().at(0.0) == 1 + 1j


def test_json_round_trip():
    beta = beta_path()
    restored = NPartPath.from_json(beta.to_json())
    for t in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert abs(restored.at(t) - beta.at(t)) < 1e-15


def test_json_of_numpy_float_fields_equals_its_python_float_twin():
    # numpy floats reach the fields through a numpy truncation parameter or coordinates
    numpy_path = make_npart_path([Arc(0j, np.float64(1.0), 0.0, np.float64(math.pi)), half_turns(1).reversed()])
    python_path = make_npart_path([Arc(0j, 1.0, 0.0, math.pi), half_turns(1).reversed()])
    for t in (0.25, 0.75, 1.0):
        text = numpy_path.truncate(np.float64(t)).to_json()
        assert text == python_path.truncate(t).to_json()
        assert NPartPath.from_json(text).to_json() == text


_finite = st.floats(-1e6, 1e6)
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _segment_with_a_non_finite_field(draw):
    """An Arc or a Line with finite fields except one, in the real or the imaginary part of a point."""
    point = st.builds(complex, _finite, _finite)
    kind = draw(st.sampled_from([Arc, Line]))
    if kind is Arc:
        radius = draw(st.floats(1e-3, 1e3))
        fields = {"center": draw(point), "radius": radius, "theta0": draw(_finite), "theta1": draw(_finite)}
    else:
        fields = {"z0": draw(point), "z1": draw(point)}
    name = draw(st.sampled_from(sorted(fields)))
    bad = draw(_non_finite)
    if isinstance(fields[name], complex):
        z = fields[name]
        fields[name] = draw(st.sampled_from([complex(bad, z.imag), complex(z.real, bad)]))
    else:
        fields[name] = bad
    return kind, fields


@settings(max_examples=200, deadline=None, derandomize=True)
@given(segment=_segment_with_a_non_finite_field())
def test_segments_reject_non_finite_fields(segment):
    kind, fields = segment
    with pytest.raises(ValueError):
        kind(**fields)


def test_non_finite_arc_never_reaches_a_path():
    with pytest.raises(ValueError, match="finite"):
        make_npart_path([Arc(0j, math.nan, 0.0, math.pi), half_turns(1).reversed()])
