"""Interval arithmetic: exactness, soundness, and error contracts."""

import numpy as np
import pytest

from provex.bounds import enclose_affine, propagate_box
from provex.errors import DimensionError, ValidationError
from provex.intervals import IntervalVector, apply_activation, iv_subset
from provex.network import ConcreteNetwork, Layer


def iv(*pairs):
    lo, hi = zip(*pairs)
    return IntervalVector(lo, hi)


def affine(W, b, box):
    """Output enclosure of the one-layer identity net ``W @ v + b`` over ``box``."""
    net = ConcreteNetwork((Layer(np.asarray(W, dtype=float), np.asarray(b, dtype=float), "identity"),), box)
    return propagate_box(net, box).final


def activate(kind, box):
    """Enclosure of ``kind`` applied elementwise to ``box``."""
    n = len(box)
    return IntervalVector(*enclose_affine(np.eye(n), np.zeros((n, n)), box.lo, box.hi, 0.0, 0.0, kind))


class TestIntervalInvariants:
    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            IntervalVector([2.0], [1.0])
        with pytest.raises(ValidationError):
            IntervalVector([0.0, 3.0], [1.0, 2.0])

    def test_degenerate_intervals_are_points(self):
        v = IntervalVector([1.5, -2.0], [1.5, -2.0])
        assert np.all(v.width == 0.0)
        assert (v.lo[0], v.hi[0]) == (1.5, 1.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            IntervalVector([0.0], [np.inf])
        with pytest.raises(ValidationError):
            IntervalVector([np.nan], [1.0])


class TestAdopt:
    def test_arrays_are_taken_over_and_frozen(self):
        lo, hi = np.array([0.0, 1.0]), np.array([0.5, 2.0])
        box = IntervalVector.adopt(lo, hi)
        assert box.lo is lo and box.hi is hi
        assert not (lo.flags.writeable or hi.flags.writeable)
        assert box == IntervalVector([0.0, 1.0], [0.5, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            IntervalVector.adopt(np.array([0.0]), np.array([np.inf]))
        with pytest.raises(ValidationError):
            IntervalVector.adopt(np.array([np.nan]), np.array([1.0]))


class TestAffine:
    """The sign-split affine step, through ``propagate_box`` on one-layer identity nets."""

    def test_three_input_row(self):
        out = affine([[2.0, 2.0, 1.0]], [0.0], iv((0, 1), (1, 1), (1, 1)))
        assert (out.lo[0], out.hi[0]) == (3.0, 5.0)

    def test_identity_map(self):
        v = iv((0, 1), (-2, 3))
        out = affine(np.eye(2), [0.0, 0.0], v)
        assert out == v

    def test_second_row(self):
        out = affine([[2.0, 1.0, 1.0]], [0.0], iv((3, 5), (3, 5), (6, 7)))
        assert (out.lo[0], out.hi[0]) == (15.0, 22.0)

    def test_shape_mismatch(self):
        net = ConcreteNetwork((Layer(np.eye(2), np.zeros(2), "identity"),))
        with pytest.raises(DimensionError):
            propagate_box(net, iv((0, 1)))
        with pytest.raises(DimensionError):
            Layer(np.eye(2), np.zeros(1), "identity")

    def test_non_finite_weight(self):
        with pytest.raises(ValidationError):
            Layer(np.array([[np.inf]]), np.zeros(1), "identity")

    def test_enclosure_soundness_on_samples(self):
        # Every image of a point in the box lies inside the affine box image.
        rng = np.random.default_rng(42)
        for _ in range(100):
            m, n = rng.integers(1, 6), rng.integers(1, 6)
            W = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            lo = rng.uniform(-2, 2, n)
            hi = lo + rng.uniform(0, 2, n)
            box = IntervalVector(lo, hi)
            out = affine(W, b, box)
            pts = rng.uniform(lo, hi, size=(50, n))
            images = pts @ W.T + b
            assert np.all(images >= out.lo - 1e-9)
            assert np.all(images <= out.hi + 1e-9)

    def test_tightness_endpoints_attained(self):
        # Sign-splitting makes each output endpoint attainable at a corner.
        rng = np.random.default_rng(3)
        W = rng.normal(size=(3, 4))
        lo = rng.uniform(-1, 0, 4)
        hi = rng.uniform(0, 1, 4)
        box = IntervalVector(lo, hi)
        out = affine(W, np.zeros(3), box)
        for i in range(3):
            corner_hi = np.where(W[i] > 0, hi, lo)
            corner_lo = np.where(W[i] > 0, lo, hi)
            assert W[i] @ corner_hi == pytest.approx(out.hi[i], abs=1e-12)
            assert W[i] @ corner_lo == pytest.approx(out.lo[i], abs=1e-12)


class TestActivation:
    """The activation half of the interval step, on identity weights."""

    def test_relu_clamps_at_zero(self):
        out = activate("relu", iv((-2, 3)))
        assert (out.lo[0], out.hi[0]) == (0.0, 3.0)

    def test_sigmoid_point(self):
        out = activate("sigmoid", iv((0, 0)))
        assert (out.lo[0], out.hi[0]) == (0.5, 0.5)

    def test_identity_unchanged(self):
        v = iv((-1, 4), (0, 0))
        assert activate("identity", v) == v

    def test_unsupported_kind(self):
        with pytest.raises(ValidationError):
            activate("softplus", iv((0, 1)))

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh", "identity"])
    def test_exact_endpoint_images(self, kind):
        # Monotone activations map box endpoints to output endpoints exactly.
        rng = np.random.default_rng(11)
        lo = rng.uniform(-5, 5, 20)
        hi = lo + rng.uniform(0, 5, 20)
        out = activate(kind, IntervalVector(lo, hi))
        np.testing.assert_array_equal(out.lo, apply_activation(kind, lo))
        np.testing.assert_array_equal(out.hi, apply_activation(kind, hi))


class TestSubset:
    def test_strict_nesting(self):
        assert iv_subset(iv((1, 2)), iv((0, 3)), 0.0)

    def test_reversed(self):
        assert not iv_subset(iv((0, 3)), iv((1, 2)), 0.0)

    def test_equality_boundary(self):
        assert iv_subset(iv((1, 2)), iv((1, 2)), 0.0)

    def test_slack_loosens(self):
        assert not iv_subset(iv((0, 3.1)), iv((1, 2)), 0.0)
        assert iv_subset(iv((0.9999999999, 2)), iv((1, 2)), 1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            iv_subset(iv((0, 1)), iv((0, 1), (0, 1)), 0.0)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValidationError):
            iv_subset(iv((0, 1)), iv((0, 1)), -1.0)


def _two_branch_sigmoid(z):
    # The branch-on-sign formula the sigmoid had before it dropped mask scatter.
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoidBits:
    """The sigmoid returns the bits of the two-branch formula, edge cases included."""

    def test_edge_values(self):
        z = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 745.0, -745.0, 800.0, -800.0])
        with np.errstate(under="ignore"):
            assert np.array_equal(apply_activation("sigmoid", z), _two_branch_sigmoid(z))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    def test_random_arrays(self, scale):
        z = np.random.default_rng(int(scale * 10)).normal(scale=scale, size=(67, 200))
        with np.errstate(under="ignore"):
            assert np.array_equal(apply_activation("sigmoid", z), _two_branch_sigmoid(z))
