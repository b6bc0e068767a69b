"""Discrete weighted Hoelder estimator and the inequality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquecone import holder
from obliquecone.errors import DomainError, HypothesisError
from obliquecone.exponent import SeparableSolution, critical_exponent, separable_eval
from obliquecone.geometry import ConeGeometry, ObliqueBC
from obliquecone.holder import (
    HolderSamples,
    HolderSpec,
    holder_interpolation_check,
    holder_product_check,
    holder_seminorm,
    samples_from_function,
    sector_sample_points,
    weighted_norm,
)

THETA0 = 2 * math.pi / 3


def power_samples(alpha, r_min, theta0=THETA0):
    pts = sector_sample_points(theta0, r_min, 1.0)
    geom = ConeGeometry(theta0=theta0)
    sol = SeparableSolution(alpha=alpha, m=0)
    return samples_from_function(
        lambda y1, y2: math.hypot(y1, y2) ** alpha
        * sol.profile(math.atan2(y2, y1)),
        pts,
    )


class TestSeminorm:
    def test_constant_field_is_zero(self):
        pts = sector_sample_points(1.0, 1e-2)
        samples = HolderSamples(points=pts, values=np.ones(len(pts)))
        for alpha, beta in ((0.3, 0.0), (1.0, -1.0), (0.5, 2.0)):
            assert holder_seminorm(samples, HolderSpec(0, alpha, beta)) == 0.0

    def test_plain_seminorm_of_power_is_scale_stable(self):
        # unweighted seminorm at the field's own exponent stays bounded as
        # the sample set is refined toward the vertex
        alpha = 0.8511274674741052
        prev = None
        for r_min in (1e-2, 5e-3, 2.5e-3):
            samples = power_samples(alpha, r_min)
            val = holder_seminorm(samples, HolderSpec(0, alpha, beta=-alpha))
            if prev is not None:
                assert val / prev <= 1.05
            prev = val

    def test_plain_seminorm_above_own_exponent_diverges(self):
        alpha = 0.8511274674741052
        prev = None
        for r_min in (1e-2, 5e-3, 2.5e-3):
            samples = power_samples(alpha, r_min)
            val = holder_seminorm(
                samples, HolderSpec(0, alpha + 0.1, beta=-(alpha + 0.1))
            )
            if prev is not None:
                assert val / prev >= 2 ** 0.05
            prev = val

    def test_weighted_seminorm_at_own_exponent_bounded(self):
        # with weight exponent alpha (beta = 0) the estimator stays bounded
        alpha = 0.5012394347722653
        prev = None
        for r_min in (1e-2, 5e-3):
            samples = power_samples(alpha, r_min, theta0=math.pi / 3)
            val = holder_seminorm(samples, HolderSpec(0, alpha, beta=0.0))
            if prev is not None:
                assert val / prev <= 1.05
            prev = val

    def test_gradient_seminorm_requires_gradients(self):
        pts = sector_sample_points(1.0, 1e-1)
        samples = HolderSamples(points=pts, values=np.zeros(len(pts)))
        with pytest.raises(DomainError):
            holder_seminorm(samples, HolderSpec(1, 0.5, 0.0))

    @pytest.mark.parametrize("field", ["points", "values", "gradients", "hessians"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_samples_must_be_finite(self, field, bad):
        pts = sector_sample_points(1.0, 1e-1)
        arrays = {
            "points": pts.copy(),
            "values": np.ones(len(pts)),
            "gradients": np.ones((len(pts), 2)),
            "hessians": np.ones((len(pts), 2, 2)),
        }
        arrays[field][3] = bad
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            HolderSamples(**arrays)

    def test_sample_set_must_not_be_empty(self):
        # with no points the sup norms have nothing to reduce over
        with pytest.raises(DomainError, match="at least one"):
            HolderSamples(points=np.zeros((0, 2)), values=np.zeros(0))

    def test_values_must_be_one_per_point(self):
        pts = sector_sample_points(1.0, 1e-1)
        with pytest.raises(DomainError, match="values"):
            HolderSamples(points=pts, values=np.ones((len(pts), 3)))

    def test_points_must_be_distinct(self):
        pts = np.array([[0.5, 0.1], [0.5, 0.1], [0.2, 0.3]])
        for values in ([1.0, 2.0, 3.0], [1.0, 1.0, 3.0]):
            with pytest.raises(DomainError, match="distinct"):
                HolderSamples(points=pts, values=np.array(values))

    @pytest.mark.parametrize("derivatives", [1, 2])
    def test_derivative_samples_reject_the_vertex(self, derivatives):
        # the central-difference step scales with |p| and vanishes there
        pts = np.array([[0.5, 0.1], [0.0, 0.0]])
        with pytest.raises(DomainError, match="vertex"):
            samples_from_function(lambda a, b: a * b, pts, derivatives=derivatives)

    def test_gradient_seminorm_of_linear_field(self):
        pts = sector_sample_points(1.0, 1e-1)
        samples = samples_from_function(lambda a, b: 2.0 * a - b, pts, derivatives=1)
        # constant gradient: order-1 seminorm vanishes up to FD noise
        assert holder_seminorm(samples, HolderSpec(1, 0.5, -1.5)) <= 1e-6

    def test_monotone_under_inclusion(self):
        samples = power_samples(0.4, 1e-2)
        spec = HolderSpec(0, 0.4, beta=-0.4)
        sub = HolderSamples(points=samples.points[::3], values=samples.values[::3])
        assert holder_seminorm(sub, spec) <= holder_seminorm(samples, spec) + 1e-15

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_relabeling_invariance(self, seed):
        samples = power_samples(0.6, 5e-2)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(samples))
        shuffled = HolderSamples(
            points=samples.points[perm], values=samples.values[perm]
        )
        spec = HolderSpec(0, 0.7, beta=0.0)
        assert holder_seminorm(shuffled, spec) == pytest.approx(
            holder_seminorm(samples, spec), rel=1e-12
        )

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            HolderSpec(2, 0.5, 0.0)
        with pytest.raises(DomainError):
            HolderSpec(0, 0.0, 0.0)
        with pytest.raises(DomainError):
            HolderSpec(0, 1.5, 0.0)
        for beta in (math.nan, math.inf):
            with pytest.raises(DomainError, match="weight exponent"):
                HolderSpec(0, 0.5, beta)

    def test_sample_points_need_a_cone(self):
        for theta0 in (5.0, math.nan, 0.0):
            with pytest.raises(DomainError, match="opening angle"):
                sector_sample_points(theta0, 1e-2)

    def test_sample_points_need_a_finite_outer_radius(self):
        with pytest.raises(DomainError, match="r_max"):
            sector_sample_points(2.0, 1e-2, math.inf)


class TestProductInequality:
    def test_constant_fields(self):
        pts = sector_sample_points(1.5, 1e-2)
        ones = HolderSamples(points=pts, values=np.ones(len(pts)))
        report = holder_product_check(
            ones, ones, alpha=0.5, beta1=-0.5, beta2=0.0, beta1p=0.0, beta2p=-0.5
        )
        assert report.holds
        assert report.lhs == 0.0
        assert report.rhs == 0.0

    def test_powers_on_vertex_clustered_samples(self):
        pts = sector_sample_points(1.5, 1e-3)
        u = samples_from_function(lambda a, b: math.hypot(a, b) ** 0.3, pts)
        v = samples_from_function(lambda a, b: math.hypot(a, b) ** 0.4, pts)
        report = holder_product_check(
            u, v, alpha=0.25, beta1=-0.25, beta2=0.0, beta1p=0.0, beta2p=-0.25
        )
        assert report.holds
        assert report.lhs <= report.rhs * (1 + 1e-12)

    def test_several_admissible_splits(self):
        pts = sector_sample_points(2.0, 1e-2)
        u = samples_from_function(lambda a, b: math.hypot(a, b) ** 0.5, pts)
        v = samples_from_function(
            lambda a, b: 1.0 / (1.0 + math.hypot(a, b)), pts
        )
        for beta1, beta2, beta1p, beta2p in (
            (-0.2, 0.4, 0.0, 0.2),
            (0.0, 0.2, 0.2, 0.0),
            (-0.3, 0.3, 0.0, 0.0),
        ):
            report = holder_product_check(
                u, v, alpha=0.3, beta1=beta1, beta2=beta2, beta1p=beta1p, beta2p=beta2p
            )
            assert report.holds

    def test_hypothesis_violations(self):
        pts = sector_sample_points(1.0, 1e-1)
        u = HolderSamples(points=pts, values=np.ones(len(pts)))
        with pytest.raises(HypothesisError):
            holder_product_check(u, u, 0.5, -0.2, 0.1, 0.0, 0.0)  # splits differ
        with pytest.raises(HypothesisError):
            holder_product_check(u, u, 0.5, -0.6, 0.0, 0.0, -0.6)  # beta1 < -alpha
        with pytest.raises(HypothesisError):
            holder_product_check(u, u, 0.5, 0.0, -0.1, -0.1, 0.0)  # beta2 < 0
        other = HolderSamples(points=pts * 2.0, values=np.ones(len(pts)))
        with pytest.raises(HypothesisError):
            holder_product_check(u, other, 0.5, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "betas",
        [
            (math.nan, 0.0, 0.0, 0.0),
            (0.0, math.inf, math.inf, 0.0),
        ],
    )
    def test_non_finite_weight_exponents(self, betas):
        pts = sector_sample_points(1.0, 1e-1)
        u = HolderSamples(points=pts, values=np.ones(len(pts)))
        with pytest.raises(HypothesisError, match="finite"):
            holder_product_check(u, u, 0.5, *betas)


class TestInterpolation:
    def test_reports_finite_constant(self):
        pts = sector_sample_points(THETA0, 1e-2)
        samples = samples_from_function(
            lambda a, b: math.hypot(a, b) ** 0.7, pts, derivatives=2
        )
        report = holder_interpolation_check(
            samples, (2, 0.5, -1.5), (0, 1.0, 0.0), theta=2.0 / 3.0
        )
        assert math.isfinite(report.empirical_constant)
        assert report.beta == pytest.approx(-1.0)
        assert report.k == 1
        assert report.lhs <= report.empirical_constant * (
            report.rhs_first ** report.theta
            * report.rhs_second ** (1 - report.theta)
        ) * (1 + 1e-12)

    def test_weighted_norm_requires_hessians_for_order_two(self):
        pts = sector_sample_points(1.0, 1e-1)
        samples = samples_from_function(lambda a, b: a * b, pts, derivatives=1)
        with pytest.raises(DomainError):
            weighted_norm(samples, 2, 0.5, -1.5)

    def test_hypothesis_violations(self):
        pts = sector_sample_points(1.0, 1e-1)
        samples = samples_from_function(lambda a, b: a, pts, derivatives=2)
        with pytest.raises(HypothesisError):
            holder_interpolation_check(samples, (2, 0.5, -1.5), (0, 1.0, 0.0), theta=1.5)
        with pytest.raises(HypothesisError):
            holder_interpolation_check(samples, (2, 0.5, -4.0), (0, 1.0, 0.0), theta=0.5)
        with pytest.raises(HypothesisError):
            holder_interpolation_check(samples, (0, 0.5, -0.5), (0, 1.0, -1.0), theta=0.5)

    def test_non_finite_weight_exponent(self):
        pts = sector_sample_points(1.0, 1e-1)
        samples = samples_from_function(lambda a, b: a, pts, derivatives=2)
        with pytest.raises(HypothesisError, match="finite"):
            holder_interpolation_check(
                samples, (2, 0.5, math.nan), (0, 1.0, 0.0), theta=0.5
            )


class TestAgainstCertifiedSolution:
    def test_root_field_dichotomy(self):
        theta0, s = math.pi / 3, -1.3
        geom = ConeGeometry(theta0=theta0)
        root = critical_exponent(geom, ObliqueBC.for_cone(geom, s))
        prev_at, prev_above = None, None
        for r_min in (1e-2, 5e-3):
            samples = power_samples(root, r_min, theta0=theta0)
            at = holder_seminorm(samples, HolderSpec(0, root, beta=-root))
            above = holder_seminorm(
                samples, HolderSpec(0, root + 0.1, beta=-(root + 0.1))
            )
            if prev_at is not None:
                assert at / prev_at <= 1.05
                assert above / prev_above >= 2 ** 0.05
            prev_at, prev_above = at, above


class TestWeightedNormContract:
    SAMPLES = samples_from_function(lambda y1, y2: y1 * y1 - y2, sector_sample_points(1.0, 0.1), 2)

    @pytest.mark.parametrize(
        "alpha,beta,match",
        [(math.nan, 0.0, "exponent"), (5.0, 0.0, "exponent"), (0.0, 0.0, "exponent"),
         (0.5, math.inf, "weight exponent"), (0.5, math.nan, "weight exponent")],
    )
    def test_rejects_what_the_spec_rejects(self, alpha, beta, match):
        with pytest.raises(DomainError, match=match):
            HolderSpec(0, alpha, beta)
        with pytest.raises(DomainError, match=match):
            weighted_norm(self.SAMPLES, 0, alpha, beta)

    @pytest.mark.parametrize("k", [-1, 3, 0.5, math.nan])
    def test_rejects_an_order_without_derivative_samples(self, k):
        with pytest.raises(DomainError, match="derivative order"):
            weighted_norm(self.SAMPLES, k, 0.5, 0.0)

    def test_order_two_is_kept(self):
        assert math.isfinite(weighted_norm(self.SAMPLES, 2, 0.5, 0.0))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_an_integer_valued_order_is_that_integer(self, k):
        # one order rule: the float 1.0 is the order 1 everywhere, as is np.int64(1)
        want = weighted_norm(self.SAMPLES, k, 0.5, 0.0)
        table = self.SAMPLES.derivative_table(k)
        for same in (float(k), np.int64(k), np.float64(k)):
            assert weighted_norm(self.SAMPLES, same, 0.5, 0.0) == want
            assert self.SAMPLES.derivative_table(same).tobytes() == table.tobytes()
            if k < 2:
                assert HolderSpec(same, 0.5) == HolderSpec(k, 0.5)
                assert type(HolderSpec(same, 0.5).k) is int


@pytest.mark.parametrize(
    "alpha,beta", [(0.0, 0.0), (1.5, 0.0), (math.nan, 0.0), (0.5, math.inf)]
)
def test_one_set_of_exponent_rules_with_the_caller_s_error(alpha, beta):
    # HolderSpec and weighted_norm raise DomainError, the two inequality
    # checks HypothesisError, all with the same message
    pts = sector_sample_points(1.0, 1e-1)
    samples = samples_from_function(lambda a, b: a, pts, derivatives=1)
    with pytest.raises(DomainError) as spec:
        HolderSpec(0, alpha, beta)
    with pytest.raises(DomainError) as norm:
        weighted_norm(samples, 0, alpha, beta)
    with pytest.raises(HypothesisError) as product:
        holder_product_check(samples, samples, alpha, beta, 0.0, beta, 0.0)
    with pytest.raises(HypothesisError) as interpolation:
        holder_interpolation_check(samples, (0, alpha, beta), (1, 0.5, 0.0), 0.5)
    messages = {str(e.value) for e in (spec, norm, product, interpolation)}
    assert len(messages) == 1


@pytest.mark.parametrize("point", [[math.inf, 0.0], [math.nan, 1.0], [1.0, -math.inf]])
def test_samples_from_function_checks_points_before_differencing(point):
    with pytest.raises(DomainError, match="points must be finite"):
        samples_from_function(lambda y1, y2: y1, np.array([[0.5, 0.5], point]), 1)


@pytest.mark.parametrize("bad", [(0.5, 0.5, 0.0), (3, 0.5, 0.0), (-1, 0.5, 2.0)])
def test_interpolation_checks_each_order_before_any_norm(monkeypatch, bad):
    # weighted_norm's order rule, raised as a hypothesis of the check before
    # the left-hand norm is computed
    pts = sector_sample_points(1.0, 1e-1)
    samples = samples_from_function(lambda a, b: a, pts, derivatives=2)
    norms = []
    monkeypatch.setattr(holder, "weighted_norm", lambda *args: norms.append(args))
    for first, second in ((bad, (1, 0.5, 0.0)), ((1, 0.5, 0.0), bad)):
        with pytest.raises(HypothesisError, match=r"^derivative order must be an integer in \[0, 2\]"):
            holder_interpolation_check(samples, first, second, 0.5)
    assert norms == []


@pytest.mark.parametrize("bad", ["0.5", None, np.array([0.5]), np.array(0.5)])
def test_an_exponent_of_no_real_type_is_named(bad):
    pts = sector_sample_points(1.0, 1e-1)
    samples = samples_from_function(lambda a, b: a, pts, derivatives=1)
    with pytest.raises(DomainError, match="^exponent must be one real number"):
        HolderSpec(0, bad)
    with pytest.raises(DomainError, match="^weight exponent must be one real number"):
        weighted_norm(samples, 0, 0.5, bad)
    with pytest.raises(HypothesisError, match="^exponent must be one real number"):
        holder_product_check(samples, samples, bad, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(HypothesisError, match="^interpolation parameter must be one real number"):
        holder_interpolation_check(samples, (0, 0.5, 0.0), (1, 0.5, 0.0), bad)
    with pytest.raises(DomainError, match="^sample radii r_min must be one real number"):
        sector_sample_points(1.0, bad)


def _reference_samples(fn, pts):
    """Values, gradients and Hessians as one loop per order over the points'
    numpy floats, the Hessian taking its centre value afresh."""
    vals = np.array([fn(float(p[0]), float(p[1])) for p in pts])
    grads, hess = np.empty((len(pts), 2)), np.empty((len(pts), 2, 2))
    for idx, p in enumerate(pts):
        h = holder.FD_SCALE * math.hypot(p[0], p[1])
        grads[idx, 0] = (fn(p[0] + h, p[1]) - fn(p[0] - h, p[1])) / (2 * h)
        grads[idx, 1] = (fn(p[0], p[1] + h) - fn(p[0], p[1] - h)) / (2 * h)
    for idx, p in enumerate(pts):
        h = (holder.FD_SCALE ** 0.5) * math.hypot(p[0], p[1])
        f00 = fn(p[0], p[1])
        hess[idx, 0, 0] = (fn(p[0] + h, p[1]) - 2 * f00 + fn(p[0] - h, p[1])) / (h * h)
        hess[idx, 1, 1] = (fn(p[0], p[1] + h) - 2 * f00 + fn(p[0], p[1] - h)) / (h * h)
        hess[idx, 0, 1] = hess[idx, 1, 0] = (
            fn(p[0] + h, p[1] + h) - fn(p[0] + h, p[1] - h)
            - fn(p[0] - h, p[1] + h) + fn(p[0] - h, p[1] - h)
        ) / (4 * h * h)
    return vals, grads, hess


def _reference_points(theta0, r_min):
    n_shells = max(2, int(round(holder.SHELLS_PER_DECADE * math.log10(1.0 / r_min))) + 1)
    return np.array([
        (r * math.cos(t), r * math.sin(t))
        for r in np.geomspace(r_min, 1.0, n_shells)
        for t in np.linspace(0.0, theta0, holder.SAMPLE_RAYS)
    ])


@pytest.mark.parametrize("theta0,r_min", [(THETA0, 1e-2), (3.0, 1e-4)])
def test_sampler_matches_the_reference_loop_bit_for_bit(theta0, r_min):
    pts = sector_sample_points(theta0, r_min)
    assert pts.tobytes() == _reference_points(theta0, r_min).tobytes()
    sol = SeparableSolution(alpha=0.4)
    for fn in (
        lambda y1, y2: math.hypot(y1, y2) ** 0.7,
        lambda y1, y2: y1 * y1 * y2 - 3.0 * y2 + 0.5,
        lambda y1, y2: math.exp(y1) * math.sin(3.0 * y2),
        # the axisymmetric mode is even in the angle, which the axis stencils cross
        lambda y1, y2: separable_eval(sol, (math.hypot(y1, y2), abs(math.atan2(y2, y1))))[0],
    ):
        samples = samples_from_function(fn, pts, derivatives=2)
        got = (samples.values, samples.gradients, samples.hessians)
        for have, want in zip(got, _reference_samples(fn, pts)):
            assert have.tobytes() == want.tobytes()
