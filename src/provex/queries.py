"""Sufficiency checks, counterexample search, and a complete desk-scale oracle.

A query fixes a subset of input features to their values in x and lets the
rest range over a clamped epsilon-box.  A subset is sufficient when the
predicted class cannot change anywhere in that box.  Enclosure-based checks
are sound but incomplete: a failed separation yields either a concrete
counterexample (validated on the real network) or an Uncertain verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .abstraction import AbstractNetwork
from .bounds import propagate_abstract, propagate_box, sample_box
from .errors import DimensionError, ValidationError
from .intervals import IntervalVector
from .network import ConcreteNetwork, forward, forward_batch, gradient, predict


class VerdictKind(str, Enum):
    SUFFICIENT = "sufficient"
    UNCERTAIN = "uncertain"
    INSUFFICIENT = "insufficient"


@dataclass(frozen=True, eq=False)
class Verdict:
    """A check's outcome and margin; ``check_abstract`` adds the output enclosure."""

    kind: VerdictKind
    margin: float
    witness: np.ndarray | None = None
    enclosure: IntervalVector | None = None

    @property
    def is_sufficient(self) -> bool:
        return self.kind is VerdictKind.SUFFICIENT

    @property
    def is_insufficient(self) -> bool:
        return self.kind is VerdictKind.INSUFFICIENT


def _query_box(x: np.ndarray, fixed: frozenset[int], epsilon: float, domain: IntervalVector) -> IntervalVector:
    lo = np.maximum(domain.lo, x - epsilon)
    hi = np.minimum(domain.hi, x + epsilon)
    idx = np.fromiter(fixed, dtype=int, count=len(fixed)) if fixed else np.empty(0, dtype=int)
    lo[idx] = x[idx]
    hi[idx] = x[idx]
    return IntervalVector(lo, hi)


def _validate_instance(x, fixed_features, epsilon: float, domain: IntervalVector):
    """The instance as a vector and the fixed features as a set, once both are checked."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"instance must be a vector, got shape {x.shape}")
    if len(domain) != x.shape[0]:
        raise DimensionError("instance and domain lengths disagree")
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    fixed = frozenset(int(i) for i in fixed_features)
    if any(i < 0 or i >= x.shape[0] for i in fixed):
        raise ValidationError("fixed feature index out of range")
    if not domain.contains_point(x):
        raise ValidationError("instance lies outside the domain")
    return x, fixed


@dataclass(frozen=True, eq=False)
class SufficiencyQuery:
    """Is fixing ``fixed_features`` of x enough to pin the predicted class?"""

    x: np.ndarray
    fixed_features: frozenset[int]
    epsilon: float
    target: int
    domain: IntervalVector

    def __post_init__(self):
        x, fixed = _validate_instance(self.x, self.fixed_features, self.epsilon, self.domain)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fixed_features", fixed)

    @property
    def free_features(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.x.shape[0]) if i not in self.fixed_features)

    def query_box(self) -> IntervalVector:
        """Fixed dimensions pin to x; free ones span the clamped epsilon range."""
        return _query_box(self.x, self.fixed_features, self.epsilon, self.domain)


@dataclass(frozen=True, eq=False)
class RegressionQuery:
    """Does fixing the subset keep a scalar output within ``delta`` of f(x)?"""

    x: np.ndarray
    fixed_features: frozenset[int]
    epsilon: float
    delta: float
    domain: IntervalVector

    def __post_init__(self):
        x, fixed = _validate_instance(self.x, self.fixed_features, self.epsilon, self.domain)
        if self.delta <= 0:
            raise ValidationError("delta must be positive")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fixed_features", fixed)

    def query_box(self) -> IntervalVector:
        return _query_box(self.x, self.fixed_features, self.epsilon, self.domain)


def _separation(out: IntervalVector, target: int) -> tuple[float, bool]:
    """Margin of the target class over the others, and whether it certifies the target.

    The margin is the target's lower bound minus the largest upper bound
    among the other classes.  ``predict`` breaks ties toward the lower
    index, so a class below the target must stay strictly under the
    target's lower bound, while a class above it may touch it.
    """
    others_hi = np.delete(out.hi, target)
    if others_hi.size == 0:
        return float("inf"), True
    margin = float(out.lo[target] - np.max(others_hi))
    return margin, margin >= 0 and not np.any(out.hi[:target] >= out.lo[target])


def _validate_target(net: ConcreteNetwork, q: SufficiencyQuery) -> None:
    if not 0 <= q.target < net.output_dim:
        raise DimensionError(f"target {q.target} out of range for {net.output_dim} classes")
    if predict(net, q.x) != q.target:
        raise ValidationError("target class does not match the network's prediction for x")


def _candidates(q, box: IntervalVector, toward_hi, rng=None, n_random: int = 0) -> np.ndarray:
    """Witness candidates inside the query box, one per row, in a fixed order.

    The box center; then one corner per mask in ``toward_hi``, taking the
    upper endpoint where the mask is set and the lower one elsewhere, with
    the fixed features pinned to x; then ``n_random`` uniform samples.
    """
    fixed = list(q.fixed_features)
    rows = [box.midpoint]
    for up in toward_hi:
        corner = np.where(up, box.hi, box.lo)
        corner[fixed] = q.x[fixed]
        rows.append(corner)
    if n_random > 0:
        rows.extend(sample_box(box, n_random, rng))
    return np.asarray(rows)


def _gap_corners(net: ConcreteNetwork, q: SufficiencyQuery, box: IntervalVector, out: IntervalVector) -> list:
    """Corner masks that maximize the linearized logit gap to the top-2 runner-ups.

    Runner-ups are ranked by their upper bounds in ``out``; each gap is
    linearized at the box center.
    """
    center = box.midpoint
    runner_ups = [j for j in np.argsort(-out.hi) if j != q.target][:2]
    return [gradient(net, center, int(j)) - gradient(net, center, q.target) > 0 for j in runner_ups]


def _misclassified(net: ConcreteNetwork, target: int, cands: np.ndarray) -> np.ndarray | None:
    """The first candidate the network does not assign to ``target``, if any."""
    labels = np.argmax(forward_batch(net, cands), axis=1)
    bad = np.nonzero(labels != target)[0]
    return cands[bad[0]] if bad.size else None


def check_abstract(anet: AbstractNetwork, q: SufficiencyQuery) -> Verdict:
    """Enclosure check on a reduced network: Sufficient or Uncertain.

    Witnesses are never produced here; they are only certified against the
    concrete network.  The verdict carries the output enclosure, so
    counterexample search can rank runner-ups without propagating again.
    """
    out = propagate_abstract(anet, q.query_box())
    margin, separated = _separation(out, q.target)
    kind = VerdictKind.SUFFICIENT if separated else VerdictKind.UNCERTAIN
    return Verdict(kind, margin, enclosure=out)


def check_concrete(
    net: ConcreteNetwork,
    q: SufficiencyQuery,
    rng: np.random.Generator | None = None,
) -> Verdict:
    """Enclosure check plus candidate falsification on the concrete network."""
    _validate_target(net, q)
    box = q.query_box()
    out = propagate_box(net, box).final
    margin, separated = _separation(out, q.target)
    if separated:
        return Verdict(VerdictKind.SUFFICIENT, margin)
    rng = rng if rng is not None else np.random.default_rng(0)
    cands = _candidates(q, box, _gap_corners(net, q, box, out), rng, 64)
    witness = _misclassified(net, q.target, cands)
    if witness is not None:
        return Verdict(VerdictKind.INSUFFICIENT, margin, witness=witness)
    return Verdict(VerdictKind.UNCERTAIN, margin)


def check_regression(
    net: ConcreteNetwork,
    q: RegressionQuery,
    rng: np.random.Generator | None = None,
) -> Verdict:
    """Sufficiency for scalar outputs: enclosure within f(x) +- delta."""
    if net.output_dim != 1:
        raise ValidationError("regression queries require a single-output network")
    box = q.query_box()
    ref = float(forward(net, q.x)[0])
    out = propagate_box(net, box).final
    margin = float(q.delta - max(out.hi[0] - ref, ref - out.lo[0]))
    if margin >= 0:
        return Verdict(VerdictKind.SUFFICIENT, margin)
    rng = rng if rng is not None else np.random.default_rng(0)
    up = gradient(net, box.midpoint, 0) > 0
    # The corners that maximize and minimize the linearized output.
    cands = _candidates(q, box, (up, ~up), rng, 64)
    values = forward_batch(net, cands)[:, 0]
    bad = np.nonzero(np.abs(values - ref) > q.delta)[0]
    if bad.size:
        return Verdict(VerdictKind.INSUFFICIENT, margin, witness=cands[bad[0]])
    return Verdict(VerdictKind.UNCERTAIN, margin)


def gen_counterexample(
    net: ConcreteNetwork,
    enclosure: IntervalVector,
    q: SufficiencyQuery,
    rng: np.random.Generator | None = None,
    n_random: int = 64,
) -> np.ndarray | None:
    """Search the query box for a point the concrete network misclassifies.

    Called after an Uncertain enclosure verdict, with the output enclosure
    that verdict was decided on (``Verdict.enclosure``); runner-up classes
    are ranked by its upper bounds.  Every candidate is evaluated exactly,
    so a returned witness is a genuine counterexample.  Absence of a
    witness is a normal outcome.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    box = q.query_box()
    cands = _candidates(q, box, _gap_corners(net, q, box, enclosure), rng, n_random)
    return _misclassified(net, q.target, cands)


class OracleOutcome(str, Enum):
    PROVED_SUFFICIENT = "proved_sufficient"
    WITNESS = "witness"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True, eq=False)
class OracleResult:
    outcome: OracleOutcome
    witness: np.ndarray | None
    splits: int
    evaluations: int

    @property
    def proved(self) -> bool:
        return self.outcome is OracleOutcome.PROVED_SUFFICIENT


def oracle_check(net: ConcreteNetwork, q: SufficiencyQuery, budget: int = 1 << 16) -> OracleResult:
    """Complete branch-and-bound decision for small free-feature counts.

    Recursively bisects the widest free dimension.  A sub-box is discharged
    when its enclosure certifies the target class; the center and the two
    top runner-up gradient-sign corners of each sub-box are evaluated
    exactly and any misclassification is returned as a witness.  Exhausted
    means the split budget ran out with sub-boxes still open.
    """
    _validate_target(net, q)
    fixed_idx = list(q.fixed_features)
    stack = [q.query_box()]
    splits = 0
    evaluations = 0
    while stack:
        box = stack.pop()
        out = propagate_box(net, box).final
        evaluations += 1
        if _separation(out, q.target)[1]:
            continue
        witness = _misclassified(net, q.target, _candidates(q, box, _gap_corners(net, q, box, out)))
        if witness is not None:
            return OracleResult(OracleOutcome.WITNESS, witness, splits, evaluations)
        widths = box.width.copy()
        if fixed_idx:
            widths[fixed_idx] = 0.0
        dim = int(np.argmax(widths))
        if widths[dim] <= 0.0:
            # The box is a single point, its center, which was just evaluated
            # exactly.  argmax breaks ties toward the lower index, as the
            # separation rule does, so the target holds there, ties included;
            # only rounding in the enclosure kept it from discharging.
            continue
        if splits >= budget:
            return OracleResult(OracleOutcome.EXHAUSTED, None, splits, evaluations)
        splits += 1
        mid = 0.5 * (box.lo[dim] + box.hi[dim])
        lo_hi = box.hi.copy()
        lo_hi[dim] = mid
        hi_lo = box.lo.copy()
        hi_lo[dim] = mid
        # Lower half is explored first for a deterministic witness order.
        stack.append(IntervalVector(hi_lo, box.hi))
        stack.append(IntervalVector(box.lo, lo_hi))
    return OracleResult(OracleOutcome.PROVED_SUFFICIENT, None, splits, evaluations)
