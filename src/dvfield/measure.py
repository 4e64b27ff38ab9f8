"""Ball algebra, Haar measure, and dimension arithmetic.

Balls are canonical closed balls B(c, q^(-j)) = {y : v(y - c) >= j},
with the center truncated to precision j so that equal balls are equal
dataclass values.  Every measure is an exact Fraction normalized by
H(unit ball) = 1; every dimension is an exact log ratio compared through
integer power comparisons, with floats appearing only as convenience
approximations.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, InsufficientPrecision
from .localfield import FieldDescriptor, FieldElement, as_exact
from .valuation import INFINITY

if TYPE_CHECKING:
    from .series import TruncatedSeries

RationalMeasure = Fraction


def _require_precision(center: FieldElement, radius_exponent: int) -> None:
    if center.abs_precision < radius_exponent:
        raise InsufficientPrecision(
            f"center precision {center.abs_precision} below radius "
            f"exponent {radius_exponent}")


@dataclass(frozen=True)
class BallSpec:
    center: FieldElement
    radius_exponent: int

    @property
    def descriptor(self) -> FieldDescriptor:
        return self.center.descriptor

    @classmethod
    def make(cls, center: FieldElement, radius_exponent: int) -> "BallSpec":
        """Canonical form: the center reduced modulo q^radius_exponent."""
        _require_precision(center, radius_exponent)
        return cls(center.truncate(radius_exponent), radius_exponent)

    def measure(self) -> RationalMeasure:
        return Fraction(self.descriptor.q) ** (-self.radius_exponent)

    def sort_key(self):
        """Radius exponent, then the center's valuation (its precision
        when zero), unit and precision: a total order reading no digits."""
        c = self.center
        v, n = c.valuation, c.abs_precision
        return (self.radius_exponent, n if v is INFINITY else v, c.unit, n)


BallFamily = Tuple[BallSpec, ...]


class BallRelation(enum.Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    FIRST_INSIDE_SECOND = "first_inside_second"
    SECOND_INSIDE_FIRST = "second_inside_first"


def ball_relation(b1: BallSpec, b2: BallSpec) -> BallRelation:
    """Two balls either nest or are disjoint: they intersect exactly when
    v(c1 - c2) >= min(j1, j2), and then the larger ball contains the other."""
    if b1.descriptor != b2.descriptor:
        raise ValueError("mismatched field descriptors")
    threshold = min(b1.radius_exponent, b2.radius_exponent)
    d = b1.center - b2.center
    if d.valuation_lower_bound < threshold:
        if d.is_zero_to_precision:
            raise InsufficientPrecision(
                "centers agree to their precision but not to the radius")
        return BallRelation.DISJOINT
    if b1.radius_exponent == b2.radius_exponent:
        return BallRelation.EQUAL
    if b1.radius_exponent < b2.radius_exponent:
        return BallRelation.SECOND_INSIDE_FIRST
    return BallRelation.FIRST_INSIDE_SECOND


def _prefix(K, v, u: int, r: int) -> Optional[Tuple[int, int]]:
    """A center (v, u) modulo q^r, r at most its precision, as a hashable
    (valuation, unit) pair, None when zero there, by one truncation of the
    unit int in the kernels K: equal exactly when centers agree mod q^r."""
    return None if v is INFINITY or v >= r else (v, K.truncate(u, r - v))


def maximal_disjointify(family: Iterable[BallSpec]) -> BallFamily:
    """The maximal balls of the family: pairwise disjoint, same union,
    in `sort_key` order: by radius exponent, the biggest balls first,
    and within one radius by the center's valuation, then its unit as an
    integer, then its precision.

    Two balls nest or are disjoint, so B(c, q^(-j)) lies inside a ball
    of radius exponent r <= j exactly when c modulo q^r is that ball's
    canonical center.  One pass over the balls, big ones first, keeps
    the canonical centers of the kept balls per radius exponent; a ball
    is absorbed when its center's prefix at some kept radius is there.
    That is one truncation of the center's unit int, building no element,
    and one hash lookup per kept radius: O(n * #radii), not O(n^2) pairs.

    Raises ValueError for a family over more than one field and
    InsufficientPrecision for a center known below its radius exponent."""
    balls = sorted(family, key=BallSpec.sort_key)
    kept: List[BallSpec] = []
    # kept radius exponent -> prefixes of the kept centers; radii arrive
    # in ascending order, all at most the current ball's
    prefixes: Dict[int, set] = {}
    for b in balls:
        # checked before its prefixes: the first bad ball in order decides
        c, d = b.center, balls[0].center.descriptor
        if c.descriptor is not d and c.descriptor != d:
            raise ValueError("mismatched field descriptors")
        _require_precision(c, b.radius_exponent)
        v, u = c.valuation, c.unit
        for r, seen in prefixes.items():
            if _prefix(d.arith, v, u, r) in seen:
                break
        else:
            prefixes.setdefault(b.radius_exponent, set()).add(
                _prefix(d.arith, v, u, b.radius_exponent))
            kept.append(b)
    return tuple(kept)


def haar_union_measure(family: Iterable[BallSpec]) -> RationalMeasure:
    """H(union), normalized with H(unit ball) = 1: over the maximal balls,
    sum q^(-j) = (sum q^(J - j)) / q^J, J the largest j, in one exact sum."""
    kept = maximal_disjointify(family)
    if not kept:
        return Fraction(0)
    q, J = kept[0].descriptor.q, kept[-1].radius_exponent
    return sum(q ** (J - b.radius_exponent) for b in kept) / Fraction(q) ** J


def scale_family(c: FieldElement, family: Iterable[BallSpec]
                 ) -> Tuple[BallFamily, Fraction]:
    """The family {c * B} and the exact measure ratio q^(-v(c))."""
    if c.is_zero_to_precision:
        raise DomainError("scaling by an element indistinguishable from zero")
    out = []
    for b in family:
        out.append(BallSpec.make(c * b.center, b.radius_exponent + c.valuation))
    ratio = Fraction(c.descriptor.q) ** (-c.valuation)
    return tuple(out), ratio


@dataclass(frozen=True)
class DimensionValue:
    """factor * log(count_base) / log(scale_base), held exactly."""

    count_base: int
    scale_base: int
    factor: Fraction = Fraction(1)

    def __post_init__(self):
        if self.count_base < 1 or self.scale_base < 2:
            raise ValueError("need count_base >= 1 and scale_base >= 2")

    def approx(self) -> float:
        if self.count_base == 1:
            return 0.0
        return float(self.factor) * math.log(self.count_base) / math.log(self.scale_base)

    def rational_value(self) -> Optional[Fraction]:
        """The exact value; None when the log ratio is irrational."""
        r = _log_ratio(self.count_base, self.scale_base)
        return None if r is None else self.factor * r


def _log_ratio(a: int, b: int) -> Optional[Fraction]:
    """log a / log b for a >= 1, b >= 2, by Euclid on the exponents; it is
    rational exactly when a and b are powers of one integer."""
    if a == 1:
        return Fraction(0)
    if a % b == 0:
        r = _log_ratio(a // b, b)
        return None if r is None else 1 + r
    if a < b:
        r = _log_ratio(b, a)
        return None if r is None else 1 / r
    return None


def hausdorff_alpha(descriptor: FieldDescriptor,
                    snowflake_a: Union[int, Fraction] = 1) -> DimensionValue:
    """The alpha with (ball radius ratio)^(-alpha) = residue field size
    for the snowflaked metric d^a, a > 0: alpha = 1/a."""
    a = Fraction(snowflake_a)
    if a <= 0:
        raise DomainError("snowflake exponent must be positive")
    return DimensionValue(descriptor.q, descriptor.q, 1 / a)


def _beta_parts(p: int, beta) -> Tuple[int, int, int]:
    """Normalize beta to (num, den, base) with beta*log(p) = (num/den)*log(base)."""
    if isinstance(beta, DimensionValue):
        if beta.scale_base != p:
            raise DomainError("dimension exponent uses a different scale base")
        return beta.factor.numerator, beta.factor.denominator, beta.count_base
    b = Fraction(beta)
    return b.numerator, b.denominator, p


@dataclass(frozen=True)
class ContentEstimate:
    """count_base^depth * p^(-beta*depth), with beta*log(p) =
    (beta_num/beta_den)*log(beta_base)."""

    count_base: int
    scale_p: int
    depth: int
    beta_num: int
    beta_den: int
    beta_base: int

    def compare_to_one(self) -> int:
        """-1, 0, or 1 as the content is below, equal to, or above 1, the
        sign of beta_den*log(count_base) - beta_num*log(beta_base): exact
        through the log ratio when it is rational, else through integer
        powers of fewer than sys.get_int_max_str_digits() digits, else
        through floats where their margin is certified; refused with
        DomainError otherwise."""
        c, b = self.count_base, self.beta_base
        beta = Fraction(self.beta_num, self.beta_den)
        if b == 1:
            return int(c > 1)
        r = _log_ratio(c, b)
        if r is not None:
            return (r > beta) - (r < beta)
        # c, b >= 2 and log c / log b is irrational: the sign is never 0
        limit = sys.get_int_max_str_digits()
        if not limit or (self.beta_den < limit / math.log10(c)
                         and abs(self.beta_num) < limit / math.log10(b)):
            return 1 if c ** self.beta_den > b ** self.beta_num else -1
        # rho is within a few units in the last place of log c / log b
        rho = math.log(c) / math.log(b)
        if beta < rho * (1 - 1e-12):
            return 1
        if beta > rho * (1 + 1e-12):
            return -1
        raise DomainError(f"content at beta = {beta} too close to 1 to compare "
                          f"within {limit} decimal digits")

    def approx(self) -> float:
        log_content = self.depth * (math.log(self.count_base)
                                    - Fraction(self.beta_num, self.beta_den)
                                    * math.log(self.beta_base))
        try:
            return math.exp(log_content)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class DigitSetReport:
    content_estimate: ContentEstimate
    dimension: DimensionValue
    digit_set: Tuple[int, ...]

    @functools.cached_property
    def ball_count(self) -> int:
        """|digit_set|^depth, counted on first read: it has ~depth digits."""
        return len(self.digit_set) ** self.content_estimate.depth

    @functools.cached_property
    def cover_codes(self) -> Tuple[int, ...]:
        """The ball_count = |digit_set|^depth codes in [0, p^depth) whose
        digits all lie in the digit set, ascending; built on first read,
        as there are exponentially many."""
        p, depth = self.content_estimate.scale_p, self.content_estimate.depth
        codes = [0]
        # most significant digit first, so the codes come out ascending
        for level in reversed(range(depth)):
            scale = p ** level
            codes = [c + d * scale for c in codes for d in self.digit_set]
        return tuple(codes)


def digit_set_analysis(p: int, digit_set: Sequence[int], depth: int,
                       beta) -> DigitSetReport:
    """The set of unit-ball elements all of whose digits lie in digit_set:
    its exact minimal cover at radius p^(-depth) (counted, and its codes
    listed, only when read), the Hausdorff content estimate at
    exponent beta, and the exact box dimension."""
    digits = tuple(sorted(set(digit_set)))
    if not digits:
        raise DomainError("empty digit set")
    if any(d < 0 or d >= p for d in digits):
        raise DomainError("digit outside the residue range")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    num, den, base = _beta_parts(p, beta)
    estimate = ContentEstimate(len(digits), p, depth, num, den, base)
    return DigitSetReport(estimate, DimensionValue(len(digits), p), digits)


def _similarity(f: TruncatedSeries, ball: BallSpec
                ) -> Optional[Tuple[FieldElement, int]]:
    """(c, e): the center lifted to an exact point, and e = v(f'(c)) when
    f scales every distance on the ball by q^(-e); None otherwise."""
    j = ball.radius_exponent
    _require_precision(ball.center, j)
    c = as_exact(ball.center, max(f.working_precision, j + 1))
    # the ball lies in the one about 0 of radius exponent min(v(c), j)
    e = f.isometry_criterion(min(c.valuation_lower_bound, j), c, j)
    return None if e is None else (c, e)


def admissible_ball(f: TruncatedSeries, ball: BallSpec) -> Optional[BallSpec]:
    """The image ball when f acts on the given ball as an exact
    similarity (constant |f'|, exact difference scaling, image onto);
    None when the sufficient criterion t * M2 < |f'| fails."""
    similar = _similarity(f, ball)
    if similar is None:
        return None
    c, e = similar
    image_j = ball.radius_exponent + e
    image_center = f.eval(c, image_j)
    if image_center.abs_precision < image_j:
        raise InsufficientPrecision(
            f"image radius exponent {image_j} exceeds working precision "
            f"{image_center.abs_precision}")
    return BallSpec.make(image_center, image_j)


def image_measure(f: TruncatedSeries, ball: BallSpec,
                  subfamily: Iterable[BallSpec]) -> RationalMeasure:
    """H(f(union of subfamily)) = q^(-v(f')) * H(union) on an admissible ball."""
    similar = _similarity(f, ball)
    if similar is None:
        raise DomainError("ball not certified admissible for f")
    subfamily = tuple(subfamily)
    # a member lies inside the ball when it is no larger and its center
    # agrees with the ball's canonical center modulo q^j
    j, K = ball.radius_exponent, ball.descriptor.arith
    center = _prefix(K, ball.center.valuation, ball.center.unit, j)
    for b in subfamily:
        if b.descriptor != ball.descriptor:
            raise ValueError("mismatched field descriptors")
        _require_precision(b.center, b.radius_exponent)
        c = b.center
        if b.radius_exponent < j or _prefix(K, c.valuation, c.unit, j) != center:
            raise DomainError("subfamily member not contained in the ball")
    return Fraction(ball.descriptor.q) ** (-similar[1]) * haar_union_measure(subfamily)
