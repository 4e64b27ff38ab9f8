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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, InsufficientPrecision
from .localfield import FieldDescriptor, FieldElement
from .series import TruncatedSeries

RationalMeasure = Fraction


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
        if center.abs_precision < radius_exponent:
            raise InsufficientPrecision(
                f"center precision {center.abs_precision} below radius "
                f"exponent {radius_exponent}")
        return cls(center.truncate(radius_exponent), radius_exponent)

    @classmethod
    def from_open(cls, center: FieldElement, radius_exponent: int) -> "BallSpec":
        """The open ball of radius q^(-j) is the closed ball of radius
        q^(-(j+1))."""
        return cls.make(center, radius_exponent + 1)

    def measure(self) -> RationalMeasure:
        return Fraction(self.descriptor.q) ** (-self.radius_exponent)

    def sort_key(self):
        c = self.center
        return (self.radius_exponent, c.valuation_lower_bound, c.digits)


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


def maximal_disjointify(family: Iterable[BallSpec]) -> BallFamily:
    """The maximal balls of the family: pairwise disjoint, same union."""
    balls = sorted(family, key=lambda b: b.sort_key())
    kept: List[BallSpec] = []
    for b in balls:          # ascending radius exponent: big balls first
        absorbed = False
        for k in kept:
            rel = ball_relation(b, k)
            if rel in (BallRelation.EQUAL, BallRelation.FIRST_INSIDE_SECOND):
                absorbed = True
                break
        if not absorbed:
            kept.append(b)
    return tuple(sorted(kept, key=lambda b: b.sort_key()))


def haar_union_measure(family: Iterable[BallSpec]) -> RationalMeasure:
    """H(union), normalized with H(unit ball) = 1: the sum of q^(-j)
    over the maximal disjoint subfamily."""
    return sum((b.measure() for b in maximal_disjointify(family)),
               start=Fraction(0))


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
        """Exact value when count_base is an integer power of scale_base
        (or 1); None when the ratio is irrational."""
        if self.count_base == 1:
            return Fraction(0)
        n, e = self.count_base, 0
        power = 1
        while power < n:
            power *= self.scale_base
            e += 1
        if power == n:
            return self.factor * e
        # also handle scale being a power of count
        n, e = self.scale_base, 0
        power = 1
        while power < n:
            power *= self.count_base
            e += 1
        if power == n:
            return self.factor / e
        return None


def hausdorff_alpha(descriptor: FieldDescriptor,
                    snowflake_a: Union[int, Fraction] = 1) -> DimensionValue:
    """The alpha with (ball radius ratio)^(-alpha) = residue field size,
    divided by the snowflake exponent a: alpha = 1/(a * rho1_exponent)."""
    a = Fraction(snowflake_a)
    if a <= 0:
        raise DomainError("snowflake exponent must be positive")
    q = descriptor.q
    return DimensionValue(q, q, Fraction(1) / (a * descriptor.rho1_exponent))


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
    (beta_num/beta_den)*log(beta_base); compared exactly through integer
    powers."""

    count_base: int
    scale_p: int
    depth: int
    beta_num: int
    beta_den: int
    beta_base: int

    def compare_to_one(self) -> int:
        """-1, 0, or 1 as the content is below, equal to, or above 1."""
        lhs = self.count_base ** self.beta_den
        rhs = self.beta_base ** self.beta_num
        if lhs == rhs:
            return 0
        return 1 if lhs > rhs else -1

    def equals_one(self) -> bool:
        return self.compare_to_one() == 0

    def compare(self, other: "ContentEstimate") -> int:
        """Exact three-way comparison of two estimates for the same set
        and exponent at different depths."""
        key = (self.count_base, self.scale_p, self.beta_num, self.beta_den,
               self.beta_base)
        if key != (other.count_base, other.scale_p, other.beta_num,
                   other.beta_den, other.beta_base):
            raise ValueError("estimates are not comparable")
        sign = self.compare_to_one()
        if self.depth == other.depth:
            return 0
        return sign if self.depth > other.depth else -sign

    def approx(self) -> float:
        log_content = self.depth * (math.log(self.count_base)
                                    - Fraction(self.beta_num, self.beta_den)
                                    * math.log(self.beta_base))
        return math.exp(log_content)


@dataclass(frozen=True)
class DigitSetReport:
    ball_count: int
    content_estimate: ContentEstimate
    dimension: DimensionValue
    cover_codes: Tuple[int, ...]


def digit_set_analysis(p: int, digit_set: Sequence[int], depth: int,
                       beta) -> DigitSetReport:
    """The set of unit-ball elements all of whose digits lie in digit_set:
    its exact minimal cover at radius p^(-depth), the Hausdorff content
    estimate at exponent beta, and the exact box dimension."""
    digits = sorted(set(digit_set))
    if not digits:
        raise DomainError("empty digit set")
    if any(d < 0 or d >= p for d in digits):
        raise DomainError("digit outside the residue range")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    codes = [0]
    for level in range(depth):
        scale = p ** level
        codes = [c + d * scale for c in codes for d in digits]
    codes.sort()
    num, den, base = _beta_parts(p, beta)
    estimate = ContentEstimate(len(digits), p, depth, num, den, base)
    return DigitSetReport(
        ball_count=len(codes),
        content_estimate=estimate,
        dimension=DimensionValue(len(digits), p),
        cover_codes=tuple(codes),
    )


def _lift_center(ball: BallSpec, prec: int) -> FieldElement:
    """The canonical center as an exact element at higher precision (its
    truncated digits are a genuine member of the ball)."""
    c = ball.center
    if prec <= c.abs_precision:
        return c
    if c.is_zero_to_precision:
        return FieldElement.zero_to_precision(c.descriptor, prec)
    window = list(c.digits) + [0] * (prec - c.abs_precision)
    return FieldElement(c.descriptor, c.valuation, tuple(window), prec)


def _certify_similarity(f: TruncatedSeries, ball: BallSpec
                        ) -> Optional[Tuple[BallSpec, int]]:
    j = ball.radius_exponent
    c = _lift_center(ball, max(f.working_precision, j + 1))
    enclosing = min(c.valuation_lower_bound, j)
    f.require_radius(enclosing)
    # truncate raises PrecisionExhausted when eval falls short
    fp = f.derivative().eval(c, c.abs_precision).truncate(c.abs_precision)
    if fp.is_zero_to_precision:
        return None
    e_fp = fp.valuation
    e_m2 = f.sup_exponent(enclosing, 2)
    if not (e_m2 + j > e_fp):
        return None
    image_j = j + e_fp
    t = min(f.working_precision, c.abs_precision)
    if t < image_j:
        raise InsufficientPrecision(
            f"image radius exponent {image_j} exceeds working precision {t}")
    image_center = f.eval(c, t).truncate(t)
    return BallSpec.make(image_center, image_j), e_fp


def admissible_ball(f: TruncatedSeries, ball: BallSpec) -> Optional[BallSpec]:
    """The image ball when f acts on the given ball as an exact
    similarity (constant |f'|, exact difference scaling, image onto);
    None when the sufficient criterion t * M2 < |f'| fails."""
    certified = _certify_similarity(f, ball)
    if certified is None:
        return None
    return certified[0]


def image_measure(f: TruncatedSeries, ball: BallSpec,
                  subfamily: Iterable[BallSpec]) -> RationalMeasure:
    """H(f(union of subfamily)) = |f'| * H(union) on an admissible ball."""
    certified = _certify_similarity(f, ball)
    if certified is None:
        raise DomainError("ball not certified admissible for f")
    _, e_fp = certified
    subfamily = tuple(subfamily)
    for b in subfamily:
        if ball_relation(b, ball) not in (BallRelation.EQUAL,
                                          BallRelation.FIRST_INSIDE_SECOND):
            raise DomainError("subfamily member not contained in the ball")
    q = ball.descriptor.q
    return Fraction(q) ** (-e_fp) * haar_union_measure(subfamily)
