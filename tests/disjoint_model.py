"""Reference model of the maximal-ball scan: the pairwise version.

Every ball, taken in `sort_key` order, is compared with each ball kept so
far by `ball_relation` (one subtraction each), and kept unless it equals
or lies inside one of them: O(n^2) relations for n balls.  The library's
`maximal_disjointify` must return exactly the tuple this returns, and
`image_measure` must accept exactly the members `contained_in` accepts.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from dvfield.measure import BallRelation, BallSpec, ball_relation

INSIDE = (BallRelation.EQUAL, BallRelation.FIRST_INSIDE_SECOND)


def maximal_disjointify(family: Iterable[BallSpec]) -> Tuple[BallSpec, ...]:
    balls = sorted(family, key=lambda b: b.sort_key())
    kept: List[BallSpec] = []
    for b in balls:          # ascending radius exponent: big balls first
        if not any(ball_relation(b, k) in INSIDE for k in kept):
            kept.append(b)
    return tuple(sorted(kept, key=lambda b: b.sort_key()))


def contained_in(member: BallSpec, ball: BallSpec) -> bool:
    return ball_relation(member, ball) in INSIDE
