"""Flag-bundle Gysin coefficient on an abelian n-fold.

For a partition lam (padded with zeros to n parts) the top Segre number of
the associated flag line bundle is kappa(lam) * c1(D)^n, where kappa is the
coefficient of t1^n t2^(n-1) ... tn^1 in

    (lam_1 t1 + ... + lam_n tn)^n
        * prod_p (t_{j_p+1} ... t_{j_{p+1}})^(-j_p)
        * prod_{i<j} (t_i - t_j),

with j_1 < ... < j_m the jumps of lam and j_{m+1} = n.  Clearing the negative
powers turns this into a plain coefficient extraction: shift the target
exponent vector upward by prod_p (t_{j_p+1} ... t_{j_{p+1}})^(j_p).

The shift raises the target degree by the defect sum (j_{p+1} - j_p) j_p,
while the polynomial degree stays n(n+1)/2, so any positive defect forces
the coefficient to vanish.  The one survivor is the constant partition
(c^n), where kappa(c^n) = c^n (see `gysin_coefficient`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .partitions import Partition
from .ring import _check_int

#: Part of the CLI contract (`gysin --n 7` exits 3), and the bound up to which
#: the tests check the closed form against the full expansion exhaustively.
MAX_DIMENSION = 6


class JumpData(NamedTuple):
    """Padded partition, its descent positions and the degree defect."""
    n: int
    padded: tuple
    jumps: tuple
    defect: int


def jump_data(n: int, lam) -> JumpData:
    """Jumps of lam in dimension n: the indices i <= n with lam_i > lam_{i+1}
    (lam_{n+1} = 0), and the defect sum (j_{p+1} - j_p) j_p with j_{m+1} = n.

    The defect vanishes exactly for constant partitions (including zero).
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > _check_int(n, 1, "dimension n"):
        raise DomainError("partition has more than n parts")
    padded = lam.parts + (0,) * (n - len(lam))
    jumps = tuple(i for i in range(1, n + 1)
                  if padded[i - 1] > (padded[i] if i < n else 0))
    defect = 0
    fence = jumps + (n,)
    for p, jp in enumerate(jumps):
        defect += (fence[p + 1] - jp) * jp
    return JumpData(n=n, padded=padded, jumps=jumps, defect=defect)


def gysin_coefficient(n: int, lam) -> Fraction:
    """kappa(lam) in closed form: c^n on lam = (c^n), zero on all others.

    1. A positive defect lifts the target degree above the polynomial
       degree n(n+1)/2 (module docstring), so kappa vanishes.
    2. Defect 0 means lam = (c^n), c = 0 for lam = (); the target
       (n, ..., 1) is then delta + (1^n), with delta = (n-1, ..., 0).
    3. (c t1 + ... + c tn)^n = c^n p_1^n, and by the Frobenius formula the
       coefficient of t^(mu + delta) in p_1^n prod_{i<j} (t_i - t_j) is f^mu,
       the number of standard Young tableaux of shape mu (Macdonald, Symmetric
       Functions and Hall Polynomials, I.7).  f^(1^n) = 1.
    """
    if _check_int(n, 1, "dimension n") > MAX_DIMENSION:
        raise DomainError("dimension capped at %d" % MAX_DIMENSION)
    data = jump_data(n, lam)
    return Fraction(0 if data.defect else data.padded[0] ** n)
