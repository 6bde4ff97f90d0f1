"""Elementary statistical-bound primitives.

Three deviation terms drive every finite-size penalty in this package:

* ``binomial_tail`` / ``binomial_quantile`` / ``gamma_bin`` -- the upper
  tail of a Binomial(n, delta) distribution, its inverse (smallest
  frequency k/n whose tail is below a failure-probability target), and
  that frequency's excess ``c`` over delta.
* ``gamma_serf`` -- the Serfling-style deviation for estimating the error
  rate of a randomly chosen key set from a randomly chosen test set.
* ``hoeffding_decoy_dev`` -- the two-sided Hoeffding deviation used to relate
  per-intensity counts to photon-number-conditioned expectations.

All failure probabilities are passed *squared* (``eps_sq``): the security
analysis consistently consumes squared epsilons, and taking them squared at
the API boundary prevents silent double-squaring.

``_checked_number`` is the one check of a scalar input: every field of
every input record (``_Record`` runs it over the record's ``_FIELDS``
table) and every scalar argument of every public function.

Every tail is evaluated by scipy's regularized incomplete beta through
``betainc``, which imports ``scipy.special`` on its first call: the import
takes about 0.25 s, and most commands that load this module (through
``_checked_number``) evaluate no tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

__all__ = [
    "TailQuery",
    "binomial_tail",
    "binomial_quantile",
    "gamma_bin",
    "gamma_serf",
    "hoeffding_decoy_dev",
]


def _checked_number(name: str, value, lo, hi, kind: type = float, ends: str = "[]"):
    """``value`` if it is a finite real (an integer if ``kind`` is int,
    never a bool) in the interval from lo to hi with the given ``ends``,
    else a ValueError naming ``name``.  An integral float is taken as that
    int, since JSON writes 1e12."""
    # The common cases first, before the slow ABC test: a plain float or
    # int inside the range or on a finite closed end of it.
    common = type(value) is float and kind is float or type(value) is int and -1e308 < value < 1e308
    if common and (
        lo < value < hi
        or value == lo > -math.inf and ends[0] == "["
        or value == hi < math.inf and ends[1] == "]"
    ):
        return value
    try:
        if (
            not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
            and (lo < value if ends[0] == "(" else lo <= value)
            and (value < hi if ends[1] == ")" else value <= hi)
            and (kind is float or value == int(value))
        ):
            return value if kind is float or type(value) is int else int(value)
    except OverflowError:  # an int beyond float range
        pass
    interval = f" in {ends[0]}{lo:g}, {hi:g}{ends[1]}" if -math.inf < lo or hi < math.inf else ""
    what = "number" if kind is float else "integer"
    raise ValueError(f"{name} must be a finite {what}{interval}, got {value!r}")


def _checked_probabilities(name: str, values) -> np.ndarray:
    """``values`` as a float array if every entry lies in [0, 1], else the
    ``_checked_number`` error of the first entry that does not, named by
    its index (a 0-d array by ``name`` alone)."""
    arr = np.asarray(values, dtype=float)
    ok = (arr >= 0.0) & (arr <= 1.0)  # NaN fails both
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), arr.shape)
        where = f"[{', '.join(map(str, i))}]" if i else ""
        _checked_number(name + where, arr[i].item(), 0.0, 1.0)
    return arr


class _Record:
    """Base of the frozen input records: ``__post_init__`` checks each field
    of the class's ``_FIELDS`` table, name to (lo, hi, kind, ends), with
    ``_checked_number`` and stores a converted value back.  A field of kind tuple
    holds three reals, one per intensity (``name[i]`` in an error).  A
    subclass adds its cross-field rules after ``super().__post_init__()``."""

    def __post_init__(self) -> None:
        for name, (lo, hi, kind, ends) in self._FIELDS.items():
            value = getattr(self, name)
            if kind is not tuple:
                checked = _checked_number(name, value, lo, hi, kind, ends)
            elif (type(value) is tuple or type(value) is list) and len(value) == 3:
                checked = tuple(value)  # a tuple is returned as is
                for i, entry in enumerate(checked):
                    if not (type(entry) is float and lo < entry < hi):  # common; builds no name
                        _checked_number(f"{name}[{i}]", entry, lo, hi, float, ends)
            else:
                raise ValueError(f"{name} must be 3 numbers, one per intensity, got {value!r}")
            if checked is not value:
                object.__setattr__(self, name, checked)


def _tail_threshold(n: int, x: float) -> int:
    """Smallest integer count k with k >= n*x, guarding float round-off.

    The guard window scales with the rounding error of the product (a few
    thousand ulp) and never reaches 1/2, so it only absorbs float fuzz;
    snapping down at a boundary enlarges the tail, keeping bounds valid.
    """
    target = n * x
    nearest = round(target)
    snap = max(1e-9, abs(target) * 2.0**-40)
    if abs(target - nearest) <= snap:
        return int(nearest)
    return int(math.ceil(target))


@dataclass(frozen=True)
class TailQuery(_Record):
    """Arguments of the binomial tail function.

    ``n`` trials with per-trial probability ``delta``; the tail starts at
    count ``n*(delta + c)``.  ``delta + c`` may exceed 1, in which case the
    tail is empty and has mass 0.
    """

    n: int
    delta: float
    c: float

    _FIELDS = {"n": (1, math.inf, int, "[]"), **dict.fromkeys(("delta", "c"), (0.0, 1.0, float, "[]"))}


def binomial_tail(q: TailQuery) -> float:
    """Upper tail of Binomial(n, delta) starting at count ceil(n*(delta+c)).

    Evaluated through the regularized incomplete beta function, which stays
    accurate for n far beyond the reach of direct summation (n up to 1e12).

    Returns a probability in [0, 1].
    """
    return _tail_at_count(q.n, q.delta, _tail_threshold(q.n, q.delta + q.c))


_special = None  # scipy.special, once the first call of betainc has imported it


def betainc(a, b, x):
    """``scipy.special.betainc``, with scipy imported by the first call.

    Every tail evaluation calls this name, and the tests and the
    benchmark's tracer patch it to count them, so it is a plain function
    that is never rebound.  Looking the module up through a global adds
    about 0.05 us a call; an ``import`` statement run on every call would
    add 0.6 us.
    """
    global _special
    if _special is None:
        import scipy.special as _special
    return _special.betainc(a, b, x)


def _tail_at_count(n: int, delta: float, k: int) -> float:
    """P[Binomial(n, delta) >= k].

    Outside 1 <= k <= n the tail is full or empty.  Inside, the survival
    function identity P[X >= k] = I_delta(k, n - k + 1) holds, and
    ``betainc`` returns exactly 0 at delta = 0 and exactly 1 at delta = 1.
    """
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return float(betainc(k, n - k + 1, delta))


# Probes that may take a Newton step; later ones bisect.
_NEWTON_PROBES = 6


def binomial_quantile(n: int, delta: float, eps_sq: float) -> float:
    """Smallest frequency k/n with P[Binomial(n, delta) >= k] <= eps_sq.

    The tail T(k) = P[X >= k] is non-increasing in k and T(n + 1) = 0, so
    the answer lies in the bracket [lo, hi] = [0, n + 1].  Each probe
    evaluates T at a count k in [lo, hi) and narrows the bracket: T(k) <=
    eps_sq sets hi = k, otherwise lo = k + 1.  The search ends when lo ==
    hi, so evaluated tails alone decide the result, and it is the k a
    bisection finds; only the order of the probes is guessed.

    The first probe is the Gaussian estimate n delta + sqrt(-2 n delta
    (1 - delta) ln eps_sq).  The next is a Newton step x on log T with the
    slope log r, where r = (n - k) delta / ((k + 1)(1 - delta)) is the
    ratio of successive pmf terms, exact in the deep tail.  It is rounded
    to ceil(x) after a probe above eps_sq and to ceil(x) - 1 after one at
    or below, so each probe tests one side of the answer.  The midpoint is
    probed instead when T(k) is 0, r is not in (0, 1) (as at delta = 1), x
    is not finite or the step leaves [lo, hi), and on every probe after
    the sixth.  So a search makes at most 6 + ceil(log2(n + 2)) probes,
    and about four at key-length sizes.  For delta = 0 the tail vanishes
    at every positive frequency and the quantile is defined as exactly 0.
    """
    _checked_number("n", n, 1, math.inf, int)
    _checked_number("delta", delta, 0.0, 1.0)
    _checked_number("eps_sq", eps_sq, 0.0, 1.0, float, "()")
    if delta == 0.0:
        return 0.0
    log_eps = math.log(eps_sq)
    lo, hi = 0, n + 1
    k = math.ceil(n * delta + math.sqrt(-2.0 * n * delta * (1.0 - delta) * log_eps))
    probes = 0
    while lo < hi:
        if not lo <= k < hi:
            k = (lo + hi) // 2
        t = _tail_at_count(n, delta, k)
        probes += 1
        if t <= eps_sq:
            hi = k
        else:
            lo = k + 1
        step = -1  # outside every bracket: the midpoint
        if probes < _NEWTON_PROBES and t > 0.0 and delta < 1.0:
            ratio = (n - k) * delta / ((k + 1) * (1.0 - delta))
            if 0.0 < ratio < 1.0:
                x = k + (log_eps - math.log(t)) / math.log(ratio)
                if math.isfinite(x):
                    step = math.ceil(x) - 1 if t <= eps_sq else math.ceil(x)
        k = step
    return lo / n


def gamma_bin(n: int, delta: float, eps_sq: float) -> float:
    """Smallest deviation c with binomial_tail(n, delta, c) <= eps_sq.

    The tail is a step function of c, changing only where the threshold
    ceil(n*(delta+c)) crosses an integer, so c is the excess of
    ``binomial_quantile`` over delta and sits exactly on that grid.  The
    result satisfies

        binomial_tail(n, delta, c) <= eps_sq, and
        binomial_tail(n, delta, c - 1/n) > eps_sq   (whenever c >= 1/n).

    For delta = 0 the tail vanishes for every positive c and the inverse is
    defined as exactly 0.
    """
    c = binomial_quantile(n, delta, eps_sq) - delta
    if c <= 0.0:
        return 0.0
    # Cannot exceed the empty-tail endpoint.
    return min(c, 1.0 - delta + 1.0 / n)


def f_serf(n_test: int, n_key: int) -> float:
    """Exponent scale of the Serfling bound for IID test/key assignment."""
    return n_key * n_test**2 / ((n_key + n_test) * (n_test + 1.0))


def gamma_serf(n_test: int, n_key: int, eps_sq: float) -> float:
    """Serfling deviation with failure probability eps_sq.

    Closed form sqrt(ln(1/eps_sq) / f_serf(n_test, n_key)).  Raises on zero
    counts; callers must map that case to a zero-length key.
    """
    _checked_number("n_test", n_test, 1, math.inf, int)
    _checked_number("n_key", n_key, 1, math.inf, int)
    _checked_number("eps_sq", eps_sq, 0.0, 1.0, float, "(]")
    return math.sqrt(math.log(1.0 / eps_sq) / f_serf(n_test, n_key))


def hoeffding_decoy_dev(n_outcome: float, eps_sq: float) -> float:
    """Two-sided Hoeffding deviation sqrt((n/2) * ln(2/eps_sq)).

    Applied to the count of one outcome class across all intensity choices;
    conditioning on the photon-number sequence makes the per-round intensity
    draws independent, which is what licenses plain Hoeffding here.
    """
    _checked_number("n_outcome", n_outcome, 0.0, math.inf)
    _checked_number("eps_sq", eps_sq, 0.0, 2.0, float, "()")
    return math.sqrt(0.5 * n_outcome * math.log(2.0 / eps_sq))
