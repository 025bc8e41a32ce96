"""Statistics the benchmark reports and the check that two sets of runs agree.

Conventions (see README.md):
  * quartiles are Python's statistics.quantiles(values, n=4) (the default
    "exclusive" method), and a spread is (q3 - q1) / median;
  * a percentile of raw samples interpolates linearly between the two
    closest ranks;
  * a tail is reported at the highest of TAIL_PERCENTILES that still has at
    least TAIL_MIN_BEYOND samples beyond it, together with that count; with
    fewer than MIN_SAMPLES_FOR_TAIL samples there is no tail, only a median.
"""

import math
import statistics

TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
MIN_SAMPLES_FOR_TAIL = 40


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def percentile(values, p):
    """Percentile p (0..100) of raw samples, linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile out of range: %r" % (p,))
    s = sorted(values)
    rank = p / 100.0 * (len(s) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(s) - 1)
    frac = rank - lo
    return s[lo] * (1.0 - frac) + s[hi] * frac


def samples_beyond(n, p):
    """How many of n samples lie strictly above percentile p (by rank)."""
    return n - int(math.ceil(p / 100.0 * n - 1e-9))


def tail(values):
    """(p, value, beyond) for the highest tail percentile with at least
    TAIL_MIN_BEYOND samples beyond it, or None when there are too few
    samples for any tail."""
    n = len(values)
    if n < MIN_SAMPLES_FOR_TAIL:
        return None
    for p in TAIL_PERCENTILES:
        beyond = samples_beyond(n, p)
        if beyond >= TAIL_MIN_BEYOND:
            return p, percentile(values, p), beyond
    return None


def worse_by(first_median, second_median, better):
    """How much worse the second median is than the first, as a share of the
    first (negative when it is better)."""
    if first_median == 0:
        return 0.0 if second_median == first_median else math.inf
    change = (second_median - first_median) / abs(first_median)
    return change if better == "lower" else -change


def compare_sets(first, second, spec):
    """Checks that two sets of runs of the same code agree.

    first, second: lists of run results, each a dict with "attempted",
      "failed" and "metrics" ({name: value}).
    spec: the end_to_end list of BENCHMARK.json (name, better, bound).

    Returns a list of human-readable problems; empty means the sets agree:
      * each metric's spread within each set stays within its bound
        (setup_s excepted);
      * no metric's second median is worse than the first by more than its
        bound;
      * the share of failed operations is exactly the same in both sets.
    """
    problems = []
    for m in spec:
        name, bound, better = m["name"], m["bound"], m["better"]
        a = [r["metrics"][name] for r in first]
        b = [r["metrics"][name] for r in second]
        if name != "setup_s":
            for label, values in (("first", a), ("second", b)):
                spread = relative_spread(values)
                if spread > bound:
                    problems.append("%s: %s set spread %.3f exceeds bound %.3f"
                                    % (name, label, spread, bound))
        worse = worse_by(median(a), median(b), better)
        if worse > bound:
            problems.append("%s: second median worse by %.3f, bound %.3f"
                            % (name, worse, bound))

    def failed_share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs), attempted

    fa, na = failed_share(first)
    fb, nb = failed_share(second)
    # Exact comparison of fa/na and fb/nb, without floating point.
    if fa * nb != fb * na:
        problems.append("failed share differs: %d/%d vs %d/%d" % (fa, na, fb, nb))
    return problems
