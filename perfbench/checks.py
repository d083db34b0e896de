"""Independent output checks for every benchmark command.

Expected values come from closed forms computed here, never from the
program's own ``analytic`` columns.  The model has two facts that make
every Monte Carlo expectation exact:

* A reads +1 on [0, pi) and B reads +1 exactly on the A-frame arc
  [delta - pi, delta), for every density index n.
* Orientations have density |sin(n w)|/4, whose CDF is closed form.

So any outcome statistic is a piecewise-constant function of the A-frame
orientation, and its mean is a finite sum of arc measures.

Each ``check_*`` function takes the command's stdout text and raises
``CheckFailed`` with a reason when the output is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

Z_LIMIT = 5.0
WEAK_VALUE_TOL = 1e-8
PROBABILITY_TOL = 1e-10
EXACT_TOL = 1e-12
# A transform-curve point this close to a cut may fall either side of it.
CUT_MARGIN = 1e-9
CHSH_VALUES = {-4, -2, 0, 2, 4}
OPERATORS = ("in-plane", "orthogonal-in-plane", "flight")
OUTCOME_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class CheckFailed(Exception):
    """A command's output disagrees with its closed form."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- closed forms


def wrap(x):
    """Radians wrapped to [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def cdf(x, n):
    """CDF on [-pi, pi] of the density |sin(n w)|/4 (floats or arrays)."""
    cell = math.pi / n
    m = np.minimum(np.floor((x + math.pi) / cell), 2 * n)
    r = x + math.pi - m * cell
    return m / (2.0 * n) + (1.0 - np.cos(n * r)) / (4.0 * n)


def a_outcome(w):
    return 1 if w >= 0.0 else -1


def b_outcome(w, delta):
    """+1 exactly when w lies on the arc [delta - pi, delta)."""
    return 1 if (w - delta + math.pi) % (2.0 * math.pi) < math.pi else -1


def pieces(cuts, n):
    """(lo, hi, mass) for the arcs of [-pi, pi) between the given cut points."""
    points = sorted({-math.pi, math.pi, *(wrap(c) for c in cuts)})
    return [
        (lo, hi, cdf(hi, n) - cdf(lo, n))
        for lo, hi in zip(points, points[1:])
        if hi > lo
    ]


def moments(statistic, cuts, n):
    """Exact mean and variance of a statistic constant between the cuts."""
    mean = second = 0.0
    for lo, hi, mass in pieces(cuts, n):
        value = statistic(0.5 * (lo + hi))
        mean += mass * value
        second += mass * value * value
    return mean, max(0.0, second - mean * mean)


def correlation(delta, n):
    """E_n(delta): the mean outcome product s_a * s_b."""
    cuts = (0.0, delta, delta - math.pi)
    mean, _ = moments(lambda w: a_outcome(w) * b_outcome(w, delta), cuts, n)
    return mean


def _z(estimate, expected, trials):
    """Standard score against the closed-form binomial error of a +-1 mean."""
    sigma = max(math.sqrt(max(0.0, 1.0 - expected * expected) / trials), 1.0 / trials)
    return (estimate - expected) / sigma


def chsh_deltas(d_omega, d_omega_p, d_omega_pp, phi=0.0):
    """Effective parameters of the four B settings in the CHSH sum."""
    rel = (d_omega_p, d_omega_pp, d_omega_p - d_omega, d_omega_pp - d_omega)
    return [wrap(r - phi) for r in rel]


def chsh_moments(deltas, n=1):
    """Exact mean and variance of s_a * (s1 + s2 + s3 - s4)."""
    signs = (1, 1, 1, -1)

    def per_trial(w):
        return a_outcome(w) * sum(s * b_outcome(w, d) for s, d in zip(signs, deltas))

    cuts = [0.0, *deltas, *(d - math.pi for d in deltas)]
    return moments(per_trial, cuts, n)


def coarse_subset_average(s_a, s_b, delta, operator):
    """Density-weighted average, over one outcome subset, of the operator's quantity.

    With density |sin w|/4 the weighted integrands are +-sin/4 and
    +-cos/4, so each average is a difference of sines over the subset's arcs.
    """
    cuts = (0.0, delta, delta - math.pi)
    mass = sines = 0.0
    for lo, hi, m in pieces(cuts, 1):
        mid = 0.5 * (lo + hi)
        if a_outcome(mid) == s_a and b_outcome(mid, delta) == s_b:
            mass += m
            sines += math.sin(hi) - math.sin(lo)
    if operator == "in-plane":
        return complex(s_a)
    if operator == "orthogonal-in-plane":
        return complex(-0.25 * sines / mass)
    return complex(0.0, s_a * 0.25 * sines / mass)


# ---------------------------------------------------------------- parsing


def _csv(text, columns):
    lines = text.splitlines()
    _require(lines and lines[0].startswith("# effective-config: "), "missing config header")
    header = json.loads(lines[0][len("# effective-config: "):])
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    _require(rows and tuple(rows[0]) == tuple(columns), f"columns {rows[:1]!r}")
    return header, rows[1:]


def _json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON output: {exc}") from None


def _close(a, b, tol=EXACT_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _circular_close(a, b, tol=EXACT_TOL):
    return abs(wrap(a - b)) <= tol


def _config_matches(config, **expected):
    for key, value in expected.items():
        _require(config.get(key) == value, f"effective config {key}={config.get(key)!r}, sent {value!r}")


# ---------------------------------------------------------------- checkers


def check_correlate(text, *, start, stop, points, trials, seed, n):
    header, rows = _csv(text, ("delta_rad", "estimate", "std_error", "analytic", "n"))
    _config_matches(header, seed=seed, trials=trials, n=n)
    grid = np.linspace(start, stop, points)
    _require(len(rows) == points, f"{len(rows)} rows for a {points}-point grid")
    for delta, row in zip(grid, rows):
        got_delta, estimate, count = float(row[0]), float(row[1]), int(row[4])
        _require(_circular_close(got_delta, float(delta)), f"row delta {got_delta!r}, sent {delta!r}")
        _require(count == trials, f"row at delta={delta:.6g} has n={count}, sent {trials}")
        if delta == 0.0:
            _require(estimate == -1.0, f"aligned row reads {estimate!r}, not exactly -1")
            continue
        z = _z(estimate, correlation(float(delta), n), trials)
        _require(abs(z) <= Z_LIMIT, f"delta={delta:.6g}: estimate {estimate!r} is {z:+.2f} sigma off")


def check_chsh(text, *, d_omega, d_omega_p, d_omega_pp, trials, seed, n=1):
    out = _json(text)
    _config_matches(out["effective_config"], seed=seed, trials=trials)
    counts = {int(k): int(v) for k, v in out["per_trial_counts"].items()}
    _require(set(counts) <= CHSH_VALUES, f"per-trial values {sorted(counts)} outside {{0, +-2, +-4}}")
    _require(sum(counts.values()) == trials, f"per-trial counts sum to {sum(counts.values())}, sent {trials}")
    _require(out["n"] == trials, f"n={out['n']}, sent {trials}")
    mean = sum(v * c for v, c in counts.items()) / trials
    _require(_close(out["estimate"], mean), f"estimate {out['estimate']!r} != count mean {mean!r}")
    outside = sum(c for v, c in counts.items() if abs(v) > 2) / trials
    _require(out["out_of_range_fraction"] > 0.0, "no per-trial value outside [-2, 2]")
    _require(_close(out["out_of_range_fraction"], outside), "out_of_range_fraction disagrees with counts")
    expected, var = chsh_moments(chsh_deltas(d_omega, d_omega_p, d_omega_pp), n)
    sigma = max(math.sqrt(var / trials), 1.0 / trials)
    z = (out["abs_estimate"] - abs(expected)) / sigma
    _require(abs(z) <= Z_LIMIT, f"|S|={out['abs_estimate']!r} is {z:+.2f} sigma from {abs(expected)!r}")


def check_wz(text, *, alphas, betas, trials, seed, n):
    out = _json(text)
    _config_matches(out["effective_config"], seed=seed, trials=trials, n=n)
    pairs = out["pair_correlations"]
    alphas, betas = sorted(wrap(a) for a in alphas), sorted(wrap(b) for b in betas)
    keys = {(i, j): f"{a:.12g},{b:.12g}" for i, a in enumerate(alphas) for j, b in enumerate(betas)}
    _require(set(pairs) == set(keys.values()), f"modulator pairs {sorted(pairs)}")
    total = sum(p["n"] for p in pairs.values())
    _require(total == trials, f"pair counts sum to {total}, sent {trials}")
    chsh_signs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
    chsh = var = 0.0
    for (i, j), key in keys.items():
        pair = pairs[key]
        e = correlation(wrap(alphas[i] + betas[j]), n)
        z = _z(pair["estimate"], e, pair["n"])
        _require(abs(z) <= Z_LIMIT, f"pair {key}: estimate {pair['estimate']!r} is {z:+.2f} sigma off")
        if (i, j) in chsh_signs:
            chsh += chsh_signs[i, j] * e
            var += max(0.0, 1.0 - e * e) / pair["n"]
    z = (out["chsh"]["estimate"] - chsh) / math.sqrt(var)
    _require(abs(z) <= Z_LIMIT, f"CHSH {out['chsh']['estimate']!r} is {z:+.2f} sigma from {chsh!r}")


def check_weak_values(text, *, phi, delta_omega):
    out = _json(text)
    _require(out["passed"] is True, "report did not pass")
    delta = wrap(delta_omega - phi)
    want = {(sa, sb, op) for sa, sb in OUTCOME_PAIRS for op in OPERATORS}
    for side, rows in (("A", out["comparisons"]), ("B", out["b_side"]["comparisons"])):
        keys = [(r["s_a"], r["s_b"], r["operator"]) for r in rows]
        _require(len(keys) == len(want) and set(keys) == want, f"{side}-side rows {len(keys)}/{len(want)}")
        for r in rows:
            _require(r["abs_diff"] <= WEAK_VALUE_TOL, f"{side} row {r['operator']} abs_diff {r['abs_diff']!r}")
    for r in out["comparisons"]:
        exact = coarse_subset_average(r["s_a"], r["s_b"], delta, r["operator"])
        for name in ("model_average", "oracle_weak_value"):
            got = complex(*r[name])
            _require(
                abs(got - exact) <= WEAK_VALUE_TOL,
                f"({r['s_a']:+d},{r['s_b']:+d}) {r['operator']} {name} {got!r} != closed form {exact!r}",
            )


def check_paths(text, *, phi, omega_a, omega_b, times, operators):
    _, rows = _csv(text, ("time", "s_a", "s_b", "probability", "operator", "wv_re", "wv_im"))
    by_time = {}
    for t, s_a, s_b, p, op, _, _ in rows:
        by_time.setdefault(float(t), {}).setdefault((int(s_a), int(s_b)), set()).add((float(p), op))
    _require(sorted(by_time) == sorted(times), f"times {sorted(by_time)} != sent {sorted(times)}")
    e = -math.cos(omega_b - omega_a - phi)
    for t, branches in by_time.items():
        _require(set(branches) == set(OUTCOME_PAIRS), f"t={t}: branches {sorted(branches)}")
        total = 0.0
        for (s_a, s_b), entries in branches.items():
            _require({op for _, op in entries} == set(operators), f"t={t}: operators {entries}")
            probs = {p for p, _ in entries}
            _require(len(probs) == 1, f"t={t}: branch ({s_a},{s_b}) has several probabilities")
            p = probs.pop()
            expected = 0.25 * (1.0 + s_a * s_b * e)
            _require(abs(p - expected) <= PROBABILITY_TOL, f"t={t}: P({s_a},{s_b})={p!r}, expected {expected!r}")
            total += p
        _require(abs(total - 1.0) <= PROBABILITY_TOL, f"t={t}: probabilities sum to {total!r}")


def _bell_sides(d1, d2):
    return abs(-math.cos(d1) + math.cos(d2)), 1.0 - math.cos(d2 - d1)


def _check_bell_row(d1, d2, lhs, rhs, violated):
    want_lhs, want_rhs = _bell_sides(d1, d2)
    _require(abs(lhs - want_lhs) <= 1e-12, f"({d1:.6g},{d2:.6g}): lhs {lhs!r}, expected {want_lhs!r}")
    _require(abs(rhs - want_rhs) <= 1e-12, f"({d1:.6g},{d2:.6g}): rhs {rhs!r}, expected {want_rhs!r}")
    if abs(want_lhs - want_rhs) > 1e-9:
        _require(bool(violated) == (want_lhs > want_rhs), f"({d1:.6g},{d2:.6g}): verdict {violated!r}")


def check_bell(text, *, d1, d2):
    out = _json(text)
    _check_bell_row(d1, d2, out["lhs"], out["rhs"], out["violated"])


def check_bell_grid(text, *, points):
    _, rows = _csv(text, ("d1", "d2", "lhs", "rhs", "violated"))
    grid = np.linspace(0.0, math.pi, points)
    pairs = [(float(a), float(b)) for i, a in enumerate(grid) for b in grid[i:]]
    _require(len(rows) == len(pairs), f"{len(rows)} rows, expected {len(pairs)}")
    for (d1, d2), row in zip(pairs, rows):
        got = [float(x) for x in row[:4]]
        _require(_close(got[0], d1) and _close(got[1], d2), f"row angles {row[:2]}, expected ({d1}, {d2})")
        _check_bell_row(d1, d2, got[2], got[3], int(row[4]))


def check_transform_curve(text, *, delta, n, points):
    """Grid, linear reference, arc membership and measure preservation."""
    _, rows = _csv(text, ("omega", "transformed", "linear_ref"))
    _require(len(rows) == points, f"{len(rows)} rows for {points} grid points")
    omega, image, linear = np.array(rows, dtype=float).T
    grid = np.linspace(-math.pi, math.pi, points, endpoint=False)
    _require(np.all(np.abs(omega - grid) <= EXACT_TOL * np.maximum(1.0, np.abs(grid))), "omega grid")
    _require(np.all(np.abs(wrap(linear - (omega - delta))) <= EXACT_TOL), "linear_ref column")
    # B's coordinate is wrap(-image); it reads +1 exactly on the arc [delta - pi, delta).
    on_arc = (omega - delta + math.pi) % (2.0 * math.pi) < math.pi
    b_plus = wrap(-image) >= 0.0
    cut_gap = np.minimum(np.abs(wrap(omega - delta)), np.abs(wrap(omega - delta + math.pi)))
    bad = (on_arc != b_plus) & (cut_gap > CUT_MARGIN)
    _require(not bad.any(), f"B outcome off its arc at omega={omega[bad][:3]}")
    # A measure-preserving increasing circle map shifts the CDF by a constant.
    shift = (cdf(wrap(image), n) - cdf(omega, n)) % 1.0
    gap = np.abs(shift - shift[0])
    gap = np.minimum(gap, 1.0 - gap)
    _require(gap.max() <= 1e-9, f"measure not preserved (max gap {gap.max():.3e})")
