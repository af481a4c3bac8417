"""Evaluation statistics over generated sample matrices.

A sample matrix holds S generated responses (or logits) per test row.  All
functions are pure; rows are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np
from scipy import stats as _st

__all__ = [
    "rmse", "nll", "qice", "piw", "paired_t_test", "TTestResult",
    "deferral_report", "DeferralReport", "format_mean_std",
]

_SIGMA_FLOOR = 1e-6
_PIW_PERCENTILES = (2.5, 97.5)   # the central 95% prediction interval
_MAX_DISTINCT_PIW_BINS = 16      # deferral tables bin by distinct width up to this many
_MEAN_STD_FORMAT = ".2f"


def _as_matrix(samples) -> np.ndarray:
    s = np.asarray(samples, dtype=float)
    if s.ndim != 2:
        raise ValueError("sample matrix must be 2-D (rows x samples)")
    if not np.isfinite(s).all():
        raise ValueError("sample matrix must be finite")
    return s


def _as_truth(truth, s: np.ndarray) -> np.ndarray:
    """``truth`` as a float vector, checked to hold one finite value per row of ``s``."""
    t = np.asarray(truth, dtype=float)
    if t.shape != (s.shape[0],):
        raise ValueError(f"truth has shape {t.shape}; it needs one value for each of "
                         f"the {s.shape[0]} sample rows")
    if not np.isfinite(t).all():
        raise ValueError("truth must be finite")
    return t


def rmse(truth, samples) -> float:
    """Root mean squared error of the per-row sample means."""
    s = _as_matrix(samples)
    t = _as_truth(truth, s)
    pred = s.mean(axis=1)
    return float(np.sqrt(np.mean((pred - t) ** 2)))


def nll(truth, samples) -> float:
    """Mean negative log-likelihood under a per-row Gaussian fit.

    Each row's samples give (mean, std); the std is the sample standard
    deviation floored at 1e-6.  Returns the average over rows of
    0.5*log(2*pi*std^2) + (y - mean)^2 / (2*std^2).
    """
    s = _as_matrix(samples)
    if s.shape[1] < 2:
        raise ValueError("need at least two samples per row")
    t = _as_truth(truth, s)
    mu = s.mean(axis=1)
    sd = np.maximum(s.std(axis=1, ddof=1), _SIGMA_FLOOR)
    per_row = 0.5 * np.log(2.0 * np.pi * sd ** 2) + (t - mu) ** 2 / (2.0 * sd ** 2)
    return float(per_row.mean())


def qice(truth, samples, n_bins: int = 10) -> float:
    """Quantile interval coverage error, in percent.

    Per row, the S samples define n_bins equal-probability bins via their
    empirical quantiles (linear interpolation).  The true value is assigned to
    the bin it falls in: below the minimum counts as the first bin, above the
    maximum as the last, and a value equal to an interior boundary goes to the
    higher bin.  The score is the mean absolute deviation of the observed bin
    proportions from 1/n_bins, times 100.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    s = _as_matrix(samples)
    if s.shape[1] < n_bins:
        raise ValueError("need at least n_bins samples per row")
    t = _as_truth(truth, s)
    levels = np.arange(1, n_bins) / n_bins
    bounds = np.quantile(s, levels, axis=1)       # (n_bins-1, M) interior boundaries
    bin_idx = (t[None, :] >= bounds).sum(axis=0)  # 0..n_bins-1
    props = np.bincount(bin_idx, minlength=n_bins) / t.shape[0]
    return float(np.abs(props - 1.0 / n_bins).mean() * 100.0)


def piw(samples) -> np.ndarray:
    """Per-row width of the central 95% interval, from the 2.5th to the
    97.5th percentile (linear-interpolation definition)."""
    s = _as_matrix(samples)
    q = np.percentile(s, _PIW_PERCENTILES, axis=1)
    return q[1] - q[0]


@dataclass(frozen=True)
class TTestResult:
    reject: np.ndarray
    t_stat: np.ndarray
    p_value: np.ndarray


def paired_t_test(probs1, alpha: float = 0.05) -> TTestResult:
    """Paired two-sample t-test of the two per-class probability samples.

    With p0 = 1 - p1 the paired differences are d = 2*p1 - 1; the statistic is
    mean(d) * sqrt(S) / std(d) with S-1 degrees of freedom, two-sided.  A
    degenerate std(d) = 0 rejects exactly when mean(d) != 0.
    """
    p1 = _as_matrix(probs1)
    if p1.shape[1] < 2:
        raise ValueError("need at least two samples per row")
    if (p1 < 0).any() or (p1 > 1).any():
        raise ValueError("probabilities must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    d = 2.0 * p1 - 1.0
    s_count = d.shape[1]
    m = d.mean(axis=1)
    sd = d.std(axis=1, ddof=1)
    t = np.zeros(m.shape[0])
    p = np.ones(m.shape[0])
    degenerate = sd == 0.0
    ok = ~degenerate
    t[ok] = m[ok] * np.sqrt(s_count) / sd[ok]
    p[ok] = 2.0 * _st.t.sf(np.abs(t[ok]), df=s_count - 1)
    t[degenerate & (m > 0.0)] = np.inf
    t[degenerate & (m < 0.0)] = -np.inf
    p[degenerate & (m != 0.0)] = 0.0
    return TTestResult(reject=p < alpha, t_stat=t, p_value=p)


def _acc(mask, correct):
    n = int(mask.sum())
    return (float(correct[mask].mean()) if n else float("nan")), n


@dataclass(frozen=True)
class DeferralReport:
    """Confidence/deferral summary tables for a binary classification run.

    ``by_class`` rows: (class, accuracy, mean PIW + count overall / correct /
    incorrect).  ``piw_bins`` rows: (mean PIW, accuracy, count), ascending.
    ``by_ttest``: per alpha, accuracy and count for the rejected and
    fail-to-reject groups.  ``by_class_ttest``: per class and alpha, reject
    rate plus accuracy and count per outcome.  ``blended_accuracy``: overall
    accuracy if every instance's expected correctness were lifted to its
    predicted class's rejected-subset accuracy (deferred cases handled at that
    level); classes with no rejected instances keep their observed accuracy.
    """
    overall_accuracy: float
    by_class: list
    piw_bins: list
    by_ttest: dict
    by_class_ttest: dict
    blended_accuracy: dict

    def to_text(self) -> str:
        out = [f"overall accuracy: {self.overall_accuracy * 100:.2f}%", ""]
        out.append("class  accuracy  piw_all(count)  piw_correct(count)  piw_wrong(count)")
        for r in self.by_class:
            out.append("{:>5}  {:>7.2f}%  {:>9.2f} ({:>4})  {:>11.2f} ({:>4})  {:>9.2f} ({:>4})".format(
                r["class"], r["accuracy"] * 100, r["piw_all"], r["n"],
                r["piw_correct"], r["n_correct"], r["piw_wrong"], r["n_wrong"]))
        out.append("")
        out.append("piw_bin  mean_piw  accuracy  count")
        for i, r in enumerate(self.piw_bins):
            out.append(f"{i + 1:>7}  {r['mean_piw']:>8.4f}  {r['accuracy'] * 100:>7.2f}%  {r['n']:>5}")
        out.append("")
        out.append("alpha  outcome         accuracy  count")
        for alpha, r in self.by_ttest.items():
            out.append(f"{alpha:<5g}  reject          {r['accuracy_reject'] * 100:>7.2f}%  {r['n_reject']:>5}")
            out.append(f"{alpha:<5g}  fail-to-reject  {r['accuracy_fail'] * 100:>7.2f}%  {r['n_fail']:>5}")
        out.append("")
        out.append("alpha  class  reject_rate  acc_reject(count)  acc_fail(count)")
        for alpha, rows in self.by_class_ttest.items():
            for r in rows:
                out.append("{:<5g}  {:>5}  {:>10.2f}%  {:>8.2f}% ({:>4})  {:>6.2f}% ({:>4})".format(
                    alpha, r["class"], r["reject_rate"] * 100,
                    r["accuracy_reject"] * 100, r["n_reject"],
                    r["accuracy_fail"] * 100, r["n_fail"]))
        out.append("")
        for alpha, acc in self.blended_accuracy.items():
            out.append(f"blended deferral accuracy (alpha={alpha:g}): {acc * 100:.2f}%")
        return "\n".join(out)

    def to_csv(self) -> str:
        rows = ["table,key,field,value"]
        rows.append(f"overall,,accuracy,{self.overall_accuracy!r}")
        for r in self.by_class:
            for k in ("accuracy", "piw_all", "n", "piw_correct", "n_correct",
                      "piw_wrong", "n_wrong"):
                rows.append(f"by_class,{r['class']},{k},{r[k]!r}")
        for i, r in enumerate(self.piw_bins):
            for k in ("mean_piw", "accuracy", "n"):
                rows.append(f"piw_bins,{i + 1},{k},{r[k]!r}")
        for alpha, r in self.by_ttest.items():
            for k, v in r.items():
                rows.append(f"by_ttest,{alpha!r},{k},{v!r}")
        for alpha, rs in self.by_class_ttest.items():
            for r in rs:
                for k in ("reject_rate", "accuracy_reject", "n_reject",
                          "accuracy_fail", "n_fail"):
                    rows.append(f"by_class_ttest,{alpha!r}/{r['class']},{k},{r[k]!r}")
        for alpha, acc in self.blended_accuracy.items():
            rows.append(f"blended,{alpha!r},accuracy,{acc!r}")
        return "\n".join(rows) + "\n"


def deferral_report(labels_true, labels_pred, piws,
                    ttests: Dict[float, np.ndarray]) -> DeferralReport:
    """Build the deferral tables from aligned per-row arrays.

    ``ttests`` maps a significance level to the per-row reject decision.  PIW
    bins group by distinct width when few widths occur (tree outputs are
    discrete), else by quartile.
    """
    lt = np.asarray(labels_true)
    lp = np.asarray(labels_pred)
    w = np.asarray(piws, dtype=float)
    if not (lt.shape == lp.shape == w.shape):
        raise ValueError("labels_true, labels_pred and piws must align")
    correct = lt == lp
    m = lt.shape[0]
    overall = float(correct.mean())

    by_class = []
    for c in (0, 1):
        sel = lp == c
        acc, n = _acc(sel, correct)
        piw_all = float(w[sel].mean()) if n else float("nan")
        acc_c, n_c = _acc(sel & correct, np.ones(m, dtype=bool))
        piw_c = float(w[sel & correct].mean()) if n_c else float("nan")
        n_w = int((sel & ~correct).sum())
        piw_w = float(w[sel & ~correct].mean()) if n_w else float("nan")
        by_class.append({"class": c, "accuracy": acc, "n": n,
                         "piw_all": piw_all, "piw_correct": piw_c, "n_correct": n_c,
                         "piw_wrong": piw_w, "n_wrong": n_w})

    distinct = np.unique(w)
    piw_bins = []
    if distinct.shape[0] <= _MAX_DISTINCT_PIW_BINS:
        for v in distinct:
            sel = w == v
            acc, n = _acc(sel, correct)
            piw_bins.append({"mean_piw": float(v), "accuracy": acc, "n": n})
    else:
        qs = np.quantile(w, [0.25, 0.5, 0.75])
        edges = [-np.inf, *qs, np.inf]
        for a, b in zip(edges[:-1], edges[1:]):
            sel = (w > a) & (w <= b)
            acc, n = _acc(sel, correct)
            mean_piw = float(w[sel].mean()) if n else float("nan")
            piw_bins.append({"mean_piw": mean_piw, "accuracy": acc, "n": n})

    by_ttest = {}
    by_class_ttest = {}
    blended = {}
    for alpha, reject in ttests.items():
        reject = np.asarray(reject, dtype=bool)
        acc_r, n_r = _acc(reject, correct)
        acc_f, n_f = _acc(~reject, correct)
        by_ttest[alpha] = {"accuracy_reject": acc_r, "n_reject": n_r,
                           "accuracy_fail": acc_f, "n_fail": n_f}
        rows = []
        lifted = 0.0
        for c in (0, 1):
            sel = lp == c
            n_c = int(sel.sum())
            rate = float(reject[sel].mean()) if n_c else float("nan")
            a_r, k_r = _acc(sel & reject, correct)
            a_f, k_f = _acc(sel & ~reject, correct)
            rows.append({"class": c, "reject_rate": rate,
                         "accuracy_reject": a_r, "n_reject": k_r,
                         "accuracy_fail": a_f, "n_fail": k_f})
            class_acc = a_r if k_r else _acc(sel, correct)[0]
            if n_c:
                lifted += n_c * class_acc
        by_class_ttest[alpha] = rows
        blended[alpha] = lifted / m
    return DeferralReport(overall_accuracy=overall, by_class=by_class,
                          piw_bins=piw_bins, by_ttest=by_ttest,
                          by_class_ttest=by_class_ttest, blended_accuracy=blended)


def format_mean_std(values: Sequence[float]) -> str:
    """``mean ± std`` across folds, the usual benchmark-table presentation."""
    v = np.asarray(values, dtype=float)
    if v.shape[0] == 1:
        return f"{v[0]:{_MEAN_STD_FORMAT}} ± NA"
    return f"{v.mean():{_MEAN_STD_FORMAT}} ± {v.std(ddof=1):{_MEAN_STD_FORMAT}}"
