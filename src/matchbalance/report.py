"""Plain-text report assembly from machine-readable artifacts.

The report performs no computation: every number it prints is copied
verbatim from a JSON artifact produced earlier in the pipeline, so the
document can always be cross-checked against its sources and
regenerating it from the same artifacts is byte-identical.
"""

from __future__ import annotations

from .jsonio import _NUMBER, format_float

_RULE = "-" * 72
_OR_NULL = (*_NUMBER, type(None))  # null when too few bootstrap draws succeeded
# What build_report reads from each optional artifact (``jsonio._check_shape``).
_ARTIFACT_SHAPES = {
    "rank": {"ranked": [{"rank": int, "player": str, "estimate": _NUMBER}],
             "anchored": [str]},
    "lrt": dict.fromkeys(["statistic", "df", "p_value"], _NUMBER),
    "hl": dict.fromkeys(["groups", "statistic", "df", "p_value"], _NUMBER),
    "dispersion": dict.fromkeys(["phi", "n", "p_effective"], _NUMBER),
    "cv": dict.fromkeys(["k", "train_mean", "train_sd", "test_mean", "test_sd", "seed"],
                        _NUMBER),
    "balance": {"pairs": [{"race1": str, "race2": str, "mean": _OR_NULL, "sd": _OR_NULL,
                           "tail_prob": _OR_NULL}],
                "B": _NUMBER, "failed": _NUMBER, "seed": _NUMBER},
    "boot_dispersion": {"mean": _OR_NULL, "sd": _OR_NULL, "B": _NUMBER},
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _pair_label(entry: dict) -> str:
    return f"{entry['race1']} over {entry['race2']}"


def build_report(
    fit: dict,
    *,
    lrt: dict | None = None,
    hl: dict | None = None,
    dispersion: dict | None = None,
    cv: dict | None = None,
    balance: dict | None = None,
    boot_dispersion: dict | None = None,
    rank: dict | None = None,
    residuals_path: str | None = None,
) -> str:
    """Assemble the report; ``fit`` is required, everything else optional."""
    if fit is None:
        raise ValueError("missing fit artifact: run `fit` first")
    lines: list[str] = []
    out = lines.append

    out("Paired-comparison balance report")
    out(_RULE)
    meta = fit["fit"]
    out("Model fit")
    out(f"  columns (p): {_fmt(meta['p'])}")
    out(f"  estimated columns: {_fmt(meta['p_effective'])}")
    out(f"  log-likelihood: {_fmt(meta['log_likelihood'])}")
    out(f"  deviance: {_fmt(meta['deviance'])}")
    out(f"  iterations: {_fmt(meta['iterations'])}")
    out(f"  converged: {_fmt(meta['converged'])}")
    out(f"  l1_lambda: {_fmt(meta['l1_lambda'])}")
    out("")

    out("Player ranking (skill estimates, best first)")
    if rank is not None:
        for entry in rank["ranked"]:
            out(f"  {entry['rank']:>4}  {entry['player']}  {_fmt(entry['estimate'])}")
        anchored = rank["anchored"]
        out(f"  anchored (unranked, fixed at 0): {len(anchored)} players")
        if anchored:
            out("    " + ", ".join(anchored))
    else:
        out("  not run (provide a rank artifact)")
    out("")

    out("Per-map matchup estimates")
    for entry in fit["matchups"]:
        value = _fmt(entry["estimate"]) if entry["observed"] else "no data"
        out(f"  {entry['map']}  {_pair_label(entry)}: {value}")
    out("")

    out("Mean balance over maps (bootstrap)")
    if balance is not None:
        for pair in balance["pairs"]:
            out(
                f"  {_pair_label(pair)}: mean {_fmt(pair['mean'])}"
                f"  sd {_fmt(pair['sd']) if pair['sd'] is not None else 'n/a'}"
                f"  P(>0) {_fmt(pair['tail_prob'])}"
            )
        out(f"  draws: {_fmt(balance['B'])}  failed: {_fmt(balance['failed'])}"
            f"  seed: {_fmt(balance['seed'])}")
    else:
        out("  not run (provide a bootstrap balance artifact)")
    out("")

    out("Diagnostics")
    if lrt is not None:
        out(
            f"  likelihood-ratio vs constant: statistic {_fmt(lrt['statistic'])}"
            f"  df {_fmt(lrt['df'])}  p {_fmt(lrt['p_value'])}"
        )
    else:
        out("  likelihood-ratio vs constant: not run")
    if hl is not None:
        out(
            f"  calibration ({_fmt(hl['groups'])} groups): statistic"
            f" {_fmt(hl['statistic'])}  df {_fmt(hl['df'])}  p {_fmt(hl['p_value'])}"
        )
    else:
        out("  calibration: not run")
    if dispersion is not None:
        out(
            f"  dispersion: phi {_fmt(dispersion['phi'])}"
            f"  (n {_fmt(dispersion['n'])}, p_effective"
            f" {_fmt(dispersion['p_effective'])})"
        )
    else:
        out("  dispersion: not run")
    if boot_dispersion is not None:
        out(
            f"  bootstrap dispersion: mean {_fmt(boot_dispersion['mean'])}"
            f"  sd {_fmt(boot_dispersion['sd']) if boot_dispersion['sd'] is not None else 'n/a'}"
            f"  draws {_fmt(boot_dispersion['B'])}"
        )
    else:
        out("  bootstrap dispersion: not run")
    if cv is not None:
        out(
            f"  {_fmt(cv['k'])}-fold CV accuracy: train {_fmt(cv['train_mean'])}"
            f" +/- {_fmt(cv['train_sd'])}, test {_fmt(cv['test_mean'])}"
            f" +/- {_fmt(cv['test_sd'])} (seed {_fmt(cv['seed'])})"
        )
    else:
        out("  cross-validation: not run")
    out("")

    out("Residual plot data")
    if residuals_path is not None:
        out(f"  {residuals_path}")
    else:
        out("  not run")
    out("")
    return "\n".join(lines)
