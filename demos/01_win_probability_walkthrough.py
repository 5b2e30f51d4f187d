"""How a single win probability is assembled.

Two well-known players meet on a map that slightly favors one race.
The log-odds stack three terms: the first player's skill, minus the
opponent's skill, plus the map's race-matchup edge (stored once per
unordered race pair; the reversed orientation just flips its sign).
"""
import datetime as dt
from dataclasses import replace

import matchbalance as mb
from matchbalance.data import Dataset, MatchRecord

# a tiny match history so the two stars own coefficient columns
records = [
    MatchRecord(i % 2, "Greg Fields", "Zerg", "Jonathan Walsh", "Terran",
                "Xel'Naga Caverns", dt.date(2011, 1, 1 + i), 900 + i)
    for i in range(6)
]
records.append(MatchRecord(0, "newcomer", "Zerg", "Greg Fields", "Zerg",
                           "Xel'Naga Caverns", dt.date(2011, 1, 9), 700))
dataset = Dataset.from_records(records)
index = mb.build_parameter_index(dataset, min_games=2)
fit = mb.fit_irls(mb.build_design(dataset, index))

# inject published-style skill ratings: Greg 2.098, Jonathan 1.797, and a
# 0.0632 Zerg-over-Terran edge on this map (canonical Terran-over-Zerg
# orientation stores its negation)
beta = fit.coefficients.copy()
beta[index.player_columns["Greg Fields"]] = 2.098
beta[index.player_columns["Jonathan Walsh"]] = 1.797
beta[index.matchup_columns["Xel'Naga Caverns", ("Terran", "Zerg")]] = -0.0632
fit = replace(fit, coefficients=beta)

detail = mb.predict_detail(fit, "Greg Fields", "Jonathan Walsh",
                           "Zerg", "Terran", "Xel'Naga Caverns")
print("contributions to the log-odds:")
for term, value in detail["contributions"].items():
    print(f"  {term:>8}: {value:+.4f}")
print(f"log-odds = {detail['eta']:.5f}")
print(f"P(Greg Fields wins) = {detail['probability']:.4f}")

mirror = mb.predict_detail(fit, "Jonathan Walsh", "Greg Fields",
                           "Terran", "Zerg", "Xel'Naga Caverns")
print(f"P(Jonathan Walsh wins) = {mirror['probability']:.4f}"
      f"  (the two always sum to 1)")

# players the model has never seen fall back to even money
unknown = mb.predict_detail(fit, "somebody", "anybody", "Zerg", "Zerg",
                            "Xel'Naga Caverns")
print(f"two strangers, same race: P = {unknown['probability']:.2f}, "
      f"unknown inputs: {unknown['unknown_inputs']}")
