"""Win-probability queries and skill rankings over a fitted model."""

from __future__ import annotations

from .design import canonical_orientation
from .glm import FitResult, sigmoid


def _terms(fit: FitResult, player1: str, player2: str, race1: str, race2: str,
           map_name: str) -> tuple[float, float, float, float]:
    """The linear predictor of a query and its player1, player2 and matchup
    terms; raises ValueError for a query the model cannot answer."""
    if player1 == player2:
        raise ValueError(f"player1 and player2 are both {player1!r}")
    pair, sign = canonical_orientation(race1, race2)  # raises on unrecognized races
    if pair is not None and (map_name, pair) not in fit.index.matchup_columns:
        raise ValueError(f"unknown map {map_name!r}")
    c1 = fit.player_estimate(player1)
    c2 = -fit.player_estimate(player2)
    cm = sign * fit.matchup_estimate(map_name, pair) if pair is not None else 0.0
    return c1 + c2 + cm, c1, c2, cm


def predict_detail(
    fit: FitResult,
    player1: str,
    player2: str,
    race1: str,
    race2: str,
    map_name: str,
) -> dict:
    """Win probability for player1 plus the per-term breakdown.

    Anchored players contribute 0 by construction; players absent from
    the fit entirely also contribute 0 but are reported in
    ``unknown_inputs`` so callers can tell an informed prediction from
    a 50-50-by-ignorance one.  For a cross-race game the map must be
    known to the fit.
    """
    eta, c1, c2, cm = _terms(fit, player1, player2, race1, race2, map_name)
    unknown = [
        name
        for name, player in (("player1", player1), ("player2", player2))
        if not fit.index.knows_player(player)
    ]
    return {
        "probability": sigmoid(eta),
        "eta": eta,
        "contributions": {"player1": c1, "player2": c2, "matchup": cm},
        "unknown_inputs": unknown,
    }


def win_probability(
    fit: FitResult,
    player1: str,
    player2: str,
    race1: str,
    race2: str,
    map_name: str,
) -> float:
    """Probability that player1 beats player2 with these races on this map:
    ``predict_detail``'s probability, without its breakdown.

    The terms come from the fit's lookup (``FitResult._lookup``); a query
    it cannot answer (one player on both sides, an unrecognized race tag,
    a map the fit does not know) goes through ``_terms``, which answers
    it or raises."""
    players, terms = fit._lookup
    term = terms.get((map_name, race1, race2))
    if term is None or player1 == player2:
        return sigmoid(_terms(fit, player1, player2, race1, race2, map_name)[0])
    return sigmoid(players.get(player1, 0.0) - players.get(player2, 0.0) + term)


def rank_players(fit: FitResult) -> list[tuple[str, float]]:
    """Players sorted by fitted skill, best first.

    Ties break lexicographically by id.  Anchored players follow the
    ranked list (unranked, skill fixed at 0).
    """
    ranked = sorted(
        ((player, float(fit.coefficients[col]))
         for player, col in fit.index.player_columns.items()),
        key=lambda item: (-item[1], item[0]),
    )
    ranked.extend((player, 0.0) for player in sorted(fit.index.anchored_players))
    return ranked
