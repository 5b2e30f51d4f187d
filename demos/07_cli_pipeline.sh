#!/usr/bin/env bash
# End-to-end pipeline through the command line: simulate a league, fit,
# run every diagnostic, bootstrap the balance statistic, and assemble
# the report.  Everything is seeded, so re-running reproduces the same
# bytes.  It runs from a checkout: the CLI is the checkout's own, run as
# `python3 -m matchbalance` with its src directory first on PYTHONPATH, so
# no installed `matchbalance` script is needed.
set -euo pipefail

src=$(cd "$(dirname "$0")/../src" && pwd)
matchbalance() {
    PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python3 -m matchbalance "$@"
}

out=$(mktemp -d)
echo "writing artifacts to $out"

# tournament-tail scheduling leaves a casual cohort in every race, so the
# anchoring threshold has players to work with (as in real tournament data)
matchbalance simulate --players 60 --maps 3 --games 3000 --seed 7 \
    --schedule tournament_tail --out "$out/games.csv" --truth "$out/truth.json"

matchbalance describe --input "$out/games.csv" --out "$out/stats"
matchbalance fit --input "$out/games.csv" --min-games 6 --out "$out/fit.json"
matchbalance rank --fit "$out/fit.json" --out "$out/rank.json"

matchbalance diagnose lrt        --input "$out/games.csv" --out "$out/lrt.json"
matchbalance diagnose hl         --input "$out/games.csv" --out "$out/hl.json"
matchbalance diagnose dispersion --input "$out/games.csv" --out "$out/dispersion.json"
matchbalance diagnose residuals  --input "$out/games.csv" --out "$out/residuals.csv"
matchbalance cv --input "$out/games.csv" --folds 10 --seed 1 --out "$out/cv.json"

matchbalance bootstrap balance    --input "$out/games.csv" -B 200 --seed 2 \
    --jobs 2 --out "$out/balance"
matchbalance bootstrap dispersion --input "$out/games.csv" -B 200 --seed 2 \
    --out "$out/bdisp"

matchbalance predict --fit "$out/fit.json" \
    --player1 player_003 --race1 "$(python3 -c "
import json; t=json.load(open('$out/truth.json'))
print(next(p['race'] for p in t['players'] if p['player']=='player_003'))")" \
    --player2 player_007 --race2 "$(python3 -c "
import json; t=json.load(open('$out/truth.json'))
print(next(p['race'] for p in t['players'] if p['player']=='player_007'))")" \
    --map map_00

matchbalance report --fit "$out/fit.json" --rank "$out/rank.json" \
    --lrt "$out/lrt.json" --hl "$out/hl.json" \
    --dispersion "$out/dispersion.json" --cv "$out/cv.json" \
    --balance "$out/balance.json" --boot-dispersion "$out/bdisp.json" \
    --residuals "$out/residuals.csv" --out "$out/report.txt"

echo
echo "==== report ===="
cat "$out/report.txt"
