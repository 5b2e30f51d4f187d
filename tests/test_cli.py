import csv
import datetime as dt
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchbalance as mb
from matchbalance import bootstrap as bt
from matchbalance.cli import main
from matchbalance.data import MatchRecord
from matchbalance.glm import fit_from_obj
from matchbalance.jsonio import load_json
from helpers import simple_league


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def league_csv(tmp_path):
    _, d = simple_league(100, n_players=12, n_maps=2, n=500)
    path = tmp_path / "games.csv"
    path.write_text(mb.dataset_to_csv(d), encoding="utf-8")
    return path


def test_usage_errors_exit_1(capsys, tmp_path):
    assert run("fit", "--input") == 1
    assert run("no-such-command") == 1
    assert run("fit") == 1  # missing required --out/--input
    err = capsys.readouterr().err
    assert "usage" in err
    # the cap on |eta| is fixed, not a flag
    assert run("fit", "--input", "games.csv", "--out", tmp_path / "fit.json",
               "--eta-cap", 30) == 1
    assert "unrecognized arguments: --eta-cap 30" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (("bootstrap", "balance", "--jobs", 0), "--jobs"),
    (("bootstrap", "dispersion", "-B", 0), "-B"),
    (("cv", "--folds", 1), "--folds"),
    (("lasso", "--folds", 1), "--folds"),
    (("lasso", "--grid-size", 0), "--grid-size"),
    (("diagnose", "hl", "--groups", 1), "--groups"),
    (("fit", "--min-games", 0), "--min-games"),
    (("fit", "--max-iter", 0), "--max-iter"),
    (("fit", "--max-iter", "many"), "--max-iter"),
    (("bootstrap", "dispersion", "-B", 1), "-B"),
    (("fit", "--tol", 0), "--tol"),
    (("fit", "--tol", "nan"), "--tol"),
    (("fit", "--tol", "inf"), "--tol"),
    (("lasso", "--l1", -0.5), "--l1"),
    (("lasso", "--l1", "nan"), "--l1"),
    (("cv", "--seed", -1), "--seed"),
    (("lasso", "--seed", -1), "--seed"),
    (("bootstrap", "balance", "--seed", -1), "--seed"),
    (("simulate", "--players", 5, "--games", 10, "--seed", -1), "--seed"),
    (("simulate", "--players", 1, "--games", 10), "--players"),
    (("simulate", "--players", 5, "--maps", 0, "--games", 10), "--maps"),
    (("simulate", "--players", 5, "--games", 0), "--games"),
    (("simulate", "--players", 5, "--games", -5), "--games"),
    (("simulate", "--players", 5, "--games", 10, "--skill-sd", -1), "--skill-sd"),
    (("simulate", "--players", 5, "--games", 10, "--skill-sd", "nan"), "--skill-sd"),
    (("simulate", "--players", 5, "--games", 10, "--matchup-sd", "inf"), "--matchup-sd"),
])
def test_out_of_range_flags_exit_1(argv, flag, league_csv, tmp_path, capsys):
    assert run(*argv, "--input", league_csv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "usage" in err and f"argument {flag}" in err
    assert not list(tmp_path.glob("out*"))


def test_data_errors_exit_2(tmp_path, capsys, league_csv):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n", encoding="utf-8")
    assert run("fit", "--input", bad, "--out", tmp_path / "x.json") == 2
    assert run("fit", "--input", tmp_path / "missing.csv",
               "--out", tmp_path / "x.json") == 2
    assert "error" in capsys.readouterr().err

    assert run("fit", "--input", league_csv, "--out", tmp_path / "fit.json") == 0
    good = load_json(tmp_path / "fit.json")
    # the layout before components left the index block, which copied the columns
    legacy = {k: v for k, v in good.items() if k != "components"}
    legacy["index"] = {"p": good["fit"]["p"], "components": good["components"]}
    mistyped = json.loads(json.dumps(good))
    mistyped["players"][0]["estimate"] = "0.5"
    bad_fits = {"missing_key": {k: v for k, v in good.items() if k != "fit"},
                "wrong_shape": [1, 2], "legacy": legacy, "mistyped": mistyped}
    player = good["players"][0]["player"]
    readers = [("rank", "--out", tmp_path / "rank.json"),
               ("report", "--out", tmp_path / "report.txt"),
               ("predict", "--player1", player, "--race1", "Zerg", "--player2", "nobody",
                "--race2", "Zerg", "--map", "map_00")]
    capsys.readouterr()
    for name, obj in bad_fits.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        for argv in readers:
            assert run(*argv, "--fit", path) == 2
            assert f"error: {path}: not a fit artifact" in capsys.readouterr().err

    # the other artifacts report reads: exit 2 naming the file and the key
    bad_sides = [("--rank", [1, 2], "missing key 'ranked'"),
                 ("--lrt", [1, 2], "missing key 'statistic'"),
                 ("--cv", {"ranked": []}, "missing key 'k'"),
                 ("--balance", {"ranked": []}, "missing key 'pairs'"),
                 ("--rank", {"ranked": [{"rank": 1, "player": "A"}], "anchored": []},
                  "missing key 'estimate'"),
                 ("--rank", {"ranked": [], "anchored": [3]},
                  "key 'anchored' holds a int"),
                 ("--hl", {"groups": 10, "statistic": "1.5", "df": 8, "p_value": 0.5},
                  "key 'statistic' holds a str"),
                 ("--boot-dispersion", {"mean": None, "sd": None}, "missing key 'B'")]
    for flag, obj, message in bad_sides:
        path = tmp_path / "side.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run("report", "--fit", tmp_path / "fit.json", flag, path,
                   "--out", tmp_path / "report.txt") == 2
        kind = flag[2:].replace("-", "_")
        assert f"error: {path}: not a {kind} artifact: {message}" in capsys.readouterr().err

    # more folds than records: lasso's penalty selection refuses, as cv does
    rows = league_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("".join(rows[:6]), encoding="utf-8")
    for command in ("cv", "lasso"):
        assert run(command, "--input", tiny, "--folds", 10,
                   "--out", tmp_path / "x.json") == 2
        assert "need at least 10 records" in capsys.readouterr().err


def test_fit_artifact_contradictions_exit_2(league_csv, tmp_path, capsys):
    assert run("fit", "--input", league_csv, "--out", tmp_path / "fit.json") == 0
    good = load_json(tmp_path / "fit.json")
    fitted, anchored = good["players"][0]["player"], good["anchored_players"]
    assert anchored
    # an artifact from before the cap on |eta| was fixed carries it as a key
    older = json.loads(json.dumps(good))
    older["fit"]["eta_cap"] = 30.0
    back, fit = fit_from_obj(older), fit_from_obj(good)
    assert back.coefficients.tobytes() == fit.coefficients.tobytes()
    assert (back.log_likelihood, back.deviance) == (fit.log_likelihood, fit.deviance)

    def changed(change):
        obj = json.loads(json.dumps(good))
        change(obj)
        return obj

    swapped = good["matchups"][:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    bad_fits = [
        (changed(lambda o: o["fit"].update(p=o["fit"]["p"] + 1)),
         "key 'p' is .*, but the columns give"),
        (changed(lambda o: o["fit"].update(p_effective=o["fit"]["p_effective"] - 1)),
         "key 'p_effective' is .*, but the columns give"),
        (changed(lambda o: o.update(matchups=swapped)), "not in column layout"),
        (changed(lambda o: o["anchored_players"].append(fitted)),
         f"player '{fitted}' is both fitted and anchored"),
        (changed(lambda o: o["fit"].update(log_likelihood=o["fit"]["log_likelihood"] - 1)),
         "key 'log_likelihood' is .*, but -deviance / 2 is"),
    ]
    path = tmp_path / "bad.json"
    for obj, message in bad_fits:
        with pytest.raises(ValueError, match=message):
            fit_from_obj(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert run("rank", "--fit", path, "--out", tmp_path / "rank.json") == 2
        assert f"error: {path}: not a fit artifact" in capsys.readouterr().err
    assert not (tmp_path / "rank.json").exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_artifact_numbers_exit_2(token, league_csv, tmp_path, capsys):
    """A number JSON parsers read as NaN or an infinity is a data error
    naming the file and the token, whichever key holds it."""
    assert run("fit", "--input", league_csv, "--out", tmp_path / "fit.json") == 0
    assert run("diagnose", "lrt", "--input", league_csv,
               "--out", tmp_path / "lrt.json") == 0
    good = load_json(tmp_path / "fit.json")

    def planted(name, obj, *keys):
        """A file ``name`` holding ``obj`` with ``token`` as the value at
        each key path."""
        obj = json.loads(json.dumps(obj))
        for *parents, last in keys:
            target = obj
            for key in parents:
                target = target[key]
            target[last] = "@"
        out = tmp_path / name
        out.write_text(json.dumps(obj).replace('"@"', token), encoding="utf-8")
        return out

    player = good["players"][0]["player"]
    readers = [("rank", "--out", tmp_path / "rank.json"),
               ("report", "--out", tmp_path / "report.txt"),
               ("predict", "--player1", player, "--race1", "Zerg", "--player2", "nobody",
                "--race2", "Zerg", "--map", "map_00")]
    fits = [planted("estimate.json", good, ("players", 0, "estimate")),
            planted("deviance.json", good, ("fit", "deviance"), ("fit", "log_likelihood"))]
    capsys.readouterr()
    for path in fits:
        for argv in readers:
            assert run(*argv, "--fit", path) == 2
            err = capsys.readouterr().err
            assert f"error: {path}: not a fit artifact: number {token} is not finite" in err
    lrt = planted("statistic.json", load_json(tmp_path / "lrt.json"), ("statistic",))
    assert run("report", "--fit", tmp_path / "fit.json", "--lrt", lrt,
               "--out", tmp_path / "report.txt") == 2
    err = capsys.readouterr().err
    assert f"error: {lrt}: not a lrt artifact: number {token} is not finite" in err
    assert not (tmp_path / "rank.json").exists() and not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("module", ["matchbalance", "matchbalance.cli"])
def test_module_entry_points_run_the_cli(module, tmp_path):
    src = Path(mb.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", module, "fit", "--input", tmp_path / "missing.csv",
         "--out", tmp_path / "x.json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 2
    assert "error:" in result.stderr and "missing.csv" in result.stderr


def test_simulate_then_fit_round_trip(tmp_path):
    games = tmp_path / "games.csv"
    truth = tmp_path / "truth.json"
    assert run("simulate", "--players", 10, "--maps", 2, "--games", 400,
               "--seed", 5, "--out", games, "--truth", truth) == 0
    assert run("fit", "--input", games, "--min-games", 4,
               "--out", tmp_path / "fit.json") == 0
    obj = load_json(tmp_path / "fit.json")
    fit = fit_from_obj(obj)
    assert fit.converged
    assert obj["fit"]["p"] == fit.index.p
    truth_obj = load_json(truth)
    assert len(truth_obj["players"]) == 10
    assert len(truth_obj["matchup_effects"]) == 6


def test_fit_rerun_byte_identical(league_csv, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("fit", "--input", league_csv, "--out", out1) == 0
    assert run("fit", "--input", league_csv, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_ingest_writes_clean_csv_and_log(tmp_path, league_csv):
    raw = tmp_path / "raw.csv"
    rows = league_csv.read_text(encoding="utf-8").rstrip("\n").split("\n")
    rows.append("1,strange,random,other,Terran,SomeMap,2011-02-03,50")
    raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
    clean = tmp_path / "clean.csv"
    log = tmp_path / "log.json"
    assert run("ingest", "--input", raw, "--out", clean, "--log", log) == 0
    cleaned = mb.parse_matches(clean.read_text(encoding="utf-8"))
    assert "strange" not in cleaned.players
    log_obj = load_json(log)
    assert log_obj["kept"] == len(cleaned)
    assert len(log_obj["removed"]) == 1
    assert "random" in log_obj["removed"][0]["reason"]


def test_ingest_keeps_crlf_inside_quoted_names(tmp_path):
    d = mb.Dataset.from_records([
        MatchRecord(1, "a\r\nb", "Terran", "c", "Zerg", "Lost\r\nTemple", dt.date(2011, 1, 1), 5),
        MatchRecord(0, "c", "Zerg", "d\ne", "Protoss", "M", dt.date(2011, 1, 2), 6)])
    raw, clean = tmp_path / "raw.csv", tmp_path / "clean.csv"
    raw.write_bytes(mb.dataset_to_csv(d).encode("utf-8"))
    assert run("ingest", "--input", raw, "--out", clean) == 0
    assert clean.read_bytes() == raw.read_bytes()


def test_input_saved_with_a_bom_reads_as_without(league_csv, tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + league_csv.read_bytes())
    assert run("fit", "--input", bom, "--out", tmp_path / "bom.json") == 0
    assert run("fit", "--input", league_csv, "--out", tmp_path / "plain.json") == 0
    assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_csv_syntax_error_exits_2_naming_its_line(league_csv, tmp_path, capsys):
    rows = league_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    huge = "x" * (csv.field_size_limit() + 1)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(rows[:4]) + f"1,{huge},Terran,B,Zerg,M,2011-01-01,1\n",
                   encoding="utf-8")
    assert run("fit", "--input", bad, "--out", tmp_path / "fit.json") == 2
    assert "error: line 5: malformed CSV: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("good_rows", [3, 10_000])  # 10,000 rows pass the decoder's first buffer
def test_input_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys, good_rows):
    bad = tmp_path / "bad.csv"
    row = b"1,a,Terran,b,Zerg,M,2011-01-01,100\n"
    bad.write_bytes(b"winner,player1,race1,player2,race2,map,date,duration_seconds\n"
                    + row * good_rows + row.replace(b"a,", b"\xffa,") + row)
    assert run("fit", "--input", bad, "--out", tmp_path / "fit.json") == 2
    assert capsys.readouterr().err == f"error: {bad}: line {good_rows + 2} is not UTF-8 text\n"


def test_describe_outputs(league_csv, tmp_path):
    prefix = tmp_path / "stats"
    assert run("describe", "--input", league_csv, "--out", prefix) == 0
    obj = load_json(f"{prefix}.json")
    assert set(obj["race_counts"]) == set(mb.RACES)
    assert sum(e["games"] for e in obj["pair_frequencies"]) == 500
    assert (tmp_path / "stats_games_per_player.csv").exists()
    assert (tmp_path / "stats_pair_wins.csv").exists()
    assert (tmp_path / "stats_monthly_trend.csv").exists()


def test_diagnose_subcommands(league_csv, tmp_path):
    for check, suffix in (("lrt", "json"), ("hl", "json"),
                          ("dispersion", "json"), ("residuals", "csv")):
        out = tmp_path / f"{check}.{suffix}"
        assert run("diagnose", check, "--input", league_csv,
                   "--min-games", 4, "--out", out) == 0
    lrt = load_json(tmp_path / "lrt.json")
    assert lrt["statistic"] > 0 and 0 <= lrt["p_value"] <= 1
    hl = load_json(tmp_path / "hl.json")
    assert hl["df"] == 8 and len(hl["group_table"]) == 10
    disp = load_json(tmp_path / "dispersion.json")
    assert disp["phi"] > 0
    lines = (tmp_path / "residuals.csv").read_text().strip().split("\n")
    assert lines[0] == "fitted,pearson_residual"
    assert len(lines) == 501


def test_cv_and_lasso_and_rank(league_csv, tmp_path):
    assert run("cv", "--input", league_csv, "--folds", 4, "--seed", 2,
               "--min-games", 4, "--out", tmp_path / "cv.json") == 0
    cv = load_json(tmp_path / "cv.json")
    assert cv["k"] == 4 and len(cv["per_fold"]) == 4
    assert 0 <= cv["test_mean"] <= 1

    assert run("lasso", "--input", league_csv, "--l1", "2.0",
               "--out", tmp_path / "lasso.json") == 0
    lasso = load_json(tmp_path / "lasso.json")
    assert lasso["fit"]["l1_lambda"] == 2.0
    assert lasso["anchored_players"] == []

    # without --l1 the penalty is selected by CV over the default grid
    args = ("lasso", "--input", league_csv, "--folds", 4, "--seed", 3)
    assert run(*args, "--out", tmp_path / "cv_lasso.json") == 0
    assert run(*args, "--out", tmp_path / "cv_lasso2.json") == 0
    assert ((tmp_path / "cv_lasso.json").read_bytes()
            == (tmp_path / "cv_lasso2.json").read_bytes())
    with open(league_csv, encoding="utf-8") as fh:
        d = mb.filter_valid(mb.parse_matches(fh))
    idx = mb.build_parameter_index(d, min_games=1, ensure_identifiable=False)
    grid = mb.default_lambda_grid(mb.build_design(d, idx)).tolist()
    assert load_json(tmp_path / "cv_lasso.json")["fit"]["selected_lambda"] in grid

    assert run("fit", "--input", league_csv, "--min-games", 4,
               "--out", tmp_path / "fit.json") == 0
    assert run("rank", "--fit", tmp_path / "fit.json",
               "--out", tmp_path / "rank.json") == 0
    rank = load_json(tmp_path / "rank.json")
    estimates = [e["estimate"] for e in rank["ranked"]]
    assert estimates == sorted(estimates, reverse=True)
    assert [e["rank"] for e in rank["ranked"]] == list(range(1, len(estimates) + 1))


def test_bootstrap_outputs_and_determinism(league_csv, tmp_path):
    args = ("bootstrap", "balance", "--input", league_csv, "-B", 12,
            "--seed", 7, "--min-games", 4)
    assert run(*args, "--out", tmp_path / "bb") == 0
    assert run(*args, "--out", tmp_path / "bb2") == 0
    assert (tmp_path / "bb.json").read_bytes() == (tmp_path / "bb2.json").read_bytes()
    assert (tmp_path / "bb_draws.csv").read_bytes() == (tmp_path / "bb2_draws.csv").read_bytes()

    obj = load_json(tmp_path / "bb.json")
    assert obj["kind"] == "balance" and obj["B"] == 12
    draws = (tmp_path / "bb_draws.csv").read_text().strip().split("\n")
    assert draws[0] == "draw,terran_over_protoss,terran_over_zerg,protoss_over_zerg"
    assert len(draws) == 13 - obj["failed"]
    # summary means recomputable from the draws file
    rows = [list(map(float, line.split(","))) for line in draws[1:]]
    for j, pair_obj in enumerate(obj["pairs"]):
        column = [row[j + 1] for row in rows]
        assert np.mean(column) == pytest.approx(pair_obj["mean"], rel=1e-12)
        assert np.mean([v > 0 for v in column]) == pytest.approx(pair_obj["tail_prob"])

    assert run("bootstrap", "dispersion", "--input", league_csv, "-B", 8,
               "--seed", 3, "--min-games", 4, "--out", tmp_path / "bd") == 0
    bd = load_json(tmp_path / "bd.json")
    assert bd["kind"] == "dispersion"
    assert bd["mean"] > 0


def test_predict_stdout(league_csv, tmp_path, capsys):
    assert run("fit", "--input", league_csv, "--min-games", 4,
               "--out", tmp_path / "fit.json") == 0
    fit = fit_from_obj(load_json(tmp_path / "fit.json"))
    players = sorted(fit.index.player_columns)
    capsys.readouterr()
    assert run("predict", "--fit", tmp_path / "fit.json",
               "--player1", players[0], "--race1", "Terran",
               "--player2", players[1], "--race2", "Zerg",
               "--map", fit.index.maps[0]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"probability", "eta", "contributions", "unknown_inputs"}
    assert payload["probability"] == pytest.approx(
        mb.win_probability(fit, players[0], players[1], "Terran", "Zerg",
                           fit.index.maps[0])
    )
    # unknown map is a data error
    assert run("predict", "--fit", tmp_path / "fit.json",
               "--player1", players[0], "--race1", "Terran",
               "--player2", players[1], "--race2", "Zerg",
               "--map", "nowhere") == 2


def test_report_requires_fit_and_marks_missing_sections(league_csv, tmp_path, capsys):
    assert run("fit", "--input", league_csv, "--min-games", 4,
               "--out", tmp_path / "fit.json") == 0
    assert run("diagnose", "lrt", "--input", league_csv, "--min-games", 4,
               "--out", tmp_path / "lrt.json") == 0
    out = tmp_path / "report.txt"
    assert run("report", "--fit", tmp_path / "fit.json",
               "--lrt", tmp_path / "lrt.json", "--out", out) == 0
    text = out.read_text(encoding="utf-8")
    assert "not run" in text            # sections without artifacts
    assert "likelihood-ratio vs constant: statistic" in text
    # every statistic printed in the report appears in a source artifact
    lrt = load_json(tmp_path / "lrt.json")
    from matchbalance.jsonio import format_float
    assert format_float(lrt["statistic"]) in text
    assert format_float(lrt["p_value"]) in text
    fit_obj = load_json(tmp_path / "fit.json")
    assert format_float(fit_obj["fit"]["log_likelihood"]) in text

    out2 = tmp_path / "report2.txt"
    assert run("report", "--fit", tmp_path / "fit.json",
               "--lrt", tmp_path / "lrt.json", "--out", out2) == 0
    assert out.read_bytes() == out2.read_bytes()

    assert run("report", "--fit", tmp_path / "nofit.json", "--out", out) == 2


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the planted draw reaches workers only by fork")
def test_bootstrap_dead_worker_exits_2(league_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bt, "_run_draws", lambda *args: os._exit(9))
    assert run("bootstrap", "balance", "--input", league_csv, "-B", 4, "--jobs", 2,
               "--min-games", 4, "--out", tmp_path / "bb") == 2
    assert "worker process died" in capsys.readouterr().err
    assert not (tmp_path / "bb.json").exists()


def test_full_pipeline_report_cross_matches(league_csv, tmp_path):
    fit_p = tmp_path / "fit.json"
    rank_p = tmp_path / "rank.json"
    bb_p = tmp_path / "bb"
    hl_p = tmp_path / "hl.json"
    disp_p = tmp_path / "disp.json"
    cv_p = tmp_path / "cv.json"
    assert run("fit", "--input", league_csv, "--min-games", 4, "--out", fit_p) == 0
    assert run("rank", "--fit", fit_p, "--out", rank_p) == 0
    assert run("bootstrap", "balance", "--input", league_csv, "-B", 10,
               "--seed", 1, "--min-games", 4, "--out", bb_p) == 0
    assert run("diagnose", "hl", "--input", league_csv, "--min-games", 4,
               "--out", hl_p) == 0
    assert run("diagnose", "dispersion", "--input", league_csv, "--min-games", 4,
               "--out", disp_p) == 0
    assert run("cv", "--input", league_csv, "--folds", 4, "--seed", 2,
               "--min-games", 4, "--out", cv_p) == 0
    report_p = tmp_path / "report.txt"
    assert run("report", "--fit", fit_p, "--rank", rank_p,
               "--balance", f"{bb_p}.json", "--hl", hl_p,
               "--dispersion", disp_p, "--cv", cv_p,
               "--residuals", "residuals.csv", "--out", report_p) == 0
    text = report_p.read_text(encoding="utf-8")
    assert "not run" not in text or text.count("not run") <= 2  # lrt/boot-disp absent
    from matchbalance.jsonio import format_float
    for artifact in (load_json(f"{bb_p}.json")["pairs"]):
        assert format_float(artifact["tail_prob"]) in text
    assert format_float(load_json(cv_p)["test_mean"]) in text
    assert format_float(load_json(disp_p)["phi"]) in text
