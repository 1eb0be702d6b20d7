"""Command-line runner: config resolution, output files, determinism and
error reporting.  Experiments are exercised with deliberately small
iteration counts; statistical quality is the acceptance suite's job."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayescomp import cli, core
from bayescomp.capture import capture_draws
from bayescomp.cli import ConfigError, main, resolve_config, run_experiment
from bayescomp.core import RngStream
from bayescomp.datasets import bundled_pima_path, load_pima
from bayescomp.evidence import (
    LinearGaussianOmega,
    PhiSpec,
    bayes_factor,
    bridge_embedded,
    chib_marginal,
    harmonic_mean_gd,
    newton_raftery_hm,
)
from bayescomp.mcmc import Chain, chain_diagnostics, probit_gibbs_chains
from bayescomp.model import log_posterior
from bayescomp.pmc import pmc_run
from bayescomp.probit import ProbitModel, probit_bayes_model, probit_latent_completion

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHAIN_EXPERIMENTS = ("mh", "gibbs", "mwg", "mixture-demo")


# each experiment's resolved config keys: the keys its runner reads
_PIMA_CHAIN = {"seed", "replicates", "data", "iterations"}
DECLARED_KEYS = {
    "mle": {"seed", "replicates", "data"},
    "mh": _PIMA_CHAIN | {"scale_multiplier", "covariates"},
    "gibbs": _PIMA_CHAIN | {"covariates"},
    "mwg": _PIMA_CHAIN | {"burn_in", "covariate", "beta_step_var", "logsigma_step_var"},
    "pmc": {"seed", "replicates", "particles", "generations", "n_data", "weight",
            "mu1", "mu2", "sigma2", "q0_scale", "density_form"},
    "evidence": {"seed", "replicates", "data", "method", "n_draws"},
    "abc": {"seed", "replicates", "data", "particles", "generations", "quantile"},
    "capture": {"seed", "replicates", "n1", "c2", "c3", "n_max", "iterations"},
    "mixture-demo": {"seed", "replicates", "iterations", "tau", "n_data", "weight",
                     "mu1", "mu2", "sigma2"},
}
# the settable keys that not every experiment reads: a value for each, and
# its flag and flag value where it has one
SHARED_KEYS = {"data": ("/no/such.csv", "--data", "/no/such.csv"),
               "coverage": (0.5, None, None)}
# keys and flags that no experiment has any more: chains keep every state
REMOVED_KEYS = {"thin"}
REMOVED_FLAGS = ("--thin", "--burn-in")
EVIDENCE_METHODS = ("prior-mc", "importance", "harmonic-gd", "harmonic-nr",
                    "chib", "bridge-embedded")


# one-stream experiments at sizes that run in well under a second
_TINY = {"pmc": {"particles": 100, "generations": 2, "n_data": 50},
         "abc": {"particles": 100, "generations": 2, "quantile": 0.5}}


def _failing_on(fn, stream_id):
    """`fn`, raising instead when its stream argument has `stream_id`."""
    def wrapper(*args, **kwargs):
        rng, = (a for a in args if isinstance(a, RngStream))
        if rng.stream_id == stream_id:
            raise FloatingPointError(f"no luck on stream {stream_id}")
        return fn(*args, **kwargs)
    return wrapper


def run_cli(tmp_path, experiment, config=None, extra=None, subdir="out"):
    out = tmp_path / subdir
    argv = [experiment, "--out", str(out)]
    if config is not None:
        cfg = tmp_path / f"{subdir}.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    argv += extra or []
    code = main(argv)
    return code, out


class TestResolveConfig:
    def test_defaults_filled_in(self):
        config = resolve_config("gibbs", {})
        assert config["iterations"] == 10_000
        assert config["covariates"] == ["glu", "bp", "ped"]
        assert config["seed"] == 0 and config["replicates"] == 1

    def test_overrides_win(self):
        config = resolve_config("gibbs", {"iterations": 50, "seed": 9})
        assert config["iterations"] == 50 and config["seed"] == 9

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError, match="iterations_typo"):
            resolve_config("gibbs", {"iterations_typo": 50})

    def test_keys_of_other_experiments_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("mle", {"iterations": 50})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            resolve_config("frequentist", {})

    def test_replicate_and_postprocess_bounds(self):
        with pytest.raises(ConfigError):
            resolve_config("mle", {"replicates": 0})
        with pytest.raises(ConfigError):
            resolve_config("mwg", {"burn_in": -1})
        # the reported SDs need at least two kept states: mwg's after its
        # burn-in, every state of the other chains
        for raw in ({"iterations": 100, "burn_in": 200},
                    {"iterations": 100, "burn_in": 99},
                    {"iterations": 0}):
            with pytest.raises(ConfigError, match="keep"):
                resolve_config("mwg", raw)
        assert resolve_config("mwg", {"iterations": 100, "burn_in": 98})["burn_in"] == 98
        for experiment in ("mh", "gibbs", "mixture-demo"):
            with pytest.raises(ConfigError, match="^iterations must be an integer >= 2"):
                resolve_config(experiment, {"iterations": 1})
            assert resolve_config(experiment, {"iterations": 2})["iterations"] == 2
        # mle keeps no states, so it has no burn-in
        with pytest.raises(ConfigError, match="burn_in"):
            resolve_config("mle", {"burn_in": 200})

    @pytest.mark.parametrize("experiment, raw", [
        ("gibbs", {"replicates": 2.5}), ("gibbs", {"iterations": 300.0}),
        ("gibbs", {"seed": "5"}), ("capture", {"replicates": 2.0}),
        ("mle", {"seed": 7.5}), ("abc", {"particles": True}),
        ("pmc", {"generations": None}), ("capture", {"n_max": 60.0}),
        ("mwg", {"burn_in": 2.5}), ("mwg", {"burn_in": "5"})])
    def test_integer_keys_take_integers(self, tmp_path, capsys, experiment, raw):
        (key,) = raw
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            resolve_config(experiment, raw)
        code, out = run_cli(tmp_path, experiment, raw)
        _assert_refused(code, out, capsys, key)
        # float keys still take ints, and n_max None or an int
        assert resolve_config("pmc", {"mu2": 3})["mu2"] == 3
        assert resolve_config("capture", {"n_max": 60})["n_max"] == 60
        assert resolve_config("capture", {"n_max": None})["n_max"] is None

    @pytest.mark.parametrize("experiment, raw", [
        ("abc", {"quantile": "0.1"}), ("mh", {"data": 5}), ("mh", {"data": True})])
    def test_real_and_path_keys_take_their_types_alone(self, experiment, raw):
        # a string is no number, and data a non-empty path string or null
        # (bools in real keys, a string weight and an empty data run through
        # the CLI in TestErrors); the CLI is never run on these data, which
        # open() would take for a file descriptor
        (key,) = raw
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            resolve_config(experiment, raw)

    def test_draws_over_the_budget_are_refused(self, tmp_path, capsys, monkeypatch):
        # 10^9 iterations would ask numpy for some 48 GB of states; the
        # budget of 2^27 doubles refuses them by the two keys that set it
        for experiment in ("gibbs", "capture"):
            code, out = run_cli(tmp_path, experiment, {"iterations": 10 ** 9},
                                subdir=experiment)
            assert code == 1 and not out.exists()
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ConfigError"
            assert "iterations" in err["message"] and "replicates" in err["message"]
        # the defaults and every benchmark config stay within it
        for experiment in cli._KEYS:
            resolve_config(experiment, {})
        monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
        for ops in importlib.import_module("workloads").WORKLOADS.values():
            for experiment, config in ops:
                resolve_config(experiment, config)

    def test_replicates_count_in_the_budget(self):
        # replicate builds all R streams before any work, some 730 bytes
        # each: 10^9 replicates are refused on every experiment, by name and
        # value, the one-stream experiments and evidence routes too
        huge = {"replicates": 10 ** 9}
        for experiment, raw in [(e, huge) for e in cli._KEYS] + [
                ("evidence", {**huge, "method": "prior-mc"})]:
            with pytest.raises(ConfigError, match="store more than") as refused:
                resolve_config(experiment, raw)
            assert "'replicates': 1000000000" in str(refused.value), experiment
        # mle draws nothing, so its streams alone fill the budget
        most = cli._MAX_DRAW_DOUBLES // cli._STREAM_DOUBLES
        assert resolve_config("mle", {"replicates": most})["replicates"] == most
        with pytest.raises(ConfigError, match=f"'replicates': {most + 1}"):
            resolve_config("mle", {"replicates": most + 1})

    @pytest.mark.parametrize("experiment, huge, keys", [
        ("evidence", {"n_draws": 10 ** 9}, ("method", "n_draws", "replicates")),
        ("pmc", {"particles": 10 ** 9}, ("particles", "generations", "n_data")),
        ("abc", {"particles": 10 ** 9}, ("particles", "quantile", "generations"))])
    def test_every_experiment_that_stores_draws_has_a_budget(self, experiment, huge, keys):
        # 10^9 draws or particles would store some 10^10 doubles; the
        # refusal names every key of the count
        with pytest.raises(ConfigError, match="store more than") as refused:
            resolve_config(experiment, huge)
        assert all(key in str(refused.value) for key in keys)
        # what each count holds: evidence's chain routes keep R chains per
        # model at once, its importance route one stream's draws; pmc keeps
        # every population and abc its ceil(particles / quantile)-row pilot
        sizes = {"evidence": ({"method": "chib", "n_draws": 7 * 10 ** 6, "replicates": 2},
                              {"method": "importance", "n_draws": 7 * 10 ** 6,
                               "replicates": 2}),
                 "pmc": ({"particles": 10 ** 6, "generations": 30},
                         {"particles": 10 ** 6, "generations": 5}),
                 "abc": ({"particles": 10 ** 6, "quantile": 0.1, "generations": 2},
                         {"particles": 10 ** 6, "quantile": 1, "generations": 2})}
        over, within = sizes[experiment]
        with pytest.raises(ConfigError, match="store more than"):
            resolve_config(experiment, over)
        assert resolve_config(experiment, within) == resolve_config(experiment, {}) | within

    def test_evidence_needs_two_draws(self):
        for n in (1, 0, -5):
            with pytest.raises(ConfigError, match="n_draws"):
                resolve_config("evidence", {"n_draws": n})
        assert resolve_config("evidence", {"n_draws": 2})["n_draws"] == 2
        # harmonic-gd needs a nonsingular scatter of 3-coefficient draws
        with pytest.raises(ConfigError, match="^n_draws must be an integer >= 4"):
            resolve_config("evidence", {"method": "harmonic-gd", "n_draws": 3})
        assert resolve_config("evidence", {"method": "harmonic-gd",
                                           "n_draws": 4})["n_draws"] == 4


class TestOutputs:
    @pytest.mark.parametrize("shape", [(40, 1), (4100, 5)])
    def test_draws_csv_is_the_csv_modules_text(self, tmp_path, shape):
        # the block writer against csv.writer on special and integer-valued
        # floats, one column and five, and past the 4096-row block boundary
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e16, 1e-5,
                   3.0, -42.0, 1e300]
        values = np.resize(special + RngStream(8, 0).standard_normal(13).tolist(), shape)
        header = [f"x{j}" for j in range(shape[1])]
        path = tmp_path / "draws.csv"
        cli._write_draws_csv(path, header, values)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(values.tolist())
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_mle_summary_schema(self, tmp_path):
        code, out = run_cli(tmp_path, "mle")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["experiment"] == "mle"
        for key in ("coef_glu", "coef_bp", "coef_ped",
                    "residual_deviance", "null_deviance"):
            assert key in summary["estimates"]
        assert set(summary["standard_errors"]) == {
            "coef_glu", "coef_bp", "coef_ped"}
        assert summary["diagnostics"]["n_obs"] == 332
        assert summary["runtime_seconds"] >= 0.0
        assert not (out / "draws.csv").exists()  # no chain to dump

    def test_chain_experiment_writes_draws(self, tmp_path):
        code, out = run_cli(tmp_path, "gibbs", {"iterations": 200})
        assert code == 0
        lines = (out / "draws.csv").read_text().splitlines()
        assert lines[0] == "glu,bp,ped"
        assert len(lines) == 1 + 200  # every state
        # floats round-trip exactly through repr
        first = [float(v) for v in lines[1].split(",")]
        assert all(repr(v) == s for v, s in zip(first, lines[1].split(",")))

    def test_byte_identical_determinism(self, tmp_path):
        outputs = []
        for subdir in ("a", "b"):
            code, out = run_cli(tmp_path, "mh",
                                {"iterations": 300, "seed": 7}, subdir=subdir)
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            del summary["runtime_seconds"]
            outputs.append((json.dumps(summary, sort_keys=True),
                            (out / "draws.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_capture_reports_tail_mass_deterministically(self, tmp_path):
        outputs = []
        for subdir in ("a", "b"):
            code, out = run_cli(tmp_path, "capture",
                                {"iterations": 300, "seed": 7}, subdir=subdir)
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            assert 0.0 <= summary["diagnostics"]["n_max_tail_mass"] <= 1.0
            del summary["runtime_seconds"]
            outputs.append((json.dumps(summary, sort_keys=True),
                            (out / "draws.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_capture_records_n_max_refusals(self, tmp_path):
        code, out = run_cli(tmp_path, "capture", {"seed": 7}, subdir="defaults")
        assert code == 0
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert diagnostics["n_max_refusals"] == 0
        # at n_max = n1 + 2 most proposed populations are too large
        with pytest.warns(RuntimeWarning, match="n_max=24"):
            code, out = run_cli(tmp_path, "capture",
                                {"seed": 7, "iterations": 300, "n_max": 24},
                                subdir="tight")
        assert code == 0
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert diagnostics["n_max_refusals"] > 300

    def test_capture_summary_describes_its_independent_draws(self, tmp_path):
        # exact independent draws: no IACT or chain ESS, and each mean's
        # standard error is its SD over the root of the number of draws
        code, out = run_cli(tmp_path, "capture", {"iterations": 300, "seed": 7})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        diagnostics = summary["diagnostics"]
        assert not {"iact", "chain_ess", "ess_warning"} & set(diagnostics)
        states = np.loadtxt(out / "draws.csv", delimiter=",", skiprows=1)
        assert diagnostics["n_draws"] == len(states) == 300
        names = ("N", "p", "q", "r1", "r2")
        for j, name in enumerate(names):
            sd = summary["estimates"][f"sd_{name}"]
            assert sd == states[:, j].std(ddof=1)
            assert summary["standard_errors"][f"mean_{name}"] == sd / math.sqrt(300)
        assert set(summary["standard_errors"]) == {f"mean_{n}" for n in names}

    def test_capture_flags_a_truncation_that_matters(self):
        # at the defaults N | p keeps all but 4e-62 of its mass below n_max;
        # with no recapture it loses 0.990 of it there
        _, _, diagnostics, _ = run_experiment("capture", resolve_config(
            "capture", {"seed": 7}))
        assert diagnostics["unreliable"] is False
        assert diagnostics["n_max_tail_mass"] < 1e-60
        with pytest.warns(RuntimeWarning, match="n_max=1100"):
            _, _, diagnostics, _ = run_experiment("capture", resolve_config(
                "capture", {"seed": 7, "c2": 0, "c3": 0}))
        assert diagnostics["unreliable"] is True
        assert diagnostics["n_max_tail_mass"] > 0.99

    def test_run_warnings_land_in_the_summary(self, tmp_path):
        # under a filter that shows it (pytest.warns'), the truncation
        # warning is shown and written; a run that warns of nothing writes
        # no warnings key
        with pytest.warns(RuntimeWarning, match="n_max=1100"):
            code, out = run_cli(tmp_path, "capture", {"c2": 0, "c3": 0, "iterations": 300,
                                                      "seed": 7}, subdir="warns")
        assert code == 0
        listed = json.loads((out / "summary.json").read_text())["warnings"]
        assert {w["category"] for w in listed} == {"RuntimeWarning"}
        assert any("n_max=1100" in w["message"] for w in listed)
        code, out = run_cli(tmp_path, "capture", {"iterations": 300, "seed": 7},
                            subdir="quiet")
        assert code == 0
        assert "warnings" not in json.loads((out / "summary.json").read_text())

    def test_a_warning_the_filters_make_an_error_ends_the_run(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(tmp_path, "capture", {"c2": 0, "c3": 0, "iterations": 300,
                                                      "seed": 7})
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "RuntimeWarning" and "n_max=1100" in err["message"]
        assert not out.exists()

    def test_seed_changes_the_draws(self, tmp_path):
        blobs = []
        for seed, subdir in ((1, "s1"), (2, "s2")):
            code, out = run_cli(tmp_path, "mh",
                                {"iterations": 300, "seed": seed},
                                subdir=subdir)
            assert code == 0
            blobs.append((out / "draws.csv").read_bytes())
        assert blobs[0] != blobs[1]

    def test_replicates_recorded_with_distinct_estimates(self, tmp_path):
        code, out = run_cli(tmp_path, "gibbs",
                            {"iterations": 200, "replicates": 3})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        stats = summary["replicates"]
        assert stats["count"] == 3 and stats["failed"] == 0
        assert stats["sd"]["mean_glu"] > 0.0  # streams genuinely differ
        lines = (out / "replicates.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("replicate,status,")
        means = {line.split(",")[2] for line in lines[1:]}
        assert len(means) == 3

    def test_replicates_reuse_the_main_run(self, tmp_path, monkeypatch):
        # gibbs and capture: one call over streams 0..R-1, whose stream 0
        # is the main run
        streams = []

        def lockstep(model, n_iter, rngs):
            streams.extend(rng.stream_id for rng in rngs)
            return probit_gibbs_chains(model, n_iter, rngs)

        def capture_lockstep(model, n_iter, rngs):
            streams.extend(rng.stream_id for rng in rngs)
            return capture_draws(model, n_iter, rngs)

        monkeypatch.setattr(cli, "probit_gibbs_chains", lockstep)
        monkeypatch.setattr(cli, "capture_draws", capture_lockstep)
        for experiment, name in (("gibbs", "mean_glu"), ("capture", "mean_N")):
            streams.clear()
            code, out = run_cli(tmp_path, experiment,
                                {"iterations": 200, "replicates": 3},
                                subdir=experiment)
            assert code == 0
            assert sorted(streams) == [0, 1, 2]
            summary = json.loads((out / "summary.json").read_text())
            row0 = (out / "replicates.csv").read_text().splitlines()[1].split(",")
            header = (out / "replicates.csv").read_text().splitlines()[0].split(",")
            assert float(row0[header.index(name)]) == summary["estimates"][name]

    def test_replicates_run_in_stream_order_on_the_calling_thread(
            self, tmp_path, monkeypatch):
        calls = []

        def lockstep(model, n_iter, rngs):
            states, means = result = probit_gibbs_chains(model, n_iter, rngs)
            # chain r draws on the child streams of stream r alone
            drawn = all(states[r].tobytes() == probit_gibbs_chains(
                model, n_iter, [RngStream(rng.seed, rng.stream_id)])[0][0].tobytes()
                for r, rng in enumerate(rngs))
            calls.append(([rng.stream_id for rng in rngs],
                          threading.get_ident(), drawn))
            return result

        monkeypatch.setattr(cli, "probit_gibbs_chains", lockstep)
        code, _ = run_cli(tmp_path, "gibbs",
                          {"iterations": 100, "replicates": 4})
        assert code == 0
        me = threading.get_ident()
        # one call over every stream, each chain the run of its own stream
        assert calls == [([0, 1, 2, 3], me, True)]

        # a one-stream run goes over the streams in order
        calls.clear()

        def pmc_recording(*args, **kwargs):
            calls.append((args[5].stream_id, threading.get_ident()))
            return pmc_run(*args, **kwargs)

        monkeypatch.setattr(cli, "pmc_run", pmc_recording)
        code, _ = run_cli(tmp_path, "pmc", {**_TINY["pmc"], "replicates": 4},
                          subdir="pmc")
        assert code == 0
        assert calls == [(0, me), (1, me), (2, me), (3, me)]

        # a chain-route evidence run is two lockstep calls of R chains:
        # model 1 on rng_r.child(0), then model 0 on rng_r.child(1)
        calls_seen = []

        def pair(model, n_iter, rngs):
            calls_seen.append((model.dimension, [rng.stream_id for rng in rngs]))
            return probit_gibbs_chains(model, n_iter, rngs)

        monkeypatch.setattr(cli, "probit_gibbs_chains", pair)
        # an empty chain-pair memo, whatever an earlier test left in it
        monkeypatch.setattr(cli, "_last_chain_pair", None)
        code, _ = run_cli(tmp_path, "evidence", {"method": "chib", "n_draws": 100,
                                                 "replicates": 4},
                          subdir="evidence")
        assert code == 0
        streams = [RngStream(0, r) for r in range(4)]
        assert calls_seen == [(3 - i, [rng.child(i).stream_id for rng in streams])
                              for i in (0, 1)]

    @pytest.mark.parametrize("experiment,config", [
        pytest.param(e, {"iterations": 150, **post}, id=f"{e}-post{i}")
        for e in CHAIN_EXPERIMENTS
        for i, post in enumerate([{}] + [{"burn_in": 100}] * (e == "mwg"))] + [
        pytest.param("capture", {"iterations": 150}, id="capture-post0"),
        pytest.param("mle", {}, id="mle"),
        pytest.param("pmc", _TINY["pmc"], id="pmc"),
        pytest.param("abc", _TINY["abc"], id="abc"),
    ] + [pytest.param("evidence", {"method": m, "n_draws": 200}, id=f"evidence-{m}")
         for m in ("importance", "chib", "bridge-embedded")])
    def test_replicate_rows_reproducible_in_isolation(self, tmp_path,
                                                      experiment, config):
        # every experiment runs its R streams in one runner call; row r, and
        # for r = 0 the draws, are those of a run of its own on stream r
        config = {**config, "replicates": 3, "seed": 4}
        code, out = run_cli(tmp_path, experiment, config)
        assert code == 0
        header, *lines = (out / "replicates.csv").read_text().splitlines()
        header = header.split(",")
        resolved = resolve_config(experiment, config)
        assert len(lines) == 3
        for r, line in enumerate(lines):
            row = dict(zip(header, line.split(",")))
            assert int(row["replicate"]) == r and row["status"] == "ok"
            alone, _, _, draws = run_experiment(experiment, resolved, stream_id=r)
            assert {k: float(row[k]) for k in alone} == alone
            if r == 0 and draws is not None:
                drawn = np.loadtxt(out / "draws.csv", delimiter=",", skiprows=1)
                assert np.array_equal(drawn, draws[1])
            elif r == 0:
                assert not (out / "draws.csv").exists()

    @pytest.mark.parametrize("experiment,name", [("pmc", "pmc_run"),
                                                 ("abc", "probit_abc")])
    def test_a_replicate_that_fails_is_an_error_row(self, tmp_path, monkeypatch,
                                                   experiment, name):
        monkeypatch.setattr(cli, name, _failing_on(getattr(cli, name), 2))
        code, out = run_cli(tmp_path, experiment,
                            {**_TINY[experiment], "replicates": 4})
        assert code == 0
        header, *lines = (out / "replicates.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [row["status"] for row in rows] == ["ok", "ok", "error", "ok"]
        assert rows[2]["error"] == "FloatingPointError: no luck on stream 2"
        assert all(row["error"] == "" for r, row in enumerate(rows) if r != 2)
        stats = json.loads((out / "summary.json").read_text())["replicates"]
        assert stats["count"] == 4 and stats["failed"] == 1

    @pytest.mark.parametrize("experiment,name", [("pmc", "pmc_run"),
                                                 ("abc", "probit_abc")])
    def test_a_failed_main_run_writes_no_summary(self, tmp_path, monkeypatch,
                                                 capsys, experiment, name):
        monkeypatch.setattr(cli, name, _failing_on(getattr(cli, name), 0))
        code, out = run_cli(tmp_path, experiment,
                            {**_TINY[experiment], "replicates": 4})
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "FloatingPointError",
                       "message": "no luck on stream 0"}
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("experiment", ["mixture-demo"])
    def test_summary_diagnostics_describe_the_written_draws(self, tmp_path,
                                                            experiment):
        code, out = run_cli(tmp_path, experiment, {"iterations": 300, "seed": 7})
        assert code == 0
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        states = np.loadtxt(out / "draws.csv", delimiter=",", skiprows=1)
        expected = chain_diagnostics(Chain(states, np.zeros(len(states)), 0, 0))
        assert diagnostics["iact"] == expected["iact"].tolist()
        assert diagnostics["chain_ess"] == expected["chain_ess"].tolist()

    @pytest.mark.parametrize("experiment", CHAIN_EXPERIMENTS)
    def test_short_chains_keep_their_diagnostic_keys(self, tmp_path, experiment):
        """Under 100 kept states there is no IACT estimate: `iact` and
        `chain_ess` are written as null, with a warning that says why."""
        code, out = run_cli(tmp_path, experiment, {"iterations": 3, "seed": 7})
        assert code == 0
        diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert diagnostics["iact"] is None and diagnostics["chain_ess"] is None
        assert diagnostics["ess_warning"].startswith("3 kept states")

    def test_chain_replicates_load_the_data_and_fit_the_mle_once(
            self, tmp_path, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_pima", counted("load", load_pima))
        monkeypatch.setattr(cli, "probit_mle", counted("mle", cli.probit_mle))
        # a user data file is read on every run, so each run's read counts;
        # the importance route fits one proposal per model
        data = str(bundled_pima_path())
        for experiment, config, fits in (
                ("mh", {"iterations": 200}, 1),
                ("mle", {}, 1),
                ("evidence", {"method": "importance", "n_draws": 200}, 2)):
            calls.clear()
            code, _ = run_cli(tmp_path, experiment,
                              {**config, "replicates": 3, "data": data},
                              subdir=experiment)
            assert code == 0
            assert sorted(calls) == ["load"] + ["mle"] * fits, experiment

    def test_bundled_data_is_parsed_once_per_process(self, tmp_path,
                                                     monkeypatch):
        loads = []

        def counting(path):
            loads.append(path)
            return load_pima(path)

        monkeypatch.setattr(cli, "load_pima", counting)
        cli._bundled_pima.cache_clear()
        outputs = []
        for subdir in ("a", "b"):
            code, out = run_cli(tmp_path, "mle", subdir=subdir)
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            del summary["runtime_seconds"]
            outputs.append(summary)
        assert len(loads) == 1
        assert outputs[0] == outputs[1]

    def test_summary_is_strict_json(self, tmp_path):
        code, out = run_cli(tmp_path, "gibbs", {"iterations": 200})
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["diagnostics"]["acceptance_rate"] is None

    def test_chain_diagnostics_describe_the_kept_states(self):
        config = resolve_config("mwg", {"iterations": 1000, "burn_in": 200})
        _, _, diagnostics, (_, states) = run_experiment("mwg", config)
        whole = run_experiment("mwg", {**config, "burn_in": 0})[3][1]
        assert np.array_equal(states, whole[200:])
        expected = chain_diagnostics(Chain(states, np.zeros(len(states)), 0, 0))
        assert np.array_equal(diagnostics["iact"], expected["iact"])
        assert np.array_equal(diagnostics["chain_ess"], expected["chain_ess"])

    def test_a_coordinate_that_never_moved_is_named(self):
        # a chain that accepts nothing repeats its start; the float mean of
        # 300 states of 0.1 is not 0.1, yet the column has no IACT
        moving = RngStream(3, 0).standard_normal(300)
        kept = np.column_stack([np.full(300, 0.1), moving, np.full(300, -2.0)])[None]
        (_, _, diagnostics, _), _ = cli._chain_result(kept, ["a", "b", "c"], {})
        iact, chain_ess = diagnostics["iact"], diagnostics["chain_ess"]
        assert np.isinf(iact[[0, 2]]).all() and np.isfinite(iact[1])
        assert chain_ess[0] == chain_ess[2] == 0 and chain_ess[1] > 0
        assert diagnostics["ess_warning"] == "a, c never moved in the 300 kept states: no IACT"
        written = cli._jsonify(diagnostics)
        assert written["iact"][0] is None and written["chain_ess"][0] == 0.0

    def test_cli_flags_override_config(self, tmp_path):
        code, out = run_cli(tmp_path, "gibbs", {"iterations": 200, "seed": 1},
                            extra=["--seed", "5"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 5 and summary["config"]["seed"] == 5


def _assert_refused(code, out, capsys, name):
    """The run exited 1 with a ConfigError naming `name`, and made no --out."""
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and name in err["message"]
    assert not out.exists()


class TestConfigKeys:
    """Each experiment's config is exactly the keys its runner reads; any
    other key, by the config file or by its flag, is refused by name
    before --out is made."""

    @pytest.mark.parametrize("experiment", sorted(DECLARED_KEYS))
    def test_config_holds_the_keys_the_runner_reads(self, tmp_path, capsys,
                                                    experiment):
        assert set(resolve_config(experiment, {})) == DECLARED_KEYS[experiment]
        # any other experiment's key, or a removed one, is refused by name
        every = set().union(*DECLARED_KEYS.values(), SHARED_KEYS, REMOVED_KEYS)
        for key in sorted(every - DECLARED_KEYS[experiment]):
            with pytest.raises(ConfigError, match=f"'{key}'"):
                resolve_config(experiment, {key: 1})
        # and the shared ones by the config file and by their flags too
        unread = [k for k in SHARED_KEYS if k not in DECLARED_KEYS[experiment]]
        assert unread  # every experiment leaves at least one of them out
        for key in unread:
            value, flag, flag_value = SHARED_KEYS[key]
            with pytest.raises(ConfigError, match=key):
                resolve_config(experiment, {key: value})
            code, out = run_cli(tmp_path, experiment, {key: value},
                                subdir=f"{key}-config")
            _assert_refused(code, out, capsys, key)
            if flag is not None:
                code, out = run_cli(tmp_path, experiment, extra=[flag, flag_value],
                                    subdir=f"{key}-flag")
                _assert_refused(code, out, capsys, key)

    @pytest.mark.parametrize("method", EVIDENCE_METHODS)
    def test_coverage_is_harmonic_gds_alone(self, tmp_path, capsys, method):
        gd = method == "harmonic-gd"
        resolved = resolve_config("evidence", {"method": method})
        assert set(resolved) == DECLARED_KEYS["evidence"] | ({"coverage"} if gd else set())
        if gd:  # the whole sample's ellipsoid is allowed
            assert resolve_config("evidence", {"method": method,
                                               "coverage": 1})["coverage"] == 1
        refused = {"burn_in": 150, "thin": 7, **({} if gd else {"coverage": 0.5})}
        for key, value in refused.items():
            code, out = run_cli(tmp_path, "evidence", {"method": method, key: value},
                                subdir=f"{key}-config")
            _assert_refused(code, out, capsys, key)

    @pytest.mark.parametrize("flag", REMOVED_FLAGS)
    def test_removed_flags_are_unrecognized(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["gibbs", "--out", str(out), flag, "2"])
        assert exit_.value.code == 2 and not out.exists()
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("coverage", [0, -0.25, 1.5, float("nan"), "0.5", None])
    def test_coverage_outside_the_unit_interval_is_refused(self, tmp_path, capsys,
                                                           coverage):
        config = {"method": "harmonic-gd", "coverage": coverage}
        with pytest.raises(ConfigError, match="coverage"):
            resolve_config("evidence", config)
        code, out = run_cli(tmp_path, "evidence", config)
        _assert_refused(code, out, capsys, "coverage")


# config values of every JSON type and of the edges of each kind: huge and
# negative ints, special floats, bools, null, short strings (the declared
# choices among them) and lists
_CONFIG_VALUES = st.one_of(
    st.integers(),
    st.sampled_from([-1, 0, 1, 2, 100, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 10 ** 400]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320,
                     1e-200, 1e154, 1e308, -1e308, 0.01, 0.5, 1.0]),
    st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from(["glu", "bp", "ped", "age", "", "chib", "harmonic-gd", "bridge",
                     "mixture", "conditional", "/no/such.csv"]),
    st.lists(st.sampled_from(["glu", "bp", "ped", "age", 1, None]), max_size=4))


class TestConfigTable:
    """Every key's default and values are declared once, in one table."""

    @staticmethod
    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_resolve_config_takes_the_overrides_or_names_a_drawn_key(data):
        """One or two of an experiment's keys set to any JSON value:
        resolve_config returns the defaults with the overrides, holding no
        bool and no float that is not finite, or it raises a ConfigError
        that names one of the keys, and never anything else."""
        experiment = data.draw(st.sampled_from(sorted(DECLARED_KEYS)))
        keys = sorted(DECLARED_KEYS[experiment] | (
            {"coverage"} if experiment == "evidence" else set()))
        drawn = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2,
                                   unique=True))
        raw = {key: data.draw(_CONFIG_VALUES) for key in drawn}
        try:
            config = resolve_config(experiment, raw)
        except ConfigError as exc:
            assert any(key in str(exc) for key in drawn), (raw, str(exc))
            return
        defaults = resolve_config(experiment, {"method": raw["method"]}
                                  if "method" in raw else {})
        assert config == {**defaults, **raw}
        assert not any(type(v) is bool for v in config.values()), raw
        json.dumps(config, allow_nan=False)  # every float finite

    def test_help_lists_every_key(self):
        text = cli._build_parser().format_help()
        for experiment, keys in DECLARED_KEYS.items():
            assert f"\n  {experiment}\n" in text
            for key in keys | ({"coverage"} if experiment == "evidence" else set()):
                assert f"\n    {key} = " in text, key


class TestErrors:
    def test_unknown_key_fails_with_json_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "mle", {"bogus": 1})
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "bogus" in err["message"]

    def test_missing_data_file_reported(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "mle", extra=["--data", "/no/such.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "message" in err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2]")
        code = main(["mle", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    def test_traceback_only_under_debug(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "mle", {"bogus": 1})
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        code, _ = run_cli(tmp_path, "mle", {"bogus": 1}, extra=["--debug"])
        assert code == 1
        first, *rest = capsys.readouterr().err.splitlines()
        assert json.loads(first)["error"] == "ConfigError"
        assert rest[0] == "Traceback (most recent call last):"
        assert rest[-1].startswith("bayescomp.cli.ConfigError:") and "bogus" in rest[-1]

    def test_too_few_kept_states_fail_before_any_output(self, tmp_path,
                                                        capsys):
        code, out = run_cli(tmp_path, "mwg", {"iterations": 100, "burn_in": 200})
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "keep 0 states" in err["message"]
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("experiment,config,key", [
        ("pmc", {**_TINY["pmc"], "weight": 1.5}, "weight"),
        ("capture", {"iterations": 200, "c2": 30}, "c2"),
        ("capture", {"iterations": 200, "c3": 23}, "c3"),
        ("abc", {**_TINY["abc"], "quantile": 1e-6}, "quantile"),
        ("pmc", {"particles": 1}, "particles"),
        ("pmc", {"generations": 0}, "generations"),
        ("pmc", {"q0_scale": -1}, "q0_scale"),
        ("pmc", {"sigma2": 0}, "sigma2"),
        ("pmc", {"weight": "0.7"}, "weight"),
        ("pmc", {"q0_scale": True}, "q0_scale"),
        ("capture", {"n1": 0}, "n1"),
        ("capture", {"c3": -1}, "c3"),
        ("capture", {"n_max": 10}, "n_max"),
        ("capture", {"iterations": 1}, "iterations"),
        ("abc", {"particles": 50}, "particles"),
        ("abc", {"generations": 1}, "generations"),
        ("abc", {"quantile": True}, "quantile"),
        ("mh", {"scale_multiplier": True}, "scale_multiplier"),
        ("mixture-demo", {"weight": 1.5}, "weight"),
        ("mixture-demo", {"mu1": float("nan")}, "mu1"),
        ("mixture-demo", {"tau": True}, "tau"),
        ("evidence", {"method": "harmonic-gd", "coverage": True}, "coverage"),
        ("mle", {"seed": -1}, "seed"),
        ("mle", {"seed": 2 ** 64}, "seed"),
        ("mh", {"data": ""}, "data"),
        ("evidence", {"method": "harmonic-gd", "n_draws": 2}, "n_draws"),
        ("pmc", {"sigma2": 1e-320, "particles": 100, "generations": 2}, "sigma2"),
        ("mixture-demo", {"sigma2": 1e-320}, "sigma2"),
    ], ids=["pmc-weight", "capture-c2", "capture-c3-over-n1", "abc-quantile",
            "pmc-particles",
            "pmc-generations", "pmc-q0_scale", "pmc-sigma2", "pmc-weight-string",
            "pmc-q0_scale-bool", "capture-n1", "capture-c3", "capture-n_max",
            "capture-iterations",
            "abc-particles", "abc-generations", "abc-quantile-bool",
            "mh-scale_multiplier-bool", "mixture-demo-weight", "mixture-demo-mu1",
            "mixture-demo-tau-bool", "evidence-coverage-bool", "seed-negative",
            "seed-2**64", "mh-data-empty", "evidence-two-draws", "pmc-sigma2-subnormal",
            "mixture-demo-sigma2-subnormal"])
    def test_config_errors_fail_before_any_output(self, tmp_path, capsys,
                                                  experiment, config, key):
        # each value fails its key's declared kind or a rule that spans keys
        # (capture's c2, c3 <= n1 <= n_max), so no runner starts; harmonic-gd
        # fits an ellipsoid to the 3-covariate draws, whose scatter two
        # draws leave singular, and a subnormal sigma2 has no finite
        # reciprocal, which every mixture density divides by
        with pytest.raises(ConfigError, match=f"^{key}"):
            resolve_config(experiment, config)
        code, out = run_cli(tmp_path, experiment, config)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and err["message"].startswith(key)
        assert not out.exists()

    @pytest.mark.parametrize("config,particles", [
        ({"sigma2": 1e-6, "particles": 100, "generations": 2}, 100),
        ({"sigma2": 1e-2}, 1000),
    ])
    def test_a_degenerate_pmc_population_states_its_ess(self, tmp_path, capsys, config,
                                                        particles):
        # q0 is far wider than these posteriors, so one particle of iteration
        # 0 holds all the weight and the kernels' covariance is 0
        code, out = run_cli(tmp_path, "pmc", {**config, "seed": 7})
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DegenerateWeightsError"
        assert f"Kong ESS is 1 of {particles} particles" in err["message"]
        assert "raise particles, or bring q0_scale nearer" in err["message"]
        assert not out.exists()

    def test_harmonic_gd_short_of_draws_inside_names_n_draws(self, tmp_path, capsys):
        # the config passes resolve_config, but six draws cannot put the 10
        # that harmonic-gd needs inside its ellipsoid, whatever the coverage
        config = {"method": "harmonic-gd", "n_draws": 6, "coverage": 1}
        resolve_config("evidence", config)
        code, out = run_cli(tmp_path, "evidence", config)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "RuntimeError"
        assert " of 6 posterior draws" in err["message"] and "needs 10" in err["message"]
        assert err["message"].endswith("raise n_draws")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["mle-malformed-csv", "mh-zero-step"])
    def test_a_run_that_fails_makes_no_out_directory(self, tmp_path, capsys, case):
        # each config passes resolve_config; the run itself fails: a data
        # file without the pima columns, and an MLE covariance whose
        # diagonal, 3.9e-6 and 1.3e-5, the multiplier rounds to 0
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("a,b\n1,2\n")
        experiment, config, error, start = {
            "mle-malformed-csv": ("mle", {"data": str(bad_csv)}, "IngestionError",
                                  str(bad_csv)),
            "mh-zero-step": ("mh", {"scale_multiplier": 1e-320, "iterations": 300},
                             "ValueError", "scale_multiplier"),
        }[case]
        resolve_config(experiment, config)
        code, out = run_cli(tmp_path, experiment, config)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == error and err["message"].startswith(start)
        assert not out.exists()

    @pytest.mark.parametrize("experiment,config", [
        ("mh", {"covariates": ["glu", "age"]}),
        ("mh", {"covariates": "glu"}),
        ("mh", {"covariates": []}),
        ("mh", {"covariates": ["glu", "glu"]}),
        ("gibbs", {"covariates": ["ped", 1]}),
        ("mwg", {"covariate": "age"}),
    ])
    def test_bad_covariates_fail_before_any_output(self, tmp_path, capsys,
                                                   experiment, config):
        code, out = run_cli(tmp_path, experiment, {"iterations": 200, **config})
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        key, = config
        assert err["message"].startswith(key)
        assert "['glu', 'bp', 'ped']" in err["message"]
        assert not out.exists()  # so no summary.json either

    @pytest.mark.parametrize("experiment,config", [
        ("evidence", {"method": "bogus"}),
        ("evidence", {"method": "bridge"}),
        ("pmc", {"density_form": "bogus"}),
    ])
    def test_bad_choices_fail_before_any_output(self, tmp_path, capsys,
                                                experiment, config):
        code, out = run_cli(tmp_path, experiment, config)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        key, = config
        assert err["message"].startswith(key) and repr(config[key]) in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("experiment,config", [
        ("mwg", {"beta_step_var": -1}),
        ("mwg", {"beta_step_var": 0}),
        ("mwg", {"logsigma_step_var": float("nan")}),
        ("mwg", {"logsigma_step_var": "0.04"}),
        ("mh", {"scale_multiplier": 0}),
        ("mh", {"scale_multiplier": -1.0}),
        ("mh", {"scale_multiplier": float("inf")}),
        ("mixture-demo", {"tau": 0}),
        ("mixture-demo", {"tau": float("nan")}),
    ])
    def test_bad_step_sizes_fail_before_any_output(self, tmp_path, capsys,
                                                   experiment, config):
        # a random-walk step that is not finite and positive moves no chain
        # (zero freezes it, a negative or NaN one has no factor), so the
        # config is refused before --out is made
        code, out = run_cli(tmp_path, experiment, {"iterations": 200, **config})
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        key, = config
        assert err["message"].startswith(key)
        assert not out.exists()


    @pytest.mark.parametrize("experiment,config", [
        ("mixture-demo", {"tau": 1e-300}),
        ("mixture-demo", {"tau": 1e300}),
        ("mixture-demo", {"tau": 10 ** 200}),
        ("mixture-demo", {"tau": 10 ** 400}),
        ("mwg", {"logsigma_step_var": 1e308}),
    ])
    def test_step_variances_that_round_to_zero_or_overflow_fail(self, tmp_path, capsys,
                                                                experiment, config):
        # tau = 1e-300 squares to 0 and would freeze the chain; tau = 1e300
        # and 4 logsigma_step_var = 4e308 overflow; a ConfigError names the
        # key before --out is made
        code, out = run_cli(tmp_path, experiment, {"iterations": 200, **config})
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        key, = config
        assert err["message"].startswith(key)
        assert not out.exists()


class TestEntrypoint:
    def test_console_script_runs(self, tmp_path):
        # the child imports the same package as this process, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bayescomp.cli", "mle",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert (tmp_path / "o" / "summary.json").exists()

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats costs about half a second of start-up; the library
        # needs only scipy.special
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import bayescomp.cli; "
             "print('scipy.stats' in sys.modules)", src],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestRunners:
    """Smoke-level checks that every experiment produces the documented
    estimate keys at small sizes."""

    @pytest.mark.parametrize("experiment,config,keys", [
        ("mwg", {"iterations": 300}, ["mean_beta", "mean_sigma2"]),
        ("pmc", {"particles": 200, "generations": 2, "n_data": 100},
         ["mean_mu1", "mean_mu2"]),
        ("capture", {"iterations": 300}, ["mean_N", "mean_p", "mean_q"]),
        ("mixture-demo", {"iterations": 200},
         ["min_distance_to_major_mode", "escaped"]),
        ("abc", {"particles": 150, "generations": 2, "quantile": 0.5},
         ["mean_glu", "mean_bp", "mean_ped"]),
    ])
    def test_estimate_keys(self, experiment, config, keys):
        resolved = resolve_config(experiment, config)
        estimates, _, diagnostics, _ = run_experiment(experiment, resolved)
        for key in keys:
            assert key in estimates, (experiment, key, sorted(estimates))

    @pytest.mark.parametrize("experiment,family", [
        ("mh", "random-walk-metropolis"),
        ("gibbs", "gibbs-data-augmentation"),
        ("mwg", "metropolis-within-gibbs"),
    ])
    def test_chains_report_their_sampler_family(self, experiment, family):
        resolved = resolve_config(experiment, {"iterations": 200})
        _, _, diagnostics, _ = run_experiment(experiment, resolved)
        assert diagnostics["family"] == family

    def test_standard_errors_schema(self):
        # which experiments write a standard error: mle and evidence their
        # own; abc, capture, mh, gibbs and mwg one per mean from
        # `sample_estimates`; pmc and mixture-demo none
        configs = {"mle": {}, "mh": {"iterations": 300}, "gibbs": {"iterations": 300},
                   "mwg": {"iterations": 300}, "evidence": {"n_draws": 400},
                   "capture": {"iterations": 300}, "mixture-demo": {"iterations": 200},
                   **_TINY}
        assert set(configs) == set(cli._RUNNERS)
        results = {e: run_experiment(e, resolve_config(e, c)) for e, c in configs.items()}
        for experiment, (estimates, std_errors, _, _) in results.items():
            assert set(std_errors) <= set(estimates), experiment
            if experiment in ("abc", "capture", "mh", "gibbs", "mwg"):
                assert set(std_errors) == {k for k in estimates if k.startswith("mean_")}
        assert {e for e, r in results.items() if r[1]} == {
            "mle", "evidence", "abc", "capture", "mh", "gibbs", "mwg"}
        # pmc writes its SDs, but no error
        assert {"sd_mu1", "sd_mu2"} <= set(results["pmc"][0])

    @pytest.mark.parametrize("experiment", ["abc", "mh", "gibbs"])
    def test_errors_match_the_replicate_sd(self, experiment):
        # per coordinate, the median reported error of 20 streams over the
        # SD of their 20 means lies in [0.5, 2], a band fixed before the
        # first run
        size = ({"particles": 200, "generations": 4} if experiment == "abc"
                else {"iterations": 2000})
        config = resolve_config(experiment, {**size, "seed": 7})
        runs = [run_experiment(experiment, config, r) for r in range(20)]
        assert runs[0][1]
        for key in runs[0][1]:
            means = [est[key] for est, _, _, _ in runs]
            errors = [se[key] for _, se, _, _ in runs]
            ratio = np.median(errors) / np.std(means, ddof=1)
            assert 0.5 <= ratio <= 2, (key, ratio)

    def test_a_chain_ess_below_100_writes_a_null_error(self, tmp_path):
        # mwg's beta mixes slowly: at its defaults and seed 7 its chain ESS
        # is below 100, so its mean has no error, and no RuntimeWarning
        code, out = run_cli(tmp_path, "mwg", {"seed": 7})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "mean_beta" in summary["standard_errors"]
        assert summary["standard_errors"]["mean_beta"] is None
        assert 0 < summary["diagnostics"]["chain_ess"][0] < 100
        assert "beta" in summary["diagnostics"]["ess_warning"]
        assert "warnings" not in summary

    @pytest.mark.parametrize("seed", [6, 19])
    def test_mwg_writes_null_errors(self, tmp_path, seed):
        # beta and sigma2 are identified only through the prior; at these
        # seeds sigma2's chain ESS passes 100, yet the error it gave was a
        # hundredth of the spread of sigma2's mean over seeds
        code, out = run_cli(tmp_path, "mwg", {"seed": seed})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["standard_errors"] == {"mean_beta": None, "mean_sigma2": None}
        assert summary["diagnostics"]["chain_ess"][1] >= 100
        assert "prior" in summary["diagnostics"]["error_note"]

    def test_abc_drops_its_hopeless_generation_early(self):
        # at its defaults and seed 7 generation 4 hits below the 1% floor;
        # its early stop comes long before its 200,000-proposal budget
        _, _, diagnostics, _ = run_experiment("abc", resolve_config("abc", {"seed": 7}))
        assert diagnostics["generation"] == 3
        assert 0 < diagnostics["abandoned_proposals"] < 20_000

    def test_evidence_methods_all_run(self):
        for method in ("prior-mc", "importance", "harmonic-gd",
                       "harmonic-nr", "chib", "bridge-embedded"):
            resolved = resolve_config("evidence",
                                      {"method": method, "n_draws": 400})
            estimates, se, diagnostics, _ = run_experiment("evidence", resolved)
            assert "log_b10" in estimates, (method, sorted(estimates))
            assert diagnostics["method"] == method

    @pytest.mark.parametrize("method,flag", [("harmonic-nr", True), ("chib", False)])
    def test_evidence_summary_writes_the_unreliable_flag(self, tmp_path, method, flag):
        # harmonic-nr flags both of its parts unreliable, chib neither
        code, out = run_cli(tmp_path, "evidence", {"method": method, "n_draws": 400})
        assert code == 0
        text = (out / "summary.json").read_text()
        assert f'"unreliable": {json.dumps(flag)}' in text
        assert json.loads(text)["diagnostics"]["unreliable"] is flag

    @pytest.mark.parametrize("method,flag", [("prior-mc", True), ("importance", False)])
    def test_evidence_summary_writes_the_weight_ess(self, tmp_path, method, flag):
        # prior draws weight the pima likelihood too unevenly: their weight
        # ESS is under 5% of the 2000 draws, so prior-mc is flagged
        code, out = run_cli(tmp_path, "evidence", {"method": method, "n_draws": 2000})
        assert code == 0
        diag = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert diag["unreliable"] is flag
        assert (diag["weight_ess"] < 0.05 * 2000) is flag

    def test_chib_at_two_draws_is_flagged(self, tmp_path):
        # two chain states per model give a Kong weight ESS of about 1.2,
        # under the floor of 10 though not under 5% of 2 draws
        code, out = run_cli(tmp_path, "evidence", {"method": "chib", "n_draws": 2,
                                                   "seed": 7})
        assert code == 0
        diag = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert diag["weight_ess"] < 10 and diag["unreliable"] is True

    def test_evidence_is_log_b10_of_the_bigger_model(self):
        # log_b10 puts the 3-covariate model (chain on rng.child(0)) over the
        # 2-covariate one (rng.child(1)); the embedded bridge estimates B01
        # on rng.child(2), so the CLI negates it
        n, seed = 300, 4
        pima1 = load_pima(bundled_pima_path())
        pima0 = ProbitModel(design=pima1.design[:, :2], response=pima1.response)
        rng = RngStream(seed, 0)
        states1, means1 = probit_gibbs_chains(pima1, n, [rng.child(0)])
        states0, means0 = probit_gibbs_chains(pima0, n, [rng.child(1)])
        chains = {1: (pima1, states1[0], means1[0]), 0: (pima0, states0[0], means0[0])}

        def route(method, k):
            mp, states, means = chains[k]
            m = probit_bayes_model(mp)
            if method == "harmonic-gd":
                return harmonic_mean_gd(lambda b: log_posterior(m, b), states,
                                        PhiSpec.from_sample(states, 0.25))
            if method == "harmonic-nr":
                return newton_raftery_hm(m.log_likelihood, states)
            return chib_marginal(
                m, probit_latent_completion(mp).log_full_conditional_param,
                means, states.mean(axis=0))

        for method in ("harmonic-gd", "harmonic-nr", "chib"):
            config = resolve_config("evidence", {"method": method, "n_draws": n,
                                                 "seed": seed})
            est, se, diag, _ = run_experiment("evidence", config)
            expected = bayes_factor(route(method, 1), route(method, 0))
            assert est["log_b10"] == expected.log_value, method
            assert se["log_b10"] == expected.std_error, method
            assert diag["unreliable"] is expected.unreliable, method
            assert diag["weight_ess"] == expected.weight_ess, method

        config = resolve_config("evidence", {"method": "bridge-embedded",
                                             "n_draws": n, "seed": seed})
        est, se, diag, _ = run_experiment("evidence", config)
        omega = LinearGaussianOmega.fit(states1[0, :, :2], states1[0, :, 2])
        b01 = bridge_embedded(probit_bayes_model(pima0), probit_bayes_model(pima1),
                              np.zeros(1), omega, states0[0], states1[0], rng.child(2))
        assert est["log_b10"] == -b01.log_value
        assert se["log_b10"] == b01.std_error and diag["unreliable"] is b01.unreliable
        assert diag["weight_ess"] == b01.weight_ess


def _seed_audit():
    spec = importlib.util.spec_from_file_location(
        "seed_audit", os.path.join(ROOT, "tools", "seed_audit.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestChainPairMemo:
    """The chain-based evidence routes share the last chain pair of the
    process: one Gibbs call per model per data set, streams and n_draws."""

    @pytest.fixture(autouse=True)
    def gibbs_calls(self, monkeypatch):
        """An empty memo, and the (dimension, n_iter) of each Gibbs call
        made from now on."""
        monkeypatch.setattr(cli, "_last_chain_pair", None)
        calls = []

        def counted(model, n_iter, rngs):
            calls.append((model.dimension, n_iter))
            return probit_gibbs_chains(model, n_iter, rngs)

        monkeypatch.setattr(cli, "probit_gibbs_chains", counted)
        return calls

    @staticmethod
    def _run(method, **config):
        return cli.replicate("evidence", resolve_config(
            "evidence", {"method": method, "n_draws": 200, **config}))

    def test_six_methods_at_one_key_make_one_gibbs_call(self, gibbs_calls):
        for method in EVIDENCE_METHODS:
            self._run(method, seed=3, replicates=2)
        assert gibbs_calls == [(3, 200), (2, 200)]

    @pytest.mark.parametrize("change", [{"seed": 4}, {"n_draws": 201},
                                        {"replicates": 3}])
    def test_a_new_key_makes_a_new_call(self, gibbs_calls, change):
        base = {"seed": 3, "replicates": 2}
        self._run("chib", **base)
        self._run("harmonic-nr", **base)
        assert len(gibbs_calls) == 2
        self._run("chib", **{**base, **change})
        assert len(gibbs_calls) == 4

    # the bundled file's first row, and that row with another glu or type
    @pytest.mark.parametrize("edited", ["113,65,0.227,No", "112,65,0.227,Yes"])
    def test_a_data_file_is_keyed_by_its_content(self, tmp_path, gibbs_calls,
                                                 edited):
        text = open(bundled_pima_path(), encoding="utf-8").read()
        path = tmp_path / "pima.csv"
        path.write_text(text, encoding="utf-8")
        self._run("chib", data=str(path))
        path.write_text(text, encoding="utf-8")  # the same bytes, read again
        self._run("chib", data=str(path))
        assert len(gibbs_calls) == 2
        path.write_text(text.replace("\n112,65,0.227,No\n", f"\n{edited}\n", 1),
                        encoding="utf-8")
        self._run("chib", data=str(path))
        assert len(gibbs_calls) == 4

    def test_summaries_equal_a_cold_memo_runs(self, tmp_path, monkeypatch):
        def outputs(method, subdir):
            code, out = run_cli(tmp_path, "evidence", {
                "method": method, "n_draws": 200, "seed": 5, "replicates": 2},
                subdir=subdir)
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            del summary["runtime_seconds"]
            return summary, (out / "replicates.csv").read_bytes()

        warm = {m: outputs(m, f"warm-{m}") for m in EVIDENCE_METHODS}
        for method in EVIDENCE_METHODS:
            monkeypatch.setattr(cli, "_last_chain_pair", None)
            assert outputs(method, f"cold-{method}") == warm[method], method

    def test_the_kept_arrays_are_read_only(self):
        rngs = [RngStream(2, r) for r in range(2)]
        pima = load_pima(bundled_pima_path())
        pima0 = ProbitModel(design=pima.design[:, :2], response=pima.response)
        runs = cli._chain_pair(pima, pima0, rngs, 50)
        assert cli._chain_pair(pima, pima0, rngs, 50) is runs
        for states, means in runs:
            for array in (states, means, states[0, :, :2]):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 0.0

    def test_a_gibbs_call_that_raises_stores_nothing(self, monkeypatch, gibbs_calls):
        self._run("chib", seed=1)
        kept = cli._last_chain_pair
        # the pair's first call (the 3-covariate model's) or its second raises
        for fails in (3, 2):
            def failing(model, n_iter, rngs, fails=fails):
                if model.dimension == fails:
                    raise FloatingPointError("no luck")
                return probit_gibbs_chains(model, n_iter, rngs)

            monkeypatch.setattr(cli, "probit_gibbs_chains", failing)
            monkeypatch.setattr(cli, "_last_chain_pair", kept)
            with pytest.raises(FloatingPointError):
                self._run("chib", seed=2)
            assert cli._last_chain_pair is kept
            monkeypatch.setattr(cli, "_last_chain_pair", None)
            with pytest.raises(FloatingPointError):
                self._run("chib", seed=2)
            assert cli._last_chain_pair is None

    def test_a_stream_built_from_a_shifted_seed_misses(self, monkeypatch):
        # the seed audit rebuilds each generator from seed + 1 and leaves the
        # stream's seed field alone, so seed 5 must draw seed 6's chains
        shifted = self._run("chib", seed=6)
        self._run("chib", seed=5)
        monkeypatch.setattr(core.RngStream, "__post_init__",
                            core.RngStream.__post_init__)
        _seed_audit()._offset_streams(core, 1)
        assert self._run("chib", seed=5) == shifted
