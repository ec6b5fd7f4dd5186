"""Scenario driver tests.

Oracles: the closed-form random-walk energy m * sigma^2 * null_dim for the
perturbation scenarios, the subset-enumeration margin solver inside the
direction study, and byte-level file comparison for the determinism
contract. Scenario runs here use trimmed repetition/horizon overrides; the
full-size defaults are exercised in the acceptance suite.
"""

import filecmp
import json
import os
from dataclasses import asdict, fields

import numpy as np
import pytest

from gradflow import cli, experiments, flow
from gradflow.experiments import (
    ExperimentConfig,
    ScenarioReport,
    SCENARIO_DEFAULTS,
    chebyshev_nodes,
    run_scenario,
    write_report_json,
)
from gradflow.flow import StopRule, _fmt_cell, _write_table


class TestExperimentConfig:
    def test_unknown_scenario_names_field(self):
        with pytest.raises(ValueError, match="scenario"):
            ExperimentConfig(scenario="nope")

    def test_unknown_param_names_key(self):
        with pytest.raises(ValueError, match="params.widgets"):
            ExperimentConfig(scenario="growth_asymptotics",
                             params={"widgets": 3})

    def test_repetitions_floor(self):
        with pytest.raises(ValueError, match="params.repetitions"):
            ExperimentConfig(scenario="sine_polynomial_perturbation",
                             params={"repetitions": 0})

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_DEFAULTS))
    def test_defaults_obey_the_bounds(self, scenario):
        # bounds apply to given values only: a default that broke its own
        # rule would run unchecked unless a config repeated it
        defaults = SCENARIO_DEFAULTS[scenario]
        for key, value in defaults.items():
            assert experiments._check_param(f"params.{key}", value,
                                            value) == value
        assert ExperimentConfig(scenario=scenario,
                                params=defaults).resolved() == defaults

    def test_seed_must_be_integer(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(scenario="growth_asymptotics", seed=1.5)

    def test_resolved_merges_overrides(self):
        cfg = ExperimentConfig(scenario="min_norm_degree_sweep",
                               params={"max_degree": 12})
        merged = cfg.resolved()
        assert merged["max_degree"] == 12
        assert merged["n_train"] == SCENARIO_DEFAULTS[
            "min_norm_degree_sweep"]["n_train"]

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(scenario="growth_asymptotics", seed=3)
        b = ExperimentConfig(scenario="growth_asymptotics", seed=3)
        c = ExperimentConfig(scenario="growth_asymptotics", seed=4)
        d = ExperimentConfig(scenario="growth_asymptotics", seed=3,
                             params={"t_max": 2e4})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert a.config_hash() != d.config_hash()

    def test_params_are_typed_once(self):
        # a float param given as an integer is the same config, and the
        # scenarios read the default's type: float, int, tuple of entries
        a = ExperimentConfig(scenario="convergence_direction_study",
                             params={"step": 1, "blob_center": [1, 0.7]})
        b = ExperimentConfig(scenario="convergence_direction_study",
                             params={"step": 1.0, "blob_center": (1.0, 0.7)})
        assert a.config_hash() == b.config_hash()
        merged = a.resolved()
        assert type(merged["step"]) is float
        assert merged["blob_center"] == (1.0, 0.7)
        assert type(merged["blob_center"][0]) is float
        assert type(ExperimentConfig(
            scenario="toy_deepnet_perturbation",
            params={"dims": [2, 8, 1]}).resolved()["dims"]) is tuple

    def test_hash_ignores_output_dir(self):
        a = ExperimentConfig(scenario="growth_asymptotics", output_dir="/x")
        b = ExperimentConfig(scenario="growth_asymptotics", output_dir="/y")
        assert a.config_hash() == b.config_hash()

    def test_header_embeds_scenario_hash_seed(self):
        cfg = ExperimentConfig(scenario="growth_asymptotics", seed=11)
        head = cfg.header()
        assert head.startswith("scenario=growth_asymptotics config=")
        assert head.endswith("seed=11")
        assert cfg.config_hash() in head

    def test_header_and_hash_bytes_are_pinned(self):
        # scenario configs and one-shot commands share one header helper;
        # these are the bytes it wrote before it was shared
        cfg = ExperimentConfig(scenario="growth_asymptotics", seed=11,
                               params={"ks": [1, 2]})
        assert cfg.config_hash() == "3045026abb1c"
        assert cfg.header() == (
            "scenario=growth_asymptotics config=3045026abb1c seed=11")
        body = {"dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                            "labels": [1.0, -1.0]}}
        assert cli._run_header("svm", body, 3) == (
            "scenario=svm config=63f80858429d seed=3")


class TestReportPlumbing:
    def test_fmt_cell(self):
        assert _fmt_cell(None) == ""
        assert _fmt_cell("flag") == "flag"
        assert _fmt_cell(True) == "1"
        assert _fmt_cell(7) == "7"
        # shortest round-trip float text
        assert float(_fmt_cell(0.1)) == 0.1
        assert _fmt_cell(0.1) == "0.1"
        # numpy scalars write as the Python values they hold
        assert _fmt_cell(np.float64(0.1)) == "0.1"
        assert _fmt_cell(np.int64(7)) == "7"
        assert _fmt_cell(np.bool_(True)) == "1"

    def test_write_table_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_table(path, "hdr line", ["a", "b"], [[1, None], [2.5, "x"]])
        raw = path.read_bytes().decode()
        assert raw == "# hdr line\na,b\n1,\n2.5,x\n"

    def test_report_json_uses_basenames(self, tmp_path):
        report = ScenarioReport(
            scenario="growth_asymptotics", seed=0, config_hash="abc",
            repetitions=1, excluded=0, predicates={"ok": True},
            aggregates={"x": np.float64(1.5)},
            trace_paths=["/some/deep/dir/run.csv"], notes=[],
        )
        path = tmp_path / "r.json"
        write_report_json(report, path, header="h")
        body = json.loads(path.read_text())
        assert body["trace_paths"] == ["run.csv"]
        assert body["passed"] is True
        assert body["aggregates"]["x"] == 1.5
        assert body.keys() == {f.name for f in fields(ScenarioReport)} | {
            "passed", "header"}

    def test_run_scenario_calls_the_runner_bound_to_the_name(self,
                                                              monkeypatch):
        # looked up at call time, so a wrapper bound to the name runs
        calls = []
        monkeypatch.setattr(experiments, "min_norm_degree_sweep",
                            lambda config: calls.append(config) or "stub")
        cfg = ExperimentConfig(scenario="min_norm_degree_sweep")
        assert run_scenario(cfg) == "stub"
        assert calls == [cfg]

    def test_numpy_integer_seed_writes_its_report(self, tmp_path):
        # ExperimentConfig takes a numpy integer seed; json is handed it
        cfg = ExperimentConfig(
            scenario="growth_asymptotics", seed=np.int64(3),
            output_dir=str(tmp_path),
            params=SMALL_RUNS["growth_asymptotics"][0])
        run_scenario(cfg)
        body = json.loads(
            (tmp_path / "growth_asymptotics_report.json").read_text())
        assert body["seed"] == 3
        assert body["header"].endswith(" seed=3")
        assert cfg.config_hash() == ExperimentConfig(
            scenario="growth_asymptotics", seed=3,
            params=SMALL_RUNS["growth_asymptotics"][0]).config_hash()

    def test_passed_requires_nonempty_predicates(self):
        base = dict(scenario="growth_asymptotics", seed=0, config_hash="a",
                    repetitions=1, excluded=0, aggregates={},
                    trace_paths=[], notes=[])
        assert not ScenarioReport(predicates={}, **base).passed
        assert ScenarioReport(predicates={"p": True}, **base).passed
        assert not ScenarioReport(predicates={"p": True, "q": False},
                                  **base).passed


class TestChebyshevNodes:
    def test_closed_form(self):
        n = 9
        got = chebyshev_nodes(n)
        i = np.arange(1, n + 1)
        assert np.allclose(got, np.cos((2 * i - 1) * np.pi / (2 * n)))
        assert got.shape == (n,)
        assert np.all(np.abs(got) < 1.0)


class TestSinePerturbation:
    def test_trimmed_run_passes(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="sine_polynomial_perturbation", seed=0,
            output_dir=str(tmp_path),
            params={"repetitions": 8, "total_steps": 1_200_000},
        )
        report = run_scenario(cfg)
        assert report.passed
        assert report.excluded == 0
        # four events fire before the halfway stop (120k..480k)
        counts = report.aggregates["perturbation_counts"]
        assert int(counts[-1]) == 4
        assert np.all(np.diff(counts) >= 0)
        obs = report.aggregates["final_null_sq_observed"]
        pred = report.aggregates["final_null_sq_predicted"]
        assert abs(obs / pred - 1.0) <= 0.2
        assert report.aggregates["null_dimension"] == 31

    def test_trace_files_carry_header(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="sine_polynomial_perturbation", seed=0,
            output_dir=str(tmp_path),
            params={"repetitions": 2, "total_steps": 480_000},
        )
        report = run_scenario(cfg)
        assert report.trace_paths
        for path in report.trace_paths:
            if path.endswith(".json"):
                continue
            first = open(path).readline()
            assert first.startswith(f"# {cfg.header()}")

    def test_impossible_tolerance_excludes_everything(self):
        # ten steps per cycle are too few to re-converge
        cfg = ExperimentConfig(
            scenario="sine_polynomial_perturbation", seed=0,
            params={"repetitions": 3, "total_steps": 40, "interval": 10},
        )
        report = run_scenario(cfg)
        assert report.excluded == 3
        assert not report.predicates["exclusions_ok"]
        assert not report.passed

    def test_control_with_too_few_steps_excludes_everything(self):
        # ten steps from a random start leave every control unconverged
        cfg = ExperimentConfig(
            scenario="sine_polynomial_perturbation", seed=0,
            params={"perturb": False, "total_steps": 10, "repetitions": 3,
                    "init_scale": 0.3},
        )
        report = run_scenario(cfg)
        assert report.excluded == 3
        assert report.predicates == {"exclusions_ok": False}
        assert "mean_norm" not in report.aggregates

    def test_one_propagate_call_per_checkpoint(self, monkeypatch):
        calls = []
        propagate = flow.LinearSquareGD.propagate

        def counted(gd, w0, n_steps):
            calls.append(np.shape(w0))
            return propagate(gd, w0, n_steps)

        monkeypatch.setattr(flow.LinearSquareGD, "propagate", counted)
        run_scenario(ExperimentConfig(
            scenario="sine_polynomial_perturbation", seed=0,
            params={"repetitions": 6, "total_steps": 1_200_000},
        ))
        # checkpoints every 120k steps through 1.2M: one stacked call each
        assert calls == [(6, 40)] * 10

    def test_repetition_rows_do_not_depend_on_the_stack(self, tmp_path):
        def rep_rows(seed, reps, rep):
            out = tmp_path / f"s{seed}_r{reps}"
            run_scenario(ExperimentConfig(
                scenario="sine_polynomial_perturbation", seed=seed,
                output_dir=str(out), params={"repetitions": reps},
            ))
            name = f"sine_polynomial_perturbation_rep{rep:02d}.csv"
            # all but the header comment, which names seed and config
            return (out / name).read_bytes().split(b"\n", 1)[1]

        for r in range(5):
            assert rep_rows(0, 5, r) == rep_rows(r, 1, 0)

    def test_negative_init_scale_draws_a_start(self, tmp_path):
        # any nonzero scale draws each repetition's start; only 0.0 starts
        # at the zero vector
        def rep_rows(scale):
            out = tmp_path / f"scale{scale}"
            run_scenario(ExperimentConfig(
                scenario="sine_polynomial_perturbation", seed=0,
                output_dir=str(out),
                params={"init_scale": scale, "repetitions": 2,
                        "total_steps": 480_000},
            ))
            # all but the header comment, which names the config
            return [(out / f"sine_polynomial_perturbation_rep{r:02d}.csv")
                    .read_bytes().split(b"\n", 1)[1] for r in range(2)]

        for drawn, zero in zip(rep_rows(-1.0), rep_rows(0.0), strict=True):
            assert drawn != zero

    def test_control_norms_flat(self):
        cfg = ExperimentConfig(
            scenario="sine_polynomial_perturbation", seed=0,
            params={"perturb": False, "degree": 30, "total_steps": 250_000,
                    "repetitions": 3, "init_scale": 0.3},
        )
        report = run_scenario(cfg)
        assert report.passed
        assert report.predicates["norms_flat_after_convergence"]
        assert report.aggregates["norm_drift_after_halfway"] <= 1e-4


@pytest.fixture(scope="module")
def sweep_report():
    return run_scenario(ExperimentConfig(
        scenario="min_norm_degree_sweep", seed=0,
        params={"max_degree": 90},
    ))


@pytest.fixture(scope="module")
def growth_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("growth")
    return run_scenario(ExperimentConfig(
        scenario="growth_asymptotics", seed=0, output_dir=str(out),
        params={"ks": (1, 2), "grid_points": 31, "slope_points": 11,
                "closed_form_points": 5},
    ))


class TestDegreeSweep:
    @pytest.fixture
    def report(self, sweep_report):
        return sweep_report

    def test_predicates_pass(self, report):
        assert report.passed
        assert report.predicates["degree_one_underfits"]
        assert report.predicates["interpolates_from_threshold"]
        assert report.predicates["condition_flags_fire"]

    def test_analytic_target_crosses_early(self, report):
        # geometric coefficient decay beats the tolerance well before the
        # rank threshold forces exact interpolation
        assert report.aggregates["first_degree_within_tolerance"] == 37

    def test_threshold_spike_is_flagged_not_solved(self, report):
        # conditioning peaks right at the square case; those degrees are
        # refused as rank-deficient rather than silently mis-solved
        flagged = sorted(
            int(n.split()[1].rstrip(":")) for n in report.notes
        )
        assert flagged == [72, 73, 74]

    def test_interpolation_residual_scale(self, report):
        assert report.aggregates["max_train_sse_past_threshold"] <= 1e-8

    def test_refused_degrees_count_as_exclusions(self, report):
        # 3 of 90 degrees is within MAX_EXCLUSION_RATE
        assert report.excluded == 3
        assert report.predicates["exclusions_ok"]

    def test_too_many_refused_degrees_fail_the_report(self):
        narrow = run_scenario(ExperimentConfig(
            scenario="min_norm_degree_sweep", seed=0,
            params={"min_degree": 70, "max_degree": 76},
        ))
        assert narrow.excluded == 3
        assert not narrow.predicates["exclusions_ok"]
        assert not narrow.passed


class TestToyDeepnet:
    def test_trimmed_run_passes(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="toy_deepnet_perturbation", seed=0,
            output_dir=str(tmp_path),
            params={"repetitions": 3, "cycles": 4,
                    "control_repetitions": 1},
        )
        report = run_scenario(cfg)
        assert report.passed
        assert report.predicates["train_error_zero_each_cycle"]
        assert report.predicates["mean_layer_norms_increase_each_cycle"]
        assert report.aggregates["min_norm_increment"] > 0.0
        # perturbed growth dominates the unperturbed control on each layer
        ctrl = np.asarray(report.aggregates["control_growth"])
        pert = np.asarray(report.aggregates["perturbed_growth"])
        assert np.all(pert >= 2.0 * np.maximum(ctrl, 0.0))
        names = [os.path.basename(p) for p in report.trace_paths]
        assert "toy_deepnet_perturbation_plot.csv" in names

    def test_controls_ride_in_the_protocol_stack(self, monkeypatch):
        # the control twins flow inside the protocol's run_flows calls, and
        # their growth is bitwise that of one separate unbroken stack of
        # the pretrained control states
        calls = []
        real = flow.run_flows

        def counted(*args, **kwargs):
            traces = real(*args, **kwargs)
            calls.append((args, traces))
            return traces

        monkeypatch.setattr(flow, "run_flows", counted)
        monkeypatch.setattr(experiments, "run_flows", counted)
        params = {"repetitions": 3, "control_repetitions": 2, "cycles": 2,
                  "interval": 300, "pretrain_steps": 1000, "blob_std": 0.25}
        report = run_scenario(ExperimentConfig(
            scenario="toy_deepnet_perturbation", seed=0, params=params))
        assert len(calls) == params["cycles"] + 2
        (_, kind, train, _), pretrained = calls[0]
        controls = [trace.final_state for trace in
                    pretrained[: params["control_repetitions"]]]
        horizon = params["interval"] * (params["cycles"] + 1)
        want = np.array([np.subtract(twin.rows[-1].norms, twin.rows[0].norms)
                         for twin in real(controls, kind, train,
                                          StopRule(max_steps=horizon),
                                          sample_every=horizon)]
                        ).mean(axis=0)
        got = np.asarray(report.aggregates["control_growth"])
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestGrowthAsymptotics:
    @pytest.fixture
    def report(self, growth_report):
        return growth_report

    def test_predicates_pass(self, report):
        assert report.passed

    def test_depth_one_tracks_log(self, report):
        assert 0.95 <= report.aggregates["k1_slope"] <= 1.05

    def test_depth_two_matches_closed_form(self, report):
        assert report.aggregates["k2_closed_form_max_rel_err"] <= 1e-3

    def test_csv_has_rho_and_product_columns(self, report):
        path = [p for p in report.trace_paths if p.endswith("_k2.csv")][0]
        with open(path) as fh:
            fh.readline()
            header = fh.readline().strip().split(",")
        assert header == ["t", "log_t", "rho", "product"]

    def test_zero_scale_rejected_for_deep_stacks(self):
        with pytest.raises(ValueError, match="params.rho0"):
            cfg = ExperimentConfig(scenario="growth_asymptotics",
                                   params={"rho0": 0.0})
            run_scenario(cfg)

    @pytest.mark.parametrize("params, message", [
        ({"ks": []}, "params.ks: must name at least one depth, got []"),
        ({"ks": [0]}, "params.ks[0]: must be >= 1, got 0"),
        ({"ks": [1, -1]}, "params.ks[1]: must be >= 1, got -1"),
        ({"ks": [2, 2]}, "params.ks: depths must be distinct, got [2, 2]"),
        ({"f_tilde": 0.0}, "params.f_tilde: must be > 0, got 0.0"),
        ({"f_tilde": -1.0}, "params.f_tilde: must be > 0, got -1.0"),
    ])
    def test_bad_depths_and_margin_refused_by_name(self, tmp_path, params,
                                                   message):
        with pytest.raises(ValueError) as err:
            cfg = ExperimentConfig(scenario="growth_asymptotics",
                                   output_dir=str(tmp_path / "out"),
                                   params=params)
            run_scenario(cfg)
        assert str(err.value) == message
        assert not (tmp_path / "out").exists()

    def test_overflowing_curve_is_an_exclusion(self):
        # exp(800) overflows in the first step: the curve is inf from there
        cfg = ExperimentConfig(
            scenario="growth_asymptotics",
            params={"ks": [1], "rho0_k1": -800.0, "grid_points": 7,
                    "slope_points": 3},
        )
        with pytest.warns(RuntimeWarning, match="overflow"):
            report = run_scenario(cfg)
        assert not report.predicates["exclusions_ok"]
        assert report.excluded == 1
        assert report.notes == ["k=1: non-finite or decreasing growth curve"]

    def test_one_integration_per_depth(self, monkeypatch):
        # each depth is integrated once, over t_grid and its checks' points
        grids = []
        real = experiments.growth_numeric_trace

        def spy(k, f_tilde, rho0, t_grid):
            grids.append((k, np.asarray(t_grid)))
            return real(k, f_tilde, rho0, t_grid)

        monkeypatch.setattr(experiments, "growth_numeric_trace", spy)
        report = run_scenario(ExperimentConfig(
            scenario="growth_asymptotics",
            params={"ks": (1, 2, 4), "grid_points": 7, "slope_points": 3,
                    "closed_form_points": 3},
        ))
        assert report.passed
        assert [k for k, _ in grids] == [1, 2, 4]
        t_grid = np.geomspace(1e-2, 1e4, 7)
        assert np.array_equal(grids[2][1], t_grid)
        for k, grid in grids[:2]:
            assert np.all(np.diff(grid) > 0.0)
            assert np.isin(t_grid, grid).all()
        assert grids[0][1][-1] == 1e5  # the slope window's end

    def test_trends_fail_without_two_points_past_e(self):
        # of the grid [t_min, t_max] only t_max lies past e: no pair of
        # points shows a trend, so no trend predicate passes
        report = run_scenario(ExperimentConfig(
            scenario="growth_asymptotics", params={"grid_points": 2}))
        assert {name for name, ok in report.predicates.items() if not ok} == {
            "k2_excess_increasing", "k2_layer_ratio_decreasing",
            "k4_excess_increasing", "k4_layer_ratio_decreasing"}

    @pytest.mark.parametrize("defect", ["nan", "decreasing"])
    def test_broken_curve_fails_exclusions(self, monkeypatch, defect):
        real = experiments.growth_numeric_trace

        def broken(k, f_tilde, rho0, t_grid):
            rho = np.array(real(k, f_tilde, rho0, t_grid))
            if k == 4:
                if defect == "nan":
                    rho[len(rho) // 2] = np.nan
                else:
                    rho[-1] = rho[-2] - 1e-3
            return rho

        monkeypatch.setattr(experiments, "growth_numeric_trace", broken)
        report = run_scenario(ExperimentConfig(
            scenario="growth_asymptotics",
            params={"grid_points": 7, "slope_points": 3,
                    "closed_form_points": 3},
        ))
        assert not report.predicates["exclusions_ok"]
        assert not report.passed
        assert report.excluded == 1
        assert report.notes == ["k=4: non-finite or decreasing growth curve"]


class TestDirectionStudy:
    def test_trimmed_run_passes(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="convergence_direction_study", seed=0,
            output_dir=str(tmp_path),
            params={"n_datasets": 2, "n_inits": 2},
        )
        report = run_scenario(cfg)
        assert report.passed
        assert report.aggregates["min_cosine_to_oracle"] >= 0.999
        assert report.aggregates["min_pairwise_cosine"] >= 0.999
        assert report.aggregates["square_zero_init_gap"] <= 1e-6
        assert report.aggregates["square_null_init_gap"] <= 1e-6
        assert report.excluded == 0

    def test_halved_step_at_the_same_horizon_keeps_end_directions(
            self, monkeypatch):
        # loss-rescaled steps: the horizon step * max_steps sets where a
        # flow ends. Halving the default step at the same horizon moves no
        # end direction by more than 1e-3 rad, a fortieth of the 0.045 rad
        # that COSINE_TARGET allows, so the default step is inside the
        # flow's regime and not only inside the predicate's.
        p = SCENARIO_DEFAULTS["convergence_direction_study"]
        finals = []
        real = experiments.run_flows

        def capture(*args, **kwargs):
            outs = real(*args, **kwargs)
            finals.append(outs)
            return outs

        monkeypatch.setattr(experiments, "run_flows", capture)
        for scale in (1, 2):
            run_scenario(ExperimentConfig(
                scenario="convergence_direction_study", seed=0,
                params={"n_datasets": 2, "n_inits": 2,
                        "step": p["step"] / scale,
                        "max_steps": p["max_steps"] * scale},
            ))
        # run_flows runs the exponential flows first, then the square ones
        default, halved = finals[0], finals[2]
        assert len(default) == len(halved) == 4
        for a, b in zip(default, halved):
            wa = a.final_state.net.layers[0].ravel()
            wb = b.final_state.net.layers[0].ravel()
            cos = wa @ wb / np.sqrt((wa @ wa) * (wb @ wb))
            assert np.arccos(min(cos, 1.0)) <= 1e-3

    def test_loss_floor_is_reported_not_excluded(self):
        # with max_time off (the bench's shape) the flows run onto the
        # loss floor; at max_time they stop short of it
        base = {"n_datasets": 2, "n_inits": 2}
        floored = run_scenario(ExperimentConfig(
            scenario="convergence_direction_study", seed=0,
            params={**base, "max_time": None, "max_steps": 3000},
        ))
        count = floored.aggregates["floored_steps"]
        assert count > 0
        assert any(f"{count} exponential" in n and "LOSS_FLOOR" in n
                   for n in floored.notes)
        assert floored.excluded == 0
        stopped = run_scenario(ExperimentConfig(
            scenario="convergence_direction_study", seed=0, params=base,
        ))
        assert stopped.aggregates["floored_steps"] == 0
        assert not any("LOSS_FLOOR" in n for n in stopped.notes)

    def test_square_flows_short_of_their_limit_are_excluded(self):
        # 5 steps end both square-loss flows at max_steps, far from the
        # gradient-norm target; the exponential flows, also ending at
        # max_steps by design, are not excluded
        report = run_scenario(ExperimentConfig(
            scenario="convergence_direction_study", seed=0,
            params={"n_datasets": 2, "n_inits": 2, "max_time": None,
                    "max_steps": 500, "square_steps": 5},
        ))
        assert report.excluded == 2
        assert not report.predicates["exclusions_ok"]
        assert not report.passed

    def test_giveups_are_excluded(self, monkeypatch):
        # the rate is per dataset: one flow with a give-up among 10
        # datasets is within the 10% rate, two are not
        real = experiments.run_flows

        def with_giveups(*args, **kwargs):
            traces = real(*args, **kwargs)
            for trace in traces[:count]:
                trace.counts["backtrack_giveups"] = 1
            return traces

        monkeypatch.setattr(experiments, "run_flows", with_giveups)
        params = {"n_datasets": 10, "n_inits": 2, "max_steps": 300}
        for count, ok in ((1, True), (2, False)):
            report = run_scenario(ExperimentConfig(
                scenario="convergence_direction_study", params=params))
            assert report.excluded == count
            assert report.predicates["exclusions_ok"] is ok


# one small config per scenario, with the count of units it excludes from
SMALL_RUNS = {
    "sine_polynomial_perturbation": (
        {"repetitions": 2, "total_steps": 480_000}, 2),
    "min_norm_degree_sweep": ({"max_degree": 20}, 20),
    "toy_deepnet_perturbation": (
        {"repetitions": 1, "control_repetitions": 1, "cycles": 1,
         "interval": 100, "pretrain_steps": 1000, "blob_std": 0.25}, 1),
    "growth_asymptotics": (
        {"grid_points": 7, "slope_points": 3, "closed_form_points": 2}, 3),
    "convergence_direction_study": (
        {"n_datasets": 1, "n_inits": 2, "blob_std": 0.1, "max_time": None,
         "max_steps": 100, "square_samples": 2, "square_dim": 16}, 4),
}


class _ReadRecorder(dict):
    def __init__(self, body, reads):
        super().__init__(body)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("scenario", sorted(SMALL_RUNS))
def test_every_default_is_read(monkeypatch, scenario):
    # a scenario param that the runner never reads sets nothing
    reads = set()
    real = ExperimentConfig.resolved
    monkeypatch.setattr(ExperimentConfig, "resolved",
                        lambda self: _ReadRecorder(real(self), reads))
    run_scenario(ExperimentConfig(scenario=scenario,
                                  params=SMALL_RUNS[scenario][0]))
    assert sorted(set(SCENARIO_DEFAULTS[scenario]) - reads) == []


@pytest.mark.parametrize("scenario", sorted(SMALL_RUNS))
def test_repetitions_is_the_count_excluded_is_taken_from(scenario):
    # repetitions, degrees, depths, and exponential plus two square flows
    params, units = SMALL_RUNS[scenario]
    report = run_scenario(ExperimentConfig(scenario=scenario, params=params))
    assert report.repetitions == units


@pytest.mark.parametrize("scenario", sorted(SMALL_RUNS))
def test_report_predicates_are_json_booleans(tmp_path, scenario):
    run_scenario(ExperimentConfig(scenario=scenario, output_dir=str(tmp_path),
                                  params=SMALL_RUNS[scenario][0]))
    body = json.loads((tmp_path / f"{scenario}_report.json").read_text())
    assert body["predicates"]
    assert all(isinstance(v, bool) for v in body["predicates"].values())


# the trimmed configs of acceptance criterion 14: every runner writes each
# kind of file it has (repetition or dataset traces, curves, plot, report)
TRIMMED_RUNS = {
    "sine_polynomial_perturbation": {"repetitions": 3,
                                     "total_steps": 480_000},
    "min_norm_degree_sweep": {"max_degree": 40},
    "toy_deepnet_perturbation": {"repetitions": 2, "cycles": 2,
                                 "control_repetitions": 1},
    "growth_asymptotics": {"ks": (2,), "grid_points": 21,
                           "closed_form_points": 3},
    "convergence_direction_study": {"n_datasets": 1, "n_inits": 2},
}


@pytest.mark.parametrize("scenario", sorted(TRIMMED_RUNS))
def test_report_names_the_files_of_its_run(tmp_path, monkeypatch, scenario):
    # every file goes through one of the two writers; record their order
    written = []
    for name in ("_write_table", "_write_json"):
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name, lambda path, *rest, real=real:
                            (written.append(str(path)), real(path, *rest)))
    out = tmp_path / "out"
    config = ExperimentConfig(scenario=scenario, seed=9, output_dir=str(out),
                              params=TRIMMED_RUNS[scenario])
    report = run_scenario(config)
    names = [os.path.basename(p) for p in report.trace_paths]
    assert report.trace_paths == written
    assert sorted(names) == sorted(os.listdir(out))
    assert names[-1] == f"{scenario}_report.json"
    assert all(name.startswith(f"{scenario}_") for name in names)
    for name in names[:-1]:
        with open(out / name) as fh:
            assert fh.readline() == f"# {config.header()}\n", name
    body = json.loads((out / names[-1]).read_text())
    assert body["trace_paths"] == names[:-1]
    assert body["header"] == config.header()

    # no output directory: no file, and the same report otherwise
    written.clear()
    monkeypatch.chdir(tmp_path)
    bare = run_scenario(ExperimentConfig(scenario=scenario, seed=9,
                                         params=TRIMMED_RUNS[scenario]))
    assert written == [] and bare.trace_paths == []
    assert sorted(os.listdir(tmp_path)) == ["out"]
    assert (experiments._json_text({**asdict(bare), "trace_paths": []})
            == experiments._json_text({**asdict(report), "trace_paths": []}))


class TestByteDeterminism:
    def _run_twice(self, tmp_path, scenario, params):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_scenario(ExperimentConfig(
                scenario=scenario, seed=5, output_dir=str(out),
                params=params,
            ))
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name,
                               shallow=False), name

    def test_sweep_reruns_identical(self, tmp_path):
        self._run_twice(tmp_path, "min_norm_degree_sweep",
                        {"max_degree": 40})

    def test_sine_reruns_identical(self, tmp_path):
        self._run_twice(tmp_path, "sine_polynomial_perturbation",
                        {"repetitions": 3, "total_steps": 480_000})


@pytest.mark.parametrize("obj, name", [(object(), "object"), ({1}, "set"),
                                       (1j, "complex")])
def test_json_hook_refuses_what_it_cannot_write(obj, name):
    with pytest.raises(TypeError, match=f"^Object of type {name} is not "
                                        "JSON serializable$"):
        experiments._json_default(obj)
