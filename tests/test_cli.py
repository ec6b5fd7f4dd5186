"""CLI contract tests: exit codes, field-naming errors, output headers,
seed precedence, and byte-identical reruns."""

import json
import os

import numpy as np
import pytest

from gradflow.cli import main
from gradflow.losses import Dataset, batch_outputs
from gradflow.network import random_net
from gradflow.spectra import DEFAULT_ZERO_TOL, MAX_HESSIAN_DIM, hessian


def _write(path, body):
    with open(path, "w") as fh:
        json.dump(body, fh)
    return str(path)


@pytest.fixture
def two_points(tmp_path):
    return _write(tmp_path / "two_points.json", {
        "dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                    "labels": [1.0, -1.0]},
    })


class TestDispatch:
    def test_unknown_subcommand_exits_64(self, capsys):
        assert main(["frobnicate"]) == 64
        err = capsys.readouterr().err
        assert "unknown subcommand: frobnicate" in err
        assert "usage:" in err

    def test_no_subcommand_exits_64(self, capsys):
        assert main([]) == 64
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "subcommands:" in capsys.readouterr().out

    def test_missing_config_file_names_path(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["svm", "--config", missing]) == 1
        assert missing in capsys.readouterr().err

    def test_config_through_a_pipe(self, tmp_path):
        # what --config <(echo '{...}') hands over: a readable /dev/fd/N
        # that is no regular file
        body = json.dumps({"dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                                       "labels": [1.0, -1.0]}})
        read_fd, write_fd = os.pipe()
        try:
            with os.fdopen(write_fd, "w") as fh:
                fh.write(body)
            assert main(["svm", "--config", f"/dev/fd/{read_fd}",
                         "--output-dir", str(tmp_path / "out")]) == 0
        finally:
            os.close(read_fd)
        assert os.listdir(tmp_path / "out")

    def test_directory_config_names_path(self, capsys, tmp_path):
        assert main(["svm", "--config", str(tmp_path)]) == 1
        assert f"no such file: {tmp_path}" in capsys.readouterr().err

    def test_invalid_json_names_path(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["svm", "--config", str(path)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_bad_flag_value_exits_1(self, tmp_path, two_points, capsys):
        assert main(["svm", "--config", two_points, "--seed", "abc"]) == 1


class TestSvm:
    def test_antipodal_pair_solution(self, tmp_path, two_points):
        out = tmp_path / "out"
        assert main(["svm", "--config", two_points,
                     "--output-dir", str(out)]) == 0
        body = json.loads((out / "svm_solution.json").read_text())
        assert body["w_tilde"] == [1.0, 0.0]
        assert body["margin"] == 1.0
        assert body["support_indices"] == [0, 1]
        assert body["header"].startswith("scenario=svm config=")
        assert body["header"].endswith("seed=0")

    def test_nonseparable_exits_1(self, tmp_path, capsys):
        cfg = _write(tmp_path / "bad.json", {
            "dataset": {"inputs": [[1.0, 0.0], [1.0, 0.0]],
                        "labels": [1.0, -1.0]},
        })
        assert main(["svm", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1

    def test_missing_dataset_names_field(self, tmp_path, capsys):
        cfg = _write(tmp_path / "empty.json", {})
        assert main(["svm", "--config", cfg]) == 1
        assert "dataset" in capsys.readouterr().err


class TestSeedPrecedence:
    def _header_seed(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 0
        body = json.loads((out / "svm_solution.json").read_text())
        return body["header"].rsplit("seed=", 1)[1]

    def test_env_fallback(self, tmp_path, two_points, monkeypatch):
        monkeypatch.setenv("GRADFLOW_SEED", "7")
        assert self._header_seed(
            tmp_path, ["svm", "--config", two_points]) == "7"

    def test_config_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRADFLOW_SEED", "7")
        cfg = _write(tmp_path / "c.json", {
            "seed": 5,
            "dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                        "labels": [1.0, -1.0]},
        })
        assert self._header_seed(tmp_path, ["svm", "--config", cfg]) == "5"

    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRADFLOW_SEED", "7")
        cfg = _write(tmp_path / "c.json", {
            "seed": 5,
            "dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                        "labels": [1.0, -1.0]},
        })
        assert self._header_seed(
            tmp_path, ["svm", "--config", cfg, "--seed", "3"]) == "3"

    def test_bad_env_value_names_variable(self, tmp_path, two_points,
                                          monkeypatch, capsys):
        monkeypatch.setenv("GRADFLOW_SEED", "not-a-number")
        assert main(["svm", "--config", two_points]) == 1
        assert "GRADFLOW_SEED" in capsys.readouterr().err


class TestFlow:
    def _config(self, tmp_path, **extra):
        body = {
            "dataset": {"inputs": [[2.0, 0.3], [1.5, -0.4],
                                   [-1.0, 2.0], [-2.0, -0.5]],
                        "labels": [1, 1, -1, -1]},
            "net": {"dims": [2, 1], "activation": "linear", "scale": 0.1},
            "loss": "logistic",
            "step": 0.05,
            "stop": {"max_steps": 1000},
            "sample_every": 200,
        }
        body.update(extra)
        return _write(tmp_path / "flow.json", body)

    def test_writes_trace_with_header(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._config(tmp_path)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        lines = (out / "flow_trace.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario=flow config=")
        assert "seed=0" in lines[0]
        # loss column is second; decreasing along the trace
        body = [float(l.split(",")[1]) for l in lines[2:]]
        assert body[-1] < body[0]

    def test_missing_step_names_field(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        body = json.load(open(cfg))
        del body["step"]
        cfg = _write(tmp_path / "nostep.json", body)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1
        assert "step" in capsys.readouterr().err

    def test_unknown_stop_bound_names_field(self, tmp_path, capsys):
        cfg = self._config(tmp_path, stop={"max_steps": 10, "foo": 1})
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1
        assert "stop.foo" in capsys.readouterr().err

    def test_bad_loss_names_field(self, tmp_path, capsys):
        cfg = self._config(tmp_path, loss="hinge")
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1
        assert "loss" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, field", [
        ({"step": "x"}, "step"),
        ({"lambdas": 0.1}, "lambdas"),
        ({"lambdas": ["x"]}, "lambdas[0]"),
        ({"sample_every": 0}, "sample_every"),
        ({"sample_every": 2.5}, "sample_every"),
        ({"net": {"dims": [2, 1], "epsilon": "x"}}, "net.epsilon"),
        ({"net": {"dims": [2, 1], "scale": "x"}}, "net.scale"),
        ({"net": {"dims": 3}}, "net.dims"),
        ({"net": {"dims": [2, "x"]}}, "net.dims[1]"),
        ({"stop": {"max_steps": "10"}}, "stop.max_steps"),
        ({"stop": {"max_time": "1"}}, "stop.max_time"),
        ({"stop": {"max_steps": 9, "loss_below": "x"}}, "stop.loss_below"),
        ({"stop": {"max_steps": 9, "grad_norm_below": []}},
         "stop.grad_norm_below"),
        ({"stop": {"max_steps": 9, "direction_angle_below": True}},
         "stop.direction_angle_below"),
    ])
    def test_malformed_value_names_field(self, tmp_path, capsys, extra,
                                         field):
        cfg = self._config(tmp_path, **extra)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: must be ")
        assert "Traceback" not in err

    def test_backtrack_giveups_are_printed(self, tmp_path, capsys):
        # square loss under loss-rescaled steps: dt = step / loss grows
        # without bound as the loss nears 0, and backtracking gives up
        body = {
            "dataset": {"inputs": [[1.0]], "labels": [0.0],
                        "task": "regression"},
            "net": {"layers": [[[1.0]]], "activation": "linear"},
            "loss": "square",
            "step": 0.1,
            "stepping": "loss_rescaled",
            "stop": {"max_steps": 20},
        }
        cfg = _write(tmp_path / "giveup.json", body)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 0
        assert "backtrack give-ups: 1\n" in capsys.readouterr().out
        body["stop"] = {"max_steps": 5}
        cfg = _write(tmp_path / "calm.json", body)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 0
        assert "give-ups" not in capsys.readouterr().out


class TestSpectrum:
    def _config(self, tmp_path, **extra):
        body = {
            "dataset": {"inputs": [[0.4, -0.2], [0.1, 0.7], [-0.5, 0.3]],
                        "labels": [0.2, -0.1, 0.4], "task": "regression"},
            "net": {"dims": [2, 3, 1], "activation": "smoothed_relu",
                    "scale": 0.8},
            "loss": "square",
        }
        body.update(extra)
        return _write(tmp_path / "spec.json", body)

    def test_writes_spectrum_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", self._config(tmp_path),
                     "--output-dir", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario=spectrum config=")
        assert lines[1].startswith("# convention:")
        assert lines[2] == "index,eigenvalue,class"
        # 2*3 + 3*1 = 9 flattened weights
        assert len(lines) == 3 + 9

    def test_ridge_shifts_spectrum_positive(self, tmp_path):
        # large ridge dominates; every eigenvalue classifies as stable
        out = tmp_path / "ridged"
        cfg = self._config(tmp_path, lambdas=[10.0, 10.0])
        assert main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().splitlines()[3:]
        assert all(r.endswith(",stable") for r in rows)

    def test_malformed_tol_names_field(self, tmp_path, capsys):
        cfg = self._config(tmp_path, tol="x")
        assert main(["spectrum", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: tol: must be ")

    def test_bad_convention_names_field(self, tmp_path, capsys):
        cfg = self._config(tmp_path, convention="sideways")
        assert main(["spectrum", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1
        assert "convention" in capsys.readouterr().err

    def test_counts_at_max_hessian_dim_match_eigvalsh(self, tmp_path, capsys):
        # 7-62-1 net: 62*7 + 62 = 496 weights, just under MAX_HESSIAN_DIM;
        # labels are the net's own outputs, so the square-loss Hessian is
        # 2 J^T J with rank at most 20 and at least 476 zero modes
        rng = np.random.default_rng(8)
        net = random_net(rng, (7, 62, 1), "smoothed_relu", scale=0.4)
        x = rng.normal(size=(20, 7))
        data = Dataset(x, batch_outputs(net, x), task="regression")
        assert 490 <= sum(w.size for w in net.layers) <= MAX_HESSIAN_DIM
        cfg = _write(tmp_path / "big.json", {
            "dataset": {"inputs": x.tolist(), "labels": data.labels.tolist(),
                        "task": "regression"},
            "net": {"layers": [w.tolist() for w in net.layers],
                    "activation": "smoothed_relu"},
            "loss": "square",
        })
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        evals = np.linalg.eigvalsh(hessian("square", net, data))
        thr = DEFAULT_ZERO_TOL * np.abs(evals).max()
        stable = int((evals > thr).sum())
        unstable = int((evals < -thr).sum())
        zero = evals.size - stable - unstable
        assert zero >= 476
        assert (f"(stable {stable}, unstable {unstable}, zero {zero})"
                in capsys.readouterr().out)
        rows = (out / "spectrum.csv").read_text().splitlines()[3:]
        classes = [r.rsplit(",", 1)[1] for r in rows]
        assert [classes.count(c) for c in ("stable", "unstable", "zero")] == [
            stable, unstable, zero]


class TestScenarios:
    def test_growth_pass_exit_0(self, tmp_path, capsys):
        cfg = _write(tmp_path / "k2.json", {
            "ks": [2], "grid_points": 31, "closed_form_points": 3,
        })
        out = tmp_path / "out"
        assert main(["growth", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        lines = (out / "growth_asymptotics_k2.csv").read_text().splitlines()
        assert lines[1] == "t,log_t,rho,product"

    def test_predicate_failure_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "hard.json", {
            "repetitions": 3, "total_steps": 480_000,
            "reconverge_tol": 1e-30,
        })
        assert main(["perturb", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "failed predicate:" in capsys.readouterr().err

    def test_unknown_param_exit_1(self, tmp_path, capsys):
        cfg = _write(tmp_path / "typo.json", {"widgets": 3})
        assert main(["growth", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert "params.widgets" in capsys.readouterr().err

    def test_unknown_perturb_variant_exit_1(self, tmp_path, capsys):
        cfg = _write(tmp_path / "v.json", {"variant": "cifar"})
        assert main(["perturb", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert "variant" in capsys.readouterr().err

    def test_deepnet_variant_dispatches(self, tmp_path):
        cfg = _write(tmp_path / "toy.json", {
            "variant": "deepnet", "repetitions": 1, "cycles": 2,
            "control_repetitions": 1,
        })
        out = tmp_path / "out"
        code = main(["perturb", "--config", cfg, "--output-dir", str(out)])
        # single-rep predicates may be noisy; dispatch and outputs matter here
        assert code in (0, 2)
        assert (out / "toy_deepnet_perturbation_report.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _write(tmp_path / "sweep.json", {"max_degree": 60})
        out = tmp_path / "out"
        argv = ["sweep", "--config", cfg, "--output-dir", str(out)]
        main(argv)
        first = {
            name: (out / name).read_bytes() for name in os.listdir(out)
        }
        main(argv)
        second = {
            name: (out / name).read_bytes() for name in os.listdir(out)
        }
        assert first == second
