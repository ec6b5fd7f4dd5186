"""CLI contract tests: exit codes, field-naming errors, output headers,
seed precedence, and byte-identical reruns."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from gradflow import cli as cli_mod
from gradflow.cli import main
from gradflow.losses import Dataset, batch_outputs
from gradflow.network import random_net
from gradflow.spectra import DEFAULT_ZERO_TOL, MAX_HESSIAN_DIM, hessian


README = Path(__file__).resolve().parents[1] / "README.md"


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

    @pytest.mark.parametrize("flags, code, stream, text", [
        ([], 1, "err", "the following arguments are required: --config"),
        (["--help"], 0, "out", "usage: gradflow flow"),
    ])
    def test_subcommand_flags_through_argparse(self, capsys, flags, code,
                                               stream, text):
        assert main(["flow"] + flags) == code
        assert text in getattr(capsys.readouterr(), stream)

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

    def test_top_level_not_an_object_names_path(self, capsys, tmp_path):
        cfg = _write(tmp_path / "list.json", [1, 2])
        assert main(["svm", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: config: top level of {cfg} must be an object\n")


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

    def test_verbose_prints_the_solution(self, tmp_path, two_points,
                                         capsys):
        out = tmp_path / "out"
        assert main(["svm", "--config", two_points, "-v",
                     "--output-dir", str(out)]) == 0
        printed = capsys.readouterr().out.split("\n", 1)[1]
        assert json.loads(printed) == json.loads(
            (out / "svm_solution.json").read_text())

    def test_nonseparable_exits_1(self, tmp_path, capsys):
        cfg = _write(tmp_path / "bad.json", {
            "dataset": {"inputs": [[1.0, 0.0], [1.0, 0.0]],
                        "labels": [1.0, -1.0]},
        })
        assert main(["svm", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1

    def test_unknown_key_names_field(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.json", {
            "dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                        "labels": [1.0, -1.0]},
            "bogus": 1,
        })
        assert main(["svm", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: bogus: unknown key\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("value", [2.9, True, "2.9", "7"])
    def test_config_seed_must_be_a_json_integer(self, tmp_path, capsys,
                                                 value):
        # 2.9 was truncated to 2 and true read as 1
        cfg = _write(tmp_path / "c.json", {
            "seed": value,
            "dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                        "labels": [1.0, -1.0]},
        })
        assert main(["svm", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert f"error: seed: not an integer: {value!r}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["2.9", "true", "1e3", ""])
    def test_flag_and_env_seed_must_be_integer_strings(
            self, tmp_path, two_points, monkeypatch, capsys, value):
        assert main(["svm", "--config", two_points, "--seed", value]) == 1
        assert f"--seed: not an integer: {value!r}" in (
            capsys.readouterr().err)
        monkeypatch.setenv("GRADFLOW_SEED", value)
        assert main(["svm", "--config", two_points]) == 1
        assert f"GRADFLOW_SEED: not an integer: {value!r}" in (
            capsys.readouterr().err)

    def test_integer_string_flag_and_env(self, tmp_path, two_points,
                                         monkeypatch):
        assert self._header_seed(
            tmp_path, ["svm", "--config", two_points, "--seed", "-3"]) == "-3"
        monkeypatch.setenv("GRADFLOW_SEED", " 12 ")
        assert self._header_seed(
            tmp_path, ["svm", "--config", two_points]) == "12"


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

    def test_verbose_prints_final_loss_and_time(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["flow", "--config", self._config(tmp_path), "-v",
                     "--output-dir", str(out)]) == 0
        last = (out / "flow_trace.csv").read_text().splitlines()[-1]
        time, loss = last.split(",")[:2]
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"final loss {loss} at time {time}")

    @pytest.mark.parametrize("extra, message", [
        ({"net": None}, "net: required object with dims or layers"),
        ({"stop": {}}, "stop: at least one bound required"),
        ({"dataset": {"labels": [1, -1]}}, "dataset.inputs: required"),
        ({"dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                      "labels": [1, 0]}},
         "dataset: binary labels must be -1 or +1"),
        ({"net": {"activation": "relu"}}, "net: needs either dims or layers"),
        ({"stop": 5}, "stop: required object with at least one bound"),
        ({"stop": {"loss_below": 0.001}},
         "stop: need a budget: max_time or max_steps"),
        ({"net": {"layers": [[[1.0, 0.0]], [[1.0, 2.0]]]}},
         "net: layer 2 expects 2 inputs, layer 1 outputs 1"),
        # the scenario params' bounds hold for the same field names here
        ({"net": {"dims": [2, 0, 1]}}, "net.dims[1]: must be >= 1, got 0"),
        ({"net": {"dims": [2, -1, 1]}}, "net.dims[1]: must be >= 1, got -1"),
        ({"step": 0.0}, "step: must be > 0, got 0.0"),
        ({"stop": {"max_steps": 0}}, "stop.max_steps: must be >= 1, got 0"),
        ({"stop": {"max_time": 0.0}}, "stop.max_time: must be > 0, got 0.0"),
        ({"stop": {"max_time": -1}}, "stop.max_time: must be > 0, got -1.0"),
        ({"lambdas": [-1.0]}, "lambdas[0]: must be >= 0.0, got -1.0"),
        ({"lambdas": [0.1], "stepping": "loss_rescaled"},
         "lambdas: loss_rescaled steps divide by the loss alone, so they "
         "take no ridge term"),
    ])
    def test_missing_or_refused_object_names_field(self, tmp_path, capsys,
                                                   extra, message):
        cfg = self._config(tmp_path, **extra)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

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

    def test_unknown_stepping_exits_1(self, tmp_path, capsys):
        cfg = self._config(tmp_path, stepping="adaptive")
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: unknown stepping 'adaptive'\n")
        assert not (tmp_path / "out").exists()

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
        ({"sample_every": 5.0}, "sample_every"),
        ({"stop": {"max_steps": 10.0}}, "stop.max_steps"),
        ({"net": {"dims": [2, 1], "top_linear": "false"}}, "net.top_linear"),
    ])
    def test_malformed_value_names_field(self, tmp_path, capsys, extra,
                                         field):
        cfg = self._config(tmp_path, **extra)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("epsilon, square", [
        (1e-300, "0.0"), (1e-160, "1e-320"), (1e200, "inf"),
    ])
    def test_epsilon_whose_square_is_not_normal_is_refused(
            self, tmp_path, capsys, epsilon, square):
        # not blamed on the step, as a smoothed relu dividing by a
        # flushed epsilon**2 would be
        cfg = self._config(tmp_path, net={
            "dims": [2, 3, 1], "activation": "smoothed_relu",
            "epsilon": epsilon})
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: net: smoothed_relu epsilon {epsilon!r}: its square "
            f"{square} is not a normal float\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, field", [
        ({"sample_evry": 5}, "sample_evry"),
        ({"net": {"dims": [2, 1], "activaton": "linear"}}, "net.activaton"),
        ({"dataset": {"inputs": [[1.0, 0.0], [-1.0, 0.0]],
                      "labels": [1, -1], "tsak": "binary"}}, "dataset.tsak"),
    ])
    def test_unknown_key_names_field(self, tmp_path, capsys, extra, field):
        cfg = self._config(tmp_path, seed=3, **extra)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {field}: unknown key\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("activation, line", [
        ("relu", "relu kinks: 11\n"), ("smoothed_relu", "")])
    def test_relu_kinks_are_printed(self, tmp_path, capsys, activation,
                                    line):
        # the all-zero hidden row sits on the relu kink at every step: its
        # subgradient is 0, so it never moves
        cfg = self._config(tmp_path, net={
            "layers": [[[1.0, 0.5], [0.0, 0.0]], [[1.0, -1.0]]],
            "activation": activation}, stop={"max_steps": 10})
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ("relu kinks" in out) == bool(line)
        assert line in out

    @pytest.mark.parametrize("extra, field", [
        ({"dims": [2, 7, 1]}, "net.dims"),
        ({"scale": 100.0}, "net.scale"),
    ])
    def test_layers_refuse_dims_and_scale(self, tmp_path, capsys, extra,
                                          field):
        # net.layers fixes the shape and the weights; dims or scale beside
        # them used to be dropped without a word
        cfg = self._config(tmp_path, net={"layers": [[[0.5, 0.1]]],
                                          "activation": "linear", **extra})
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {field}: cannot be combined with net.layers\n")
        assert not (tmp_path / "out").exists()

    def test_polynomial_net_from_coefficients(self, tmp_path):
        # sigma(z) = z + z^2/4 on a 2-3-1 net
        out = tmp_path / "out"
        cfg = self._config(tmp_path, net={
            "dims": [2, 3, 1], "activation": "polynomial", "scale": 0.3,
            "coefficients": [0, 1, 0.25]}, stop={"max_steps": 50})
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        rows = (out / "flow_trace.csv").read_text().splitlines()[2:]
        losses = [float(r.split(",")[1]) for r in rows]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("net, message", [
        ({"dims": [2, 1], "activation": "linear", "coefficients": [0, 1]},
         "net.coefficients: only for the polynomial activation, not "
         "'linear'"),
        ({"dims": [2, 1], "coefficients": [0, 1]},
         "net.coefficients: only for the polynomial activation, not 'relu'"),
        ({"dims": [2, 3, 1], "activation": "polynomial",
          "coefficients": [0, "1"]},
         "net.coefficients[1]: must be a number, got '1'"),
        ({"dims": [2, 3, 1], "activation": "polynomial", "coefficients": 1},
         "net.coefficients: must be a list, got 1"),
    ])
    def test_stray_or_malformed_coefficients_are_refused(self, tmp_path,
                                                         capsys, net,
                                                         message):
        cfg = self._config(tmp_path, net=net)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_counts_are_printed_under_their_readme_labels(
            self, tmp_path, capsys, monkeypatch):
        real = cli_mod.run_flows

        def counted(*args, **kwargs):
            traces = real(*args, **kwargs)
            traces[0].counts = {"kink_events": 3, "backtrack_giveups": 1,
                                "floored_steps": 2}
            return traces

        monkeypatch.setattr(cli_mod, "run_flows", counted)
        assert main(["flow", "--config", self._config(tmp_path),
                     "--output-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines == ["backtrack give-ups: 1", "loss-floored steps: 2",
                         "relu kinks: 3"]
        readme = " ".join(README.read_text().split())
        for line in lines:
            assert f"`{line.split(':')[0]}: N`" in readme

    def test_loss_floored_steps_are_printed(self, tmp_path, capsys):
        # margin 800 puts the exponential loss below the 1e-300 floor
        body = {
            "dataset": {"inputs": [[1.0]], "labels": [1]},
            "net": {"layers": [[[800.0]]], "activation": "linear"},
            "loss": "exponential",
            "step": 0.05,
            "stepping": "loss_rescaled",
            "stop": {"max_steps": 3},
        }
        cfg = _write(tmp_path / "floor.json", body)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 0
        assert "loss-floored steps: 3\n" in capsys.readouterr().out
        body["net"]["layers"] = [[[1.0]]]
        cfg = _write(tmp_path / "calm.json", body)
        assert main(["flow", "--config", cfg,
                     "--output-dir", str(tmp_path)]) == 0
        assert "loss-floored steps" not in capsys.readouterr().out


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

    def test_flow_convention_negates_the_loss_spectrum(self, tmp_path,
                                                       capsys):
        # the flow's linearization is -H: its eigenvalues are the loss
        # Hessian's negated, in reverse order, and each keeps its class
        tables, counts = {}, {}
        for convention in ("loss", "flow"):
            out = tmp_path / convention
            cfg = self._config(tmp_path, convention=convention)
            assert main(["spectrum", "--config", cfg,
                         "--output-dir", str(out)]) == 0
            counts[convention] = capsys.readouterr().out.split(" (", 1)[1]
            lines = (out / "spectrum.csv").read_text().splitlines()
            tables[convention] = [row.split(",") for row in lines[3:]]
        loss_rows, flow_rows = tables["loss"], tables["flow"][::-1]
        assert counts["loss"] == counts["flow"]
        assert len(flow_rows) == 9
        assert [r[2] for r in flow_rows] == [r[2] for r in loss_rows]
        np.testing.assert_allclose([-float(r[1]) for r in flow_rows],
                                   [float(r[1]) for r in loss_rows],
                                   rtol=1e-12, atol=1e-15)

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

    def test_negative_lambdas_name_field(self, tmp_path, capsys):
        # a ridge of -1 used to shift every eigenvalue to "unstable"
        cfg = self._config(tmp_path, lambdas=[-1.0, -1.0])
        assert main(["spectrum", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: lambdas[0]: must be >= 0.0, got -1.0\n")
        assert not (tmp_path / "out").exists()

    def test_negative_tol_names_field(self, tmp_path, capsys):
        # a negative tol used to print a negative zero count and exit 0
        cfg = self._config(tmp_path, tol=-1.0)
        assert main(["spectrum", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: tol: must be >= 0.0, got -1.0\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_names_field(self, tmp_path, capsys):
        cfg = self._config(tmp_path, convnetion="flow")
        assert main(["spectrum", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: convnetion: unknown key\n"
        assert not (tmp_path / "out").exists()

    def test_layers_refuse_dims(self, tmp_path, capsys):
        cfg = self._config(tmp_path, net={
            "layers": [[[0.4, -0.2], [0.1, 0.3]], [[1.0, -1.0]]],
            "dims": [2, 2, 1], "activation": "smoothed_relu"})
        assert main(["spectrum", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: net.dims: cannot be combined with net.layers\n")

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

    def test_verbose_lists_predicates_and_notes(self, tmp_path, capsys):
        # six points at blob_std 1.0 overlap: seed 0 regenerates its draw
        cfg = _write(tmp_path / "dir.json", {
            "n_datasets": 1, "n_inits": 2, "n_points": 6, "blob_std": 1.0,
            "max_time": None, "max_steps": 10, "square_samples": 2,
            "square_dim": 16,
        })
        out = tmp_path / "out"
        assert main(["direction", "--config", cfg, "-v",
                     "--output-dir", str(out)]) == 2
        lines = capsys.readouterr().out.splitlines()
        report = json.loads(
            (out / "convergence_direction_study_report.json").read_text())
        assert lines[1:] == [
            f"  {key}: {'pass' if ok else 'FAIL'}"
            for key, ok in sorted(report["predicates"].items())
        ] + [f"  note: {note}" for note in report["notes"]]
        assert report["notes"]

    def test_growth_overflow_is_an_exclusion_exit_2(self, tmp_path, capsys):
        # exp(800) overflows: a non-finite curve, counted, not a crash
        cfg = _write(tmp_path / "k1.json", {"ks": [1], "rho0_k1": -800.0})
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["growth", "--config", cfg, "-v",
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert "(2 files, 1/1 excluded)" in captured.out
        assert ("  note: k=1: non-finite or decreasing growth curve"
                in captured.out.splitlines())
        assert "Traceback" not in captured.err

    def test_predicate_failure_exit_2(self, tmp_path, capsys):
        # ten steps per cycle are too few to re-converge
        cfg = _write(tmp_path / "hard.json", {
            "repetitions": 3, "total_steps": 40, "interval": 10,
        })
        assert main(["perturb", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "failed predicate:" in capsys.readouterr().err

    def test_unknown_param_exit_1(self, tmp_path, capsys):
        cfg = _write(tmp_path / "typo.json", {"widgets": 3})
        assert main(["growth", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert "params.widgets" in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [
        ({"n_train": "9"}, "params.n_train: must be an integer, got '9'"),
        ({"n_train": 9.0}, "params.n_train: must be an integer, got 9.0"),
        ({"frequency": True}, "params.frequency: must be a number, got True"),
        ({"frequency": None}, "params.frequency: must be a number, got None"),
    ])
    def test_param_of_wrong_type_exit_1(self, tmp_path, capsys, params,
                                        message):
        cfg = _write(tmp_path / "sweep.json", params)
        assert main(["sweep", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, scenario, key", [
        ("perturb", "sine_polynomial_perturbation", "reconverge_tol"),
        ("perturb", "sine_polynomial_perturbation", "flat_tol"),
        ("sweep", "min_norm_degree_sweep", "interp_tol"),
        ("sweep", "min_norm_degree_sweep", "condition_flag_threshold"),
        ("perturb", "toy_deepnet_perturbation", "trend_slope_tol"),
        ("perturb", "toy_deepnet_perturbation", "control_growth_factor"),
        ("growth", "growth_asymptotics", "slope_band"),
        ("growth", "growth_asymptotics", "li_rel_tol"),
        ("direction", "convergence_direction_study", "cosine_target"),
        ("direction", "convergence_direction_study", "square_tol"),
    ])
    def test_predicate_threshold_is_no_param(self, tmp_path, capsys,
                                             command, scenario, key):
        # thresholds are fixed, so no config can turn a fail into a pass
        body = {"variant": "deepnet"} if scenario.startswith("toy") else {}
        cfg = _write(tmp_path / "cfg.json", {**body, key: 0.5})
        assert main([command, "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: params.{key}: unknown parameter for {scenario}\n")

    def test_short_direction_run_fails_whatever_the_config(self, tmp_path,
                                                           capsys):
        # ten steps leave the directions far from the margin oracle
        short = {"max_steps": 10, "max_time": None}
        argv = ["direction", "--output-dir", str(tmp_path / "out"),
                "--config"]
        cfg = _write(tmp_path / "short.json", short)
        assert main(argv + [cfg]) == 2
        cfg = _write(tmp_path / "lax.json", {**short, "cosine_target": -1.0})
        assert main(argv + [cfg]) == 1
        assert "params.cosine_target" in capsys.readouterr().err

    @pytest.mark.parametrize("center, code, message", [
        ([1.0, 0.7], 0, ""),
        ([1, 0.7], 0, ""),
        (["1.0", 0.7], 1, "params.blob_center[0]: must be a number"),
        (1.0, 1, "params.blob_center: must be a list, got 1.0"),
        ([1.0], 1, "params.blob_center: must have 2 entries, got [1.0]"),
        ([1.0, 0.7, 3.0], 1,
         "params.blob_center: must have 2 entries, got [1.0, 0.7, 3.0]"),
    ])
    def test_list_valued_blob_center(self, tmp_path, capsys, center, code,
                                     message):
        # the benchmark's small direction config, max_time null included
        cfg = _write(tmp_path / "dir.json", {
            "n_datasets": 1, "n_inits": 2, "blob_std": 0.1,
            "max_time": None, "max_steps": 2000, "square_samples": 2,
            "square_dim": 16, "blob_center": center,
        })
        assert main(["direction", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err

    def test_unstable_sine_step_excludes_every_repetition(self, tmp_path,
                                                          capsys):
        # past the GD stability limit the weights overflow to NaN: no
        # repetition has re-converged
        cfg = _write(tmp_path / "sine.json", {
            "step": 50.0, "repetitions": 3, "total_steps": 1_200_000,
        })
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["perturb", "--config", cfg, "--output-dir", str(out)])
        assert code == 2
        assert "3/3 excluded" in capsys.readouterr().out
        report = json.loads(
            (out / "sine_polynomial_perturbation_report.json").read_text())
        assert report["predicates"] == {"exclusions_ok": False}

    def test_pretraining_left_errors_excludes_exit_2(self, tmp_path, capsys):
        # one pretraining step on overlapping blobs leaves errors in both
        cfg = _write(tmp_path / "toy.json", {
            "variant": "deepnet", "repetitions": 2, "control_repetitions": 1,
            "cycles": 1, "interval": 10, "pretrain_steps": 1, "blob_std": 3.0,
        })
        code = main(["perturb", "--config", cfg, "-v",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        out = capsys.readouterr().out
        assert "2/2 excluded" in out
        assert "  note: repetition 0: pretraining left errors" in (
            out.splitlines())

    def test_exhausted_regenerations_exit_1(self, tmp_path, capsys):
        cfg = _write(tmp_path / "dir.json", {
            "max_regenerations": 1, "blob_std": 5.0, "n_datasets": 3,
        })
        assert main(["direction", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: params.max_regenerations: dataset 0 found no separable "
            "draw in 1 attempts\n")

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


class TestScenarioCounts:
    """Counts below their floor, out-of-order pairs and values of another
    type than the default's exit 1 naming the param before the scenario
    runs."""

    @pytest.mark.parametrize("command, params, message", [
        ("perturb", {"variant": "deepnet", "control_repetitions": 0},
         "params.control_repetitions: must be >= 1, got 0"),
        ("perturb", {"variant": "deepnet", "cycles": 0},
         "params.cycles: must be >= 1, got 0"),
        ("perturb", {"variant": "deepnet", "repetitions": 2},
         "params.repetitions: must be >= params.control_repetitions (4), "
         "got 2"),
        ("perturb", {"variant": "sine", "interval": 0},
         "params.interval: must be >= 1, got 0"),
        ("direction", {"n_inits": 0}, "params.n_inits: must be >= 2, got 0"),
        ("direction", {"n_datasets": 0},
         "params.n_datasets: must be >= 1, got 0"),
        ("direction", {"n_points": 13}, "params.n_points: must be even, got 13"),
        ("direction", {"n_points": 1}, "params.n_points: must be even, got 1"),
        ("direction", {"n_points": 0}, "params.n_points: must be >= 1, got 0"),
        ("growth", {"grid_points": 0},
         "params.grid_points: must be >= 2, got 0"),
        ("growth", {"ks": []},
         "params.ks: must name at least one depth, got []"),
        ("growth", {"ks": [0]}, "params.ks[0]: must be >= 1, got 0"),
        ("growth", {"ks": [-1]}, "params.ks[0]: must be >= 1, got -1"),
        ("growth", {"ks": [2, 2]},
         "params.ks: depths must be distinct, got [2, 2]"),
        ("growth", {"f_tilde": 0}, "params.f_tilde: must be > 0, got 0.0"),
        ("sweep", {"min_degree": -1},
         "params.min_degree: must be >= 0, got -1"),
        ("sweep", {"min_degree": 5, "max_degree": 4},
         "params.max_degree: must be >= params.min_degree (5), got 4"),
        ("perturb", {"variant": "deepnet", "loss": 3},
         "params.loss: must be a string, got 3"),
        # JSON's NaN and Infinity parse as floats; no parameter takes them
        ("sweep", {"frequency": float("nan")},
         "params.frequency: must be finite, got nan"),
        ("direction", {"step": float("nan")},
         "params.step: must be finite, got nan"),
        ("perturb", {"variant": "sine", "noise_std": float("inf"),
                     "total_steps": 1000, "interval": 100},
         "params.noise_std: must be finite, got inf"),
        ("direction", {"blob_center": [1.0, float("-inf")]},
         "params.blob_center[1]: must be finite, got -inf"),
        pytest.param("sweep", {"frequency": 10 ** 400},
                     f"params.frequency: must be finite, got {10 ** 400}",
                     id="sweep-integer-past-float-range"),
        ("growth", {"ks": [1], "slope_window": [1000.0]},
         "params.slope_window: must have 2 entries, got [1000.0]"),
        ("growth", {"ks": [1], "slope_window": []},
         "params.slope_window: must have 2 entries, got []"),
        ("growth", {"t_min": 1e4, "t_max": 1e2},
         "params.t_max: must be >= params.t_min (10000.0), got 100.0"),
        ("direction", {"blob_center": [1.0, 0.7, 3.0]},
         "params.blob_center: must have 2 entries, got [1.0, 0.7, 3.0]"),
        ("perturb", {"variant": "deepnet", "blob_center": [1.0]},
         "params.blob_center: must have 2 entries, got [1.0]"),
        ("perturb", {"variant": "deepnet", "dims": [2, 0, 1]},
         "params.dims[1]: must be >= 1, got 0"),
        ("perturb", {"variant": "deepnet", "dims": [3, 8, 1]},
         "params.dims: must start at 2 and end at 1, got [3, 8, 1]"),
        ("perturb", {"variant": "deepnet", "loss": "hinge"},
         "params.loss: must be one of square, exponential, logistic, "
         "got 'hinge'"),
        ("perturb", {"variant": "deepnet", "loss": "softmax_cross_entropy"},
         "params.loss: must be one of square, exponential, logistic, "
         "got 'softmax_cross_entropy'"),
        ("perturb", {"variant": "deepnet", "activation": "swish"},
         "params.activation: must be one of relu, smoothed_relu, linear, "
         "got 'swish'"),
        ("perturb", {"variant": "deepnet", "activation": "polynomial"},
         "params.activation: must be one of relu, smoothed_relu, linear, "
         "got 'polynomial'"),
        # the FLOORS and POSITIVE_PARAMS bounds, by the field's own name
        ("growth", {"t_min": 0.0}, "params.t_min: must be > 0, got 0.0"),
        ("growth", {"ks": [1], "slope_window": [0.0, 1000.0]},
         "params.slope_window[0]: must be > 0, got 0.0"),
        ("growth", {"ks": [1], "slope_points": 1},
         "params.slope_points: must be >= 2, got 1"),
        ("direction", {"step": 0.0}, "params.step: must be > 0, got 0.0"),
        ("direction", {"square_step": -1.0},
         "params.square_step: must be > 0, got -1.0"),
        ("perturb", {"variant": "deepnet", "step": -0.1},
         "params.step: must be > 0, got -0.1"),
        ("perturb", {"variant": "sine", "step": 0.0, "total_steps": 1000,
                     "interval": 100}, "params.step: must be > 0, got 0.0"),
        ("perturb", {"variant": "deepnet", "noise_rel_std": 0.0},
         "params.noise_rel_std: must be > 0, got 0.0"),
        ("direction", {"blob_std": -1.0},
         "params.blob_std: must be >= 0.0, got -1.0"),
        ("perturb", {"variant": "deepnet", "blob_std": -1.0},
         "params.blob_std: must be >= 0.0, got -1.0"),
        ("perturb", {"variant": "sine", "noise_std": -1.0},
         "params.noise_std: must be > 0, got -1.0"),
        ("direction", {"max_time": 0.0, "n_datasets": 1, "n_inits": 2},
         "params.max_time: must be > 0, got 0.0"),
        # a fraction of the schedule: 0 perturbs nothing, past 1 is 1
        ("perturb", {"variant": "sine", "stop_fraction": 0.0},
         "params.stop_fraction: must be > 0, got 0.0"),
        ("perturb", {"variant": "sine", "stop_fraction": 5.0},
         "params.stop_fraction: must be <= 1.0, got 5.0"),
        # a perturbed sine run perturbs at the checkpoints before
        # int(total_steps * stop_fraction), the first being interval
        ("perturb", {"variant": "sine", "stop_fraction": 1e-9},
         "params.stop_fraction: perturbs nothing, since int(total_steps * "
         "stop_fraction) = 0 is not above params.interval (120000)"),
        ("perturb", {"variant": "sine", "interval": 480_000,
                     "total_steps": 480_000},
         "params.stop_fraction: perturbs nothing, since int(total_steps * "
         "stop_fraction) = 240000 is not above params.interval (480000)"),
        ("perturb", {"variant": "sine", "interval": 240_000,
                     "total_steps": 480_000},
         "params.stop_fraction: perturbs nothing, since int(total_steps * "
         "stop_fraction) = 240000 is not above params.interval (240000)"),
        # a perturbation of std 0 perturbs nothing
        ("perturb", {"variant": "sine", "noise_std": 0.0, "repetitions": 3,
                     "total_steps": 480_000},
         "params.noise_std: must be > 0, got 0.0"),
        # the margin oracle enumerates subsets of at most 20 points
        ("direction", {"n_points": 22, "n_datasets": 1, "n_inits": 2,
                       "max_steps": 10},
         "params.n_points: must be <= 20, got 22"),
        # one init has no pair to agree with, and inits of scale 0 are
        # all the zero vector
        ("direction", {"n_inits": 1, "n_datasets": 2},
         "params.n_inits: must be >= 2, got 1"),
        ("direction", {"init_scale": 0.0, "n_datasets": 2},
         "params.init_scale: must be nonzero (at 0.0 every init is the zero "
         "vector)"),
        # a grid of one point ends at t_min, not t_max
        ("growth", {"grid_points": 1},
         "params.grid_points: must be >= 2, got 1"),
        # a zero multilayer net is a fixed point of the flow, so it would
        # leave every repetition at its start and exclude them all
        ("perturb", {"variant": "deepnet", "init_scale": 0.0},
         "params.init_scale: must be nonzero (at 0.0 the net is a fixed "
         "point of the flow)"),
    ])
    def test_refused_by_name(self, tmp_path, capsys, command, params,
                             message):
        cfg = _write(tmp_path / "cfg.json", params)
        assert main([command, "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_degree_zero_sweep_runs_without_exclusions(self, tmp_path,
                                                       capsys):
        cfg = _write(tmp_path / "cfg.json",
                     {"min_degree": 0, "max_degree": 3})
        # four underfitting degrees: the interpolation predicates fail
        assert main(["sweep", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "(2 files, 0/4 excluded)" in capsys.readouterr().out
