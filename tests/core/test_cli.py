"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def built_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    code = main(["build", "--roster", "small", "--gpu", "A100",
                 "--gpu", "TITAN RTX", "--batch-size", "64",
                 "--batch-size", "512", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_model_path(built_dataset_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-model") / "kw.json"
    code = main(["train", "--dataset", str(built_dataset_dir), "--model",
                 "kw", "--gpu", "A100", "--out", str(path)])
    assert code == 0
    return path


class TestBuild:
    def test_build_writes_tables(self, built_dataset_dir):
        for name in ("kernels.csv", "layers.csv", "networks.csv"):
            assert (built_dataset_dir / name).exists()


class TestTrainAndPredict:
    def test_train_writes_model(self, trained_model_path):
        assert trained_model_path.exists()

    def test_predict_prints_time(self, trained_model_path, capsys):
        code = main(["predict", "--model", str(trained_model_path),
                     "--network", "resnet50", "--batch-size", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "ms" in out

    def test_predict_unknown_network_exits_2(self, trained_model_path,
                                             capsys):
        code = main(["predict", "--model", str(trained_model_path),
                     "--network", "resnet9000", "--batch-size", "64"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "resnet9000" in err

    def test_evaluate_prints_curve(self, trained_model_path,
                                   built_dataset_dir, capsys):
        code = main(["evaluate", "--model", str(trained_model_path),
                     "--dataset", str(built_dataset_dir), "--gpu", "A100",
                     "--batch-size", "512", "--test-fraction", "0.25",
                     "--seed", "3"])
        assert code == 0
        assert "mean error" in capsys.readouterr().out

    def test_evaluate_breakdown_flag(self, trained_model_path,
                                     built_dataset_dir, capsys):
        code = main(["evaluate", "--model", str(trained_model_path),
                     "--dataset", str(built_dataset_dir), "--gpu", "A100",
                     "--batch-size", "512", "--test-fraction", "0.25",
                     "--seed", "3", "--breakdown"])
        assert code == 0
        assert "worst offenders" in capsys.readouterr().out

    def test_predict_coverage_flag(self, trained_model_path, capsys):
        code = main(["predict", "--model", str(trained_model_path),
                     "--network", "resnet50", "--batch-size", "64",
                     "--coverage"])
        assert code == 0
        assert "coverage of" in capsys.readouterr().out


class TestIGKW:
    def test_train_igkw_and_predict_with_bandwidth(self, built_dataset_dir,
                                                   tmp_path, capsys):
        path = tmp_path / "igkw.json"
        assert main(["train-igkw", "--dataset", str(built_dataset_dir),
                     "--gpu", "A100", "--gpu", "TITAN RTX", "--out",
                     str(path)]) == 0
        assert main(["predict", "--model", str(path), "--network",
                     "resnet50", "--batch-size", "64", "--gpu", "V100",
                     "--bandwidth", "1200"]) == 0
        assert "ms" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--bandwidth", "nan"), ("--bandwidth", "inf"),
        ("--bandwidth", "-5"), ("--grid", "nan,900"),
        ("--grid", "900,inf")])
    def test_non_finite_bandwidth_exits_2(self, built_dataset_dir,
                                          tmp_path_factory, capsys, flag,
                                          value):
        path = tmp_path_factory.mktemp("igkw-bad-bw") / "igkw.json"
        main(["train-igkw", "--dataset", str(built_dataset_dir), "--gpu",
              "A100", "--gpu", "TITAN RTX", "--out", str(path)])
        capsys.readouterr()
        code = main(["predict", "--model", str(path), "--network",
                     "resnet50", "--batch-size", "64", "--gpu", "V100",
                     flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err

    def test_igkw_predict_requires_gpu(self, built_dataset_dir, tmp_path,
                                       capsys):
        path = tmp_path / "igkw2.json"
        main(["train-igkw", "--dataset", str(built_dataset_dir), "--gpu",
              "A100", "--gpu", "TITAN RTX", "--out", str(path)])
        code = main(["predict", "--model", str(path), "--network",
                     "resnet50", "--batch-size", "64"])
        assert code == 2


class TestRobustness:
    """Bad paths and bad names exit 2 with one stderr line, no traceback."""

    def test_predict_missing_model_file(self, tmp_path, capsys):
        code = main(["predict", "--model", str(tmp_path / "absent.json"),
                     "--network", "resnet50", "--batch-size", "64"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.json" in err

    def test_train_missing_dataset_dir(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nowhere"),
                     "--model", "kw", "--gpu", "A100",
                     "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_evaluate_missing_model_file(self, built_dataset_dir,
                                         tmp_path, capsys):
        code = main(["evaluate", "--model", str(tmp_path / "gone.json"),
                     "--dataset", str(built_dataset_dir),
                     "--gpu", "A100"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_error_is_single_line(self, tmp_path, capsys):
        main(["predict", "--model", str(tmp_path / "absent.json"),
              "--network", "resnet50", "--batch-size", "64"])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestList:
    def test_list_networks(self, capsys):
        assert main(["list", "networks"]) == 0
        assert "resnet50" in capsys.readouterr().out

    def test_list_gpus(self, capsys):
        assert main(["list", "gpus"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "GB/s" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
