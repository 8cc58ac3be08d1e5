"""End-to-end pipeline wiring, config parsing, and exit codes."""

import shutil

import numpy as np
import pytest

from dppseq.cli import ExperimentConfig, load_config, main
from dppseq.data import write_interactions
from dppseq.synthetic import make_synthetic_log


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "interactions.csv"
    log = make_synthetic_log(n_users=30, n_items=50, n_categories=5, seq_len=14, seed=0)
    write_interactions(path, log)
    return path


@pytest.fixture(scope="module")
def generated_sets(tmp_path_factory, small_dataset):
    """An out directory after `prepare` and `gen-sets`."""
    root = tmp_path_factory.mktemp("sets")
    config = config_file(root, small_dataset, root / "out")
    for stage in ("prepare", "gen-sets"):
        assert main(["--config", str(config), stage]) == 0
    return root / "out"


def set_field(lines, row, field, value):
    fields = lines[row].split("\t")
    fields[field] = value
    return lines[:row] + ["\t".join(fields)] + lines[row + 1 :]


def set_ids(lines, row, edit):
    return set_field(lines, row, 2, ",".join(edit(lines[row].split("\t")[2].split(","))))


def first_id(row, value):
    return lambda lines: set_ids(lines, row, lambda ids: [value] + ids[1:])


def drop_last(ids):
    return ids[:-1]


def config_file(tmp_path, dataset, out, **extra):
    lines = {
        "dataset": str(dataset),
        "out": str(out),
        "T": 2,
        "k_core": 2,
        "kernel_dim": 8,
        "kernel_epochs": 10,
        "kernel_lr": 0.01,
        "scorer_dim": 8,
        "max_epochs": 3,
        "losses": "ce,cdsl",
        "seed": 7,
    }
    lines.update(extra)
    path = tmp_path / "config.txt"
    path.write_text("\n".join(f"{k}={v}" for k, v in lines.items()) + "\n")
    return path


class TestLoadConfig:
    def test_defaults_resolve_lengths(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("losses=ce,bpr,cdsl\n")
        config = load_config(str(path), {})
        assert (config.L, config.Z) == (5, 2)

    def test_default_losses_need_multiple_targets(self):
        # the full loss roster includes one that needs T > 1
        with pytest.raises(ValueError):
            load_config(None, {})

    def test_t3_defaults(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("T=3\n")
        config = load_config(str(path), {})
        assert (config.L, config.Z) == (6, 3)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("seed=1\nT=3\n")
        config = load_config(str(path), {"seed": 9})
        assert config.seed == 9
        assert config.T == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("bogus=1\n")
        with pytest.raises(ValueError):
            load_config(str(path), {})

    def test_dsl_with_t1_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("T=1\nlosses=dsl\n")
        with pytest.raises(ValueError):
            load_config(str(path), {})

    def test_kernel_rank_below_set_size_rejected(self, tmp_path):
        # cdsl's numerator covers L+T = 6+3 items, past a rank-8 kernel
        path = tmp_path / "c.txt"
        path.write_text("T=3\nkernel_dim=8\nlosses=ce,cdsl\n")
        with pytest.raises(ValueError):
            load_config(str(path), {})
        path.write_text("T=3\nkernel_dim=2\nlosses=dsl\n")
        with pytest.raises(ValueError):
            load_config(str(path), {})
        path.write_text("T=3\nkernel_dim=9\nlosses=dsl,cdsl\n")
        assert load_config(str(path), {}).kernel_dim == 9

    def test_bpr_with_fewer_negatives_than_targets_rejected(self):
        # bpr pairs the k-th target with the k-th negative
        with pytest.raises(ValueError, match="bpr"):
            load_config(None, {"T": "3", "Z": "2", "losses": "ce,bpr"})
        assert load_config(None, {"T": "3", "Z": "3", "losses": "ce,bpr"}).Z == 3
        assert load_config(None, {"T": "3", "Z": "1", "losses": "ce"}).Z == 1

    @pytest.mark.parametrize(
        "overrides",
        [{"set_size": "0"}, {"set_size": "-2"}, {"decay": "1.5"}, {"decay": "0"}, {"decay": "nan"}],
    )
    def test_set_generation_settings_checked(self, overrides):
        # set_size 0 never covers a user's items; decay must keep weights in (0, 1]
        with pytest.raises(ValueError):
            load_config(None, {"T": "3", **overrides})
        assert load_config(None, {"T": "3", "set_size": "1", "decay": "1"}).set_size == 1

    def test_decay_underflow_is_exact(self):
        # 1e-160 squared is a subnormal; cubed, it is 0
        assert load_config(None, {"T": "3", "decay": "1e-160", "set_size": "3"}).decay == 1e-160
        with pytest.raises(ValueError, match="underflows"):
            load_config(None, {"T": "3", "decay": "1e-160", "set_size": "4"})
        # a weight times a decay above 0.5 never rounds to 0; times 0.5, it
        # reaches 0 after 1,075 picks
        assert load_config(None, {"T": "3", "decay": "0.51", "set_size": "1000000000"})
        assert load_config(None, {"T": "3", "decay": "0.5", "set_size": "1075"})
        with pytest.raises(ValueError, match="underflows"):
            load_config(None, {"T": "3", "decay": "0.5", "set_size": "1076"})

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(T=2, seed=1).resolve()
        b = ExperimentConfig(T=2, seed=1).resolve()
        c = ExperimentConfig(T=2, seed=2).resolve()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        # stamps of earlier runs stay valid: the checks leave a valid config as it was
        assert a.config_hash() == "6e1b9831db9fba38"


class TestExitCodes:
    def test_missing_dataset_is_config_error(self, tmp_path):
        config = config_file(tmp_path, tmp_path / "nope.csv", tmp_path / "out")
        assert main(["--config", str(config), "prepare"]) == 2

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("nope=1\n")
        assert main(["--config", str(path), "prepare"]) == 2

    def test_unprepared_stage_is_data_error(self, tmp_path, small_dataset):
        config = config_file(tmp_path, small_dataset, tmp_path / "out")
        assert main(["--config", str(config), "gen-sets"]) == 3
        assert main(["--config", str(config), "train", "--loss", "ce"]) == 3
        assert main(["--config", str(config), "report"]) == 3

    def test_rank_deficient_kernel_is_config_error(self, tmp_path, small_dataset):
        out = tmp_path / "out"
        config = config_file(tmp_path, small_dataset, out, T=3)
        assert main(["--config", str(config), "prepare"]) == 2
        assert not out.exists()

    def test_bpr_with_fewer_negatives_than_targets_is_config_error(self, tmp_path, small_dataset):
        out = tmp_path / "out"
        config = config_file(tmp_path, small_dataset, out, T=3, Z=1, losses="ce,bpr")
        for stage in (["prepare"], ["gen-sets"], ["train", "--loss", "bpr"], ["report"]):
            assert main(["--config", str(config), *stage]) == 2, stage
        assert not out.exists()

    def test_loss_outside_config_losses_is_config_error(self, tmp_path, small_dataset):
        # the bpr (Z >= T) and cdsl (kernel_dim >= L+T) checks of `resolve`
        # cover only the configured losses, and neither holds here
        out = tmp_path / "out"
        config = config_file(tmp_path, small_dataset, out, T=3, Z=1, losses="ce")
        base = ["--config", str(config)]
        for stage in ("prepare", "gen-sets", "train-kernel"):
            assert main(base + [stage]) == 0, stage
        for loss in ("bpr", "cdsl"):
            for verb in ("train", "evaluate"):
                assert main(base + [verb, "--loss", loss]) == 2, (verb, loss)
            assert not (out / f"scorer_{loss}.txt").exists()
            assert not (out / f"train_log_{loss}.csv").exists()

    @pytest.mark.parametrize("setting", [{"set_size": 0}, {"decay": 1.5}])
    def test_bad_set_generation_setting_is_config_error(self, tmp_path, small_dataset, setting):
        out = tmp_path / "out"
        config = config_file(tmp_path, small_dataset, out, **setting)
        assert main(["--config", str(config), "prepare"]) == 2
        assert main(["--config", str(config), "gen-sets"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            {"T": 0},
            {"L": -3},
            {"Z": -1},
            {"k_core": 0},
            {"kernel_dim": 0},
            {"kernel_epochs": 0},
            {"scorer_dim": 0},
            {"batch_size": 0},
            {"max_epochs": 0},
            {"n_list": "0"},
            {"n_list": "5,0"},
            {"n_list": ""},
            {"kernel_lr": 0},
            {"scorer_lr": -0.1},
            {"scorer_lr": "nan"},
            {"kernel_l2": -0.01},
            {"decay": 1e-200},
            {"patience": 0},
            {"patience": -3},
            {"losses": ""},
            {"losses": "ce,ce"},
            {"n_list": "5,5"},
        ],
    )
    def test_out_of_range_setting_is_config_error(self, tmp_path, small_dataset, setting):
        out = tmp_path / "out"
        config = config_file(tmp_path, small_dataset, out, **{"losses": "ce", **setting})
        for stage in (["prepare"], ["gen-sets"], ["train", "--loss", "ce"], ["report"]):
            assert main(["--config", str(config), *stage]) == 2, stage
        assert not out.exists()

    def test_threads_is_no_longer_a_setting(self, tmp_path, small_dataset):
        out = tmp_path / "out"
        config = config_file(tmp_path, small_dataset, out, threads=1)
        assert main(["--config", str(config), "prepare"]) == 2
        assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "--config", str(config), "prepare"])
        assert exc.value.code == 2

    def test_nan_checkpoint_is_data_error(self, tmp_path, small_dataset):
        from dppseq.scorer import load_params, save_params

        config = config_file(tmp_path, small_dataset, tmp_path / "out")
        base = ["--config", str(config)]
        assert main(base + ["prepare"]) == 0
        assert main(base + ["train", "--loss", "ce"]) == 0
        checkpoint = tmp_path / "out" / "scorer_ce.txt"
        params = load_params(checkpoint)
        params.item_bias[1] = np.nan
        save_params(checkpoint, params)
        assert main(base + ["evaluate", "--loss", "ce"]) == 3

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(first_id(0, "-1"), id="id_-1"),
            pytest.param(first_id(0, "99999"), id="id_past_catalog"),
            pytest.param(first_id(1, "9" * 20), id="id_overflows"),
            pytest.param(first_id(0, "x"), id="id_not_int"),
            pytest.param(
                lambda lines: set_ids(lines, 0, lambda ids: ids[:1] + ids[:-1]), id="repeated_id"
            ),
            pytest.param(lambda lines: set_field(lines, 1, 1, "*"), id="sign_not_plus_or_minus"),
            pytest.param(lambda lines: set_field(lines, 1, 1, "0"), id="sign_numeric"),
            pytest.param(lambda lines: [lines[0] + "\t1"] + lines[1:], id="extra_field"),
            pytest.param(
                lambda lines: [lines[0].replace("\t", ",", 1)] + lines[1:], id="missing_field"
            ),
            pytest.param(lambda lines: lines[1:], id="unbalanced_user"),
            pytest.param(lambda lines: set_ids(lines, 1, drop_last), id="negative_set_smaller"),
            pytest.param(
                lambda lines: set_ids(set_ids(lines, 0, drop_last), 1, drop_last),
                id="user_rows_of_two_widths",
            ),
        ],
    )
    def test_bad_sets_file_is_data_error(self, tmp_path, generated_sets, edit):
        out = tmp_path / "out"
        shutil.copytree(generated_sets, out)
        config = config_file(tmp_path, "unused.csv", out)
        assert main(["--config", str(config), "train-kernel"]) == 0
        lines = (out / "diverse_sets.tsv").read_text().splitlines()
        # the first user has more than one pair, all of one width above 1
        assert lines[2].split("\t")[0] == lines[0].split("\t")[0]
        assert lines[0].count(",") == lines[2].count(",") > 0
        (out / "diverse_sets.tsv").write_text("\n".join(edit(lines)) + "\n")
        assert main(["--config", str(config), "train-kernel"]) == 3

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,timestamp,categories\nu1,i1,notatime,c1\n")
        config = config_file(tmp_path, bad, tmp_path / "out")
        assert main(["--config", str(config), "prepare"]) == 3


class TestPipeline:
    def run_all(self, tmp_path, small_dataset, out_name, seed=7):
        out = tmp_path / out_name
        config = config_file(tmp_path, small_dataset, out, seed=seed)
        base = ["--config", str(config)]
        assert main(base + ["prepare"]) == 0
        assert main(base + ["gen-sets"]) == 0
        assert main(base + ["train-kernel"]) == 0
        for loss in ("ce", "cdsl"):
            assert main(base + ["train", "--loss", loss]) == 0
            assert main(base + ["evaluate", "--loss", loss]) == 0
        assert main(base + ["report"]) == 0
        return out

    def test_end_to_end_artifacts(self, tmp_path, small_dataset):
        out = self.run_all(tmp_path, small_dataset, "out")
        for name in (
            "filtered.csv",
            "split_manifest.tsv",
            "instances.tsv",
            "diverse_sets.tsv",
            "kernel.txt",
            "kernel_objective.csv",
            "scorer_ce.txt",
            "scorer_cdsl.txt",
            "metrics_ce.csv",
            "metrics_cdsl.csv",
            "report.csv",
            "efficiency.csv",
            "validation_curves.csv",
        ):
            assert (out / name).exists(), name

        report = (out / "report.csv").read_text().splitlines()
        assert report[0].startswith("# config_hash=")
        assert report[1] == "loss,T,N,recall,ndcg,cc,f"
        data_rows = [r for r in report[2:] if r]
        assert len(data_rows) == 6  # 2 losses x 3 cutoffs
        for row in data_rows:
            values = row.split(",")[3:]
            assert all(0.0 <= float(v) <= 1.0 for v in values)

    def test_train_log_round_trip(self, tmp_path):
        from dppseq.cli import _read_train_log, _write_train_log
        from dppseq.scorer import TrainLog

        written = TrainLog(
            epoch_loss=[2.5, 1.1234567], epoch_val_ndcg=[0.1, 0.25], epoch_seconds=[0.5, 0.0004]
        )
        path = tmp_path / "train_log_ce.csv"
        _write_train_log(path, ExperimentConfig(), written)
        read = _read_train_log(path)
        assert read.epoch_loss == [2.5, 1.123457]
        assert read.epoch_val_ndcg == [0.1, 0.25]
        assert read.epoch_seconds == [0.5, 0.0]

    def test_byte_identical_across_runs(self, tmp_path, small_dataset):
        # same out directory so the config stamp matches too
        out = self.run_all(tmp_path, small_dataset, "run")
        names = ("metrics_ce.csv", "metrics_cdsl.csv", "report.csv")
        first = {name: (out / name).read_bytes() for name in names}
        self.run_all(tmp_path, small_dataset, "run")
        for name in names:
            assert (out / name).read_bytes() == first[name]

    def test_seed_changes_metrics(self, tmp_path, small_dataset):
        out_a = self.run_all(tmp_path, small_dataset, "seed_a", seed=7)
        out_b = self.run_all(tmp_path, small_dataset, "seed_b", seed=8)
        a = (out_a / "instances.tsv").read_text().splitlines()[2:]
        b = (out_b / "instances.tsv").read_text().splitlines()[2:]
        assert a != b
