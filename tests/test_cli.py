"""End-to-end pipeline wiring, config parsing, and exit codes."""

import csv
import shutil

import numpy as np
import pytest

from dppseq.cli import ExperimentConfig, _load_prepared, load_config, main
from dppseq.data import load_interactions, temporal_split, write_interactions
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


@pytest.fixture(scope="module")
def trained_ce(tmp_path_factory, small_dataset):
    """An out directory after `prepare` and `train --loss ce`."""
    root = tmp_path_factory.mktemp("trained")
    config = config_file(root, small_dataset, root / "out")
    for stage in (["prepare"], ["train", "--loss", "ce"]):
        assert main(["--config", str(config), *stage]) == 0
    return root / "out"


def set_token(lines, row, edit):
    row %= len(lines)
    return lines[:row] + [" ".join(edit(lines[row].split()))] + lines[row + 1 :]


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


def assert_loads_the_filtered_split(out, config):
    """`_load_prepared` gives, field by field, the sizes, item x category
    table and split of `filtered.csv` under `config`."""
    got = _load_prepared(config)
    log = load_interactions(out / "filtered.csv")
    want = temporal_split(log, config.T)
    assert (got.n_users, got.n_items) == (log.n_users, log.n_items)
    assert got.item_categories.dtype == bool
    assert np.array_equal(got.item_categories, log.item_categories)
    for name in ("train", "valid", "test", "dropped_users"):
        assert getattr(got.split, name) == getattr(want, name), name
    assert all(type(i) is int for seq in got.split.train for i in seq)


def split_rows_at(lines):
    """The index of the first (user, part, item) row of a `split.tsv`."""
    return lines.index("user\tpart\titem") + 1


def set_count(lines, field, change):
    return set_field(lines, 2, field, str(int(lines[2].split("\t")[field]) + change))


def count_of(lines, field):
    return lines[2].split("\t")[field]


def last_train_to_valid(lines):
    """Moves the last train item of the first user to validation: the rows
    stay ordered, and the user's train part falls below 90%."""
    at = split_rows_at(lines)
    first_valid = next(k for k in range(at, len(lines)) if lines[k].split("\t")[1] == "1")
    return set_field(lines, first_valid - 1, 1, "1")


SPLIT_EDITS = [
    pytest.param(lambda lines: lines[:-1], id="truncated"),
    pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0]], id="truncated_row"),
    pytest.param(lambda lines: set_count(lines, 4, 1), id="row_count_high"),
    pytest.param(lambda lines: set_count(lines, 4, -1), id="row_count_low"),
    pytest.param(lambda lines: set_count(lines, 3, -1), id="pair_count"),
    pytest.param(lambda lines: lines[:1] + lines[2:], id="no_count_labels"),
    pytest.param(
        lambda lines: set_field(lines, len(lines) - 1, 2, count_of(lines, 1)), id="item_past_catalog"
    ),
    pytest.param(
        lambda lines: set_field(lines, split_rows_at(lines), 0, "-1"), id="user_negative"
    ),
    pytest.param(
        lambda lines: set_field(lines, len(lines) - 1, 0, count_of(lines, 0)), id="user_past_users"
    ),
    pytest.param(lambda lines: set_field(lines, 4, 1, count_of(lines, 2)), id="category_past_all"),
    pytest.param(lambda lines: set_field(lines, 4, 0, "x"), id="item_not_int"),
    pytest.param(lambda lines: set_count(lines[:4] + lines[5:], 3, -1), id="item_without_pair"),
    pytest.param(lambda lines: set_field(lines, len(lines) - 1, 1, "3"), id="part_3"),
    pytest.param(lambda lines: set_field(lines, len(lines) - 1, 1, "-1"), id="part_negative"),
    pytest.param(
        lambda lines: lines[: split_rows_at(lines)] + lines[-1:] + lines[split_rows_at(lines) : -1],
        id="unordered_rows",
    ),
    pytest.param(lambda lines: set_count(lines[:-1], 4, -1), id="short_test_part"),
    pytest.param(last_train_to_valid, id="train_under_90_percent"),
    pytest.param(lambda lines: lines[:6] + [""] + lines[6:], id="blank_line"),
    pytest.param(lambda lines: lines[:6] + [""] + lines[7:], id="blank_row"),
    pytest.param(lambda lines: lines + [""], id="blank_last_line"),
]


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
            {"seed": -1},
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
            pytest.param(lambda lines: lines[:4] + [""] + lines[4:], id="blank_line"),
            pytest.param(lambda lines: set_token(lines, 4, lambda t: t[:-1]), id="short_row"),
            pytest.param(
                lambda lines: set_token(lines, 4, lambda t: [*t, "0.5"]), id="extra_token"
            ),
            pytest.param(
                lambda lines: set_token(lines, 4, lambda t: ["#" + t[0], *t[1:]]), id="hash"
            ),
            pytest.param(lambda lines: set_token(lines, -1, lambda t: t[:-1] + ["nan"]), id="nan"),
            pytest.param(lambda lines: set_token(lines, 5, lambda t: ["-inf"] + t[1:]), id="inf"),
            pytest.param(
                lambda lines: [lines[0], f"{int(lines[1]) + 1}", *lines[2:]], id="more_rows"
            ),
            pytest.param(lambda lines: ["0"] + lines[1:], id="zero_rows"),
            pytest.param(lambda lines: lines + lines[-1:], id="line_past_end"),
            pytest.param(lambda lines: ["x"] + lines[1:], id="header_not_int"),
            pytest.param(lambda lines: [], id="empty_file"),
        ],
    )
    def test_bad_checkpoint_is_data_error(self, tmp_path, trained_ce, edit, capsys):
        out = tmp_path / "out"
        shutil.copytree(trained_ce, out)
        config = config_file(tmp_path, "unused.csv", out)
        assert main(["--config", str(config), "evaluate", "--loss", "ce"]) == 0
        assert (out / "scorer_ce.bin").exists()  # so the edit leaves a stale twin
        lines = (out / "scorer_ce.txt").read_text().splitlines()
        (out / "scorer_ce.txt").write_text("".join(line + "\n" for line in edit(lines)))
        capsys.readouterr()
        assert main(["--config", str(config), "evaluate", "--loss", "ce"]) == 3
        assert str(out / "scorer_ce.txt") in capsys.readouterr().err

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
            pytest.param(lambda lines: set_field(lines, 0, 1, "*"), id="plus_sign_replaced"),
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

    @pytest.mark.parametrize(
        "name, edit",
        [
            pytest.param("metrics_ce.csv", lambda lines: [*lines, "ce,3"], id="metrics_short_row"),
            pytest.param(
                "metrics_ce.csv",
                lambda lines: [*lines, lines[-1] + ",0.5"],
                id="metrics_extra_field",
            ),
            pytest.param(
                "metrics_ce.csv",
                lambda lines: [*lines, lines[-1].rsplit(",", 1)[0] + ",x"],
                id="metrics_not_a_number",
            ),
            pytest.param("metrics_ce.csv", lambda lines: [*lines, ""], id="metrics_blank_line"),
            pytest.param(
                "train_log_ce.csv", lambda lines: [*lines, "3,1.5,0.2"], id="log_short_row"
            ),
            pytest.param(
                "train_log_ce.csv", lambda lines: [*lines, "3,1.5,0.2,0.1,9"], id="log_extra_field"
            ),
            pytest.param(
                "train_log_ce.csv", lambda lines: [*lines, "3,x,0.2,0.1"], id="log_not_a_number"
            ),
            pytest.param("train_log_ce.csv", lambda lines: lines[:2], id="log_header_only"),
        ],
    )
    def test_bad_report_input_is_data_error(self, tmp_path, trained_ce, capsys, name, edit):
        # `report` reads the metric tables and the train logs as outside
        # input: exit 3, with the file named, as for any other stage file
        out = tmp_path / "out"
        shutil.copytree(trained_ce, out)
        config = config_file(tmp_path, "unused.csv", out, losses="ce")
        assert main(["--config", str(config), "evaluate", "--loss", "ce"]) == 0
        assert main(["--config", str(config), "report"]) == 0
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("# config_hash=") and len(lines) > 2
        (out / name).write_text("\n".join(edit(lines)) + "\n")
        capsys.readouterr()
        assert main(["--config", str(config), "report"]) == 3
        assert str(out / name) in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("name", "stage"),
        [("instances.tsv", ["train", "--loss", "ce"]), ("split.tsv", ["gen-sets"])],
    )
    def test_unreadable_stage_file_is_data_error(self, tmp_path, trained_ce, capsys, name, stage):
        out = tmp_path / "out"
        shutil.copytree(trained_ce, out)
        config = config_file(tmp_path, "unused.csv", out)
        (out / name).unlink()
        (out / name).mkdir()
        assert main(["--config", str(config), *stage]) == 3
        assert str(out / name) in capsys.readouterr().err

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,timestamp,categories\nu1,i1,notatime,c1\n")
        config = config_file(tmp_path, bad, tmp_path / "out")
        assert main(["--config", str(config), "prepare"]) == 3

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_field_past_the_csv_limit_is_data_error(self, tmp_path, quote):
        bad = tmp_path / "bad.csv"
        user = quote + "u" * (csv.field_size_limit() + 1) + quote
        bad.write_text(f"user_id,item_id,timestamp,categories\n{user},i1,5,c1\n")
        config = config_file(tmp_path, bad, tmp_path / "out")
        assert main(["--config", str(config), "prepare"]) == 3


class TestSplitFile:
    """`split.tsv`, the coded split `prepare` writes for the later stages."""

    def test_fixtures_load_the_filtered_split(self, tmp_path, generated_sets, trained_ce):
        for out in (generated_sets, trained_ce):
            config = load_config(str(config_file(tmp_path, "unused.csv", out)), {})
            assert_loads_the_filtered_split(out, config)

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_users_dropped_as_too_short(self, tmp_path, small_dataset, T):
        # copies of u0's first k rows under new users, one action a row: those
        # with at most T+1 actions are dropped, and the split runs past them
        lines = small_dataset.read_text().splitlines()
        first = [ln for ln in lines[1:] if ln.startswith("u0,")]
        extra = [f"short{k},{ln.split(',', 1)[1]}" for k in range(1, 6) for ln in first[:k]]
        dataset = tmp_path / "short.csv"
        dataset.write_text("\n".join(lines[:5] + extra + lines[5:]) + "\n")
        out = tmp_path / "out"
        config = config_file(tmp_path, dataset, out, T=T, k_core=1, losses="ce")
        assert main(["--config", str(config), "prepare"]) == 0
        loaded = load_config(str(config), {})
        assert_loads_the_filtered_split(out, loaded)
        dropped = _load_prepared(loaded).split.dropped_users
        assert len(dropped) == T + 1  # short1 to short{T+1}

    @pytest.mark.parametrize("edit", SPLIT_EDITS)
    def test_malformed_split_file_is_data_error(self, tmp_path, trained_ce, capsys, edit):
        out = tmp_path / "out"
        shutil.copytree(trained_ce, out)
        config = config_file(tmp_path, "unused.csv", out)
        assert main(["--config", str(config), "evaluate", "--loss", "ce"]) == 0
        lines = (out / "split.tsv").read_text().splitlines()
        (out / "split.tsv").write_text("\n".join(edit(lines)) + "\n")
        capsys.readouterr()
        for stage in (["gen-sets"], ["train-kernel"], ["evaluate", "--loss", "ce"]):
            assert main(["--config", str(config), *stage]) == 3, stage
            assert str(out / "split.tsv") in capsys.readouterr().err, stage

    def test_t_changed_since_prepare_is_data_error(self, tmp_path, trained_ce, capsys):
        out = tmp_path / "out"
        shutil.copytree(trained_ce, out)
        config = config_file(tmp_path, "unused.csv", out, T=1)
        assert main(["--config", str(config), "evaluate", "--loss", "ce"]) == 3
        err = capsys.readouterr().err
        assert str(out / "split.tsv") in err and "T=1" in err


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
            "split.tsv",
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

    def test_later_stages_need_no_filtered_csv(self, tmp_path, small_dataset):
        out = self.run_all(tmp_path, small_dataset, "run")
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        config = ["--config", str(tmp_path / "config.txt")]
        assert main(config + ["prepare"]) == 0
        (out / "filtered.csv").unlink()
        for stage in (["gen-sets"], ["train-kernel"]):
            assert main(config + stage) == 0, stage
        for loss in ("ce", "cdsl"):
            assert main(config + ["train", "--loss", loss]) == 0, loss
            assert main(config + ["evaluate", "--loss", loss]) == 0, loss
        again = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(again) == set(first) - {"filtered.csv", "report.csv", "efficiency.csv",
                                           "validation_curves.csv"}
        for name, text in again.items():
            if name.startswith("train_log_"):  # all but the seconds column
                assert [ln.rsplit(b",", 1)[0] for ln in text.splitlines()] == [
                    ln.rsplit(b",", 1)[0] for ln in first[name].splitlines()
                ], name
            else:
                assert text == first[name], name

    def test_checkpoints_load_without_parsing_their_text(
        self, tmp_path, generated_sets, monkeypatch
    ):
        # a load that fell back to the text would pass every other test, and
        # show only as a slower benchmark
        from dppseq.kernel_learning import load_kernel

        out = tmp_path / "out"
        shutil.copytree(generated_sets, out)
        config = ["--config", str(config_file(tmp_path, "unused.csv", out))]
        for stage in (["train-kernel"], ["train", "--loss", "cdsl"]):
            assert main(config + stage) == 0, stage

        def refuse(*args, **kwargs):
            raise ValueError("np.loadtxt called")

        monkeypatch.setattr(np, "loadtxt", refuse)
        assert main(config + ["evaluate", "--loss", "cdsl"]) == 0
        assert load_kernel(out / "kernel.txt").factors.shape[1] == 8

    @pytest.mark.parametrize("n_rows", [0, 1, 3, 10])
    def test_rows_written_by_blocks(self, tmp_path, monkeypatch, n_rows):
        # each block of 3 rows ends its last line, and the text is what the
        # `%d` template writes, the largest value included
        from dppseq import data

        monkeypatch.setattr(data, "WRITE_BLOCK_ROWS", 3)
        rng = np.random.default_rng(n_rows)
        columns = [rng.integers(0, 1000, n_rows), rng.integers(0, 12, (n_rows, 4)), np.arange(n_rows)]
        line = "%d\t%d,%d,%d,%d\t%d"
        path = tmp_path / "rows.tsv"
        with open(path, "w") as fh:
            data.write_rows(fh, line, columns)
        table = np.column_stack(columns).tolist()
        assert path.read_text() == "".join(line % tuple(r) + "\n" for r in table)
        with open(path, "w") as fh, pytest.raises(ValueError):
            data.write_rows(fh, "%d", [np.array([3, -1])])

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
        names = ("metrics_ce.csv", "metrics_cdsl.csv", "report.csv", "kernel.bin",
                 "scorer_ce.bin", "scorer_cdsl.bin")
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
