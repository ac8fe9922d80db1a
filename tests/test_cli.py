"""End-to-end CLI tests (tiny scale, cached per session)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli-cache"))


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


BASE = ["--scale", "0.005", "--seed", "7"]


class TestCli:
    def test_experiments_list(self, capsys):
        code, out = run_cli(capsys, *BASE, "experiments", "--list")
        assert code == 0
        assert "table4_prediction" in out

    def test_report(self, capsys, cache_dir):
        code, out = run_cli(capsys, *BASE, "--cache-dir", cache_dir, "report")
        assert code == 0
        assert "attacks:" in out
        assert "Intra-Family" in out

    def test_generate(self, capsys, cache_dir, tmp_path):
        code, out = run_cli(
            capsys, *BASE, "--cache-dir", cache_dir,
            "generate", "--out", str(tmp_path), "--botlist-limit", "20",
        )
        assert code == 0
        assert (tmp_path / "ddos_attacks.csv").exists()
        assert (tmp_path / "botlist.csv").exists()
        assert (tmp_path / "botnetlist.csv").exists()

    def test_single_experiment(self, capsys, cache_dir):
        code, out = run_cli(
            capsys, *BASE, "--cache-dir", cache_dir, "experiments", "--only", "fig2_daily"
        )
        assert code == 0
        assert "fig2_daily" in out

    def test_unknown_experiment_fails(self, capsys, cache_dir):
        code, _out = run_cli(
            capsys, *BASE, "--cache-dir", cache_dir, "experiments", "--only", "nope"
        )
        assert code == 1

    def test_predict_needs_data(self, capsys, cache_dir):
        code, out = run_cli(
            capsys, *BASE, "--cache-dir", cache_dir,
            "predict", "--family", "dirtjumper", "--order", "1,0,0",
        )
        # Tiny scale may not have enough points; both outcomes are valid
        # exits, never a crash.
        assert code in (0, 1)

    def test_generate_with_figures(self, capsys, cache_dir, tmp_path):
        code, _out = run_cli(
            capsys, *BASE, "--cache-dir", cache_dir,
            "generate", "--out", str(tmp_path), "--botlist-limit", "5", "--figures",
        )
        assert code == 0
        assert (tmp_path / "figures" / "fig7_duration_cdf.csv").exists()

    def test_defense_subcommand(self, capsys, cache_dir):
        code, out = run_cli(capsys, *BASE, "--cache-dir", cache_dir, "defense")
        assert code == 0
        assert "blacklists" in out
        assert "detection windows" in out

    def test_predict_bad_order(self, capsys, cache_dir):
        code, _out = run_cli(
            capsys, *BASE, "--cache-dir", cache_dir,
            "predict", "--family", "dirtjumper", "--order", "abc",
        )
        assert code == 2

    def test_generate_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([*BASE, "generate", "--jobs", "0"])
        assert exc_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_generate_jobs_not_an_int(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([*BASE, "generate", "--jobs", "two"])
        assert exc_info.value.code == 2

    def test_convert_malformed_row_is_an_error_line(self, capsys, tmp_path):
        src = tmp_path / "bad.jsonl"
        src.write_text("[1, 2]\n")
        code = main(["convert", str(src), str(tmp_path / "out.npz")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {src}:1: malformed row")
        assert "Traceback" not in err

    def test_watch_with_max_polls(self, capsys, cache_dir, tmp_path):
        from repro.datagen.config import DatasetConfig
        from repro.io.cache import load_or_generate
        from repro.io.jsonlio import append_attacks_jsonl

        ds = load_or_generate(DatasetConfig(seed=7, scale=0.005), cache_dir)
        log = tmp_path / "attacks.jsonl"
        append_attacks_jsonl(list(ds.iter_attacks())[:50], log)
        code, out = run_cli(
            capsys, "watch", "--path", str(log), "--interval", "0.01",
            "--max-polls", "2",
        )
        assert code == 0
        assert "attacks: 50" in out
        assert "epoch 1" in out

    def test_watch_missing_log_exits_cleanly(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "watch", "--path", str(tmp_path / "absent.jsonl"),
            "--interval", "0.01", "--max-polls", "1",
        )
        assert code == 0
        assert out == ""


class TestShardCli:
    @pytest.fixture()
    def flat_npz(self, cache_dir, tmp_path):
        from repro.datagen.config import DatasetConfig
        from repro.io.cache import load_or_generate
        from repro.io.colstore import save_dataset_npz

        ds = load_or_generate(DatasetConfig(seed=7, scale=0.005), cache_dir)
        return save_dataset_npz(ds, tmp_path / "flat.npz")

    def test_convert_shards_then_info(self, capsys, tmp_path, flat_npz):
        from repro import api
        from repro.io.colstore import save_dataset_npz

        from .core.test_shard_merge import _gapped

        # A time gap leaves shards 0 and 3 of six empty: no first/last start.
        gapped = save_dataset_npz(_gapped(api.load(flat_npz)), tmp_path / "gapped.npz")
        for src, k in ((flat_npz, 3), (gapped, 6)):
            store = tmp_path / f"store-{k}"
            code, out = run_cli(capsys, "convert", str(src), str(store), "--shards", str(k))
            assert code == 0
            assert f"across {k} shards" in out
            code, out = run_cli(capsys, "shard", "info", str(store))
            assert code == 0
            assert f"shards:    {k}" in out
            assert "shard-0000.npz" in out
        rows = [line.split() for line in out.splitlines() if line.startswith("shard-")]
        empty = [row[0] for row in rows if row[1] == "0"]
        assert empty == ["shard-0000.npz", "shard-0003.npz"]
        assert all(row[3:] == ["-", "-"] for row in rows if row[0] in empty)

    def test_convert_shard_by_duration(self, capsys, tmp_path, flat_npz):
        store = tmp_path / "by-month"
        code, out = run_cli(capsys, "convert", str(flat_npz), str(store), "--shard-by", "60d")
        assert code == 0
        assert "shards" in out

    def test_convert_store_back_to_flat(self, capsys, tmp_path, flat_npz):
        import numpy as np

        from repro import api

        store = tmp_path / "store"
        run_cli(capsys, "convert", str(flat_npz), str(store), "--shards", "2")
        code, _out = run_cli(capsys, "convert", str(store), str(tmp_path / "back.npz"))
        assert code == 0
        ds = api.load(flat_npz)
        back = api.load(tmp_path / "back.npz")
        assert np.array_equal(back.start, ds.start)

    def test_shard_info_rejects_non_store(self, capsys, tmp_path):
        code = main(["shard", "info", str(tmp_path)])
        assert code == 1
        assert "not a sharded store" in capsys.readouterr().err

    def test_convert_bad_duration_rejected(self, capsys, flat_npz, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["convert", str(flat_npz), str(tmp_path / "s"), "--shard-by", "soon"])
        assert exc_info.value.code == 2

    def test_experiments_sharded_matches_flat(self, capsys, tmp_path):
        """A repeat run and a sharded run render the flat run byte for
        byte, and the cache directory holds only the dataset."""
        runs = [
            run_cli(capsys, *BASE, "--cache-dir", str(tmp_path), "experiments", *extra)
            for extra in ((), (), ("--shards", "3"))
        ]
        assert [code for code, _out in runs] == [0, 0, 0]
        flat, repeat, sharded = (out for _code, out in runs)
        assert repeat == flat
        assert sharded == flat
        files = [p.name for p in tmp_path.iterdir()]
        assert len(files) == 1 and files[0].startswith("dataset-") and files[0].endswith(".npz")
