import configparser
import errno
import hashlib
import os
import re
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest

from patmetrics import classify as cls
from patmetrics import cli, errors, pipeline
from patmetrics import corpus as corpus_module
from patmetrics import io as pio
from patmetrics.corpus import Corpus, TokenIndexer
from patmetrics.errors import ConfigError, DataError, PatmetricsError

from helpers import child_output

CS_AI = "Computer Science; Artificial Intelligence"

SYNTH_TEXT = """\
[synth]
rng_seed = 424
years = 2000-2004
base_count = 120
growth = 0.05
lag_mean = 4
edges_per_patent = 3

[group:kw]
share = 0.06
phrase = neural network

[group:sci]
share = 0.09
science_field = Computer Science; Artificial Intelligence
science_confidence = 4
jaccard_with = kw
jaccard_target = 0.1

[group:wipo]
share = 0.07
phrase = fuzzy logic
codes = G06N, B25J, -
jaccard_with = sci
jaccard_target = 0.15

[group:us]
share = 0.18
marker = quantumflux
codes = Y02E
jaccard_with = wipo
jaccard_target = 0.12

[decoys]
links =
    Computer Science; Artificial Intelligence|3|2
    Physics; Applied|9|2
"""

USPTO_TEXT = """\
[uspto]
components = ai_core
expansion_hops = 0
vocab_size = 200
epochs = 80
learning_rate = 2.0
threshold = 0.5

[seeds]
ai_core = Y02
"""

RUN_TEXT = """\
[run]
window = 2000-2004
periods = 2000-2004, 2000-2002, 2003-2004

[inputs]
synth = small.synth

[group:Keyword]
kind = keyword

[group:Science]
kind = science

[group:Rules]
kind = wipo

[group:Auto]
kind = uspto
config = small.uspto

[group:All]
kind = prefix
prefix = All

[group:G06]
kind = prefix
prefix = G06

[metrics]
levels = 1,3,4
diversity_universe_3 = 136
diversity_universe_4 = 674
zscore = generality
lowess = growth

[stats]
compare = growth
"""


# one (section, key, value) per run-config number or boolean that must parse
UNPARSABLE = [
    ("metrics", "diversity_universe_3", "abc"),
    ("metrics", "levels", "1,x"),
    ("metrics", "lowess_fraction", "x"),
    ("stats", "exact_cutoff", "many"),
    ("group:Science", "min_confidence", "high"),
    ("run", "strict", "maybe"),
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "small.synth").write_text(SYNTH_TEXT, encoding="utf-8")
    (root / "small.uspto").write_text(USPTO_TEXT, encoding="utf-8")
    (root / "small.run").write_text(RUN_TEXT, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def full_run(ws):
    out = ws / "full"
    code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out)])
    assert code == 0
    return out


def tables_run_config(ws, tmp_path):
    """Write the small synthetic corpus as input tables and a run config
    that reads them, with the groups, metrics and stats of `RUN_TEXT`."""
    src = tmp_path / "tables"
    assert cli.main(["synth", "--config", str(ws / "small.synth"), "--out", str(src)]) == 0
    parser = configparser.ConfigParser()
    parser.read_string(RUN_TEXT)
    parser["group:Auto"]["config"] = str(ws / "small.uspto")
    parser["inputs"] = {name: str(src / f"{name}.tsv") for name in pio.TABLE_COLUMNS}
    cfg = tmp_path / "tables.run"
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return cfg


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def assert_metric_files_are_the_stems(config, out):
    """The series files in `out/metrics` are those that `pipeline.metric_stems`
    derives from the run config at `config`, and their smoothings."""
    cfg = pipeline.load_run_config(str(config))
    written = {p.name[: -len(".metric.tsv")] for p in (out / "metrics").glob("*.metric.tsv")}
    assert written == pipeline.metric_stems(cfg) | {f"{m}_lowess" for m in cfg.lowess}


class TestSynthCommand:
    def test_writes_tables_truth_and_manifest(self, ws):
        out = ws / "synth-out"
        code = cli.main(["synth", "--config", str(ws / "small.synth"), "--out", str(out)])
        assert code == 0
        for name in ("patents.tsv", "cpc.tsv", "citations.tsv", "science.tsv"):
            assert (out / name).exists()
        for name in ("kw", "sci", "wipo", "us"):
            assert (out / "truth" / f"{name}.ids").exists()
        manifest = read(out / "manifest.txt")
        assert "patents.tsv" in manifest
        assert "run.log" not in manifest
        assert "manifest.txt" not in manifest

    def test_seed_flag_changes_output(self, ws):
        a, b = ws / "seed-a", ws / "seed-b"
        assert cli.main(["synth", "--config", str(ws / "small.synth"), "--out", str(a)]) == 0
        assert (
            cli.main(
                ["synth", "--config", str(ws / "small.synth"), "--out", str(b), "--seed", "99"]
            )
            == 0
        )
        assert read(a / "patents.tsv") != read(b / "patents.tsv")
        assert read(a / "run.log").endswith(", seed 424\n")  # the config's rng_seed
        assert read(b / "run.log").endswith(", seed 99\n")

    def test_dropped_group_leaves_no_truth_list(self, ws, tmp_path):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(SYNTH_TEXT)
        del parser["group:us"]
        dropped = tmp_path / "dropped.synth"
        with open(dropped, "w", encoding="utf-8") as fh:
            parser.write(fh)
        out = tmp_path / "o"
        assert cli.main(["synth", "--config", str(ws / "small.synth"), "--out", str(out)]) == 0
        assert (out / "truth" / "us.ids").exists()
        assert cli.main(["synth", "--config", str(dropped), "--out", str(out)]) == 0
        assert sorted(os.listdir(out / "truth")) == ["kw.ids", "sci.ids", "wipo.ids"]
        assert "truth/us.ids" not in read(out / "manifest.txt")

    def test_infeasible_config_exits_2(self, ws, capsys):
        bad = ws / "bad.synth"
        bad.write_text(
            "[synth]\nbase_count = 10\nyears = 2000-2001\n"
            "[group:a]\nshare = 0.7\n[group:b]\nshare = 0.7\n",
            encoding="utf-8",
        )
        code = cli.main(["synth", "--config", str(bad), "--out", str(ws / "bad-out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("concentration", ["1000", "-1000"])
    def test_class_concentration_out_of_float_range_exits_2(self, ws, capsys, concentration):
        bad = ws / f"concentration{concentration}.synth"
        bad.write_text(
            SYNTH_TEXT.replace("[synth]\n", f"[synth]\nclass_concentration = {concentration}\n"),
            encoding="utf-8",
        )
        code = cli.main(["synth", "--config", str(bad), "--out", str(ws / f"c{concentration}-out")])
        assert code == 2
        assert "background-code weights out of float range" in capsys.readouterr().err

    def test_bad_decoy_link_exits_2(self, ws, capsys):
        bad = ws / "bad-decoy.synth"
        bad.write_text(
            SYNTH_TEXT.replace("Physics; Applied|9|2", "Physics; Applied|0|2"), encoding="utf-8"
        )
        code = cli.main(["synth", "--config", str(bad), "--out", str(ws / "bad-decoy-out")])
        assert code == 2
        assert "science confidence below 1" in capsys.readouterr().err


class TestRunPipeline:
    def test_artifact_tree(self, full_run):
        out = full_run
        for g in ("Keyword", "Science", "Rules", "Auto", "All", "G06"):
            assert (out / "groups" / f"{g}.ids").exists()
        metric_stems = [
            "counts", "share", "growth", "growth_lowess", "jaccard", "citation_lag",
            "generality_d1", "generality_d3", "generality_d4",
            "avg_citing_classes_d1", "avg_citing_classes_cited_d1",
            "diversity_share_d3", "diversity_share_d4",
            "diversity_per_patent_d1", "descendants_counts", "descendants_share",
            "generality_d1_zscore",
        ]
        for stem in metric_stems:
            assert (out / "metrics" / f"{stem}.metric.tsv").exists(), stem
        for name in ("scalars.tsv", "overlap.tsv", "lag_periods.tsv"):
            assert (out / "metrics" / name).exists()
        for tag in ("2000-2004", "2000-2002", "2003-2004"):
            assert (out / "stats" / f"growth_tests_{tag}.tsv").exists()
            assert (out / "stats" / f"growth_pvalues_{tag}.tsv").exists()
        assert (out / "stats" / "growth_summary.tsv").exists()
        assert (out / "plots" / "counts.svg").exists()
        assert (out / "load-report.txt").exists()
        assert (out / "manifest.txt").exists()
        assert (out / "run.log").exists()

    def test_groups_match_planted_truth(self, full_run):
        out = full_run
        truth = {
            name: pio.read_ids(str(out / "corpus" / "truth" / f"{name}.ids"))
            for name in ("kw", "sci", "wipo", "us")
        }
        assert pio.read_ids(str(out / "groups" / "Keyword.ids")) == truth["kw"]
        assert pio.read_ids(str(out / "groups" / "Science.ids")) == truth["sci"]
        assert pio.read_ids(str(out / "groups" / "Rules.ids")) == truth["wipo"]
        assert pio.read_ids(str(out / "groups" / "Auto.ids")) == truth["us"]

    def test_all_group_covers_corpus(self, full_run):
        n_all = len(pio.read_ids(str(full_run / "groups" / "All.ids")))
        patents = read(full_run / "corpus" / "patents.tsv").strip().splitlines()
        assert n_all == len(patents) - 1  # header

    def test_scalar_table_well_formed(self, full_run):
        lines = read(full_run / "metrics" / "scalars.tsv").strip().splitlines()
        assert lines[0] == "metric\tlevel\tgroup\tvalue"
        metrics_seen = {line.split("\t")[0] for line in lines[1:]}
        assert {"counts", "jaccard", "generality", "diversity_share", "citation_lag"} <= metrics_seen

    def test_rerun_is_byte_identical(self, ws, full_run):
        out2 = ws / "full-again"
        assert cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out2)]) == 0
        assert read(full_run / "manifest.txt") == read(out2 / "manifest.txt")

    def test_stagewise_equals_monolithic(self, ws, full_run):
        out = ws / "staged"
        for stage in ("classify", "metrics", "stats", "report"):
            code = cli.main(
                ["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", stage]
            )
            assert code == 0
        assert read(full_run / "manifest.txt") == read(out / "manifest.txt")

    @staticmethod
    def prefix_run(tmp_path, synth_path):
        """A run config over the synthetic corpus of `synth_path` with the
        one group All."""
        cfg = tmp_path / "prefix.run"
        cfg.write_text(
            f"[run]\nwindow = 2000-2004\n[inputs]\nsynth = {synth_path}\n"
            "[group:All]\nkind = prefix\nprefix = All\n",
            encoding="utf-8",
        )
        return str(cfg)

    def test_seed_regenerates_reused_corpus(self, ws, tmp_path):
        cfg = self.prefix_run(tmp_path, ws / "small.synth")
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert cli.main(["run", "--config", cfg, "--out", str(reused), "--only", "classify"]) == 0
        for out in (reused, fresh):
            code = cli.main(
                ["run", "--config", cfg, "--out", str(out), "--only", "classify", "--seed", "7"]
            )
            assert code == 0
        assert read(reused / "corpus" / "patents.tsv") == read(fresh / "corpus" / "patents.tsv")

    def test_run_log_records_each_synth_seed(self, ws, tmp_path):
        """A stage run alone regenerates the corpus with its own seed, so
        groups classified on a seed-7 corpus are measured on the default
        one; `run.log` shows both seeds."""
        cfg = self.prefix_run(tmp_path, ws / "small.synth")
        out = tmp_path / "o"
        for extra in (["--only", "classify", "--seed", "7"], ["--only", "metrics"]):
            assert cli.main(["run", "--config", cfg, "--out", str(out), *extra]) == 0
        pattern = r"^synth: generated \d+ patents into corpus/ with seed (\d+)$"
        assert re.findall(pattern, read(out / "run.log"), re.M) == ["7", "424"]

    def test_rerun_regenerates_edited_synth_corpus(self, tmp_path):
        synth_cfg = tmp_path / "edited.synth"
        synth_cfg.write_text(SYNTH_TEXT, encoding="utf-8")
        cfg = self.prefix_run(tmp_path, synth_cfg)
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        before = read(out / "corpus" / "patents.tsv")
        synth_cfg.write_text(SYNTH_TEXT.replace("base_count = 120", "base_count = 180"), encoding="utf-8")
        for where in (out, fresh):
            assert cli.main(["run", "--config", cfg, "--out", str(where)]) == 0
        assert read(out / "corpus" / "patents.tsv") != before
        assert read(out / "manifest.txt") == read(fresh / "manifest.txt")

    def test_dropped_synth_group_leaves_no_truth_list(self, tmp_path):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(SYNTH_TEXT)
        synth_cfg = tmp_path / "dropped.synth"
        synth_cfg.write_text(SYNTH_TEXT, encoding="utf-8")
        cfg = self.prefix_run(tmp_path, synth_cfg)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "corpus" / "truth" / "us.ids").exists()
        del parser["group:us"]
        with open(synth_cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        assert not (out / "corpus" / "truth" / "us.ids").exists()
        assert (out / "corpus" / "truth" / "kw.ids").exists()
        assert "corpus/truth/us.ids" not in read(out / "manifest.txt")


    def test_removed_group_leaves_no_file(self, ws, full_run, tmp_path):
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        parser = configparser.ConfigParser()
        parser.read_string(RUN_TEXT)
        del parser["group:Auto"]
        parser["inputs"]["synth"] = str(ws / "small.synth")
        cfg = tmp_path / "fewer.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--only", "classify"]) == 0
        assert not (out / "groups" / "Auto.ids").exists()
        assert (out / "groups" / "Keyword.ids").exists()
        assert "groups/Auto.ids" not in read(out / "manifest.txt")

    def test_rerun_rewrites_stage_directories(self, ws, full_run, tmp_path):
        # fewer levels, no smoothing, no descendants and another compared
        # metric: a rerun of each stage into the old directory equals a run
        # into a new one
        parser = configparser.ConfigParser()
        parser.read_string(RUN_TEXT)
        parser["inputs"]["synth"] = str(ws / "small.synth")
        parser["group:Auto"]["config"] = str(ws / "small.uspto")
        parser["metrics"].update(levels="1", lowess="", descendants="false")
        parser["stats"]["compare"] = "counts"
        cfg = tmp_path / "less.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        shutil.copytree(full_run, out)
        code = cli.main(
            ["run", "--config", str(cfg), "--out", str(out), "--only", "metrics,stats,report"]
        )
        assert code == 0
        manifest = read(out / "manifest.txt")
        for stale in (
            "metrics/growth_lowess.metric.tsv", "metrics/generality_d3.metric.tsv",
            "plots/growth_lowess.svg", "stats/growth_summary.tsv",
        ):
            assert not (out / stale).exists() and stale not in manifest, stale
        # the descendants lists are classify's: they stay until it runs
        stale = "groups/Keyword.descendants.ids"
        assert (out / stale).exists() and stale in manifest
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--only", "classify"]) == 0
        manifest = read(out / "manifest.txt")
        assert not (out / stale).exists() and stale not in manifest
        assert cli.main(["run", "--config", str(cfg), "--out", str(fresh)]) == 0
        assert manifest == read(fresh / "manifest.txt")
        assert_metric_files_are_the_stems(cfg, fresh)

    def test_metric_files_are_the_derived_stems(self, ws, full_run):
        assert_metric_files_are_the_stems(ws / "small.run", full_run)

    def test_lowess_of_a_misspelt_metric_exits_2(self, ws, tmp_path, capsys):
        """Refused when the config loads, not skipped with a line in `run.log`."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(RUN_TEXT)
        parser["inputs"]["synth"] = str(ws / "small.synth")
        parser["group:Auto"]["config"] = str(ws / "small.uspto")
        parser["metrics"].update(levels="1", lowess="growht, growth")
        cfg = tmp_path / "typo.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: lowess names no metric series of this config: growht\n")
        assert not out.exists()

    def test_skipped_zscore_is_logged(self, ws, full_run, tmp_path):
        """One approach group has nothing to be standardised against."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(RUN_TEXT)
        for name in ("group:Science", "group:Rules", "group:Auto"):
            del parser[name]
        parser["inputs"]["synth"] = str(ws / "small.synth")
        parser["metrics"].update(levels="1", zscore="generality", lowess="growth, generality_d1_zscore")
        cfg = tmp_path / "one-approach.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--only", "classify,metrics"]) == 0
        assert not (out / "metrics" / "generality_d1_zscore.metric.tsv").exists()
        log = read(out / "run.log").splitlines()
        assert "metrics: zscore skipped generality_d1, fewer than 2 approach groups with points" in log
        assert "metrics: lowess skipped generality_d1_zscore, no series with points" in log
        assert (out / "metrics" / "growth_lowess.metric.tsv").exists()
        assert "zscore skipped" not in read(full_run / "run.log")

    def test_run_log_has_uspto_diagnostics(self, full_run):
        lines = [ln for ln in read(full_run / "run.log").splitlines() if "component" in ln]
        assert len(lines) == 1
        got = re.fullmatch(
            r"classify: Auto component ai_core: seed (\d+), anti-seed (\d+), vocabulary (\d+), "
            r"training features (\d+) x (\d+), (\d+) non-zeros \((\d+\.\d\d) MB\)",
            lines[0],
        )
        seed, anti, vocab, rows, cols, nonzeros = map(int, got.groups()[:6])
        assert seed > 0 and anti == seed and 0 < vocab <= 200
        assert (rows, cols) == (seed + anti, vocab + 2) and 0 < nonzeros < rows * cols
        assert got[7] == f"{nonzeros * cls.NONZERO_BYTES / 2**20:.2f}"

    def test_run_log_sizes_token_index_once_built(self, full_run):
        lines = [ln for ln in read(full_run / "run.log").splitlines() if "token index" in ln]
        assert len(lines) == 1
        got = re.fullmatch(
            r"classify: token index (\d+) tokens, (\d+) distinct \((\d+\.\d\d) MB, (\d)-byte ids\)", lines[0]
        )
        assert int(got[1]) > int(got[2]) > 0
        assert got[4] == "2"  # a vocabulary of at most 65,536 names

    TEXT_RUNS = {  # case: (groups removed from RUN_TEXT, --only, whether the run tokenizes)
        "science-and-prefix": (("Keyword", "Rules", "Auto"), "", False),
        "science-classify-only": (("Keyword", "Rules", "Auto"), "classify", False),
        "keyword-metrics-only": (("Rules", "Auto"), "metrics", False),
        "keyword-classify-only": (("Rules", "Auto"), "classify", True),
    }

    @pytest.mark.parametrize("case", TEXT_RUNS)
    def test_token_index_built_only_to_classify_a_text_group(self, ws, full_run, tmp_path, monkeypatch, case):
        """Only a run whose stages classify a keyword, WIPO or USPTO group
        tokenizes the patents' text while ingesting, and logs its size."""
        dropped, only, tokenized = self.TEXT_RUNS[case]
        built = []
        build = TokenIndexer.build
        monkeypatch.setattr(TokenIndexer, "build", lambda indexer: built.append(1) or build(indexer))
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(RUN_TEXT)
        for name in dropped:
            del parser[f"group:{name}"]
        parser["inputs"]["synth"] = str(ws / "small.synth")
        cfg = tmp_path / "text.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        out = tmp_path / "o"
        shutil.copytree(full_run, out)  # the groups that `--only metrics` reads
        (out / "run.log").unlink()
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--only", only]) == 0
        log = read(out / "run.log")
        assert log.startswith("synth: generated ") and "load: " in log
        assert ("token index" in log) == tokenized and len(built) == tokenized

    def test_token_index_released_once_classified(self, ws, tmp_path, monkeypatch):
        """Only classify reads text: the stages after it get a corpus without
        the token index, sharing the memos of the corpus classify read."""
        seen = {}
        for name, (stage, directory, reads) in pipeline.STAGES.items():
            def recording(cfg, corpus, out_dir, into, _name=name, _stage=stage):
                seen[_name] = corpus
                return _stage(cfg, corpus, out_dir, into)

            monkeypatch.setitem(pipeline.STAGES, name, (recording, directory, reads))
        assert cli.main(["run", "--config", str(ws / "small.run"), "--out", str(tmp_path / "o")]) == 0
        assert list(seen) == list(pipeline.STAGES)
        assert seen["classify"].token_index is not None
        for name in ("metrics", "stats", "report"):
            assert seen[name].token_index is None
            assert seen[name]._caches is seen["classify"]._caches
            with pytest.raises(ValueError, match="released once the classify stage had run"):
                seen[name].tokens()

    def test_run_log_sizes_outside_incidence_per_level(self, ws, full_run, tmp_path):
        pattern = (r"metrics: level (\d) outside-class incidence (\d+) rows, "
                   r"(\d+) \(year, class\) cells \((\d+\.\d\d) MB\)")
        lines = [ln for ln in read(full_run / "run.log").splitlines() if "outside-class" in ln]
        got = [re.fullmatch(pattern, ln) for ln in lines]
        assert [int(g[1]) for g in got] == list(pipeline.load_run_config(str(ws / "small.run")).levels)
        for g in got:
            rows, cells = int(g[2]), int(g[3])
            assert rows >= cells > 0
            assert float(g[4]) >= round(rows * 8 / 2**20, 2)  # cited position and cell, per row
        # no level, no incidence and no line
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(RUN_TEXT)
        parser["inputs"]["synth"] = str(ws / "small.synth")
        parser["group:Auto"]["config"] = str(ws / "small.uspto")
        parser["metrics"].update(levels="", zscore="")
        cfg = tmp_path / "no-levels.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        os.remove(out / "run.log")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--only", "metrics"]) == 0
        log = read(out / "run.log")
        assert "metrics: wrote series" in log and "outside-class" not in log


class TestExitCodes:
    def test_missing_run_config(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "none.run"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_stage_in_only(self, ws, tmp_path):
        code = cli.main(
            ["run", "--config", str(ws / "small.run"), "--out", str(tmp_path / "o"), "--only", "paint"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [[stage] for stage in pipeline.STAGES] + [["run", "--strict"]],
        ids=[*pipeline.STAGES, "strict"],
    )
    def test_stage_commands_and_strict_flag_are_gone(self, ws, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--config", str(ws / "small.run"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_metrics_before_classify(self, ws, tmp_path, capsys):
        code = cli.main(
            ["run", "--config", str(ws / "small.run"), "--out", str(tmp_path / "o"), "--only", "metrics"]
        )
        assert code == 3
        assert "classify stage" in capsys.readouterr().err

    def test_group_member_not_in_corpus_is_data_error(self, ws, full_run, tmp_path, capsys):
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        with open(out / "groups" / "Keyword.ids", "a", encoding="utf-8") as fh:
            fh.write("NOPE\n")
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "metrics"])
        assert code == 3
        assert "1 group members not in corpus (e.g. NOPE)" in capsys.readouterr().err

    def test_stats_before_metrics(self, ws, tmp_path):
        code = cli.main(
            ["run", "--config", str(ws / "small.run"), "--out", str(tmp_path / "o"), "--only", "stats"]
        )
        assert code == 3

    def test_report_before_metrics(self, ws, tmp_path):
        code = cli.main(
            ["run", "--config", str(ws / "small.run"), "--out", str(tmp_path / "o"), "--only", "report"]
        )
        assert code == 3

    def test_seed_with_input_tables_creates_nothing(self, ws, tmp_path, capsys):
        """A run from tables has no seed to override."""
        cfg, out = tables_run_config(ws, tmp_path), tmp_path / "o"
        capsys.readouterr()
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: --seed seeds a synthetic corpus, but [inputs] names tables\n")
        assert not out.exists()

    def test_synth_and_tables_in_inputs_change_nothing(self, ws, full_run, tmp_path, capsys):
        """`[inputs]` names either a synthetic corpus or tables, not both."""
        cfg, out = tmp_path / "both.run", tmp_path / "o"
        cfg.write_text(
            RUN_TEXT.replace("synth = small.synth\n", f"synth = {ws / 'small.synth'}\npatents = /nonexistent/patents.tsv\n")
            .replace("config = small.uspto", f"config = {ws / 'small.uspto'}"),
            encoding="utf-8",
        )
        shutil.copytree(full_run, out)
        before = TestStageTable.tree(out)
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: [inputs] names both synth= and tables; name one or the other\n")
        assert TestStageTable.tree(out) == before

    def test_missing_patents_table(self, tmp_path, capsys):
        cfg, out = tmp_path / "x.run", tmp_path / "o"
        cfg.write_text(
            "[run]\nwindow = 2000-2001\n[inputs]\npatents = none.tsv\n"
            "[group:All]\nkind = prefix\nprefix = All\n",
            encoding="utf-8",
        )
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: patents table not found: '{tmp_path / 'none.tsv'}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("synth, text, error", [
        ("nosuch.synth", None, "cannot read config '{file}'"),
        ("bad.synth", SYNTH_TEXT.replace("base_count = 120", "base_count = x"),
         "{file}: [synth] base_count: cannot parse 'x'"),
    ], ids=["missing", "unparsable"])
    def test_refused_synth_config_creates_nothing(self, ws, tmp_path, capsys, synth, text, error):
        """A synthetic corpus is generated before anything is written, so a
        config it refuses leaves no output directory behind."""
        if text is not None:
            (tmp_path / synth).write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        cfg = TestStageTable.config(ws, tmp_path, {"inputs": {"synth": synth}})
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "configuration error: " + error.format(file=tmp_path / synth) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("table", ["cpc", "citations", "science"])
    def test_missing_table_found_before_any_is_read(self, tmp_path, capsys, table):
        """The patents table is not UTF-8, which would be a data error (3)
        once read; the missing table is reported first, as a config error."""
        (tmp_path / "patents.tsv").write_bytes(b"\xff\n")
        cfg = tmp_path / "x.run"
        cfg.write_text(
            f"[run]\nwindow = 2000-2001\n[inputs]\npatents = patents.tsv\n{table} = none.tsv\n"
            "[group:All]\nkind = prefix\nprefix = All\n",
            encoding="utf-8",
        )
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{table} table not found: '{tmp_path / 'none.tsv'}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "group, key", [("Keyword", "keywords"), ("Rules", "rules"), ("Auto", "config")]
    )
    def test_missing_group_file_found_before_corpus_is_built(self, ws, tmp_path, capsys, group, key):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(ws / "small.run", encoding="utf-8")
        parser[f"group:{group}"][key] = str(ws / "nope.tsv")
        cfg = tmp_path / "x.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        shutil.copy(ws / "small.synth", tmp_path)
        shutil.copy(ws / "small.uspto", tmp_path)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} file not found: '{ws / 'nope.tsv'}'" in capsys.readouterr().err
        assert not (out / "corpus").exists()

    def test_unwritable_output_is_io_error(self, ws, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        code = cli.main(
            ["run", "--config", str(ws / "small.run"), "--out", str(blocker / "sub")]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "column, bad",
        [(0, "20x1"), (1, "abc"), (1, "nan"), (1, "inf"), (0, "repeat"), (None, None)],
        ids=["year", "value", "nan", "inf", "duplicate_year", "empty"],
    )
    def test_bad_number_in_metric_file_is_data_error(
        self, ws, full_run, tmp_path, capsys, column, bad
    ):
        """Line 3 of a metric file gets `bad` in `column` ("repeat" copies
        the year of line 2); no column means an empty file."""
        out = tmp_path / "o"
        (out / "metrics").mkdir(parents=True)
        lines = read(full_run / "metrics" / "growth.metric.tsv").splitlines()
        if column is None:
            text, line = "", 1
        else:
            if bad == "repeat":
                bad = lines[1].split("\t")[0]
            cells = lines[2].split("\t")
            cells[column] = bad
            lines[2] = "\t".join(cells)
            text, line = "\n".join(lines) + "\n", 3
        (out / "metrics" / "growth.metric.tsv").write_text(text, encoding="utf-8")
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "stats"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"growth.metric.tsv: line {line}:" in err
        assert bad is None or repr(bad) in err

    @pytest.mark.parametrize("stage", ["stats", "report"])
    def test_repeated_group_column_in_metric_file_is_data_error(
        self, ws, full_run, tmp_path, capsys, stage
    ):
        out = tmp_path / "o"
        (out / "metrics").mkdir(parents=True)
        lines = read(full_run / "metrics" / "growth.metric.tsv").splitlines()
        header = lines[0].split("\t")
        header[2] = header[1]
        lines[0] = "\t".join(header)
        (out / "metrics" / "growth.metric.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", stage])
        assert code == 3
        assert f"growth.metric.tsv: line 1: repeated group column in {header[1:]}" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [1, -1], ids=["extra_cell", "missing_cell"])
    def test_row_width_other_than_header_in_metric_file_is_data_error(
        self, ws, full_run, tmp_path, capsys, change
    ):
        """Line 3 of a metric file gets one cell more, or one fewer, than
        its header names; neither is read as a shorter or padded row."""
        out = tmp_path / "o"
        (out / "metrics").mkdir(parents=True)
        lines = read(full_run / "metrics" / "growth.metric.tsv").splitlines()
        width = len(lines[0].split("\t"))
        assert width >= 3 and len(lines) > 3
        cells = lines[2].split("\t")
        lines[2] = "\t".join(cells + ["99"] if change > 0 else cells[:-1])
        (out / "metrics" / "growth.metric.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "stats"])
        assert code == 3
        err = capsys.readouterr().err
        assert f"growth.metric.tsv: line 3: {width + change} cells under a header of {width}" in err

    def test_every_package_error_has_an_exit_code(self):
        """`main` maps a `ConfigError` to 2 and a `DataError` to 3, and has
        no branch for any other package error."""
        package = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, PatmetricsError)]
        assert len(package) > 3
        assert all(issubclass(c, (ConfigError, DataError)) for c in package if c is not PatmetricsError)

    @pytest.mark.parametrize(
        "section, key, value", UNPARSABLE, ids=[key for _, key, _ in UNPARSABLE]
    )
    def test_unparsable_config_value_exits_2(self, ws, tmp_path, capsys, section, key, value):
        parser = configparser.ConfigParser()
        parser.read_string(RUN_TEXT)
        parser["inputs"]["synth"] = str(ws / "small.synth")
        parser["group:Auto"]["config"] = str(ws / "small.uspto")
        parser[section][key] = value
        cfg = tmp_path / "bad.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestStageTable:
    """`pipeline.STAGES` drives `run`: each stage's inputs are checked, then the
    stage run, in pipeline order; it writes into a fresh directory that takes
    the place of its own only when it returns."""

    @staticmethod
    def config(ws, tmp_path, sections, drop=()):
        """`RUN_TEXT`, with the keys of `sections` set and the sections `drop`
        left out, as a run config file."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(RUN_TEXT)
        parser["inputs"]["synth"] = str(ws / "small.synth")
        parser["group:Auto"]["config"] = str(ws / "small.uspto")
        parser.read_dict(sections)
        for name in drop:
            del parser[name]
        cfg = tmp_path / "stages.run"
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        return str(cfg)

    @staticmethod
    def tree(out):
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    @staticmethod
    def assert_manifest_verifies(out):
        for line in read(out / "manifest.txt").splitlines():
            digest, rel = line.split("  ", 1)
            assert (out / rel).is_file() and pio.sha256_file(str(out / rel), hashlib.sha256) == digest, rel

    @classmethod
    def assert_unchanged(cls, out, before, log_too=False):
        """OUT holds the files of `before` (but `run.log`, unless `log_too`)
        and no staging directory."""
        after = cls.tree(out)
        if not log_too:
            del after[Path("run.log")], before[Path("run.log")]
        assert after == before
        assert not [p.name for p in out.rglob(".*.new")]

    def test_run_directory_matches_the_table(self, ws, full_run):
        """Every top-level entry of a full run is the corpus, a file of the
        run itself, or the directory of exactly one stage; and each stage
        reads only under the directories of stages before it."""
        owned = [directory for _, directory, _ in pipeline.STAGES.values()]
        for entry in os.listdir(full_run):
            if entry not in ("manifest.txt", "run.log", "load-report.txt", "corpus"):
                assert owned.count(entry) == 1, entry
        cfg = pipeline.load_run_config(str(ws / "small.run"))
        for i, (name, (_, _, reads)) in enumerate(pipeline.STAGES.items()):
            for rel in reads(cfg):
                assert rel.split("/")[0] in owned[:i], (name, rel)
                assert (full_run / rel).exists(), (name, rel)

    def test_only_runs_stages_in_pipeline_order(self, ws, full_run, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "metrics,classify"])
        assert code == 0
        for stage in ("groups", "metrics"):
            assert self.tree(out / stage) == self.tree(full_run / stage)

    def test_only_refuses_a_repeated_stage(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "classify,classify"])
        assert code == 2
        assert "--only repeats a stage: classify,classify" in capsys.readouterr().err
        assert not out.exists()

    def test_report_named_before_metrics_plots_the_new_metrics(self, ws, full_run, tmp_path):
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        shutil.copytree(full_run, out)
        cfg = self.config(ws, tmp_path, {"metrics": {"levels": "1"}})
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--only", "report,metrics"]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(fresh)]) == 0
        assert self.tree(out / "plots") == self.tree(fresh / "plots")  # no level-3 or 4 plot
        self.assert_manifest_verifies(out)

    REFUSED = {  # stage: (config sections, the input it misses, the stage that writes it)
        "stats": ({"metrics": {"lowess": "growth, share"}, "stats": {"compare": "counts, share_lowess"}},
                  "metrics/share_lowess.metric.tsv", "metrics"),
        "metrics": ({"group:New": {"kind": "prefix", "prefix": "H04"}}, "groups/New.ids", "classify"),
    }

    @pytest.mark.parametrize("stage", REFUSED)
    def test_stage_refused_for_a_missing_input_changes_nothing(self, ws, full_run, tmp_path, capsys, stage):
        """The stage is refused before it writes anything, and before a
        synthetic corpus is generated (here with another seed)."""
        sections, missing, writer = self.REFUSED[stage]
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        before = self.tree(out)
        cfg = self.config(ws, tmp_path, sections)
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--only", stage, "--seed", "7"]) == 3
        assert f"{out / missing}; run the {writer} stage first" in capsys.readouterr().err
        assert self.tree(out) == before
        self.assert_manifest_verifies(out)

    def test_descendants_turned_on_after_classify_is_refused(self, ws, full_run, tmp_path, capsys):
        """The metrics stage reads the descendants lists that classify
        writes: after a classify run with `descendants` off, a metrics run
        with it on is sent back to classify and changes nothing."""
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        off = self.config(ws, tmp_path, {"metrics": {"descendants": "false"}})
        assert cli.main(["run", "--config", off, "--out", str(out), "--only", "classify"]) == 0
        assert not list((out / "groups").glob("*.descendants.ids"))
        before = self.tree(out)
        on = self.config(ws, tmp_path, {"metrics": {"descendants": "true"}})
        assert cli.main(["run", "--config", on, "--out", str(out), "--only", "metrics"]) == 3
        missing = out / "groups" / "Keyword.descendants.ids"
        assert f"missing {missing}; run the classify stage first" in capsys.readouterr().err
        assert self.tree(out) == before
        self.assert_manifest_verifies(out)

    def test_classify_rerun_keeps_the_descendants(self, ws, full_run, tmp_path):
        """Classify writes each approach group's descendants list beside its
        member list, so a rerun of it alone leaves every file of a finished
        run as it was, but `run.log`."""
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        before = self.tree(out)
        assert (out / "groups" / "Keyword.descendants.ids").exists()
        assert cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "classify"]) == 0
        self.assert_unchanged(out, before)
        self.assert_manifest_verifies(out)

    def test_input_its_writer_did_not_write_is_not_sent_back_to_it(self, ws, full_run, tmp_path, capsys):
        """When the stage that owns a missing input ran earlier in the same
        command, the error says that it wrote no such file: running it first
        again would not help.  Here one approach group leaves no z-score."""
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        drop = ("group:Science", "group:Rules", "group:Auto")
        cfg = self.config(ws, tmp_path, {"stats": {"compare": "counts, generality_d1_zscore"}}, drop)
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--only", "metrics,stats"]) == 3
        err = capsys.readouterr().err
        missing = out / "metrics/generality_d1_zscore.metric.tsv"
        assert err == f"data error: missing {missing}; the metrics stage ran but wrote no such file\n"
        assert (out / "metrics" / "counts.metric.tsv").exists()  # the metrics stage did run

    UNKNOWN_ID = ("UNKNOWN_ID\n", "1 group members not in corpus (e.g. UNKNOWN_ID)")
    BAD_INPUTS = {  # case: (its stage, a file of OUT that it reads, a line appended there, its error)
        "metrics": ("metrics", "groups/G06.ids", *UNKNOWN_ID),
        "metrics-descendants": ("metrics", "groups/Keyword.descendants.ids", *UNKNOWN_ID),
        "stats": ("stats", "metrics/growth.metric.tsv", "2099\t1\n", "2 cells under a header of"),
        "report": ("report", "metrics/growth.metric.tsv", "2099\t1\n", "2 cells under a header of"),
    }

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_stage_refused_for_a_bad_input_changes_nothing(self, ws, full_run, tmp_path, capsys, case):
        """A stage writes only into its staging directory, so an input it
        refuses leaves every file of OUT as it was, but `run.log`."""
        stage, rel, line, error = self.BAD_INPUTS[case]
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        with open(out / rel, "a", encoding="utf-8") as fh:
            fh.write(line)
        before = self.tree(out)
        assert cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", stage]) == 3
        assert error in capsys.readouterr().err
        self.assert_unchanged(out, before)

    def test_floating_point_event_fails_its_stage(self, ws, full_run, tmp_path, capsys, monkeypatch):
        """A numpy division by zero in a metric kernel, whose inf would reach a
        table, fails the metrics stage with exit 3 and leaves every file of
        OUT as it was, but `run.log`."""
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        before = self.tree(out)
        monkeypatch.setattr(pipeline.met, "growth_series", lambda series: np.ones(1) / np.zeros(1))
        assert cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "metrics"]) == 3
        assert capsys.readouterr().err == "data error: metrics stage: divide by zero encountered in divide\n"
        self.assert_unchanged(out, before)

    BAD_KEYWORDS = ("kw.tsv", "phrase\tcategory\nneural network\tmagic\n", "group:Keyword", "keywords")
    BAD_FILES = {  # case: (a file, its text, the run-config section and key naming it, --only, error)
        "keyword-category": (*BAD_KEYWORDS, "", "{file}: line 2: unknown keyword category 'magic'"),
        "rule-header": ("rules.tsv", "kind\tprefix\tphrase\ncode\tG06N\t\n", "group:Rules", "rules", "",
                        "{file}: expected columns rule_kind, code_prefix, phrase"),
        "uspto-threshold": ("bad.uspto", USPTO_TEXT.replace("threshold = 0.5", "threshold = 2"),
                            "group:Auto", "config", "", "{file}: threshold must lie in (0, 1): 2.0"),
        "synth-seed": ("bad.synth", SYNTH_TEXT.replace("rng_seed = 424", "rng_seed = x"), "inputs", "synth", "",
                       "{file}: [synth] rng_seed: cannot parse 'x'"),
        # parsed, but refused by the config's checks
        "synth-concentration": ("bad.synth", SYNTH_TEXT.replace("[synth]\n", "[synth]\nclass_concentration = 1000\n"),
                                "inputs", "synth", "", "{file}: class_concentration 1000.0 puts background-code weights"),
        # parsed, but refused by the generator
        "synth-groups": ("bad.synth", SYNTH_TEXT.replace("share = 0.18", "share = 0.95"), "inputs", "synth", "",
                         "{file}: planted groups need"),
        # every file a group names is read with the run config, even where no stage classifies
        "keyword-category-stats-only": (*BAD_KEYWORDS, "stats", "{file}: line 2: unknown keyword category"),
    }

    @pytest.mark.parametrize("case", BAD_FILES)
    def test_bad_config_file_changes_nothing(self, ws, full_run, tmp_path, capsys, case):
        """A malformed file that the run config names is refused before
        anything in OUT is written or the corpus regenerated."""
        name, text, section, key, only, error = self.BAD_FILES[case]
        (tmp_path / name).write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        before = self.tree(out)
        cfg = self.config(ws, tmp_path, {section: {key: name}})
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--only", only]) == 2
        assert "configuration error: " + error.format(file=tmp_path / name) in capsys.readouterr().err
        assert self.tree(out) == before
        self.assert_manifest_verifies(out)


    @pytest.mark.parametrize("seed", ["Z99", "A, B, C, D, E, F, G, H, Y"], ids=["no-match", "no-negatives"])
    def test_uspto_seed_refused_by_the_corpus_changes_no_group(self, ws, full_run, tmp_path, capsys, seed):
        """A USPTO seed that matches no patent, or every one, can only be
        refused once the corpus is built and other groups are written: the
        run exits 2 with `groups/` and the manifest as they were (`run.log`
        records the corpus load)."""
        (tmp_path / "bad.uspto").write_text(USPTO_TEXT.replace("ai_core = Y02", f"ai_core = {seed}"), encoding="utf-8")
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        before = self.tree(out)
        cfg = self.config(ws, tmp_path, {"group:Auto": {"config": str(tmp_path / "bad.uspto")}})
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        error = "seed matches no patent" if seed == "Z99" else "no negatives left to sample"
        assert f"configuration error: component 'ai_core': {error}" in capsys.readouterr().err
        assert self.tree(out)[Path("run.log")] != before[Path("run.log")]
        self.assert_unchanged(out, before)
        self.assert_manifest_verifies(out)

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit signal")
    def test_stage_stopped_by_a_file_size_limit_changes_nothing(self, ws, full_run, tmp_path):
        """`--only stats` in a child process whose files may not grow past
        300 bytes: its first table fails to be written, and the run exits 4
        with every file of OUT as it was, `run.log` too."""
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        before = self.tree(out)
        code = (
            "import resource, signal, sys\n"
            "from patmetrics import cli, pipeline\n"  # imported before the limit
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (300, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "print(cli.main(sys.argv[1:]))\n"
        )
        argv = ["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "stats"]
        assert child_output(code, *argv).split() == ["4"]
        self.assert_unchanged(out, before, log_too=True)
        self.assert_manifest_verifies(out)

    FAILING_WRITES = {  # stage: (the `io` writer that fails, on the file of this name)
        "classify": ("write_ids", "Science.ids"),  # once Keyword's descendants are written
        "metrics": ("write_table", "scalars.tsv"),
        "stats": ("write_table", "growth_pvalues_2000-2004.tsv"),
        "report": ("write_svg_lines", "growth.svg"),
    }

    @pytest.mark.parametrize("stage", FAILING_WRITES)
    def test_stage_failing_while_it_writes_changes_nothing(self, ws, full_run, tmp_path, monkeypatch, capsys, stage):
        """A write that fails after the stage has written other files exits
        4 with every file of OUT but `run.log` as it was."""
        writer, name = self.FAILING_WRITES[stage]
        write, staged = getattr(pio, writer), []

        def failing(path, *args):
            if os.path.basename(path) == name:
                staged.extend(os.listdir(os.path.dirname(path)))
                raise OSError(errno.ENOSPC, "No space left on device", path)
            return write(path, *args)

        monkeypatch.setattr(pio, writer, failing)
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        before = self.tree(out)
        assert cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", stage]) == 4
        assert "i/o error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert staged and (stage != "classify" or "Keyword.descendants.ids" in staged)
        self.assert_unchanged(out, before)
        self.assert_manifest_verifies(out)

    @pytest.mark.parametrize("directory", ["corpus", *[d for _, d, _ in pipeline.STAGES.values()]])
    def test_staging_directory_left_by_a_killed_run_is_removed(self, ws, full_run, tmp_path, directory):
        """A process killed mid-stage leaves `.NAME.new`: the next run of
        that stage removes it, and none of its files reaches `NAME`."""
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        before = self.tree(out)
        (out / f".{directory}.new" / "truth").mkdir(parents=True)
        (out / f".{directory}.new" / "truth" / "stale.ids").write_text("P0000000\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out)]) == 0
        self.assert_unchanged(out, before)

    def test_manifest_leaves_out_a_staging_directory_left_by_a_killed_run(self, ws, full_run, tmp_path):
        """A `.NAME.new` that outlives its stage is not an artifact: a command
        that does not run that stage does not list its files."""
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        (out / ".stats.new").mkdir()
        (out / ".stats.new" / "half.tsv").write_text("group\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "report"]) == 0
        assert (out / ".stats.new" / "half.tsv").exists()
        assert read(out / "manifest.txt") == read(full_run / "manifest.txt")
        self.assert_manifest_verifies(out)


class TestComputeOnce:
    def count_loads(self, monkeypatch):
        """Record each call of `io.load_corpus` and of `corpus.ingest` (which
        the pipeline imports by name), by name."""
        calls = []
        for module, name in ((pio, "load_corpus"), (corpus_module, "ingest"), (pipeline, "ingest")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    def test_corpus_loaded_once_per_run(self, ws, tmp_path, monkeypatch):
        # a fresh synthetic corpus is ingested from its rows, not read back
        loads = self.count_loads(monkeypatch)
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(tmp_path / "o")])
        assert code == 0
        assert loads == ["ingest"]

    def test_corpus_from_tables_loaded_once(self, ws, tmp_path, monkeypatch):
        cfg = tables_run_config(ws, tmp_path)
        loads = self.count_loads(monkeypatch)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert loads == ["load_corpus", "ingest"]

    def test_synth_command_builds_no_corpus(self, ws, tmp_path, monkeypatch):
        loads = self.count_loads(monkeypatch)
        code = cli.main(["synth", "--config", str(ws / "small.synth"), "--out", str(tmp_path / "o")])
        assert code == 0
        assert loads == []

    def test_corpus_not_loaded_without_a_stage_reading_it(
        self, ws, full_run, tmp_path, monkeypatch
    ):
        out = tmp_path / "o"
        shutil.copytree(full_run, out)
        loads = self.count_loads(monkeypatch)
        code = cli.main(
            ["run", "--config", str(ws / "small.run"), "--out", str(out), "--only", "stats,report"]
        )
        assert code == 0
        assert loads == []

    def test_stats_and_zscore_inputs_computed_once(self, ws, tmp_path, monkeypatch):
        calls = {name: 0 for name in (
            "pairwise_compare", "generality_series", "avg_citing_classes", "citation_lag_series"
        )}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(pipeline.st, "pairwise_compare")
        for name in ("generality_series", "avg_citing_classes", "citation_lag_series"):
            counting(pipeline.met, name)
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(tmp_path / "o")])
        assert code == 0
        cfg = pipeline.load_run_config(str(ws / "small.run"))
        assert calls["pairwise_compare"] == len(cfg.compare) * len(cfg.periods)
        assert calls["generality_series"] == len(cfg.groups) * len(cfg.levels)
        assert calls["avg_citing_classes"] == len(cfg.groups) * len(cfg.levels)
        assert calls["citation_lag_series"] == len(cfg.groups)

    def test_level_indexes_built_once_per_run(self, ws, tmp_path, monkeypatch):
        built = {"class_index": [], "outside": []}
        build_class_index = Corpus._build_class_index
        build_outside = pipeline.met._build_outside

        def counting_class_index(corpus, level):
            built["class_index"].append(level)
            return build_class_index(corpus, level)

        def counting_outside(corpus, level):
            built["outside"].append(level)
            return build_outside(corpus, level)

        monkeypatch.setattr(Corpus, "_build_class_index", counting_class_index)
        monkeypatch.setattr(pipeline.met, "_build_outside", counting_outside)
        code = cli.main(["run", "--config", str(ws / "small.run"), "--out", str(tmp_path / "o")])
        assert code == 0
        levels = list(pipeline.load_run_config(str(ws / "small.run")).levels)
        assert sorted(built["class_index"]) == sorted(levels)
        assert built["outside"] == levels


class TestStrictMode:
    @pytest.fixture()
    def tables(self, ws, tmp_path):
        src = ws / "synth-tables"
        if not src.exists():
            assert (
                cli.main(["synth", "--config", str(ws / "small.synth"), "--out", str(src)]) == 0
            )
        # append one malformed CPC assignment
        cpc = tmp_path / "cpc.tsv"
        cpc.write_text(read(src / "cpc.tsv") + "P0000001\tBADCODE\n", encoding="utf-8")
        cfg = tmp_path / "tables.run"
        cfg.write_text(
            "[run]\nwindow = 2000-2004\n"
            "[inputs]\n"
            f"patents = {src / 'patents.tsv'}\n"
            f"cpc = {cpc}\n"
            f"citations = {src / 'citations.tsv'}\n"
            f"science = {src / 'science.tsv'}\n"
            "[group:All]\nkind = prefix\nprefix = All\n"
            "[metrics]\nlevels = 1\n",
            encoding="utf-8",
        )
        return cfg

    def test_lenient_run_reports_rejection(self, tables, tmp_path):
        out = tmp_path / "lenient"
        assert cli.main(["run", "--config", str(tables), "--out", str(out)]) == 0
        assert "bad_code" in read(out / "load-report.txt")

    @staticmethod
    def strict(cfg):
        """A copy of the run config `cfg` with `strict = true` in `[run]`."""
        path = cfg.with_name("strict.run")
        path.write_text(
            read(cfg).replace("[run]\n", "[run]\nstrict = true\n", 1), encoding="utf-8"
        )
        return str(path)

    def test_strict_run_fails(self, tables, tmp_path, capsys):
        out = tmp_path / "strict"
        code = cli.main(["run", "--config", self.strict(tables), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "cpc.tsv" in err and "line" in err

    def test_strict_run_reports_read_error_before_bad_row(self, tables, tmp_path, capsys):
        """A CPC table is read whole before its rows are judged, so a byte
        that is not UTF-8 after the bad row is the error reported, even
        when the file is decoded in chunks and the bad row comes many
        chunks before it."""
        cpc = tmp_path / "cpc.tsv"
        cpc.write_bytes(cpc.read_bytes() + b"P0000001\tG06N\n" * 10000 + b"\xff\n")
        code = cli.main(["run", "--config", self.strict(tables), "--out", str(tmp_path / "strict")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {cpc}: 'utf-8' codec can't decode"), err


class TestRunConfigParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "case.run"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def base(self, extra=""):
        return (
            "[run]\nwindow = 2000-2004\n[inputs]\nsynth = s.synth\n"
            "[group:All]\nkind = prefix\nprefix = All\n" + extra
        )

    def test_defaults(self, tmp_path):
        cfg = pipeline.load_run_config(self.write(tmp_path, self.base()))
        assert cfg.window == (2000, 2004)
        assert cfg.periods == ((2000, 2004),)
        assert cfg.levels == (1, 3, 4)
        assert cfg.compare == ("growth",)
        assert cfg.zscore == ("generality",)
        assert cfg.lag_mode == "all_citations"
        assert cfg.holm is True
        assert cfg.synth_path == str(tmp_path / "s.synth")

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        nested = tmp_path / "configs"
        nested.mkdir()
        path = nested / "case.run"
        path.write_text(self.base(), encoding="utf-8")
        cfg = pipeline.load_run_config(str(path))
        assert cfg.synth_path == str(nested / "s.synth")

    def test_missing_inputs_section(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(
                self.write(tmp_path, "[run]\nwindow = 2000-2001\n[group:A]\nkind = prefix\nprefix = All\n")
            )

    def test_no_groups(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(
                self.write(tmp_path, "[run]\nwindow = 2000-2001\n[inputs]\nsynth = s\n")
            )

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(
                self.write(tmp_path, self.base("[group:X]\nkind = magic\n"))
            )

    def test_prefix_group_needs_prefix(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(self.write(tmp_path, self.base("[group:X]\nkind = prefix\n")))

    def test_uspto_group_needs_config(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(self.write(tmp_path, self.base("[group:X]\nkind = uspto\n")))

    def test_bad_level(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(self.write(tmp_path, self.base("[metrics]\nlevels = 2\n")))

    def test_bad_lag_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(self.write(tmp_path, self.base("[metrics]\nlag_mode = newest\n")))

    def test_bad_zscore_metric(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(self.write(tmp_path, self.base("[metrics]\nzscore = share\n")))

    def test_percent_is_literal(self, tmp_path):
        cfg = pipeline.load_run_config(self.write(tmp_path, self.base("[group:S]\nkind = science\nfield = 100% AI\n")))
        assert cfg.groups[-1].settings["field"] == "100% AI"

    def test_blank_list_means_none(self, tmp_path):
        cfg = pipeline.load_run_config(
            self.write(tmp_path, self.base("[metrics]\nlevels =\nzscore =\nlowess =\n[stats]\ncompare =\n"))
        )
        assert cfg.levels == cfg.zscore == cfg.lowess == cfg.compare == ()

    def test_year_beyond_9999_exits_2(self, tmp_path, capsys):
        """A year range is bounded, so an unbounded window is a config error
        rather than an int32 overflow of the grant years it admits."""
        (tmp_path / "patents.tsv").write_text(
            "\t".join(pio.TABLE_COLUMNS["patents"]) + "\nP1\t5000000000\tt\ta\tc\td\n", encoding="utf-8"
        )
        path = self.write(
            tmp_path, "[run]\nwindow = 1990-9999999999\n[inputs]\npatents = patents.tsv\n"
            "[group:All]\nkind = prefix\nprefix = All\n",
        )
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "[run] window: cannot parse '1990-9999999999'" in capsys.readouterr().err

    # one group name per rule: each would name a file outside groups/, a
    # hidden file, a cell cut by the `|` separator or a descendants list
    BAD_GROUP_NAMES = {
        "empty": "", "dot": ".", "dotdot": "..", "slash": "../escaped", "backslash": "a\\b",
        "bar": "a|b", "tab": "a\tb", "line-break": "a\u2028b", "descendants": "Keyword.descendants",
    }

    @pytest.mark.parametrize("name", BAD_GROUP_NAMES.values(), ids=BAD_GROUP_NAMES)
    def test_unusable_group_name_exits_2(self, tmp_path, capsys, name):
        path = self.write(tmp_path, self.base(f"[group:{name}]\nkind = prefix\nprefix = G06\n"))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"[group:{name}] is not a usable group name" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["case.run"]

    # per kind of group, keys that only other kinds read
    FOREIGN_KEYS = {
        "keyword": ("rules = r.tsv", "prefix = G06", "min_confidence = 99"),
        "science": ("keywords = default", "config = u.uspto"),
        "wipo": ("field = Physics", "keywords = default"),
        "uspto": ("prefix = G06", "rules = default"),
        "prefix": ("min_confidence = 1", "config = u.uspto"),
    }

    @pytest.mark.parametrize("kind", FOREIGN_KEYS)
    def test_key_of_another_kind_exits_2(self, tmp_path, capsys, kind):
        """A key that the group's kind does not read is refused like a typo,
        rather than ignored."""
        for line in self.FOREIGN_KEYS[kind]:
            path = self.write(tmp_path, self.base(f"[group:X]\nkind = {kind}\n{line}\n"))
            assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
            key = line.split(" = ")[0]
            assert capsys.readouterr().err == f"configuration error: {path}: [group:X] {key}: unknown key\n"

    REPEATED = [
        ("run", "periods", "2000-2001, 2000-2001"),
        ("metrics", "levels", "1,1"),
        ("metrics", "zscore", "generality, generality"),
        ("metrics", "lowess", "growth, share, growth"),
        ("stats", "compare", "growth,growth"),
    ]

    @pytest.mark.parametrize("section, key, value", REPEATED, ids=[key for _, key, _ in REPEATED])
    def test_repeated_list_entry(self, tmp_path, section, key, value):
        """An entry given twice would be computed, and its rows written, twice."""
        parser = configparser.ConfigParser()
        parser.read_string(self.base())
        if section not in parser:
            parser.add_section(section)
        parser[section][key] = value
        path = tmp_path / "case.run"
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        with pytest.raises(ConfigError, match=f"{key} repeats an entry"):
            pipeline.load_run_config(str(path))

    def test_bad_period(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(
                self.write(
                    tmp_path,
                    "[run]\nwindow = 2000-2001\nperiods = 2001-2000\n[inputs]\nsynth = s\n"
                    "[group:A]\nkind = prefix\nprefix = All\n",
                )
            )


class TestUsptoConfigParsing:
    def test_round_trip(self, ws):
        cfg = pipeline.load_uspto_config(str(ws / "small.uspto"))
        assert cfg.components == ("ai_core",)
        assert cfg.seed_rules == {"ai_core": ("Y02",)}
        assert cfg.expansion_hops == 0
        assert cfg.vocab_size == 200
        assert cfg.epochs == 80

    def test_defaults(self, tmp_path):
        path = tmp_path / "u.ini"
        path.write_text("[uspto]\n", encoding="utf-8")
        cfg = pipeline.load_uspto_config(str(path))
        assert cfg.components == pipeline.cls.DEFAULT_COMPONENTS
        assert cfg.threshold == 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_uspto_config(str(tmp_path / "none.ini"))

    def test_missing_section(self, tmp_path):
        path = tmp_path / "u.ini"
        path.write_text("[other]\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            pipeline.load_uspto_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "u.ini"
        path.write_text("[uspto]\nthreshold = 1.5\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            pipeline.load_uspto_config(str(path))

    def test_capitalised_component_reads_its_seeds(self, tmp_path):
        path = tmp_path / "u.ini"
        path.write_text("[uspto]\ncomponents = Vision, speech\n[seeds]\nVision = G06T7\nSpeech = G10L\n", encoding="utf-8")
        cfg = pipeline.load_uspto_config(str(path))
        assert cfg.components == ("Vision", "speech")
        assert cfg.seed_rules == {"Vision": ("G06T7",), "speech": ("G10L",)}

    def test_seed_of_no_component_exits_2(self, ws, tmp_path, capsys):
        """A `[seeds]` key that names no component is refused like a typo."""
        (tmp_path / "u.uspto").write_text(
            "[uspto]\ncomponents = vision\n[seeds]\nvision = G06T7\nspeech = G10L\n", encoding="utf-8"
        )
        cfg = TestStageTable.config(ws, tmp_path, {"group:Auto": {"config": "u.uspto"}})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{tmp_path / 'u.uspto'}: [seeds] speech: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_import_loads_no_network_modules():
    code = ("import sys, patmetrics.cli, patmetrics.pipeline\n"
            "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))")
    assert child_output(code).strip() == "[]"


def main_leaves_unloaded(absent, *argv):
    """The exit code of `cli.main(argv)` in a fresh interpreter, then those
    of the modules `absent` that it loaded."""
    code = (
        "import sys\nfrom patmetrics import cli\ncode = cli.main(sys.argv[1:])\n"
        f"print(code, *[name for name in {absent!r} if name in sys.modules])"
    )
    return child_output(code, *argv).split()


def test_synth_imports_no_numpy(tmp_path):
    """`synth` runs on `io` and the generator alone: neither numpy nor any
    module that loads it is imported."""
    desk = Path(__file__).resolve().parents[1] / "fixtures" / "desk.synth"
    absent = ["numpy"] + [f"patmetrics.{name}" for name in ("corpus", "classify", "metrics", "stats", "pipeline")]
    assert main_leaves_unloaded(absent, "synth", "--config", str(desk), "--out", str(tmp_path / "o")) == ["0"]
    assert (tmp_path / "o" / "manifest.txt").is_file()


@pytest.mark.parametrize("command", ["synth", "run-from-tables"])
def test_manifest_is_the_first_to_load_openssl(ws, tmp_path, command):
    """`_hashlib` (OpenSSL) is not loaded when `io.write_manifest` starts,
    after every stage has run, and these outputs, under 1 MiB, are hashed
    without it: it is still unloaded when `cli.main` returns.  An
    interpreter that loads it before `patmetrics` is imported (a site
    hook, say) cannot tell."""
    argv = ["synth", "--config", str(ws / "small.synth")] if command == "synth" else [
        "run", "--config", str(tables_run_config(ws, tmp_path))]
    code = (
        "import sys\nbefore = '_hashlib' in sys.modules\nfrom patmetrics import cli, io as pio\n"
        "write, loaded = pio.write_manifest, []\n"
        "pio.write_manifest = lambda out: loaded.append('_hashlib' in sys.modules) or write(out)\n"
        "code = cli.main(sys.argv[1:])\nprint(before, code, *loaded, '_hashlib' in sys.modules)"
    )
    before, *rest = child_output(code, *argv, "--out", str(tmp_path / "o")).split()
    if before == "True":
        pytest.skip("this interpreter loads _hashlib before patmetrics is imported")
    assert rest == ["0", "False", "False"]
    assert (tmp_path / "o" / "manifest.txt").is_file()


def test_manifest_of_a_mebibyte_loads_openssl_only_while_it_hashes(tmp_path):
    """A tree of `_OPENSSL_FROM` bytes is written without `_hashlib`, and
    its manifest is hashed with it."""
    code = (
        "import sys\nbefore = '_hashlib' in sys.modules\nfrom patmetrics import io as pio\n"
        "pio.write_text(sys.argv[1] + '/big.tsv', 'x' * pio._OPENSSL_FROM)\n"
        "written = '_hashlib' in sys.modules\npio.write_manifest(sys.argv[1])\n"
        "print(before, written, '_hashlib' in sys.modules)"
    )
    before, *rest = child_output(code, str(tmp_path)).split()
    if before == "True":
        pytest.skip("this interpreter loads _hashlib before patmetrics is imported")
    assert rest == ["False", "True"]
    assert read(tmp_path / "manifest.txt").endswith("  big.tsv\n")


def test_manifest_without_a_builtin_sha256_goes_through_hashlib(ws, tmp_path):
    """An interpreter built without `_sha2` and `_sha256` hashes even a
    small manifest with `hashlib`, and writes the same manifest."""
    out = tmp_path / "o"
    assert cli.main(["synth", "--config", str(ws / "small.synth"), "--out", str(out)]) == 0
    manifest = read(out / "manifest.txt")
    code = (
        "import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from patmetrics import io as pio\npio.write_manifest(sys.argv[1])\n"
        "print('_hashlib' in sys.modules)"
    )
    assert child_output(code, str(out)).split() == ["True"]
    assert read(out / "manifest.txt") == manifest


def test_table_run_imports_neither_numpy_ma_nor_the_generator(ws, tmp_path):
    """Every stage of a run from input tables leaves `numpy.ma` (which a
    plain `np.unique` or `np.median` imports on numpy 2) and the synthetic
    generator unloaded.  Where `import numpy` alone loads `numpy.ma`, only
    the generator is checked."""
    cfg = tables_run_config(ws, tmp_path)
    absent = ["numpy.ma", "patmetrics.synth"]
    if child_output("import sys, numpy; print('numpy.ma' in sys.modules)").split() == ["True"]:
        absent.remove("numpy.ma")
    assert main_leaves_unloaded(absent, "run", "--config", str(cfg), "--out", str(tmp_path / "o")) == ["0"]
    assert (tmp_path / "o" / "plots").is_dir()  # the last stage ran
