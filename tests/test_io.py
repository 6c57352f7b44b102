import hashlib
import os

import numpy as np
import pytest

from dataclasses import replace
from pathlib import Path

from patmetrics import corpus as corpus_module
from patmetrics import io as pio
from patmetrics import synth
from patmetrics.errors import DataError
from patmetrics.io import GroupSeries

from helpers import assert_same_corpus, classes_at, tokens_of

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def sample_tables(tmp_path):
    write(
        tmp_path / "patents.tsv",
        "id\tgrant_year\ttitle\tabstract\tclaims\tdescription\n"
        "P1\t2000\ta title\tan abstract\tsome claims\tlong text\n"
        "P2\t2001\t\t\t\t\n"
        "P3\t2002\tt3\ta3\tc3\td3\n",
    )
    write(tmp_path / "cpc.tsv", "patent_id\tcpc_code\nP1\tG06N20/00\nP2\tA01B\nP3\tG06N\n")
    write(
        tmp_path / "citations.tsv",
        "citing_id\tcited_id\tciting_year\nP2\tP1\t2001\nP3\tP1\t2002\n",
    )
    write(tmp_path / "science.tsv", "patent_id\tfield_label\tconfidence\nP1\tPhysics; Applied\t7\n")
    return tmp_path


class TestLoadCorpus:
    def test_clean_load(self, tmp_path):
        d = sample_tables(tmp_path)
        corpus, report = pio.load_corpus(
            str(d / "patents.tsv"), str(d / "cpc.tsv"),
            str(d / "citations.tsv"), str(d / "science.tsv"),
            window=(2000, 2002),
        )
        assert len(corpus) == 3
        assert tokens_of(corpus, "abstract", "P1") == ["an", "abstract"]
        assert classes_at(corpus, 4, "P1") == {"G06N"}
        assert len(corpus.citing) == 2
        assert len(corpus.science_patent) == 1
        for t in report.tables.values():
            assert t.rejected_total == 0

    def test_lenient_counts_rejections(self, tmp_path):
        d = sample_tables(tmp_path)
        write(
            d / "patents.tsv",
            "id\tgrant_year\ttitle\tabstract\tclaims\tdescription\n"
            "P1\t2000\tt\ta\tc\td\n"
            "P2\tnot_a_year\tt\ta\tc\td\n"
            "P3\t1980\tt\ta\tc\td\n"
            "P4\t2001\tt\ta\tc\td\n",
        )
        corpus, report = pio.load_corpus(
            str(d / "patents.tsv"), window=(2000, 2002)
        )
        assert corpus.ids == ("P1", "P4")
        t = report.tables["patents"]
        assert t.rows == 4 and t.accepted == 2
        assert t.rejected["malformed"] == 1
        assert t.rejected["year_out_of_window"] == 1
        # accounting invariant: every row is either accepted or rejected
        assert t.rows == t.accepted + t.rejected_total

    @pytest.mark.parametrize(
        "table, bad_row, reason",
        [
            ("patents", "P4\t1980\tt\ta\tc\td", "year_out_of_window"),
            ("cpc", "P1\tBADCODE", "bad_code"),
            ("citations", "P1\tP3\t2000", "negative_lag"),
            ("science", "P1\tPhysics; Applied\tx", "malformed"),
        ],
        ids=["patents", "cpc", "citations", "science"],
    )
    def test_strict_raises_on_bad_row(self, tmp_path, table, bad_row, reason):
        d = sample_tables(tmp_path)
        path = d / f"{table}.tsv"
        lines = path.read_text(encoding="utf-8").splitlines() + [bad_row]
        write(path, "\n".join(lines) + "\n")
        paths = [str(d / f"{name}.tsv") for name in pio.TABLE_COLUMNS]
        with pytest.raises(DataError) as exc:
            pio.load_corpus(*paths, window=(2000, 2002), strict=True)
        assert str(exc.value) == f"{path}: line {len(lines)}: rejected row ({reason})"

    def test_header_only_tables_give_empty_columns(self, tmp_path):
        d = sample_tables(tmp_path)
        for name in ("cpc", "citations", "science"):
            write(d / f"{name}.tsv", "\t".join(pio.TABLE_COLUMNS[name]) + "\n")
        corpus, report = pio.load_corpus(*(str(d / f"{name}.tsv") for name in pio.TABLE_COLUMNS), window=(2000, 2002))
        columns = {
            "codes.ids": corpus.codes.ids, "citing": corpus.citing, "cited": corpus.cited,
            "science_patent": corpus.science_patent, "science_confidence": corpus.science_confidence,
        }
        assert {k: (a.shape, a.dtype) for k, a in columns.items()} == {
            k: ((0,), np.int64 if k == "science_confidence" else np.int32) for k in columns
        }
        assert corpus.science_label == () and list(corpus.codes.indptr) == [0, 0, 0, 0]
        assert [report.tables[name].rows for name in ("cpc", "citations", "science")] == [0, 0, 0]

    def test_missing_column_always_fatal(self, tmp_path):
        d = sample_tables(tmp_path)
        write(d / "patents.tsv", "id\tgrant_year\ttitle\nP1\t2000\tt\n")
        with pytest.raises(DataError):
            pio.load_corpus(str(d / "patents.tsv"), window=(2000, 2002))

    def test_unknown_citation_side_counted(self, tmp_path):
        d = sample_tables(tmp_path)
        write(
            d / "citations.tsv",
            "citing_id\tcited_id\tciting_year\nPX\tP1\t2001\nP3\tPX\t2002\nP3\tP1\t2002\n",
        )
        corpus, report = pio.load_corpus(
            str(d / "patents.tsv"), str(d / "cpc.tsv"), str(d / "citations.tsv"),
            window=(2000, 2002),
        )
        t = report.tables["citations"]
        assert t.accepted == 1
        assert t.rejected["unknown_citing"] == 1
        assert t.rejected["unknown_cited"] == 1
        assert len(corpus.citing) == 1

    def test_citing_year_mismatch_is_warning(self, tmp_path):
        d = sample_tables(tmp_path)
        write(
            d / "citations.tsv",
            "citing_id\tcited_id\tciting_year\nP2\tP1\t1999\n",
        )
        corpus, report = pio.load_corpus(
            str(d / "patents.tsv"), str(d / "cpc.tsv"), str(d / "citations.tsv"),
            window=(2000, 2002),
        )
        # the resolved year wins; the stated one is only flagged
        assert corpus.year[corpus.citing[0]] == 2001
        assert report.tables["citations"].warnings["citing_year_mismatch"] == 1
        assert report.tables["citations"].accepted == 1

    def test_report_format_is_deterministic(self, tmp_path):
        d = sample_tables(tmp_path)
        _, report = pio.load_corpus(str(d / "patents.tsv"), window=(2000, 2002))
        text = report.format()
        assert "corpus window: 2000-2002" in text
        assert "mode: lenient" in text
        assert text == report.format()


class TestRoundTrip:
    def test_corpus_tables_round_trip(self, tmp_path):
        tables = {
            "patents": [
                ("A", 2000, "a title", "deep language model", "", ""),
                ("B", 2001, "", "", "", ""),
            ],
            "cpc": [("A", "G06N20/00"), ("A", "H04L9/40"), ("B", "A01B")],
            "citations": [("B", "A", 2001)],
            "science": [("A", "Physics; Applied", 7)],
        }
        corpus, _ = corpus_module.ingest(
            {name: (name, rows) for name, rows in tables.items()}, window=(2000, 2001)
        )
        pio.write_corpus(str(tmp_path), tables)
        reloaded, report = pio.load_corpus(
            str(tmp_path / "patents.tsv"), str(tmp_path / "cpc.tsv"),
            str(tmp_path / "citations.tsv"), str(tmp_path / "science.tsv"),
            window=corpus.window,
        )
        assert_same_corpus(reloaded, corpus)
        assert reloaded.citing.tolist() == [1]
        assert reloaded.codes.names == ("A01B", "G06N20/00", "H04L9/40")
        assert reloaded.codes.ids.tolist() == [1, 2, 0]
        for t in report.tables.values():
            assert t.rejected_total == 0


# Two groups link the same field and confidence (one label padded) and
# overlap, and decoys repeat the link; the planted lower-case code is the
# only background code once normalised.  Both dedupe rules of the
# generator then run on many patents.
DEDUPE_CONFIG = synth.SynthConfig(
    rng_seed=3,
    years=(2000, 2004),
    base_count=60,
    groups=(
        synth.GroupSpec("a", 0.3, codes=("g06n", None), science_field=" CS ", science_confidence=4),
        synth.GroupSpec(
            "b", 0.3, science_field="CS", science_confidence=4,
            jaccard_with="a", jaccard_target=0.5,
        ),
    ),
    background_codes=("G06N",),
    decoy_links=(("CS", 4, 20),),
)


class TestIngestOnce:
    """`ingest` of the generator's rows gives exactly what `load_corpus`
    gives for the tables written from them."""

    def check(self, cfg, window, tmp_path):
        tables, truth = synth.generate(cfg)
        paths = {name: str(tmp_path / f"{name}.tsv") for name in pio.TABLE_COLUMNS}
        rows = {name: (paths[name], tables[name]) for name in pio.TABLE_COLUMNS}
        fresh, fresh_report = corpus_module.ingest(rows, window=window)
        pio.write_corpus(str(tmp_path), tables)
        loaded, loaded_report = pio.load_corpus(*paths.values(), window=window)
        assert_same_corpus(fresh, loaded)
        assert fresh_report.format().encode() == loaded_report.format().encode()
        with pytest.raises(DataError) as fresh_error:
            corpus_module.ingest(rows, window=(window[0] + 1, window[1]), strict=True)
        with pytest.raises(DataError) as loaded_error:
            pio.load_corpus(*paths.values(), window=(window[0] + 1, window[1]), strict=True)
        assert str(fresh_error.value) == str(loaded_error.value)
        return tables, truth, fresh_report

    def test_dedupe_rules(self, tmp_path):
        tables, truth, report = self.check(DEDUPE_CONFIG, DEDUPE_CONFIG.years, tmp_path)
        assert all(t.rejected_total == 0 for t in report.tables.values())
        # one normalised code per patent, one link per linked patent
        assert tables["cpc"] == [(row[0], "G06N") for row in tables["patents"]]
        linked = [row[0] for row in tables["science"]]
        assert len(linked) == len(set(linked)) > len(truth["a"] | truth["b"])
        assert truth["a"] & truth["b"]
        assert {row[1:] for row in tables["science"]} == {("CS", 4)}

    @pytest.mark.parametrize("seed", [11, 12])
    def test_desk_config_in_a_narrower_window(self, tmp_path, seed):
        cfg = synth.load_synth_config(os.path.join(FIXTURES, "desk.synth"))
        cfg = replace(cfg, rng_seed=seed, base_count=12)
        *_, report = self.check(cfg, (1995, 2015), tmp_path)
        assert report.tables["patents"].rejected["year_out_of_window"] > 0
        assert report.tables["citations"].rejected["unknown_citing"] > 0
        assert report.tables["citations"].rejected["unknown_cited"] > 0


class TestSeriesFiles:
    def test_format_and_missing_cells(self, tmp_path):
        a = GroupSeries("A", ((2000, 1.0), (2001, 2.0), (2002, 3.0)))
        b = GroupSeries("B", ((2001, 0.5),))
        path = str(tmp_path / "counts.metric.tsv")
        pio.write_series(path, [b, a])  # unsorted input
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "year\tA\tB"
        assert lines[1] == "2000\t1\t"
        assert lines[2] == "2001\t2\t0.5"
        assert lines[3] == "2002\t3\t"

    def test_six_significant_digits(self, tmp_path):
        s = GroupSeries("A", ((2000, 0.123456789), (2001, 1234567.0)))
        path = str(tmp_path / "share.metric.tsv")
        pio.write_series(path, [s])
        content = Path(path).read_text()
        assert "0.123457" in content
        assert "1.23457e+06" in content

    def test_write_read_write_fixed_point(self, tmp_path):
        import random

        rng = random.Random(7)
        series = [
            GroupSeries(
                name,
                tuple(
                    (y, rng.uniform(-1, 1))
                    for y in range(2000, 2020)
                    if rng.random() > 0.2
                ),
            )
            for name in ("A", "B", "C")
        ]
        p1 = str(tmp_path / "one.metric.tsv")
        p2 = str(tmp_path / "two.metric.tsv")
        pio.write_series(p1, series)
        back = pio.read_series(p1)
        assert [s.group for s in back] == ["A", "B", "C"]
        pio.write_series(p2, back)
        assert Path(p1).read_text() == Path(p2).read_text()

    def test_duplicate_groups_rejected(self, tmp_path):
        s = GroupSeries("A", ((2000, 1.0),))
        with pytest.raises(ValueError):
            pio.write_series(str(tmp_path / "x.tsv"), [s, s])

    def test_ids_round_trip(self, tmp_path):
        path = str(tmp_path / "g.ids")
        pio.write_ids(path, {"P2", "P10", "P1"})
        assert Path(path).read_text() == "P1\nP10\nP2\n"
        assert pio.read_ids(path) == {"P1", "P2", "P10"}


class TestSvg:
    def series(self):
        return [
            GroupSeries("A", ((2000, 1.0), (2001, 4.0), (2002, 2.0))),
            GroupSeries("B", ((2000, 3.0), (2002, 5.0))),
        ]

    def test_writes_valid_svg_with_polylines(self, tmp_path):
        path = str(tmp_path / "chart.svg")
        skipped = pio.write_svg_lines(path, self.series(), "counts")
        text = Path(path).read_text()
        assert skipped == []
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="720" height="480"')
        assert text.count("<polyline") == 2
        assert text.count(">counts</text>") == 2  # title and y-axis label
        assert ">year</text>" in text
        assert "2000" in text and "2002" in text

    def test_markup_characters_escaped(self, tmp_path):
        series = [GroupSeries("G&\"<'>", ((2000, 1.0), (2001, 2.0)))]
        pio.write_svg_lines(str(tmp_path / "m.svg"), series, "a&b<c>\"d'e")
        text = (tmp_path / "m.svg").read_text()
        assert text.count(">a&amp;b&lt;c&gt;\"d'e</text>") == 2  # title and y-axis label
        assert ">G&amp;\"&lt;'&gt;</text>" in text

    def test_single_point_series_skipped(self, tmp_path):
        series = self.series() + [GroupSeries("C", ((2000, 9.0),))]
        skipped = pio.write_svg_lines(str(tmp_path / "c.svg"), series, "counts")
        assert skipped == ["C"]
        assert (tmp_path / "c.svg").read_text().count("<polyline") == 2

    def test_error_when_nothing_drawable(self, tmp_path):
        series = [GroupSeries("C", ((2000, 9.0),))]
        with pytest.raises(DataError):
            pio.write_svg_lines(str(tmp_path / "c.svg"), series, "counts")

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        pio.write_svg_lines(p1, self.series(), "counts")
        pio.write_svg_lines(p2, self.series(), "counts")
        assert Path(p1).read_text() == Path(p2).read_text()

    def test_flat_series_padded_axis(self, tmp_path):
        flat = [GroupSeries("A", ((2000, 2.0), (2001, 2.0)))]
        pio.write_svg_lines(str(tmp_path / "flat.svg"), flat, "counts")  # must not divide by zero


class TestManifest:
    def test_sorted_hashes_and_exclusions(self, tmp_path):
        write(tmp_path / "b.txt", "bbb\n")
        write(tmp_path / "a.txt", "aaa\n")
        os.makedirs(tmp_path / "sub")
        write(tmp_path / "sub" / "c.txt", "ccc\n")
        write(tmp_path / "run.log", "log line\n")
        rels = pio.write_manifest(str(tmp_path))
        assert rels == ["a.txt", "b.txt", "sub/c.txt"]
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            digest, rel = line.split("  ")
            assert len(digest) == 64
        assert [l.split("  ")[1] for l in lines] == rels

    def test_rewrite_is_stable(self, tmp_path):
        write(tmp_path / "a.txt", "aaa\n")
        pio.write_manifest(str(tmp_path))
        first = (tmp_path / "manifest.txt").read_text()
        pio.write_manifest(str(tmp_path))
        assert (tmp_path / "manifest.txt").read_text() == first

    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537])
    def test_builtin_sha256_equals_hashlib(self, tmp_path, size):
        """The built-in constructor, read in 64 KiB chunks, gives OpenSSL's digest."""
        builtin = pio._sha256(0)
        assert builtin.__module__ in ("_sha2", "_sha256")
        data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
        (tmp_path / "f").write_bytes(data)
        assert pio.sha256_file(str(tmp_path / "f"), builtin) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("under", [1, 0], ids=["one-byte-under", "at"])
    def test_manifest_at_the_openssl_limit_equals_hashlib(self, tmp_path, monkeypatch, under):
        """One constructor hashes the whole manifest, OpenSSL's from
        `_OPENSSL_FROM` bytes of listed files on (`run.log` is not
        counted), and the manifest is the one that `hashlib` alone gives."""
        sizes = {"a.tsv": 1000, "sub/b.bin": 65537, "sub/c.txt": 0}
        sizes["z.tsv"] = pio._OPENSSL_FROM - under - sum(sizes.values())
        for rel, size in sizes.items():
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            (tmp_path / rel).write_bytes(bytes(range(7)) * (size // 7) + b"x" * (size % 7))
        write(tmp_path / "run.log", "log line\n")
        used, sha256_file = set(), pio.sha256_file
        monkeypatch.setattr(pio, "sha256_file", lambda path, sha256: used.add(sha256) or sha256_file(path, sha256))
        pio.write_manifest(str(tmp_path))
        assert used == {pio._sha256(0) if under else hashlib.sha256}
        expected = "".join(
            f"{hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()}  {rel}\n" for rel in sorted(sizes)
        )
        assert (tmp_path / "manifest.txt").read_text() == expected
