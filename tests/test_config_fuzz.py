"""Bad numbers and malformed files, fed to `cli.main`: each gives its
documented exit code (2 for a config, 3 for a table), never a traceback."""

import configparser
import csv
import shutil

import pytest

from patmetrics import cli, pipeline, synth
from patmetrics.errors import ConfigError

VALUES = ("abc", "nan", "inf", "-inf", "-1", "0", "", "5%")

SYNTH_TEXT = """\
[synth]
rng_seed = 7
years = 2000-2003
base_count = 12
growth = 0.1
edges_per_patent = 2
ai_attraction = 4.0
lag_mean = 2
classes_per_patent_mean = 2.0
class_concentration = 1.1
filler_vocab = 40
title_len = 4
abstract_len = 8
claims_len = 4
description_len = 4

[group:kw]
share = 0.25
phrase = neural network
codes = G06N
science_field = Computer Science; Artificial Intelligence
science_confidence = 4

[group:us]
share = 0.25
marker = quantumflux
codes = Y02E
jaccard_with = kw
jaccard_target = 0.2

[decoys]
links = Physics; Applied|9|1
"""

USPTO_TEXT = """\
[uspto]
components = ai_core
expansion_hops = 1
vocab_size = 50
threshold = 0.5
epochs = 20
learning_rate = 2.0
anti_seed_rng = 13

[seeds]
ai_core = Y02
"""

RUN_TEXT = """\
[run]
window = 2000-2003
periods = 2000-2001, 2002-2003

[inputs]
synth = tiny.synth

[group:Keyword]
kind = keyword

[group:Science]
kind = science
min_confidence = 3

[group:Rules]
kind = wipo

[group:Auto]
kind = uspto
config = tiny.uspto

[group:G06]
kind = prefix
prefix = G06

[metrics]
levels = 1,3,4
diversity_universe_3 = 136
diversity_universe_4 = 674
lowess_fraction = 0.6667
zscore = generality
lowess = growth

[stats]
compare = growth
exact_cutoff = 25
"""

FILES = {"tiny.run": RUN_TEXT, "tiny.synth": SYNTH_TEXT, "tiny.uspto": USPTO_TEXT}

# (file, section, key, cell): every numeric key of the three configs; the
# fuzzed value takes the place of {} in the cell
NUMERIC_KEYS = [
    ("tiny.run", "run", "window", "{}"),
    ("tiny.run", "run", "periods", "{}"),
    ("tiny.run", "group:Science", "min_confidence", "{}"),
    ("tiny.run", "metrics", "levels", "{}"),
    ("tiny.run", "metrics", "diversity_universe_3", "{}"),
    ("tiny.run", "metrics", "diversity_universe_4", "{}"),
    ("tiny.run", "metrics", "lowess_fraction", "{}"),
    ("tiny.run", "stats", "exact_cutoff", "{}"),
    *(
        ("tiny.synth", "synth", key, "{}")
        for key in (
            "rng_seed", "years", "base_count", "growth", "edges_per_patent",
            "ai_attraction", "lag_mean", "classes_per_patent_mean",
            "class_concentration", "filler_vocab", "title_len", "abstract_len",
            "claims_len", "description_len",
        )
    ),
    ("tiny.synth", "group:kw", "share", "{}"),
    ("tiny.synth", "group:kw", "science_confidence", "{}"),
    ("tiny.synth", "group:us", "share", "{}"),
    ("tiny.synth", "group:us", "jaccard_target", "{}"),
    ("tiny.synth", "decoys", "links", "Physics; Applied|{}|1"),
    ("tiny.synth", "decoys", "links", "Physics; Applied|9|{}"),
    *(
        ("tiny.uspto", "uspto", key, "{}")
        for key in (
            "expansion_hops", "vocab_size", "threshold", "epochs",
            "learning_rate", "anti_seed_rng",
        )
    ),
]


def write_files(root, files):
    for name, text in files.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (root / name).write_bytes(data)


def run(root, capsys):
    """Exit code and stderr of a run over `tiny.run` in `root`."""
    code = cli.main(["run", "--config", str(root / "tiny.run"), "--out", str(root / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize(
    "name, section, key, cell", NUMERIC_KEYS,
    ids=[f"{name[5:]}-{section}-{key}" for name, section, key, _ in NUMERIC_KEYS],
)
def test_numeric_key(tmp_path, capsys, name, section, key, cell, value):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(FILES[name])
    parser[section][key] = cell.format(value)
    with open(tmp_path / name, "w", encoding="utf-8") as fh:
        parser.write(fh)
    write_files(tmp_path, {n: text for n, text in FILES.items() if n != name})
    code, err = run(tmp_path, capsys)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("configuration error: ")


# (file, section, key): the string, boolean and list keys that have a default
STRING_KEYS = [
    ("tiny.run", "run", "strict"),
    ("tiny.run", "group:Keyword", "keywords"),
    ("tiny.run", "group:Science", "field"),
    ("tiny.run", "group:Rules", "rules"),
    ("tiny.run", "metrics", "lag_mode"),
    ("tiny.run", "metrics", "descendants"),
    ("tiny.run", "stats", "holm"),
    ("tiny.synth", "synth", "background_codes"),
    *(("tiny.synth", "group:kw", key) for key in ("phrase", "codes", "science_field")),
    *(("tiny.synth", "group:us", key) for key in ("marker", "jaccard_with")),
    ("tiny.uspto", "uspto", "components"),
]

# in a run config a blank list of levels or metrics means none, not the default
LISTS = {("metrics", "levels"), ("metrics", "zscore"), ("metrics", "lowess"), ("stats", "compare")}

BLANKABLE = sorted(
    ({(name, section, key) for name, section, key, _ in NUMERIC_KEYS} | set(STRING_KEYS))
    - {("tiny.run", *k) for k in LISTS}
)

LOADERS = {
    "tiny.run": pipeline.load_run_config,
    "tiny.synth": synth.load_synth_config,
    "tiny.uspto": pipeline.load_uspto_config,
}


@pytest.mark.parametrize(
    "name, section, key", BLANKABLE,
    ids=[f"{name[5:]}-{section}-{key}" for name, section, key in BLANKABLE],
)
def test_blank_key_keeps_default(tmp_path, name, section, key):
    """A file with `key` blank loads to the same config (or the same error)
    as the file without it."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(FILES[name])
    path = tmp_path / name

    def load():
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        try:
            return LOADERS[name](str(path))
        except ConfigError as exc:
            return str(exc)

    parser[section][key] = ""
    blank = load()
    parser.remove_option(section, key)
    assert blank == load()


def with_line(text, after, line):
    """`text` with `line` inserted after the line `after`."""
    return text.replace(after + "\n", after + "\n" + line + "\n", 1)


MALFORMED_CONFIGS = {
    "run-no-section-header": {"tiny.run": "window = 2000-2003\n" + RUN_TEXT},
    "run-duplicate-key": {"tiny.run": with_line(RUN_TEXT, "[run]", "window = 2000-2003")},
    "uspto-duplicate-key": {"tiny.uspto": with_line(USPTO_TEXT, "[uspto]", "epochs = 5")},
    "synth-duplicate-section": {"tiny.synth": SYNTH_TEXT + "\n[synth]\nbase_count = 5\n"},
    "run-undecodable": {"tiny.run": RUN_TEXT.encode() + b"# \xff\n"},
    "synth-undecodable": {"tiny.synth": SYNTH_TEXT.encode() + b"# \xff\n"},
    "uspto-undecodable": {"tiny.uspto": USPTO_TEXT.encode() + b"# \xff\n"},
    "keywords-undecodable": {
        "tiny.run": with_line(RUN_TEXT, "kind = keyword", "keywords = kw.tsv"),
        "kw.tsv": b"phrase\tcategory\nneural \xff network\tlearning\n",
    },
    "rules-undecodable": {
        "tiny.run": with_line(RUN_TEXT, "kind = wipo", "rules = rules.tsv"),
        "rules.tsv": b"rule_kind\tcode_prefix\tphrase\ncode\tG06N\t\xff\n",
    },
}


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_config_exits_2(tmp_path, capsys, case):
    write_files(tmp_path, {**FILES, **MALFORMED_CONFIGS[case]})
    code, err = run(tmp_path, capsys)
    assert code == 2, err
    assert err.startswith("configuration error: ")


# (file, section, misspelt key): one per config loader
MISSPELT_KEYS = [
    ("tiny.run", "run", "strictt"),
    ("tiny.run", "group:G06", "prefx"),
    ("tiny.synth", "synth", "base_cont"),
    ("tiny.uspto", "uspto", "epoch"),
]


@pytest.mark.parametrize(
    "name, section, key", MISSPELT_KEYS, ids=[f"{n[5:]}-{s}-{k}" for n, s, k in MISSPELT_KEYS]
)
def test_unknown_key_exits_2(tmp_path, capsys, name, section, key):
    """A misspelt key is refused rather than ignored, which would leave the
    default it meant to replace in force."""
    write_files(tmp_path, {**FILES, name: with_line(FILES[name], f"[{section}]", f"{key} = 1")})
    code, err = run(tmp_path, capsys)
    assert code == 2, err
    assert err == f"configuration error: {tmp_path / name}: [{section}] {key}: unknown key\n"


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """The four corpus tables of the tiny synthetic corpus."""
    root = tmp_path_factory.mktemp("tables")
    write_files(root, FILES)
    assert cli.main(["synth", "--config", str(root / "tiny.synth"), "--out", str(root)]) == 0
    return root


def too_long_cell(path):
    lines = path.read_bytes().split(b"\n")
    cells = lines[1].split(b"\t")
    cells[2] = b"x" * (csv.field_size_limit() + 1)
    lines[1] = b"\t".join(cells)
    path.write_bytes(b"\n".join(lines))


def undecodable(path):
    path.write_bytes(path.read_bytes() + b"\xff\n")


@pytest.mark.parametrize("table", ["patents", "citations"])
@pytest.mark.parametrize("corrupt", [undecodable, too_long_cell])
def test_malformed_table_exits_3(tables, tmp_path, capsys, table, corrupt):
    for name in ("patents", "cpc", "citations", "science"):
        shutil.copy(tables / f"{name}.tsv", tmp_path / f"{name}.tsv")
    corrupt(tmp_path / f"{table}.tsv")
    inputs = "".join(f"{name} = {name}.tsv\n" for name in ("patents", "cpc", "citations", "science"))
    write_files(tmp_path, {**FILES, "tiny.run": RUN_TEXT.replace("synth = tiny.synth\n", inputs)})
    code, err = run(tmp_path, capsys)
    assert code == 3, err
    assert err.startswith(f"data error: {tmp_path / table}.tsv: ")


@pytest.mark.parametrize(
    "stage, output", [("metrics", "groups/Keyword.ids"), ("stats", "metrics/growth.metric.tsv")]
)
def test_undecodable_output_exits_3(tmp_path, capsys, stage, output):
    write_files(tmp_path, FILES)
    assert run(tmp_path, capsys)[0] == 0
    undecodable(tmp_path / "out" / output)
    code = cli.main(
        ["run", "--config", str(tmp_path / "tiny.run"), "--out", str(tmp_path / "out"), "--only", stage]
    )
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith(f"data error: {tmp_path / 'out' / output}: ")
