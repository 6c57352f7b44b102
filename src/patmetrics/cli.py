"""Command line: `synth`, which writes a synthetic corpus, and `run`, the
pipeline of `patmetrics.pipeline`.  This module loads no numpy: `main`
imports the pipeline, and with it numpy and the analysis layers, only for
`run`.  Both commands write the synthetic corpus with the helpers here.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import io as pio
from .errors import ConfigError, DataError


def synthesize(synth_path: str, seed: int | None) -> tuple[dict, dict, int]:
    """The table rows and truth lists of the synthetic corpus that the config
    at `synth_path` describes, generated with `seed` when given, and the seed
    used.  Every error of the config is raised, naming the file, before
    anything is written."""
    from . import synth as syn  # only synthetic runs load the generator

    scfg = syn.load_synth_config(synth_path)
    if seed is not None:
        scfg = replace(scfg, rng_seed=seed)
    return (*pio.made(synth_path, syn.generate, scfg), scfg.rng_seed)  # a setting that only generating refuses


def write_synthetic(out_dir: str, tables: dict, truth: dict) -> None:
    """Write the corpus tables into `out_dir`, the truth lists into a fresh `truth/` there."""
    pio.write_corpus(out_dir, tables)
    with pio.staged(out_dir, "truth") as into:
        for name in sorted(truth):
            pio.write_ids(os.path.join(into, f"{name}.ids"), truth[name])


def cmd_synth(args) -> int:
    tables, truth, seed = synthesize(args.config, args.seed)
    write_synthetic(args.out, tables, truth)
    pio.log(args.out, f"synth: {len(tables['patents'])} patents, {len(tables['citations'])} citations, seed {seed}")
    pio.write_manifest(args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="patmetrics",
        description="patent-corpus classification and technology metrics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_help):
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help=seed_help)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    add_common(p_synth, "override the generator RNG seed")

    p_run = sub.add_parser("run", help="run the pipeline")
    add_common(p_run, "override the synthetic-input RNG seed")
    p_run.add_argument("--only", default="", help="comma-separated subset of stages to run")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            from .pipeline import cmd_run  # only `run` loads numpy and the analysis layers
            return cmd_run(args)
        return cmd_synth(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
