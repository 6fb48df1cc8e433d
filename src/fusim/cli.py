"""Command-line entry: experiment stages, full runs, and route comparisons.

Exit codes: 0 success; 1 a fault in the config, a flag, an IDX file or an
output-directory artifact (a ConfigError, which names the key or the path);
2 the run itself failed.
"""
from __future__ import annotations

import argparse
import functools
import logging
import sys

from . import experiment
from .config import ConfigError, ExperimentConfig, ROUTES, load_config

logger = logging.getLogger("fusim")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _load(args) -> list[ExperimentConfig]:
    """The command's configs, the flags applied as overrides: one, or for
    compare one per route of --routes."""
    overrides = [(flag, key, value) for flag, key, value in (
        ("--seed", "experiment.seed", args.seed),
        ("--route", "unlearn.route", getattr(args, "route", None)),
        ("--out", "experiment.out_dir", args.out)) if value is not None]
    if args.command != "compare":
        return [load_config(args.config, overrides)]
    routes = [r.strip() for r in args.routes.split(",") if r.strip()]
    if not routes:
        raise ConfigError(f"--routes: no routes given in {args.routes!r}")
    return [load_config(args.config, overrides + [("--routes", "unlearn.route", r)])
            for r in routes]


def _add_common(p: argparse.ArgumentParser, with_route: bool = True) -> None:
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--seed", default=None, help="seed override")
    if with_route:
        p.add_argument("--route", default=None,
                       help=f"unlearning route override: {' | '.join(ROUTES)}")


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusim",
        description="Deterministic federated learning and unlearning simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("partition", "build the client partition plan"),
            ("train", "federated training to convergence"),
            ("unlearn", "apply the configured unlearning route"),
            ("evaluate", "per-client per-class accuracy reports and metrics"),
            ("run", "all stages in sequence"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    pc = sub.add_parser("compare", help="run several routes and merge the tables")
    _add_common(pc, with_route=False)
    pc.add_argument("--routes", required=True,
                    help="comma-separated routes, e.g. delete,relabel,zeroing,fedcccu")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfgs = _load(args)
    except (ConfigError, OSError) as exc:
        logger.error("config: %s", exc)
        return EXIT_CONFIG
    cfg = cfgs[0]
    out = cfg.out_dir
    try:
        if args.command == "partition":
            experiment.ensure_partition(cfg, out)
            logger.info("partition: %d clients over %d domains -> %s",
                        sum(cfg.partition.groups), len(cfg.domains), out)
        elif args.command == "train":
            summary = experiment.ensure_train(cfg, out).record
            logger.info("train: convergence_round=%s final_val_error=%s",
                        summary["convergence_round"], summary["final_val_error"])
        elif args.command == "unlearn":
            summary = experiment.ensure_unlearn(cfg, out).record
            logger.info("unlearn: route=%s rounds=%s", cfg.unlearn.route,
                        summary["unlearn_rounds_run"])
        elif args.command in ("evaluate", "run"):
            evaluated = experiment.ensure_evaluate(cfg, out)
            (before, after), metrics = evaluated.value, evaluated.record
            logger.info("global accuracy %.4f -> %.4f", before.global_accuracy,
                        after.global_accuracy)
            logger.info("forget_efficacy=%.2f collateral_retained=%.2f",
                        metrics["forget_efficacy"], metrics["collateral_retained"])
        elif args.command == "compare":
            experiment.compare_routes(cfgs, out)
            logger.info("compare: wrote %s/compare.csv", out)
        return EXIT_OK
    except ConfigError as exc:
        logger.error("config: %s", exc)
        return EXIT_CONFIG
    except Exception as exc:
        logger.error("runtime: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
