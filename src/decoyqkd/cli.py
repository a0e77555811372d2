"""Command-line front end.

Subcommands:

    distribution   photon-number statistics of a configured source (and
                   source parameters inferred from raw rates, if given)
    curve          key rate vs total loss for a list of schemes (CSV)
    session        full three-intensity session analysis (JSON report)
    infer          source parameters from measured counting rates

Every run with ``--out`` leaves a ``<out>.manifest.json`` sidecar
recording the tool version, config hash, seed and output paths. Exit
codes: 0 success, 2 configuration error, 3 measurement inconsistency.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import config as cfgmod
from .decoy import FluctuationPolicy
from .errors import (
    ConfigError,
    DegenerateDistributionError,
    InconsistentDataError,
    InvalidParameterError,
    UndefinedStatisticError,
)
from .session import Scheme, run_pipeline, sample_counts, scan_loss
from .sources import (
    HspsParams,
    HspsSource,
    g2_zero,
    infer_accidental_rate,
    infer_correlation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONSISTENT = 3

# most loss points one curve may evaluate
CURVE_POINTS_MAX = 10_000


def _emit(
    text: str, args: argparse.Namespace, doc: dict, seed: int | None = None
) -> int:
    """Write ``text`` to stdout, or to ``--out`` plus its manifest."""
    if args.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    Path(args.out).write_text(text, encoding="utf-8", newline="")
    manifest = {
        "tool_version": __version__,
        "config_sha256": cfgmod.config_sha256(doc),
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [args.out],
    }
    Path(f"{args.out}.manifest.json").write_text(
        cfgmod.dump_json(manifest) + "\n", encoding="utf-8", newline=""
    )
    return EXIT_OK


def _distribution_report(dist) -> dict:
    try:
        g2: float | None = g2_zero(dist)
    except UndefinedStatisticError:
        g2 = None
    return {
        "n_max": dist.n_max,
        "tail_folded": dist.tail_folded,
        "p0": dist.p(0),
        "p1": dist.p(1),
        "p_multi": dist.p_at_least(2),
        "g2_zero": g2,
        "probs": list(dist.probs),
    }


def _infer_block(rates, d_i: float) -> dict:
    r_s = infer_accidental_rate(rates)
    mu_acc = r_s * rates.gate_time_s
    p_cor = infer_correlation(rates, r_s)
    return {"r_s_hz": r_s, "mu_acc": mu_acc, "p_cor": p_cor, "d_i": d_i}


def cmd_distribution(args: argparse.Namespace) -> int:
    doc = cfgmod.load_config(args.config)
    model, measured, n_max = cfgmod.distribution_from_dict(doc)
    report: dict = {"report": "distribution", "tool_version": __version__}
    if measured is not None:
        inference = _infer_block(*measured)
        if model is None:
            # rates alone: they lead the report, then the source they imply
            report["inference"] = inference
            model = HspsSource(
                HspsParams(inference["p_cor"], inference["mu_acc"], inference["d_i"])
            )
    report["source"] = cfgmod.source_to_dict(model)
    report["distribution"] = _distribution_report(model.distribution(n_max))
    if measured is not None:
        report.setdefault("inference", inference)
    return _emit(cfgmod.dump_json(report) + "\n", args, doc)


def cmd_infer(args: argparse.Namespace) -> int:
    doc = cfgmod.load_config(args.config)
    report = {"report": "infer", "tool_version": __version__}
    report.update(_infer_block(*cfgmod.infer_from_dict(doc)))
    return _emit(cfgmod.dump_json(report) + "\n", args, doc)


def cmd_session(args: argparse.Namespace) -> int:
    doc = cfgmod.load_config(args.config)
    cfg, mode = cfgmod.experiment_from_dict(doc)
    if args.sigma is not None:
        cfg = replace(cfg, fluctuation=FluctuationPolicy(n_sigma=args.sigma))
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)

    counts = sample_counts(cfg) if mode == "sampled" else None
    result = run_pipeline(cfg, counts)

    seed = cfg.rng_seed if mode == "sampled" else None
    report = {
        "report": "session",
        "tool_version": __version__,
        "mode": result.mode,
        "seed": seed,
        "config": cfgmod.experiment_to_dict(cfg, mode),
        "observation": asdict(result.observation),
        "expected": asdict(result.expected),
        "condition_ok": result.condition_ok,
        "observable_bounds": asdict(result.observable_bounds),
        "bounds": asdict(result.bounds),
        "truth": {"y1": result.y1_true, "e1": result.e1_true},
        "key_rate": asdict(result.key),
    }
    if counts is not None:
        report["counts"] = asdict(counts)
    return _emit(cfgmod.dump_json(report) + "\n", args, doc, seed)


def cmd_curve(args: argparse.Namespace) -> int:
    doc = cfgmod.load_config(args.config)
    cfg, _ = cfgmod.experiment_from_dict(doc)

    schemes = [Scheme.parse(tok) for tok in args.schemes.split(",") if tok.strip()]
    if not schemes:
        raise ConfigError("no schemes given")

    if not args.loss_step > 0.0:
        raise ConfigError(f"--loss-step must be > 0, got {args.loss_step}")
    if args.loss_to < args.loss_from:
        raise ConfigError("--loss-to must be >= --loss-from")
    # integer steps: adding the step repeatedly would accumulate rounding
    grid = []
    loss = round(args.loss_from, 12)
    while loss <= args.loss_to + 1e-9:
        if len(grid) == CURVE_POINTS_MAX:
            raise ConfigError(f"loss grid exceeds {CURVE_POINTS_MAX} points")
        grid.append(loss)
        loss = round(args.loss_from + len(grid) * args.loss_step, 12)
    if not grid:
        raise ConfigError("empty loss grid")

    curves = [scan_loss(cfg, scheme, grid) for scheme in schemes]

    lines = ["loss_db," + ",".join(c.scheme_label for c in curves)]
    for i, loss_db in enumerate(grid):
        row = [cfgmod.format_float(loss_db)]
        row.extend(cfgmod.format_float(c.rate[i]) for c in curves)
        lines.append(",".join(row))
    for c in curves:
        cutoff = "none" if c.cutoff_db is None else cfgmod.format_float(c.cutoff_db)
        lines.append(f"# cutoff_db,{c.scheme_label},{cutoff}")
        if c.rate[-1] > 0.0:
            # the summary line then shows the end of the grid, not a cutoff
            print(
                f"note: {c.scheme_label} still has positive key at the last "
                "grid loss; its cutoff lies beyond the grid",
                file=sys.stderr,
            )
    return _emit("\n".join(lines) + "\n", args, doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description=(
            "Decoy-state QKD analysis with heralded and coherent-state "
            "sources: photon statistics, session security bounds and "
            "loss-sweep scheme comparisons."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output file (default: stdout)")

    p_dist = sub.add_parser(
        "distribution", help="photon-number statistics of a source"
    )
    common(p_dist)
    p_dist.set_defaults(func=cmd_distribution)

    p_infer = sub.add_parser(
        "infer", help="source parameters from measured counting rates"
    )
    common(p_infer)
    p_infer.set_defaults(func=cmd_infer)

    p_sess = sub.add_parser("session", help="full session analysis report")
    common(p_sess)
    p_sess.add_argument("--seed", type=int, help="override run.rng_seed")
    p_sess.add_argument(
        "--sigma", type=float, help="override run.n_sigma (fluctuation width)"
    )
    p_sess.set_defaults(func=cmd_session)

    p_curve = sub.add_parser("curve", help="key rate vs total loss (CSV)")
    common(p_curve)
    p_curve.add_argument(
        "--schemes",
        required=True,
        help=(
            "comma-separated scheme list: wcs-no-decoy[:mu], hsps-no-decoy, "
            "wcs-decoy-opt, hsps-decoy:<p_cor>, ideal-sps"
        ),
    )
    p_curve.add_argument("--loss-from", type=float, required=True, help="dB")
    p_curve.add_argument("--loss-to", type=float, required=True, help="dB")
    p_curve.add_argument("--loss-step", type=float, required=True, help="dB")
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads "--option=--" as an empty list, not as a value
    if [] in vars(args).values():
        parser.error("an option was given '--' as its value")
    try:
        return args.func(args)
    except InconsistentDataError as exc:
        print(f"data inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (
        ConfigError,
        InvalidParameterError,
        DegenerateDistributionError,
        UndefinedStatisticError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
