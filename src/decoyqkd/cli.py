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

A command loads only the modules it runs: ``distribution`` and ``infer``
load ``errors``, ``sources`` and ``config``; ``session`` and ``curve``
also load the decoy-state chain (``channel``, ``decoy``, ``keyrate`` and
``session``), which they import when they start.

The command line is read left to right against one table
(``_COMMANDS``), with no import of ``argparse``, ``gettext`` or
``locale``. The command comes first; only ``-h``/``--help`` may stand in
its place, and prints the tool's help. Then come options, ``--opt value``
or ``--opt=value``, each flag named exactly or by an unambiguous prefix
of a long flag; the last of a repeated option wins. A value apart may
start with ``-`` only as a negative number or as ``-`` itself, one
joined by ``=`` may start with anything, and ``--`` is no value.
``-h``/``--help`` prints the command's help and exits 0 where it is
read, and ``--`` ends the options: it and every token after it are
unrecognized. A usage error writes the usage line and a message naming
the option or token to stderr and exits 2: an ambiguous prefix or a
missing or invalid value where it is read, then a missing required
option, then unrecognized tokens.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

from . import __version__
from . import config as cfgmod
from .errors import (
    ConfigError,
    DegenerateDistributionError,
    InconsistentDataError,
    InvalidParameterError,
    UndefinedStatisticError,
)
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
    text: str, args: SimpleNamespace, doc: dict, seed: int | None = None
) -> int:
    """Write ``text`` to stdout, or to ``--out`` plus its manifest."""
    if args.out is None:
        sys.stdout.write(text)
        return EXIT_OK
    # imported here, so that only a run that writes a manifest loads it
    from datetime import datetime, timezone

    manifest = {
        "tool_version": __version__,
        "config_sha256": cfgmod.config_sha256(doc),
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [args.out],
    }
    out = Path(args.out)
    try:
        out.write_text(text, encoding="utf-8", newline="")
        try:
            Path(f"{args.out}.manifest.json").write_text(
                cfgmod.dump_json(manifest) + "\n", encoding="utf-8", newline=""
            )
        except OSError:
            # a report is never left without its manifest
            out.unlink()
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write --out {args.out!r}: {exc}") from exc
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


def cmd_distribution(args: SimpleNamespace) -> int:
    doc = cfgmod.load_config(args.config)
    model, measured, n_max = cfgmod.distribution_from_dict(doc)
    report: dict = {"report": "distribution", "tool_version": __version__}
    if measured is not None:
        inference = _infer_block(*measured)
        if model is None:
            # rates alone: they lead the report, then the source they imply
            report["inference"] = inference
            model = HspsSource(
                params=HspsParams(
                    p_cor=inference["p_cor"],
                    mu_acc=inference["mu_acc"],
                    d_i=inference["d_i"],
                )
            )
    report["source"] = cfgmod.source_to_dict(model)
    report["distribution"] = _distribution_report(model.distribution(n_max))
    if measured is not None:
        report.setdefault("inference", inference)
    return _emit(cfgmod.dump_json(report) + "\n", args, doc)


def cmd_infer(args: SimpleNamespace) -> int:
    doc = cfgmod.load_config(args.config)
    report = {"report": "infer", "tool_version": __version__}
    report.update(_infer_block(*cfgmod.infer_from_dict(doc)))
    return _emit(cfgmod.dump_json(report) + "\n", args, doc)


def cmd_session(args: SimpleNamespace) -> int:
    # imported here, so that distribution and infer never load the chain
    from .decoy import FluctuationPolicy
    from .session import run_pipeline, sample_counts

    doc = cfgmod.load_config(args.config)
    cfg, mode = cfgmod.experiment_from_dict(doc)
    if args.sigma is not None:
        cfg = cfg._replace(fluctuation=FluctuationPolicy(n_sigma=args.sigma))
    if args.seed is not None:
        cfg = cfg._replace(rng_seed=args.seed)

    counts = sample_counts(cfg) if mode == "sampled" else None
    result = run_pipeline(cfg, counts)

    seed = cfg.rng_seed if mode == "sampled" else None
    report = {
        "report": "session",
        "tool_version": __version__,
        "mode": result.mode,
        "seed": seed,
        "config": cfgmod.experiment_to_dict(cfg, mode),
        "observation": result.observation._asdict(),
        "expected": result.expected._asdict(),
        "condition_ok": result.condition_ok,
        "observable_bounds": result.observable_bounds._asdict(),
        "bounds": result.bounds._asdict(),
        "truth": {"y1": result.y1_true, "e1": result.e1_true},
        "key_rate": result.key._asdict(),
    }
    if counts is not None:
        report["counts"] = counts._asdict()
    return _emit(cfgmod.dump_json(report) + "\n", args, doc, seed)


def cmd_curve(args: SimpleNamespace) -> int:
    from .session import Scheme, scan_loss

    doc = cfgmod.load_config(args.config)
    cfg, _ = cfgmod.experiment_from_dict(doc)

    schemes = [Scheme.parse(tok) for tok in args.schemes.split(",") if tok.strip()]
    if not schemes:
        raise ConfigError("no schemes given")

    for option in ("--loss-from", "--loss-to", "--loss-step"):
        value = getattr(args, _dest(option))
        if not math.isfinite(value):
            raise ConfigError(f"{option} must be finite, got {value}")
    if not args.loss_step > 0.0:
        raise ConfigError(f"--loss-step must be > 0, got {args.loss_step}")
    if args.loss_to < args.loss_from:
        raise ConfigError("--loss-to must be >= --loss-from")
    # count the points in steps, with a slack of 1e-9 step and of the
    # rounding of the two ends, and take each from its index, as adding
    # the step would accumulate rounding; adding 0.0 turns a point of -0
    # into 0, which prints without a sign
    start, step = args.loss_from, args.loss_step
    end = args.loss_to + 4 * math.ulp(max(abs(start), abs(args.loss_to)))
    steps = (end - start) / step + 1e-9
    if not steps < CURVE_POINTS_MAX:  # inf too
        raise ConfigError(f"loss grid exceeds {CURVE_POINTS_MAX} points")
    grid = [round(start + k * step, 12) + 0.0 for k in range(int(steps) + 1)]
    if len(set(grid)) < len(grid):
        raise ConfigError(
            f"--loss-step {step} is too small for the grid: two points round "
            "to the same loss"
        )

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


# The commands: the help line, handler and options of each. An option is
# (flag, type, required, help); its value is stored under the flag with
# the leading dashes dropped and "-" read as "_", converted by its type
_CONFIG = ("--config", str, True, "JSON config path")
_OUT = ("--out", str, False, "output file (default: stdout)")
_COMMANDS = {
    "distribution": (
        "photon-number statistics of a source",
        cmd_distribution,
        (_CONFIG, _OUT),
    ),
    "infer": (
        "source parameters from measured counting rates",
        cmd_infer,
        (_CONFIG, _OUT),
    ),
    "session": (
        "full session analysis report",
        cmd_session,
        (
            _CONFIG,
            _OUT,
            ("--seed", int, False, "override run.rng_seed"),
            ("--sigma", float, False, "override run.n_sigma (fluctuation width)"),
        ),
    ),
    "curve": (
        "key rate vs total loss (CSV)",
        cmd_curve,
        (
            _CONFIG,
            _OUT,
            (
                "--schemes",
                str,
                True,
                "comma-separated scheme list: wcs-no-decoy[:mu], hsps-no-decoy, "
                "wcs-decoy-opt, hsps-decoy:<p_cor>, ideal-sps",
            ),
            ("--loss-from", float, True, "dB"),
            ("--loss-to", float, True, "dB"),
            ("--loss-step", float, True, "dB"),
        ),
    ),
}
_PROG = "decoyqkd"
_DESCRIPTION = (
    "Decoy-state QKD analysis with heralded and coherent-state sources: "
    "photon statistics, session security bounds and loss-sweep scheme "
    "comparisons."
)
_HELP = ("-h", "--help")
_WIDTH = 79


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _wrap(head: str, words: list[str], indent: int) -> str:
    """``head`` followed by ``words``, filled to ``_WIDTH`` columns with
    each further line indented by ``indent``."""
    lines = [head]
    for word in words:
        if len(lines[-1]) + 1 + len(word) > _WIDTH:
            lines.append(" " * indent + word)
        else:
            lines[-1] += " " + word
    return "\n".join(lines) + "\n"


def _usage(command: str | None) -> str:
    if command is None:
        prog, parts = _PROG, ["[-h]", "{" + ",".join(_COMMANDS) + "}", "..."]
    else:
        prog, parts = f"{_PROG} {command}", ["[-h]"]
        for flag, _, required, _ in _COMMANDS[command][2]:
            part = f"{flag} {_dest(flag).upper()}"
            parts.append(part if required else f"[{part}]")
    return _wrap(f"usage: {prog}", parts, len(prog) + 8)


def _rows(title: str, rows: list[tuple[str, str]]) -> str:
    width = max(len(name) for name, _ in rows) + 1
    lines = "".join(
        _wrap(f"  {name:<{width}}", text.split(), width + 3) for name, text in rows
    )
    return f"\n{title}:\n{lines}"


def _help(command: str | None) -> str:
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        first, *words = _DESCRIPTION.split()
        about = _wrap(first, words, 0)
        listing = _rows("commands", [(name, c[0]) for name, c in _COMMANDS.items()])
    else:
        about = _COMMANDS[command][0] + "\n"
        listing = ""
        for flag, _, _, text in _COMMANDS[command][2]:
            options.append((f"{flag} {_dest(flag).upper()}", text))
    return f"{_usage(command)}\n{about}{listing}{_rows('options', options)}"


def _fail(command: str | None, message: str) -> NoReturn:
    """Write the usage line and ``message`` to stderr and exit 2."""
    prog = _PROG if command is None else f"{_PROG} {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(EXIT_CONFIG)


def _flag(token: str, flags: tuple[str, ...], command: str | None):
    """The flag that ``token`` names among ``flags`` and the value joined
    to it by ``=`` (``None`` if none), or ``None`` if it names no flag. A
    help flag prints the help of ``command``, or of the tool, and exits 0
    here; an ambiguous prefix exits 2."""
    if token == "-h":
        flag, value = token, None
    elif token[:2] == "--" and token != "--":
        name, eq, value = token.partition("=")
        found = [flag for flag in flags if flag.startswith(name)]
        if len(found) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(found)}")
        if not found:
            return None
        flag, value = found[0], value if eq else None
    else:
        return None
    if flag in _HELP:
        if value is not None:
            _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
        sys.stdout.write(_help(command))
        raise SystemExit(EXIT_OK)
    return flag, value


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read a command line left to right by the grammar in the module
    docstring: the handler as ``func`` and every option's value under its
    name, ``None`` where it is not given."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        _flag(command, _HELP, None)
        choices = ", ".join(map(repr, _COMMANDS))
        message = f"invalid choice: {command!r} (choose from {choices})"
        _fail(None, f"argument command: {message}")
    _, func, options = _COMMANDS[command]
    kinds = {flag: kind for flag, kind, _, _ in options}
    flags = (*_HELP, *kinds)

    values: dict[str, object] = {}
    extras: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        option = _flag(token, flags, command)
        if option is None:
            # "--" ends the options: it and every token after it are extras
            extras += [token, *tokens] if token == "--" else [token]
            continue
        flag, value = option
        if value is None:
            value = next(tokens, None)
            # a value apart may start with "-" only as "-" or a negative number
            if value and value[0] == "-" and value != "-":
                if not re.match(r"^-\d+$|^-\d*\.\d+$", value):
                    value = None
        if value is None or value == "--":
            _fail(command, f"argument {flag}: expected one argument")
        try:
            values[flag] = kinds[flag](value)
        except ValueError:
            name = kinds[flag].__name__
            _fail(command, f"argument {flag}: invalid {name} value: {value!r}")

    missing = [flag for flag, _, needed, _ in options if needed and flag not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(
        func=func,
        **{
            _dest(flag): values.get(flag)
            for c in _COMMANDS.values()
            for flag, _, _, _ in c[2]
        },
    )


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
