"""The three benchmark workloads: inputs, one operation, and its checks.

Every workload draws its inputs from ``random.Random`` seeded with the
workload seed, so the same seed always gives the same inputs. The first
(untimed) operation of every run is a canonical input that does not
depend on the seed; its outputs are checked against ``reference.json``
on every run. Seed-drawn inputs are checked against the reference only
when it holds an entry for them (the default seed's first operations).

An input is a pair ``(key, payload)``: the key is a digest of the drawn
values, under which ``reference.json`` stores the expected outputs.
Each workload answers ``next_input()`` (the closed loop asks for the
next input only after the previous operation ended), ``run(payload)``
(the timed operation as a user performs it), ``run_in_process(payload)``
(the same work as a traced in-process call) and ``check(inp, out,
reference)`` (a list of problems, empty when the output is correct).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# the bench_config template of the acceptance suite (36 dB heralded link)
P_COR = 0.40
MU_SIGNAL = 5.325e-3
MU_DECOY = 0.660e-3
MU_VACUUM = 0.577e-5
D_I = 1.0e-3
Y0 = 0.8e-5
E_DET = 0.025
F_EC = 1.22
TOTAL_PULSES = 1_500_000_000
RATIO = (10.0, 4.0, 1.0)
N_SIGMA = 10.0

SWEEP_SCHEMES = (
    "wcs-no-decoy",
    "hsps-no-decoy",
    "wcs-decoy-opt",
    "hsps-decoy:0.40",
    "hsps-decoy:0.70",
    "ideal-sps",
)
SWEEP_GRID = tuple(round(0.5 * k, 6) for k in range(121))  # 0..60 dB

REL_TOL = 1e-9
SOUND_TOL = 1e-12


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:32]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Sweep:
    """Six-scheme 0-60 dB comparison of acceptance criterion 3.

    One operation is one full sweep (6 schemes x 121 losses). Each
    seed-drawn sweep perturbs the channel's background yield and
    misalignment error, so no two operations repeat their inputs while
    the source template (shared by all 121 losses) stays the same.
    """

    name = "sweep"
    points_per_op = len(SWEEP_SCHEMES) * len(SWEEP_GRID)
    traced_pass_ops = 2

    def __init__(self, dq, seed: int, workdir: Path) -> None:
        self.dq = dq
        self.rng = random.Random(f"sweep:{seed}")
        self.schemes = [dq.Scheme.parse(tok) for tok in SWEEP_SCHEMES]

    def template(self, y0: float, e_det: float):
        dq = self.dq
        return dq.ExperimentConfig(
            source_signal=dq.HspsSource(dq.HspsParams(P_COR, MU_SIGNAL, D_I)),
            source_decoy=dq.HspsSource(dq.HspsParams(P_COR, MU_DECOY, D_I)),
            vacuum_mu=0.0,
            channel=dq.ChannelParams(
                eta=dq.loss_db_to_eta(36.0), y0=y0, e_det=e_det, e0=0.5
            ),
            protocol=dq.ProtocolParams(q_sift=0.5, f_ec=F_EC),
            total_pulses=TOTAL_PULSES,
            intensity_ratio=RATIO,
            fluctuation=dq.FluctuationPolicy(N_SIGMA),
        )

    def make_input(self, y0: float, e_det: float):
        return digest(repr((y0, e_det))), self.template(y0, e_det)

    def canonical_input(self):
        return self.make_input(Y0, E_DET)

    def next_input(self):
        return self.make_input(
            self.rng.uniform(0.6e-5, 1.0e-5), self.rng.uniform(0.020, 0.030)
        )

    def run(self, cfg):
        scan_loss = self.dq.scan_loss
        return [scan_loss(cfg, s, SWEEP_GRID) for s in self.schemes]

    run_in_process = run

    @staticmethod
    def summary(curves) -> list[list[float]]:
        return [list(c.rate) for c in curves]

    def check(self, inp, curves, reference: dict) -> list[str]:
        problems = check_sweep(curves)
        expected = reference.get(inp[0])
        if expected is not None:
            got = self.summary(curves)
            bad = sum(
                not close(a, b)
                for row_a, row_b in zip(got, expected)
                for a, b in zip(row_a, row_b)
            )
            if bad:
                problems.append(f"{bad} sweep rates differ from the reference")
        return problems


def check_sweep(curves) -> list[str]:
    """Criterion 3: cutoff ordering, pointwise ordering, monotone rates."""
    problems = []
    c = dict(zip("abcdef", curves))
    if any(not math.isfinite(r) or r < 0.0 for cv in curves for r in cv.rate):
        problems.append("sweep rate negative or not finite")
    cutoff = {k: cv.cutoff_db for k, cv in c.items()}
    if any(v is None for v in cutoff.values()):
        return problems + [f"a scheme has no positive key: {cutoff}"]
    if not (
        cutoff["a"] < cutoff["b"]
        and cutoff["a"] < cutoff["c"] < cutoff["d"] < cutoff["e"] < cutoff["f"]
    ):
        problems.append(f"cutoff ordering violated: {cutoff}")
    for lo, hi in (("a", "b"), ("a", "c"), ("c", "d"), ("d", "e"), ("e", "f")):
        if not all(
            rl < rh
            for rl, rh in zip(c[lo].rate, c[hi].rate)
            if rl > 0.0 and rh > 0.0
        ):
            problems.append(f"pointwise ordering {lo} < {hi} violated")
    for cv in curves:
        if not all(b <= a + 1e-15 for a, b in zip(cv.rate, cv.rate[1:])):
            problems.append(f"{cv.scheme_label} rate increases with loss")
    return problems


def draw_session(rng: random.Random) -> dict:
    """One seed-drawn heralded three-intensity session, as a config doc."""
    p_cor = rng.uniform(0.30, 0.80)
    mu_signal = 10.0 ** rng.uniform(math.log10(2e-3), math.log10(1.2e-2))
    mu_decoy = mu_signal * rng.uniform(0.08, 0.30)
    return {
        "source": {
            "signal": {"kind": "hsps", "p_cor": p_cor, "mu_acc": mu_signal, "d_i": D_I},
            "decoy": {"kind": "hsps", "p_cor": p_cor, "mu_acc": mu_decoy, "d_i": D_I},
            "vacuum_mu": MU_VACUUM,
            "n_max": 16,
        },
        "channel": {
            "loss_db": rng.uniform(20.0, 45.0),
            "y0_per_gate": Y0,
            "e_detector": E_DET,
            "e0_background": 0.5,
        },
        "protocol": {"q_sift": 0.25, "f_ec": F_EC},
        "run": {
            "total_pulses": TOTAL_PULSES,
            "intensity_ratio": list(RATIO),
            "n_sigma": N_SIGMA,
            "rng_seed": rng.randrange(2**31),
            "mode": "analytic" if rng.random() < 0.1 else "sampled",
        },
    }


class Sessions:
    """Independent three-intensity sessions (sample_counts + run_pipeline).

    One operation is one session; every session draws its own loss,
    source parameters and sampling seed, so no two share a distribution.
    """

    name = "sessions"
    points_per_op = 1
    traced_pass_ops = 500

    def __init__(self, dq, seed: int, workdir: Path) -> None:
        from decoyqkd import config as cfgmod

        self.dq = dq
        self.cfgmod = cfgmod
        self.rng = random.Random(f"sessions:{seed}")

    def make_input(self, doc: dict):
        key = digest(json.dumps(doc, sort_keys=True))
        return key, self.cfgmod.experiment_from_dict(doc)

    def canonical_input(self):
        with open(CONFIGS / "session-36db.json", encoding="utf-8") as fh:
            return self.make_input(json.load(fh))

    def next_input(self):
        return self.make_input(draw_session(self.rng))

    def run(self, payload):
        cfg, mode = payload
        dq = self.dq
        if mode == "sampled":
            return dq.run_pipeline(cfg, dq.sample_counts(cfg))
        return dq.run_pipeline(cfg)

    run_in_process = run

    @staticmethod
    def summary(result) -> list:
        return [
            result.key.rate_per_pulse,
            result.key.secure_bits,
            result.bounds.y1_lower,
            result.bounds.e1_upper,
        ]

    def check(self, inp, result, reference: dict) -> list[str]:
        problems = check_session(inp[1][1], result)
        expected = reference.get(inp[0])
        if expected is not None:
            got = self.summary(result)
            if got[1] != expected[1] or not all(
                close(a, b) for a, b in zip(got, expected)
            ):
                problems.append(f"session {got} differs from reference {expected}")
        return problems


def check_session(mode: str, result) -> list[str]:
    problems = []
    rate = result.key.rate_per_pulse
    if not rate >= 0.0:
        problems.append(f"rate_per_pulse {rate!r} < 0")
    elif result.key.secure_bits != math.floor(rate * result.observation.n_signal):
        problems.append("secure_bits != floor(rate * n_signal)")
    if mode == "analytic" and result.condition_ok:
        if result.bounds.y1_lower > result.y1_true + SOUND_TOL:
            problems.append("analytic y1_lower exceeds the true Y1")
        if result.bounds.e1_upper < result.e1_true - SOUND_TOL:
            problems.append("analytic e1_upper is below the true e1")
    return problems


def draw_source(rng: random.Random) -> dict:
    return {
        "source": {
            "kind": "hsps",
            "p_cor": rng.uniform(0.30, 0.80),
            "mu_acc": 10.0 ** rng.uniform(math.log10(2e-3), math.log10(1.2e-2)),
            "d_i": D_I,
            "n_max": 16,
        }
    }


def draw_rates(rng: random.Random) -> dict:
    """Raw counting rates generated through the heralding forward model."""
    r0 = rng.uniform(5e5, 2e6)
    eta_s = rng.uniform(0.05, 0.20)
    gate_ns = 2.5
    r_s = 10.0 ** rng.uniform(5.0, 6.5)
    ds = rng.uniform(100.0, 2000.0)
    p_cor = rng.uniform(0.30, 0.80)
    p_acc = 1.0 - math.exp(-eta_s * r_s * gate_ns * 1e-9)
    rs = r0 * (1.0 - (1.0 - p_acc) * (1.0 - ds / r0))
    rc = r0 * (1.0 - (1.0 - p_cor) * (1.0 - p_acc) * (1.0 - ds / r0))
    return {
        "rates": {
            "r0_hz": r0,
            "rs_hz": rs,
            "rc_hz": rc,
            "ds_hz": ds,
            "eta_s": eta_s,
            "gate_time_ns": gate_ns,
        }
    }


CLI_COMMANDS = ("session", "distribution", "infer", "curve")
CLI_POOL = 4
CURVE_ARGS = (
    "--schemes",
    ",".join(SWEEP_SCHEMES),
    "--loss-from",
    "0",
    "--loss-to",
    "60",
    "--loss-step",
    "0.5",
)


class Cli:
    """Cold ``python -m decoyqkd.cli`` invocations in a fixed round-robin.

    Invocation i runs command ``CLI_COMMANDS[i % 4]`` on pool entry
    ``(i // 4) % 4``. Pool entry 0 is the shipped config of that command;
    entries 1-3 are drawn from the seed and written as files.
    """

    name = "cli"
    points_per_op = 1
    traced_pass_ops = len(CLI_COMMANDS) * CLI_POOL

    def __init__(self, dq, seed: int, workdir: Path) -> None:
        rng = random.Random(f"cli:{seed}")
        sessions = [CONFIGS / "session-36db.json"]
        sources = [CONFIGS / "source-hsps.json"]
        rates = [CONFIGS / "rates.json"]
        for k in range(1, CLI_POOL):
            for pool, draw, stem in (
                (sessions, draw_session, "session"),
                (sources, draw_source, "source"),
                (rates, draw_rates, "rates"),
            ):
                path = workdir / f"{stem}-{k}.json"
                path.write_text(json.dumps(draw(rng)), encoding="utf-8")
                pool.append(path)
        self.pools = {
            "session": sessions,
            "distribution": sources,
            "infer": rates,
            "curve": sessions,
        }
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def argv(self, i: int):
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        config = self.pools[command][(i // len(CLI_COMMANDS)) % CLI_POOL]
        extra = list(CURVE_ARGS) if command == "curve" else []
        key = digest(json.dumps([command, *extra]).encode() + config.read_bytes())
        return key, [command, "--config", str(config), *extra]

    def canonical_input(self):
        return self.argv(0)

    def next_input(self):
        argv = self.argv(self.count)
        self.count += 1
        return argv

    def run(self, argv):
        """One cold invocation; returns (exit code, stdout, stderr)."""
        proc = subprocess.run(
            [sys.executable, "-m", "decoyqkd.cli", *argv],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, argv):
        from decoyqkd import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue().encode("utf-8"), b""

    @staticmethod
    def summary(out) -> str:
        return digest(out[1])

    def check(self, inp, out, reference: dict) -> list[str]:
        key, argv = inp
        code, stdout, stderr = out
        if code != 0:
            err = stderr.decode("utf-8", "replace")[-300:]
            return [f"{argv[0]} exited with {code}: {err}"]
        problems = check_cli_output(argv[0], stdout)
        expected = reference.get(key)
        if expected is not None and expected != self.summary(out):
            problems.append(f"{argv[0]} {Path(argv[2]).name} stdout differs from reference")
        return problems


def check_cli_output(command: str, stdout: bytes) -> list[str]:
    text = stdout.decode("utf-8")
    if command != "curve":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"{command} output is not JSON: {exc}"]
        if not isinstance(doc, dict) or doc.get("report") != command:
            return [f"{command} output is not a {command} report"]
        return []
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    rows = [l for l in lines[1:] if not l.startswith("#")]
    cutoffs = [l for l in lines[1:] if l.startswith("# cutoff_db,")]
    if header[:1] != ["loss_db"] or len(header) != 1 + len(SWEEP_SCHEMES):
        return ["curve header malformed"]
    if len(rows) != len(SWEEP_GRID) or len(cutoffs) != len(SWEEP_SCHEMES):
        return ["curve has the wrong number of rows"]
    try:
        values = [[float(v) for v in r.split(",")] for r in rows]
    except ValueError:
        return ["curve row does not parse"]
    if any(len(v) != len(header) or min(v[1:]) < 0.0 for v in values):
        return ["curve row malformed or negative"]
    return []


WORKLOADS = {w.name: w for w in (Sweep, Sessions, Cli)}
