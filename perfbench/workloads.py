"""The four benchmark workloads: inputs made from a seed, the calls, their checks.

Every workload is a closed loop with one caller: the next call starts when the
previous one has returned. The workload seed only feeds ``random.Random``,
which makes the per-call engine and frame seeds; risid receives those seeds
and nothing else. The amount of work (the number of calls) depends only on
``--seconds``: ``REF_CALL_S`` holds the seconds one call took at the commit
that defined the benchmark, on 2 cores with BLAS pinned to one thread, so a
run of ``--seconds S`` does the same calls on every commit and machine.

Checks compare each result with the model: ``golden.json`` (written by
``golden.py``) holds reference tallies from many more trials than one call
scores, and the CLI outputs of the bundled configs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from risid import analysis, channel, cli, codes, detector, montecarlo, signal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"
TMP_ROOT = ROOT / ".perfbench_tmp"

MIN_CALLS = 20  # keeps a tail percentile with ten calls beyond it at any --seconds
Z = 7.0  # check tolerance in standard deviations; a false alarm is ~1e-11 per test

CONFUSION_CFG = """
m = 32
v_total = 8
code_rows = 1, 2
n_elements = 128
n_horizontal = 16
p_dbm = 25
r_bar_grid = 13, 17, 21
"""

MISS_CFG = """
m = 16
v_total = 4
code_rows = 15
n_elements = 256
n_horizontal = 16
spacing = {spacing}
p_dbm = 0
r_bar_grid = 2, 3, 4
"""

FALSE_CFG = """
m = 32
v_total = 8
code_rows = 31
n_elements = 64
n_horizontal = 8
p_dbm = 15
r_bar = 3.5
"""

# single-frame path: so strong a signal and so high a threshold that a wrong
# decision has probability below 1e-10 per frame
FRAME_CFG = """
m = 16
v_total = 4
code_rows = 15
n_elements = 64
n_horizontal = 8
spacing = half-lambda
p_dbm = 60
d_ur_m = 1
d_rb_m = 1
r_bar = 6
"""


class CheckFailed(Exception):
    """A result disagrees with the model or the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def scenario(text: str, rec):
    """Resolve config text the way the CLI does."""
    with rec.span("cli.scenario"):
        return cli.scenario_from_config(cli.parse_config_text(text))


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def proportion_ok(k: int, n: int, k_ref: int, n_ref: int) -> bool:
    """Two-sample test of k/n against the reference k_ref/n_ref at Z sigmas.

    The pooled variance is floored at 3/n so that a reference of zero events
    still admits a handful of rare events in the call.
    """
    pooled = (k + k_ref) / (n + n_ref)
    var = max(pooled * (1.0 - pooled), 3.0 / n) * (1.0 / n + 1.0 / n_ref)
    return abs(k / n - k_ref / n_ref) <= Z * math.sqrt(var)


def frame_setup(scn):
    """RisProfile and correlation for the single-frame synthesizer."""
    code = scn.codebook().entries[0]
    d = scn.wavelength / (10.0 if scn.spacing == "tenth-lambda" else 2.0)
    geom = channel.RisGeometry(
        n=scn.n_elements, n_h=scn.n_horizontal, d_h=d, d_v=d, wavelength=scn.wavelength
    )
    link = channel.LinkBudget.from_distances(scn.f_c_hz, scn.d_ur_m, scn.d_rb_m)
    if scn.spacing == "none":
        corr = channel.identity_correlation(scn.n_elements)
    else:
        corr = channel.correlation_matrix(geom)
    return signal.RisProfile(id=1, code=code, geometry=geom, link=link), corr, geom


@dataclass(frozen=True)
class Call:
    kind: str
    seed: int = 0
    frames: tuple = ()  # (seed, reachable) per single frame of a "frames" call


class Workload:
    name = ""
    workers = 1
    ref_call_s = 1.0
    trial_prefix = "montecarlo."  # calls of these kinds are timed as trials
    calibration = "numpy"  # kernel in worker.KERNELS that tracks this workload's speed

    def __init__(self, seed: int, seconds: float, rec, n_calls: int | None = None):
        self.rng = random.Random(seed)
        self.golden = load_golden()
        if n_calls is None:
            n_calls = max(MIN_CALLS, round(seconds / self.ref_call_s))
        self.n_calls = n_calls
        self.setup(rec)

    def warmup_calls(self) -> list:
        """First call of each timed kind, run once untimed before the loop.

        Pages the engine's block arrays in, so that the first timed call
        does not pay for them alone.
        """
        first = {}
        for call in self.calls:
            if call.kind.startswith(self.trial_prefix):
                first.setdefault(call.kind, call)
        return list(first.values())

    def seed62(self) -> int:
        return self.rng.getrandbits(62)

    def setup(self, rec):
        raise NotImplementedError

    def run(self, call: Call, rec):
        raise NotImplementedError

    def check(self, call: Call, result) -> None:
        raise NotImplementedError

    def trials(self, call: Call, result) -> int:
        """Trials the call scored."""
        return 0

    def probe_scenarios(self) -> list:
        return [self.scn]

    def close(self) -> None:
        pass


class Confusion2Ris(Workload):
    """Criterion 8: two surfaces, fair-coin reachability, two engine workers."""

    name = "confusion-2ris"
    workers = 2
    ref_call_s = 0.30
    blocks_per_call = 2

    def setup(self, rec):
        self.scn = scenario(CONFUSION_CFG, rec)
        self.scn.sim_profiles()
        self.r_bars = self.scn.r_bar_grid
        pmfs = {1: self.scn.pair_pmf(1, 2), 2: self.scn.pair_pmf(2, 1)}
        self.pf_theory = {
            (s, rb): analysis.pf_two(self.scn.operating_point(rb, surface=s), pmfs[s])
            for s in (1, 2) for rb in self.r_bars
        }
        self.ref = self.golden["confusion"]
        self.calls = [Call("montecarlo.confusion", self.seed62()) for _ in range(self.n_calls)]

    def run(self, call, rec):
        plan = montecarlo.TrialPlan(
            scenario=self.scn, trials=self.blocks_per_call * montecarlo.BLOCK,
            seed=call.seed, threads=self.workers,
        )
        return montecarlo.confusion(plan, self.r_bars)

    def trials(self, call, result):
        return self.blocks_per_call * montecarlo.BLOCK

    def check(self, call, result):
        n = self.blocks_per_call * montecarlo.BLOCK
        require(sorted(result) == sorted(self.r_bars), "threshold grid changed")
        decided_prev = None
        for rb in self.r_bars:
            counts = np.asarray(result[rb].counts)
            require(counts.shape == (4, 4), "confusion matrix is not 4x4")
            require(int(counts.sum()) == n and counts.min() >= 0, "counts do not sum to trials")
            rows = counts.sum(axis=1)
            for i, row_n in enumerate(rows):
                require(
                    abs(row_n - n / 4) <= Z * math.sqrt(n * 3 / 16),
                    f"state {i} drawn {row_n} times, expected about {n / 4}",
                )
            ref = self.ref[repr(rb)]
            for i in range(4):
                require(
                    proportion_ok(int(counts[i, i]), int(rows[i]), ref["diag"][i], ref["rows"][i]),
                    f"r_bar={rb}: state {i} decided correctly {counts[i, i]}/{rows[i]}, "
                    f"reference {ref['diag'][i]}/{ref['rows'][i]}",
                )
            for s in (1, 2):
                # pf_two approximates the false-detection rate of surface s;
                # over 262k trials the engine measured 1.16 to 1.46 times it
                pf = float(result[rb].false_probability(s))
                th = self.pf_theory[(s, rb)]
                sd = math.sqrt(2.0 * max(th, 3.0 / n) / n)
                require(
                    abs(pf - th) <= th + Z * sd,
                    f"r_bar={rb}: surface {s} false rate {pf:.4g} vs pf_two {th:.4g}",
                )
            # a higher threshold can only decide fewer surfaces present
            decided = [int(counts[:, [c for c in range(4) if c & s]].sum()) for s in (1, 2)]
            if decided_prev is not None:
                require(
                    all(a <= b for a, b in zip(decided, decided_prev)),
                    "decisions rose with the threshold",
                )
            decided_prev = decided


class MissSpacingN256(Workload):
    """One surface, forced reachable, swept over the three element spacings."""

    name = "miss-spacing-n256"
    ref_call_s = 0.34  # mean of the three spacings

    def setup(self, rec):
        self.scns = {sp: scenario(MISS_CFG.format(spacing=sp), rec) for sp in cli.SPACINGS}
        for scn in self.scns.values():
            scn.sim_profiles()
        self.scn = self.scns["none"]
        self.r_bars = self.scn.r_bar_grid
        self.ref = self.golden["miss"]
        rounds = -(-self.n_calls // len(self.scns))
        self.calls = [
            Call(f"montecarlo.decision_sweep:{sp}", self.seed62())
            for _ in range(rounds) for sp in self.scns
        ]

    def run(self, call, rec):
        sp = call.kind.split(":", 1)[1]
        plan = montecarlo.TrialPlan(
            scenario=self.scns[sp], trials=montecarlo.BLOCK, seed=call.seed, escalate=False,
        )
        return montecarlo.decision_sweep(plan, 1, self.r_bars, {1: True}, count_missed=True)

    def trials(self, call, result):
        return montecarlo.BLOCK

    def check(self, call, result):
        sp = call.kind.split(":", 1)[1]
        ref = self.ref[sp]
        require(len(result) == len(self.r_bars), "one estimate per threshold expected")
        events = [e.events for e in result]
        require(events == sorted(events), "misses fell as the threshold rose")
        for rb, est, k_ref in zip(self.r_bars, result, ref["events"]):
            require(est.trials == montecarlo.BLOCK, "trial count changed")
            require(est.value == est.events / est.trials, "estimate is not events/trials")
            require(
                proportion_ok(est.events, est.trials, k_ref, ref["trials"]),
                f"{sp} r_bar={rb}: {est.events}/{est.trials} misses, "
                f"reference {k_ref}/{ref['trials']}",
            )

    def probe_scenarios(self):
        return list(self.scns.values())


class FalseEscalate(Workload):
    """One surface forced unreachable; every call escalates once to its cap."""

    name = "false-escalate"
    ref_call_s = 0.22
    base_trials = 2000  # not a multiple of BLOCK, so each pass redraws a partial block
    cap_trials = 20000

    def setup(self, rec):
        self.scn = scenario(FALSE_CFG, rec)
        self.scn.sim_profiles()
        self.bound = analysis.pf_single_bound(self.scn.operating_point(self.scn.r_bar))
        self.calls = [Call("montecarlo.estimate_pf", self.seed62()) for _ in range(self.n_calls)]

    def run(self, call, rec):
        plan = montecarlo.TrialPlan(
            scenario=self.scn, trials=self.base_trials, max_trials=self.cap_trials,
            seed=call.seed,
        )
        return montecarlo.estimate_pf(plan, 1, self.scn.r_bar)

    def trials(self, call, result):
        return result.trials

    def check(self, call, est):
        require(est.trials == self.cap_trials, f"scored {est.trials} trials, not the cap")
        require(est.value == est.events / est.trials, "estimate is not events/trials")
        require(est.ci_low <= est.value <= est.ci_high, "value outside its interval")
        # pf_single_bound is an upper bound on the false-detection rate
        sd = math.sqrt(self.bound * (1.0 - self.bound) / est.trials)
        require(
            est.value <= self.bound + 8.0 * sd,
            f"p_f {est.value:.3g} above the bound {self.bound:.3g} by more than 8 sd",
        )
        require(est.events < montecarlo.MIN_EVENTS, "escalation stopped on events")


def _csv_rows(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


def _strip_meta(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("config", "version")}


def read_cli_outputs(outdir: Path) -> dict:
    """Comparable content of a CLI output directory (no version or echo)."""
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".csv":
            out[path.name] = _csv_rows(path)
        elif path.name == "manifest.json":
            doc = json.loads(path.read_text())
            out[path.name] = {"subcommand": doc["subcommand"], "outputs": doc["outputs"]}
        else:
            out[path.name] = _strip_meta(json.loads(path.read_text()))
    return out


def _close(a, b) -> bool:
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    if math.isnan(x) or math.isnan(y):
        return False
    return abs(x - y) <= 1e-9 + 1e-7 * abs(y)


def same_content(got, want) -> bool:
    """Equal structure; numbers equal to 1e-7 relative, the rest exactly."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_content(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_content(g, w) for g, w in zip(got, want)))
    if isinstance(want, bool) or want is None:
        return got == want
    return _close(got, want)


def rank_summary(ranked) -> dict:
    flat = [[int(q), [int(r) for r in rows]] for q, rows in ranked]
    digest = hashlib.sha256(json.dumps(flat).encode()).hexdigest()
    return {"count": len(flat), "first": flat[0], "last": flat[-1], "sha256": digest}


CLI_SUBCOMMANDS = ("theory", "tradeoff", "design")


def run_cli(sub: str, outdir: Path, rec) -> int:
    with rec.span("cli.subcommand"):
        return cli.main([sub, "--config", str(CONFIGS / f"{sub}.txt"), "--out", str(outdir)])


class TheoryCli(Workload):
    """No engine: closed forms through the CLI, code ranking, single frames."""

    name = "theory-cli"
    ref_call_s = 5.4  # one round
    trial_prefix = "frames"
    calibration = "interp"
    frames_per_round = 1000
    frames_per_call = 50  # a 50-frame call takes ~12 ms; single frames jitter too much

    def __init__(self, seed, seconds, rec, n_calls=None):
        if n_calls is None:
            n_calls = max(1, round(seconds / self.ref_call_s))  # rounds
        super().__init__(seed, seconds, rec, n_calls)

    def setup(self, rec):
        TMP_ROOT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="theory-cli-", dir=TMP_ROOT))
        self.scn = scenario(FRAME_CFG, rec)
        self.profile, corr, _ = frame_setup(self.scn)
        self.correlations = {1: corr}
        self.threshold = self.scn.r_bar**2 * self.scn.noise_variance_w
        self.counter = 0
        # frames come in chunks between the other calls, so that they are
        # timed across the whole run rather than in one short window
        kinds = [f"cli.{sub}" for sub in CLI_SUBCOMMANDS] + ["codes.rank_code_subsets"]
        per_chunk = self.frames_per_round // len(kinds) // self.frames_per_call
        self.calls = []
        for _ in range(self.n_calls):
            for kind in kinds:
                self.calls.append(Call(kind))
                self.calls += [self.frames_call() for _ in range(per_chunk)]

    def frames_call(self) -> Call:
        return Call("frames", frames=tuple(
            (self.seed62(), self.rng.random() < 0.5) for _ in range(self.frames_per_call)
        ))

    def run(self, call, rec):
        if call.kind.startswith("cli."):
            self.counter += 1
            outdir = self.tmp / f"{self.counter}"
            return run_cli(call.kind[4:], outdir, rec), outdir
        if call.kind == "codes.rank_code_subsets":
            with rec.span("codes.rank_code_subsets"):
                return codes.rank_code_subsets(16, 5, 4)
        return [synth_and_detect(self, seed, reach, rec) for seed, reach in call.frames]

    def trials(self, call, result):
        return len(call.frames)

    def check(self, call, result):
        if call.kind.startswith("cli."):
            rc, outdir = result
            try:
                require(rc == 0, f"risid {call.kind[4:]} exited {rc}")
                got = read_cli_outputs(outdir)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)
            require(
                same_content(got, self.golden["cli"][call.kind[4:]]),
                f"risid {call.kind[4:]} output differs from the reference",
            )
        elif call.kind == "codes.rank_code_subsets":
            require(rank_summary(result) == self.golden["rank"], "code ranking changed")
        else:
            for frame, report in result:
                check_frame(self.profile.code, frame, report)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def synth_and_detect(wl, seed, reachable, rec):
    scn = wl.scn
    with rec.span("signal.synthesize_frame"):
        frame = signal.synthesize_frame(
            [wl.profile], scn.v_total, scn.noise_variance_w, scn.power_w,
            seed=seed, reachability={1: reachable},
            correlations=wl.correlations,
        )
    with rec.span("detector.run_ris_id"):
        report = detector.run_ris_id(frame, [(wl.profile.code, wl.threshold)])
    return frame, report


def check_frame(code, frame, report):
    truth = frame.truth
    dec = report.per_ris[1]
    require(dec.decided == truth.reachability[1], "decision contradicts the truth")
    if truth.reachability[1]:
        require(dec.k_hat == truth.v1, f"window offset {dec.k_hat}, truth {truth.v1}")
        # shifts equal up to sign give equal metrics; the search keeps the first
        found = np.roll(code.symbols, -dec.c_hat)
        laid = np.roll(code.symbols, -truth.c_per_ris[1])
        require(
            np.array_equal(found, laid) or np.array_equal(found, -laid),
            f"code shift {dec.c_hat} does not match the truth {truth.c_per_ris[1]}",
        )


WORKLOADS = {w.name: w for w in (Confusion2Ris, MissSpacingN256, FalseEscalate, TheoryCli)}
