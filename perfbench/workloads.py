"""The four benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the workload seed in `setup`, runs one
unit of work per `job` (the unit a user waits for), and verifies the job's
outputs in `check`, outside the timed region. `expected_calls` gives, per
span name, the fewest calls per job the traced run must see: the calls the
job makes itself, and the calls the library must make for the job's SGD
steps (a lower bound, so that an optimisation that batches or fuses calls
still passes). `forward_windows` is the windows per job pushed through
`regressor.forward`.

Jobs and operations are timed in process CPU time (user plus system): the
process is single-threaded with one BLAS thread, so that is the work's own
time, without the time the process waited for a CPU on a shared machine.

Library functions are always called through their module (`pipeline.adapt`,
not a bare `adapt`), the way a caller would; the traced run patches these
module attributes.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass
from time import process_time as _clock

import numpy as np

# the package attribute `suda.simulate` is the function `simulate`, so the
# modules are imported by their full names
baselines = importlib.import_module("suda.baselines")
bvh = importlib.import_module("suda.bvh")
data = importlib.import_module("suda.data")
pipeline = importlib.import_module("suda.pipeline")
regressor = importlib.import_module("suda.regressor")
simulate = importlib.import_module("suda.simulate")
support = importlib.import_module("suda.support")

REG_CFG = regressor.RegressorConfig()  # the paper's network
PROTOCOL = pipeline.BenchmarkSpec()    # the paper's support bins and proxies
WINDOW = REG_CFG.window

# Sizes of the benchmark domain pair. One adapt job trains one epoch of
# 1195 windows (38 steps at batch 32); one dida method trains 7 steps.
# Neither source size leaves a final batch of one window, which the
# feature-alignment losses reject.
FRAMES_TARGET = 1500
FRAMES_SOURCE_ADAPT = 1200
FRAMES_SOURCE_DIDA = 200
DIDA_BASELINES = ("mmd", "coral", "adversarial")


def flop_per_window(cfg: regressor.RegressorConfig) -> int:
    """Floating-point operations of one forward window, counted from the
    matrix products (2 per multiply-add): FC1 at each of the W steps, the
    input and recurrent products of every LSTM layer at every step, FC2
    and FC3. Biases, activations and gate arithmetic are not counted."""
    w, h = cfg.window, cfg.lstm_hidden
    fc1 = w * 2 * cfg.input_dim * cfg.fc1_out
    lstm = sum(w * 2 * 4 * h * ((cfg.fc1_out if layer == 0 else h) + h)
               for layer in range(cfg.lstm_layers))
    fc2 = 2 * cfg.feature_dim * cfg.fc2_out
    fc3 = 2 * cfg.fc2_out * cfg.fc3_out
    return fc1 + lstm + fc2 + fc3


@dataclass
class Outcome:
    latencies: list[float]   # seconds per operation, timed inside the job
    output: object           # what `check` verifies


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _windows(n_frames: int) -> int:
    return n_frames - WINDOW + 1


# ---------------------------------------------------------------------------
# adapt: the paper's job

@dataclass
class PairState:
    spec: object
    bench: object
    train_cfg: object
    first_mae: float | None = None


def _pair_setup(seed: int, frames_source: int) -> PairState:
    spec = pipeline.BenchmarkSpec(frames_source=frames_source, frames_target=FRAMES_TARGET,
                                  seed_data=seed, epochs=1)
    return PairState(spec, pipeline.benchmark_datasets(spec),
                     pipeline.benchmark_train_config(spec, seed))


def _steps(st: PairState) -> int:
    return st.train_cfg.epochs * math.ceil(_windows(len(st.bench.d_s)) / st.train_cfg.batch)


def _repeatable(st: PairState, mae: float) -> bool:
    """Jobs repeat identical work, so every job must score the same MAE."""
    if st.first_mae is None:
        st.first_mae = mae
    return mae == st.first_mae


class Adapt:
    """Fit both supports, register, train on pseudo labels, score the
    held-out target split."""

    name = "adapt"
    ops_per_job = 1

    def setup(self, seed: int, workdir: str) -> PairState:
        return _pair_setup(seed, FRAMES_SOURCE_ADAPT)

    def job(self, st: PairState) -> Outcome:
        b = st.bench
        t0 = _clock()
        result = pipeline.adapt(b.d_s, b.d_t_train, st.spec.bins, st.spec.proxies,
                                REG_CFG, st.train_cfg)
        mae = regressor.evaluate_mae(result.model, b.d_t_test)
        return Outcome([_clock() - t0], (result.trace, mae))

    def check(self, st: PairState, outcome: Outcome) -> tuple[int, float]:
        trace, mae = outcome.output
        ok = _finite(trace) and _finite(mae) and _repeatable(st, mae)
        return (0 if ok else 1), mae

    def items_per_job(self, st: PairState) -> int:
        return st.train_cfg.epochs * _windows(len(st.bench.d_s))

    def forward_windows(self, st: PairState) -> int:
        return self.items_per_job(st) + _windows(len(st.bench.d_t_test))

    def expected_calls(self, st: PairState) -> dict[str, int]:
        steps = _steps(st)
        return {
            "pipeline.adapt": 1,
            "support.fit_support": 2,
            "support.build_pseudo_dataset": 1,
            "regressor.train": 1,
            "regressor.forward": steps + 1,
            "regressor.backward": steps,
            "regressor.evaluate_mae": 1,
        }


# ---------------------------------------------------------------------------
# dida: the distribution-alignment baselines

class Dida:
    """MMD, CORAL and adversarial baselines, same budget each, evaluated."""

    name = "dida"
    ops_per_job = 1

    def setup(self, seed: int, workdir: str) -> PairState:
        return _pair_setup(seed, FRAMES_SOURCE_DIDA)

    def job(self, st: PairState) -> Outcome:
        b = st.bench
        t0 = _clock()
        runs = []
        for method in DIDA_BASELINES:
            model, sup, transfer = pipeline.train_baseline(
                method, b.d_s, b.d_t_train, REG_CFG, st.train_cfg)
            runs.append((sup, transfer, regressor.evaluate_mae(model, b.d_t_test)))
        return Outcome([_clock() - t0], runs)

    def check(self, st: PairState, outcome: Outcome) -> tuple[int, float]:
        runs = outcome.output
        mae = float(np.mean([m for _, _, m in runs]))
        ok = all(_finite(s) and _finite(t) and _finite(m) for s, t, m in runs)
        ok = _repeatable(st, mae) and ok
        return (0 if ok else 1), mae

    def items_per_job(self, st: PairState) -> int:
        return len(DIDA_BASELINES) * st.train_cfg.epochs * _windows(len(st.bench.d_s))

    def forward_windows(self, st: PairState) -> int:
        # source and target batch per step, then the evaluation
        return 2 * self.items_per_job(st) + len(DIDA_BASELINES) * _windows(len(st.bench.d_t_test))

    def expected_calls(self, st: PairState) -> dict[str, int]:
        steps = _steps(st)
        k = len(DIDA_BASELINES)
        return {
            "pipeline.train_baseline": k,
            "baselines.train_dida": k,
            "baselines.mmd_loss": steps,
            "baselines.median_bandwidth": steps,
            "baselines.coral_loss": steps,
            "baselines.adversarial_step": steps,
            "regressor.forward": k * (steps + 1),
            "regressor.backward": k * steps,
            "regressor.evaluate_mae": k,
        }


# ---------------------------------------------------------------------------
# serve: streaming inference

# The program has no serving traffic to measure, so the mix is an
# assumption, chosen to make the metrics readable: windows per request ->
# requests per job, with the same number of windows (320) in each size
# class, so that batch 1, 8 and 64 each carry a third of the served windows.
# Batch-1 requests are 320 of 365, so the median request is a batch-1
# request; the 5 batch-64 requests are the slowest 1.4 %, so p99 falls
# among them. The requests go round robin over 4 sessions only so that they
# ask for different parts of the stream; the count does not change the work.
SERVE_SESSIONS = 4
SERVE_MIX = {1: 320, 8: 40, 64: 5}
SERVE_REQUESTS = sum(SERVE_MIX.values())
SERVE_MODEL_SEED = 0        # one fixed model, like a deployed artifact
SERVE_TOL_DEG = 1e-9


@dataclass
class ServeState:
    model: object
    sessions: list           # labeled target datasets, one per session
    plan: list               # (session, first end frame, windows)
    reference: list | None = None


class Serve:
    """An initialised model answers a seeded mix of requests for the newest
    windows of target sessions, one request after the previous reply."""

    name = "serve"
    ops_per_job = SERVE_REQUESTS

    def setup(self, seed: int, workdir: str) -> ServeState:
        st = _pair_setup(seed, FRAMES_SOURCE_ADAPT)
        model = regressor.init_model(REG_CFG, SERVE_MODEL_SEED)
        model.norm = data.normalize_fit(st.bench.d_t_train, 1.0, 99.0)
        stream = st.bench.d_t_train_labeled
        cut = np.linspace(0, len(stream), SERVE_SESSIONS + 1).astype(int)
        sessions = [stream.slice(a, b) for a, b in zip(cut[:-1], cut[1:])]
        rng = np.random.default_rng([seed, 7])
        sizes = rng.permutation([k for k, n in SERVE_MIX.items() for _ in range(n)])
        cursors = [WINDOW - 1] * SERVE_SESSIONS   # next end frame per session
        plan = []
        for i, k in enumerate(sizes.tolist()):
            s = i % SERVE_SESSIONS
            if cursors[s] + k > len(sessions[s]):
                cursors[s] = WINDOW - 1   # the session starts over
            plan.append((s, cursors[s], k))
            cursors[s] += k
        return ServeState(model, sessions, plan)

    def job(self, st: ServeState) -> Outcome:
        model = st.model
        latencies, answers = [], []
        for s, first, k in st.plan:
            t0 = _clock()
            raw = st.sessions[s].readings[first - WINDOW + 1:first + k]
            ends = np.arange(WINDOW - 1, WINDOW - 1 + k)
            x = regressor.gather_windows(model.norm.apply(raw), ends, WINDOW)
            answers.append(regressor.forward(model, x))
            latencies.append(_clock() - t0)
        return Outcome(latencies, answers)

    def _reference(self, st: ServeState) -> list:
        """One bulk forward over every window of the plan."""
        if st.reference is None:
            norm = [st.model.norm.apply(d.readings) for d in st.sessions]
            ends = [np.arange(first, first + k) for _, first, k in st.plan]
            x = np.concatenate([regressor.gather_windows(norm[s], e, WINDOW)
                                for (s, _, _), e in zip(st.plan, ends)])
            bulk = regressor.forward(st.model, x)
            st.reference = np.split(bulk, np.cumsum([k for _, _, k in st.plan])[:-1])
        return st.reference

    def check(self, st: ServeState, outcome: Outcome) -> tuple[int, float]:
        failed = sum(1 for got, ref in zip(outcome.output, self._reference(st))
                     if got.shape != ref.shape or not np.all(np.abs(got - ref) <= SERVE_TOL_DEG))
        labels = np.concatenate([st.sessions[s].angles[first:first + k] for s, first, k in st.plan])
        mae = float(np.mean(np.abs(np.concatenate(outcome.output) - labels)))
        return failed, mae

    def items_per_job(self, st: ServeState) -> int:
        return sum(k for _, _, k in st.plan)

    def forward_windows(self, st: ServeState) -> int:
        return self.items_per_job(st)

    def expected_calls(self, st: ServeState) -> dict[str, int]:
        return {"regressor.forward": SERVE_REQUESTS, "regressor.gather_windows": SERVE_REQUESTS}


# ---------------------------------------------------------------------------
# ingest: label extraction and data preparation

INGEST_RECORDINGS = 24       # per job
INGEST_FRAMES = 250          # per recording
INGEST_EVIDENCE_BINS = 10
ANGLE_TOL_DEG = 1e-9
LABEL_CSV_TOL_DEG = 5e-7     # save_csv writes angles with 6 decimals

# A straight arm along +Y: shoulder -> elbow -> wrist -> end site. Only the
# elbow's Z rotation theta moves, so the bend at the elbow is 180 - |theta|.
ARM_HEADER = """\
HIERARCHY
ROOT shoulder
{
  OFFSET 0.0 0.0 0.0
  CHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation
  JOINT elbow
  {
    OFFSET 0.0 30.0 0.0
    CHANNELS 3 Zrotation Xrotation Yrotation
    JOINT wrist
    {
      OFFSET 0.0 25.0 0.0
      CHANNELS 3 Zrotation Xrotation Yrotation
      End Site
      {
        OFFSET 0.0 8.0 0.0
      }
    }
  }
}
MOTION
"""
ELBOW = bvh.JointTriple("shoulder", "elbow", "wrist")


def arm_motion_text(theta: np.ndarray) -> str:
    rows = "".join(f"0.0 0.0 0.0 0.0 0.0 0.0 {float(t)!r} 0.0 0.0 0.0 0.0 0.0\n" for t in theta)
    return f"{ARM_HEADER}Frames: {len(theta)}\nFrame Time: 0.02\n{rows}"


def bend_series(rng, frames: int) -> np.ndarray:
    """Elbow bend in degrees: a triangle wave over [40, 160] with seeded
    period and phase, so every recording covers the range evenly."""
    cycles = np.arange(frames) / rng.uniform(80.0, 160.0) + rng.uniform()
    return 40.0 + 120.0 * (1.0 - np.abs(2.0 * (cycles % 1.0) - 1.0))


def implied_angle(sensor, readings: np.ndarray) -> np.ndarray:
    """The angle at which the noiseless sensor gives `readings`, averaged
    over the two channels (each channel's response is increasing)."""
    grid = np.linspace(0.0, 180.0, 18001)
    response = sensor.noiseless(grid)
    return 0.5 * sum(np.interp(readings[:, k], response[:, k], grid) for k in range(2))


@dataclass
class Recording:
    text: str
    bend: np.ndarray
    noise_seed: int


@dataclass
class IngestState:
    recordings: list
    sensors: tuple
    workdir: str


class Ingest:
    """BVH text -> angles -> surrogate readings for both sensor configs ->
    CSV round trip -> supports -> pseudo labels -> support evidence."""

    name = "ingest"
    ops_per_job = INGEST_RECORDINGS

    def setup(self, seed: int, workdir: str) -> IngestState:
        recordings = []
        for r in range(INGEST_RECORDINGS):
            rng = np.random.default_rng([seed, r])
            bend = bend_series(rng, INGEST_FRAMES)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            recordings.append(Recording(arm_motion_text(sign * (180.0 - bend)), bend,
                                        2 * (seed * INGEST_RECORDINGS + r)))
        src, tgt = simulate.benchmark_domain_pair()
        return IngestState(recordings, (src.sensor, tgt.sensor), workdir)

    def job(self, st: IngestState) -> Outcome:
        latencies, outputs = [], []
        for rec in st.recordings:
            t0 = _clock()
            doc = bvh.parse_bvh(rec.text)
            angles = bvh.angle_series(doc, ELBOW)
            made, loaded = [], []
            for k, (sensor, domain) in enumerate(zip(st.sensors, ("source", "target"))):
                ds = simulate.simulate_from_angles(angles, sensor, rec.noise_seed + k, domain=domain)
                path = os.path.join(st.workdir, f"{domain}.csv")
                data.save_csv(ds, path)
                made.append(ds)
                loaded.append(data.load_csv(path, labeled=True, domain=domain))
            d_s, d_t = loaded
            curve_s = support.fit_support(d_s, PROTOCOL.bins, PROTOCOL.proxies)
            curve_t = support.fit_support(d_t, PROTOCOL.bins, PROTOCOL.proxies)
            pseudo = support.build_pseudo_dataset(d_s, support.RegistrationMap(curve_s, curve_t))
            evidence = support.support_evidence(curve_s, d_s, curve_t, d_t, INGEST_EVIDENCE_BINS)
            latencies.append(_clock() - t0)
            outputs.append((angles, made, loaded, pseudo, evidence))
        return Outcome(latencies, outputs)

    def check(self, st: IngestState, outcome: Outcome) -> tuple[int, float]:
        failed, errors = 0, []
        for rec, (angles, made, loaded, pseudo, evidence) in zip(st.recordings, outcome.output):
            ok = angles.shape == rec.bend.shape and bool(
                np.all(np.abs(angles - rec.bend) <= ANGLE_TOL_DEG))
            for ds, back in zip(made, loaded):
                ok = ok and np.array_equal(ds.readings, back.readings) and bool(
                    np.all(np.abs(ds.angles - back.angles) <= LABEL_CSV_TOL_DEG))
            ok = ok and len(pseudo) == len(angles) and _finite(pseudo.readings)
            gap = evidence.common_gap()
            ok = ok and len(gap) > 0 and _finite(gap)
            failed += 0 if ok else 1
            errors.append(np.abs(implied_angle(st.sensors[1], pseudo.readings) - pseudo.angles))
        return failed, float(np.mean(np.concatenate(errors)))

    def items_per_job(self, st: IngestState) -> int:
        return INGEST_RECORDINGS * INGEST_FRAMES

    def forward_windows(self, st: IngestState) -> int:
        return 0

    def expected_calls(self, st: IngestState) -> dict[str, int]:
        r = INGEST_RECORDINGS
        return {
            "bvh.parse_bvh": r,
            "bvh.angle_series": r,
            "simulate.simulate_from_angles": 2 * r,
            "data.save_csv": 2 * r,
            "data.load_csv": 2 * r,
            "support.fit_support": 2 * r,
            "support.build_pseudo_dataset": r,
            "support.support_evidence": r,
        }


WORKLOADS = {w.name: w for w in (Adapt(), Serve(), Dida(), Ingest())}
