"""The benchmark's workloads: configs, set-up, closed measuring loops, checks.

Each workload runs closed-loop in one process: the next step (a training
step, or one clip scored) starts only when the previous one has returned.
Every input is generated from the run seed through padformer's own
generator, and the program receives only those clips and a ``RunConfig``.
BLAS threading is left at the program's default.

Timings are reported at the lower decile of their samples. On a shared
machine the same step runs in two modes, uncontended and slowed by other
tenants, and the mix changes from minute to minute: the median jumps between
the modes from run to run, while the lower decile stays with the program's
own speed. The median and 90th percentile are printed alongside.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import padformer.harness as harness
import padformer.model as model
import padformer.synth as synth
from padformer.config import RunConfig
from padformer.rng import stream
from padformer.tensor import AdamState

from tracer import LOSS, REST, Tracer, component_flops, component_names

FAST_PERCENTILE = 10    # timings are reported at this percentile of their samples
SETUP_REPEATS = 10      # setup_s is the median of this many full set-ups
WARMUP_STEPS = 2        # training steps inside each train set-up
WARMUP_CLIPS = 8        # clips scored inside each eval set-up
LOAD_REPEATS = 3        # load_store calls per store written
SMOKE_STEPS = 1         # training steps, or eval passes, per set-up in a smoke run


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "train" or "eval"
    config: dict        # RunConfig overrides
    smoke: dict         # RunConfig overrides for the tiny smoke run


WORKLOADS = {w.name: w for w in (
    # the default RunConfig model; the training store is 2 x 128 clips
    Workload("train-default", "train",
             dict(train_clips=128, dev_clips=1, test_clips=1),
             dict(frames=2, source_frames=2, height=16, width=16, batch_size=2,
                  train_clips=2, dev_clips=1, test_clips=1)),
    # T=16 and scales 1,2,4: N = 16/64/256 tokens per head
    Workload("train-longclip", "train",
             dict(frames=16, source_frames=16, scales=(1, 2, 4),
                  train_clips=64, dev_clips=1, test_clips=1),
             dict(frames=2, source_frames=2, scales=(1, 2, 4), batch_size=2,
                  train_clips=2, dev_clips=1, test_clips=1)),
    # 64x64 frames at stride 4 (16x16 token maps), one scale, 32 dev+test clips
    Workload("eval-hires", "eval",
             dict(height=64, width=64, embed_stride=4, scales=(1,),
                  train_clips=1, dev_clips=8, test_clips=8),
             dict(frames=2, source_frames=2, height=16, width=16, embed_stride=4,
                  scales=(1,), train_clips=1, dev_clips=2, test_clips=2)),
)}


class Checks:
    """Output checks; every operation checked counts as one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)    # name -> (value, unit)
    report: list = field(default_factory=list)     # extra human-readable lines
    checks: Checks = field(default_factory=Checks)


@dataclass
class Samples:
    """Raw timings of one untraced run, in seconds."""

    unit_clips: int             # clips per throughput unit (a batch, or one evaluate call)
    unit_s: list = field(default_factory=list)     # per throughput unit
    step_s: list = field(default_factory=list)     # per step (train_step, or one clip)
    gen_clips: int = 0
    gen_s: list = field(default_factory=list)      # generate + write of one store
    load_clips: int = 0
    load_s: list = field(default_factory=list)     # one load_store
    setup_s: list = field(default_factory=list)    # one full set-up


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def fast(values) -> float:
    return percentile(values, FAST_PERCENTILE)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_round_trip(checks: Checks, written, loaded):
    """The loaded store must equal the generated clips bit for bit."""
    checks.check(len(loaded) == len(written),
                 f"store holds {len(loaded)} clips, wrote {len(written)}")
    for w, r in zip(written, loaded):
        same = (w.clip_id == r.clip_id and w.label == r.label and w.split == r.split
                and w.frames.dtype == r.frames.dtype
                and np.array_equal(w.frames, r.frames))
        checks.check(same, f"clip {w.clip_id} differs after the store round trip")


def make_store(spec, root: Path, samples: Samples, checks: Checks, tracer):
    """Generate and write a store, then load it LOAD_REPEATS times.

    Returns the loaded clips and the seconds a single pass took: generate,
    write and one load.
    """
    t0 = time.perf_counter()
    records = _generate(spec, tracer)
    synth.write_store(root, records)
    gen = time.perf_counter() - t0
    loads = []
    for _ in range(LOAD_REPEATS):
        t1 = time.perf_counter()
        loaded = synth.load_store(root)
        loads.append(time.perf_counter() - t1)
        check_round_trip(checks, records, loaded)
    shutil.rmtree(root)
    samples.gen_clips, samples.load_clips = len(records), len(loaded)
    samples.gen_s.append(gen)
    samples.load_s += loads
    return loaded, gen + loads[0]


def _generate(spec, tracer):
    if tracer is None:
        return synth.generate_dataset(spec)
    records = tracer.call("synth.generate_dataset", synth.generate_dataset, spec)
    tracer.calls["synth.clips"] += len(records)
    return records


# ---------------------------------------------------------------------------
# training workloads

class TrainState:
    """Parameters, optimizer and batch streams, kept as ``train_model`` keeps them."""

    def __init__(self, cfg: RunConfig, records):
        self.cfg = cfg
        self.mcfg = cfg.model_config()
        self.records = records
        self.params = model.init_params(self.mcfg)
        self.opt = AdamState(self.params)
        self.batch_rng = stream(cfg.seed, "batches")
        self.sample_rng = stream(cfg.seed, "sampling")
        self.augment_rng = stream(cfg.seed, "augment")
        self.step = 0

    def make_batch(self):
        return harness.make_batch(self.records, self.cfg, self.batch_rng,
                                  self.sample_rng, self.augment_rng)

    def train(self, batch, checks: Checks) -> float:
        lr = harness.lr_at(self.step, self.cfg.lr, self.cfg.steps, self.cfg.warmup_frac)
        loss = model.train_step(batch, self.params, self.opt, self.mcfg, lr)
        checks.check(math.isfinite(loss) and loss >= 0.0,
                     f"training loss {loss!r} at step {self.step}")
        self.step += 1
        return loss


def train_setup(cfg: RunConfig, root: Path, samples: Samples, checks: Checks, tracer):
    """Generate, write and load the training store, init params, warm up."""
    loaded, store_s = make_store(cfg.synth_spec(), root, samples, checks, tracer)
    t0 = time.perf_counter()
    state = TrainState(cfg, synth.split_records(loaded, "train"))
    for _ in range(WARMUP_STEPS):
        state.train(state.make_batch(), checks)
    samples.setup_s.append(store_s + time.perf_counter() - t0)
    return state


def run_train(cfg: RunConfig, seconds: float, max_steps, tracer, work: Path) -> Result:
    """SETUP_REPEATS rounds, each a full set-up and then training steps for a
    share of the run, so set-up samples spread over the whole run."""
    result = Result()
    checks = result.checks
    samples = Samples(unit_clips=cfg.batch_size)
    traced_s, untraced_s = [], []
    i = 0
    for k in range(SETUP_REPEATS):
        # free the previous round's state first, so peak memory does not
        # depend on when the cycle collector last ran
        state = None
        gc.collect()
        state = train_setup(cfg, work / f"store{k}", samples, checks, tracer)
        start, first = time.perf_counter(), i
        while time.perf_counter() - start < seconds / SETUP_REPEATS and \
                (max_steps is None or i - first < max_steps):
            traced = tracer is not None and i % 2 == 0
            t0 = time.perf_counter()
            if traced:
                tracer.step = i
                tracer.install_model()
                span = tracer.begin("step")
                batch = tracer.call("harness.make_batch", state.make_batch)
                tracer.call("model.train_step", state.train, batch, checks)
                tracer.end(span)
                tracer.restore_model()
            else:
                batch = state.make_batch()
                t1 = time.perf_counter()
                state.train(batch, checks)
                samples.step_s.append(time.perf_counter() - t1)
            (traced_s if traced else untraced_s).append(time.perf_counter() - t0)
            i += 1

    if tracer is None:
        samples.unit_s = untraced_s
        _end_to_end(result, samples)
        result.report.append("alias clips_per_s=train_clips_per_s, step=train_step")
    else:
        _per_layer(result, tracer, cfg.model_config(), traced_s, untraced_s)
    return result


# ---------------------------------------------------------------------------
# evaluation workload

class ScoreProbe:
    """Wraps harness.predict_score to time each clip and keep its score.

    With a tracer it also switches the model group on for every other clip,
    so one traced run holds traced and untraced clips to compare.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.rows = []            # (clip_id, score, seconds, traced)
        self._orig = harness.predict_score

    def __enter__(self):
        harness.predict_score = self._score
        return self

    def __exit__(self, *exc):
        harness.predict_score = self._orig
        return False

    def _score(self, clip, params, cfg, records=None):
        traced = self.tracer is not None and len(self.rows) % 2 == 0
        if traced:
            self.tracer.step = len(self.rows)
            self.tracer.install_model()
        t0 = time.perf_counter()
        try:
            score = self._orig(clip, params, cfg, records=records)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.restore_model()
        self.rows.append((clip.clip_id, score, dt, traced))
        return score


def check_evaluation(checks: Checks, rows, records, report):
    """Scores finite and in [0, 1]; report counts match the test split."""
    for clip_id, score, _, _ in rows:
        checks.check(math.isfinite(score) and 0.0 <= score <= 1.0,
                     f"score {score!r} for clip {clip_id}")
    checks.check(len(rows) == sum(r.split in ("dev", "test") for r in records),
                 f"{len(rows)} clips scored")
    scored = {clip_id: score for clip_id, score, _, _ in rows}
    attacks = [r for r in records if r.split == "test" and r.label == 0]
    bona = [r for r in records if r.split == "test" and r.label == 1]
    checks.check(report.attacks_accepted + report.attacks_rejected == len(attacks)
                 and report.bona_accepted + report.bona_rejected == len(bona),
                 "report counts do not sum to the test split sizes")
    accepted = sum(scored[r.clip_id] >= report.threshold for r in attacks)
    rejected = sum(scored[r.clip_id] < report.threshold for r in bona)
    checks.check(accepted == report.attacks_accepted and rejected == report.bona_rejected,
                 "report counts disagree with the scores at its threshold")


def eval_setup(cfg: RunConfig, samples: Samples, checks: Checks, tracer):
    """init_params, then score a few freshly generated clips as warm-up."""
    t0 = time.perf_counter()
    mcfg = cfg.model_config()
    params = model.init_params(mcfg)
    spec = dataclasses.replace(cfg.synth_spec(), train_clips=1,
                               dev_clips=WARMUP_CLIPS // 4, test_clips=WARMUP_CLIPS // 4)
    for r in _generate(spec, tracer):
        if r.split == "train":
            continue
        clip = model.sample_frames(r.frames, mcfg.frames, "uniform", label=r.label,
                                   clip_id=r.clip_id)
        score = model.predict_score(clip, params, mcfg)
        checks.check(math.isfinite(score) and 0.0 <= score <= 1.0,
                     f"warm-up score {score!r}")
    samples.setup_s.append(time.perf_counter() - t0)
    return params


def run_eval(cfg: RunConfig, seconds: float, max_rounds, tracer, work: Path) -> Result:
    """SETUP_REPEATS rounds, each a set-up and then store-and-evaluate passes
    for a share of the run."""
    result = Result()
    checks = result.checks
    mcfg = cfg.model_config()
    spec = cfg.synth_spec()
    samples = Samples(unit_clips=2 * (spec.dev_clips + spec.test_clips))
    rows = []
    r = 0
    for _ in range(SETUP_REPEATS):
        params = eval_setup(cfg, samples, checks, tracer)
        start, first = time.perf_counter(), r
        while (r == first or time.perf_counter() - start < seconds / SETUP_REPEATS) and \
                (max_rounds is None or r - first < max_rounds):
            loaded, _ = make_store(spec, work / f"round{r}", samples, checks, tracer)
            with ScoreProbe(tracer) as probe:
                t0 = time.perf_counter()
                if tracer is None:
                    report = harness.evaluate(params, mcfg, loaded, cfg)
                else:
                    report = tracer.call("harness.evaluate", harness.evaluate,
                                         params, mcfg, loaded, cfg)
                samples.unit_s.append(time.perf_counter() - t0)
            check_evaluation(checks, probe.rows, loaded, report)
            rows += probe.rows
            r += 1

    if tracer is None:
        samples.step_s = [row[2] for row in rows]
        _end_to_end(result, samples)
        result.report.append(
            f"alias clips_per_s=score_clips_per_s, step=one clip scored; "
            f"eval_s p10={fast(samples.unit_s):.6g} "
            f"p50={statistics.median(samples.unit_s):.6g} s over n={r} evaluate calls "
            f"of {samples.unit_clips} dev+test clips")
    else:
        _per_layer(result, tracer, mcfg, [row[2] for row in rows if row[3]],
                   [row[2] for row in rows if not row[3]], clips_scored=len(rows))
    return result


# ---------------------------------------------------------------------------
# metric assembly

def _end_to_end(result: Result, s: Samples):
    m = result.metrics
    m["clips_per_s"] = (s.unit_clips / fast(s.unit_s), "1/s")
    m["step_ms_p10"] = (1000.0 * fast(s.step_s), "ms")
    m["gen_clips_per_s"] = (s.gen_clips / fast(s.gen_s), "1/s")
    m["load_clips_per_s"] = (s.load_clips / fast(s.load_s), "1/s")
    m["setup_s"] = (statistics.median(s.setup_s), "s")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    ms = [1000.0 * x for x in s.step_s]
    result.report.append(
        f"step_ms p10={percentile(ms, 10):.6g} p50={percentile(ms, 50):.6g} "
        f"p90={percentile(ms, 90):.6g} over n={len(ms)} steps; "
        f"clips_per_s at the median={s.unit_clips / statistics.median(s.unit_s):.6g}; "
        f"setup_s over n={len(s.setup_s)} set-ups")


def _per_layer(result: Result, tracer: Tracer, mcfg, traced_s, untraced_s,
               clips_scored: int = 0):
    """Per-layer metrics, per traced step; the ones a workload can bypass are
    printed as ``layer`` lines only."""
    steps = max(len(traced_s), 1)
    forwards = tracer.calls["model.forward"]
    flops = component_flops(mcfg)
    fwd = dict(tracer.fwd)
    fwd[REST] = tracer.forward_self_seconds()
    m = result.metrics
    lines = result.report
    for name in component_names(mcfg.depth) + [REST]:
        m[f"{name}.fwd_ms"] = (1000.0 * fwd.get(name, 0.0) / steps, "ms")
        m[f"{name}.prims"] = (tracer.prims[name] / steps, "count")
        gflops = flops[name] * forwards / fwd[name] / 1e9 if fwd.get(name) else 0.0
        m[f"{name}.gflops_per_s"] = (gflops, "GFLOP/s")
        lines.append(f"layer {name}.bwd_ms={1000.0 * tracer.bwd[name] / steps:.6g} ms")
    lines.append(f"layer {LOSS}.prims={tracer.prims[LOSS] / steps:.6g} count "
                 f"{LOSS}.bwd_ms={1000.0 * tracer.bwd[LOSS] / steps:.6g} ms")
    m["tensor.prims_per_step"] = (sum(tracer.prims.values()) / steps, "count")
    m["model.forwards_per_step"] = (forwards / steps, "count")
    m["tensor.conv2d_ms"] = (1000.0 * tracer.secs["tensor.conv2d"] / steps, "ms")
    m["tensor.conv2d_calls"] = (tracer.calls["tensor.conv2d"] / steps, "count")
    m["tensor.reshape_transpose_ms"] = (
        1000.0 * tracer.secs["tensor.reshape_transpose"] / steps, "ms")
    m["synth.generate_ms_per_clip"] = (
        1000.0 * tracer.secs["synth.generate_dataset"] / max(tracer.calls["synth.clips"], 1),
        "ms")
    writes, reads = max(tracer.calls["vpt.write"], 1), max(tracer.calls["vpt.read"], 1)
    m["vpt.write_ms_per_clip"] = (1000.0 * tracer.secs["vpt.write"] / writes, "ms")
    m["vpt.read_ms_per_clip"] = (1000.0 * tracer.secs["vpt.read"] / reads, "ms")
    m["vpt.bytes_per_clip"] = (tracer.bytes_written / writes, "B")
    overhead = 0.0
    if traced_s and untraced_s:
        overhead = 100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0)
    m["trace.overhead_pct"] = (overhead, "%")

    for name, key in (("tensor.backward_ms", "tensor.backward"),
                      ("tensor.adam_step_ms", "tensor.adam_step"),
                      ("harness.make_batch_ms", "harness.make_batch")):
        lines.append(f"layer {name}={1000.0 * tracer.secs[key] / steps:.6g} ms")
    score_ms = (1000.0 * tracer.secs["harness.score_split"] / clips_scored
                if clips_scored else 0.0)
    lines.append(f"layer harness.score_ms_per_clip={score_ms:.6g} ms")
    calls = tracer.calls["metrics.select_threshold"]
    threshold_ms = 1000.0 * tracer.secs["metrics.select_threshold"] / calls if calls else 0.0
    lines.append(f"layer metrics.select_threshold_ms={threshold_ms:.6g} ms")
    lines.append(f"layer steps traced={len(traced_s)} untraced={len(untraced_s)}")


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        work: Path) -> Result:
    """Set up and measure one workload; traced runs report per-layer metrics."""
    wl = WORKLOADS[name]
    cfg = RunConfig(seed=seed, **(wl.smoke if smoke else wl.config))
    limit = None
    if smoke:
        seconds, limit = math.inf, SMOKE_STEPS
    tracer = Tracer() if trace else None
    work.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        if tracer is not None:
            tracer.install_pipeline()
        runner = run_train if wl.kind == "train" else run_eval
        result = runner(cfg, seconds, limit, tracer, tmp)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)
    if tracer is not None:
        tracer.write_spans(work / f"spans-{name}-seed{seed}{'-smoke' if smoke else ''}.jsonl")
    return result
