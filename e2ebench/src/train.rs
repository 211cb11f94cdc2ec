//! The `train` workload: epochs of the SALIENT and baseline executors, and
//! the traced training ladder (batch → prep / step → forward / backward /
//! optimizer) built from the same public calls `Trainer` makes.

use crate::spans::Recorder;
use crate::util::{
    digest, median, minor_faults, run_config, secs, Lap, Stopwatch, BATCH, TRAIN_FANOUTS,
};
use salient_core::{Checkpoint, ExecutorKind, Trainer};
use salient_graph::{Dataset, FeatureSlab};
use salient_nn::{build_model, Mode, ModelKind};
use salient_sampler::{FastSampler, PygSampler};
use salient_tensor::optim::{zero_grads, Adam, Optimizer};
use salient_tensor::rng::{Rng, SliceRandom, StdRng};
use salient_tensor::{gemm, Tape, Tensor};
use salient_trace::{analyze, Clock, Trace};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Epochs whose losses make up the bitwise loss digest: the warm-up epoch
/// and the first measured one, so the digest does not depend on how many
/// epochs fit in the time budget.
pub const DIGEST_EPOCHS: usize = 2;

/// One executor's epochs: a warm-up, then measured epochs.
pub struct EpochRun {
    /// Each measured epoch.
    pub laps: Vec<Lap>,
    /// Mean loss of every epoch, warm-up first.
    pub losses: Vec<f64>,
    /// Batches trained, over all epochs.
    pub batches: usize,
    /// Batches that failed (prep retry exhaustion or a stage panic).
    pub failed: usize,
    /// Minor page faults per trained batch over the measured epochs.
    pub minor_faults_per_batch: f64,
}

impl EpochRun {
    /// Median measured epoch time with host steal taken out (s).
    pub fn median_s(&self) -> f64 {
        median(&self.laps.iter().map(|l| l.secs()).collect::<Vec<_>>())
    }

    /// Digest of the first [`DIGEST_EPOCHS`] losses' bit patterns.
    pub fn loss_digest(&self) -> String {
        digest(&self.losses[..DIGEST_EPOCHS.min(self.losses.len())])
    }

    /// Output check: every loss finite, and the loss falls from each epoch
    /// to the next over the digest epochs and stays below the warm-up loss.
    pub fn check(&self, label: &str, failures: &mut Vec<String>) {
        if self.losses.iter().any(|l| !l.is_finite()) {
            failures.push(format!("{label}: non-finite loss in {:?}", self.losses));
            return;
        }
        let head = &self.losses[..DIGEST_EPOCHS.min(self.losses.len())];
        if head.windows(2).any(|w| w[1] >= w[0]) {
            failures.push(format!(
                "{label}: loss not decreasing over the first epochs: {head:?}"
            ));
        }
        if self.losses[1..].iter().any(|&l| l >= self.losses[0]) {
            failures.push(format!(
                "{label}: a loss is not below the warm-up loss: {:?}",
                self.losses
            ));
        }
    }
}

/// One executor's trainer, epoch by epoch. Tracing is off.
pub struct Epochs {
    trainer: Trainer,
    run: EpochRun,
    measured_batches: usize,
    faults: u64,
}

impl Epochs {
    /// Builds the trainer and trains its warm-up epoch.
    pub fn warm_up(ds: &Arc<Dataset>, seed: u64, executor: ExecutorKind) -> Epochs {
        let mut trainer = Trainer::with_trace(
            Arc::clone(ds),
            run_config(seed, executor),
            Trace::disabled(),
        );
        let warm = trainer.train_epoch();
        let run = EpochRun {
            laps: Vec::new(),
            losses: vec![warm.mean_loss],
            batches: warm.batches,
            failed: warm.failed_batches,
            minor_faults_per_batch: 0.0,
        };
        Epochs {
            trainer,
            run,
            measured_batches: 0,
            faults: 0,
        }
    }

    /// Trains and times one measured epoch.
    pub fn epoch(&mut self) -> Lap {
        let f0 = minor_faults();
        let watch = Stopwatch::start();
        let stats = self.trainer.train_epoch();
        let lap = watch.lap();
        self.faults += minor_faults() - f0;
        let run = &mut self.run;
        run.laps.push(lap);
        run.losses.push(stats.mean_loss);
        run.batches += stats.batches;
        run.failed += stats.failed_batches;
        self.measured_batches += stats.batches;
        lap
    }

    /// The record of every epoch.
    pub fn finish(mut self) -> EpochRun {
        self.run.minor_faults_per_batch = self.faults as f64 / self.measured_batches.max(1) as f64;
        self.run
    }
}

/// The one-epoch baseline model `infer` and `serve` run: deterministic in
/// the seed. Returns it with its epoch's loss.
pub fn served_model(ds: &Arc<Dataset>, seed: u64) -> (Checkpoint, f64) {
    let mut trainer = Trainer::with_trace(
        Arc::clone(ds),
        run_config(seed, ExecutorKind::Baseline),
        Trace::disabled(),
    );
    let stats = trainer.train_epoch();
    (Checkpoint::from_model(trainer.model()), stats.mean_loss)
}

/// Executor-level figures from a traced SALIENT `Trainer`.
pub struct PipelineFigures {
    /// Trainer blocking on batch preparation per batch (ms).
    pub prep_wait_ms: f64,
    /// Transfer (widen) stage time per batch (ms).
    pub transfer_ms: f64,
    /// Share of trainer compute that preparation overlapped.
    pub overlap_frac: f64,
    /// Failed batches over the traced epochs.
    pub failed_batches: usize,
    /// Traced epoch time over untraced epoch time, minus one, in percent.
    pub overhead_pct: f64,
    /// Minor page faults per batch over the untraced epochs.
    pub minor_faults_per_batch: f64,
}

/// Runs SALIENT epochs with tracing off and on, alternating, after a
/// warm-up of each, and reads the executor's own stage attribution from the
/// traced ones.
pub fn pipeline_figures(ds: &Arc<Dataset>, seed: u64, pairs: usize) -> PipelineFigures {
    let cfg = run_config(seed, ExecutorKind::Salient);
    let mut plain = Trainer::with_trace(Arc::clone(ds), cfg.clone(), Trace::disabled());
    let trace = Trace::new(Clock::monotonic());
    let mut traced = Trainer::with_trace(Arc::clone(ds), cfg, trace.clone());
    plain.train_epoch();
    traced.train_epoch();
    let (mut t_plain, mut t_traced) = (Vec::new(), Vec::new());
    let (mut wait_s, mut batches, mut failed) = (0.0, 0usize, 0usize);
    let (mut faults, mut plain_batches) = (0u64, 0usize);
    let window_start = trace.now_ns();
    for _ in 0..pairs {
        let f0 = minor_faults();
        let t0 = Instant::now();
        let s = plain.train_epoch();
        t_plain.push(secs(t0));
        faults += minor_faults() - f0;
        plain_batches += s.batches;
        let t0 = Instant::now();
        let s = traced.train_epoch();
        t_traced.push(secs(t0));
        wait_s += s.timings.prep_s;
        batches += s.batches;
        failed += s.failed_batches;
    }
    let report = analyze(&trace.snapshot().window(window_start, trace.now_ns()));
    let per_batch = |ns: u64| ns as f64 / 1e6 / batches.max(1) as f64;
    PipelineFigures {
        prep_wait_ms: wait_s * 1e3 / batches.max(1) as f64,
        transfer_ms: per_batch(report.transfer_ns),
        overlap_frac: report.overlap_frac(),
        failed_batches: failed,
        overhead_pct: (median(&t_traced) / median(&t_plain) - 1.0) * 100.0,
        minor_faults_per_batch: faults as f64 / plain_batches.max(1) as f64,
    }
}

/// Figures of the traced training ladder.
pub struct TrainLadder {
    /// Mean MFG nodes per batch (a work count: fixed for a seed).
    pub mfg_nodes: f64,
    /// Mean packed feature bytes sliced per batch.
    pub slice_bytes: f64,
    /// Median `PygSampler::sample` time per batch (ms), same batches.
    pub pyg_sample_ms: f64,
    /// Losses of the traced epochs.
    pub losses: Vec<f64>,
}

const LADDER: &str = "train";

/// Runs `epochs` epochs of the serial training step under the benchmark's
/// spans: per batch, `core.batch` covers `sampler.sample`,
/// `graph.slice`, `graph.widen` and `core.step`; `core.step` covers
/// `nn.forward` (with the loss), `tensor.backward` and `tensor.optim`.
/// The step is the same sequence of public calls `Trainer` makes.
pub fn train_ladder(
    ds: &Arc<Dataset>,
    seed: u64,
    epochs: usize,
    rec: &mut Recorder,
) -> TrainLadder {
    let cfg = run_config(seed, ExecutorKind::Baseline);
    let dim = ds.features.dim();
    let mut model = build_model(
        ModelKind::Sage,
        dim,
        cfg.hidden,
        ds.num_classes,
        cfg.num_layers,
        cfg.seed,
    );
    let mut opt = Adam::new(cfg.learning_rate);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7AA7);
    let mut sampler = FastSampler::new(cfg.seed ^ 0x5A);
    let mut pyg = PygSampler::new(cfg.seed ^ 0x5A);
    let (mut nodes, mut bytes, mut n_batches) = (0usize, 0usize, 0usize);
    let mut pyg_ms = Vec::new();
    let mut losses = Vec::new();
    let mut bid = 0u64;
    for _ in 0..epochs {
        let mut order = ds.splits.train.clone();
        order.shuffle(&mut rng);
        let mut total = 0.0;
        let mut count = 0;
        for chunk in order.chunks(BATCH) {
            let root = rec.begin(LADDER, "core.batch", bid);
            let mfg = rec.time(LADDER, "sampler.sample", bid, || {
                sampler.sample(&ds.graph, chunk, &TRAIN_FANOUTS)
            });
            let mut staged = FeatureSlab::new(ds.features.dtype(), mfg.num_nodes() * dim);
            rec.time(LADDER, "graph.slice", bid, || {
                ds.features.slice_into(&mfg.node_ids, staged.rows_mut())
            });
            let features = rec.time(LADDER, "graph.widen", bid, || {
                let mut wide = vec![0.0f32; staged.len()];
                staged.widen_into(&mut wide);
                Tensor::from_vec(wide, [mfg.num_nodes(), dim])
            });
            let labels: Vec<usize> = mfg.node_ids[..mfg.batch_size()]
                .iter()
                .map(|&v| ds.labels[v as usize] as usize)
                .collect();
            let step = rec.begin(LADDER, "core.step", bid);
            let tape = Tape::new();
            let loss = rec.time(LADDER, "nn.forward", bid, || {
                let x = tape.constant(features);
                model
                    .forward(&tape, x, &mfg, Mode::Train, &mut rng)
                    .nll_loss(&labels)
            });
            total += f64::from(loss.value().item());
            let grads = rec.time(LADDER, "tensor.backward", bid, || tape.backward(&loss));
            rec.time(LADDER, "tensor.optim", bid, || {
                zero_grads(model.params_mut().into_iter());
                grads.apply_to(model.params_mut());
                opt.step(model.params_mut().into_iter());
            });
            rec.end(step);
            rec.end(root);
            // The baseline sampler on the same batch, outside the ladder.
            let t0 = Instant::now();
            black_box(pyg.sample(&ds.graph, chunk, &TRAIN_FANOUTS));
            pyg_ms.push(secs(t0) * 1e3);
            nodes += mfg.num_nodes();
            bytes += staged.bytes();
            n_batches += 1;
            count += 1;
            bid += 1;
        }
        losses.push(total / f64::from(count.max(1)));
    }
    TrainLadder {
        mfg_nodes: nodes as f64 / n_batches.max(1) as f64,
        slice_bytes: bytes as f64 / n_batches.max(1) as f64,
        pyg_sample_ms: median(&pyg_ms),
        losses,
    }
}

/// GFLOP/s of the public GEMM over the forward matmul shapes of one
/// training batch (two per SAGE layer: `[n_dst × in] · [in × out]`),
/// median over `reps` passes.
pub fn gemm_gflops(ds: &Arc<Dataset>, seed: u64, reps: usize) -> f64 {
    let cfg = run_config(seed, ExecutorKind::Baseline);
    let mut sampler = FastSampler::new(cfg.seed);
    let batch = &ds.splits.train[..BATCH.min(ds.splits.train.len())];
    let mfg = sampler.sample(&ds.graph, batch, &TRAIN_FANOUTS);
    let dims = [ds.features.dim(), cfg.hidden, cfg.hidden, ds.num_classes];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rand = |r: usize, c: usize| {
        let v: Vec<f32> = (0..r * c).map(|_| rng.random::<f32>() - 0.5).collect();
        Tensor::from_vec(v, [r, c])
    };
    let shapes: Vec<(Tensor, Tensor)> = mfg
        .layers
        .iter()
        .zip(dims.windows(2))
        .flat_map(|(layer, d)| [(layer.n_dst, d[0], d[1]), (layer.n_dst, d[0], d[1])])
        .map(|(m, k, n)| (rand(m, k), rand(k, n)))
        .collect();
    let flops: f64 = shapes
        .iter()
        .map(|(a, b)| 2.0 * (a.rows() * a.cols() * b.cols()) as f64)
        .sum();
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for (a, b) in &shapes {
            black_box(gemm(a, b, false, false));
        }
        rates.push(flops / secs(t0) / 1e9);
    }
    median(&rates)
}
