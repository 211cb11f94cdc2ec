//! The `infer` workload: sampled inference over the test nodes, and the
//! traced inference ladder (batch → sample / stage / forward).

use crate::spans::Recorder;
use crate::util::{run_config, Lap, Stopwatch, BATCH, INFER_FANOUTS};
use salient_core::{BatchInferencer, Checkpoint, ExecutorKind, Trainer};
use salient_graph::{Dataset, NodeId};
use salient_nn::metrics;
use salient_sampler::FastSampler;
use salient_tensor::rng::StdRng;
use salient_trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Sampled-inference passes over the test nodes.
pub struct InferRun {
    /// Accuracy of each pass that completed.
    pub accs: Vec<f64>,
    /// Micro-batches attempted.
    pub batches: usize,
    /// Micro-batches lost to a caught inference panic (a panicking pass
    /// loses all of its batches).
    pub failed: usize,
    /// Whether every completed pass gave one prediction per node.
    pub complete: bool,
}

/// A trainer holding the served model, for `Trainer::evaluate_sampled`.
fn evaluator(ds: &Arc<Dataset>, seed: u64, model: &Checkpoint) -> Trainer {
    let mut t = Trainer::with_trace(
        Arc::clone(ds),
        run_config(seed, ExecutorKind::Baseline),
        Trace::disabled(),
    );
    model
        .apply_to_model(t.model_mut())
        .expect("checkpoint matches the model it came from");
    t
}

/// `Trainer::evaluate_sampled` over the test nodes with fanouts 20/20/20,
/// pass by pass.
pub struct Passes {
    trainer: Trainer,
    test: Vec<NodeId>,
    run: InferRun,
}

impl Passes {
    /// Loads the served model and runs a warm-up pass (checked, not timed).
    pub fn warm_up(ds: &Arc<Dataset>, seed: u64, model: &Checkpoint) -> Passes {
        let mut passes = Passes {
            trainer: evaluator(ds, seed, model),
            test: ds.splits.test.clone(),
            run: InferRun {
                accs: Vec::new(),
                batches: 0,
                failed: 0,
                complete: true,
            },
        };
        passes.run_pass();
        passes
    }

    /// Runs and times one pass.
    pub fn pass(&mut self) -> Lap {
        let watch = Stopwatch::start();
        self.run_pass();
        watch.lap()
    }

    /// The record of every pass.
    pub fn finish(self) -> InferRun {
        self.run
    }

    fn run_pass(&mut self) {
        let per_pass = self.test.len().div_ceil(BATCH);
        let (trainer, test) = (&mut self.trainer, &self.test);
        let out = catch_unwind(AssertUnwindSafe(|| {
            trainer.evaluate_sampled(test, &INFER_FANOUTS)
        }));
        let run = &mut self.run;
        run.batches += per_pass;
        match out {
            Ok((acc, preds)) => {
                run.accs.push(acc);
                run.complete &= preds.len() == test.len();
            }
            Err(_) => run.failed += per_pass,
        }
    }
}

impl InferRun {
    /// Accuracy of the passes (they are deterministic, so all equal).
    pub fn acc(&self) -> f64 {
        self.accs.first().copied().unwrap_or(0.0)
    }

    /// Output checks: one prediction per node, identical accuracy on every
    /// pass, and accuracy at or above `floor`.
    pub fn check(&self, floor: f64, failures: &mut Vec<String>) {
        if !self.complete || self.accs.is_empty() {
            failures.push("infer: a pass did not predict every test node".into());
            return;
        }
        if self
            .accs
            .iter()
            .any(|&a| a.to_bits() != self.accs[0].to_bits())
        {
            failures.push(format!(
                "infer: accuracy differs between identical passes: {:?}",
                self.accs
            ));
        }
        if self.acc() < floor {
            failures.push(format!(
                "infer: test accuracy {:.4} below the floor {floor}",
                self.acc()
            ));
        }
    }
}

/// Figures of the traced inference ladder.
pub struct InferLadder {
    /// Accuracy of the traced pass.
    pub acc: f64,
    /// Predictions returned over nodes asked for.
    pub complete: bool,
    /// Micro-batches that returned an `InferPanic`.
    pub failed: usize,
    /// Micro-batches attempted.
    pub batches: usize,
}

const LADDER: &str = "infer";

/// One pass over the test nodes through `BatchInferencer` under the
/// benchmark's spans: `core.infer_batch` covers `sampler.sample`,
/// `core.stage` (slice into a pinned slot) and `core.infer_forward`
/// (widen + eval forward + argmax).
pub fn infer_ladder(
    ds: &Arc<Dataset>,
    seed: u64,
    model: &Checkpoint,
    rec: &mut Recorder,
) -> InferLadder {
    let mut trainer = evaluator(ds, seed, model);
    let inferencer = BatchInferencer::new(Arc::clone(ds), 1, BATCH);
    let mut sampler = FastSampler::new(run_config(seed, ExecutorKind::Baseline).seed ^ 0x1FE2);
    let mut rng = StdRng::seed_from_u64(seed);
    let test = &ds.splits.test;
    let mut preds = Vec::with_capacity(test.len());
    let mut targets = Vec::with_capacity(test.len());
    let (mut failed, mut batches) = (0, 0);
    for (bid, chunk) in test.chunks(BATCH).enumerate() {
        let bid = bid as u64;
        batches += 1;
        let root = rec.begin(LADDER, "core.infer_batch", bid);
        let mfg = rec.time(LADDER, "sampler.sample", bid, || {
            sampler.sample(&ds.graph, chunk, &INFER_FANOUTS)
        });
        let staged = rec.time(LADDER, "core.stage", bid, || inferencer.stage(&mfg));
        let out = staged.and_then(|staged| {
            rec.time(LADDER, "core.infer_forward", bid, || {
                inferencer.forward(staged, trainer.model_mut(), &mfg, &mut rng)
            })
        });
        rec.end(root);
        match out {
            Ok(p) => {
                preds.extend(p);
                targets.extend(chunk.iter().map(|&v| ds.labels[v as usize]));
            }
            Err(_) => failed += 1,
        }
    }
    InferLadder {
        acc: metrics::accuracy(&preds, &targets),
        complete: preds.len() == test.len(),
        failed,
        batches,
    }
}
