//! End-to-end benchmark of the SALIENT reproduction: training, sampled
//! inference and online serving on one products-like graph, driven only
//! through the crates' public API.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload train|infer --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics with tracing off; `--trace 1`
//! prints the per-layer ladder measured by this program's own spans around
//! the public calls. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the process exits 1 when
//! an output check fails. See `e2ebench/README.md`.

mod infer;
mod phases;
mod serve;
mod spans;
mod train;
mod util;

use phases::{Lane, Phase, Unit, SERVE_ACC_FLOOR, TEST_ACC_FLOOR};
use salient_core::ExecutorKind;
use spans::Recorder;
use std::path::Path;
use std::sync::Arc;
use util::{build_dataset, median, percentile, JsonObj, Stopwatch};

/// Where the traced run writes its spans.
const OUT_DIR: &str = ".bench_out";

/// Largest share of a parent span its children may leave uncovered, per
/// batch, for the ladder to count as closed.
const CLOSURE_TOL: f64 = 0.05;

/// End-to-end metrics in print order, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("epoch_s", "s"),
    ("baseline_epoch_s", "s"),
    ("infer_s", "s"),
    ("test_acc", "fraction"),
    ("serve_closed_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Train,
    Infer,
}

fn parse_workload(w: &str) -> Result<Workload, String> {
    match w {
        "train" => Ok(Workload::Train),
        "infer" => Ok(Workload::Infer),
        w => Err(format!("unknown workload {w:?} (train, infer)")),
    }
}

fn workload_name(w: Workload) -> String {
    format!("{w:?}").to_lowercase()
}

fn parse_seconds(s: &str) -> Result<f64, String> {
    let seconds: f64 = s.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(seconds)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(argv: &'a [String], flag: &str) -> Result<&'a str, String> {
    let i = argv
        .iter()
        .position(|a| a == flag)
        .ok_or(format!("missing {flag}"))?;
    argv.get(i + 1)
        .map(String::as_str)
        .ok_or(format!("{flag} needs a value"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let workload = parse_workload(flag(argv, "--workload")?)?;
    let seed = flag(argv, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = parse_seconds(flag(argv, "--seconds")?)?;
    let trace = match flag(argv, "--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Result accumulator: metrics in print order, work counts, failed checks.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn json(&self) -> String {
        let mut m = JsonObj::default();
        for &(name, value, unit) in &self.metrics {
            m = m.raw(
                name,
                &JsonObj::default()
                    .num("value", value)
                    .str("unit", unit)
                    .finish(),
            );
        }
        JsonObj::default()
            .raw(
                "correct",
                if self.failures.is_empty() {
                    "true"
                } else {
                    "false"
                },
            )
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", &m.finish())
            .finish()
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Fewest runs of each unit, whatever the seconds.
const MIN_REPEATS: usize = 2;

/// How a workload shares its run's seconds among the units: every unit is
/// measured, so every end-to-end metric is printed on every workload, and
/// the units the workload is about get the largest shares.
fn shares(w: Workload) -> [(Unit, f64); 4] {
    let [salient, baseline, infer, serve] = match w {
        Workload::Train => [0.25, 0.25, 0.3, 0.2],
        Workload::Infer => [0.15, 0.15, 0.5, 0.2],
    };
    [
        (Unit::Epoch, salient),
        (Unit::BaselineEpoch, baseline),
        (Unit::InferPass, infer),
        (Unit::ServeWindow, serve),
    ]
}

/// Builds the graph once as a `setup_s` sample.
fn setup(seed: u64, samples: &mut Vec<(String, f64)>) {
    let watch = Stopwatch::start();
    drop(build_dataset(seed));
    let lap = watch.lap();
    samples.push(("setup_s".into(), lap.secs()));
    samples.push(("wall.setup_s".into(), lap.wall_s));
}

/// Starts one child per phase, one after the other, then interleaves their
/// units for `--seconds`: each next unit is the one furthest behind its
/// share of the time so far, and each unit runs at least
/// [`MIN_REPEATS`] times. The [`SETUPS`] graph builds (the median is
/// `setup_s`) are spread over the run the same way. Each metric is the
/// median of its samples (peak RSS: the largest).
fn end_to_end(args: &Args, report: &mut Report) {
    let mut samples: Vec<(String, f64)> = Vec::new();
    let mut lanes = Vec::new();
    for phase in Phase::ALL {
        match Lane::start(phase, args.seed) {
            Ok(lane) => lanes.push(lane),
            Err(e) => {
                report.failures.push(e);
                return;
            }
        }
    }
    let lane_of = |u: Unit| Phase::ALL.iter().position(|&p| p == u.phase()).unwrap_or(0);
    let shares = shares(args.workload);
    let mut spent = [0.0f64; 4];
    let mut runs = [0usize; 4];
    let mut setups = 0;
    loop {
        let total: f64 = spent.iter().sum();
        if setups < SETUPS && setups as f64 <= (SETUPS - 1) as f64 * total / args.seconds {
            setup(args.seed, &mut samples);
            setups += 1;
        }
        if total >= args.seconds && runs.iter().all(|&n| n >= MIN_REPEATS) {
            break;
        }
        let next = (0..shares.len())
            .min_by(|&a, &b| (spent[a] / shares[a].1).total_cmp(&(spent[b] / shares[b].1)))
            .unwrap_or(0);
        let unit = shares[next].0;
        match lanes[lane_of(unit)].unit(unit) {
            Ok(s) => spent[next] += s,
            Err(e) => {
                report.failures.push(e);
                return;
            }
        }
        runs[next] += 1;
    }
    while setups < SETUPS {
        setup(args.seed, &mut samples);
        setups += 1;
    }
    samples.push(("peak_rss_mb".into(), util::peak_rss_mb()));
    let mut summary = JsonObj::default();
    for (lane, phase) in lanes.into_iter().zip(Phase::ALL) {
        let out = lane.finish();
        report.count(out.attempted, out.failed);
        report.failures.extend(
            out.failures
                .into_iter()
                .map(|f| format!("{}: {f}", phase.name())),
        );
        samples.extend(out.samples);
        for (k, v) in &out.info {
            summary = summary.str(k, v);
        }
    }
    for (name, unit) in END_TO_END {
        let found: Vec<f64> = samples
            .iter()
            .filter(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .collect();
        if found.is_empty() {
            report.failures.push(format!("no value for {name}"));
        } else if name == "peak_rss_mb" {
            report.metric(name, found.iter().copied().fold(0.0, f64::max), unit);
        } else {
            report.metric(name, median(&found), unit);
        }
        summary = summary.str(&format!("{name}_samples"), &format!("{found:?}"));
        let wall: Vec<f64> = samples
            .iter()
            .filter(|(k, _)| k.strip_prefix("wall.") == Some(name))
            .map(|&(_, v)| v)
            .collect();
        if !wall.is_empty() {
            summary = summary.str(&format!("{name}_wall_samples"), &format!("{wall:?}"));
        }
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{{\"run\": {}}}",
        summary.num("fail_frac", fail_frac).finish()
    );
}

fn per_layer(args: &Args, report: &mut Report, rec: &mut Recorder) {
    let ds = Arc::new(build_dataset(args.seed));
    let seed = args.seed;

    let pipe = train::pipeline_figures(&ds, seed, 2);
    report.count(0, pipe.failed_batches);
    let tl = train::train_ladder(&ds, seed, 1, rec);
    report.count(ds.splits.train.len().div_ceil(util::BATCH), 0);
    if tl.losses.iter().any(|l| !l.is_finite()) {
        report
            .failures
            .push(format!("train ladder: non-finite loss {:?}", tl.losses));
    }
    let gflops = train::gemm_gflops(&ds, seed, 200);

    let (ck, _) = train::served_model(&ds, seed);
    let il = infer::infer_ladder(&ds, seed, &ck, rec);
    report.count(il.batches, il.failed);
    if !il.complete || il.acc < TEST_ACC_FLOOR {
        report.failures.push(format!(
            "infer ladder: complete {} accuracy {:.4} (floor {TEST_ACC_FLOOR})",
            il.complete, il.acc
        ));
    }
    let sr = serve::run_windows(&ds, seed, &ck, 2);
    sr.check(SERVE_ACC_FLOOR, &mut report.failures);
    let (sent, lost) = sr.totals();
    report.count(sent, lost);
    let replay = serve::step_replay(&ds, seed, &ck, rec);
    report.count(replay.sent, 0);
    // The allocator order effect: a SALIENT epoch after baseline training,
    // inference and serving in the same process.
    let mut mixed = train::Epochs::warm_up(&ds, seed, ExecutorKind::Salient);
    mixed.epoch();
    let mixed = mixed.finish();
    mixed.check("mixed salient", &mut report.failures);
    report.count(mixed.batches, mixed.failed);

    for (ladder, parent) in [
        ("train", "core.batch"),
        ("train", "core.step"),
        ("infer", "core.infer_batch"),
    ] {
        let (worst, n) = rec.worst_residual(ladder, parent);
        eprintln!("closure {ladder}/{parent}: worst uncovered share {:.2}% over {n} batches (tolerance {:.0}%)", worst * 100.0, CLOSURE_TOL * 100.0);
        if n == 0 || worst > CLOSURE_TOL {
            report.failures.push(format!(
                "ladder {ladder}/{parent} does not close: {:.2}% uncovered",
                worst * 100.0
            ));
        }
    }
    eprintln!(
        "{:<8} {:<22} {:>6} {:>12} {:>12}",
        "ladder", "rung", "spans", "total_ms", "self_ms"
    );
    for ((ladder, name), r) in rec.rungs() {
        eprintln!(
            "{ladder:<8} {name:<22} {:>6} {:>12.3} {:>12.3}",
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }

    let (light, heavy) = (&sr.light, &sr.heavy);
    let pooled = |f: fn(&serve::LoadPhase) -> &Vec<f64>| {
        heavy
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect::<Vec<_>>()
    };
    let m = |rec: &Recorder, ladder: &str, name: &str| rec.median_ms(ladder, name);
    report.metric("sampler.sample_ms", m(rec, "train", "sampler.sample"), "ms");
    report.metric("sampler.pyg_sample_ms", tl.pyg_sample_ms, "ms");
    report.metric("sampler.mfg_nodes", tl.mfg_nodes, "count");
    report.metric("graph.slice_ms", m(rec, "train", "graph.slice"), "ms");
    report.metric("graph.slice_bytes", tl.slice_bytes, "B");
    report.metric("batchprep.prep_wait_ms", pipe.prep_wait_ms, "ms");
    report.metric(
        "batchprep.failed_batches",
        pipe.failed_batches as f64,
        "count",
    );
    report.metric("pipeline.transfer_ms", pipe.transfer_ms, "ms");
    report.metric("pipeline.overlap_frac", pipe.overlap_frac, "fraction");
    report.metric("nn.forward_ms", m(rec, "train", "nn.forward"), "ms");
    report.metric(
        "tensor.backward_ms",
        m(rec, "train", "tensor.backward"),
        "ms",
    );
    report.metric("tensor.optim_ms", m(rec, "train", "tensor.optim"), "ms");
    report.metric("tensor.gemm_gflops", gflops, "GFLOP/s");
    report.metric("core.step_ms", m(rec, "train", "core.step"), "ms");
    report.metric("core.stage_ms", m(rec, "infer", "core.stage"), "ms");
    report.metric(
        "core.infer_forward_ms",
        m(rec, "infer", "core.infer_forward"),
        "ms",
    );
    report.metric("serve.step_ms", m(rec, "serve", "serve.step"), "ms");
    report.metric("serve.batch_size", replay.batch_size, "count");
    report.metric(
        "serve.light_p50_ms",
        serve::median_of(light, serve::p50),
        "ms",
    );
    report.metric(
        "serve.light_p99_ms",
        serve::median_of(light, serve::p99),
        "ms",
    );
    report.metric(
        "serve.heavy_p50_ms",
        serve::median_of(heavy, serve::p50),
        "ms",
    );
    report.metric(
        "serve.heavy_p99_ms",
        serve::median_of(heavy, serve::p99),
        "ms",
    );
    report.metric(
        "serve.goodput_rps",
        serve::median_of(heavy, serve::LoadPhase::goodput_rps),
        "1/s",
    );
    report.metric(
        "serve.submit_us",
        percentile(&pooled(|p| &p.submit_us), 0.99),
        "us",
    );
    report.metric(
        "serve.gen_late_ms",
        percentile(&pooled(|p| &p.gen_late_ms), 0.99),
        "ms",
    );
    report.metric(
        "serve.shed",
        heavy.iter().map(|p| p.rejected).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "serve.expired",
        heavy.iter().map(|p| p.expired).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "serve.degrades",
        heavy.iter().map(|p| p.degraded).sum::<usize>() as f64,
        "count",
    );
    report.metric("trace.overhead_pct", pipe.overhead_pct, "%");
    report.metric(
        "proc.minor_faults_per_batch",
        pipe.minor_faults_per_batch,
        "count",
    );
    report.metric(
        "proc.mixed_minor_faults_per_batch",
        mixed.minor_faults_per_batch,
        "count",
    );
    report.metric("proc.mixed_epoch_s", mixed.median_s(), "s");
    report.metric("proc.peak_rss_mb", util::peak_rss_mb(), "MiB");
}

fn provenance(args: &Args) -> String {
    JsonObj::default()
        .str("workload", &workload_name(args.workload))
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .num("trace", f64::from(u8::from(args.trace)))
        .num(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
        )
        .str(
            "salient_num_threads",
            &std::env::var("SALIENT_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        )
        .num("pool_threads", salient_tensor::pool::num_threads() as f64)
        .str("gemm_kernel", salient_tensor::kernels::gemm_kernel_level())
        .str("dtype", "f16")
        .str("git_revision", &util::git_revision())
        .num("setups", SETUPS as f64)
        .finish()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Ok(phase) = flag(&argv, "--phase") {
        // A phase child: the parent passes valid arguments.
        let seed = flag(&argv, "--seed").expect("the parent passes --seed");
        phases::run(
            Phase::parse(phase).expect("a known phase"),
            seed.parse().expect("--seed is a u64"),
        );
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload train|infer --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let prov = provenance(&args);
    println!("{{\"provenance\": {prov}}}");
    let mut report = Report::default();
    if args.trace {
        let mut rec = Recorder::new();
        per_layer(&args, &mut report, &mut rec);
        let path = Path::new(OUT_DIR)
            .join(format!("trace-{:?}-seed{}.json", args.workload, args.seed).to_lowercase());
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, rec.chrome_json(&prov)));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    } else {
        end_to_end(&args, &mut report);
    }
    for f in &report.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", report.json());
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
