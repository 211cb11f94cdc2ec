//! End-to-end phases. Each phase runs in a child process of its own (this
//! binary re-executed with `--phase`), so the SALIENT epochs do not inherit
//! the heap state that baseline training, inference and serving leave
//! behind. A child sets up and warms up, prints `ready`, then runs one
//! measured unit for each unit name it reads on standard input and prints
//! `done` after it. When its input closes it checks its outputs, reports,
//! and exits. The parent interleaves the units of all children, so drift in
//! the host's speed over a run reaches every metric alike. Besides
//! `ready` and `done`, a child prints:
//!
//! ```text
//! sample <metric> <value>
//! count <attempted> <failed>
//! info <key> <value>
//! fail <message>
//! ```

use crate::util::{build_dataset, median, peak_rss_mb, percentile, Lap};
use crate::{infer, serve, train};
use salient_core::ExecutorKind;
use std::fmt::Display;
use std::io::{BufRead, BufReader, Lines, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Lowest accepted accuracy of the one-epoch model's sampled inference
/// over the test nodes (it scores ≈ 0.92–0.99 across seeds).
pub const TEST_ACC_FLOOR: f64 = 0.85;
/// Lowest accepted accuracy of served answers (degraded fanouts included).
pub const SERVE_ACC_FLOOR: f64 = 0.75;
/// Seconds of one closed-loop serving unit (and of its warm-up).
pub const SERVE_WINDOW_S: f64 = 0.5;

/// One end-to-end phase: a child process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// SALIENT executor: a warm-up epoch, then measured epochs.
    Salient,
    /// Baseline executor: a warm-up epoch, then measured epochs.
    Baseline,
    /// The served one-epoch baseline model (trained at set-up): sampled
    /// inference passes and closed-loop serving windows.
    Served,
}

impl Phase {
    /// Every phase, in start order.
    pub const ALL: [Phase; 3] = [Phase::Salient, Phase::Baseline, Phase::Served];

    /// The `--phase` argument value.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Salient => "salient",
            Phase::Baseline => "baseline",
            Phase::Served => "served",
        }
    }

    /// Parses a `--phase` argument value.
    pub fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// One measured unit of work, named by the end-to-end metric it samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// A SALIENT epoch.
    Epoch,
    /// A baseline epoch.
    BaselineEpoch,
    /// A sampled-inference pass over the test nodes.
    InferPass,
    /// [`SERVE_WINDOW_S`] seconds of closed-loop serving.
    ServeWindow,
}

impl Unit {
    /// Every unit.
    pub const ALL: [Unit; 4] = [
        Unit::Epoch,
        Unit::BaselineEpoch,
        Unit::InferPass,
        Unit::ServeWindow,
    ];

    /// The metric the unit samples, also its name on the wire.
    pub fn metric(self) -> &'static str {
        match self {
            Unit::Epoch => "epoch_s",
            Unit::BaselineEpoch => "baseline_epoch_s",
            Unit::InferPass => "infer_s",
            Unit::ServeWindow => "serve_closed_p50_ms",
        }
    }

    /// The phase whose child runs the unit.
    pub fn phase(self) -> Phase {
        match self {
            Unit::Epoch => Phase::Salient,
            Unit::BaselineEpoch => Phase::Baseline,
            Unit::InferPass | Unit::ServeWindow => Phase::Served,
        }
    }

    fn parse(s: &str) -> Option<Unit> {
        Unit::ALL.into_iter().find(|u| u.metric() == s)
    }
}

fn emit(kind: &str, key: impl Display, value: impl Display) {
    println!("{kind} {key} {value}");
}

/// Emits a lap as a `metric` sample with host steal taken out, and as
/// measured under `wall.<metric>`.
fn emit_lap(metric: &str, lap: Lap) {
    emit("sample", metric, lap.secs());
    emit("sample", format!("wall.{metric}"), lap.wall_s);
}

/// Prints `ready`, then runs `unit` for each unit named on standard input
/// and prints `done` after it, until the input closes.
fn units(failures: &mut Vec<String>, mut unit: impl FnMut(Unit)) {
    println!("ready");
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match Unit::parse(line.trim()) {
            Some(u) => unit(u),
            None => failures.push(format!("unknown unit {line:?}")),
        }
        println!("done");
    }
}

/// Runs one phase's child: set-up and warm-up, the units the parent asks
/// for, then the output checks and the report.
pub fn run(phase: Phase, seed: u64) {
    let mut failures = Vec::new();
    let ds = Arc::new(build_dataset(seed));
    match phase {
        Phase::Salient | Phase::Baseline => {
            let (executor, metric) = match phase {
                Phase::Salient => (ExecutorKind::Salient, "epoch_s"),
                _ => (ExecutorKind::Baseline, "baseline_epoch_s"),
            };
            let mut epochs = train::Epochs::warm_up(&ds, seed, executor);
            units(&mut failures, |_| emit_lap(metric, epochs.epoch()));
            let run = epochs.finish();
            run.check(phase.name(), &mut failures);
            emit("count", run.batches, run.failed);
            emit(
                "info",
                format!("{}_loss_digest", phase.name()),
                run.loss_digest(),
            );
            emit(
                "info",
                format!("{}_minor_faults_per_batch", phase.name()),
                run.minor_faults_per_batch,
            );
        }
        Phase::Served => {
            let (ck, _) = train::served_model(&ds, seed);
            let mut passes = infer::Passes::warm_up(&ds, seed, &ck);
            let mut closed = serve::ClosedLoop::warm_up(&ds, seed, &ck, SERVE_WINDOW_S);
            units(&mut failures, |u| match u {
                Unit::ServeWindow => {
                    closed.window(SERVE_WINDOW_S);
                }
                _ => emit_lap("infer_s", passes.pass()),
            });
            let passes = passes.finish();
            passes.check(TEST_ACC_FLOOR, &mut failures);
            emit("sample", "test_acc", passes.acc());
            emit("count", passes.batches, passes.failed);
            let closed = closed.finish();
            closed.check(SERVE_ACC_FLOOR, &mut failures);
            if !closed.lat_ms.is_empty() {
                emit("sample", "serve_closed_p50_ms", closed.p50_ms());
                emit(
                    "sample",
                    "wall.serve_closed_p50_ms",
                    median(&closed.wall_lat_ms),
                );
                emit("info", "serve_closed_rps", closed.rps());
                emit(
                    "info",
                    "serve_closed_p99_ms",
                    percentile(&closed.lat_ms, 0.99),
                );
            }
            emit("count", closed.sent, closed.lost);
        }
    }
    emit("sample", "peak_rss_mb", peak_rss_mb());
    for f in failures {
        println!("fail {}", f.replace('\n', " "));
    }
}

/// The parent's end of one phase child.
pub struct Lane {
    phase: Phase,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Lines<BufReader<ChildStdout>>,
    /// What the child reported so far.
    pub out: PhaseOut,
}

impl Lane {
    /// Starts the child of `phase` (this binary with `--phase`) for the
    /// workload seed `seed` and waits until it has set up and warmed up.
    pub fn start(phase: Phase, seed: u64) -> Result<Lane, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--phase", phase.name(), "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the {} phase: {e}", phase.name()))?;
        let (stdin, stdout) = (child.stdin.take(), child.stdout.take());
        let mut lane = Lane {
            phase,
            child,
            stdin,
            stdout: BufReader::new(stdout.expect("stdout is piped")).lines(),
            out: PhaseOut::default(),
        };
        lane.read_until("ready")?;
        Ok(lane)
    }

    /// Runs one unit in the child; returns its wall seconds as the parent
    /// saw them.
    pub fn unit(&mut self, unit: Unit) -> Result<f64, String> {
        let t0 = Instant::now();
        let sent = match self.stdin.as_mut() {
            Some(stdin) => writeln!(stdin, "{}", unit.metric()).and_then(|()| stdin.flush()),
            None => Ok(()),
        };
        sent.map_err(|e| format!("{} phase: cannot send a unit: {e}", self.phase.name()))?;
        self.read_until("done")?;
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Closes the child's input, reads its report and waits for it to exit.
    pub fn finish(mut self) -> PhaseOut {
        self.stdin = None;
        if let Err(e) = self.read_until("") {
            self.out.failures.push(e);
        }
        match self.child.wait() {
            Ok(status) if !status.success() => self
                .out
                .failures
                .push(format!("{} phase exited with {status}", self.phase.name())),
            Err(e) => self
                .out
                .failures
                .push(format!("{} phase: {e}", self.phase.name())),
            Ok(_) => {}
        }
        std::mem::take(&mut self.out)
    }

    /// Absorbs the child's lines up to `marker`; an empty marker reads to
    /// the end of its output.
    fn read_until(&mut self, marker: &str) -> Result<(), String> {
        for line in self.stdout.by_ref() {
            let line = line.map_err(|e| format!("{} phase: {e}", self.phase.name()))?;
            if !marker.is_empty() && line == marker {
                return Ok(());
            }
            self.out.absorb(&line);
        }
        if marker.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} phase ended before {marker:?}",
                self.phase.name()
            ))
        }
    }
}

impl Drop for Lane {
    /// A lane dropped before [`Lane::finish`] (the run failed) stops its
    /// child; after `finish` the child has exited and this reaps nothing.
    fn drop(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What a phase's child reported.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// `sample` lines.
    pub samples: Vec<(String, f64)>,
    /// Summed `count` lines.
    pub attempted: usize,
    /// Summed `count` lines.
    pub failed: usize,
    /// `info` lines.
    pub info: Vec<(String, String)>,
    /// `fail` lines.
    pub failures: Vec<String>,
}

impl PhaseOut {
    /// Absorbs one line of a child's standard output.
    fn absorb(&mut self, line: &str) {
        let mut it = line.splitn(3, ' ');
        match (it.next(), it.next(), it.next()) {
            (Some("sample"), Some(k), Some(v)) => match v.parse() {
                Ok(v) => self.samples.push((k.to_string(), v)),
                Err(_) => self
                    .failures
                    .push(format!("unparsable sample line {line:?}")),
            },
            (Some("count"), Some(a), Some(f)) => match (a.parse::<usize>(), f.parse::<usize>()) {
                (Ok(a), Ok(f)) => {
                    self.attempted += a;
                    self.failed += f;
                }
                _ => self
                    .failures
                    .push(format!("unparsable count line {line:?}")),
            },
            (Some("info"), Some(k), Some(v)) => self.info.push((k.to_string(), v.to_string())),
            (Some("fail"), Some(a), b) => {
                self.failures
                    .push(b.map_or(a.to_string(), |b| format!("{a} {b}")));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trip() {
        let mut out = PhaseOut::default();
        for line in "sample epoch_s 1.25\nsample epoch_s 1.5\ncount 38 1\ncount 2 0\ninfo d abc def\nfail loss went up\nnoise".lines() {
            out.absorb(line);
        }
        assert_eq!(
            out.samples,
            vec![("epoch_s".to_string(), 1.25), ("epoch_s".to_string(), 1.5)]
        );
        assert_eq!((out.attempted, out.failed), (40, 1));
        assert_eq!(out.info, vec![("d".to_string(), "abc def".to_string())]);
        assert_eq!(out.failures, vec!["loss went up".to_string()]);
        assert_eq!(Phase::parse("baseline"), Some(Phase::Baseline));
        assert_eq!(Phase::parse("nope"), None);
    }
}
