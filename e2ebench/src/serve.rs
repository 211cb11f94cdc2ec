//! The `serve` workload: a closed loop that keeps `ServerCore`'s
//! micro-batches full (the end-to-end serving rate), and for the traced run
//! the served model behind the threaded `serve::Server`, driven by one
//! open-loop Poisson generator in a light and a heavy phase, plus a replay
//! of the heavy arrival trace straight into `ServerCore::step`.

use crate::spans::Recorder;
use crate::util::{median, mix, percentile, run_config, secs, Lap, Stopwatch};
use salient_core::{Checkpoint, ExecutorKind, Trainer};
use salient_graph::{Dataset, NodeId};
use salient_nn::GnnModel;
use salient_serve::loadgen::{poisson_trace, Arrival};
use salient_serve::{Request, Response, ServeConfig, Server, ServerCore};
use salient_tensor::rng::{Rng, StdRng};
use salient_trace::{Clock, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the light phase (requests/s).
pub const LIGHT_RPS: f64 = 1_000.0;
/// Offered load of the heavy phase (requests/s), near the knee.
pub const HEAVY_RPS: f64 = 3_000.0;
/// Per-request deadline budget, also the latency limit for goodput.
pub const BUDGET_NS: u64 = 50_000_000;
/// Seconds of the light phase in one window.
pub const LIGHT_S: f64 = 1.0;
/// Seconds of the heavy phase in one window.
pub const HEAVY_S: f64 = 1.0;

/// Serving settings: 16-request micro-batches, a 96-deep queue and a
/// three-level fanout ladder.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        queue_capacity: 96,
        fanout_ladder: vec![vec![15, 10, 5], vec![10, 5, 3], vec![5, 3, 2]],
        seed: mix(seed, 4),
        ..ServeConfig::default()
    }
}

fn model(ds: &Arc<Dataset>, seed: u64, ck: &Checkpoint) -> Box<dyn GnnModel> {
    let mut t = Trainer::with_trace(
        Arc::clone(ds),
        run_config(seed, ExecutorKind::Baseline),
        Trace::disabled(),
    );
    ck.apply_to_model(t.model_mut())
        .expect("checkpoint matches the model it came from");
    t.into_model()
}

/// Closed-loop serving: full micro-batches back to back.
#[derive(Debug, Default)]
pub struct ClosedRun {
    /// Submit-to-completion latency of each `Done` request after the
    /// warm-up window, with its window's host steal taken out (ms).
    pub lat_ms: Vec<f64>,
    /// The same latencies as measured (ms).
    pub wall_lat_ms: Vec<f64>,
    /// Wall seconds the measured windows ran.
    pub elapsed_s: f64,
    /// Requests submitted.
    pub sent: usize,
    /// `Done` responses.
    pub done: usize,
    /// Requests refused, expired or failed.
    pub lost: usize,
    /// Requests that failed inside the server.
    pub failed: usize,
    /// Requests that got no response or more than one.
    pub misaccounted: usize,
    /// `Done` responses whose class matches the node's label.
    pub correct: usize,
}

/// Drives a `ServerCore` on the calling thread in a closed loop: submit one
/// full micro-batch of test-node queries (50 ms budget each), `step` until
/// it is answered, and repeat. The queue never reaches the pressure mark,
/// so every batch runs at full fanout.
pub struct ClosedLoop {
    ds: Arc<Dataset>,
    core: ServerCore,
    rng: StdRng,
    nodes: Vec<NodeId>,
    run: ClosedRun,
}

impl ClosedLoop {
    /// Puts the served model behind a `ServerCore` and serves one warm-up
    /// window of `window_s` seconds, not recorded.
    pub fn warm_up(ds: &Arc<Dataset>, seed: u64, ck: &Checkpoint, window_s: f64) -> ClosedLoop {
        let cfg = serve_config(seed);
        let batch = cfg.max_batch;
        let core = ServerCore::new(model(ds, seed, ck), Arc::clone(ds), cfg, Trace::disabled());
        let mut lp = ClosedLoop {
            ds: Arc::clone(ds),
            core,
            rng: StdRng::seed_from_u64(mix(seed, 5)),
            nodes: vec![0; batch],
            run: ClosedRun::default(),
        };
        lp.serve(window_s);
        lp
    }

    /// Serves micro-batches for `window_s` seconds (at least one) and
    /// records their latencies, each scaled by the share of CPU time the
    /// host gave during the window (see [`crate::util::Lap::secs`]).
    pub fn window(&mut self, window_s: f64) -> Lap {
        let watch = Stopwatch::start();
        let lat = self.serve(window_s);
        let lap = watch.lap();
        self.run.lat_ms.extend(lat.iter().map(|l| l * lap.given));
        self.run.wall_lat_ms.extend(lat);
        self.run.elapsed_s += lap.wall_s;
        lap
    }

    /// The record of the measured windows.
    pub fn finish(self) -> ClosedRun {
        self.run
    }

    /// Serves micro-batches for `window_s` seconds; returns the `Done`
    /// latencies (ms).
    fn serve(&mut self, window_s: f64) -> Vec<f64> {
        let batch = self.nodes.len();
        let test = &self.ds.splits.test;
        let run = &mut self.run;
        let mut lat = Vec::new();
        let start = Instant::now();
        while lat.is_empty() || secs(start) < window_s {
            let now = self.core.now_ns();
            for (i, node) in self.nodes.iter_mut().enumerate() {
                *node = test[self.rng.random_range(0..test.len())];
                let req = Request {
                    id: (run.sent + i) as u64,
                    node: *node,
                    deadline_ns: now + BUDGET_NS,
                };
                if self.core.submit(req).is_err() {
                    run.lost += 1;
                }
            }
            let first = run.sent as u64;
            run.sent += batch;
            let mut seen = vec![0u8; batch];
            while self.core.pending() > 0 {
                for (id, resp) in self.core.step().responses {
                    let Some(i) = id
                        .checked_sub(first)
                        .map(|i| i as usize)
                        .filter(|&i| i < batch)
                    else {
                        run.misaccounted += 1;
                        continue;
                    };
                    seen[i] += 1;
                    match resp {
                        Response::Done {
                            class, latency_ns, ..
                        } => {
                            run.done += 1;
                            lat.push(latency_ns as f64 / 1e6);
                            run.correct +=
                                usize::from(class == self.ds.labels[self.nodes[i] as usize]);
                        }
                        Response::Failed => {
                            run.failed += 1;
                            run.lost += 1;
                        }
                        _ => run.lost += 1,
                    }
                }
            }
            // Refused requests get no step response; every admitted one
            // gets one.
            run.misaccounted += seen.iter().filter(|&&n| n > 1).count();
        }
        lat
    }
}

impl ClosedRun {
    /// Median request latency with host steal taken out (ms): with every
    /// request of a micro-batch submitted together, the service time of a
    /// full micro-batch.
    pub fn p50_ms(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// Completed requests per second over the measured windows.
    pub fn rps(&self) -> f64 {
        self.lat_ms.len() as f64 / self.elapsed_s
    }

    /// Output checks: every request answered exactly once, none failed with
    /// fault injection off, and answers at least `floor` accurate.
    pub fn check(&self, floor: f64, failures: &mut Vec<String>) {
        if self.misaccounted != 0 || self.sent != self.done + self.lost {
            failures.push(format!(
                "serve: sent {} != done {} + lost {} ({} misaccounted)",
                self.sent, self.done, self.lost, self.misaccounted
            ));
        }
        if self.failed != 0 {
            failures.push(format!(
                "serve: {} requests failed with fault injection off",
                self.failed
            ));
        }
        let acc = self.correct as f64 / self.done.max(1) as f64;
        if acc < floor {
            failures.push(format!(
                "serve: accuracy of served answers {acc:.4} below the floor {floor}"
            ));
        }
    }
}

/// Outcome of one open-loop phase.
#[derive(Clone, Debug, Default)]
pub struct LoadPhase {
    /// Latency of each `Done` response from its due instant to the server's
    /// completion stamp (ms).
    pub lat_ms: Vec<f64>,
    /// How late the generator called `submit`, per request (ms).
    pub gen_late_ms: Vec<f64>,
    /// Duration of each `Server::submit` call (µs).
    pub submit_us: Vec<f64>,
    /// Requests sent.
    pub sent: usize,
    /// `Done` responses.
    pub done: usize,
    /// Refused at admission.
    pub rejected: usize,
    /// Admitted but expired.
    pub expired: usize,
    /// Failed inside the server.
    pub failed: usize,
    /// `Done` responses whose class matches the node's label.
    pub correct: usize,
    /// `Done` responses computed below full fanout.
    pub degraded: usize,
    /// `Done` responses within [`BUDGET_NS`] of their due instant.
    pub within_limit: usize,
    /// Length of the arrival schedule (s).
    pub span_s: f64,
}

impl LoadPhase {
    /// Failed or refused requests.
    pub fn lost(&self) -> usize {
        self.rejected + self.expired + self.failed
    }

    /// In-limit responses per second of the schedule.
    pub fn goodput_rps(&self) -> f64 {
        self.within_limit as f64 / self.span_s
    }
}

/// Sleeps, then yields, until the clock reads `due`.
fn wait_until(clock: &Clock, due: u64) {
    loop {
        let now = clock.now_ns();
        if now >= due {
            return;
        }
        if due - now > 300_000 {
            std::thread::sleep(Duration::from_nanos(due - now - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends `arrivals` open-loop from the calling thread (each request at its
/// due instant, however late the previous one went out), then collects
/// every response.
fn open_loop(
    server: &Server,
    clock: &Clock,
    ds: &Dataset,
    arrivals: &[Arrival],
    span_ns: u64,
) -> LoadPhase {
    let test = &ds.splits.test;
    let mut phase = LoadPhase {
        sent: arrivals.len(),
        span_s: span_ns as f64 / 1e9,
        ..LoadPhase::default()
    };
    let mut tickets = Vec::with_capacity(arrivals.len());
    let start = clock.now_ns();
    for a in arrivals {
        let due = start + a.at_ns;
        wait_until(clock, due);
        let node: NodeId = test[a.node as usize];
        let t_call = clock.now_ns();
        let res = server.submit(node, due + a.budget_ns);
        let t_ret = clock.now_ns();
        phase.gen_late_ms.push((t_call - due) as f64 / 1e6);
        phase.submit_us.push((t_ret - t_call) as f64 / 1e3);
        match res {
            Ok(ticket) => tickets.push((ticket, node, due, t_ret)),
            Err(_) => phase.rejected += 1,
        }
    }
    for (ticket, node, due, t_ret) in tickets {
        match ticket.wait() {
            Response::Done {
                class,
                latency_ns,
                fanout_level,
            } => {
                // The server stamps admission inside `submit`, so
                // `t_ret + latency` is its completion stamp to within the
                // admission bookkeeping.
                let from_due = t_ret - due + latency_ns;
                phase.done += 1;
                phase.lat_ms.push(from_due as f64 / 1e6);
                phase.correct += usize::from(class == ds.labels[node as usize]);
                phase.degraded += usize::from(fanout_level > 0);
                phase.within_limit += usize::from(from_due <= BUDGET_NS);
            }
            Response::Rejected(_) => phase.rejected += 1,
            Response::Expired(_) => phase.expired += 1,
            Response::Failed => phase.failed += 1,
        }
    }
    phase
}

fn arrivals(ds: &Dataset, seed: u64, window: u64, heavy: bool, span_ns: u64) -> Vec<Arrival> {
    let rate = if heavy { HEAVY_RPS } else { LIGHT_RPS };
    poisson_trace(
        mix(seed, 16 + 2 * window + u64::from(heavy)),
        rate,
        span_ns,
        ds.splits.test.len(),
        BUDGET_NS,
    )
}

/// One light and one heavy phase per window, against one threaded server.
pub struct ServeRun {
    /// Light phases, one per window.
    pub light: Vec<LoadPhase>,
    /// Heavy phases, one per window.
    pub heavy: Vec<LoadPhase>,
}

/// Starts a `Server` around the served model and runs `windows` windows of
/// [`LIGHT_S`] seconds at [`LIGHT_RPS`] then [`HEAVY_S`] seconds at
/// [`HEAVY_RPS`], each phase drained before the next starts.
pub fn run_windows(ds: &Arc<Dataset>, seed: u64, ck: &Checkpoint, windows: usize) -> ServeRun {
    let core = ServerCore::new(
        model(ds, seed, ck),
        Arc::clone(ds),
        serve_config(seed),
        Trace::disabled(),
    );
    let server = Server::start(core);
    let clock = server.with_core(|c| c.clock());
    let mut run = ServeRun {
        light: Vec::new(),
        heavy: Vec::new(),
    };
    for w in 0..windows as u64 {
        for (heavy, secs) in [(false, LIGHT_S), (true, HEAVY_S)] {
            let span_ns = (secs * 1e9) as u64;
            let trace = arrivals(ds, seed, w, heavy, span_ns);
            let phase = open_loop(&server, &clock, ds, &trace, span_ns);
            eprintln!(
                "serve window {w} {}: sent {} done {} rejected {} expired {} p50 {:.3} ms p99 {:.3} ms gen-late p99 {:.3} ms",
                if heavy { "heavy" } else { "light" },
                phase.sent,
                phase.done,
                phase.rejected,
                phase.expired,
                if phase.lat_ms.is_empty() { f64::NAN } else { p50(&phase) },
                if phase.lat_ms.is_empty() { f64::NAN } else { p99(&phase) },
                percentile(&phase.gen_late_ms, 0.99),
            );
            if heavy {
                run.heavy.push(phase)
            } else {
                run.light.push(phase)
            }
        }
    }
    server.shutdown();
    run
}

/// Median over windows of a per-phase statistic.
pub fn median_of(phases: &[LoadPhase], f: impl Fn(&LoadPhase) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

impl ServeRun {
    /// `(sent, lost)` over every phase.
    pub fn totals(&self) -> (usize, usize) {
        self.light
            .iter()
            .chain(&self.heavy)
            .fold((0, 0), |(s, l), p| (s + p.sent, l + p.lost()))
    }

    /// Output checks: every request accounted for exactly once, no server
    /// failures, and `Done` answers at least `floor` accurate.
    pub fn check(&self, floor: f64, failures: &mut Vec<String>) {
        let (mut done, mut correct) = (0, 0);
        for p in self.light.iter().chain(&self.heavy) {
            if p.sent != p.done + p.rejected + p.expired + p.failed {
                failures.push(format!(
                    "serve: sent {} != done {} + rejected {} + expired {} + failed {}",
                    p.sent, p.done, p.rejected, p.expired, p.failed
                ));
            }
            if p.failed != 0 {
                failures.push(format!(
                    "serve: {} requests failed with fault injection off",
                    p.failed
                ));
            }
            if p.lat_ms.is_empty() {
                failures.push("serve: a phase completed no request".into());
            }
            done += p.done;
            correct += p.correct;
        }
        let acc = correct as f64 / done.max(1) as f64;
        if acc < floor {
            failures.push(format!(
                "serve: accuracy of served answers {acc:.4} below the floor {floor}"
            ));
        }
    }
}

/// p50 of a phase's latencies (ms).
pub fn p50(p: &LoadPhase) -> f64 {
    percentile(&p.lat_ms, 0.50)
}

/// p99 of a phase's latencies (ms).
pub fn p99(p: &LoadPhase) -> f64 {
    percentile(&p.lat_ms, 0.99)
}

/// Figures from replaying a heavy arrival trace into `ServerCore::step`.
pub struct StepReplay {
    /// Requests per micro-batch that ran.
    pub batch_size: f64,
    /// Requests sent.
    pub sent: usize,
}

/// Drives a `ServerCore` on the calling thread through one heavy-phase
/// arrival trace on the real clock: admits every arrival that is due, then
/// runs one `step` under a `serve.step` span.
pub fn step_replay(
    ds: &Arc<Dataset>,
    seed: u64,
    ck: &Checkpoint,
    rec: &mut Recorder,
) -> StepReplay {
    let mut core = ServerCore::new(
        model(ds, seed, ck),
        Arc::clone(ds),
        serve_config(seed),
        Trace::disabled(),
    );
    let clock = core.clock();
    let span_ns = (HEAVY_S * 1e9) as u64;
    let trace = arrivals(ds, seed, 0, true, span_ns);
    let test = &ds.splits.test;
    let start = clock.now_ns();
    let (mut next, mut sizes) = (0, Vec::new());
    loop {
        let now = clock.now_ns();
        while next < trace.len() && start + trace[next].at_ns <= now {
            let a = trace[next];
            let req = Request {
                id: next as u64,
                node: test[a.node as usize],
                deadline_ns: start + a.at_ns + a.budget_ns,
            };
            let _ = core.submit(req);
            next += 1;
        }
        if core.pending() > 0 {
            let bid = sizes.len() as u64;
            let out = rec.time("serve", "serve.step", bid, || core.step());
            if out.ran_batch {
                sizes.push(out.responses.len() as f64);
            }
        } else if next < trace.len() {
            wait_until(&clock, start + trace[next].at_ns);
        } else {
            break;
        }
    }
    StepReplay {
        batch_size: sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
        sent: trace.len(),
    }
}
