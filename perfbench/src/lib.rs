//! # peats-perfbench
//!
//! One end-to-end benchmark of the replicated PEATS, on one thread: an
//! `f = 1` cluster (four `Replica`s) and its closed-loop clients run as the
//! benchmark's own actors on the deterministic simulator `SimNet`. Three
//! workloads stress different layers (see `README.md` for the map):
//!
//! * `work_queue` — Linda producers and blocking consumers over durable
//!   replicas restarted from disk;
//! * `hot_reads` — `rdp`/`count` on the `f+1` fast path beside a few
//!   writes, voted against one lying replica;
//! * `universal_log` — Alg. 4's wait-free universal construction under the
//!   Fig. 8 policy over a long operation log.
//!
//! A traced run adds span timers around every layer call the actors make
//! and replays the committed history through the service, policy,
//! tuple-space and write-ahead-log layers one at a time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod hot_reads;
pub mod layers;
pub mod stats;
pub mod universal_log;
pub mod work_queue;

use crate::cluster::Bench;
use crate::stats::{median, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Linda job queue over durable replicas.
    WorkQueue,
    /// Fast-path reads beside writes, one Byzantine replica.
    HotReads,
    /// Wait-free universal construction over a long log.
    UniversalLog,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::WorkQueue,
        Workload::HotReads,
        Workload::UniversalLog,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WorkQueue => "work_queue",
            Workload::HotReads => "hot_reads",
            Workload::UniversalLog => "universal_log",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `full()` is the benchmark; `small()` keeps the
/// benchmark's own tests within a few seconds.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// `hot_reads`: set-ups per run (the first builds the timed
    /// cluster); `setup_s` is their median.
    pub setup_reps: usize,
    /// `work_queue`: cluster restarts per run, likewise.
    pub queue_restarts: usize,
    /// `work_queue`: producer/consumer pairs.
    pub queue_pairs: usize,
    /// `work_queue`: jobs per pair in the prior history on disk.
    pub history_jobs: u64,
    /// `work_queue`: low-priority backlog jobs per producer left queued in
    /// the prior history (state the restart must verify and restore).
    pub history_backlog: u64,
    /// `hot_reads`: clients.
    pub read_clients: usize,
    /// `hot_reads`: preloaded working-set tuples.
    pub working_set: u64,
    /// `hot_reads`: channels the working set is spread over.
    pub channels: u64,
    /// `universal_log`: invocations threaded during each epoch's set-up.
    pub log_prefix: u64,
    /// `universal_log`: invocations timed in each epoch.
    pub log_segment: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            setup_reps: 5,
            queue_restarts: 20,
            queue_pairs: 16,
            history_jobs: 100,
            history_backlog: 256,
            read_clients: 16,
            working_set: 4096,
            channels: 256,
            log_prefix: 400,
            log_segment: 400,
        }
    }

    /// Sizes for the benchmark's own tests.
    pub fn small() -> Sizes {
        Sizes {
            setup_reps: 2,
            queue_restarts: 2,
            queue_pairs: 4,
            history_jobs: 40,
            history_backlog: 8,
            read_clients: 4,
            working_set: 128,
            channels: 16,
            log_prefix: 12,
            log_segment: 12,
        }
    }
}

/// How long the timed phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Wall-clock seconds (the benchmark).
    Seconds(f64),
    /// A fixed amount of work per client — per pair for `work_queue`, per
    /// process for `universal_log` — so every count repeats exactly (the
    /// benchmark's own tests).
    Ops(u64),
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: inputs and the simulator's delivery order.
    pub seed: u64,
    /// Timed-phase length.
    pub limit: Limit,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for data directories (removed at the end).
    pub data_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every oracle held.
    pub correct: bool,
    /// Operations attempted in the timed phase (including its drain).
    pub attempted: u64,
    /// Attempted operations that were denied, ran out of steps, or
    /// returned a wrong result.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Oracle failures, for the report.
    pub violations: Vec<String>,
    /// Final state digest of every correct replica.
    pub digests: Vec<peats_auth::Digest>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records an oracle failure.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A filesystem error on the data directory.
pub fn run(cfg: &RunConfig) -> std::io::Result<Outcome> {
    let dir = cfg.data_dir.join(format!(
        "{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let outcome = match cfg.workload {
        Workload::WorkQueue => work_queue::run(cfg, &dir),
        Workload::HotReads => hot_reads::run(cfg, &dir),
        Workload::UniversalLog => universal_log::run(cfg, &dir),
    };
    let cleanup = std::fs::remove_dir_all(&dir);
    let mut outcome = outcome?;
    cleanup?;
    outcome.correct = outcome.violations.is_empty();
    Ok(outcome)
}

/// One closed window of the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct WindowStats {
    /// Operations decided in the window.
    pub ops: u64,
    /// Wall seconds the window lasted.
    pub secs: f64,
    /// Median wall latency.
    pub p50_ns: u64,
    /// 99th-percentile wall latency.
    pub p99_ns: u64,
}

/// Latency samples of the operations decided in the timed phase, kept one
/// window at a time so the benchmark's own memory stays flat however many
/// operations a run decides.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Samples are taken (the timed phase is running).
    pub on: bool,
    /// Wall latencies of the open window.
    window: Vec<u64>,
    /// Closed windows.
    pub windows: Vec<WindowStats>,
    /// Histogram of simulated latency (ticks → operations).
    pub ticks: BTreeMap<u64, u64>,
    /// Operations sampled.
    pub decided: u64,
}

impl Recorder {
    /// Samples one decided operation if the timed phase is running.
    pub fn record(&mut self, latency_ns: u64, ticks: u64) {
        if self.on {
            self.window.push(latency_ns);
            *self.ticks.entry(ticks).or_default() += 1;
            self.decided += 1;
        }
    }

    /// Closes the open window after `secs` wall seconds.
    pub fn close(&mut self, secs: f64) {
        let mut lat = std::mem::take(&mut self.window);
        if lat.is_empty() {
            return;
        }
        lat.sort_unstable();
        self.windows.push(WindowStats {
            ops: lat.len() as u64,
            secs,
            p50_ns: quantile(&lat, 0.50),
            p99_ns: quantile(&lat, 0.99),
        });
        lat.clear();
        self.window = lat;
    }

    /// The `q`-quantile of the simulated latency.
    pub fn ticks_quantile(&self, q: f64) -> u64 {
        let total: u64 = self.ticks.values().sum();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0;
        for (ticks, n) in &self.ticks {
            seen += n;
            if seen >= rank {
                return *ticks;
            }
        }
        0
    }
}

/// Length of one throughput/latency window of the timed phase.
const WINDOW: Duration = Duration::from_millis(1000);
/// A final partial window shorter than this is not reported.
const MIN_WINDOW: Duration = Duration::from_millis(500);
/// Simulator events between clock checks.
const STEPS_PER_CHECK: u32 = 64;

/// What [`windowed`] asks of the workload.
pub enum Tick {
    /// Advance the workload a little.
    Advance,
    /// Close the recorder's window after this many wall seconds.
    Close(f64),
    /// Run one more set-up repetition (not timed as part of the phase).
    Setup,
}

/// Runs a timed phase of `secs` seconds in [`WINDOW`]-long windows, with
/// `setups` set-up repetitions spread evenly through it. Set-up time is
/// kept out of the phase, and the repetitions sample the same machine
/// conditions as the windows do rather than only the run's first seconds.
pub fn windowed(secs: f64, setups: usize, mut tick: impl FnMut(Tick)) {
    let mut timed = 0.0;
    let mut done_setups = 0;
    let mut w_start = Instant::now();
    loop {
        tick(Tick::Advance);
        let now = Instant::now();
        let open = (now - w_start).as_secs_f64();
        let done = timed + open >= secs;
        // A final window shorter than `MIN_WINDOW` is left open: its
        // few samples are never reported.
        if open >= WINDOW.as_secs_f64() || (done && open >= MIN_WINDOW.as_secs_f64()) {
            tick(Tick::Close(open));
            timed += open;
            let due = secs * (done_setups + 1) as f64 / (setups + 1) as f64;
            if !done && done_setups < setups && timed >= due {
                tick(Tick::Setup);
                done_setups += 1;
            }
            w_start = Instant::now();
        }
        if done {
            return;
        }
    }
}

/// Advances a closed-loop workload by a few simulator events.
pub fn advance(bench: &mut Bench) {
    for _ in 0..STEPS_PER_CHECK {
        bench.step();
    }
}

/// The end-to-end timing metrics of a timed phase, each the median over
/// its windows (one slow window — another tenant's burst — then moves no
/// figure): throughput per wall second and wall latency quantiles.
pub fn push_timing(out: &mut Outcome, rec: &Recorder) {
    let w = &rec.windows;
    let rates: Vec<f64> = w.iter().map(|w| w.ops as f64 / w.secs).collect();
    let p50s: Vec<f64> = w.iter().map(|w| w.p50_ns as f64 / 1e3).collect();
    let p99s: Vec<f64> = w.iter().map(|w| w.p99_ns as f64 / 1e3).collect();
    out.push("ops_per_s", median(&rates), "1/s");
    out.push("op_p50_us", median(&p50s), "us");
    out.push("op_p99_us", median(&p99s), "us");
}

/// Runs one set-up step; returns its value and wall seconds.
pub fn timed_setup<T>(step: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = step();
    (value, start.elapsed().as_secs_f64())
}

/// Pushes `setup_s`: the median set-up time.
pub fn push_setup(out: &mut Outcome, times: &[f64]) {
    out.push("setup_s", median(times), "s");
}

/// Peak resident set of this process in MB (`VmHWM`; 0 where the kernel
/// does not report it).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Deterministic 64-bit mixing (SplitMix64 finalizer) for seed-derived
/// inputs.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `len` seed-derived payload bytes for item `key`.
pub fn payload(seed: u64, key: u64, len: usize) -> Vec<u8> {
    let mut state = mix(seed ^ mix(key));
    (0..len)
        .map(|_| {
            state = mix(state);
            state as u8
        })
        .collect()
}
