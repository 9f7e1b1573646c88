//! The traced run's per-layer breakdown.
//!
//! Spans the actors recorded around `seal`, `open`, `Replica::on_message`
//! and the client votes cover the wall time of the traced phase; whatever
//! they do not cover is `harness.other_us_per_op` (the simulator, the
//! workload scripts, allocation between calls), so the parts add up to the
//! traced op time. Inside `on_message`, the committed history is replayed
//! through a fresh `PeatsService` (and, on `work_queue`, a fresh
//! `DurableStore`) to split the replica's time into service and log work;
//! the service time is split again into `ReferenceMonitor::permits` over a
//! shadow `SequentialSpace` plus the space operation itself.

use crate::cluster::{self, Bench, N};
use crate::stats::{Counters, Span, Stats};
use crate::Outcome;
use peats_policy::{Invocation, OpCall, Policy, PolicyParams, ReferenceMonitor};
use peats_replication::replica::DEFAULT_CHECKPOINT_INTERVAL;
use peats_replication::{
    DurableStore, OpResult, PeatsService, ReplicaId, Request, RequestOp, Seq, WaitKind,
};
use peats_tuplespace::{SequentialSpace, Template};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Times each sampled body is signed and verified again for `auth.*`.
const MAC_REPEATS: usize = 4;

/// Counter snapshot at the start of the traced phase.
pub struct Tracer {
    counters: Counters,
    start: Instant,
}

/// What the traced phase did.
pub struct TraceSpan {
    /// Counter deltas over the phase.
    pub c: Counters,
    /// Wall nanoseconds of the phase.
    pub wall_ns: u64,
    /// Operations decided in the phase (invocations on `universal_log`).
    pub decided: u64,
    /// Highest view any replica reached (0: no view change).
    pub max_view: u64,
}

impl TraceSpan {
    /// Adds another phase of the same run (the epochs of `universal_log`).
    pub fn absorb(&mut self, other: &TraceSpan) {
        self.c = self.c.plus(&other.c);
        self.wall_ns += other.wall_ns;
        self.decided += other.decided;
        self.max_view = self.max_view.max(other.max_view);
    }
}

impl Tracer {
    /// Snapshots the counters; accepted reads recorded so far (set-up
    /// traffic) are dropped, so the replay times only the phase's reads.
    pub fn start(bench: &Bench) -> Tracer {
        let mut stats = bench.stats.borrow_mut();
        stats.reads.clear();
        Tracer {
            counters: stats.c,
            start: Instant::now(),
        }
    }

    /// Closes the phase after `decided` operations.
    pub fn finish(self, bench: &Bench, decided: u64) -> TraceSpan {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let c = bench.stats.borrow().c.since(&self.counters);
        let max_view = (0..N as ReplicaId)
            .map(|id| bench.replica(id).view())
            .max()
            .unwrap_or(0);
        TraceSpan {
            c,
            wall_ns,
            decided,
            max_view,
        }
    }
}

/// The layer replay's inputs.
pub struct ReplayInput<'a> {
    /// Deployed policy.
    pub policy: &'a Policy,
    /// Its parameters.
    pub params: &'a PolicyParams,
    /// Every committed batch since the empty state.
    pub history: &'a BTreeMap<Seq, Vec<Request>>,
    /// Accepted fast reads of the traced phase.
    pub reads: &'a [(Seq, u64, OpCall<'static>)],
    /// Batches at or below this slot are set-up: executed, not timed.
    pub timed_from: Seq,
    /// A fresh directory to replay the write-ahead log into, on durable
    /// workloads.
    pub wal_dir: Option<&'a Path>,
}

/// Costs measured by the replay (one replica's worth of execution).
#[derive(Debug, Default)]
pub struct Replay {
    /// Nanoseconds in `PeatsService::execute`/`register`/`execute_read`.
    pub service_ns: u64,
    /// Nanoseconds in `ReferenceMonitor::permits`.
    pub policy_ns: u64,
    /// Nanoseconds in the shadow space's operations.
    pub space_ns: u64,
    /// Checkpoint-boundary state roots computed, and their time.
    pub state_roots: u64,
    /// Nanoseconds in `SequentialSpace::state_root`.
    pub state_root_ns: u64,
    /// Tuples in the space at the end.
    pub len_end: usize,
    /// Batches appended to the replayed log, and their time.
    pub wal_batches: u64,
    /// Nanoseconds in `DurableStore::append_batch` + `sync`.
    pub wal_ns: u64,
    /// Requests in the appended batches.
    pub wal_ops: u64,
    /// Log bytes written.
    pub wal_bytes: u64,
}

impl Replay {
    /// Adds the replay of another phase of the same run.
    pub fn absorb(&mut self, other: &Replay) {
        self.service_ns += other.service_ns;
        self.policy_ns += other.policy_ns;
        self.space_ns += other.space_ns;
        self.state_roots += other.state_roots;
        self.state_root_ns += other.state_root_ns;
        self.len_end = other.len_end;
        self.wal_batches += other.wal_batches;
        self.wal_ns += other.wal_ns;
        self.wal_ops += other.wal_ops;
        self.wal_bytes += other.wal_bytes;
    }
}

/// Maps blocking calls to their nonblocking forms, as the service does.
fn nonblocking<'a>(op: &'a OpCall<'a>) -> OpCall<'a> {
    match op {
        OpCall::Rd(t) => OpCall::rdp(t.as_ref()),
        OpCall::In(t) => OpCall::inp(t.as_ref()),
        other => other.as_borrowed(),
    }
}

fn apply(space: &mut SequentialSpace, op: &OpCall<'_>) {
    match op {
        OpCall::Out(t) => space.out(t.clone().into_owned()),
        OpCall::Rdp(t) | OpCall::Rd(t) => drop(space.peek(t)),
        OpCall::Inp(t) | OpCall::In(t) => drop(space.inp(t)),
        OpCall::Count(t) => drop(space.count(t)),
        OpCall::Cas(t, e) => drop(space.cas(t, e.clone().into_owned())),
    }
}

struct Replayer {
    service: PeatsService,
    monitor: ReferenceMonitor,
    shadow: SequentialSpace,
    /// Parked `take` registrations `(pid, req_id)`: their wakes consume a
    /// tuple the shadow space holds.
    takes: BTreeSet<(u64, u64)>,
    costs: Replay,
}

impl Replayer {
    /// Executes one call, then splits it into policy and space work.
    fn call(&mut self, client: u64, op: &OpCall<'_>, timed: bool) {
        let span = Span::start(timed);
        let _ = self.service.execute(client, op);
        self.costs.service_ns += span.ns();
        let op = nonblocking(op);
        let span = Span::start(timed);
        let permitted = self
            .monitor
            .permits(&Invocation::new(client, op.as_borrowed()), &self.shadow)
            .is_ok();
        self.costs.policy_ns += span.ns();
        if permitted {
            let span = Span::start(timed);
            apply(&mut self.shadow, &op);
            self.costs.space_ns += span.ns();
        }
    }

    fn register(
        &mut self,
        req: &Request,
        template: &Template,
        kind: WaitKind,
        persistent: bool,
        timed: bool,
    ) {
        let span = Span::start(timed);
        let _ = self
            .service
            .register(req.client, req.req_id, template, kind, persistent);
        self.costs.service_ns += span.ns();
        let probe = match kind {
            WaitKind::Rd => OpCall::rdp(template),
            WaitKind::Take => OpCall::inp(template),
        };
        let span = Span::start(timed);
        let permitted = self
            .monitor
            .permits(
                &Invocation::new(req.client, probe.as_borrowed()),
                &self.shadow,
            )
            .is_ok();
        self.costs.policy_ns += span.ns();
        if permitted && !persistent {
            let span = Span::start(timed);
            let immediate = match kind {
                WaitKind::Rd => self.shadow.peek(template).cloned(),
                WaitKind::Take => self.shadow.inp(template),
            };
            self.costs.space_ns += span.ns();
            if immediate.is_none() && kind == WaitKind::Take {
                self.takes.insert((req.client, req.req_id));
            }
        }
    }

    fn read(&mut self, client: u64, op: &OpCall<'_>) {
        let span = Span::start(true);
        let _ = self.service.execute_read(client, op);
        self.costs.service_ns += span.ns();
        let span = Span::start(true);
        let permitted = self
            .monitor
            .permits(&Invocation::new(client, op.as_borrowed()), &self.shadow)
            .is_ok();
        self.costs.policy_ns += span.ns();
        if permitted {
            let span = Span::start(true);
            apply(&mut self.shadow, op);
            self.costs.space_ns += span.ns();
        }
    }

    fn batch(&mut self, seq: Seq, batch: &[Request], timed: bool) {
        for req in batch {
            match &req.op {
                RequestOp::Call(op) => self.call(req.client, op, timed),
                RequestOp::Register {
                    template,
                    kind,
                    persistent,
                } => self.register(req, template, *kind, *persistent, timed),
                RequestOp::Cancel { target } => drop(self.service.cancel(req.client, *target)),
            }
            for wake in self.service.take_wakes() {
                if self.takes.remove(&(wake.client, wake.req_id)) {
                    if let OpResult::Tuple(Some(t)) = &wake.result {
                        self.shadow.inp(&Template::exact(t));
                    }
                }
            }
        }
        if timed && seq.is_multiple_of(DEFAULT_CHECKPOINT_INTERVAL) {
            let span = Span::start(true);
            let _ = self.shadow.state_root();
            self.costs.state_root_ns += span.ns();
            self.costs.state_roots += 1;
        }
    }
}

/// Replays the committed history (and the phase's accepted reads) through
/// fresh layer instances, timing each layer.
///
/// # Errors
///
/// A filesystem error on the replay log directory.
pub fn replay(input: &ReplayInput<'_>) -> std::io::Result<Replay> {
    let mut r = Replayer {
        service: PeatsService::new(input.policy.clone(), input.params.clone())
            .expect("benchmark policy parameters are consistent"),
        monitor: ReferenceMonitor::new(input.policy.clone(), input.params.clone())
            .expect("benchmark policy parameters are consistent"),
        shadow: SequentialSpace::new(),
        takes: BTreeSet::new(),
        costs: Replay::default(),
    };
    let mut store = match input.wal_dir {
        Some(dir) => Some(DurableStore::open(dir, cluster::durable_config())?.0),
        None => None,
    };
    let mut reads = input.reads.iter().peekable();
    for (seq, batch) in input.history {
        // A read answered at execution point `s` saw every batch up to
        // `s`: serve it before the first batch above it.
        while let Some((_, pid, op)) = reads.next_if(|(s, _, _)| s < seq) {
            r.read(*pid, op);
        }
        let timed = *seq > input.timed_from;
        if let (Some(store), true) = (store.as_mut(), timed) {
            let span = Span::start(true);
            store.append_batch(*seq, batch)?;
            store.sync()?;
            r.costs.wal_ns += span.ns();
            r.costs.wal_batches += 1;
            r.costs.wal_ops += batch.len() as u64;
        }
        r.batch(*seq, batch, timed);
    }
    for (_, pid, op) in reads {
        r.read(*pid, op);
    }
    r.costs.len_end = r.service.len();
    if r.shadow.len() != r.costs.len_end {
        eprintln!(
            "layer replay: shadow space holds {} tuples, the service {}",
            r.shadow.len(),
            r.costs.len_end
        );
    }
    if let Some(store) = &store {
        r.costs.wal_bytes = store.metrics().wal_bytes;
    }
    Ok(r.costs)
}

/// `universal_log`'s own counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniversalCounts {
    /// Tuple-space calls the construction made.
    pub space_ops: u64,
    /// Log positions the construction walked.
    pub positions: u64,
}

/// Everything the per-layer report needs.
pub struct LayerInput<'a> {
    /// The traced phase.
    pub span: &'a TraceSpan,
    /// The run's counters (MAC samples, pending high-water mark).
    pub stats: &'a Stats,
    /// Median simulated latency of the decided operations.
    pub ticks_p50: u64,
    /// The layer replay.
    pub replay: &'a Replay,
    /// Snapshot bytes on replica 0's disk at the end (durable workloads).
    pub snapshot_bytes: u64,
    /// Median per-replica restore seconds (durable workloads).
    pub recovery_s: f64,
    /// `universal_log`'s counts.
    pub universal: Option<UniversalCounts>,
}

/// Mean seconds per `sign_for` and per `verify_from` over the run's own
/// sampled bodies.
fn mac_timing(stats: &Stats) -> (f64, f64) {
    let samples = &stats.mac_samples;
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let macs: Vec<_> = samples
        .iter()
        .map(|s| cluster::keys(s.from).sign_for(s.to, &s.body))
        .collect();
    let start = Instant::now();
    for _ in 0..MAC_REPEATS {
        for s in samples {
            std::hint::black_box(cluster::keys(s.from).sign_for(s.to, &s.body));
        }
    }
    let sign = start.elapsed().as_secs_f64() / (MAC_REPEATS * samples.len()) as f64;
    let start = Instant::now();
    for _ in 0..MAC_REPEATS {
        for (s, mac) in samples.iter().zip(&macs) {
            assert!(cluster::keys(s.to).verify_from(s.from, &s.body, mac));
        }
    }
    let verify = start.elapsed().as_secs_f64() / (MAC_REPEATS * samples.len()) as f64;
    (sign, verify)
}

fn per(x: u64, ops: f64) -> f64 {
    x as f64 / ops
}

fn us_per(ns: u64, ops: f64) -> f64 {
    ns as f64 / 1e3 / ops
}

fn ratio(x: u64, y: u64) -> f64 {
    if y == 0 {
        0.0
    } else {
        x as f64 / y as f64
    }
}

/// Pushes every per-layer metric.
pub fn push_metrics(out: &mut Outcome, input: &LayerInput<'_>) {
    let s = input.span;
    let c = &s.c;
    let r = input.replay;
    let ops = s.decided.max(1) as f64;

    out.push("netsim.msgs_per_op", per(c.msgs, ops), "count");
    out.push("netsim.bytes_per_op", per(c.bytes, ops), "B");
    out.push("netsim.sim_ticks_p50", input.ticks_p50 as f64, "ticks");

    out.push("messages.seals_per_op", per(c.seals, ops), "count");
    out.push("messages.seal_us_per_op", us_per(c.seal_ns, ops), "us");
    out.push("messages.opens_per_op", per(c.opens, ops), "count");
    out.push("messages.open_us_per_op", us_per(c.open_ns, ops), "us");
    out.push("messages.open_rejected", c.open_rejected as f64, "count");

    let (sign_s, verify_s) = mac_timing(input.stats);
    out.push("auth.sign_us", sign_s * 1e6, "us");
    out.push("auth.verify_us", verify_s * 1e6, "us");
    let mac_s = c.seals as f64 * sign_s + c.opens as f64 * verify_s;
    out.push("auth.share", mac_s / (s.wall_ns as f64 / 1e9), "ratio");

    // Every replica executes every ordered request and serves every read
    // and, on durable workloads, logs every batch.
    let replayed_ns = N as u64 * (r.service_ns + r.wal_ns);
    out.push(
        "replica.on_message_us_per_op",
        us_per(c.replica_ns, ops),
        "us",
    );
    out.push("replica.calls_per_op", per(c.replica_calls, ops), "count");
    out.push(
        "replica.ops_per_batch",
        ratio(c.batched_requests, c.batches),
        "count",
    );
    out.push(
        "replica.pending_max",
        input.stats.pending_max as f64,
        "count",
    );
    out.push("replica.view_changes", s.max_view as f64, "count");
    out.push(
        "replica.self_us_per_op",
        (c.replica_ns as f64 - replayed_ns as f64) / 1e3 / ops,
        "us",
    );

    out.push("service.execute_us_per_op", us_per(r.service_ns, ops), "us");
    out.push("policy.permits_us_per_op", us_per(r.policy_ns, ops), "us");
    out.push("tuplespace.op_us_per_op", us_per(r.space_ns, ops), "us");
    out.push(
        "tuplespace.state_root_us",
        ratio(r.state_root_ns, r.state_roots) / 1e3,
        "us",
    );
    out.push("tuplespace.len_end", r.len_end as f64, "count");

    out.push(
        "wal.append_us_per_batch",
        ratio(r.wal_ns, r.wal_batches) / 1e3,
        "us",
    );
    out.push("wal.bytes_per_op", ratio(r.wal_bytes, r.wal_ops), "B");
    out.push("wal.snapshot_bytes", input.snapshot_bytes as f64, "B");
    out.push("wal.recovery_s", input.recovery_s, "s");

    out.push("client.on_reply_us_per_op", us_per(c.client_ns, ops), "us");
    out.push(
        "client.replies_per_decision",
        ratio(c.client_replies, c.decisions),
        "count",
    );
    out.push(
        "client.rejected_replies_per_op",
        per(c.rejected_replies, ops),
        "count",
    );
    out.push(
        "client.read_fallbacks_per_1k_reads",
        1e3 * ratio(c.read_fallbacks, c.fast_reads),
        "count",
    );
    out.push("client.retransmits", c.retransmits as f64, "count");

    let u = input.universal.unwrap_or_default();
    out.push(
        "universal.space_ops_per_invoke",
        per(u.space_ops, ops),
        "count",
    );
    out.push(
        "universal.positions_per_invoke",
        per(u.positions, ops),
        "count",
    );

    let op_us = us_per(s.wall_ns, ops);
    let spans_ns = c.seal_ns + c.open_ns + c.replica_ns + c.client_ns;
    out.push("harness.op_us_per_op", op_us, "us");
    out.push(
        "harness.other_us_per_op",
        op_us - us_per(spans_ns, ops),
        "us",
    );
    out.push("harness.ops_per_s", ops / (s.wall_ns as f64 / 1e9), "1/s");
}
