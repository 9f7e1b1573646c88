//! `hot_reads`: fast-path reads beside writes, voted against a liar.
//!
//! Set-up preloads a working set of tuples `<"K<c>", k, value>` through the
//! ordered path, spread over many channels so that each read touches one
//! short channel bucket. In the timed phase every client runs cycles of
//! eight operations: seven reads — three `rdp` of a preloaded key for each
//! `count` of a channel — on the `f+1` fast path (falling back to the
//! ordered path when no fresh quorum forms), then one ordered write. The
//! writes alternate between an `out` of a new tuple and an `inp` removing
//! the client's previous one, so the space — and the process's memory —
//! stays the same size however long the run. Backup replica 3 runs
//! `FaultMode::CorruptReplies`, so every decision is voted against a
//! replica that lies to clients.

use crate::cluster::{self, Bench, Completion, Op, Script};
use crate::layers::{self, Tracer};
use crate::stats::Stats;
use crate::{Limit, Outcome, Recorder, RunConfig, Tick};
use peats_policy::{parse_policy, OpCall, Policy, PolicyParams};
use peats_replication::{FaultMode, OpResult, ReplicaId, Seq};
use peats_tuplespace::{Field, Template, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::rc::Rc;

/// Anyone may read, insert and remove.
const POLICY: &str = r#"
policy hot_reads() {
  rule Rread: read(_) :- true;
  rule Rout: out(_) :- true;
  rule Rinp: inp(_) :- true;
}
"#;
/// The lying backup.
const LIAR: ReplicaId = 3;
/// Replicas whose digests must agree.
const CORRECT: [ReplicaId; 3] = [0, 1, 2];
/// Operations per client cycle; the last one is the `out`.
const CYCLE: u64 = 8;
/// Value bytes per tuple.
const VALUE_LEN: usize = 24;
/// Simulator events allowed for draining or settling.
const STEP_BUDGET: u64 = 5_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Preload,
    Timed,
    Stopped,
}

/// A `count` whose expected value depends on writes decided later.
struct CountCheck {
    channel: u64,
    seq: Seq,
    ordered: bool,
    count: u64,
}

struct ReadScript {
    clients: u64,
    channels: u64,
    working_set: u64,
    seed: u64,
    phase: Phase,
    preload_next: Vec<u64>,
    rngs: Vec<StdRng>,
    issued: Vec<u64>,
    writes: Vec<u64>,
    /// Each client's tuple from its last `out`, until its `inp` removes it.
    written: Vec<Option<(u64, u64)>>,
    quota: Option<u64>,
    rec: Recorder,
    attempted: u64,
    failed: u64,
    decided: u64,
    /// `(slot, +1 | -1)` of the timed-phase writes not yet folded into
    /// `folded`, per channel.
    writes_at: BTreeMap<u64, Vec<(Seq, i64)>>,
    /// Net writes per channel below every `count` still to be checked.
    folded: BTreeMap<u64, i64>,
    /// Decided operations per client in the timed phase.
    completed: Vec<u64>,
    /// Highest slot each client has seen decided: no later read of that
    /// client can be answered below it.
    seen: Vec<Seq>,
    /// `count`s awaiting the writes that may precede them.
    counts: Vec<CountCheck>,
    /// Per closed window: `counts.len()` and each client's `issued` then.
    marks: VecDeque<(usize, Vec<u64>)>,
    failures: Vec<String>,
}

fn channel_name(channel: u64) -> Value {
    Value::from(format!("K{channel:03}"))
}

impl ReadScript {
    fn new(sizes: &crate::Sizes, seed: u64, quota: Option<u64>) -> Self {
        let clients = sizes.read_clients as u64;
        ReadScript {
            clients,
            channels: sizes.channels,
            working_set: sizes.working_set,
            seed,
            phase: Phase::Preload,
            preload_next: (0..clients).collect(),
            rngs: (0..clients)
                .map(|c| StdRng::seed_from_u64(crate::mix(seed ^ crate::mix(c + 1))))
                .collect(),
            issued: vec![0; clients as usize],
            writes: vec![0; clients as usize],
            written: vec![None; clients as usize],
            quota,
            rec: Recorder::default(),
            attempted: 0,
            failed: 0,
            decided: 0,
            writes_at: BTreeMap::new(),
            folded: BTreeMap::new(),
            completed: vec![0; clients as usize],
            seen: vec![0; clients as usize],
            counts: Vec::new(),
            marks: VecDeque::new(),
            failures: Vec::new(),
        }
    }

    fn tuple(&self, channel: u64, key: u64) -> Tuple {
        Tuple::new(vec![
            channel_name(channel),
            Value::Int(key as i64),
            Value::Bytes(crate::payload(self.seed, key, VALUE_LEN)),
        ])
    }

    /// Preloaded tuples in `channel`.
    fn preloaded_in(&self, channel: u64) -> u64 {
        self.working_set / self.channels + u64::from(channel < self.working_set % self.channels)
    }

    fn next(&mut self, client: usize) -> Option<Op> {
        match self.phase {
            Phase::Preload => {
                let key = self.preload_next[client];
                if key >= self.working_set {
                    return None;
                }
                self.preload_next[client] += self.clients;
                Some(Op::Ordered(OpCall::out(
                    self.tuple(key % self.channels, key),
                )))
            }
            Phase::Timed => {
                let n = self.issued[client];
                if self.quota.is_some_and(|q| n >= q) {
                    return None;
                }
                self.issued[client] += 1;
                self.attempted += 1;
                let rng = &mut self.rngs[client];
                if n % CYCLE == CYCLE - 1 {
                    if let Some((channel, key)) = self.written[client].take() {
                        let t = self.tuple(channel, key);
                        return Some(Op::Ordered(OpCall::inp(Template::exact(&t))));
                    }
                    let key = self.working_set + client as u64 + self.clients * self.writes[client];
                    self.writes[client] += 1;
                    let channel = rng.gen_range(0..self.channels);
                    self.written[client] = Some((channel, key));
                    return Some(Op::Ordered(OpCall::out(self.tuple(channel, key))));
                }
                if rng.gen_range(0..4u32) == 0 {
                    let channel = rng.gen_range(0..self.channels);
                    return Some(Op::Read(OpCall::count(Template::new(vec![
                        Field::exact(channel_name(channel)),
                        Field::any(),
                        Field::any(),
                    ]))));
                }
                let key = rng.gen_range(0..self.working_set);
                Some(Op::Read(OpCall::rdp(Template::new(vec![
                    Field::exact(channel_name(key % self.channels)),
                    Field::exact(Value::Int(key as i64)),
                    Field::formal("v"),
                ]))))
            }
            Phase::Stopped => None,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn check(&mut self, done: Completion) {
        let channel_of = |v: Option<&Value>| match v {
            Some(Value::Str(s)) => s[1..].parse::<u64>().unwrap_or(u64::MAX),
            _ => u64::MAX,
        };
        let template_channel = |t: &Template| match t.get(0) {
            Some(Field::Exact(v)) => channel_of(Some(v)),
            _ => u64::MAX,
        };
        match done.op {
            Op::Ordered(OpCall::Out(entry)) => {
                if done.result != OpResult::Done {
                    return self.fail(format!("out {entry:?} returned {:?}", done.result));
                }
                if self.phase != Phase::Preload {
                    let channel = channel_of(entry.get(0));
                    self.writes_at
                        .entry(channel)
                        .or_default()
                        .push((done.seq, 1));
                }
            }
            Op::Ordered(OpCall::Inp(template)) => {
                let channel = template_channel(&template);
                let expected = template.fields().iter().map(|f| match f {
                    Field::Exact(v) => Some(v.clone()),
                    _ => None,
                });
                let expected: Option<Vec<Value>> = expected.collect();
                if done.result != OpResult::Tuple(expected.map(Tuple::new)) {
                    return self.fail(format!("inp {template:?} returned {:?}", done.result));
                }
                self.writes_at
                    .entry(channel)
                    .or_default()
                    .push((done.seq, -1));
            }
            Op::Read(OpCall::Rdp(template)) => {
                let key = match template.get(1) {
                    Some(Field::Exact(Value::Int(k))) => *k as u64,
                    _ => u64::MAX,
                };
                let expected = OpResult::Tuple(Some(self.tuple(key % self.channels, key)));
                if done.result != expected {
                    self.fail(format!("rdp of key {key} returned {:?}", done.result));
                }
            }
            Op::Read(OpCall::Count(template)) => match done.result {
                OpResult::Count(count) => self.counts.push(CountCheck {
                    channel: template_channel(&template),
                    seq: done.seq,
                    ordered: done.ordered,
                    count,
                }),
                other => self.fail(format!("count {template:?} returned {other:?}")),
            },
            other => self.fail(format!("unexpected operation {other:?}")),
        }
    }

    /// Called at every window close: checks the `count`s every write
    /// before them has been decided for, so the pending list — and the
    /// benchmark's memory — stays small however long the run. A `count`
    /// recorded before a mark is checkable once every client decided an
    /// operation issued after that mark: each client has one operation in
    /// flight, so every write executed before the mark is decided by then.
    fn on_window(&mut self) {
        self.marks
            .push_back((self.counts.len(), self.issued.clone()));
        let mut ready = 0;
        while let Some((len, issued)) = self.marks.front() {
            if !self.completed.iter().zip(issued).all(|(c, i)| c > i) {
                break;
            }
            ready = *len;
            self.marks.pop_front();
        }
        self.check_counts(ready);
    }

    /// Checks the first `n` pending `count`s against the model: the
    /// preloaded tuples of the channel plus the writes executed by the
    /// read's execution point.
    fn check_counts(&mut self, n: usize) {
        for writes in self.writes_at.values_mut() {
            writes.sort_unstable();
        }
        for mark in &mut self.marks {
            mark.0 -= n;
        }
        let counts: Vec<CountCheck> = self.counts.drain(..n).collect();
        for c in counts {
            let writes = self
                .writes_at
                .get(&c.channel)
                .map_or(&[][..], Vec::as_slice);
            let base = self.preloaded_in(c.channel) as i64
                + self.folded.get(&c.channel).copied().unwrap_or(0);
            let sum = |w: &[(Seq, i64)]| w.iter().map(|(_, d)| d).sum::<i64>();
            let before = &writes[..writes.partition_point(|(s, _)| *s < c.seq)];
            let through = &writes[..writes.partition_point(|(s, _)| *s <= c.seq)];
            let at = &through[before.len()..];
            let n = c.count as i64;
            let ok = if c.ordered {
                // An ordered read executes inside its slot's batch: it sees
                // every earlier slot, and any part of its own.
                let below = base + sum(before);
                let lo = below + at.iter().map(|(_, d)| (*d).min(0)).sum::<i64>();
                let hi = below + at.iter().map(|(_, d)| (*d).max(0)).sum::<i64>();
                (lo..=hi).contains(&n)
            } else {
                n == base + sum(through)
            };
            if !ok {
                self.fail(format!(
                    "count of channel {} at seq {} returned {n}",
                    c.channel, c.seq
                ));
            }
        }
        // Writes below every pending and every future read are folded.
        let floor = self
            .counts
            .iter()
            .map(|c| c.seq)
            .chain(self.seen.iter().copied())
            .min()
            .unwrap_or(0);
        for (channel, writes) in &mut self.writes_at {
            let below = writes.partition_point(|(s, _)| *s < floor);
            *self.folded.entry(*channel).or_default() +=
                writes.drain(..below).map(|(_, d)| d).sum::<i64>();
        }
    }
}

impl Script for ReadScript {
    fn complete(&mut self, client: usize, done: Completion) -> Option<Op> {
        if self.phase != Phase::Preload {
            self.rec.record(done.latency_ns, done.ticks);
            self.decided += 1;
            self.completed[client] += 1;
            self.seen[client] = self.seen[client].max(done.seq);
        }
        self.check(done);
        self.next(client)
    }
}

fn policy() -> (Policy, PolicyParams) {
    (
        parse_policy(POLICY).expect("the hot-reads policy parses"),
        PolicyParams::new(),
    )
}

fn kick(bench: &mut Bench, script: &Rc<RefCell<ReadScript>>, clients: usize) {
    for client in 0..clients {
        let op = script.borrow_mut().next(client);
        if let Some(op) = op {
            bench.begin(client, op);
        }
    }
}

/// Builds a fresh cluster and preloads the working set through it.
fn set_up(cfg: &RunConfig, pids: &[u64], out: &mut Outcome) -> (Bench, Rc<RefCell<ReadScript>>) {
    let (policy, params) = policy();
    let replicas = cluster::fresh_replicas(&policy, &params, pids);
    let quota = match cfg.limit {
        Limit::Ops(n) => Some(n),
        Limit::Seconds(_) => None,
    };
    let script = Rc::new(RefCell::new(ReadScript::new(&cfg.sizes, cfg.seed, quota)));
    let mut bench = Bench::new(
        replicas,
        pids,
        0,
        cfg.seed,
        script.clone(),
        Stats::shared(cfg.trace),
    );
    bench.set_fault(LIAR, FaultMode::CorruptReplies);
    kick(&mut bench, &script, pids.len());
    if !bench.drain(STEP_BUDGET) || script.borrow().failed > 0 {
        out.violate(format!(
            "the preload did not complete cleanly: {:?}",
            script.borrow().failures
        ));
    }
    (bench, script)
}

/// Runs the workload.
///
/// # Errors
///
/// None today (the workload keeps no data on disk).
pub fn run(cfg: &RunConfig, _dir: &Path) -> std::io::Result<Outcome> {
    let pids: Vec<u64> = (0..cfg.sizes.read_clients as u64).collect();
    let mut out = Outcome::default();
    let ((mut bench, script), first) = crate::timed_setup(|| set_up(cfg, &pids, &mut out));
    let mut setup_times = vec![first];
    let timed_from = bench.replica(0).last_exec();

    let tracer = Tracer::start(&bench);
    {
        let mut s = script.borrow_mut();
        s.phase = Phase::Timed;
        s.rec.on = true;
    }
    kick(&mut bench, &script, pids.len());
    match cfg.limit {
        Limit::Seconds(secs) => {
            let setups = if cfg.trace {
                0
            } else {
                cfg.sizes.setup_reps - 1
            };
            crate::windowed(secs, setups, |tick| match tick {
                Tick::Advance => crate::advance(&mut bench),
                Tick::Close(secs) => {
                    let mut s = script.borrow_mut();
                    s.rec.close(secs);
                    s.on_window();
                }
                Tick::Setup => bench.paused(|| {
                    let (spare, time) = crate::timed_setup(|| set_up(cfg, &pids, &mut out));
                    setup_times.push(time);
                    drop(spare);
                }),
            });
            let mut s = script.borrow_mut();
            s.phase = Phase::Stopped;
            s.rec.on = false;
            drop(s);
            bench.drain(STEP_BUDGET);
        }
        Limit::Ops(_) => {
            let start = std::time::Instant::now();
            bench.drain(STEP_BUDGET);
            let secs = start.elapsed().as_secs_f64();
            script.borrow_mut().rec.close(secs);
        }
    }
    let busy = bench.busy_clients() as u64;
    let span = tracer.finish(&bench, script.borrow().decided);

    {
        let mut s = script.borrow_mut();
        let pending = s.counts.len();
        s.check_counts(pending);
        out.attempted = s.attempted;
        out.failed = s.failed + busy;
        for f in &s.failures {
            eprintln!("hot_reads: failed op: {f}");
        }
    }
    bench.settle(&CORRECT, STEP_BUDGET);
    out.digests = CORRECT
        .iter()
        .map(|id| bench.replica(*id).state_digest())
        .collect();
    if out.digests.windows(2).any(|w| w[0] != w[1]) {
        out.violate("correct replicas ended on different state digests");
    }

    if cfg.trace {
        let (policy, params) = policy();
        let stats = Rc::clone(&bench.stats);
        let s = stats.borrow();
        let replay = layers::replay(&layers::ReplayInput {
            policy: &policy,
            params: &params,
            history: &s.history,
            reads: &s.reads,
            timed_from,
            wal_dir: None,
        })?;
        layers::push_metrics(
            &mut out,
            &layers::LayerInput {
                span: &span,
                stats: &s,
                ticks_p50: script.borrow().rec.ticks_quantile(0.5),
                replay: &replay,
                snapshot_bytes: 0,
                recovery_s: 0.0,
                universal: None,
            },
        );
    } else {
        crate::push_setup(&mut out, &setup_times);
        crate::push_timing(&mut out, &script.borrow().rec);
        out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    }
    Ok(out)
}
