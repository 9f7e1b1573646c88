//! `universal_log`: Alg. 4's wait-free universal construction over the
//! replicated space.
//!
//! `n = 4` processes take turns invoking a `WaitFreeUniversal<KvStore>`
//! under the Fig. 8 policy. Each process reaches the cluster through a
//! benchmark `TupleSpace` handle that runs the simulator until its call
//! decides: `rdp`/`count` take the fast path, `out`, `cas` and `inp` are
//! ordered. Set-up threads a fixed prefix of the log, so the timed phase
//! runs against a long log: Fig. 8's `cas` rule evaluates nested `exists`
//! over the SEQ channel and Alg. 4's `rdp(<"SEQ", pos, ?x>)` scans that
//! same channel, so policy and tuple-space work grow with the log.
//!
//! The run is a sequence of epochs, each a fresh cluster: set-up threads
//! the prefix, then a fixed segment of rounds is timed.

use crate::cluster::{self, Bench, Completion, Op, Script, N};
use crate::layers::{self, Replay, TraceSpan, Tracer, UniversalCounts};
use crate::stats::Stats;
use crate::{Limit, Outcome, Recorder, RunConfig};
use peats::{SpaceError, SpaceResult, TupleSpace};
use peats_policy::{Decision, OpCall, Policy, PolicyParams, ProcessId};
use peats_replication::{OpResult, ReplicaId};
use peats_tuplespace::{CasOutcome, Field, Template, Tuple, Value};
use peats_universal::objects::KvStore;
use peats_universal::{ObjectType, WaitFreeUniversal, SEQ};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

/// Processes sharing the object (Fig. 8's `n`).
const PROCESSES: usize = 4;
/// Keys the store's invocations draw from.
const KEYS: i64 = 32;
/// Simulator events one space call may take.
const CALL_BUDGET: u64 = 2_000_000;
/// Simulator events allowed for settling.
const STEP_BUDGET: u64 = 5_000_000;

/// Collects each client's decision for the handle waiting on it.
struct Inbox {
    done: Vec<Option<Completion>>,
}

impl Script for Inbox {
    fn complete(&mut self, client: usize, done: Completion) -> Option<Op> {
        self.done[client] = Some(done);
        None
    }
}

/// SEQ positions kept to check reads against their inserts.
const RECENT: i64 = 1024;

/// The oracle, fed as the handles see SEQ inserts and reads: the log must
/// grow gap-free from position 1, thread each invocation once, and every
/// reply must equal a sequential `KvStore` applied in position order. It
/// keeps O(1) state, so the benchmark's memory does not grow with the run.
struct LogView {
    /// The position the next insert must take.
    next_pos: i64,
    /// Invocations at the most recent positions.
    recent: BTreeMap<i64, Value>,
    /// The sequential model, applied through `next_pos - 1`.
    model: <KvStore as ObjectType>::State,
    /// Threaded but not yet returned: `(pid, stamp) → (payload, reply)`.
    pending: BTreeMap<(u64, i64), (Value, Value)>,
    /// Highest returned stamp per process.
    returned: BTreeMap<u64, i64>,
    violations: Vec<String>,
    space_ops: u64,
    positions: u64,
}

impl LogView {
    fn new() -> LogView {
        LogView {
            next_pos: 1,
            recent: BTreeMap::new(),
            model: KvStore.initial(),
            pending: BTreeMap::new(),
            returned: BTreeMap::new(),
            violations: Vec::new(),
            space_ops: 0,
            positions: 0,
        }
    }

    fn violate(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    fn inserted(&mut self, pos: i64, inv: Value) {
        if pos != self.next_pos {
            self.violate(format!(
                "SEQ position {pos} was inserted where {} was next",
                self.next_pos
            ));
        }
        self.next_pos = self.next_pos.max(pos + 1);
        self.recent.insert(pos, inv.clone());
        self.recent = self.recent.split_off(&(pos - RECENT));
        let Some([payload, Value::Int(pid), Value::Int(stamp)]) = inv.as_list() else {
            return self.violate(format!("an unstamped invocation was threaded: {inv:?}"));
        };
        let who = (*pid as u64, *stamp);
        let done = self.returned.get(&who.0).is_some_and(|s| *s >= who.1);
        if done || self.pending.contains_key(&who) {
            return self.violate(format!("invocation {who:?} was threaded more than once"));
        }
        let (model, reply) = KvStore.apply(&self.model, payload);
        self.model = model;
        self.pending.insert(who, (payload.clone(), reply));
    }

    fn read(&mut self, pos: i64, inv: &Value) {
        if self.recent.get(&pos) != Some(inv) {
            self.violate(format!(
                "a read of SEQ position {pos} disagrees with its insert"
            ));
        }
    }

    /// Checks a returned invocation; `false` when its reply is wrong.
    fn returned(&mut self, who: (u64, i64), inv: &Value, reply: &Value) -> bool {
        self.returned.insert(who.0, who.1);
        match self.pending.remove(&who) {
            Some((payload, model)) if payload == *inv => {
                if *reply != model {
                    eprintln!(
                        "universal_log: {who:?} replied {reply:?}, the sequential model {model:?}"
                    );
                }
                *reply == model
            }
            Some(_) => {
                self.violate(format!("invocation {who:?} was threaded altered"));
                true
            }
            None => {
                self.violate(format!(
                    "invocation {who:?} returned but was never threaded"
                ));
                true
            }
        }
    }
}

/// The cluster and the oracle's view, shared by the processes' handles.
struct World {
    bench: Bench,
    inbox: Rc<RefCell<Inbox>>,
    view: LogView,
}

/// One process's `TupleSpace` over the simulated cluster.
struct Handle {
    world: Rc<RefCell<World>>,
    client: usize,
    pid: u64,
}

fn denied(detail: String) -> SpaceError {
    SpaceError::Denied(Decision::Denied {
        attempts: vec![("replicated".into(), detail)],
    })
}

fn unexpected(result: &OpResult) -> SpaceError {
    SpaceError::Unavailable(format!("unexpected result {result:?}"))
}

/// The position a `<"SEQ", pos, _>` template or tuple names.
fn seq_pos(fields: &[Value]) -> Option<i64> {
    match fields {
        [Value::Str(tag), Value::Int(pos), _] if tag == SEQ => Some(*pos),
        _ => None,
    }
}

fn seq_template_pos(template: &Template) -> Option<i64> {
    match template.fields() {
        [Field::Exact(Value::Str(tag)), Field::Exact(Value::Int(pos)), _] if tag == SEQ => {
            Some(*pos)
        }
        _ => None,
    }
}

impl Handle {
    fn call(&self, op: Op) -> SpaceResult<OpResult> {
        let mut d = self.world.borrow_mut();
        d.view.space_ops += 1;
        d.bench.begin(self.client, op);
        for _ in 0..CALL_BUDGET {
            let done = d.inbox.borrow_mut().done[self.client].take();
            if let Some(done) = done {
                return Ok(done.result);
            }
            d.bench.step();
        }
        Err(SpaceError::Unavailable("step budget exhausted".into()))
    }
}

impl TupleSpace for Handle {
    fn out(&self, entry: Tuple) -> SpaceResult<()> {
        match self.call(Op::Ordered(OpCall::out(entry)))? {
            OpResult::Done => Ok(()),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(unexpected(&other)),
        }
    }

    fn rdp(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        let pos = seq_template_pos(template);
        if pos.is_some() {
            self.world.borrow_mut().view.positions += 1;
        }
        match self.call(Op::Read(OpCall::rdp(template.clone())))? {
            OpResult::Tuple(t) => {
                if let (Some(pos), Some(t)) = (pos, &t) {
                    let inv = t.get(2).cloned().unwrap_or(Value::Null);
                    self.world.borrow_mut().view.read(pos, &inv);
                }
                Ok(t)
            }
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(unexpected(&other)),
        }
    }

    fn inp(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        match self.call(Op::Ordered(OpCall::inp(template.clone())))? {
            OpResult::Tuple(t) => Ok(t),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(unexpected(&other)),
        }
    }

    fn cas(&self, template: &Template, entry: Tuple) -> SpaceResult<CasOutcome> {
        let pos = seq_pos(entry.fields());
        let inv = entry.get(2).cloned().unwrap_or(Value::Null);
        match self.call(Op::Ordered(OpCall::cas(template.clone(), entry)))? {
            OpResult::Cas {
                inserted: true,
                found: None,
            } => {
                if let Some(pos) = pos {
                    self.world.borrow_mut().view.inserted(pos, inv);
                }
                Ok(CasOutcome::Inserted)
            }
            OpResult::Cas {
                inserted: false,
                found: Some(t),
            } => Ok(CasOutcome::Found(t)),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(unexpected(&other)),
        }
    }

    fn rd(&self, _template: &Template) -> SpaceResult<Tuple> {
        Err(SpaceError::Unavailable(
            "the universal construction issues no blocking reads".into(),
        ))
    }

    fn take(&self, _template: &Template) -> SpaceResult<Tuple> {
        Err(SpaceError::Unavailable(
            "the universal construction issues no blocking takes".into(),
        ))
    }

    fn count(&self, template: &Template) -> SpaceResult<usize> {
        match self.call(Op::Read(OpCall::count(template.clone())))? {
            OpResult::Count(n) => Ok(n as usize),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(unexpected(&other)),
        }
    }

    fn process_id(&self) -> ProcessId {
        self.pid
    }
}

/// The processes' objects over one cluster.
struct Log {
    world: Rc<RefCell<World>>,
    objects: Vec<WaitFreeUniversal<Handle, KvStore>>,
    rngs: Vec<StdRng>,
    stamps: Vec<i64>,
    attempted: u64,
    failed: u64,
    /// Invocations whose reply disagreed with the sequential model.
    wrong: u64,
}

fn random_invocation(rng: &mut StdRng) -> Value {
    let key = Value::Int(rng.gen_range(0..KEYS));
    match rng.gen_range(0..20u32) {
        0..=9 => KvStore::put(key, Value::Int(rng.gen_range(0..1_000_000))),
        10..=16 => KvStore::get(key),
        _ => KvStore::delete(key),
    }
}

impl Log {
    /// One round: every process invokes once, in turn.
    fn round(&mut self, rec: &mut Recorder) {
        for p in 0..PROCESSES {
            let inv = random_invocation(&mut self.rngs[p]);
            self.stamps[p] += 1;
            self.attempted += 1;
            let t0 = self.world.borrow().bench.now();
            let start = std::time::Instant::now();
            let reply = self.objects[p].invoke(inv.clone());
            let latency = start.elapsed().as_nanos() as u64;
            let ticks = self.world.borrow().bench.now() - t0;
            rec.record(latency, ticks);
            match reply {
                Ok(reply) => {
                    let who = (p as u64, self.stamps[p]);
                    if !self.world.borrow_mut().view.returned(who, &inv, &reply) {
                        self.wrong += 1;
                    }
                }
                Err(e) => {
                    self.failed += 1;
                    eprintln!("universal_log: invocation by {p} failed: {e}");
                }
            }
        }
    }
}

fn policy() -> (Policy, PolicyParams) {
    let mut params = PolicyParams::new();
    params.set("n", PROCESSES as i64);
    (peats::policies::waitfree_universal(), params)
}

/// Builds a fresh cluster and threads the log prefix through it.
fn set_up(cfg: &RunConfig, seed: u64) -> Log {
    let pids: Vec<u64> = (0..PROCESSES as u64).collect();
    let (policy, params) = policy();
    let replicas = cluster::fresh_replicas(&policy, &params, &pids);
    let inbox = Rc::new(RefCell::new(Inbox {
        done: vec![None; PROCESSES],
    }));
    let bench = Bench::new(
        replicas,
        &pids,
        0,
        seed,
        inbox.clone(),
        Stats::shared(cfg.trace),
    );
    let world = Rc::new(RefCell::new(World {
        bench,
        inbox,
        view: LogView::new(),
    }));
    let objects = pids
        .iter()
        .map(|pid| {
            let handle = Handle {
                world: Rc::clone(&world),
                client: *pid as usize,
                pid: *pid,
            };
            WaitFreeUniversal::new(handle, KvStore, PROCESSES)
        })
        .collect();
    let mut log = Log {
        world,
        objects,
        rngs: pids
            .iter()
            .map(|p| StdRng::seed_from_u64(crate::mix(seed ^ crate::mix(p + 101))))
            .collect(),
        stamps: vec![0; PROCESSES],
        attempted: 0,
        failed: 0,
        wrong: 0,
    };
    let mut untimed = Recorder::default();
    for _ in 0..cfg.sizes.log_prefix / PROCESSES as u64 {
        log.round(&mut untimed);
    }
    log
}

/// One epoch: a fresh cluster, the prefix threaded (set-up), then a fixed
/// segment of rounds timed. Returns the epoch's trace, if traced.
fn epoch(
    cfg: &RunConfig,
    seed: u64,
    rounds: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
    setup_times: &mut Vec<f64>,
) -> std::io::Result<Option<(TraceSpan, Replay, UniversalCounts, Stats)>> {
    let (mut log, time) = crate::timed_setup(|| set_up(cfg, seed));
    setup_times.push(time);
    if log.failed > 0 || log.wrong > 0 {
        out.violate("the log prefix did not thread cleanly");
    }
    let (attempted0, failed0) = (log.attempted, log.failed + log.wrong);
    let timed_from = log.world.borrow().bench.replica(0).last_exec();
    let tracer = Tracer::start(&log.world.borrow().bench);
    let (ops0, pos0) = {
        let d = log.world.borrow();
        (d.view.space_ops, d.view.positions)
    };
    let decided0 = rec.decided;
    let start = std::time::Instant::now();
    rec.on = true;
    for _ in 0..rounds {
        log.round(rec);
    }
    rec.on = false;
    rec.close(start.elapsed().as_secs_f64());
    let span = tracer.finish(&log.world.borrow().bench, rec.decided - decided0);
    out.attempted += log.attempted - attempted0;
    out.failed += log.failed + log.wrong - failed0;

    let correct: Vec<ReplicaId> = (0..N as ReplicaId).collect();
    let mut d = log.world.borrow_mut();
    for v in &d.view.violations {
        out.violate(v.clone());
    }
    if log.failed == 0 && !d.view.pending.is_empty() {
        out.violate("an invocation was threaded but never returned");
    }
    d.bench.settle(&correct, STEP_BUDGET);
    out.digests = correct
        .iter()
        .map(|id| d.bench.replica(*id).state_digest())
        .collect();
    if out.digests.windows(2).any(|w| w[0] != w[1]) {
        out.violate("replicas ended on different state digests");
    }
    if !cfg.trace {
        return Ok(None);
    }
    let counts = UniversalCounts {
        space_ops: d.view.space_ops - ops0,
        positions: d.view.positions - pos0,
    };
    let (policy, params) = policy();
    let stats = std::mem::take(&mut *d.bench.stats.borrow_mut());
    let replay = layers::replay(&layers::ReplayInput {
        policy: &policy,
        params: &params,
        history: &stats.history,
        reads: &stats.reads,
        timed_from,
        wal_dir: None,
    })?;
    Ok(Some((span, replay, counts, stats)))
}

/// Runs the workload as a sequence of epochs until the timed segments
/// add up to the run length. The log grows with every invocation, so one
/// long phase would time a different log length at every speed; fixed
/// segments time the same work in every epoch.
///
/// # Errors
///
/// None today (the workload keeps no data on disk).
pub fn run(cfg: &RunConfig, _dir: &Path) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let mut setup_times = Vec::new();
    let mut traced: Option<(TraceSpan, Replay, UniversalCounts, Stats)> = None;
    let (rounds, secs) = match cfg.limit {
        Limit::Seconds(secs) => (cfg.sizes.log_segment / PROCESSES as u64, secs),
        Limit::Ops(rounds) => (rounds, 0.0),
    };
    for n in 0.. {
        let seed = crate::mix(cfg.seed ^ crate::mix(n));
        let epoch = epoch(cfg, seed, rounds, &mut rec, &mut out, &mut setup_times)?;
        if let Some((span, replay, counts, stats)) = epoch {
            match &mut traced {
                None => traced = Some((span, replay, counts, stats)),
                Some((s, r, c, st)) => {
                    s.absorb(&span);
                    r.absorb(&replay);
                    c.space_ops += counts.space_ops;
                    c.positions += counts.positions;
                    st.pending_max = st.pending_max.max(stats.pending_max);
                }
            }
        }
        let timed: f64 = rec.windows.iter().map(|w| w.secs).sum();
        if timed >= secs {
            break;
        }
    }
    match traced {
        Some((span, replay, counts, stats)) => layers::push_metrics(
            &mut out,
            &layers::LayerInput {
                span: &span,
                stats: &stats,
                ticks_p50: rec.ticks_quantile(0.5),
                replay: &replay,
                snapshot_bytes: 0,
                recovery_s: 0.0,
                universal: Some(counts),
            },
        ),
        None => {
            crate::push_setup(&mut out, &setup_times);
            crate::push_timing(&mut out, &rec);
            out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
        }
    }
    Ok(out)
}
