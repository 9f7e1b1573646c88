//! `work_queue`: a Linda job queue over durable replicas.
//!
//! Half the clients are producers issuing `out(<"JOB", k, payload>)`, the
//! other half consumers issuing a blocking `take(<"JOB", k, _>)` — an
//! ordered `Register` answered by a pushed `Wake` (or at once, when the job
//! is already queued). Producer `i` and consumer `i` form a pair walking
//! the same key sequence. A state-free role policy is checked on every op.
//!
//! Replicas log to disk (fsync off) and checkpoint. A fixed prior history
//! — jobs produced and consumed, plus a low-priority backlog left queued —
//! is written once per process with a fixed seed; set-up restarts all four
//! replicas from it (snapshot verify plus log replay), which is the
//! restart an operator sees.

use crate::cluster::{self, Bench, Completion, Op, Script, N};
use crate::layers::{self, Tracer};
use crate::stats::Stats;
use crate::{Limit, Outcome, Recorder, RunConfig, Tick};
use peats_auth::Digest;
use peats_policy::{parse_policy, OpCall, Policy, PolicyParams};
use peats_replication::{OpResult, Replica, ReplicaId};
use peats_tuplespace::{Field, Template, Tuple, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Producers (pids below `np`) may only insert; consumers may only take;
/// anyone may count (the end-of-run audit).
const POLICY: &str = r#"
policy job_queue(np) {
  rule Rjob: out(<"JOB", _, _>) :- invoker() < np;
  rule Rlow: out(<"LOW", _, _>) :- invoker() < np;
  rule Rtake: inp(<"JOB", _, _>) :- invoker() >= np;
  rule Raudit: count(_) :- true;
}
"#;
/// The prior history is the same in every run, whatever `--seed` is.
const HISTORY_SEED: u64 = 0x0057_0bed;
/// Job payload bytes.
const PAYLOAD_LEN: usize = 64;
/// Timed-phase request ids start above every id of the prior history: a
/// restored replica re-serves cached replies for ids it already executed.
const TIMED_REQ_BASE: u64 = 1 << 32;
/// Timed-phase job keys start above every prior-history key.
const TIMED_KEY_BASE: i64 = 1 << 40;
/// Simulator events allowed for draining or settling.
const STEP_BUDGET: u64 = 5_000_000;

fn job(tag: &str, key: i64, seed: u64) -> Tuple {
    Tuple::new(vec![
        Value::from(tag),
        Value::Int(key),
        Value::Bytes(crate::payload(seed, key as u64, PAYLOAD_LEN)),
    ])
}

#[derive(Default)]
struct Pair {
    low_issued: u64,
    jobs_issued: u64,
    takes_issued: u64,
    /// Jobs whose `out` was decided `Done`.
    produced: u64,
    /// Takes that returned exactly the job they named.
    taken: u64,
}

/// Producer/consumer pairs walking one key sequence each.
struct QueueScript {
    pairs: Vec<Pair>,
    seed: u64,
    key_base: i64,
    /// Low-priority backlog jobs each producer inserts before its jobs.
    backlog: u64,
    /// Jobs per pair, when the amount of work is fixed.
    cap: Option<u64>,
    /// Wall-clock stop: finish the pairs' current jobs, then go idle.
    stop: bool,
    rec: Recorder,
    attempted: u64,
    failed: u64,
    decided: u64,
    /// Takes that returned something else than the job they named.
    wrong_takes: u64,
    /// `count` results of the end-of-run audit, by channel.
    audit: BTreeMap<String, u64>,
    failures: Vec<String>,
}

impl QueueScript {
    fn new(pairs: usize, seed: u64, key_base: i64, backlog: u64, cap: Option<u64>) -> Self {
        QueueScript {
            pairs: (0..pairs).map(|_| Pair::default()).collect(),
            seed,
            key_base,
            backlog,
            cap,
            stop: false,
            rec: Recorder::default(),
            attempted: 0,
            failed: 0,
            decided: 0,
            wrong_takes: 0,
            audit: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    fn key(&self, pair: usize, index: u64) -> i64 {
        self.key_base + (index * self.pairs.len() as u64 + pair as u64) as i64
    }

    fn pair_of(&self, key: i64) -> usize {
        ((key - self.key_base) as u64 % self.pairs.len() as u64) as usize
    }

    fn next_producer(&mut self, pair: usize) -> Option<Op> {
        let p = &self.pairs[pair];
        if p.low_issued < self.backlog {
            let key = self.key(pair, p.low_issued);
            self.pairs[pair].low_issued += 1;
            self.attempted += 1;
            return Some(Op::Ordered(OpCall::out(job("LOW", key, self.seed))));
        }
        let more = match self.cap {
            Some(cap) => p.jobs_issued < cap,
            // After the stop, a producer only covers takes already issued.
            None => !self.stop || p.jobs_issued < p.takes_issued,
        };
        if !more {
            return None;
        }
        let key = self.key(pair, p.jobs_issued);
        self.pairs[pair].jobs_issued += 1;
        self.attempted += 1;
        Some(Op::Ordered(OpCall::out(job("JOB", key, self.seed))))
    }

    fn next_consumer(&mut self, pair: usize) -> Option<Op> {
        let p = &self.pairs[pair];
        let more = match self.cap {
            Some(cap) => p.takes_issued < cap,
            // After the stop, a consumer only takes jobs already issued.
            None => !self.stop || p.takes_issued < p.jobs_issued,
        };
        if !more {
            return None;
        }
        let key = self.key(pair, p.takes_issued);
        self.pairs[pair].takes_issued += 1;
        self.attempted += 1;
        Some(Op::Take(Template::new(vec![
            Field::exact("JOB"),
            Field::exact(Value::Int(key)),
            Field::any(),
        ])))
    }

    fn first(&mut self, client: usize) -> Option<Op> {
        let pairs = self.pairs.len();
        if client < pairs {
            self.next_producer(client)
        } else {
            self.next_consumer(client - pairs)
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Checks one decision against what the operation must return.
    fn check(&mut self, done: &Completion) {
        match &done.op {
            Op::Ordered(OpCall::Out(entry)) => {
                if done.result != OpResult::Done {
                    self.fail(format!("out {entry:?} returned {:?}", done.result));
                } else if entry.get(0) == Some(&Value::from("JOB")) {
                    let key = entry.get(1).and_then(Value::as_int).unwrap_or(0);
                    let pair = self.pair_of(key);
                    self.pairs[pair].produced += 1;
                }
            }
            Op::Take(template) => {
                let key = match template.get(1) {
                    Some(Field::Exact(Value::Int(k))) => *k,
                    _ => -1,
                };
                match &done.result {
                    OpResult::Tuple(Some(t)) if *t == job("JOB", key, self.seed) => {
                        let pair = self.pair_of(key);
                        self.pairs[pair].taken += 1;
                    }
                    OpResult::Tuple(Some(t)) => {
                        self.wrong_takes += 1;
                        self.fail(format!("take of job {key} returned {t:?}"));
                    }
                    other => self.fail(format!("take of job {key} returned {other:?}")),
                }
            }
            Op::Read(OpCall::Count(template)) => {
                let channel = match template.get(0) {
                    Some(Field::Exact(Value::Str(c))) => c.clone(),
                    _ => String::new(),
                };
                match &done.result {
                    OpResult::Count(n) => drop(self.audit.insert(channel, *n)),
                    other => self.fail(format!("audit count of {channel} returned {other:?}")),
                }
            }
            other => self.fail(format!("unexpected operation {other:?}")),
        }
    }
}

impl Script for QueueScript {
    fn complete(&mut self, client: usize, done: Completion) -> Option<Op> {
        self.rec.record(done.latency_ns, done.ticks);
        self.decided += 1;
        self.check(&done);
        let pairs = self.pairs.len();
        if client < pairs {
            self.next_producer(client)
        } else {
            self.next_consumer(client - pairs)
        }
    }
}

fn policy(pairs: usize) -> (Policy, PolicyParams) {
    let policy = parse_policy(POLICY).expect("the job-queue policy parses");
    let mut params = PolicyParams::new();
    params.set("np", pairs as i64);
    (policy, params)
}

fn replica_dir(root: &Path, id: usize) -> PathBuf {
    root.join(format!("replica-{id}"))
}

/// Copies the files of a (flat) data directory.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Kicks every client and runs a fixed amount of queue work to the end.
fn run_to_end(bench: &mut Bench, script: &Rc<RefCell<QueueScript>>, clients: usize) -> bool {
    for client in 0..clients {
        let op = script.borrow_mut().first(client);
        if let Some(op) = op {
            bench.begin(client, op);
        }
    }
    bench.drain(STEP_BUDGET)
}

fn correct_ids() -> Vec<ReplicaId> {
    (0..N as ReplicaId).collect()
}

fn digests(bench: &Bench) -> Vec<Digest> {
    correct_ids()
        .iter()
        .map(|id| bench.replica(*id).state_digest())
        .collect()
}

/// Writes the fixed prior history into `root`; returns the replicas'
/// final digests and the committed history (recorded when `traced`).
fn write_history(
    cfg: &RunConfig,
    root: &Path,
    pids: &[u64],
    out: &mut Outcome,
) -> std::io::Result<(Vec<Digest>, Rc<RefCell<Stats>>)> {
    let (policy, params) = policy(cfg.sizes.queue_pairs);
    let replicas = (0..N)
        .map(|id| cluster::restart_replica(&replica_dir(root, id), id, &policy, &params, pids))
        .collect::<std::io::Result<Vec<_>>>()?;
    let script = Rc::new(RefCell::new(QueueScript::new(
        cfg.sizes.queue_pairs,
        HISTORY_SEED,
        0,
        cfg.sizes.history_backlog,
        Some(cfg.sizes.history_jobs),
    )));
    let stats = Stats::shared(cfg.trace);
    let mut bench = Bench::new(
        replicas,
        pids,
        0,
        HISTORY_SEED,
        script.clone(),
        Rc::clone(&stats),
    );
    if !run_to_end(&mut bench, &script, pids.len()) || script.borrow().failed > 0 {
        out.violate(format!(
            "prior history did not complete cleanly: {:?}",
            script.borrow().failures
        ));
    }
    bench.settle(&correct_ids(), STEP_BUDGET);
    let digests = digests(&bench);
    drop(bench.into_replicas());
    Ok((digests, stats))
}

/// Restarts all four replicas from `root`, checking each against the
/// digest it had at shutdown. Returns the replicas and the per-replica
/// restore seconds.
fn restart_all(
    root: &Path,
    pids: &[u64],
    pairs: usize,
    expected: &[Digest],
    out: &mut Outcome,
) -> std::io::Result<(Vec<Replica>, Vec<f64>)> {
    let (policy, params) = policy(pairs);
    let mut replicas = Vec::new();
    let mut secs = Vec::new();
    for (id, expected) in expected.iter().enumerate() {
        let start = std::time::Instant::now();
        let replica = cluster::restart_replica(&replica_dir(root, id), id, &policy, &params, pids)?;
        secs.push(start.elapsed().as_secs_f64());
        if replica.state_digest() != *expected {
            out.violate(format!(
                "replica {id} restarted from disk on a different state digest"
            ));
        }
        replicas.push(replica);
    }
    Ok((replicas, secs))
}

/// Runs the workload.
///
/// # Errors
///
/// A filesystem error on the data directories.
pub fn run(cfg: &RunConfig, dir: &Path) -> std::io::Result<Outcome> {
    let pairs = cfg.sizes.queue_pairs;
    let pids: Vec<u64> = (0..2 * pairs as u64).collect();
    let mut out = Outcome::default();
    let history = dir.join("history");
    let live = dir.join("live");
    let (history_digests, history_stats) = write_history(cfg, &history, &pids, &mut out)?;
    for id in 0..N {
        copy_dir(&replica_dir(&history, id), &replica_dir(&live, id))?;
    }

    // The live cluster restarts from a copy of the history; the set-up
    // repetitions spread through the timed phase restart throwaway
    // replicas from the history itself.
    let mut restore_secs = Vec::new();
    let (replicas, first) =
        crate::timed_setup(|| restart_all(&live, &pids, pairs, &history_digests, &mut out));
    let (replicas, secs) = replicas?;
    restore_secs.extend(secs);
    let mut setup_times = vec![first];
    let timed_from = replicas[0].last_exec();

    let cap = match cfg.limit {
        Limit::Ops(jobs) => Some(jobs),
        Limit::Seconds(_) => None,
    };
    let script = Rc::new(RefCell::new(QueueScript::new(
        pairs,
        cfg.seed,
        TIMED_KEY_BASE,
        0,
        cap,
    )));
    let stats = Stats::shared(cfg.trace);
    let mut bench = Bench::new(
        replicas,
        &pids,
        TIMED_REQ_BASE,
        cfg.seed,
        script.clone(),
        Rc::clone(&stats),
    );
    let tracer = Tracer::start(&bench);
    script.borrow_mut().rec.on = true;
    match cfg.limit {
        Limit::Seconds(secs) => {
            for client in 0..pids.len() {
                let op = script.borrow_mut().first(client);
                if let Some(op) = op {
                    bench.begin(client, op);
                }
            }
            let setups = if cfg.trace {
                0
            } else {
                cfg.sizes.queue_restarts - 1
            };
            let mut setup_error = None;
            crate::windowed(secs, setups, |tick| match tick {
                Tick::Advance => crate::advance(&mut bench),
                Tick::Close(secs) => script.borrow_mut().rec.close(secs),
                Tick::Setup => bench.paused(|| {
                    let (spare, time) = crate::timed_setup(|| {
                        restart_all(&history, &pids, pairs, &history_digests, &mut out)
                    });
                    setup_times.push(time);
                    match spare {
                        Ok((_, secs)) => restore_secs.extend(secs),
                        Err(e) => setup_error = Some(e),
                    }
                }),
            });
            if let Some(e) = setup_error {
                return Err(e);
            }
            let mut s = script.borrow_mut();
            s.rec.on = false;
            s.stop = true;
            drop(s);
            bench.drain(STEP_BUDGET);
        }
        Limit::Ops(_) => {
            let start = std::time::Instant::now();
            run_to_end(&mut bench, &script, pids.len());
            let secs = start.elapsed().as_secs_f64();
            script.borrow_mut().rec.close(secs);
        }
    }
    let busy = bench.busy_clients() as u64;
    let span = tracer.finish(&bench, script.borrow().decided);

    // Oracles: per pair, every produced job was taken, by exactly the
    // take that named it; the audit then finds no job left behind (none
    // was taken twice or duplicated) and the backlog untouched.
    bench.settle(&correct_ids(), STEP_BUDGET);
    for channel in ["JOB", "LOW"].into_iter().filter(|_| busy == 0) {
        bench.begin(
            0,
            Op::Read(OpCall::count(Template::new(vec![
                Field::exact(channel),
                Field::any(),
                Field::any(),
            ]))),
        );
        bench.drain(STEP_BUDGET);
    }
    {
        let s = script.borrow();
        out.attempted = s.attempted;
        out.failed = s.failed + busy;
        if s.wrong_takes > 0 || s.pairs.iter().any(|p| p.produced != p.taken) {
            out.violate("the multiset of taken jobs differs from the jobs produced");
        }
        let backlog = cfg.sizes.history_backlog * pairs as u64;
        if s.audit.get("JOB") != Some(&0) || s.audit.get("LOW") != Some(&backlog) {
            out.violate(format!(
                "the audit found {:?}, expected no job and {backlog} backlog entries",
                s.audit
            ));
        }
        for f in &s.failures {
            eprintln!("work_queue: failed op: {f}");
        }
    }
    bench.settle(&correct_ids(), STEP_BUDGET);
    let before = digests(&bench);
    if before.windows(2).any(|w| w[0] != w[1]) {
        out.violate("correct replicas ended on different state digests");
    }
    let snapshot_bytes = bench.replica(0).footprint().snapshot_bytes;
    drop(bench.into_replicas());
    restart_all(&live, &pids, pairs, &before, &mut out)?;
    out.digests = before;

    if cfg.trace {
        let (policy, params) = policy(pairs);
        let mut history = std::mem::take(&mut history_stats.borrow_mut().history);
        history.extend(std::mem::take(&mut stats.borrow_mut().history));
        let s = stats.borrow();
        let wal_dir = dir.join("replay-wal");
        let replay = layers::replay(&layers::ReplayInput {
            policy: &policy,
            params: &params,
            history: &history,
            reads: &s.reads,
            timed_from,
            wal_dir: Some(&wal_dir),
        })?;
        layers::push_metrics(
            &mut out,
            &layers::LayerInput {
                span: &span,
                stats: &s,
                ticks_p50: script.borrow().rec.ticks_quantile(0.5),
                replay: &replay,
                snapshot_bytes,
                recovery_s: crate::stats::median(&restore_secs),
                universal: None,
            },
        );
    } else {
        let s = script.borrow();
        crate::push_setup(&mut out, &setup_times);
        crate::push_timing(&mut out, &s.rec);
        out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    }
    Ok(out)
}
