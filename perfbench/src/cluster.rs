//! The benchmark's own actors on `peats_netsim::SimNet`: four replicas and
//! a set of closed-loop clients, all on one thread.
//!
//! The actors drive the production state machines (`Replica`, `Sealed`
//! over `KeyTable`, the client sessions) and wrap each call into them with
//! the span timers and counters of [`Stats`]. The simulator's delivery
//! order is a pure function of its seed, so every count in a run repeats
//! exactly; wall time is then the program's own CPU work.

use crate::stats::{SharedStats, Span};
use peats_auth::KeyTable;
use peats_codec::{Decode, Encode};
use peats_netsim::{Actor, Context, NetConfig, NodeId, SimNet, SimTime};
use peats_policy::{OpCall, Policy, PolicyParams};
use peats_replication::{
    BlockingPoll, BlockingSession, ClientSession, DurableConfig, DurableStore, FaultMode, Message,
    OpResult, ReadPoll, ReadSession, Replica, ReplicaConfig, ReplicaId, Sealed, Seq, WaitKind,
};
use peats_replication::{Dest, PeatsService};
use peats_tuplespace::Template;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Tolerated replica faults.
pub const F: usize = 1;
/// Replicas (`3f + 1`).
pub const N: usize = 3 * F + 1;
/// Deployment secret every key table derives its pairwise keys from.
const MASTER: &[u8] = b"peats-perfbench-deployment";
/// Timer token of the replicas' progress check.
const PROGRESS_TIMER: u64 = 1;
/// Simulated time between progress checks (as in `SimCluster`).
const PROGRESS_PERIOD: SimTime = 4_000;
/// Timer token of the clients' retransmission check.
const RETRANSMIT_TIMER: u64 = 2;
/// Simulated time between retransmission checks.
const RETRANSMIT_PERIOD: SimTime = 5_000;
/// An unparked request unanswered for this long is re-broadcast.
const RETRANSMIT_AFTER: SimTime = 20_000;
/// The primary's `pending` backlog is sampled every this many calls.
const PENDING_SAMPLE_EVERY: u64 = 8;

/// One client operation as the workloads issue it.
#[derive(Clone, Debug)]
pub enum Op {
    /// Through the ordering protocol (`out`, `inp`, `cas`, ...).
    Ordered(OpCall<'static>),
    /// `rdp`/`count` on the `f+1` fast path, falling back to the ordered
    /// path when no fresh quorum forms.
    Read(OpCall<'static>),
    /// Blocking `take`: an ordered `Register` answered by a pushed `Wake`.
    Take(Template),
}

/// A decided operation.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The operation as issued.
    pub op: Op,
    /// Slot (or execution point, for fast reads) the decision names.
    pub seq: Seq,
    /// The agreed result.
    pub result: OpResult,
    /// Wall time from injection to decision.
    pub latency_ns: u64,
    /// Simulated time from injection to decision.
    pub ticks: u64,
    /// Decided on the ordered path (a fast read that fell back, or any
    /// non-read): `seq` is then the slot the request executed in, not an
    /// execution point after a whole batch.
    pub ordered: bool,
}

/// What a workload does when one of its clients decides an operation.
pub trait Script {
    /// Receives the decision of `client`'s operation; returns the client's
    /// next operation, or `None` to leave it idle.
    fn complete(&mut self, client: usize, done: Completion) -> Option<Op>;
}

/// Node `id`'s key table.
pub fn keys(id: u64) -> KeyTable {
    KeyTable::new(id, MASTER.to_vec())
}

/// The client-node registry replicas authenticate requests against:
/// transport node `N + i` speaks for process `pids[i]`.
pub fn registry(pids: &[u64]) -> BTreeMap<u64, u64> {
    pids.iter()
        .enumerate()
        .map(|(i, pid)| ((N + i) as u64, *pid))
        .collect()
}

fn new_replica(id: usize, policy: &Policy, params: &PolicyParams, pids: &[u64]) -> Replica {
    let service = PeatsService::new(policy.clone(), params.clone())
        .expect("benchmark policy parameters are consistent");
    Replica::new(
        ReplicaConfig::new(id as ReplicaId, N, F),
        service,
        registry(pids),
    )
}

/// Four fresh replicas hosting `policy` with `params` (the replica
/// defaults: batches of up to 64, two slots in flight, a checkpoint every
/// 128 slots).
///
/// # Panics
///
/// Panics if the policy parameters are inconsistent (a benchmark bug).
pub fn fresh_replicas(policy: &Policy, params: &PolicyParams, pids: &[u64]) -> Vec<Replica> {
    (0..N)
        .map(|id| new_replica(id, policy, params, pids))
        .collect()
}

/// Starts replica `id` on its data directory: opens the store (snapshot
/// integrity checks, log scan) and restores from it (snapshot attestation
/// verify, log replay) — or attaches the empty store of a new directory.
/// The log runs with fsync off: fsync timing measures the machine's disk,
/// not the program.
///
/// # Errors
///
/// The store's filesystem error.
pub fn restart_replica(
    dir: &Path,
    id: usize,
    policy: &Policy,
    params: &PolicyParams,
    pids: &[u64],
) -> std::io::Result<Replica> {
    let (store, recovery) = DurableStore::open(dir, durable_config())?;
    let mut replica = new_replica(id, policy, params, pids);
    replica.restore_durable(store, recovery);
    Ok(replica)
}

/// Durable-store settings: fsync off.
pub fn durable_config() -> DurableConfig {
    DurableConfig {
        fsync: false,
        ..DurableConfig::default()
    }
}

struct ReplicaActor {
    replica: Rc<RefCell<Replica>>,
    keys: KeyTable,
    stats: SharedStats,
    last_seen_exec: Seq,
}

impl ReplicaActor {
    fn ship(&self, ctx: &mut Context<'_>, outputs: Vec<(Dest, Message)>) {
        let traced = self.stats.borrow().traced;
        let me = self.keys.id();
        let mut send = |to: u64, msg: &Message| {
            let span = Span::start(traced);
            let sealed = Sealed::seal(&self.keys, to, msg);
            let bytes = sealed.to_bytes();
            let ns = span.ns();
            self.stats
                .borrow_mut()
                .sealed(me, to, &sealed.body, bytes.len(), ns);
            ctx.send(to as NodeId, bytes);
        };
        for (dest, msg) in outputs {
            match dest {
                Dest::Replica(r) => send(u64::from(r), &msg),
                Dest::AllReplicas => {
                    for r in (0..N as u64).filter(|r| *r != me) {
                        send(r, &msg);
                    }
                }
                Dest::Client(node) => send(node, &msg),
            }
        }
    }

    /// Traced runs: the primary's batches are the committed history the
    /// layer replay re-executes, and their sizes give `ops_per_batch`.
    fn observe(&self, outputs: &[(Dest, Message)]) {
        let mut stats = self.stats.borrow_mut();
        for (_, msg) in outputs {
            if let Message::PrePrepare { seq, requests, .. } = msg {
                if !stats.history.contains_key(seq) {
                    stats.c.batches += 1;
                    stats.c.batched_requests += requests.len() as u64;
                    stats.history.insert(*seq, requests.clone());
                }
            }
        }
        let replica = self.replica.borrow();
        if replica.is_primary() && stats.c.replica_calls.is_multiple_of(PENDING_SAMPLE_EVERY) {
            stats.pending_max = stats.pending_max.max(replica.footprint().pending);
        }
    }
}

impl Actor for ReplicaActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(PROGRESS_PERIOD, PROGRESS_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: &[u8]) {
        let traced = self.stats.borrow().traced;
        let span = Span::start(traced);
        let opened = Sealed::from_bytes(payload)
            .ok()
            .and_then(|sealed| sealed.open(&self.keys));
        {
            let mut stats = self.stats.borrow_mut();
            stats.c.opens += 1;
            stats.c.open_ns += span.ns();
            if opened.is_none() {
                stats.c.open_rejected += 1;
            }
        }
        let Some((sender, msg)) = opened else { return };
        let span = Span::start(traced);
        let outputs = self.replica.borrow_mut().on_message(sender, msg);
        {
            let mut stats = self.stats.borrow_mut();
            stats.c.replica_calls += 1;
            stats.c.replica_ns += span.ns();
        }
        if traced {
            self.observe(&outputs);
        }
        self.ship(ctx, outputs);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != PROGRESS_TIMER {
            return;
        }
        let (last_exec, outputs) = {
            let mut replica = self.replica.borrow_mut();
            let last = replica.last_exec();
            let outputs = if last == self.last_seen_exec {
                replica.on_progress_timeout()
            } else {
                Vec::new()
            };
            (last, outputs)
        };
        self.last_seen_exec = last_exec;
        self.ship(ctx, outputs);
        ctx.set_timer(PROGRESS_PERIOD, PROGRESS_TIMER);
    }
}

enum Session {
    Ordered(ClientSession),
    Read(ReadSession),
    Blocking(BlockingSession),
}

/// When an operation was first injected.
#[derive(Clone, Copy)]
struct Start {
    at: Instant,
    /// [`Stats::paused_ns`](crate::stats::Stats::paused_ns) then.
    paused_ns: u64,
    tick: SimTime,
}

struct InFlight {
    op: Op,
    req_id: u64,
    session: Session,
    msg: Message,
    start: Start,
    last_sent: SimTime,
    /// Claims received before the decision (traced runs only), to count
    /// the ones the vote rejected.
    claims: Vec<(Seq, OpResult)>,
}

/// One simulated client process: at most one operation in flight.
pub struct ClientNode {
    node: NodeId,
    pid: u64,
    keys: KeyTable,
    next_req_id: u64,
    watermark: Seq,
    inflight: Option<InFlight>,
    /// The last decision `(req_id, seq, result)`, to classify late replies
    /// (traced runs only).
    last_decided: Option<(u64, Seq, OpResult)>,
    stats: SharedStats,
}

type Send<'a> = &'a mut dyn FnMut(NodeId, Vec<u8>);

impl ClientNode {
    /// `true` while an operation is in flight.
    pub fn busy(&self) -> bool {
        self.inflight.is_some()
    }

    fn begin(&mut self, op: Op, now: SimTime, send: Send<'_>) {
        let start = Start {
            at: Instant::now(),
            paused_ns: self.stats.borrow().paused_ns,
            tick: now,
        };
        self.launch(op, start, now, send);
    }

    fn launch(&mut self, op: Op, start: Start, now: SimTime, send: Send<'_>) {
        self.next_req_id += 1;
        let req_id = self.next_req_id;
        let (session, msg) = match &op {
            Op::Ordered(call) => {
                let s = ClientSession::new(self.pid, req_id, call.clone(), F);
                let msg = s.request_message();
                (Session::Ordered(s), msg)
            }
            Op::Read(call) => {
                self.stats.borrow_mut().c.fast_reads += 1;
                let msg = Message::ReadRequest {
                    client: self.pid,
                    req_id,
                    op: call.clone(),
                    watermark: self.watermark,
                };
                (
                    Session::Read(ReadSession::new(req_id, self.watermark, F, N)),
                    msg,
                )
            }
            Op::Take(template) => {
                let s = BlockingSession::new(
                    self.pid,
                    req_id,
                    template.clone(),
                    WaitKind::Take,
                    false,
                    F,
                );
                let msg = s.request_message();
                (Session::Blocking(s), msg)
            }
        };
        self.inflight = Some(InFlight {
            op,
            req_id,
            session,
            msg,
            start,
            last_sent: now,
            claims: Vec::new(),
        });
        self.broadcast(send);
    }

    fn broadcast(&mut self, send: Send<'_>) {
        let Some(inflight) = &self.inflight else {
            return;
        };
        let traced = self.stats.borrow().traced;
        for r in 0..N as u64 {
            let span = Span::start(traced);
            let sealed = Sealed::seal(&self.keys, r, &inflight.msg);
            let bytes = sealed.to_bytes();
            let ns = span.ns();
            self.stats
                .borrow_mut()
                .sealed(self.keys.id(), r, &sealed.body, bytes.len(), ns);
            send(r as NodeId, bytes);
        }
    }

    fn on_message(&mut self, payload: &[u8], now: SimTime, send: Send<'_>) -> Option<Completion> {
        let traced = self.stats.borrow().traced;
        let span = Span::start(traced);
        let opened = Sealed::from_bytes(payload)
            .ok()
            .and_then(|sealed| sealed.open(&self.keys));
        {
            let mut stats = self.stats.borrow_mut();
            stats.c.opens += 1;
            stats.c.open_ns += span.ns();
            if opened.is_none() {
                stats.c.open_rejected += 1;
            }
        }
        let (replica, req_id, seq, result, digest) = match opened?.1 {
            Message::Reply {
                replica,
                req_id,
                seq,
                result,
                ..
            }
            | Message::Wake {
                replica,
                req_id,
                seq,
                result,
            } => (replica, req_id, seq, result, None),
            Message::ReadReply {
                replica,
                req_id,
                seq,
                digest,
                result,
            } => (replica, req_id, seq, result, Some(digest)),
            _ => return None,
        };
        let span = Span::start(traced);
        let seal_ns = self.stats.borrow().c.seal_ns;
        let outcome = self.vote(replica, req_id, seq, result, digest, now, send);
        let mut stats = self.stats.borrow_mut();
        stats.c.client_replies += 1;
        // A read that falls back seals its ordered request inside the vote;
        // that time is already in `seal_ns`, so the spans do not overlap.
        let resealed = stats.c.seal_ns - seal_ns;
        stats.c.client_ns += span.ns().saturating_sub(resealed);
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn vote(
        &mut self,
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        result: OpResult,
        digest: Option<peats_auth::Digest>,
        now: SimTime,
        send: Send<'_>,
    ) -> Option<Completion> {
        let traced = self.stats.borrow().traced;
        let Some(inflight) = self.inflight.as_mut().filter(|f| f.req_id == req_id) else {
            // A straggler for an operation already decided.
            if let Some((rid, dseq, dres)) = &self.last_decided {
                if *rid == req_id
                    && result != OpResult::Registered
                    && (*dseq, dres) != (seq, &result)
                {
                    self.stats.borrow_mut().c.rejected_replies += 1;
                }
            }
            return None;
        };
        if traced && result != OpResult::Registered {
            inflight.claims.push((seq, result.clone()));
        }
        let decided = match (&mut inflight.session, digest) {
            (Session::Ordered(s), None) => s.on_reply(replica, req_id, seq, result),
            (Session::Blocking(s), None) => match s.on_reply(replica, req_id, seq, result) {
                BlockingPoll::Decided(seq, result) => Some((seq, result)),
                BlockingPoll::Parked(seq) => {
                    self.watermark = self.watermark.max(seq);
                    None
                }
                BlockingPoll::Pending => None,
            },
            (Session::Read(s), Some(digest)) => {
                match s.on_read_reply(replica, req_id, seq, digest, result) {
                    ReadPoll::Accepted { seq, result } => Some((seq, result)),
                    ReadPoll::Pending => None,
                    ReadPoll::NoQuorum => {
                        // No fresh quorum: the same read goes through the
                        // ordered path, still timed from its first send.
                        let inflight = self.inflight.take().expect("checked above");
                        let Op::Read(call) = &inflight.op else {
                            unreachable!("read sessions carry read ops")
                        };
                        let call = call.clone();
                        self.stats.borrow_mut().c.read_fallbacks += 1;
                        self.launch(Op::Ordered(call), inflight.start, now, send);
                        let retried = self.inflight.as_mut().expect("just launched");
                        retried.op = inflight.op;
                        return None;
                    }
                }
            }
            _ => None,
        };
        let (seq, result) = decided?;
        let inflight = self.inflight.take().expect("checked above");
        self.watermark = self.watermark.max(seq);
        let mut stats = self.stats.borrow_mut();
        stats.c.decisions += 1;
        if traced {
            stats.c.rejected_replies += inflight
                .claims
                .iter()
                .filter(|(s, r)| (*s, r) != (seq, &result))
                .count() as u64;
            if let (Op::Read(call), Session::Read(_)) = (&inflight.op, &inflight.session) {
                stats.reads.push((seq, self.pid, call.clone()));
            }
            self.last_decided = Some((inflight.req_id, seq, result.clone()));
        }
        // Set-up repetitions run between windows of the timed phase; an
        // operation in flight across one is not charged for it.
        let paused = stats.paused_ns - inflight.start.paused_ns;
        Some(Completion {
            ordered: !matches!(inflight.session, Session::Read(_)),
            op: inflight.op,
            seq,
            result,
            latency_ns: (inflight.start.at.elapsed().as_nanos() as u64).saturating_sub(paused),
            ticks: now - inflight.start.tick,
        })
    }

    fn on_timer(&mut self, now: SimTime, send: Send<'_>) {
        let Some(inflight) = self.inflight.as_mut() else {
            return;
        };
        let parked = matches!(&inflight.session, Session::Blocking(s) if s.parked_at().is_some());
        if parked || now - inflight.last_sent < RETRANSMIT_AFTER {
            return;
        }
        inflight.last_sent = now;
        self.stats.borrow_mut().c.retransmits += 1;
        self.broadcast(send);
    }
}

struct ClientActor {
    index: usize,
    node: Rc<RefCell<ClientNode>>,
    script: Rc<RefCell<dyn Script>>,
}

impl Actor for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(RETRANSMIT_PERIOD, RETRANSMIT_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: &[u8]) {
        let now = ctx.now();
        let mut node = self.node.borrow_mut();
        let mut send = |to: NodeId, bytes: Vec<u8>| ctx.send(to, bytes);
        let Some(done) = node.on_message(payload, now, &mut send) else {
            return;
        };
        if let Some(next) = self.script.borrow_mut().complete(self.index, done) {
            node.begin(next, now, &mut send);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != RETRANSMIT_TIMER {
            return;
        }
        let now = ctx.now();
        let mut send = |to: NodeId, bytes: Vec<u8>| ctx.send(to, bytes);
        self.node.borrow_mut().on_timer(now, &mut send);
        ctx.set_timer(RETRANSMIT_PERIOD, RETRANSMIT_TIMER);
    }
}

/// One single-threaded cluster: `N` replicas and the workload's clients on
/// a seeded simulator.
pub struct Bench {
    net: SimNet,
    replicas: Vec<Rc<RefCell<Replica>>>,
    clients: Vec<Rc<RefCell<ClientNode>>>,
    /// The run's counters.
    pub stats: SharedStats,
}

impl Bench {
    /// Mounts `replicas` (ids `0..N`, in order) and one client per pid on a
    /// simulator seeded with `net_seed`. Client `i`'s first request id is
    /// `first_req_id + 1`: a cluster restored from disk caches replies for
    /// the request ids of its previous life.
    pub fn new(
        replicas: Vec<Replica>,
        pids: &[u64],
        first_req_id: u64,
        net_seed: u64,
        script: Rc<RefCell<dyn Script>>,
        stats: SharedStats,
    ) -> Bench {
        let mut net = SimNet::new(NetConfig {
            seed: net_seed,
            ..NetConfig::default()
        });
        let replicas: Vec<_> = replicas
            .into_iter()
            .map(|r| Rc::new(RefCell::new(r)))
            .collect();
        for (id, replica) in replicas.iter().enumerate() {
            net.add_node(Box::new(ReplicaActor {
                replica: Rc::clone(replica),
                keys: keys(id as u64),
                stats: Rc::clone(&stats),
                last_seen_exec: replica.borrow().last_exec(),
            }));
        }
        let mut clients = Vec::new();
        for (index, pid) in pids.iter().enumerate() {
            let node_id = (N + index) as NodeId;
            let node = Rc::new(RefCell::new(ClientNode {
                node: node_id,
                pid: *pid,
                keys: keys(u64::from(node_id)),
                next_req_id: first_req_id,
                watermark: 0,
                inflight: None,
                last_decided: None,
                stats: Rc::clone(&stats),
            }));
            let mounted = net.add_node(Box::new(ClientActor {
                index,
                node: Rc::clone(&node),
                script: Rc::clone(&script),
            }));
            assert_eq!(mounted, node_id, "replicas occupy nodes 0..N");
            clients.push(node);
        }
        Bench {
            net,
            replicas,
            clients,
            stats,
        }
    }

    /// Injects `op` from client `index` (it must be idle).
    pub fn begin(&mut self, index: usize, op: Op) {
        let now = self.net.now();
        let mut node = self.clients[index].borrow_mut();
        debug_assert!(!node.busy(), "one operation in flight per client");
        let from = node.node;
        let net = &mut self.net;
        node.begin(op, now, &mut |to, bytes| net.inject(from, to, bytes));
    }

    /// Processes one simulator event.
    pub fn step(&mut self) -> bool {
        self.net.step()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Clients with an operation in flight.
    pub fn busy_clients(&self) -> usize {
        self.clients.iter().filter(|c| c.borrow().busy()).count()
    }

    /// Steps until every client is idle or `budget` events ran out;
    /// returns `true` iff all clients went idle.
    pub fn drain(&mut self, budget: u64) -> bool {
        for _ in 0..budget {
            if self.busy_clients() == 0 {
                return true;
            }
            self.net.step();
        }
        self.busy_clients() == 0
    }

    /// Steps until the replicas in `correct` have all executed the same
    /// prefix, or `budget` events ran out.
    pub fn settle(&mut self, correct: &[ReplicaId], budget: u64) -> bool {
        let caught_up = |b: &Bench| {
            let execs: Vec<Seq> = correct
                .iter()
                .map(|id| b.replicas[*id as usize].borrow().last_exec())
                .collect();
            execs.windows(2).all(|w| w[0] == w[1])
        };
        for _ in 0..budget {
            if caught_up(self) {
                return true;
            }
            self.net.step();
        }
        caught_up(self)
    }

    /// Runs `pause` (a set-up repetition between windows) without
    /// charging its time to the latency of the operations in flight.
    pub fn paused<T>(&mut self, pause: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = pause();
        self.stats.borrow_mut().paused_ns += start.elapsed().as_nanos() as u64;
        value
    }

    /// Sets replica `id`'s fault mode.
    pub fn set_fault(&mut self, id: ReplicaId, fault: FaultMode) {
        self.replicas[id as usize].borrow_mut().set_fault(fault);
    }

    /// Replica `id`.
    pub fn replica(&self, id: ReplicaId) -> std::cell::Ref<'_, Replica> {
        self.replicas[id as usize].borrow()
    }

    /// Hands the replicas back (dropping the simulator), e.g. to shut a
    /// durable cluster down before restarting it from disk.
    pub fn into_replicas(self) -> Vec<Replica> {
        drop(self.net);
        self.replicas
            .into_iter()
            .map(|r| {
                Rc::try_unwrap(r)
                    .expect("the simulator held the only other reference")
                    .into_inner()
            })
            .collect()
    }
}
