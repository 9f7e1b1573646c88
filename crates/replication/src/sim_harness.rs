//! Deterministic simulation harness: a full Fig. 2 deployment (replicas +
//! clients + authenticated links) inside `peats-netsim`.
//!
//! Node numbering: replicas occupy nodes `0..n`; client `i` occupies node
//! `n + i`. Every message on the wire is a MAC-sealed
//! [`Sealed`] envelope; replicas drop anything that fails
//! authentication, which is what stops a Byzantine client from
//! impersonating a correct process (§2.1).
//!
//! The simulation runs the production code on both sides: replica actors
//! drive [`Replica`] through the runtime's [`ReplicaHost`], and clients run
//! the same [`Invocation`] state machine as the wall-clock handle, stepped
//! on simulated time (one time unit reads as a microsecond). Simulated
//! clients never give up on their own: the step budget bounds every call.

use crate::client::{ClientConfig, ClientState, Invocation, Op, Reply};
use crate::faults::FaultMode;
use crate::messages::{OpResult, ReplicaId, RequestOp, Sealed, Seq, WaitKind};
use crate::replica::{Replica, ReplicaConfig};
use crate::runtime::ReplicaHost;
use crate::service::PeatsService;
use peats_auth::KeyTable;
use peats_codec::Encode;
use peats_netsim::{Actor, Context, NetConfig, NodeId, SimNet};
use peats_policy::{OpCall, Policy, PolicyParams};
use peats_tuplespace::Template;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Timer token used by replica actors for the progress/view-change check.
const PROGRESS_TIMER: u64 = 1;
/// Simulated time between progress checks.
const PROGRESS_PERIOD: u64 = 4_000;

/// The simulated clients' timing: the production defaults, minus the
/// overall deadline.
fn client_config() -> ClientConfig {
    ClientConfig {
        invoke_timeout: Duration::from_secs(1 << 32),
        ..ClientConfig::default()
    }
}

struct ReplicaActor {
    replica: Rc<RefCell<Replica>>,
    host: ReplicaHost,
}

impl Actor for ReplicaActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(PROGRESS_PERIOD, PROGRESS_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: &[u8]) {
        let outputs = self.host.on_frame(&mut self.replica.borrow_mut(), payload);
        self.host.ship(outputs, |to, bytes| ctx.send(to, bytes));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != PROGRESS_TIMER {
            return;
        }
        let outputs = self.host.on_progress_check(&mut self.replica.borrow_mut());
        self.host.ship(outputs, |to, bytes| ctx.send(to, bytes));
        ctx.set_timer(PROGRESS_PERIOD, PROGRESS_TIMER);
    }
}

/// Replies delivered to a simulated client, not yet fed to an invocation.
type Inbox = Rc<RefCell<Vec<Reply>>>;

struct ClientActor {
    keys: KeyTable,
    inbox: Inbox,
}

impl Actor for ClientActor {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, payload: &[u8]) {
        if let Some(reply) = Reply::open(&self.keys, payload) {
            self.inbox.borrow_mut().push(reply);
        }
    }
}

struct ClientSlot {
    node: NodeId,
    keys: KeyTable,
    inbox: Inbox,
    state: Arc<ClientState>,
}

/// Outcome of one simulated fast-read round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FastRead {
    /// `f+1` replicas agreed at `seq ≥` the round's watermark.
    Accepted {
        /// Execution point the quorum answered at.
        seq: Seq,
        /// The agreed result.
        result: OpResult,
    },
    /// All replicas answered, no fresh quorum formed — the client must
    /// fall back to the ordered path.
    NoQuorum,
    /// The round's deadline or the step budget ran out without a decision.
    Timeout,
}

/// A simulated replicated-PEATS deployment.
///
/// # Examples
///
/// ```
/// use peats_replication::sim_harness::SimCluster;
/// use peats_policy::{OpCall, Policy, PolicyParams};
/// use peats_netsim::NetConfig;
/// use peats_tuplespace::tuple;
///
/// let mut cluster = SimCluster::new(
///     Policy::allow_all(), PolicyParams::new(), 1, &[100], NetConfig::default());
/// let result = cluster.invoke(0, OpCall::out(tuple!["hello"])).expect("replied");
/// # let _ = result;
/// ```
pub struct SimCluster {
    net: SimNet,
    replicas: Vec<Rc<RefCell<Replica>>>,
    clients: Vec<ClientSlot>,
    step_budget: u64,
}

impl SimCluster {
    /// Builds `3f+1` replicas hosting a PEATS with `policy`/`params`, plus
    /// one client per entry of `client_pids` (the logical process ids the
    /// reference monitor will see).
    ///
    /// # Panics
    ///
    /// Panics if the policy parameters are inconsistent (a deployment-time
    /// configuration error).
    pub fn new(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        config: NetConfig,
    ) -> Self {
        let n = 3 * f + 1;
        Self::new_with(policy, params, f, client_pids, config, |id| {
            ReplicaConfig::new(id, n, f)
        })
    }

    /// [`SimCluster::new`] with per-replica configuration (tests tune the
    /// batching window and checkpoint interval).
    ///
    /// # Panics
    ///
    /// Panics if the policy parameters are inconsistent (a deployment-time
    /// configuration error).
    pub fn new_with(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        config: NetConfig,
        mk_cfg: impl Fn(ReplicaId) -> ReplicaConfig,
    ) -> Self {
        let n_replicas = 3 * f + 1;
        let master = b"peats-deployment-master".to_vec();
        let mut net = SimNet::new(config);

        let registry: BTreeMap<u64, u64> = client_pids
            .iter()
            .enumerate()
            .map(|(i, pid)| ((n_replicas + i) as u64, *pid))
            .collect();

        let mut replicas = Vec::new();
        for id in 0..n_replicas {
            let service = PeatsService::new(policy.clone(), params.clone())
                .expect("policy parameters are consistent");
            let replica = Rc::new(RefCell::new(Replica::new(
                mk_cfg(id as ReplicaId),
                service,
                registry.clone(),
            )));
            replicas.push(Rc::clone(&replica));
            let keys = KeyTable::new(id as u64, master.clone());
            net.add_node(Box::new(ReplicaActor {
                replica,
                host: ReplicaHost::new(keys, n_replicas),
            }));
        }

        let mut clients = Vec::new();
        for (i, pid) in client_pids.iter().enumerate() {
            let keys = KeyTable::new((n_replicas + i) as u64, master.clone());
            let inbox = Inbox::default();
            let node = net.add_node(Box::new(ClientActor {
                keys: keys.clone(),
                inbox: Rc::clone(&inbox),
            }));
            clients.push(ClientSlot {
                node,
                keys,
                inbox,
                state: Arc::new(ClientState::new(*pid, f, n_replicas, client_config())),
            });
        }

        SimCluster {
            net,
            replicas,
            clients,
            step_budget: 200_000,
        }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Injects a fault mode into replica `id`.
    pub fn set_fault(&mut self, id: ReplicaId, fault: FaultMode) {
        self.replicas[id as usize].borrow_mut().set_fault(fault);
    }

    fn each<R>(&self, read: impl Fn(&Replica) -> R) -> Vec<R> {
        self.replicas.iter().map(|r| read(&r.borrow())).collect()
    }

    /// The view each replica currently sits in.
    pub fn views(&self) -> Vec<u64> {
        self.each(Replica::view)
    }

    /// State digests of all replicas (divergence check).
    pub fn state_digests(&self) -> Vec<peats_auth::Digest> {
        self.each(Replica::state_digest)
    }

    /// Each replica's last executed sequence number.
    pub fn last_execs(&self) -> Vec<u64> {
        self.each(Replica::last_exec)
    }

    /// Each replica's stable checkpoint.
    pub fn stable_seqs(&self) -> Vec<u64> {
        self.each(Replica::stable_seq)
    }

    /// Each replica's memory footprint (bounded-memory assertions).
    pub fn footprints(&self) -> Vec<crate::replica::ReplicaFootprint> {
        self.each(Replica::footprint)
    }

    /// Client `client_idx`'s shared state: watermark, probe window, and
    /// counters.
    pub fn client(&self, client_idx: usize) -> &ClientState {
        &self.clients[client_idx].state
    }

    /// Steps the simulation up to `steps` times with no client activity —
    /// lets trailing protocol traffic (commit votes to stragglers,
    /// checkpoint exchanges, state transfer) drain before an assertion
    /// about replica state.
    pub fn settle(&mut self, steps: u64) {
        for _ in 0..steps {
            if !self.net.step() {
                break;
            }
        }
    }

    fn now(&self) -> Duration {
        Duration::from_micros(self.net.now())
    }

    fn start(&self, client_idx: usize, op: Op) -> (usize, Invocation) {
        let state = Arc::clone(&self.clients[client_idx].state);
        (client_idx, Invocation::new(state, op, self.now()))
    }

    /// The step loop: ships every invocation's outbox into the network,
    /// steps it, and feeds each client's delivered replies and the
    /// simulated clock to that client's invocations — until `done` holds
    /// for all of them or `budget` steps ran.
    fn drive(
        &mut self,
        invs: &mut [(usize, Invocation)],
        budget: u64,
        done: impl Fn(&Invocation) -> bool,
    ) {
        let mut steps = 0u64;
        loop {
            for (idx, inv) in invs.iter_mut() {
                let c = &self.clients[*idx];
                for (to, msg) in inv.drain_outbox() {
                    let sealed = Sealed::seal(&c.keys, u64::from(to), &msg);
                    self.net.inject(c.node, to, sealed.to_bytes());
                }
            }
            if steps >= budget || invs.iter().all(|(_, inv)| done(inv)) {
                return;
            }
            self.net.step();
            steps += 1;
            let now = self.now();
            for i in 0..invs.len() {
                let idx = invs[i].0;
                if invs[..i].iter().any(|(c, _)| *c == idx) {
                    continue; // this client's inbox is already drained
                }
                let replies: Vec<Reply> = self.clients[idx].inbox.borrow_mut().drain(..).collect();
                for (_, inv) in invs.iter_mut().filter(|(c, _)| *c == idx) {
                    for reply in &replies {
                        inv.step(now, Some(reply.clone()));
                    }
                }
            }
            for (_, inv) in invs.iter_mut() {
                inv.step(now, None);
            }
        }
    }

    fn outcome(inv: &mut Invocation) -> Option<OpResult> {
        inv.take_outcome()?.ok().map(|(_, result)| result)
    }

    fn run(&mut self, client_idx: usize, op: Op) -> Option<OpResult> {
        let mut invs = [self.start(client_idx, op)];
        self.drive(&mut invs, self.step_budget, Invocation::is_decided);
        Self::outcome(&mut invs[0].1)
    }

    /// Invokes `op` from client `client_idx`; runs the simulation until the
    /// client accepts a result (`f+1` matching replies) or the step budget
    /// runs out (`None` — e.g. when too many replicas are faulty).
    pub fn invoke(&mut self, client_idx: usize, op: OpCall<'static>) -> Option<OpResult> {
        self.run(client_idx, Op::Ordered(RequestOp::Call(op)))
    }

    /// Injects every request up-front — all concurrently in flight, so the
    /// primary orders them through its batching/pipelining window — and
    /// runs the simulation until every client accepted a result or the
    /// step budget runs out. Returns one result per input, in input order.
    pub fn invoke_many(&mut self, ops: Vec<(usize, OpCall<'static>)>) -> Vec<Option<OpResult>> {
        let mut invs: Vec<(usize, Invocation)> = ops
            .into_iter()
            .map(|(c, op)| self.start(c, Op::Ordered(RequestOp::Call(op))))
            .collect();
        self.drive(&mut invs, self.step_budget, Invocation::is_decided);
        invs.iter_mut().map(|(_, inv)| Self::outcome(inv)).collect()
    }

    /// The client's current read watermark.
    pub fn watermark(&self, client_idx: usize) -> Seq {
        self.client(client_idx).read_watermark()
    }

    /// One fast-read round from `client_idx` at its current watermark.
    /// Accepted reads advance the watermark (monotonic reads).
    pub fn try_fast_read(&mut self, client_idx: usize, op: OpCall<'static>) -> FastRead {
        let watermark = self.watermark(client_idx);
        self.try_fast_read_with_watermark(client_idx, op, watermark)
    }

    /// One fast-read round with an explicit watermark — tests inflate it to
    /// force every reply stale and prove the ordered fallback engages.
    pub fn try_fast_read_with_watermark(
        &mut self,
        client_idx: usize,
        op: OpCall<'static>,
        watermark: Seq,
    ) -> FastRead {
        let read_deadline = self.now() + client_config().read_timeout;
        let mut invs = [self.start(client_idx, Op::FastRead { op, watermark })];
        self.drive(&mut invs, self.step_budget, Invocation::is_decided);
        match invs[0].1.take_outcome() {
            Some(Ok((seq, result))) => FastRead::Accepted { seq, result },
            Some(Err(_)) if self.now() < read_deadline => FastRead::NoQuorum,
            _ => FastRead::Timeout,
        }
    }

    /// Read-only invocation through the production read policy: the `f+1`
    /// fast path first, ordered fallback on `NoQuorum`/timeout.
    pub fn invoke_read(&mut self, client_idx: usize, op: OpCall<'static>) -> Option<OpResult> {
        self.run(client_idx, Op::Read(op))
    }

    /// Broadcasts an ordered `Register` from `client_idx` and runs the
    /// simulation until `f+1` replicas acknowledge the park (returning the
    /// in-flight block) or the call decides immediately against a tuple
    /// already in the space (returning `Some(result)` alongside it).
    ///
    /// # Panics
    ///
    /// Panics if the registration is neither acknowledged nor decided
    /// within the step budget.
    pub fn begin_blocking(
        &mut self,
        client_idx: usize,
        template: Template,
        kind: WaitKind,
    ) -> (SimBlocked, Option<OpResult>) {
        let mut blocked = SimBlocked {
            inv: self.start(client_idx, Op::Blocking { template, kind }),
        };
        self.drive(
            std::slice::from_mut(&mut blocked.inv),
            self.step_budget,
            |inv| inv.is_decided() || inv.parked_at().is_some(),
        );
        let immediate = Self::outcome(&mut blocked.inv.1);
        assert!(
            immediate.is_some() || blocked.inv.1.parked_at().is_some(),
            "registration was neither acknowledged nor decided within the step budget"
        );
        (blocked, immediate)
    }

    /// Runs the simulation feeding the blocked client's pushed wakes into
    /// its invocation until it decides or `budget` steps elapse (`None`:
    /// still blocked — which is the *correct* outcome while no matching
    /// tuple has been written and forged wakes are in flight).
    pub fn pump_blocked(&mut self, blocked: &mut SimBlocked, budget: u64) -> Option<OpResult> {
        self.drive(
            std::slice::from_mut(&mut blocked.inv),
            budget,
            Invocation::is_decided,
        );
        Self::outcome(&mut blocked.inv.1)
    }

    /// The blocked caller's deadline passes now: runs the production
    /// cancel-then-settle path to its decision — the woken tuple when a
    /// match committed before the cancel, `Tuple(None)` when the cancel
    /// won.
    pub fn cancel_blocked(&mut self, blocked: &mut SimBlocked) -> Option<OpResult> {
        blocked.inv.1.give_up(self.now());
        self.pump_blocked(blocked, self.step_budget)
    }
}

/// An in-flight blocked `rd`/`take` at a simulated client: the ordered
/// `Register` committed and `f+1` replicas confirmed the park. Feed it to
/// [`SimCluster::pump_blocked`] to collect the pushed wakes.
#[derive(Debug)]
pub struct SimBlocked {
    inv: (usize, Invocation),
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("replicas", &self.replicas.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats_tuplespace::{template, tuple};

    fn cluster(f: usize, clients: &[u64]) -> SimCluster {
        SimCluster::new(
            Policy::allow_all(),
            PolicyParams::new(),
            f,
            clients,
            NetConfig::default(),
        )
    }

    #[test]
    fn out_then_rdp_roundtrip() {
        let mut c = cluster(1, &[100]);
        assert_eq!(
            c.invoke(0, OpCall::out(tuple!["A", 1])),
            Some(OpResult::Done)
        );
        assert_eq!(
            c.invoke(0, OpCall::rdp(template!["A", ?x])),
            Some(OpResult::Tuple(Some(tuple!["A", 1])))
        );
        // All replicas converged to the same state.
        let digests = c.state_digests();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cas_is_exclusive_across_clients() {
        let mut c = cluster(1, &[100, 101]);
        let op = |v: i64| OpCall::cas(template!["D", ?x], tuple!["D", v]);
        let r1 = c.invoke(0, op(1)).unwrap();
        let r2 = c.invoke(1, op(2)).unwrap();
        assert_eq!(
            r1,
            OpResult::Cas {
                inserted: true,
                found: None
            }
        );
        assert_eq!(
            r2,
            OpResult::Cas {
                inserted: false,
                found: Some(tuple!["D", 1])
            }
        );
    }

    #[test]
    fn crashed_replica_does_not_block_progress() {
        let mut c = cluster(1, &[100]);
        c.set_fault(3, FaultMode::Crashed);
        assert_eq!(c.invoke(0, OpCall::out(tuple!["A"])), Some(OpResult::Done));
    }

    #[test]
    fn corrupt_replies_are_outvoted() {
        let mut c = cluster(1, &[100]);
        c.set_fault(2, FaultMode::CorruptReplies);
        assert_eq!(c.invoke(0, OpCall::out(tuple!["A"])), Some(OpResult::Done));
    }

    #[test]
    fn pipelined_requests_batch_and_all_complete() {
        // Six requests in flight at once from two clients: the primary's
        // window forces batching, every request must still decide, and the
        // replicas must converge.
        let mut c = cluster(1, &[100, 101]);
        let ops: Vec<(usize, OpCall<'static>)> = (0..6i64)
            .map(|i| ((i % 2) as usize, OpCall::out(tuple!["B", i])))
            .collect();
        let results = c.invoke_many(ops);
        assert_eq!(results, vec![Some(OpResult::Done); 6]);
        let digests = c.state_digests();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        // All six tuples are actually in the space.
        for i in 0..6i64 {
            assert_eq!(
                c.invoke(0, OpCall::rdp(template!["B", i])),
                Some(OpResult::Tuple(Some(tuple!["B", i])))
            );
        }
    }

    #[test]
    fn batched_requests_survive_view_change() {
        // Crashed primary with a backlog of concurrent requests: the view
        // change must re-order the pending batches under the new primary
        // without losing or double-executing any request.
        let mut c = cluster(1, &[100, 101]);
        c.set_fault(0, FaultMode::Crashed); // primary of view 0
        let ops: Vec<(usize, OpCall<'static>)> = (0..6i64)
            .map(|i| ((i % 2) as usize, OpCall::out(tuple!["V", i])))
            .collect();
        let results = c.invoke_many(ops);
        assert_eq!(results, vec![Some(OpResult::Done); 6]);
        assert!(c.views().iter().any(|v| *v > 0), "views: {:?}", c.views());
        // A 2f+1 quorum of correct replicas share the post-recovery state.
        let digests = c.state_digests();
        let max_agree = digests
            .iter()
            .map(|d| digests.iter().filter(|e| *e == d).count())
            .max()
            .unwrap();
        assert!(max_agree >= 3, "no 2f+1 quorum shares a state digest");
        for i in 0..6i64 {
            assert_eq!(
                c.invoke(1, OpCall::rdp(template!["V", i])),
                Some(OpResult::Tuple(Some(tuple!["V", i])))
            );
        }
    }

    #[test]
    fn crashed_primary_triggers_view_change() {
        let mut c = cluster(1, &[100]);
        c.set_fault(0, FaultMode::Crashed); // primary of view 0
        assert_eq!(c.invoke(0, OpCall::out(tuple!["A"])), Some(OpResult::Done));
        // Some correct replica moved past view 0.
        assert!(c.views().iter().any(|v| *v > 0), "views: {:?}", c.views());
    }

    #[test]
    fn two_consecutive_crashed_primaries_still_commit() {
        // Primaries of views 0 AND 1 are crashed (f = 2, so n = 7 tolerates
        // both). Replicas first vote view 1; when its primary never forms
        // it, repeated timeouts must escalate to view 2 — re-voting view 1
        // forever was the wedge this regression test pins.
        let mut c = cluster(2, &[100]);
        c.set_fault(0, FaultMode::Crashed);
        c.set_fault(1, FaultMode::Crashed);
        assert_eq!(c.invoke(0, OpCall::out(tuple!["E"])), Some(OpResult::Done));
        assert!(
            c.views().iter().any(|v| *v >= 2),
            "the cluster must move past the second crashed primary: {:?}",
            c.views()
        );
        assert_eq!(
            c.invoke(0, OpCall::rdp(template!["E"])),
            Some(OpResult::Tuple(Some(tuple!["E"])))
        );
    }

    fn checkpointing_cluster(
        f: usize,
        clients: &[u64],
        interval: u64,
        batch_cap: usize,
    ) -> SimCluster {
        let n = 3 * f + 1;
        SimCluster::new_with(
            Policy::allow_all(),
            PolicyParams::new(),
            f,
            clients,
            NetConfig::default(),
            move |id| ReplicaConfig {
                batch_cap,
                max_in_flight: 2,
                checkpoint_interval: interval,
                ..ReplicaConfig::new(id, n, f)
            },
        )
    }

    #[test]
    fn sustained_traffic_keeps_replica_memory_bounded() {
        // N ≫ checkpoint interval requests: every replica's slot log,
        // ordering hints, and vote stores must stay bounded by the interval
        // plus the in-flight window — not grow with the run.
        let interval = 4u64;
        let (batch_cap, in_flight) = (2usize, 2u64);
        let mut c = checkpointing_cluster(1, &[100, 101], interval, batch_cap);
        let rounds = 40;
        for r in 0..rounds {
            let ops: Vec<(usize, OpCall<'static>)> = (0..4i64)
                .map(|i| ((i % 2) as usize, OpCall::out(tuple!["L", r, i])))
                .collect();
            let results = c.invoke_many(ops);
            assert!(results.iter().all(|r| r.is_some()), "round {r} stalled");
        }
        c.settle(50_000);
        let slot_bound = (interval + in_flight) as usize * 2;
        for (id, fp) in c.footprints().into_iter().enumerate() {
            assert!(
                fp.slots <= slot_bound,
                "replica {id} retains {} slots after 160 requests (bound {slot_bound})",
                fp.slots
            );
            assert!(
                fp.ordered <= slot_bound * batch_cap,
                "replica {id} retains {} ordering hints (bound {})",
                fp.ordered,
                slot_bound * batch_cap
            );
            assert!(
                fp.max_replies_per_client <= 64,
                "replica {id} reply retention leaked: {}",
                fp.max_replies_per_client
            );
            assert!(
                fp.checkpoint_votes <= c.n_replicas(),
                "replica {id} checkpoint votes leaked: {}",
                fp.checkpoint_votes
            );
        }
        let stables = c.stable_seqs();
        let execs = c.last_execs();
        for id in 0..c.n_replicas() {
            assert!(
                stables[id] + slot_bound as u64 >= execs[id],
                "replica {id} stable checkpoint {} lags execution {}",
                stables[id],
                execs[id]
            );
        }
    }

    #[test]
    fn crashed_replica_rejoins_via_state_transfer_after_gc() {
        // Replica 3 sleeps through enough traffic that the history it
        // missed is garbage-collected cluster-wide. On waking it cannot
        // replay pruned slots; only a snapshot install can move its
        // last_exec — which is exactly what must happen.
        let interval = 2u64;
        let mut c = checkpointing_cluster(1, &[100], interval, 4);
        c.set_fault(3, FaultMode::Crashed);
        for i in 0..12i64 {
            assert_eq!(
                c.invoke(0, OpCall::out(tuple!["H", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(50_000);
        let stable_while_down = c.stable_seqs()[0];
        assert!(
            stable_while_down > 0,
            "healthy replicas must stabilize while 3 is down"
        );
        assert_eq!(c.last_execs()[3], 0, "crashed replica executed nothing");

        c.set_fault(3, FaultMode::Correct);
        // Fresh traffic crosses new checkpoint boundaries; their broadcast
        // votes are what tells replica 3 it fell behind a stable
        // checkpoint, triggering FetchState → StateSnapshot.
        for i in 0..8i64 {
            assert_eq!(
                c.invoke(0, OpCall::out(tuple!["R", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(100_000);
        let execs = c.last_execs();
        assert!(
            execs[3] >= stable_while_down,
            "rejoined replica must adopt a checkpoint past the pruned history: {execs:?}"
        );
        assert!(
            c.stable_seqs()[3] >= stable_while_down,
            "rejoined replica must hold a stable checkpoint of its own"
        );
        // And its service state must agree with the quorum.
        let digests = c.state_digests();
        let agree = digests.iter().filter(|d| **d == digests[3]).count();
        assert!(
            agree >= 3,
            "restored replica must share the quorum state (agree={agree})"
        );
    }

    #[test]
    fn lossy_network_still_completes() {
        let mut c = SimCluster::new(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            NetConfig {
                drop_probability: 0.05,
                ..NetConfig::default()
            },
        );
        assert_eq!(c.invoke(0, OpCall::out(tuple!["A"])), Some(OpResult::Done));
    }

    #[test]
    fn registration_survives_a_view_change_mid_block() {
        // The registration table is replicated state: a waiter parked in
        // view 0 must still be woken by an `out` that commits under the
        // view-1 primary after the original primary crashes mid-block.
        let mut c = cluster(1, &[100, 101]);
        let (mut blocked, immediate) = c.begin_blocking(0, template!["VC", ?x], WaitKind::Rd);
        assert_eq!(immediate, None, "nothing to match yet: the rd must park");
        c.set_fault(0, FaultMode::Crashed); // primary of view 0
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["VC", 7])),
            Some(OpResult::Done)
        );
        assert!(c.views().iter().any(|v| *v > 0), "views: {:?}", c.views());
        assert_eq!(
            c.pump_blocked(&mut blocked, 50_000),
            Some(OpResult::Tuple(Some(tuple!["VC", 7]))),
            "the new view's commits must wake the view-0 waiter"
        );
    }

    #[test]
    fn rejoined_replica_wakes_a_waiter_it_never_saw_register() {
        // Replica 3 sleeps through a waiter's registration AND the
        // checkpoint that garbage-collects the Register's slot, so the only
        // way it can learn about the waiter is the snapshot's registration
        // table. The fault pattern afterwards (one crashed original, one
        // reply-corrupting original) leaves exactly two honest wake
        // sources — one of which is the rejoined replica — so the blocked
        // invoke completes only if the snapshot carried the registration.
        let interval = 2u64;
        let mut c = checkpointing_cluster(1, &[100, 101], interval, 4);
        c.set_fault(3, FaultMode::Crashed);
        let (mut blocked, immediate) = c.begin_blocking(0, template!["XFER", ?x], WaitKind::Rd);
        assert_eq!(immediate, None);
        // Unrelated traffic crosses checkpoint boundaries; the Register's
        // slot is pruned cluster-wide.
        for i in 0..12i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["NOISE", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(50_000);
        assert!(c.stable_seqs()[0] > 0, "history must have been GC'd");
        assert_eq!(c.last_execs()[3], 0, "replica 3 slept through it all");

        c.set_fault(3, FaultMode::Correct);
        for i in 0..8i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["NOISE2", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(100_000);
        let fp = c.footprints();
        assert_eq!(
            fp[3].registrations, 1,
            "the snapshot must have carried the registration table"
        );

        // Only replicas 0 and 3 now send honest wakes: the waiter's f+1
        // quorum *requires* the snapshot-restored replica's wake.
        c.set_fault(1, FaultMode::CorruptReplies);
        c.set_fault(2, FaultMode::Crashed);
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["XFER", 9])),
            Some(OpResult::Done)
        );
        assert_eq!(
            c.pump_blocked(&mut blocked, 100_000),
            Some(OpResult::Tuple(Some(tuple!["XFER", 9]))),
            "the rejoined replica's wake must complete the quorum"
        );
    }

    #[test]
    fn forged_wakes_cannot_complete_a_blocked_invoke() {
        // A reply-corrupting replica attaches a forged Wake (absurd seq,
        // fabricated result) to everything it sends. One faulty replica is
        // below the f+1 vote threshold, so the waiter must stay blocked
        // until a *committed* matching write produces an honest quorum —
        // and must then decide on the true tuple, not the forgery.
        let mut c = cluster(1, &[100, 101]);
        c.set_fault(1, FaultMode::CorruptReplies);
        let (mut blocked, immediate) = c.begin_blocking(0, template!["FORGE", ?x], WaitKind::Take);
        assert_eq!(immediate, None);
        // Unrelated traffic makes the corrupt replica chatter (every reply
        // it owes anyone is accompanied by a forged wake).
        for i in 0..4i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["OTHER", i])),
                Some(OpResult::Done)
            );
        }
        assert_eq!(
            c.pump_blocked(&mut blocked, 30_000),
            None,
            "forged wakes alone must not complete the blocked take"
        );
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["FORGE", 1])),
            Some(OpResult::Done)
        );
        assert_eq!(
            c.pump_blocked(&mut blocked, 50_000),
            Some(OpResult::Tuple(Some(tuple!["FORGE", 1]))),
            "the honest quorum's wakes decide with the true tuple"
        );
        // The take consumed the tuple at its commit slot: it is gone from
        // the space on every correct replica.
        assert_eq!(
            c.invoke(1, OpCall::rdp(template!["FORGE", ?x])),
            Some(OpResult::Tuple(None))
        );
    }

    #[test]
    fn timed_out_take_keeps_the_tuple_its_cancel_lost_to() {
        // The matching out commits before the take's deadline-driven
        // Cancel, so the registration fired and the tuple left the space
        // at every replica. The cancel must therefore lose the race, and
        // the take must return the tuple — reading "cancelled" from the
        // parked acks would lose it for good.
        let mut c = cluster(1, &[100, 101]);
        let (mut blocked, immediate) = c.begin_blocking(0, template!["RACE", ?x], WaitKind::Take);
        assert_eq!(immediate, None);
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["RACE", 1])),
            Some(OpResult::Done)
        );
        // Every replica's wake is delivered, unread, before the deadline.
        c.settle(2_000);
        assert_eq!(
            c.cancel_blocked(&mut blocked),
            Some(OpResult::Tuple(Some(tuple!["RACE", 1]))),
            "the take must return the tuple it consumed"
        );
        assert_eq!(
            c.invoke(1, OpCall::rdp(template!["RACE", ?x])),
            Some(OpResult::Tuple(None)),
            "the tuple is gone from the space"
        );
        assert!(c.footprints().iter().all(|fp| fp.registrations == 0));
    }

    #[test]
    fn timed_out_take_with_no_match_is_cancelled() {
        let mut c = cluster(1, &[100, 101]);
        let (mut blocked, _) = c.begin_blocking(0, template!["NONE", ?x], WaitKind::Take);
        assert_eq!(c.cancel_blocked(&mut blocked), Some(OpResult::Tuple(None)));
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["NONE", 1])),
            Some(OpResult::Done)
        );
        assert_eq!(
            c.invoke(1, OpCall::rdp(template!["NONE", ?x])),
            Some(OpResult::Tuple(Some(tuple!["NONE", 1]))),
            "no cancelled waiter consumed the later tuple"
        );
    }

    #[test]
    fn fast_reads_rotate_the_probe_window_off_a_crashed_replica() {
        // Replica 1 sits in the initial f+1 probe window and never
        // answers. Reads that probe it widen after the probe timeout and
        // rotate the preferred window; every read still decides on the
        // fast path, and the window ends up clear of the crashed replica.
        let mut c = cluster(1, &[100]);
        c.set_fault(1, FaultMode::Crashed);
        assert_eq!(c.client(0).probe_window(), vec![0, 1]);
        assert_eq!(
            c.invoke(0, OpCall::out(tuple!["SIL", 1])),
            Some(OpResult::Done)
        );
        let execs = c.last_execs();
        for _ in 0..10 {
            assert_eq!(
                c.invoke_read(0, OpCall::rdp(template!["SIL", ?x])),
                Some(OpResult::Tuple(Some(tuple!["SIL", 1])))
            );
        }
        assert_eq!(c.client(0).fast_reads_served(), 10);
        assert_eq!(c.client(0).fast_read_fallbacks(), 0);
        assert_eq!(c.last_execs(), execs, "no read was ordered");
        assert!(
            !c.client(0).probe_window().contains(&1),
            "the probe window must rotate off the crashed replica: {:?}",
            c.client(0).probe_window()
        );
    }

    #[test]
    fn policy_is_enforced_at_every_replica() {
        let mut c = SimCluster::new(
            peats::policies::strong_consensus(),
            PolicyParams::n_t(2, 1),
            1,
            &[0, 1],
            NetConfig::default(),
        );
        // Client with pid 0 proposes as itself: allowed.
        let r = c.invoke(0, OpCall::out(tuple!["PROPOSE", 0u64, 1]));
        assert_eq!(r, Some(OpResult::Done));
        // Client with pid 1 tries to impersonate pid 0: denied by every
        // correct replica's reference monitor.
        let r = c.invoke(1, OpCall::out(tuple!["PROPOSE", 0u64, 0]));
        assert!(matches!(r, Some(OpResult::Denied(_))), "{r:?}");
    }
}
