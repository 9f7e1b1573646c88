//! In-process deployments: the replicated PEATS as a real concurrent
//! service inside one process, every replica a thread running the
//! transport-generic [`replica_main`] and every client a
//! [`ReplicatedPeats`] handle.
//!
//! One [`Cluster`] serves every transport; a small [`Fabric`] supplies
//! the endpoints. [`ThreadedCluster`] runs over in-memory channels
//! ([`Threads`]) — the fast wall-clock verification tier (the performance
//! experiments, E12). `peats-net`'s `TcpCluster` runs the same cluster
//! over loopback sockets, where every message crosses the kernel's TCP
//! stack; its fabric also holds the listening sockets that let
//! [`kill_replica`](Cluster::kill_replica) /
//! [`respawn_replica`](Cluster::respawn_replica) bring a wiped replica
//! back on its old address.
//!
//! Every operation is a MAC-sealed request broadcast to `3f+1` replica
//! threads, ordered by the BFT protocol (batched and pipelined — see
//! [`ReplicaConfig`]), executed against each replica's policy-enforced
//! space, and voted on client-side (`f+1` matching replies). Because the
//! handle implements [`peats::TupleSpace`], every algorithm in
//! `peats-consensus` and `peats-universal` runs unmodified on top of it —
//! the paper's Fig. 2 picture, end to end.

use crate::client::ClientConfig;
use crate::faults::FaultMode;
use crate::messages::ReplicaId;
use crate::replica::{
    Replica, ReplicaConfig, ReplicaFootprint, DEFAULT_BATCH_CAP, DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_MAX_IN_FLIGHT,
};
use crate::runtime::{replica_main, ReplicatedPeats};
use crate::service::PeatsService;
use crate::wal::{DurableConfig, DurableStore, RecoveryReport};
use peats_auth::KeyTable;
use peats_netsim::{NodeId, ThreadMailbox, ThreadNet, Transport};
use peats_policy::{Policy, PolicyError, PolicyParams};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Deployment-wide configuration: the replicas' protocol knobs, their
/// durability, and the client handles' timing.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Maximum requests per `PrePrepare` batch (see
    /// [`ReplicaConfig::batch_cap`]).
    pub batch_cap: usize,
    /// Maximum assigned-but-unexecuted slots in flight (see
    /// [`ReplicaConfig::max_in_flight`]).
    pub max_in_flight: usize,
    /// Checkpoint interval in executed slots (see
    /// [`ReplicaConfig::checkpoint_interval`]; `0` disables checkpointing).
    pub checkpoint_interval: u64,
    /// Interval of the replicas' progress check (the view-change trigger).
    /// The check runs on a deadline — it fires even under continuous
    /// message traffic, so a flooding peer cannot starve it.
    pub progress_period: Duration,
    /// Timing knobs handed to every client handle.
    pub client: ClientConfig,
    /// Root directory for durable replica state. When set, each replica
    /// opens a [`DurableStore`](crate::wal::DurableStore) under
    /// `data_dir/replica-<id>`, recovers from any state found there, and
    /// write-ahead-logs every executed batch. `None` (the default) runs
    /// memory-only.
    pub data_dir: Option<std::path::PathBuf>,
    /// Durability knobs (fsync policy, segment size) applied when
    /// `data_dir` is set.
    pub durable: DurableConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            batch_cap: DEFAULT_BATCH_CAP,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            progress_period: Duration::from_millis(300),
            client: ClientConfig::default(),
            data_dir: None,
            durable: DurableConfig::default(),
        }
    }
}

impl AsRef<ClusterConfig> for ClusterConfig {
    fn as_ref(&self) -> &ClusterConfig {
        self
    }
}

impl ClusterConfig {
    /// The pre-batching behavior — one slot per request the moment it
    /// arrives. The benchmark baseline.
    pub fn one_slot_per_request() -> Self {
        ClusterConfig {
            batch_cap: 1,
            max_in_flight: usize::MAX,
            ..ClusterConfig::default()
        }
    }

    /// Builds replica `id` of an `n = 3f+1` deployment under this
    /// configuration. With `data_dir` set it first recovers from (and
    /// keeps logging to) `data_dir/replica-<id>`; on a disk error the
    /// replica stays memory-only and the error is returned for the caller
    /// to report — or to refuse to serve, as `peatsd` does.
    pub fn build_replica(
        &self,
        id: ReplicaId,
        f: usize,
        service: PeatsService,
        registry: BTreeMap<u64, u64>,
    ) -> (Replica, std::io::Result<Option<RecoveryReport>>) {
        let cfg = ReplicaConfig {
            batch_cap: self.batch_cap,
            max_in_flight: self.max_in_flight,
            checkpoint_interval: self.checkpoint_interval,
            ..ReplicaConfig::new(id, 3 * f + 1, f)
        };
        let mut replica = Replica::new(cfg, service, registry);
        let disk = match &self.data_dir {
            None => Ok(None),
            Some(root) => DurableStore::open(&root.join(format!("replica-{id}")), self.durable)
                .map(|(store, recovery)| Some(replica.restore_durable(store, recovery))),
        };
        (replica, disk)
    }
}

/// The endpoints a [`Cluster`] runs over: one per replica (nodes
/// `0..n`) and one per client (nodes `n..`).
pub trait Fabric {
    /// The transport every endpoint speaks.
    type Net: Transport;
    /// The deployment configuration: [`ClusterConfig`] plus any transport
    /// knobs.
    type Config: AsRef<ClusterConfig>;
    /// Sets the fabric up for `n_replicas` replicas and `n_clients`
    /// clients.
    fn open(config: &Self::Config, n_replicas: usize, n_clients: usize) -> Self;
    /// Replica `id`'s endpoint: at start, and again when a killed replica
    /// respawns.
    fn replica_endpoint(&mut self, id: NodeId) -> (Self::Net, <Self::Net as Transport>::Mailbox);
    /// The endpoint of the client at `node`.
    fn client_endpoint(&mut self, node: NodeId) -> (Self::Net, <Self::Net as Transport>::Mailbox);
    /// Cuts an endpoint's connections (kill and shutdown). Thread
    /// channels have none to cut.
    fn close(_net: &Self::Net) {}
}

/// In-memory channels ([`ThreadNet`]). Each endpoint opens once, so a
/// killed replica cannot respawn here — use
/// [`restart_replica`](Cluster::restart_replica) instead.
#[derive(Debug)]
pub struct Threads {
    net: ThreadNet,
    mailboxes: Vec<Option<ThreadMailbox>>,
}

impl Fabric for Threads {
    type Net = ThreadNet;
    type Config = ClusterConfig;

    fn open(_: &ClusterConfig, n_replicas: usize, n_clients: usize) -> Self {
        let (net, mailboxes) = ThreadNet::new(n_replicas + n_clients);
        Threads {
            net,
            mailboxes: mailboxes.into_iter().map(Some).collect(),
        }
    }

    fn replica_endpoint(&mut self, id: NodeId) -> (ThreadNet, ThreadMailbox) {
        self.client_endpoint(id)
    }

    fn client_endpoint(&mut self, node: NodeId) -> (ThreadNet, ThreadMailbox) {
        let mailbox = self.mailboxes[node as usize]
            .take()
            .expect("a thread-channel endpoint opens once");
        (self.net.clone(), mailbox)
    }
}

/// The replicated PEATS over in-memory channels.
pub type ThreadedCluster = Cluster<Threads>;

/// One replica's running seat.
struct Seat<N> {
    /// Shared with the replica's thread (which owns the mailbox); tests
    /// use it for fault injection, restarts, and introspection.
    replica: Arc<parking_lot::Mutex<Replica>>,
    net: N,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

/// A running in-process replicated PEATS over fabric `F`.
pub struct Cluster<F: Fabric> {
    fabric: F,
    f: usize,
    seats: Vec<Seat<F::Net>>,
    client_slots: Vec<Option<u64>>,
    client_nets: Vec<F::Net>,
    /// Everything needed to build a fresh replica on a restart.
    policy: Policy,
    params: PolicyParams,
    registry: BTreeMap<u64, u64>,
    config: ClusterConfig,
}

/// The MAC master secret of in-process deployments.
const MASTER: &[u8] = b"peats-cluster-master";

impl ThreadedCluster {
    /// Spawns `3f+1` replica threads hosting a PEATS with
    /// `policy`/`params` under the default [`ClusterConfig`]; provisions
    /// one client slot per entry of `client_pids`. `faults[i]` (when
    /// provided) injects a fault into replica `i`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] when the policy declares unset
    /// parameters.
    pub fn start(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        faults: &[FaultMode],
    ) -> Result<Self, PolicyError> {
        Self::start_with(
            policy,
            params,
            f,
            client_pids,
            faults,
            ClusterConfig::default(),
        )
    }
}

impl<F: Fabric> Cluster<F> {
    /// Spawns `3f+1` replica threads on a fresh fabric, hosting a PEATS
    /// with `policy`/`params` under `config`; provisions one client slot
    /// per entry of `client_pids`. `faults[i]` (when provided) injects a
    /// fault into replica `i`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] when the policy declares unset
    /// parameters.
    pub fn start_with(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        faults: &[FaultMode],
        config: F::Config,
    ) -> Result<Self, PolicyError> {
        let n_replicas = 3 * f + 1;
        let registry = client_pids
            .iter()
            .enumerate()
            .map(|(i, pid)| ((n_replicas + i) as u64, *pid))
            .collect();
        let mut cluster = Cluster {
            fabric: F::open(&config, n_replicas, client_pids.len()),
            f,
            seats: Vec::with_capacity(n_replicas),
            client_slots: client_pids.iter().copied().map(Some).collect(),
            client_nets: Vec::new(),
            policy,
            params,
            registry,
            config: config.as_ref().clone(),
        };
        for id in 0..n_replicas {
            let mut replica = cluster.fresh_replica(id)?;
            if let Some(fault) = faults.get(id) {
                replica.set_fault(fault.clone());
            }
            let seat = cluster.spawn(id, Arc::new(parking_lot::Mutex::new(replica)));
            cluster.seats.push(seat);
        }
        Ok(cluster)
    }

    /// A brand-new state machine for replica `id`, recovered from its data
    /// dir when the deployment is durable. Disk failure is non-fatal: the
    /// replica keeps running memory-only, matching the degrade policy of
    /// the [`wal`](crate::wal) module.
    fn fresh_replica(&self, id: usize) -> Result<Replica, PolicyError> {
        let service = PeatsService::new(self.policy.clone(), self.params.clone())?;
        let registry = self.registry.clone();
        let (replica, disk) = self
            .config
            .build_replica(id as ReplicaId, self.f, service, registry);
        if let Err(e) = disk {
            eprintln!("replica {id}: disk unavailable ({e}); running memory-only");
        }
        Ok(replica)
    }

    fn spawn(&mut self, id: usize, replica: Arc<parking_lot::Mutex<Replica>>) -> Seat<F::Net> {
        let (net, mailbox) = self.fabric.replica_endpoint(id as NodeId);
        let stop = Arc::new(AtomicBool::new(false));
        let join = {
            let (replica, net, stop) = (Arc::clone(&replica), net.clone(), Arc::clone(&stop));
            let keys = KeyTable::new(id as u64, MASTER.to_vec());
            let (n, period) = (self.n_replicas(), self.config.progress_period);
            std::thread::spawn(move || replica_main(replica, keys, mailbox, net, n, stop, period))
        };
        Seat {
            replica,
            net,
            stop,
            join: Some(join),
        }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        3 * self.f + 1
    }

    /// Injects a fault mode into a running replica (crash/recover
    /// experiments).
    pub fn set_fault(&self, id: usize, fault: FaultMode) {
        self.seats[id].replica.lock().set_fault(fault);
    }

    /// Replaces replica `id`'s state machine with a brand-new one (fresh
    /// service, empty log, view 0) — a crash-and-restart. The replica's
    /// thread, endpoint, and keys survive; a memory-only replica recovers
    /// through checkpoint detection and snapshot state transfer, a durable
    /// one from its data dir first.
    pub fn restart_replica(&self, id: usize) {
        let fresh = self
            .fresh_replica(id)
            .expect("policy parameters were already validated at start");
        *self.seats[id].replica.lock() = fresh;
    }

    /// Tears replica `id` down hard: stops its event loop and cuts its
    /// endpoint's connections. Peers see dead sockets and fall back to
    /// reconnect-with-backoff.
    ///
    /// # Panics
    ///
    /// Panics if the replica's thread panicked.
    pub fn kill_replica(&mut self, id: usize) {
        let seat = &mut self.seats[id];
        seat.stop.store(true, Ordering::Relaxed);
        F::close(&seat.net);
        if let Some(join) = seat.join.take() {
            join.join().expect("replica thread panicked");
        }
    }

    /// Brings a killed replica back *wiped* — fresh state machine, empty
    /// log, view 0 — on a reopened endpoint. Recovery must go through
    /// reconnection, checkpoint detection, and snapshot state transfer,
    /// exactly like a process restarted after a crash.
    ///
    /// # Panics
    ///
    /// Panics if the replica was not killed first, or if the fabric
    /// cannot reopen an endpoint ([`Threads`]).
    pub fn respawn_replica(&mut self, id: usize) {
        assert!(
            self.seats[id].join.is_none(),
            "respawn_replica requires kill_replica first"
        );
        self.restart_replica(id);
        let replica = Arc::clone(&self.seats[id].replica);
        self.seats[id] = self.spawn(id, replica);
    }

    /// Replica `id`'s last executed sequence number.
    pub fn last_exec(&self, id: usize) -> u64 {
        self.seats[id].replica.lock().last_exec()
    }

    /// Replica `id`'s stable checkpoint.
    pub fn stable_seq(&self, id: usize) -> u64 {
        self.seats[id].replica.lock().stable_seq()
    }

    /// Replica `id`'s memory footprint (bounded-memory assertions).
    pub fn replica_footprint(&self, id: usize) -> ReplicaFootprint {
        self.seats[id].replica.lock().footprint()
    }

    /// Replica `id`'s service state digest (divergence checks).
    pub fn state_digest(&self, id: usize) -> peats_auth::Digest {
        self.seats[id].replica.lock().state_digest()
    }

    /// Takes the [`TupleSpace`](peats::TupleSpace) handle for client slot
    /// `idx`, opening its endpoint and spawning its reply-router thread.
    /// Clones of the handle share the router and invoke concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already taken.
    pub fn handle(&mut self, idx: usize) -> ReplicatedPeats<F::Net> {
        let pid = self.client_slots[idx]
            .take()
            .expect("client slot already taken");
        let node = (self.n_replicas() + idx) as NodeId;
        let (net, mailbox) = self.fabric.client_endpoint(node);
        self.client_nets.push(net.clone());
        let keys = KeyTable::new(u64::from(node), MASTER.to_vec());
        let (f, n, cfg) = (self.f, self.n_replicas(), self.config.client.clone());
        ReplicatedPeats::connect(net, mailbox, keys, pid, f, n, cfg)
    }

    /// Stops every replica thread and client endpoint and waits for the
    /// replica threads to exit.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        for seat in &self.seats {
            seat.stop.store(true, Ordering::Relaxed);
            F::close(&seat.net);
        }
        for net in &self.client_nets {
            F::close(net);
        }
        for seat in &mut self.seats {
            if let Some(join) = seat.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl<F: Fabric> Drop for Cluster<F> {
    fn drop(&mut self) {
        self.teardown();
    }
}

impl<F: Fabric> std::fmt::Debug for Cluster<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.n_replicas())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats::{CasOutcome, TupleSpace};
    use peats_tuplespace::{template, tuple, Template, Tuple};
    use std::time::Instant;

    #[test]
    fn end_to_end_out_rdp_cas() {
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100, 101],
            &[],
        )
        .unwrap();
        let a = cluster.handle(0);
        let b = cluster.handle(1);
        a.out(tuple!["JOB", 1]).unwrap();
        assert_eq!(
            b.rdp(&template!["JOB", ?x]).unwrap(),
            Some(tuple!["JOB", 1])
        );
        assert!(a
            .cas(&template!["D", ?x], tuple!["D", 7])
            .unwrap()
            .inserted());
        let out = b.cas(&template!["D", ?x], tuple!["D", 9]).unwrap();
        assert_eq!(out.found(), Some(&tuple!["D", 7]));
        cluster.shutdown();
    }

    #[test]
    fn survives_crashed_replica_and_corrupt_replies() {
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[
                FaultMode::Correct,
                FaultMode::CorruptReplies,
                FaultMode::Correct,
                FaultMode::Crashed,
            ],
        )
        .unwrap();
        let h = cluster.handle(0);
        h.out(tuple!["A"]).unwrap();
        assert_eq!(h.rdp(&template!["A"]).unwrap(), Some(tuple!["A"]));
        cluster.shutdown();
    }

    #[test]
    fn blocked_rd_is_one_registration_not_a_poll_loop() {
        let mut cluster =
            ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[50, 51], &[])
                .unwrap();
        let reader = cluster.handle(0);
        let writer = cluster.handle(1);
        // `next_req` is shared between clones, so the probe observes how
        // many requests — each a full consensus round — the blocked rd
        // issued while it waited.
        let probe = reader.clone();
        let t = std::thread::spawn(move || reader.rd(&template!["SLOW", ?x]).unwrap());
        std::thread::sleep(Duration::from_millis(300));
        writer.out(tuple!["SLOW", 1]).unwrap();
        assert_eq!(t.join().unwrap(), tuple!["SLOW", 1]);
        // Server-side wakes: the whole blocked rd is exactly one ordered
        // request (the Register) — O(1) consensus rounds however long the
        // block lasts, where the old poll loop issued a round per tick.
        assert_eq!(
            probe.issued_requests(),
            1,
            "a blocked rd must cost exactly one ordered registration"
        );
        assert_eq!(probe.rebroadcasts(), 0, "a parked read must not retry");
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clones_demux_replies_without_serializing() {
        // Regression: a clone used to hold the shared mailbox lock for its
        // whole `invoke`, serializing concurrent clients and eating replies
        // addressed to other in-flight requests (forcing them onto the
        // rebroadcast path). With the reply demux, invocations from clones
        // genuinely overlap (max in-flight ≥ 2 — impossible under the old
        // lock, which held broadcast-to-decision as one critical section)
        // and none of them needs a single retry round. The retry interval
        // is generous so a scheduler stall on a loaded CI box cannot
        // legitimately trigger a rebroadcast — only a lost/eaten reply can.
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            ClusterConfig {
                client: ClientConfig {
                    retry_interval: Duration::from_secs(5),
                    ..ClientConfig::default()
                },
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        let clones = 4;
        let ops = 16;
        let barrier = Arc::new(std::sync::Barrier::new(clones));
        let joins: Vec<_> = (0..clones)
            .map(|c| {
                let h = h.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..ops {
                        h.out(tuple!["C", c as i64, i]).unwrap();
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert!(
            h.max_concurrent_invokes() >= 2,
            "cloned handles must overlap in flight, saw {}",
            h.max_concurrent_invokes()
        );
        assert_eq!(
            h.rebroadcasts(),
            0,
            "no reply may be eaten: every invoke must decide on its first broadcast"
        );
        assert_eq!(h.issued_requests(), (clones * ops) as u64);
        cluster.shutdown();
    }

    #[test]
    fn view_change_fires_under_flooding_traffic() {
        // Regression: the progress check used to require a fully quiet
        // progress period; two flooding peers keep every mailbox busy
        // forever, so a crashed primary was never voted out and the client
        // timed out. The deadline-based check fires under continuous
        // traffic: the op below completes via a view change.
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[
                FaultMode::Crashed, // primary of view 0
                FaultMode::Flooder,
                FaultMode::Flooder,
                FaultMode::Correct,
            ],
        )
        .unwrap();
        let h = cluster.handle(0);
        let start = Instant::now();
        h.out(tuple!["F", 1]).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "progress check must fire on its deadline despite the flood"
        );
        assert_eq!(h.rdp(&template!["F", ?x]).unwrap(), Some(tuple!["F", 1]));
        cluster.shutdown();
    }

    #[test]
    fn retry_timer_resets_from_now_after_a_stall() {
        // A cluster that stays unresponsive longer than several retry
        // intervals (crashed primary + slow progress period) must produce
        // at most one rebroadcast per interval of wall time — the old
        // `next_retry += interval` arithmetic banked the missed ticks and
        // fired them back-to-back once the invoke thread was rescheduled.
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[FaultMode::Crashed],
            ClusterConfig {
                // Recovery takes ≥ 600ms, guaranteeing several 100ms retry
                // windows pass while the cluster is unresponsive.
                progress_period: Duration::from_millis(600),
                client: ClientConfig {
                    retry_interval: Duration::from_millis(100),
                    ..ClientConfig::default()
                },
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        let start = Instant::now();
        h.out(tuple!["R", 1]).unwrap();
        let elapsed = start.elapsed();
        let intervals = (elapsed.as_millis() / 100) as u64;
        assert!(
            h.rebroadcasts() <= intervals + 1,
            "rebroadcasts must be paced ({} in {} intervals)",
            h.rebroadcasts(),
            intervals
        );
        cluster.shutdown();
    }

    #[test]
    fn restarted_replica_recovers_via_state_transfer_mid_flood() {
        // Replica 2 is wiped mid-run (fresh state machine, nothing on
        // disk) while replica 3 floods junk votes into every mailbox. The
        // healthy majority keeps committing and checkpointing; the history
        // replica 2 missed is garbage-collected, so the ONLY way its
        // last_exec can move is a verified snapshot install — which the
        // checkpoint broadcasts of ongoing traffic must trigger.
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[
                FaultMode::Correct,
                FaultMode::Correct,
                FaultMode::Correct,
                FaultMode::Flooder,
            ],
            ClusterConfig {
                batch_cap: 2,
                max_in_flight: 2,
                checkpoint_interval: 2,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        for i in 0..16i64 {
            h.out(tuple!["PRE", i]).unwrap();
        }
        // Let the checkpoint exchange settle so GC provably ran before the
        // restart (history below h is gone cluster-wide).
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.stable_seq(0) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let stable_before = cluster.stable_seq(0);
        assert!(stable_before > 0, "cluster must stabilize under traffic");

        cluster.restart_replica(2);
        assert_eq!(cluster.last_exec(2), 0, "restart wiped the replica");
        // Sustained traffic crosses new boundaries; their votes tell the
        // blank replica it sits below a stable checkpoint.
        for i in 0..16i64 {
            h.out(tuple!["POST", i]).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.last_exec(2) < stable_before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            cluster.last_exec(2) >= stable_before,
            "restarted replica must adopt a snapshot past the pruned history \
             (last_exec {}, stable before restart {stable_before})",
            cluster.last_exec(2)
        );
        assert!(
            cluster.stable_seq(2) >= stable_before,
            "restarted replica must re-establish a stable checkpoint"
        );
        // Once caught up it serves reads like everyone else.
        assert_eq!(h.rdp(&template!["PRE", 0]).unwrap(), Some(tuple!["PRE", 0]));
        cluster.shutdown();
    }

    #[test]
    fn sustained_traffic_keeps_threaded_replica_memory_bounded() {
        let interval = 4u64;
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            ClusterConfig {
                batch_cap: 2,
                max_in_flight: 2,
                checkpoint_interval: interval,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        for i in 0..120i64 {
            h.out(tuple!["M", i]).unwrap();
        }
        // Stragglers may still be exchanging the last checkpoint votes.
        let deadline = Instant::now() + Duration::from_secs(5);
        let bound = (interval as usize + 2) * 2;
        while Instant::now() < deadline
            && (0..cluster.n_replicas()).any(|id| cluster.replica_footprint(id).slots > bound)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        for id in 0..cluster.n_replicas() {
            let fp = cluster.replica_footprint(id);
            assert!(
                fp.slots <= bound,
                "replica {id} retains {} slots after 120 requests (bound {bound})",
                fp.slots
            );
            assert!(
                fp.ordered <= bound * 2,
                "replica {id} retains {} ordering hints",
                fp.ordered
            );
        }
        cluster.shutdown();
    }

    /// The durable tier through the threaded driver: sustained traffic
    /// keeps the on-disk footprint bounded (checkpoints prune WAL
    /// segments and old snapshots), and a restarted replica comes back
    /// from its data dir — `last_exec` is recovered synchronously, before
    /// a single network message could have carried state transfer.
    #[test]
    fn durable_cluster_bounds_disk_and_restarts_from_disk() {
        let dir =
            std::env::temp_dir().join(format!("peats-threaded-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            ClusterConfig {
                checkpoint_interval: 4,
                data_dir: Some(dir.clone()),
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        for i in 0..40i64 {
            h.out(tuple!["D", i]).unwrap();
        }
        // Wait for checkpointing to settle so every replica has persisted
        // a snapshot and pruned its log.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline
            && (0..cluster.n_replicas()).any(|id| cluster.stable_seq(id) == 0)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        for id in 0..cluster.n_replicas() {
            let fp = cluster.replica_footprint(id);
            assert!(fp.snapshot_bytes > 0, "replica {id} never wrote a snapshot");
            assert!(
                fp.wal_segments <= 3,
                "replica {id} retains {} WAL segments after pruning",
                fp.wal_segments
            );
            assert!(
                fp.wal_bytes < 100 * 1024,
                "replica {id} retains {} WAL bytes for a tiny workload",
                fp.wal_bytes
            );
        }

        // Crash-and-restart replica 0: its fresh state machine must load
        // the durable snapshot + WAL suffix during `restart_replica`
        // itself (the other replicas haven't even been asked yet).
        let stable_before = cluster.stable_seq(0);
        assert!(stable_before > 0);
        cluster.restart_replica(0);
        assert!(
            cluster.last_exec(0) >= stable_before,
            "restarted replica recovered last_exec {} from disk, expected at least {stable_before}",
            cluster.last_exec(0)
        );

        // And it still participates: fresh writes land cluster-wide.
        h.out(tuple!["POST", 1]).unwrap();
        assert_eq!(
            h.rdp(&template!["POST", 1]).unwrap(),
            Some(tuple!["POST", 1])
        );
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Algorithm 1 inlined (the full object lives in `peats-consensus`,
    /// which cannot be a dev-dependency here without a cycle).
    fn weak_propose(space: &ReplicatedPeats, v: peats::Value) -> peats::Value {
        let t = Template::new(vec![
            peats_tuplespace::Field::exact("DECISION"),
            peats_tuplespace::Field::formal("d"),
        ]);
        let e = Tuple::new(vec![peats::Value::from("DECISION"), v.clone()]);
        match space.cas(&t, e).unwrap() {
            CasOutcome::Inserted => v,
            CasOutcome::Found(t) => t.get(1).cloned().unwrap_or(peats::Value::Null),
        }
    }

    #[test]
    fn fast_path_serves_reads_without_ordering() {
        let mut cluster =
            ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[])
                .unwrap();
        let h = cluster.handle(0);
        h.out(tuple!["FR", 1]).unwrap();
        h.out(tuple!["FR", 2]).unwrap();
        // Wait for every replica to finish executing both writes before
        // snapshotting: the write commits as soon as 2f+1 replicas have
        // it, so a straggler may still be executing when out() returns.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let execs: Vec<u64> = loop {
            let execs: Vec<u64> = (0..cluster.n_replicas())
                .map(|id| cluster.last_exec(id))
                .collect();
            if execs.iter().all(|e| *e == 2) || std::time::Instant::now() >= deadline {
                break execs;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        for _ in 0..10 {
            assert_eq!(h.rdp(&template!["FR", 1]).unwrap(), Some(tuple!["FR", 1]));
        }
        assert_eq!(h.count(&template!["FR", ?x]).unwrap(), 2);
        assert_eq!(
            h.fast_reads_served(),
            11,
            "every read must ride the fast path"
        );
        assert_eq!(h.fast_read_fallbacks(), 0, "no healthy read may fall back");
        // No replica ordered (executed) anything for the reads.
        let after: Vec<u64> = (0..cluster.n_replicas())
            .map(|id| cluster.last_exec(id))
            .collect();
        assert_eq!(after, execs, "reads must not enter the ordering pipeline");
        cluster.shutdown();
    }

    #[test]
    fn disabling_fast_reads_forces_the_ordered_path() {
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            ClusterConfig {
                client: ClientConfig {
                    fast_reads: false,
                    ..ClientConfig::default()
                },
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        h.out(tuple!["OR", 1]).unwrap();
        assert_eq!(h.rdp(&template!["OR", ?x]).unwrap(), Some(tuple!["OR", 1]));
        assert_eq!(h.count(&template!["OR", ?x]).unwrap(), 1);
        assert_eq!(h.fast_reads_served(), 0);
        cluster.shutdown();
    }

    #[test]
    fn fast_reads_mask_byzantine_replies() {
        // One reply forger (corrupt result, seq inflated to u64::MAX): the
        // three correct replicas still form the f+1 read quorum, and the
        // forged seq must not poison the handle's watermark (which would
        // wedge every later read into fallback).
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[FaultMode::Correct, FaultMode::CorruptReplies],
        )
        .unwrap();
        let h = cluster.handle(0);
        h.out(tuple!["BZ", 1]).unwrap();
        for _ in 0..5 {
            assert_eq!(h.rdp(&template!["BZ", ?x]).unwrap(), Some(tuple!["BZ", 1]));
        }
        assert_eq!(h.fast_reads_served(), 5);
        assert_eq!(h.fast_read_fallbacks(), 0);
        assert!(
            h.read_watermark() < u64::MAX / 2,
            "forged seq inflated the watermark: {}",
            h.read_watermark()
        );
        cluster.shutdown();
    }

    #[test]
    fn fast_reads_widen_past_a_silent_probe_target() {
        // Replica 1 sits in the initial f+1 probe window but never
        // answers. The first read pays one probe timeout, widens to the
        // remaining replicas, decides, and rotates the preferred window —
        // after which reads stop probing the dead replica and every read
        // is still served fast (no ordered fallback).
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[FaultMode::Correct, FaultMode::Crashed],
        )
        .unwrap();
        let h = cluster.handle(0);
        h.out(tuple!["SIL", 1]).unwrap();
        for _ in 0..10 {
            assert_eq!(
                h.rdp(&template!["SIL", ?x]).unwrap(),
                Some(tuple!["SIL", 1])
            );
        }
        assert_eq!(h.fast_reads_served(), 10);
        assert_eq!(h.fast_read_fallbacks(), 0);
        cluster.shutdown();
    }

    #[test]
    fn blocked_rd_wakes_at_push_latency_however_long_it_waited() {
        // With server-side wakes there is no poll tick or backoff to sit
        // out: a rd blocked for 1.5s must return within push latency of
        // the matching write, because the committing replicas push the
        // wake the moment the `out` executes.
        let mut cluster =
            ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[])
                .unwrap();
        let h = cluster.handle(0);
        let writer = h.clone();
        let t = std::thread::spawn(move || h.rd(&template!["WAKE", ?x]).unwrap());
        std::thread::sleep(Duration::from_millis(1_500));
        let written = Instant::now();
        writer.out(tuple!["WAKE", 1]).unwrap();
        assert_eq!(t.join().unwrap(), tuple!["WAKE", 1]);
        assert!(
            written.elapsed() < Duration::from_millis(900),
            "blocked rd must wake on the committed write, took {:?}",
            written.elapsed()
        );
        cluster.shutdown();
    }

    #[test]
    fn blocked_take_times_out_with_a_cancelled_registration() {
        // A blocked take whose deadline passes is detached with an ordered
        // Cancel: the invoke reports Unavailable, the registration is
        // pruned from every replica (bounded memory), and a later `out` of
        // a matching tuple stays in the space instead of being consumed by
        // a ghost waiter.
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            ClusterConfig {
                client: ClientConfig {
                    invoke_timeout: Duration::from_millis(400),
                    retry_interval: Duration::from_millis(100),
                    ..ClientConfig::default()
                },
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        let err = h.take(&template!["GHOST", ?x]).unwrap_err();
        assert!(matches!(err, peats::SpaceError::Unavailable(_)), "{err:?}");
        h.out(tuple!["GHOST", 1]).unwrap();
        // The tuple survives: no cancelled waiter consumed it.
        assert_eq!(
            h.rdp(&template!["GHOST", ?x]).unwrap(),
            Some(tuple!["GHOST", 1])
        );
        wait_for_no_registrations(&cluster);
        cluster.shutdown();
    }

    #[test]
    fn persistent_subscription_streams_certified_matches_in_order() {
        // The pub/sub tail: one persistent registration, many writes, each
        // pushed exactly once and in commit order, with f+1 replicas
        // vouching for every event.
        let mut cluster =
            ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[])
                .unwrap();
        let h = cluster.handle(0);
        // Pre-existing tuples are not replayed: the stream is a live tail.
        h.out(tuple!["EVT", 0]).unwrap();
        let mut sub = h.subscribe(&template!["EVT", ?x]).unwrap();
        for i in 1..=5i64 {
            h.out(tuple!["EVT", i]).unwrap();
        }
        for i in 1..=5i64 {
            let got = sub
                .next_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("event must be pushed");
            assert_eq!(got, tuple!["EVT", i]);
        }
        assert_eq!(sub.next_timeout(Duration::from_millis(200)).unwrap(), None);
        sub.cancel().unwrap();
        wait_for_no_registrations(&cluster);
        cluster.shutdown();
    }

    /// The ordered Cancel is acknowledged by f+1 replicas; stragglers
    /// execute it moments later. Poll briefly so the bounded-memory
    /// assertion covers *every* replica without racing the laggards.
    fn wait_for_no_registrations(cluster: &ThreadedCluster) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let counts: Vec<usize> = (0..cluster.n_replicas())
                .map(|id| cluster.replica_footprint(id).registrations)
                .collect();
            if counts.iter().all(|c| *c == 0) {
                return;
            }
            if Instant::now() >= deadline {
                panic!("registrations must be pruned on every replica, got {counts:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn weak_consensus_runs_on_replicated_space() {
        // Algorithm 1 over the real replicated PEATS (Fig. 2 end-to-end),
        // with the Fig. 3 policy enforced at every replica.
        let mut cluster = ThreadedCluster::start(
            peats::policies::weak_consensus(),
            PolicyParams::new(),
            1,
            &[1, 2],
            &[],
        )
        .unwrap();
        let c1 = cluster.handle(0);
        let c2 = cluster.handle(1);
        let j1 = std::thread::spawn(move || weak_propose(&c1, peats::Value::from("x")));
        let j2 = std::thread::spawn(move || weak_propose(&c2, peats::Value::from("y")));
        let (d1, d2) = (j1.join().unwrap(), j2.join().unwrap());
        assert_eq!(d1, d2);
        cluster.shutdown();
    }
}
