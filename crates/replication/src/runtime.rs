//! Transport-generic deployment runtime: the replica event loop and the
//! concurrent client handle, written against the
//! [`Transport`]/[`Mailbox`](peats_netsim::Mailbox) trait pair so the same
//! code drives every wall-clock tier — in-memory channels
//! ([`ThreadNet`](peats_netsim::ThreadNet), the fast verification tier) and
//! real TCP sockets (`peats-net`, the `peatsd` deployment tier).
//!
//! Both halves are thin loops around sans-io state machines. The
//! replica loop feeds [`Replica`] through [`ReplicaHost`] — the same
//! frame-opening, progress-check and seal-and-ship code the simulator's
//! replica actor runs. The client handle drives each
//! [`Invocation`] with one wall-clock loop:
//! send the outbox, then block on the invocation's reply channel until
//! the earlier of a reply or its next timer, so reply latency is set by
//! the cluster, not by a poll tick.
//!
//! Cloned [`ReplicatedPeats`] handles invoke **concurrently**: a dedicated
//! router thread owns the client node's mailbox and demultiplexes each
//! reply to the in-flight invocation it answers by `req_id`, so no
//! invocation ever holds the mailbox (or eats another invocation's
//! replies) while it waits.

use crate::client::{ClientConfig, ClientState, Invocation, Op, Reply};
use crate::messages::{Message, OpResult, ReplicaId, Request, RequestOp, Sealed, Seq, WaitKind};
use crate::replica::{Dest, Replica};
use peats::{CasOutcome, SpaceError, SpaceResult, TupleSpace};
use peats_auth::KeyTable;
use peats_codec::{Decode, Encode};
use peats_netsim::{Mailbox, NodeId, ThreadNet, Transport};
use peats_policy::OpCall;
use peats_tuplespace::{Template, Tuple};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The transport-independent half of a replica's event loop, shared by
/// [`replica_main`] and the simulator's replica actor: opening sealed
/// frames, the progress check, and sealing outputs per recipient.
#[derive(Debug)]
pub struct ReplicaHost {
    keys: KeyTable,
    n: usize,
    last_seen_exec: Seq,
}

impl ReplicaHost {
    /// The host for the replica holding `keys` in a cluster of `n`.
    pub fn new(keys: KeyTable, n: usize) -> Self {
        ReplicaHost {
            keys,
            n,
            last_seen_exec: 0,
        }
    }

    /// Opens one inbound frame and feeds it to `replica`. Garbage and bad
    /// MACs are dropped.
    pub fn on_frame(&self, replica: &mut Replica, payload: &[u8]) -> Vec<(Dest, Message)> {
        match Sealed::from_bytes(payload)
            .ok()
            .and_then(|s| s.open(&self.keys))
        {
            Some((sender, msg)) => replica.on_message(sender, msg),
            None => Vec::new(),
        }
    }

    /// The periodic progress check: a replica that executed nothing since
    /// the previous check suspects the primary (the view-change trigger).
    pub fn on_progress_check(&mut self, replica: &mut Replica) -> Vec<(Dest, Message)> {
        let last = replica.last_exec();
        let outputs = if last == self.last_seen_exec {
            replica.on_progress_timeout()
        } else {
            Vec::new()
        };
        self.last_seen_exec = last;
        outputs
    }

    /// Seals each output for its recipient(s) and hands the bytes to
    /// `send`.
    pub fn ship(&self, outputs: Vec<(Dest, Message)>, mut send: impl FnMut(NodeId, Vec<u8>)) {
        for (dest, msg) in outputs {
            let (first, last, skip) = match dest {
                Dest::Replica(r) => (u64::from(r), u64::from(r), None),
                Dest::AllReplicas => (0, self.n as u64 - 1, Some(self.keys.id())),
                Dest::Client(node) => (node, node, None),
            };
            for node in (first..=last).filter(|node| Some(*node) != skip) {
                send(
                    node as NodeId,
                    Sealed::seal(&self.keys, node, &msg).to_bytes(),
                );
            }
        }
    }
}

/// The replica event loop: drives one [`Replica`] state machine from a
/// transport mailbox until `stop` is set or the transport disconnects.
/// This is the loop a replica thread runs in an in-process
/// [`Cluster`](crate::Cluster) and the loop `peatsd` runs as a whole OS
/// process — same code, different [`Transport`].
pub fn replica_main<T: Transport>(
    replica: Arc<parking_lot::Mutex<Replica>>,
    keys: KeyTable,
    mailbox: T::Mailbox,
    net: T,
    n: usize,
    stop: Arc<AtomicBool>,
    progress_period: Duration,
) {
    let me = mailbox.id();
    let mut host = ReplicaHost::new(keys, n);
    let send = |to, bytes| net.send(me, to, bytes);
    // Deadline-based progress check: the next check time only moves when a
    // check actually runs, never because a message arrived. A quiet-period
    // timer (reset on every receipt) is starved forever by steady traffic —
    // a flooding Byzantine peer or staggered client retransmits could
    // suppress view changes indefinitely.
    //
    // The replica is behind a mutex (uncontended except for test
    // introspection and fault/restart injection); the lock is held per
    // state-machine call, never across a blocking receive or a send.
    let mut next_check = Instant::now() + progress_period;
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        if Instant::now() >= next_check {
            let outputs = host.on_progress_check(&mut replica.lock());
            host.ship(outputs, send);
            next_check = Instant::now() + progress_period;
        }
        match mailbox.recv_timeout(next_check.saturating_duration_since(Instant::now())) {
            Ok(Some((_, payload))) => {
                let outputs = host.on_frame(&mut replica.lock(), &payload);
                host.ship(outputs, send);
            }
            Ok(None) => {}    // deadline reached; handled at the top of the loop
            Err(_) => return, // transport gone
        }
    }
}

/// Routes each incoming reply to the in-flight invocation it answers, by
/// `req_id`. Shared by all clones of one client handle; the router thread
/// owns the node's mailbox, so an invocation never holds it — and never
/// discards replies addressed to other in-flight requests. A reply with no
/// route (a late reply for a completed invocation) is dropped.
type ReplyDemux = parking_lot::Mutex<BTreeMap<u64, mpsc::Sender<Reply>>>;

/// One invocation's reply channel, registered in the demux under every
/// request id the invocation sends; deregistered on drop.
struct Route {
    demux: Arc<ReplyDemux>,
    tx: mpsc::Sender<Reply>,
    rx: mpsc::Receiver<Reply>,
    ids: Vec<u64>,
}

impl Route {
    fn new(demux: &Arc<ReplyDemux>) -> Self {
        let (tx, rx) = mpsc::channel();
        let (demux, ids) = (Arc::clone(demux), Vec::new());
        Route { demux, tx, rx, ids }
    }

    fn listen(&mut self, req_id: u64) {
        if !self.ids.contains(&req_id) {
            self.demux.lock().insert(req_id, self.tx.clone());
            self.ids.push(req_id);
        }
    }
}

impl Drop for Route {
    fn drop(&mut self) {
        let mut routes = self.demux.lock();
        for id in &self.ids {
            routes.remove(id);
        }
    }
}

fn client_router<M: Mailbox>(mailbox: M, keys: KeyTable, demux: Arc<ReplyDemux>) {
    while let Some((_, payload)) = mailbox.recv() {
        if let Some(reply) = Reply::open(&keys, &payload) {
            if let Some(tx) = demux.lock().get(&reply.req_id) {
                let _ = tx.send(reply);
            }
        }
    }
}

/// Client handle onto a replicated PEATS cluster reached over any
/// [`Transport`]; implements [`peats::TupleSpace`], so all algorithms run
/// on it unchanged. Clones share the node's identity, request counter,
/// read watermark, and reply router — and invoke **concurrently**.
///
/// The default transport parameter keeps the thread-backed tier's spelling:
/// `ReplicatedPeats` is the in-memory handle handed out by
/// [`ThreadedCluster::handle`](crate::Cluster::handle), while
/// `ReplicatedPeats<TcpTransport>` is a real network client.
#[derive(Clone)]
pub struct ReplicatedPeats<T: Transport = ThreadNet> {
    net: T,
    demux: Arc<ReplyDemux>,
    keys: KeyTable,
    node: NodeId,
    client: Arc<ClientState>,
    epoch: Instant,
}

impl<T: Transport> ReplicatedPeats<T> {
    /// Builds a client handle for logical process `pid` at transport node
    /// `mailbox.id()`, spawning the reply-router thread that owns
    /// `mailbox`. The cluster has `n_replicas = 3f+1` replicas at node ids
    /// `0..n_replicas`; `keys` must hold this node's pairwise MACs.
    pub fn connect(
        net: T,
        mailbox: T::Mailbox,
        keys: KeyTable,
        pid: u64,
        f: usize,
        n_replicas: usize,
        cfg: ClientConfig,
    ) -> Self {
        let node = mailbox.id();
        let demux = Arc::new(ReplyDemux::default());
        {
            let (keys, demux) = (keys.clone(), Arc::clone(&demux));
            // The router exits when the mailbox disconnects — i.e. when
            // the transport shuts down.
            std::thread::spawn(move || client_router(mailbox, keys, demux));
        }
        ReplicatedPeats {
            net,
            demux,
            keys,
            node,
            client: Arc::new(ClientState::new(pid, f, n_replicas, cfg)),
            epoch: Instant::now(),
        }
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn send(&self, to: ReplicaId, msg: &Message) {
        let sealed = Sealed::seal(&self.keys, u64::from(to), msg);
        self.net.send(self.node, to, sealed.to_bytes());
    }

    /// The wall-clock loop: ships the invocation's outbox, then waits on
    /// its reply channel until a reply arrives or its next timer is due,
    /// until it decides.
    fn drive(&self, inv: &mut Invocation, route: &mut Route) -> SpaceResult<(Seq, OpResult)> {
        loop {
            for (to, msg) in inv.drain_outbox() {
                if let Message::Request(Request { req_id, .. })
                | Message::ReadRequest { req_id, .. } = &msg
                {
                    route.listen(*req_id);
                }
                self.send(to, &msg);
            }
            if let Some(outcome) = inv.take_outcome() {
                return outcome;
            }
            let wait = inv.next_timer().saturating_sub(self.now());
            let reply = route.rx.recv_timeout(wait).ok();
            inv.step(self.now(), reply);
        }
    }

    fn call(&self, op: Op) -> SpaceResult<OpResult> {
        let mut inv = Invocation::new(Arc::clone(&self.client), op, self.now());
        let (_, result) = self.drive(&mut inv, &mut Route::new(&self.demux))?;
        Ok(result)
    }

    /// Blocking `rd`/`take`: one ordered `Register` parks a template at
    /// every replica, then the invocation *waits* — replicas push a `Wake`
    /// when a committed `out` matches, so a blocked read costs exactly one
    /// consensus round (plus one for the wake-carrying `out` it shares)
    /// instead of a consensus round per poll tick. Past `invoke_timeout`
    /// the registration is cancelled in the total order; see
    /// [`Op::Blocking`].
    fn invoke_blocking(&self, template: &Template, kind: WaitKind) -> SpaceResult<Tuple> {
        let template = template.clone();
        match self.call(Op::Blocking { template, kind })? {
            OpResult::Tuple(Some(t)) => Ok(t),
            OpResult::Tuple(None) => Err(SpaceError::Unavailable(
                "blocked operation timed out and was cancelled".into(),
            )),
            other => Err(refusal(other)),
        }
    }

    /// Parks a *persistent* registration for `template`: every future
    /// committed `out` that matches is pushed to the returned
    /// [`Subscription`] as a certified event, in commit order, without any
    /// client polling. The live tail starts at the registration's commit
    /// slot — tuples already in the space are not replayed (pair with
    /// [`rdp`](TupleSpace::rdp) for a snapshot-then-follow pattern).
    pub fn subscribe(&self, template: &Template) -> SpaceResult<Subscription<T>> {
        let op = Op::Subscribe(template.clone());
        let mut inv = Invocation::new(Arc::clone(&self.client), op, self.now());
        let mut route = Route::new(&self.demux);
        match self.drive(&mut inv, &mut route)?.1 {
            OpResult::Registered => Ok(Subscription {
                handle: self.clone(),
                inv,
                route,
                cancelled: false,
            }),
            other => Err(refusal(other)),
        }
    }

    fn expect_tuple(&self, r: OpResult) -> SpaceResult<Option<Tuple>> {
        match r {
            OpResult::Tuple(t) => Ok(t),
            other => Err(refusal(other)),
        }
    }
}

/// The handle's shared client state: read watermark, probe window, and
/// counters, across all clones.
impl<T: Transport> std::ops::Deref for ReplicatedPeats<T> {
    type Target = ClientState;

    fn deref(&self) -> &ClientState {
        &self.client
    }
}

/// A live, certified stream of tuples matching a persistent registration:
/// the replicated pub/sub primitive. Every committed `out` whose tuple
/// matches the subscribed template is pushed by the replicas as a `Wake`;
/// the subscription delivers each commit slot exactly once, in order, and
/// only after `f+1` replicas agree on the slot's payload — a Byzantine
/// replica cannot inject, reorder, or duplicate events.
///
/// Dropping the subscription fires a best-effort `Cancel` broadcast (the
/// replicas prune the registration when it commits); call
/// [`cancel`](Subscription::cancel) instead to *confirm* removal with a
/// full ordered round.
pub struct Subscription<T: Transport = ThreadNet> {
    handle: ReplicatedPeats<T>,
    inv: Invocation,
    route: Route,
    cancelled: bool,
}

impl<T: Transport> Subscription<T> {
    /// Waits up to `timeout` for the next certified event. `Ok(None)`
    /// means no event arrived in time — the subscription stays live.
    pub fn next_timeout(&mut self, timeout: Duration) -> SpaceResult<Option<Tuple>> {
        self.inv.await_event(self.handle.now(), timeout);
        let (_, event) = self.handle.drive(&mut self.inv, &mut self.route)?;
        self.handle.expect_tuple(event)
    }

    /// Tears the registration down with a full ordered `Cancel` round —
    /// on `Ok`, the replicas have provably pruned it.
    pub fn cancel(mut self) -> SpaceResult<()> {
        self.cancelled = true;
        let target = self.inv.req_id();
        self.handle
            .call(Op::Ordered(RequestOp::Cancel { target }))?;
        Ok(())
    }
}

impl<T: Transport> Drop for Subscription<T> {
    fn drop(&mut self) {
        if self.cancelled {
            return;
        }
        // Best-effort detach: one unacknowledged Cancel broadcast. Blocking
        // on an ordered round inside Drop could stall the caller for the
        // whole invoke timeout; if every copy of this broadcast is lost the
        // registration survives until a later Cancel with the same target
        // (replicas bound registration memory per client, not per drop).
        let target = self.inv.req_id();
        let op = Op::Ordered(RequestOp::Cancel { target });
        let mut cancel = Invocation::new(Arc::clone(&self.handle.client), op, self.handle.now());
        for (to, msg) in cancel.drain_outbox() {
            self.handle.send(to, &msg);
        }
    }
}

/// Maps a result the caller did not expect to its error: a policy denial,
/// or `Unavailable` for anything else.
fn refusal(result: OpResult) -> SpaceError {
    match result {
        OpResult::Denied(d) => denied(d),
        other => SpaceError::Unavailable(format!("unexpected result {other:?}")),
    }
}

fn denied(detail: String) -> SpaceError {
    SpaceError::Denied(peats_policy::Decision::Denied {
        attempts: vec![("replicated".into(), detail)],
    })
}

impl<T: Transport> TupleSpace for ReplicatedPeats<T> {
    fn out(&self, entry: Tuple) -> SpaceResult<()> {
        match self.call(Op::Ordered(RequestOp::Call(OpCall::out(entry))))? {
            OpResult::Done => Ok(()),
            other => Err(refusal(other)),
        }
    }

    fn rdp(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        let r = self.call(Op::Read(OpCall::rdp(template.clone())))?;
        self.expect_tuple(r)
    }

    fn inp(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        let r = self.call(Op::Ordered(RequestOp::Call(OpCall::inp(template.clone()))))?;
        self.expect_tuple(r)
    }

    fn cas(&self, template: &Template, entry: Tuple) -> SpaceResult<CasOutcome> {
        let op = OpCall::cas(template.clone(), entry);
        match self.call(Op::Ordered(RequestOp::Call(op)))? {
            OpResult::Cas { inserted: true, .. } => Ok(CasOutcome::Inserted),
            OpResult::Cas {
                inserted: false,
                found: Some(t),
            } => Ok(CasOutcome::Found(t)),
            other => Err(refusal(other)),
        }
    }

    fn rd(&self, template: &Template) -> SpaceResult<Tuple> {
        // Blocking semantics are server-driven: one ordered Register parks
        // the template at every replica, and the matching `out`'s commit
        // pushes the wake — no client polling, no consensus round per tick.
        self.invoke_blocking(template, WaitKind::Rd)
    }

    fn take(&self, template: &Template) -> SpaceResult<Tuple> {
        self.invoke_blocking(template, WaitKind::Take)
    }

    fn count(&self, template: &Template) -> SpaceResult<usize> {
        match self.call(Op::Read(OpCall::count(template.clone())))? {
            OpResult::Count(n) => Ok(usize::try_from(n).unwrap_or(usize::MAX)),
            other => Err(refusal(other)),
        }
    }

    fn process_id(&self) -> peats_policy::ProcessId {
        self.client.pid
    }
}

impl<T: Transport> std::fmt::Debug for ReplicatedPeats<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedPeats")
            .field("pid", &self.client.pid)
            .field("replicas", &self.client.n)
            .finish()
    }
}
