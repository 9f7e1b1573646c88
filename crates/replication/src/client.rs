//! Sans-io client sessions: broadcast a request, vote on `f+1` matching
//! replies (§4: "basic voting protocols can be executed by the processes to
//! determine the operation results").
//!
//! Two session kinds share the voting idea but differ in what "matching"
//! means:
//!
//! - [`ClientSession`] drives the **ordered path**: a request goes through
//!   the full agreement pipeline, replicas reply with the `(seq, result)`
//!   pair recorded at execution, and the client accepts once `f+1` replicas
//!   agree on both. Committed slots keep their sequence numbers across view
//!   changes and correct replicas execute contiguously, so correct replicas
//!   always report the same pair — grouping on it costs no liveness while
//!   denying a Byzantine replica the chance to sneak a forged seq into the
//!   accepted pair.
//! - [`ReadSession`] drives the **fast read path**: `rd`/`rdp`/`count` are
//!   answered by each replica directly from its executed state, with no
//!   ordering round. The client accepts a result backed by `f+1` replicas
//!   that agree on `(seq, digest)` **at or above its watermark** — the
//!   highest quorum-backed seq it has observed — which preserves
//!   read-your-writes: a quorum at `seq ≥ watermark` has executed every
//!   write this client ever had acknowledged. Stale replicas are rejected
//!   individually; if all `n` answer and no fresh quorum forms (replicas
//!   caught mid-write disagree), the session reports [`ReadPoll::NoQuorum`]
//!   and the caller falls back to the ordered path.
//!
//! On top of the sessions sits [`Invocation`], the client's whole
//! invocation policy as one sans-io state machine: which replicas to ask,
//! when to retransmit, the overall deadline, the fast read's `f+1` probe
//! and widening, and a timed-out blocked op's cancel-then-settle. It holds
//! no socket and no clock — a caller feeds it [`Reply`]s (decoded by
//! [`Reply::open`]) and the current time, and ships its outbox. The
//! wall-clock loop runs in [`ReplicatedPeats`](crate::ReplicatedPeats);
//! the step loop in [`SimCluster`](crate::SimCluster).

use crate::messages::{Message, OpResult, ReplicaId, Request, RequestOp, Sealed, Seq, WaitKind};
use peats::{SpaceError, SpaceResult};
use peats_auth::{Digest, KeyTable};
use peats_codec::Decode;
use peats_policy::OpCall;
use peats_tuplespace::{Template, Tuple};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One in-flight ordered request from one client.
#[derive(Debug)]
pub struct ClientSession {
    request: Request,
    f: usize,
    replies: BTreeMap<ReplicaId, (Seq, OpResult)>,
    decided: Option<(Seq, OpResult)>,
}

impl ClientSession {
    /// Starts a session for `op` as logical process `client` with request
    /// number `req_id`, tolerating `f` faulty replicas.
    pub fn new(client: u64, req_id: u64, op: OpCall<'static>, f: usize) -> Self {
        Self::new_op(client, req_id, RequestOp::Call(op), f)
    }

    /// Starts a session for an arbitrary [`RequestOp`] (registrations and
    /// cancels ride the same ordered pipeline as calls).
    pub fn new_op(client: u64, req_id: u64, op: RequestOp, f: usize) -> Self {
        ClientSession {
            request: Request { client, req_id, op },
            f,
            replies: BTreeMap::new(),
            decided: None,
        }
    }

    /// The request to broadcast to all replicas (and rebroadcast on
    /// timeout).
    pub fn request_message(&self) -> Message {
        Message::Request(self.request.clone())
    }

    /// Feeds a `Reply`; returns the accepted `(seq, result)` once `f+1`
    /// replicas sent identical pairs for this request. The seq is the slot
    /// the cluster executed the request at — the caller advances its read
    /// watermark to it, and because acceptance required `f+1` matching
    /// claims, a lone Byzantine replica cannot inflate the watermark and
    /// wedge every future fast read into the ordered fallback.
    pub fn on_reply(
        &mut self,
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        result: OpResult,
    ) -> Option<(Seq, OpResult)> {
        if self.decided.is_some() || req_id != self.request.req_id {
            return self.decided.clone();
        }
        self.replies.insert(replica, (seq, result));
        // Count matching (seq, result) pairs (OpResult is not Ord; linear
        // grouping is fine for n ≤ a few dozen replicas).
        let mut groups: Vec<(&(Seq, OpResult), usize)> = Vec::new();
        for r in self.replies.values() {
            match groups.iter_mut().find(|(g, _)| *g == r) {
                Some((_, c)) => *c += 1,
                None => groups.push((r, 1)),
            }
        }
        if let Some((pair, _)) = groups.iter().find(|(_, c)| *c >= self.f + 1) {
            self.decided = Some((*pair).clone());
        }
        self.decided.clone()
    }

    /// The accepted `(seq, result)`, if already decided.
    pub fn decided(&self) -> Option<&(Seq, OpResult)> {
        self.decided.as_ref()
    }
}

/// Progress of a blocked invoke (register → wait → wake).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockingPoll {
    /// No quorum of any kind yet.
    Pending,
    /// `f+1` replicas confirmed the registration parked at this slot —
    /// the waiter is durably installed in replicated state; keep waiting
    /// for the wake.
    Parked(Seq),
    /// `f+1` replicas agreed on the final `(seq, result)` — either an
    /// immediate match served in the ordered reply, or a wake at the
    /// matching `out`'s slot.
    Decided(Seq, OpResult),
}

/// One blocked invoke: a `Register` broadcast once, then woken by
/// unsolicited `Wake`s and/or re-replies to retransmissions. Votes on the
/// *latest* `(seq, result)` claim per replica — a replica first answers
/// `(s₀, Registered)` and later upgrades its claim to the woken
/// `(s₁, tuple)`; grouping the latest claims means `f+1` matching
/// `Registered`s signal "parked" while `f+1` matching final results
/// decide, and a Byzantine replica forging wake seqs or tuples can do
/// neither alone.
#[derive(Debug)]
pub struct BlockingSession {
    request: Request,
    f: usize,
    replies: BTreeMap<ReplicaId, (Seq, OpResult)>,
    parked_at: Option<Seq>,
    decided: Option<(Seq, OpResult)>,
}

impl BlockingSession {
    /// Starts a blocked invoke for `template` as process `client` under
    /// request `req_id`, tolerating `f` faulty replicas.
    pub fn new(
        client: u64,
        req_id: u64,
        template: Template,
        kind: WaitKind,
        persistent: bool,
        f: usize,
    ) -> Self {
        BlockingSession {
            request: Request {
                client,
                req_id,
                op: RequestOp::Register {
                    template,
                    kind,
                    persistent,
                },
            },
            f,
            replies: BTreeMap::new(),
            parked_at: None,
            decided: None,
        }
    }

    /// The `Register` to broadcast (and rebroadcast on timeout — replicas
    /// re-reply from their caches, which hold the woken result once the
    /// match committed, so retransmission heals lost wakes).
    pub fn request_message(&self) -> Message {
        Message::Request(self.request.clone())
    }

    /// Feeds a `Reply` or `Wake` claim for this request.
    pub fn on_reply(
        &mut self,
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        result: OpResult,
    ) -> BlockingPoll {
        if let Some((seq, result)) = &self.decided {
            return BlockingPoll::Decided(*seq, result.clone());
        }
        if req_id != self.request.req_id {
            return self.poll();
        }
        // Latest claim per replica, with one exception: a `Registered`
        // never downgrades a final claim (a delayed parked ack can arrive
        // after the wake it precedes).
        match self.replies.get(&replica) {
            Some((_, prev)) if *prev != OpResult::Registered && result == OpResult::Registered => {}
            _ => {
                self.replies.insert(replica, (seq, result));
            }
        }
        let mut groups: Vec<(&(Seq, OpResult), usize)> = Vec::new();
        for r in self.replies.values() {
            match groups.iter_mut().find(|(g, _)| *g == r) {
                Some((_, c)) => *c += 1,
                None => groups.push((r, 1)),
            }
        }
        for ((seq, result), count) in groups.iter().map(|(g, c)| (*g, *c)) {
            if count < self.f + 1 {
                continue;
            }
            if *result == OpResult::Registered {
                self.parked_at = Some(*seq);
            } else {
                self.decided = Some((*seq, result.clone()));
                return BlockingPoll::Decided(*seq, result.clone());
            }
        }
        self.poll()
    }

    fn poll(&self) -> BlockingPoll {
        match (&self.decided, self.parked_at) {
            (Some((seq, result)), _) => BlockingPoll::Decided(*seq, result.clone()),
            (None, Some(seq)) => BlockingPoll::Parked(seq),
            (None, None) => BlockingPoll::Pending,
        }
    }

    /// The slot a registration quorum confirmed parking at, if any — the
    /// caller's read-your-writes watermark advances to it (registering is
    /// a write to replicated state).
    pub fn parked_at(&self) -> Option<Seq> {
        self.parked_at
    }
}

/// Cap on concurrently tracked wake slots per subscription. A Byzantine
/// replica spraying forged wakes at distinct fabricated seqs must not
/// grow the vote store without bound; genuine wakes cluster at real
/// slots and quorum out quickly, and forged seqs skew huge, so the
/// highest tracked seqs are evicted first.
const MAX_TRACKED_WAKES: usize = 1024;

/// The wake-vote state of one *persistent* registration (channel
/// pub/sub): each matching committed `out` produces one wake per correct
/// replica at that `out`'s slot, and every slot reaching `f+1` matching
/// results is delivered exactly once, in ascending slot order. Correct
/// replicas emit wakes in execution order, so in-order delivery costs
/// nothing in the common case; a slot whose wakes were partially lost
/// while a later slot certified is skipped, not replayed — a persistent
/// registration is a live tail, not a journal.
#[derive(Debug)]
pub struct WakeStreamSession {
    req_id: u64,
    f: usize,
    n: usize,
    votes: BTreeMap<Seq, BTreeMap<ReplicaId, OpResult>>,
    /// Highest delivered slot: claims at or below it are duplicates of a
    /// certified delivery (or stragglers of a skipped slot) and ignored.
    delivered: Seq,
}

impl WakeStreamSession {
    /// Starts the wake stream for the persistent registration `req_id`,
    /// tolerating `f` faults among `n` replicas.
    pub fn new(req_id: u64, f: usize, n: usize) -> Self {
        WakeStreamSession {
            req_id,
            f,
            n,
            votes: BTreeMap::new(),
            delivered: 0,
        }
    }

    /// Feeds one wake claim; returns a newly quorum-certified
    /// `(seq, result)` the first time slot `seq` reaches `f+1` matching
    /// results.
    pub fn on_wake(
        &mut self,
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        result: OpResult,
    ) -> Option<(Seq, OpResult)> {
        if req_id != self.req_id
            || (replica as usize) >= self.n
            || result == OpResult::Registered
            || seq <= self.delivered
        {
            return None;
        }
        let slot = self.votes.entry(seq).or_default();
        slot.insert(replica, result);
        let winner = slot
            .values()
            .find(|r| slot.values().filter(|e| e == r).count() >= self.f + 1)
            .cloned();
        if let Some(result) = winner {
            self.delivered = seq;
            // Everything at or below the certified slot is settled (or
            // skipped); only later slots can still quorum.
            self.votes = self.votes.split_off(&(seq + 1));
            return Some((seq, result));
        }
        while self.votes.len() > MAX_TRACKED_WAKES {
            self.votes.pop_last();
        }
        None
    }
}

/// Progress of a fast-read vote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadPoll {
    /// Quorum not yet reached; keep waiting (or time out and fall back).
    Pending,
    /// `f+1` replicas agreed on this result at `seq ≥ watermark`.
    Accepted {
        /// The execution point the quorum answered at.
        seq: Seq,
        /// The agreed result.
        result: OpResult,
    },
    /// Every replica answered and no fresh quorum formed — replicas were
    /// caught mid-write or Byzantine; the caller must fall back to the
    /// ordered path.
    NoQuorum,
}

/// One in-flight fast read from one client.
#[derive(Debug)]
pub struct ReadSession {
    req_id: u64,
    watermark: Seq,
    f: usize,
    n: usize,
    /// Fresh (votable) replies: `replica → (seq, digest, result)`.
    replies: BTreeMap<ReplicaId, (Seq, Digest, OpResult)>,
    /// Replicas whose reply was rejected (stale seq or digest mismatch).
    /// They still count toward "all n answered" for `NoQuorum`.
    rejected: BTreeMap<ReplicaId, Seq>,
    decided: Option<(Seq, OpResult)>,
}

impl ReadSession {
    /// Starts a fast-read vote for request `req_id`, requiring a quorum at
    /// `seq ≥ watermark`, tolerating `f` faults among `n` replicas.
    pub fn new(req_id: u64, watermark: Seq, f: usize, n: usize) -> Self {
        ReadSession {
            req_id,
            watermark,
            f,
            n,
            replies: BTreeMap::new(),
            rejected: BTreeMap::new(),
            decided: None,
        }
    }

    /// Feeds a `ReadReply`. Replies below the watermark, or whose digest
    /// does not match the carried result (a forgery that would let two
    /// colluding replicas agree on a digest while shipping different
    /// results), are rejected but still count toward the all-`n`-answered
    /// check.
    pub fn on_read_reply(
        &mut self,
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        digest: Digest,
        result: OpResult,
    ) -> ReadPoll {
        if let Some((seq, result)) = &self.decided {
            return ReadPoll::Accepted {
                seq: *seq,
                result: result.clone(),
            };
        }
        if req_id != self.req_id || (replica as usize) >= self.n {
            return ReadPoll::Pending;
        }
        if seq < self.watermark || digest != result.digest() {
            self.replies.remove(&replica);
            self.rejected.insert(replica, seq);
        } else {
            self.rejected.remove(&replica);
            self.replies.insert(replica, (seq, digest, result));
            // Group on (seq, digest): the digest pins the full result, so a
            // match means f+1 replicas computed the identical answer at the
            // identical execution point.
            let mut groups: Vec<((Seq, Digest), usize)> = Vec::new();
            for (s, d, _) in self.replies.values() {
                match groups.iter_mut().find(|((gs, gd), _)| gs == s && gd == d) {
                    Some((_, c)) => *c += 1,
                    None => groups.push(((*s, *d), 1)),
                }
            }
            if let Some(((seq, digest), _)) = groups.iter().find(|(_, c)| *c >= self.f + 1) {
                let result = self
                    .replies
                    .values()
                    .find(|(s, d, _)| s == seq && d == digest)
                    .map(|(_, _, r)| r.clone())
                    .expect("a counted group has at least one member");
                self.decided = Some((*seq, result.clone()));
                return ReadPoll::Accepted { seq: *seq, result };
            }
        }
        if self.replies.len() + self.rejected.len() >= self.n {
            return ReadPoll::NoQuorum;
        }
        ReadPoll::Pending
    }

    /// Replies rejected as stale or forged so far (diagnostics).
    pub fn rejected(&self) -> usize {
        self.rejected.len()
    }

    /// Distinct replicas heard from (counted or rejected) — what the
    /// optimistic probe phase checks to decide it should widen.
    pub fn responders(&self) -> usize {
        self.replies.len() + self.rejected.len()
    }

    /// The accepted `(seq, result)`, if already decided.
    pub fn decided(&self) -> Option<&(Seq, OpResult)> {
        self.decided.as_ref()
    }
}

/// Client-side timing knobs, shared by every invocation of one client.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Re-broadcast an undecided request after this long without a
    /// decision. Each retry resets the timer from *now*, so a stall never
    /// banks a burst of back-to-back rebroadcasts.
    pub retry_interval: Duration,
    /// Give up on an invocation (`SpaceError::Unavailable`) after this
    /// long. Also the end-to-end deadline of a blocked `rd`/`take`: past
    /// it the registration is cancelled with an ordered `Cancel` and the
    /// invoke reports `Unavailable` (unless the cancel lost the race to a
    /// committed match, in which case the tuple is returned).
    pub invoke_timeout: Duration,
    /// Request ids start above this value. Replicas dedup requests by
    /// `(pid, req_id)` and re-reply the cached result on a repeat, so a
    /// *short-lived* client process re-using a long-lived pid (the `peats`
    /// CLI) must seed this with something fresh — e.g. a wall-clock
    /// timestamp — or its first requests replay earlier invocations'
    /// replies. Long-lived handles keep the 0 default.
    pub first_request_id: u64,
    /// Serve `rd`/`rdp`/`count` over the one-round quorum fast path
    /// (default). Disable to force every read through the ordering
    /// pipeline — the baseline the `read_fast_path` benchmark compares
    /// against.
    pub fast_reads: bool,
    /// Give up on a fast-read round (and fall back to the ordered path)
    /// after this long without `f+1` fresh matching replies.
    pub read_timeout: Duration,
    /// How long the optimistic probe phase of a fast read waits before
    /// widening to every replica. A fast read first asks only a preferred
    /// `f+1` quorum — the cheapest read that can still decide — and widens
    /// (rotating the preference past the unhelpful replica) if that window
    /// stays silent this long or answers without deciding.
    pub read_probe_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retry_interval: Duration::from_millis(500),
            invoke_timeout: Duration::from_secs(10),
            first_request_id: 0,
            fast_reads: true,
            read_timeout: Duration::from_millis(500),
            read_probe_timeout: Duration::from_millis(25),
        }
    }
}

/// A replica's answer to a client, as an [`Invocation`] votes on it: an
/// ordered `Reply` or a pushed `Wake` — both the `(seq, result)` a replica
/// recorded for the request — or a fast-path `ReadReply`, which also
/// carries the digest of its result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Answering replica.
    pub replica: ReplicaId,
    /// Request answered.
    pub req_id: u64,
    /// Slot the result was recorded at (a fast read: the replica's
    /// execution point).
    pub seq: Seq,
    /// The result.
    pub result: OpResult,
    /// A fast read's digest of `result`; `None` on the ordered path.
    pub digest: Option<Digest>,
}

impl Reply {
    /// Decodes one sealed frame addressed to a client: `None` for garbage,
    /// a bad MAC, or a message that is not a reply.
    pub fn open(keys: &KeyTable, payload: &[u8]) -> Option<Reply> {
        let (replica, req_id, seq, result, digest) =
            match Sealed::from_bytes(payload).ok()?.open(keys)?.1 {
                Message::Reply {
                    req_id,
                    seq,
                    replica,
                    result,
                    ..
                }
                | Message::Wake {
                    req_id,
                    seq,
                    result,
                    replica,
                } => (replica, req_id, seq, result, None),
                Message::ReadReply {
                    req_id,
                    seq,
                    digest,
                    result,
                    replica,
                } => (replica, req_id, seq, result, Some(digest)),
                _ => return None,
            };
        Some(Reply {
            replica,
            req_id,
            seq,
            result,
            digest,
        })
    }
}

/// State shared by every invocation of one logical client — and by every
/// clone of its handle: identity, request numbering, the read watermark,
/// the fast read's preferred probe window, and observability counters.
#[derive(Debug)]
pub struct ClientState {
    pub(crate) pid: u64,
    pub(crate) f: usize,
    pub(crate) n: usize,
    cfg: ClientConfig,
    next_req: AtomicU64,
    /// Read watermark: the highest *quorum-backed* seq this client has
    /// observed. Fast reads demand a quorum at or above it, which is
    /// exactly read-your-writes; only quorum-backed seqs advance it, so a
    /// Byzantine replica claiming `seq = u64::MAX` cannot wedge the client
    /// into permanent ordered fallback.
    watermark: AtomicU64,
    /// Start of the preferred `f+1` probe window for fast reads. Rotated
    /// whenever a probe fails to decide, so a crashed, slow, or Byzantine
    /// replica only taxes the reads that first discover it.
    probe_offset: AtomicU64,
    rebroadcasts: AtomicU64,
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
    fast_reads: AtomicU64,
    fast_read_fallbacks: AtomicU64,
}

impl ClientState {
    /// State for logical process `pid` against `n = 3f+1` replicas.
    pub fn new(pid: u64, f: usize, n: usize, cfg: ClientConfig) -> Self {
        ClientState {
            pid,
            f,
            n,
            next_req: AtomicU64::new(cfg.first_request_id),
            cfg,
            watermark: AtomicU64::default(),
            probe_offset: AtomicU64::default(),
            rebroadcasts: AtomicU64::default(),
            in_flight: AtomicU64::default(),
            max_in_flight: AtomicU64::default(),
            fast_reads: AtomicU64::default(),
            fast_read_fallbacks: AtomicU64::default(),
        }
    }

    fn next_req_id(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn observe(&self, seq: Seq) {
        self.watermark.fetch_max(seq, Ordering::Relaxed);
    }

    /// Total requests issued (each ordered one is a consensus round).
    pub fn issued_requests(&self) -> u64 {
        self.next_req.load(Ordering::Relaxed) - self.cfg.first_request_id
    }

    /// Total retry re-broadcasts. A healthy cluster decides well inside
    /// the retry interval, so this staying at zero is how tests prove no
    /// reply was lost or eaten.
    pub fn rebroadcasts(&self) -> u64 {
        self.rebroadcasts.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently live invocations (tests assert that
    /// clones of one handle genuinely overlap).
    pub fn max_concurrent_invokes(&self) -> u64 {
        self.max_in_flight.load(Ordering::Relaxed)
    }

    /// Reads served by the one-round fast path (no ordering round).
    pub fn fast_reads_served(&self) -> u64 {
        self.fast_reads.load(Ordering::Relaxed)
    }

    /// Fast-read rounds that fell back to the ordered path (timeout or
    /// replica disagreement). A healthy quiescent cluster keeps this at 0.
    pub fn fast_read_fallbacks(&self) -> u64 {
        self.fast_read_fallbacks.load(Ordering::Relaxed)
    }

    /// The current read watermark (highest quorum-backed seq observed).
    pub fn read_watermark(&self) -> Seq {
        self.watermark.load(Ordering::Relaxed)
    }

    /// The replicas the next fast read probes first.
    pub fn probe_window(&self) -> Vec<ReplicaId> {
        let start = self.probe_offset.load(Ordering::Relaxed) as usize;
        (0..(self.f + 1).min(self.n))
            .map(|i| ((start + i) % self.n) as ReplicaId)
            .collect()
    }
}

/// What an [`Invocation`] asks of the replicas.
#[derive(Clone, Debug)]
pub enum Op {
    /// Through the ordering pipeline: a call, a `Register`, or a `Cancel`.
    Ordered(RequestOp),
    /// A read-only call (`rd`/`rdp`/`count`): the `f+1` fast path when
    /// [`ClientConfig::fast_reads`] is on, falling back to the ordered
    /// path on timeout or disagreement.
    Read(OpCall<'static>),
    /// One fast-read round at an explicit watermark and without the
    /// ordered fallback: decides `(seq, result)` or fails.
    FastRead {
        /// The read-only call.
        op: OpCall<'static>,
        /// The watermark the quorum must answer at or above.
        watermark: Seq,
    },
    /// A blocking `rd`/`take`: one ordered `Register`, then the pushed
    /// wake. Past the deadline the registration is cancelled in the total
    /// order, and the cancel's certified result settles the race with a
    /// concurrent match: the op decides the woken `Tuple(Some(_))`, or
    /// `Tuple(None)` when the cancel won.
    Blocking {
        /// What to wait for.
        template: Template,
        /// Copy or consume the match.
        kind: WaitKind,
    },
    /// A persistent registration (pub/sub): decides `Registered` once
    /// `f+1` replicas parked it, then streams events (see
    /// [`Invocation::await_event`]).
    Subscribe(Template),
}

#[derive(Debug)]
enum Phase {
    Ordered(ClientSession),
    Read {
        session: ReadSession,
        op: OpCall<'static>,
        msg: Message,
        /// Start of the `f+1` probe window this read asked first.
        window: usize,
        widened: bool,
        fallback: bool,
    },
    /// Awaiting the park acknowledgement, then the wake.
    Blocked(BlockingSession),
    /// Past the deadline: the ordered `Cancel` is in flight.
    Cancelling(BlockingSession, ClientSession),
    /// The cancel removed nothing, so the wait's outcome sits in the
    /// `Register`'s cached replies: retransmit it and decide on them.
    Settling(BlockingSession),
    Subscribing(BlockingSession),
    /// A live subscription: certified events queue until awaited.
    Streaming,
}

/// One client invocation as a sans-io state machine. The caller runs
/// [`step`](Invocation::step) with the current time and each reply (or
/// `None` once [`next_timer`](Invocation::next_timer) is due), sends what
/// [`drain_outbox`](Invocation::drain_outbox) yields, and stops when
/// [`take_outcome`](Invocation::take_outcome) returns the decision. Time
/// is any monotonic clock, as a [`Duration`] since its epoch.
#[derive(Debug)]
pub struct Invocation {
    client: Arc<ClientState>,
    req_id: u64,
    phase: Phase,
    /// When the phase gives up (a read falls back, a blocked op cancels).
    deadline: Duration,
    /// When the phase next retransmits (a read: widens its probe).
    retry_at: Duration,
    stream: Option<WakeStreamSession>,
    events: VecDeque<Tuple>,
    outbox: Vec<(ReplicaId, Message)>,
    outcome: Option<SpaceResult<(Seq, OpResult)>>,
}

impl Invocation {
    /// Starts `op` for `client` at time `now`; the first broadcast waits in
    /// the outbox.
    pub fn new(client: Arc<ClientState>, op: Op, now: Duration) -> Self {
        let (pid, f, cfg) = (client.pid, client.f, &client.cfg);
        let req_id = client.next_req_id();
        let depth = client.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        client.max_in_flight.fetch_max(depth, Ordering::Relaxed);
        let read = |op: OpCall<'static>, watermark, fallback| Phase::Read {
            session: ReadSession::new(req_id, watermark, f, client.n),
            msg: Message::ReadRequest {
                client: pid,
                req_id,
                op: op.clone(),
                watermark,
            },
            op,
            window: client.probe_offset.load(Ordering::Relaxed) as usize % client.n,
            widened: f + 1 >= client.n,
            fallback,
        };
        let mut stream = None;
        let phase = match op {
            Op::Read(op) if cfg.fast_reads => read(op, client.read_watermark(), true),
            Op::FastRead { op, watermark } => read(op, watermark, false),
            Op::Read(op) => Phase::Ordered(ClientSession::new(pid, req_id, op, f)),
            Op::Ordered(op) => Phase::Ordered(ClientSession::new_op(pid, req_id, op, f)),
            Op::Blocking { template, kind } => {
                Phase::Blocked(BlockingSession::new(pid, req_id, template, kind, false, f))
            }
            Op::Subscribe(template) => {
                stream = Some(WakeStreamSession::new(req_id, f, client.n));
                let park = BlockingSession::new(pid, req_id, template, WaitKind::Rd, true, f);
                Phase::Subscribing(park)
            }
        };
        let (retry, timeout) = match phase {
            Phase::Read { .. } => (
                cfg.read_probe_timeout.min(cfg.read_timeout),
                cfg.read_timeout,
            ),
            _ => (cfg.retry_interval, cfg.invoke_timeout),
        };
        let mut inv = Invocation {
            client,
            req_id,
            phase,
            deadline: now + timeout,
            retry_at: now + retry,
            stream,
            events: VecDeque::new(),
            outbox: Vec::new(),
            outcome: None,
        };
        inv.retransmit();
        inv
    }

    /// The invocation's first request id (a subscription's registration).
    pub fn req_id(&self) -> u64 {
        self.req_id
    }

    /// The slot `f+1` replicas confirmed a blocked op parked at, while it
    /// waits for its wake.
    pub fn parked_at(&self) -> Option<Seq> {
        match &self.phase {
            Phase::Blocked(session) => session.parked_at(),
            _ => None,
        }
    }

    /// `true` once a decision waits in [`take_outcome`](Self::take_outcome).
    pub fn is_decided(&self) -> bool {
        self.outcome.is_some()
    }

    /// Moves the deadline to `now`: the caller gives up waiting.
    pub fn give_up(&mut self, now: Duration) {
        self.deadline = now;
        self.step(now, None);
    }

    /// Arms a live subscription to decide its next event — `Tuple(Some)`
    /// — or `Tuple(None)` if none is certified before `now + timeout`.
    pub fn await_event(&mut self, now: Duration, timeout: Duration) {
        self.deadline = now + timeout;
        self.step(now, None);
    }

    /// The messages to send, each to one replica.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, (ReplicaId, Message)> {
        self.outbox.drain(..)
    }

    /// The decision, once reached: the accepted `(seq, result)`, or
    /// `Unavailable` when the deadline passed first.
    pub fn take_outcome(&mut self) -> Option<SpaceResult<(Seq, OpResult)>> {
        self.outcome.take()
    }

    /// When [`step`](Self::step) must next run even if no reply arrives.
    pub fn next_timer(&self) -> Duration {
        if self.timer_armed() {
            self.retry_at.min(self.deadline)
        } else {
            self.deadline
        }
    }

    /// Only the un-acknowledged phase of a blocked op retransmits: once
    /// `f+1` replicas confirmed the park, the next message it is owed is a
    /// pushed wake, not a reply. A read's timer widens its probe, once.
    fn timer_armed(&self) -> bool {
        match &self.phase {
            Phase::Read { widened, .. } => !widened,
            Phase::Blocked(session) => session.parked_at().is_none(),
            Phase::Streaming => false,
            _ => true,
        }
    }

    /// Feeds one reply (if any), then runs whatever timers are due at
    /// `now`: retransmission, the probe's widening, the deadline.
    pub fn step(&mut self, now: Duration, reply: Option<Reply>) {
        if let Some(reply) = reply.filter(|_| self.outcome.is_none()) {
            self.on_reply(now, reply);
        }
        if self.outcome.is_none() && matches!(self.phase, Phase::Streaming) {
            if let Some(t) = self.events.pop_front() {
                self.outcome = Some(Ok((0, OpResult::Tuple(Some(t)))));
            }
        }
        if self.outcome.is_none() && now >= self.deadline {
            self.expire(now);
        } else if self.outcome.is_none() && now >= self.retry_at && self.timer_armed() {
            // Reset from *now*, not the missed tick: after a long stall
            // every banked tick would fire back-to-back.
            self.retry_at = now + self.client.cfg.retry_interval;
            if matches!(self.phase, Phase::Read { .. }) {
                return self.widen();
            }
            self.client.rebroadcasts.fetch_add(1, Ordering::Relaxed);
            self.retransmit();
        }
    }

    fn decide(&mut self, seq: Seq, result: OpResult) {
        self.client.observe(seq);
        self.outcome = Some(Ok((seq, result)));
    }

    fn on_reply(&mut self, now: Duration, reply: Reply) {
        let Reply {
            replica,
            req_id,
            seq,
            result,
            digest,
        } = reply;
        if let Some(digest) = digest {
            let Phase::Read {
                session, fallback, ..
            } = &mut self.phase
            else {
                return;
            };
            match session.on_read_reply(replica, req_id, seq, digest, result) {
                ReadPoll::Accepted { seq, result } => {
                    if *fallback {
                        self.client.fast_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    self.decide(seq, result);
                }
                ReadPoll::NoQuorum => self.fall_back(now),
                // The probe window answered without deciding: widen.
                ReadPoll::Pending if session.responders() > self.client.f => self.widen(),
                ReadPoll::Pending => {}
            }
            return;
        }
        if let Some(stream) = &mut self.stream {
            // Wakes racing the subscribe handshake are certified here and
            // queued, so the subscriber sees them; `Registered` acks feed
            // the park vote below. Each session ignores what the other
            // consumes.
            if let Some((seq, event)) = stream.on_wake(replica, req_id, seq, result.clone()) {
                self.client.observe(seq);
                match event {
                    OpResult::Tuple(Some(t)) => self.events.push_back(t),
                    OpResult::Denied(d) => return self.decide(seq, OpResult::Denied(d)),
                    _ => {}
                }
            }
        }
        match &mut self.phase {
            Phase::Ordered(session) => {
                if let Some((seq, result)) = session.on_reply(replica, req_id, seq, result) {
                    self.decide(seq, result);
                }
            }
            Phase::Cancelling(_, cancel) if req_id != self.req_id => {
                match cancel.on_reply(replica, req_id, seq, result) {
                    // The cancel removed the live registration: it won,
                    // and no tuple was ever awarded to this wait.
                    Some((seq, OpResult::Count(n))) if n > 0 => {
                        self.decide(seq, OpResult::Tuple(None))
                    }
                    Some((seq, _)) => {
                        self.client.observe(seq);
                        let Phase::Cancelling(blocked, _) =
                            std::mem::replace(&mut self.phase, Phase::Streaming)
                        else {
                            unreachable!("matched above")
                        };
                        self.restart(now, Phase::Settling(blocked));
                    }
                    None => {}
                }
            }
            Phase::Blocked(blocked) | Phase::Cancelling(blocked, _) | Phase::Settling(blocked) => {
                match blocked.on_reply(replica, req_id, seq, result) {
                    BlockingPoll::Decided(seq, result) => self.decide(seq, result),
                    // The registration itself committed at `seq`;
                    // read-your-writes covers it like any write.
                    BlockingPoll::Parked(seq) => self.client.observe(seq),
                    BlockingPoll::Pending => {}
                }
            }
            Phase::Subscribing(park) => match park.on_reply(replica, req_id, seq, result) {
                BlockingPoll::Decided(seq, OpResult::Denied(d)) => {
                    self.decide(seq, OpResult::Denied(d))
                }
                // Parked is the normal ack; a decided (non-denied) quorum
                // means wakes outran the `Registered` acks — the
                // registration is committed and live either way.
                BlockingPoll::Parked(seq) | BlockingPoll::Decided(seq, _) => {
                    self.phase = Phase::Streaming;
                    self.decide(seq, OpResult::Registered);
                }
                BlockingPoll::Pending => {}
            },
            Phase::Read { .. } | Phase::Streaming => {}
        }
    }

    /// The deadline passed.
    fn expire(&mut self, now: Duration) {
        let why = match std::mem::replace(&mut self.phase, Phase::Streaming) {
            phase @ Phase::Read { .. } => {
                self.phase = phase;
                return self.fall_back(now);
            }
            Phase::Blocked(blocked) => {
                // Detach the registration in the total order; the cancel's
                // certified result settles the race with a match.
                let target = self.req_id;
                let cancel = ClientSession::new_op(
                    self.client.pid,
                    self.client.next_req_id(),
                    RequestOp::Cancel { target },
                    self.client.f,
                );
                return self.restart(now, Phase::Cancelling(blocked, cancel));
            }
            Phase::Streaming => {
                self.outcome = Some(Ok((0, OpResult::Tuple(None))));
                return;
            }
            Phase::Subscribing(_) => "no f+1 registration acks before timeout",
            _ => "no f+1 matching replies before timeout",
        };
        self.fail(why);
    }

    fn fail(&mut self, why: &str) {
        self.outcome = Some(Err(SpaceError::Unavailable(why.into())));
    }

    /// A fast read that timed out or met disagreement: re-issue it on the
    /// ordered path (or fail, for a round without fallback).
    fn fall_back(&mut self, now: Duration) {
        let Phase::Read { op, fallback, .. } = &self.phase else {
            return;
        };
        if !fallback {
            return self.fail("no fresh f+1 fast-read quorum");
        }
        let (pid, f) = (self.client.pid, self.client.f);
        let session = ClientSession::new(pid, self.client.next_req_id(), op.clone(), f);
        self.client
            .fast_read_fallbacks
            .fetch_add(1, Ordering::Relaxed);
        self.restart(now, Phase::Ordered(session));
    }

    /// Enters `phase` with fresh timers and broadcasts its request.
    fn restart(&mut self, now: Duration, phase: Phase) {
        self.phase = phase;
        self.deadline = now + self.client.cfg.invoke_timeout;
        self.retry_at = now + self.client.cfg.retry_interval;
        self.retransmit();
    }

    /// Widens a fast read's probe to the remaining replicas and rotates
    /// the preferred window past this one.
    fn widen(&mut self) {
        let Phase::Read {
            msg,
            window,
            widened: widened @ false,
            ..
        } = &mut self.phase
        else {
            return;
        };
        *widened = true;
        let (window, msg) = (*window, msg.clone());
        self.client.probe_offset.fetch_add(1, Ordering::Relaxed);
        self.send(window, self.client.f + 1..self.client.n, &msg);
    }

    /// Broadcasts the phase's request; a fast read asks its `f+1` probe
    /// window first — the cheapest quorum that can still decide.
    fn retransmit(&mut self) {
        let msg = match &self.phase {
            Phase::Ordered(session) | Phase::Cancelling(_, session) => session.request_message(),
            Phase::Blocked(session) | Phase::Settling(session) | Phase::Subscribing(session) => {
                session.request_message()
            }
            Phase::Read { msg, window, .. } => {
                let (window, msg) = (*window, msg.clone());
                return self.send(window, 0..(self.client.f + 1).min(self.client.n), &msg);
            }
            Phase::Streaming => return,
        };
        self.send(0, 0..self.client.n, &msg);
    }

    fn send(&mut self, window: usize, range: std::ops::Range<usize>, msg: &Message) {
        let n = self.client.n;
        for i in range {
            self.outbox
                .push((((window + i) % n) as ReplicaId, msg.clone()));
        }
    }
}

impl Drop for Invocation {
    fn drop(&mut self) {
        self.client.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats_tuplespace::{tuple, Tuple};

    fn mk_session() -> ClientSession {
        ClientSession::new(9, 1, OpCall::out(tuple!["A"]), 1)
    }

    #[test]
    fn accepts_after_f_plus_one_matching() {
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 1, 7, OpResult::Done), None);
        assert_eq!(
            s.on_reply(1, 1, 7, OpResult::Done),
            Some((7, OpResult::Done))
        );
    }

    #[test]
    fn lone_divergent_reply_is_outvoted() {
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 1, 7, OpResult::Denied("lie".into())), None);
        assert_eq!(s.on_reply(1, 1, 7, OpResult::Done), None);
        assert_eq!(
            s.on_reply(2, 1, 7, OpResult::Done),
            Some((7, OpResult::Done))
        );
    }

    #[test]
    fn matching_results_at_forged_seq_do_not_pair() {
        // A Byzantine replica agreeing on the result but lying about the
        // seq must not contribute to the pair's quorum (else it could drag
        // the accepted seq — and the client watermark — to u64::MAX).
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 1, u64::MAX, OpResult::Done), None);
        assert_eq!(s.on_reply(1, 1, 7, OpResult::Done), None);
        assert_eq!(
            s.on_reply(2, 1, 7, OpResult::Done),
            Some((7, OpResult::Done))
        );
    }

    #[test]
    fn duplicate_replica_replies_do_not_double_count() {
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 1, 7, OpResult::Done), None);
        assert_eq!(s.on_reply(0, 1, 7, OpResult::Done), None);
    }

    #[test]
    fn mismatched_req_id_is_ignored() {
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 99, 7, OpResult::Done), None);
        assert_eq!(s.on_reply(1, 99, 7, OpResult::Done), None);
        assert_eq!(s.decided(), None);
    }

    fn tuple_reply(t: Option<Tuple>) -> (Digest, OpResult) {
        let r = OpResult::Tuple(t);
        (r.digest(), r)
    }

    #[test]
    fn fast_read_accepts_f_plus_one_at_watermark() {
        let mut s = ReadSession::new(5, 10, 1, 4);
        let (d, r) = tuple_reply(Some(tuple!["A"]));
        assert_eq!(s.on_read_reply(0, 5, 12, d, r.clone()), ReadPoll::Pending);
        assert_eq!(
            s.on_read_reply(1, 5, 12, d, r.clone()),
            ReadPoll::Accepted { seq: 12, result: r }
        );
    }

    #[test]
    fn stale_f_plus_one_match_below_watermark_is_rejected() {
        // Two replicas agree — but at a seq below the client's watermark:
        // they have not yet executed a write this client already had
        // acknowledged, so accepting would break read-your-writes.
        let mut s = ReadSession::new(5, 10, 1, 4);
        let (d, r) = tuple_reply(None);
        assert_eq!(s.on_read_reply(0, 5, 9, d, r.clone()), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(1, 5, 9, d, r.clone()), ReadPoll::Pending);
        assert_eq!(s.decided(), None);
        assert_eq!(s.rejected(), 2);
        // Fresh replicas still decide.
        let (d2, r2) = tuple_reply(Some(tuple!["A"]));
        assert_eq!(s.on_read_reply(2, 5, 10, d2, r2.clone()), ReadPoll::Pending);
        assert_eq!(
            s.on_read_reply(3, 5, 10, d2, r2.clone()),
            ReadPoll::Accepted {
                seq: 10,
                result: r2
            }
        );
    }

    #[test]
    fn conflicting_fresh_replies_force_fallback() {
        // All four replicas answer at fresh seqs but no f+1 group agrees
        // (caught mid-write): the session must demand the ordered path,
        // not hang or guess.
        let mut s = ReadSession::new(5, 0, 1, 4);
        let (d0, r0) = tuple_reply(None);
        let (d1, r1) = tuple_reply(Some(tuple!["A"]));
        assert_eq!(s.on_read_reply(0, 5, 3, d0, r0.clone()), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(1, 5, 4, d0, r0), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(2, 5, 5, d1, r1.clone()), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(3, 5, 6, d1, r1), ReadPoll::NoQuorum);
    }

    #[test]
    fn forged_digest_result_mismatch_is_rejected() {
        // Colluding replicas agreeing on a digest while shipping different
        // results must not reach quorum: the client recomputes the digest
        // from the carried result and rejects mismatches.
        let mut s = ReadSession::new(5, 0, 1, 4);
        let (d, _) = tuple_reply(Some(tuple!["A"]));
        let forged = OpResult::Tuple(Some(tuple!["B"]));
        assert_eq!(
            s.on_read_reply(0, 5, 3, d, forged.clone()),
            ReadPoll::Pending
        );
        assert_eq!(s.on_read_reply(1, 5, 3, d, forged), ReadPoll::Pending);
        assert_eq!(s.decided(), None);
        assert_eq!(s.rejected(), 2);
    }

    fn mk_blocking() -> BlockingSession {
        BlockingSession::new(
            9,
            1,
            peats_tuplespace::template!["A", ?x],
            WaitKind::Rd,
            false,
            1,
        )
    }

    #[test]
    fn blocking_session_parks_then_decides_on_wakes() {
        let mut s = mk_blocking();
        // f+1 Registered at the register's slot: parked, not decided.
        assert_eq!(
            s.on_reply(0, 1, 5, OpResult::Registered),
            BlockingPoll::Pending
        );
        assert_eq!(
            s.on_reply(1, 1, 5, OpResult::Registered),
            BlockingPoll::Parked(5)
        );
        assert_eq!(s.parked_at(), Some(5));
        // Wakes upgrade each replica's claim; f+1 matching decide.
        let woken = OpResult::Tuple(Some(tuple!["A", 1]));
        assert_eq!(s.on_reply(0, 1, 9, woken.clone()), BlockingPoll::Parked(5));
        assert_eq!(
            s.on_reply(2, 1, 9, woken.clone()),
            BlockingPoll::Decided(9, woken)
        );
    }

    #[test]
    fn blocking_session_takes_immediate_match_without_parking() {
        let mut s = mk_blocking();
        let served = OpResult::Tuple(Some(tuple!["A", 2]));
        assert_eq!(s.on_reply(3, 1, 4, served.clone()), BlockingPoll::Pending);
        assert_eq!(
            s.on_reply(1, 1, 4, served.clone()),
            BlockingPoll::Decided(4, served)
        );
    }

    #[test]
    fn forged_wakes_alone_cannot_decide_a_blocked_invoke() {
        let mut s = mk_blocking();
        s.on_reply(0, 1, 5, OpResult::Registered);
        s.on_reply(1, 1, 5, OpResult::Registered);
        s.on_reply(2, 1, 5, OpResult::Registered);
        // One Byzantine replica sprays forged wakes: different seqs,
        // different results, repeatedly — never more than one vote.
        let forged = OpResult::Tuple(Some(tuple!["A", 666]));
        for seq in [u64::MAX, 7, 8, 9] {
            assert_eq!(
                s.on_reply(3, 1, seq, forged.clone()),
                BlockingPoll::Parked(5),
                "a lone forger must not complete the invoke"
            );
        }
        // Nor can it team with one honest wake at a different seq.
        let woken = OpResult::Tuple(Some(tuple!["A", 1]));
        assert_eq!(s.on_reply(0, 1, 9, woken.clone()), BlockingPoll::Parked(5));
        // The honest quorum still decides with the honest value.
        assert_eq!(
            s.on_reply(2, 1, 9, woken.clone()),
            BlockingPoll::Decided(9, woken)
        );
    }

    #[test]
    fn late_registered_ack_does_not_downgrade_a_wake_claim() {
        let mut s = mk_blocking();
        let woken = OpResult::Tuple(Some(tuple!["A", 1]));
        assert_eq!(s.on_reply(0, 1, 9, woken.clone()), BlockingPoll::Pending);
        // The delayed parked ack from replica 0 arrives after its wake.
        assert_eq!(
            s.on_reply(0, 1, 5, OpResult::Registered),
            BlockingPoll::Pending
        );
        assert_eq!(
            s.on_reply(1, 1, 9, woken.clone()),
            BlockingPoll::Decided(9, woken)
        );
    }

    #[test]
    fn wake_stream_delivers_each_slot_once_in_order() {
        let mut s = WakeStreamSession::new(1, 1, 4);
        let ev1 = OpResult::Tuple(Some(tuple!["EV", 1]));
        let ev2 = OpResult::Tuple(Some(tuple!["EV", 2]));
        assert_eq!(s.on_wake(0, 1, 10, ev1.clone()), None);
        assert_eq!(s.on_wake(1, 1, 10, ev1.clone()), Some((10, ev1.clone())));
        // Stragglers for a delivered slot cannot re-deliver it.
        assert_eq!(s.on_wake(2, 1, 10, ev1.clone()), None);
        assert_eq!(s.on_wake(3, 1, 10, ev1), None);
        assert_eq!(s.on_wake(0, 1, 12, ev2.clone()), None);
        assert_eq!(s.on_wake(2, 1, 12, ev2.clone()), Some((12, ev2)));
    }

    #[test]
    fn wake_stream_bounds_forged_slot_votes() {
        let mut s = WakeStreamSession::new(1, 1, 4);
        let forged = OpResult::Tuple(Some(tuple!["EV", 666]));
        // A Byzantine replica spraying distinct fabricated slots must not
        // grow the vote store without bound — and a fake replica id must
        // not vote at all.
        for seq in 1..=5_000u64 {
            assert_eq!(s.on_wake(3, 1, seq, forged.clone()), None);
            assert_eq!(s.on_wake(9, 1, seq, forged.clone()), None);
        }
        assert!(s.votes.len() <= MAX_TRACKED_WAKES);
        // Genuine wakes at a low slot still certify (forged junk skews
        // high and is evicted first).
        let ev = OpResult::Tuple(Some(tuple!["EV", 1]));
        assert_eq!(s.on_wake(0, 1, 3, ev.clone()), None);
        assert_eq!(s.on_wake(1, 1, 3, ev.clone()), Some((3, ev)));
    }

    #[test]
    fn fast_read_ignores_foreign_req_id_and_fake_replicas() {
        let mut s = ReadSession::new(5, 0, 1, 4);
        let (d, r) = tuple_reply(None);
        assert_eq!(s.on_read_reply(0, 99, 3, d, r.clone()), ReadPoll::Pending);
        // Replica id beyond n must not vote (a Byzantine node inventing
        // identities would otherwise stuff the ballot).
        assert_eq!(s.on_read_reply(9, 5, 3, d, r.clone()), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(7, 5, 3, d, r), ReadPoll::Pending);
        assert_eq!(s.decided(), None);
    }
}
