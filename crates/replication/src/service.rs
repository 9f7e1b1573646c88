//! The replicated service: a deterministic PEATS with its per-replica
//! reference monitor (the "interceptor" of Fig. 2).
//!
//! Determinism is what makes state-machine replication work (§4): the
//! service's output depends only on its state and the executed operation,
//! so replicas that execute the same request sequence return identical
//! results and the client can vote on `f+1` matching replies.

use crate::messages::{OpResult, Registration, RegistrationRows, WaitKind};
use peats_auth::{sha256, Digest};
use peats_codec::Encode;
use peats_policy::{
    Invocation, OpCall, Policy, PolicyError, PolicyParams, ProcessId, ReferenceMonitor,
};
use peats_tuplespace::{CasOutcome, SequentialSpace, SpaceSnapshot, Template, Tuple};
use std::collections::BTreeMap;

/// A wake produced while executing one request: a parked registration
/// matched a committed insert. The replica layer turns each event into a
/// [`Message::Wake`](crate::messages::Message::Wake) to the waiting
/// client and overwrites that client's cached reply, all at the same
/// sequence number — so retransmissions of the original `Register`
/// replay the woken result.
#[derive(Clone, Debug, PartialEq)]
pub struct WakeEvent {
    /// The waiting client's logical pid.
    pub client: ProcessId,
    /// The `Register` request that parked the waiter.
    pub req_id: u64,
    /// The woken result (the matched tuple).
    pub result: OpResult,
}

/// One replica's copy of the PEATS: space + reference monitor + the
/// blocking-wait registration table. The table is deterministic
/// replicated state: entries are keyed by a monotone arrival counter, so
/// match order — and which `take` waiter wins a contested tuple — is
/// identical at every replica executing the same request sequence.
#[derive(Clone)]
pub struct PeatsService {
    space: SequentialSpace,
    monitor: ReferenceMonitor,
    registrations: BTreeMap<u64, Registration>,
    next_reg: u64,
    pending_wakes: Vec<WakeEvent>,
}

impl PeatsService {
    /// Creates the service from the deployment's policy and parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] when the policy declares unset
    /// parameters.
    pub fn new(policy: Policy, params: PolicyParams) -> Result<Self, PolicyError> {
        Ok(PeatsService {
            space: SequentialSpace::new(),
            monitor: ReferenceMonitor::new(policy, params)?,
            registrations: BTreeMap::new(),
            next_reg: 0,
            pending_wakes: Vec::new(),
        })
    }

    /// Executes one operation on behalf of authenticated client `client`.
    ///
    /// Blocking operations (`rd`/`in`) submitted as direct calls are
    /// mapped to their nonblocking equivalents here for robustness against
    /// Byzantine clients smuggling them past the registration protocol —
    /// correct clients block via [`register`](Self::register).
    pub fn execute(&mut self, client: ProcessId, op: &OpCall<'_>) -> OpResult {
        // Remap blocking ops and hand the monitor a borrowed view of the
        // arguments: the allow path clones no template or entry.
        let op = match op {
            OpCall::Rd(t) => OpCall::rdp(t.as_ref()),
            OpCall::In(t) => OpCall::inp(t.as_ref()),
            other => other.as_borrowed(),
        };
        if let Err(decision) = self
            .monitor
            .permits(&Invocation::new(client, op.as_borrowed()), &self.space)
        {
            return OpResult::Denied(decision.to_string());
        }
        match op {
            OpCall::Out(entry) => {
                self.publish(entry.into_owned());
                OpResult::Done
            }
            OpCall::Rdp(template) => OpResult::Tuple(self.space.rdp(&template)),
            OpCall::Inp(template) => OpResult::Tuple(self.space.inp(&template)),
            OpCall::Count(template) => OpResult::Count(self.space.count(&template) as u64),
            OpCall::Cas(template, entry) => {
                if self.space.peek(&template).is_some() {
                    match self.space.cas(&template, entry.into_owned()) {
                        CasOutcome::Found(t) => OpResult::Cas {
                            inserted: false,
                            found: Some(t),
                        },
                        CasOutcome::Inserted => unreachable!("peek found a match"),
                    }
                } else {
                    // The insert half of cas goes through `publish` so
                    // parked waiters see cas-inserted entries too.
                    self.publish(entry.into_owned());
                    OpResult::Cas {
                        inserted: true,
                        found: None,
                    }
                }
            }
            OpCall::Rd(_) | OpCall::In(_) => unreachable!("mapped above"),
        }
    }

    /// Inserts `entry`, first serving parked waiters in registration
    /// order: every matching `rd` waiter is woken with a copy, then the
    /// lowest-keyed matching `take` waiter consumes the entry — which in
    /// that case never enters the space. One-shot registrations are
    /// removed when they fire; persistent ones stay armed.
    fn publish(&mut self, entry: Tuple) {
        let mut fired = Vec::new();
        let mut taken = false;
        for (key, reg) in &self.registrations {
            if !reg.template.matches(&entry) {
                continue;
            }
            match reg.kind {
                WaitKind::Rd => {
                    self.pending_wakes.push(WakeEvent {
                        client: reg.client,
                        req_id: reg.req_id,
                        result: OpResult::Tuple(Some(entry.clone())),
                    });
                    if !reg.persistent {
                        fired.push(*key);
                    }
                }
                WaitKind::Take if !taken => {
                    taken = true;
                    self.pending_wakes.push(WakeEvent {
                        client: reg.client,
                        req_id: reg.req_id,
                        result: OpResult::Tuple(Some(entry.clone())),
                    });
                    if !reg.persistent {
                        fired.push(*key);
                    }
                }
                WaitKind::Take => {}
            }
        }
        for key in fired {
            self.registrations.remove(&key);
        }
        if !taken {
            self.space.out(entry);
        }
    }

    /// Executes a `Register`: parks `template` for client `client` under
    /// request `req_id`. A one-shot registration first tries an immediate
    /// match (returning the tuple directly, exactly like `rdp`/`inp`);
    /// persistent registrations always park and observe only future
    /// inserts (channel pub/sub live-tail). Policy is enforced at
    /// registration time, as the nonblocking equivalent of the wait.
    pub fn register(
        &mut self,
        client: ProcessId,
        req_id: u64,
        template: &Template,
        kind: WaitKind,
        persistent: bool,
    ) -> OpResult {
        let probe = match kind {
            WaitKind::Rd => OpCall::rdp(template),
            WaitKind::Take => OpCall::inp(template),
        };
        if let Err(decision) = self
            .monitor
            .permits(&Invocation::new(client, probe), &self.space)
        {
            return OpResult::Denied(decision.to_string());
        }
        if !persistent {
            let immediate = match kind {
                WaitKind::Rd => self.space.rdp(template),
                WaitKind::Take => self.space.inp(template),
            };
            if let Some(t) = immediate {
                return OpResult::Tuple(Some(t));
            }
        }
        let key = self.next_reg;
        self.next_reg += 1;
        self.registrations.insert(
            key,
            Registration {
                client,
                req_id,
                template: template.clone(),
                kind,
                persistent,
            },
        );
        OpResult::Registered
    }

    /// Executes a `Cancel`: removes every registration client `client`
    /// installed under request `target` and reports how many it removed as
    /// `Count`. Idempotent — cancelling a fired or unknown registration
    /// removes nothing (the tuple, if one was already awarded, stays in
    /// the client's cached reply). `Count(0)` is the fact a client settling
    /// a timed-out wait decides on: its cancel lost the race, so the wait's
    /// outcome is whatever the `Register`'s cached reply holds.
    pub fn cancel(&mut self, client: ProcessId, target: u64) -> OpResult {
        let before = self.registrations.len();
        self.registrations
            .retain(|_, reg| !(reg.client == client && reg.req_id == target));
        OpResult::Count((before - self.registrations.len()) as u64)
    }

    /// Drains the wakes produced by requests executed since the last
    /// drain. Called by the replica layer after each executed request to
    /// emit `Wake` messages and overwrite reply caches at commit time.
    pub fn take_wakes(&mut self) -> Vec<WakeEvent> {
        std::mem::take(&mut self.pending_wakes)
    }

    /// Number of parked registrations (memory accounting).
    pub fn registrations_len(&self) -> usize {
        self.registrations.len()
    }

    /// The registration table as snapshot rows (state transfer).
    pub fn registration_rows(&self) -> RegistrationRows {
        self.registrations
            .iter()
            .map(|(k, r)| (*k, r.clone()))
            .collect()
    }

    /// The next registration-table key (state transfer).
    pub fn next_reg(&self) -> u64 {
        self.next_reg
    }

    /// Replaces the registration table (state transfer on a rejoining
    /// replica — it resumes serving waiters it never saw register).
    pub fn restore_registrations(&mut self, rows: &RegistrationRows, next_reg: u64) {
        self.registrations = rows.iter().cloned().collect();
        self.next_reg = next_reg;
        self.pending_wakes.clear();
    }

    /// Executes a read-only operation (`rd`/`rdp`/`count`) *without*
    /// mutating any service state — the replica-side serving half of the
    /// quorum read fast path. Returns `None` for operations that are not
    /// read-only (a Byzantine client smuggling a write into a read request
    /// gets nothing).
    ///
    /// Policy enforcement runs exactly as on the ordered path. The answer
    /// equals what [`execute`](Self::execute) would return for the same
    /// operation at this state: the service always runs FIFO selection
    /// (`SequentialSpace::new`), under which `peek` resolves to the same
    /// tuple `rdp` would pick, draws no selection randomness, and — unlike
    /// `rdp` — bumps no operation counters. A fast read therefore leaves
    /// [`state_digest`](Self::state_digest) untouched and serving it
    /// requires no per-client bookkeeping at all.
    pub fn execute_read(&self, client: ProcessId, op: &OpCall<'_>) -> Option<OpResult> {
        let op = match op {
            OpCall::Rd(t) => OpCall::rdp(t.as_ref()),
            OpCall::Rdp(_) | OpCall::Count(_) => op.as_borrowed(),
            _ => return None,
        };
        if let Err(decision) = self
            .monitor
            .permits(&Invocation::new(client, op.as_borrowed()), &self.space)
        {
            return Some(OpResult::Denied(decision.to_string()));
        }
        Some(match op {
            OpCall::Rdp(template) => OpResult::Tuple(self.space.peek(&template).cloned()),
            OpCall::Count(template) => OpResult::Count(self.space.count(&template) as u64),
            _ => unreachable!("filtered above"),
        })
    }

    /// Digest of the full service state (checkpointing / divergence
    /// detection).
    ///
    /// Covers the live tuples *and* the history-sensitive engine state:
    /// `next_seq` (which orders future FIFO selections) and the
    /// seeded-selection rng word (which decides future draws). Two replicas
    /// whose spaces hold identical tuples after divergent histories would
    /// otherwise digest equal and slip past checkpoint comparison, then
    /// diverge again on the next multi-match read. The blocking-wait
    /// registration table (rows and arrival counter) is covered too: it
    /// decides which waiter future `out`s wake, so divergent tables are
    /// divergent state even over identical tuples.
    pub fn state_digest(&self) -> Digest {
        // The space is covered by its Merkle root rather than a re-encode
        // of every tuple: the root is maintained incrementally per bucket
        // (see `peats_tuplespace`'s hash forest), so digesting a large,
        // mostly-idle space rehashes only the buckets touched since the
        // last checkpoint — and binds each entry's sequence number, which
        // the old flat fold did not.
        let mut buf = self.space.state_root().to_vec();
        self.space.next_seq().encode(&mut buf);
        self.space.rng_state().encode(&mut buf);
        for (key, reg) in &self.registrations {
            key.encode(&mut buf);
            reg.encode(&mut buf);
        }
        self.next_reg.encode(&mut buf);
        sha256(&buf)
    }

    /// Per-bucket digests of the space's hash tree ([`diff_buckets`]
    /// localizes divergence between two replicas to the differing
    /// channels).
    ///
    /// [`diff_buckets`]: peats_tuplespace::diff_buckets
    pub fn bucket_digests(&self) -> Vec<peats_tuplespace::BucketDigest> {
        self.space.bucket_digests()
    }

    /// Captures the restorable space state (entries + seq counter +
    /// selection rng). The reference monitor is static deployment
    /// configuration, so the snapshot plus the policy fully determines the
    /// service: `restore` onto any service built with the same policy
    /// reproduces the [`state_digest`](Self::state_digest) exactly — the
    /// checkpoint-transfer invariant the replication layer relies on.
    pub fn snapshot(&self) -> SpaceSnapshot {
        self.space.snapshot()
    }

    /// Replaces the space state with `snapshot`'s (state transfer on a
    /// rejoining replica).
    pub fn restore(&mut self, snapshot: &SpaceSnapshot) {
        self.space.restore(snapshot);
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.space.len()
    }

    /// `true` when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.space.is_empty()
    }
}

impl std::fmt::Debug for PeatsService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeatsService")
            .field("tuples", &self.space.len())
            .field("registrations", &self.registrations.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats::policies;
    use peats_tuplespace::{template, tuple};

    #[test]
    fn identical_sequences_produce_identical_state() {
        let mk =
            || PeatsService::new(policies::strong_consensus(), PolicyParams::n_t(4, 1)).unwrap();
        let (mut a, mut b) = (mk(), mk());
        let ops = [
            (0u64, OpCall::out(tuple!["PROPOSE", 0u64, 1])),
            (1, OpCall::out(tuple!["PROPOSE", 1u64, 1])),
            (2, OpCall::rdp(template!["PROPOSE", _, ?v])),
        ];
        for (c, op) in &ops {
            assert_eq!(a.execute(*c, op), b.execute(*c, op));
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn policy_denials_are_results_not_errors() {
        let mut svc =
            PeatsService::new(policies::strong_consensus(), PolicyParams::n_t(4, 1)).unwrap();
        // Impersonation: client 2 writes a proposal for client 3.
        let r = svc.execute(2, &OpCall::out(tuple!["PROPOSE", 3u64, 1]));
        assert!(matches!(r, OpResult::Denied(_)));
        assert!(svc.is_empty());
    }

    #[test]
    fn blocking_ops_map_to_nonblocking() {
        let mut svc = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        svc.execute(0, &OpCall::out(tuple!["A"]));
        let r = svc.execute(0, &OpCall::rd(template!["A"]));
        assert_eq!(r, OpResult::Tuple(Some(tuple!["A"])));
        let r = svc.execute(0, &OpCall::take(template!["A"]));
        assert_eq!(r, OpResult::Tuple(Some(tuple!["A"])));
        assert!(svc.is_empty());
    }

    #[test]
    fn register_serves_immediate_match_without_parking() {
        let mut svc = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        svc.execute(0, &OpCall::out(tuple!["A", 1]));
        let r = svc.register(0, 10, &template!["A", ?x], WaitKind::Rd, false);
        assert_eq!(r, OpResult::Tuple(Some(tuple!["A", 1])));
        assert_eq!(svc.registrations_len(), 0);
        let r = svc.register(0, 11, &template!["A", ?x], WaitKind::Take, false);
        assert_eq!(r, OpResult::Tuple(Some(tuple!["A", 1])));
        assert!(svc.is_empty());
        assert!(svc.take_wakes().is_empty());
    }

    #[test]
    fn out_wakes_all_rd_waiters_and_one_take_winner() {
        let mut svc = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        assert_eq!(
            svc.register(1, 10, &template!["A", ?x], WaitKind::Rd, false),
            OpResult::Registered
        );
        assert_eq!(
            svc.register(2, 20, &template!["A", ?x], WaitKind::Take, false),
            OpResult::Registered
        );
        assert_eq!(
            svc.register(3, 30, &template!["A", ?x], WaitKind::Take, false),
            OpResult::Registered
        );
        assert_eq!(svc.registrations_len(), 3);

        svc.execute(0, &OpCall::out(tuple!["A", 7]));
        let wakes = svc.take_wakes();
        // Both the rd waiter and exactly the first-registered take waiter
        // fire; the tuple never enters the space.
        assert_eq!(wakes.len(), 2);
        assert_eq!(wakes[0].client, 1);
        assert_eq!(wakes[0].result, OpResult::Tuple(Some(tuple!["A", 7])));
        assert_eq!(wakes[1].client, 2);
        assert!(svc.is_empty());
        // The losing take waiter stays parked and wins the next out.
        assert_eq!(svc.registrations_len(), 1);
        svc.execute(0, &OpCall::out(tuple!["A", 8]));
        let wakes = svc.take_wakes();
        assert_eq!(wakes.len(), 1);
        assert_eq!(wakes[0].client, 3);
        assert_eq!(svc.registrations_len(), 0);
    }

    #[test]
    fn persistent_registration_rearms_and_sees_only_future_outs() {
        let mut svc = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        svc.execute(0, &OpCall::out(tuple!["EV", 0]));
        // Persistent: parks even though a match exists (live-tail).
        assert_eq!(
            svc.register(1, 10, &template!["EV", ?x], WaitKind::Rd, true),
            OpResult::Registered
        );
        for i in 1..=3i64 {
            svc.execute(0, &OpCall::out(tuple!["EV", i]));
            let wakes = svc.take_wakes();
            assert_eq!(wakes.len(), 1);
            assert_eq!(wakes[0].result, OpResult::Tuple(Some(tuple!["EV", i])));
        }
        assert_eq!(svc.registrations_len(), 1, "persistent entry re-arms");
        svc.cancel(1, 10);
        assert_eq!(svc.registrations_len(), 0);
    }

    #[test]
    fn cancel_removes_only_the_targeted_registration() {
        let mut svc = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        svc.register(1, 10, &template!["A"], WaitKind::Rd, false);
        svc.register(1, 11, &template!["B"], WaitKind::Rd, false);
        svc.register(2, 10, &template!["C"], WaitKind::Rd, false);
        svc.cancel(1, 10);
        assert_eq!(svc.registrations_len(), 2);
        // Idempotent; foreign (client, req_id) pairs untouched.
        svc.cancel(1, 10);
        svc.cancel(3, 11);
        assert_eq!(svc.registrations_len(), 2);
    }

    #[test]
    fn cas_insert_wakes_waiters_too() {
        let mut svc = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        svc.register(1, 10, &template!["K", ?x], WaitKind::Take, false);
        let r = svc.execute(0, &OpCall::cas(template!["K", _], tuple!["K", 1]));
        assert_eq!(
            r,
            OpResult::Cas {
                inserted: true,
                found: None,
            }
        );
        let wakes = svc.take_wakes();
        assert_eq!(wakes.len(), 1);
        assert_eq!(wakes[0].result, OpResult::Tuple(Some(tuple!["K", 1])));
        assert!(svc.is_empty(), "take winner consumed the cas insert");
    }

    #[test]
    fn register_is_policy_checked() {
        let policy =
            peats_policy::parse_policy("policy wo() { rule Rout: out(_) :- true; }").unwrap();
        let mut svc = PeatsService::new(policy, PolicyParams::new()).unwrap();
        let r = svc.register(1, 10, &template!["SECRET", _], WaitKind::Rd, false);
        assert!(matches!(r, OpResult::Denied(_)));
        assert_eq!(svc.registrations_len(), 0);
    }

    #[test]
    fn registration_table_is_covered_by_state_digest_and_snapshot() {
        let mk = || PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let (mut a, mut b) = (mk(), mk());
        let d0 = a.state_digest();
        a.register(1, 10, &template!["A", ?x], WaitKind::Take, false);
        assert_ne!(a.state_digest(), d0, "parked waiter is replicated state");

        // A register+cancel pair leaves no rows but a bumped arrival
        // counter — still divergent state (future win order differs).
        b.register(1, 10, &template!["A", ?x], WaitKind::Take, false);
        b.cancel(1, 10);
        assert_ne!(a.state_digest(), b.state_digest());
        assert_ne!(b.state_digest(), d0);

        // Restoring rows + counter onto a fresh service reproduces the
        // digest and future wake behavior exactly.
        let mut c = mk();
        c.restore(&a.snapshot());
        c.restore_registrations(&a.registration_rows(), a.next_reg());
        assert_eq!(a.state_digest(), c.state_digest());
        for svc in [&mut a, &mut c] {
            svc.execute(0, &OpCall::out(tuple!["A", 5]));
        }
        assert_eq!(a.take_wakes(), c.take_wakes());
        assert_eq!(a.state_digest(), c.state_digest());
    }

    #[test]
    fn execute_read_matches_ordered_result_and_leaves_state_untouched() {
        let mut svc = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        svc.execute(0, &OpCall::out(tuple!["A", 1]));
        svc.execute(0, &OpCall::out(tuple!["A", 2]));
        let digest = svc.state_digest();

        // The fast answer equals what a copy executing the same read on the
        // ordered path would return (FIFO: first match).
        let fast = svc
            .execute_read(0, &OpCall::rdp(template!["A", ?x]))
            .unwrap();
        let ordered = svc.clone().execute(0, &OpCall::rdp(template!["A", ?x]));
        assert_eq!(fast, ordered);
        assert_eq!(fast, OpResult::Tuple(Some(tuple!["A", 1])));

        assert_eq!(
            svc.execute_read(0, &OpCall::count(template!["A", _]))
                .unwrap(),
            OpResult::Count(2)
        );
        assert_eq!(
            svc.execute_read(0, &OpCall::rd(template!["A", ?x]))
                .unwrap(),
            OpResult::Tuple(Some(tuple!["A", 1]))
        );
        // Serving reads perturbed nothing.
        assert_eq!(svc.state_digest(), digest);
    }

    #[test]
    fn execute_read_refuses_mutating_ops() {
        let svc = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        assert!(svc.execute_read(0, &OpCall::out(tuple!["A"])).is_none());
        assert!(svc.execute_read(0, &OpCall::inp(template!["A"])).is_none());
        assert!(svc.execute_read(0, &OpCall::take(template!["A"])).is_none());
        assert!(svc
            .execute_read(0, &OpCall::cas(template!["A"], tuple!["A"]))
            .is_none());
    }

    #[test]
    fn execute_read_enforces_policy_per_replica() {
        // A write-only policy: every read comes back Denied, not served.
        let policy =
            peats_policy::parse_policy("policy wo() { rule Rout: out(_) :- true; }").unwrap();
        let svc = PeatsService::new(policy, PolicyParams::new()).unwrap();
        let r = svc
            .execute_read(2, &OpCall::rdp(template!["SECRET", _]))
            .unwrap();
        assert!(matches!(r, OpResult::Denied(_)));
        let r = svc.execute_read(2, &OpCall::count(template![_])).unwrap();
        assert!(matches!(r, OpResult::Denied(_)));
    }

    #[test]
    fn state_digest_tracks_content() {
        let mut a = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let d0 = a.state_digest();
        a.execute(0, &OpCall::out(tuple!["A"]));
        assert_ne!(a.state_digest(), d0);
    }

    #[test]
    fn state_digest_detects_divergent_history_behind_equal_tuples() {
        // Replica `a` executed an out+inp pair a Byzantine primary never
        // ordered at `b`: both spaces are empty, but their next_seq (and so
        // all future FIFO orders) differ — the digests must too.
        let mk = || PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let (mut a, b) = (mk(), mk());
        a.execute(0, &OpCall::out(tuple!["X"]));
        a.execute(0, &OpCall::take(template!["X"]));
        assert!(a.is_empty() && b.is_empty());
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn snapshot_restore_reproduces_state_digest_and_future_behavior() {
        let mk = || PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let mut a = mk();
        a.execute(0, &OpCall::out(tuple!["X", 1]));
        a.execute(0, &OpCall::out(tuple!["X", 2]));
        a.execute(0, &OpCall::take(template!["X", 1]));
        let snap = a.snapshot();

        let mut b = mk();
        b.execute(9, &OpCall::out(tuple!["STALE"])); // must vanish
        b.restore(&snap);
        assert_eq!(a.state_digest(), b.state_digest());
        // Future operations behave identically (same FIFO order, same seq
        // stream), so digests stay locked together.
        for svc in [&mut a, &mut b] {
            svc.execute(0, &OpCall::out(tuple!["X", 3]));
            svc.execute(0, &OpCall::take(template!["X", _]));
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn state_digest_replays_equal_after_identical_histories() {
        let mk = || PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let (mut a, mut b) = (mk(), mk());
        for svc in [&mut a, &mut b] {
            svc.execute(0, &OpCall::out(tuple!["X"]));
            svc.execute(0, &OpCall::take(template!["X"]));
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }
}
