//! # peats-replication
//!
//! The Byzantine fault-tolerant replicated PEATS — the Fig. 2 / DepSpace
//! architecture of §4 of Bessani et al.:
//!
//! * [`service`] — the deterministic PEATS service with its per-replica
//!   reference monitor (the "interceptor");
//! * [`messages`] — the wire protocol with MAC-sealed envelopes
//!   (authenticated channels);
//! * [`replica`] — a sans-io PBFT-style replica state machine
//!   (pre-prepare / prepare / commit, simplified view change);
//! * [`client`] — client-side `f+1` reply voting, and the whole client
//!   invocation policy as one sans-io state machine ([`Invocation`]);
//! * [`faults`] — injectable replica fault modes;
//! * [`runtime`] — the transport-generic wall-clock loops, written
//!   against `peats-netsim`'s [`Transport`](peats_netsim::Transport)
//!   trait so the same code runs over in-memory channels and over real
//!   TCP sockets (`peats-net`): the replica event loop
//!   ([`replica_main`], around the shared [`ReplicaHost`]) and the
//!   concurrent client handle ([`ReplicatedPeats`]);
//! * [`sim_harness`] — a deterministic simulated deployment
//!   ([`SimCluster`]) for fault experiments, stepping the same
//!   [`ReplicaHost`] and [`Invocation`] on simulated time;
//! * [`threaded`] — the in-process deployment ([`Cluster`]) over any
//!   [`Fabric`]: [`ThreadedCluster`] over in-memory channels, and
//!   `peats-net`'s `TcpCluster` over loopback sockets. The client handle
//!   implements [`peats::TupleSpace`], so every consensus object and
//!   universal construction runs on the real replicated service
//!   unchanged;
//! * [`wal`] — the write-ahead log and durable snapshots.
//!
//! Safety requires `n = 3f+1` replicas; this is the *replica* fault bound
//! `f`, independent of the *process* fault bound `t` of the algorithms
//! running on top (the paper's two-level model: a fixed set of "controlled"
//! servers serving an open set of untrusted processes, §4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod messages;
pub mod replica;
pub mod runtime;
pub mod service;
pub mod sim_harness;
pub mod threaded;
pub mod wal;

pub use client::{
    BlockingPoll, BlockingSession, ClientConfig, ClientSession, ClientState, Invocation, Op,
    ReadPoll, ReadSession, Reply, WakeStreamSession,
};
pub use faults::FaultMode;
pub use messages::{
    batch_digest, Message, OpResult, Registration, ReplicaId, ReplicaSnapshot, Request, RequestOp,
    Sealed, Seq, View, WaitKind,
};
pub use replica::{Dest, Replica, ReplicaConfig, ReplicaFootprint};
pub use runtime::{replica_main, ReplicaHost, ReplicatedPeats, Subscription};
pub use service::PeatsService;
pub use sim_harness::{FastRead, SimCluster};
pub use threaded::{Cluster, ClusterConfig, Fabric, ThreadedCluster, Threads};
pub use wal::{
    DiskMetrics, DurableConfig, DurableSnapshot, DurableStore, Recovery, RecoveryReport, WalRecord,
};
