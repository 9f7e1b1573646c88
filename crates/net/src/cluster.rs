//! [`TcpCluster`]: the replicated PEATS over real loopback sockets, inside
//! one process.
//!
//! This is the in-process [`Cluster`] of `peats-replication` over the
//! [`Sockets`] fabric: every replica runs
//! [`replica_main`](peats_replication::replica_main) on its own thread
//! behind a [`TcpTransport`] bound to `127.0.0.1:0`, and every client
//! handle dials the replicas over TCP, so every message crosses the
//! kernel's socket layer — the harness the socket-transport benchmarks and
//! tests use, and the closest in-process approximation of the
//! multi-process `peatsd` deployment.
//!
//! The fabric holds each replica's listening socket for the cluster's
//! whole life, so [`kill_replica`](Cluster::kill_replica) (connections
//! reset, peers reconnect-with-backoff) and
//! [`respawn_replica`](Cluster::respawn_replica) (the replica comes back
//! *wiped* on the same address) exercise reconnection plus
//! checkpoint/state-transfer recovery over sockets.

use crate::{TcpConfig, TcpMailbox, TcpTransport};
use peats_netsim::NodeId;
use peats_replication::{Cluster, ClusterConfig, Fabric};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};

/// Configuration for a [`TcpCluster`]: the protocol/timing knobs shared
/// with the threaded tier plus the socket-level transport knobs.
#[derive(Clone, Debug, Default)]
pub struct TcpClusterConfig {
    /// Batching, pipelining, checkpointing, and client timing.
    pub cluster: ClusterConfig,
    /// Socket transport tuning (frame cap, queue depth, reconnect
    /// backoff, injected per-send latency).
    pub tcp: TcpConfig,
}

impl AsRef<ClusterConfig> for TcpClusterConfig {
    fn as_ref(&self) -> &ClusterConfig {
        &self.cluster
    }
}

/// Loopback TCP endpoints: one listening socket per replica, bound once.
#[derive(Debug)]
pub struct Sockets {
    listeners: Vec<TcpListener>,
    addrs: BTreeMap<NodeId, SocketAddr>,
    tcp: TcpConfig,
}

impl Fabric for Sockets {
    type Net = TcpTransport;
    type Config = TcpClusterConfig;

    /// Binds every replica's listener first, so every peer map is complete
    /// before any replica starts dialing.
    ///
    /// # Panics
    ///
    /// Panics if loopback sockets cannot be bound (no meaningful recovery
    /// in a test/bench harness).
    fn open(config: &TcpClusterConfig, n_replicas: usize, _n_clients: usize) -> Self {
        let listeners: Vec<TcpListener> = (0..n_replicas)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs = listeners
            .iter()
            .enumerate()
            .map(|(id, l)| (id as NodeId, l.local_addr().expect("local addr")))
            .collect();
        Sockets {
            listeners,
            addrs,
            tcp: config.tcp.clone(),
        }
    }

    fn replica_endpoint(&mut self, id: NodeId) -> (TcpTransport, TcpMailbox) {
        let mut peers = self.addrs.clone();
        peers.remove(&id);
        let listener = self.listeners[id as usize]
            .try_clone()
            .expect("clone listener");
        TcpTransport::from_listener(id, listener, peers, self.tcp.clone())
            .expect("configure listener")
    }

    fn client_endpoint(&mut self, node: NodeId) -> (TcpTransport, TcpMailbox) {
        TcpTransport::connect(node, self.addrs.clone(), self.tcp.clone())
    }

    fn close(net: &TcpTransport) {
        net.shutdown();
    }
}

/// A running socket-backed replicated PEATS on loopback.
pub type TcpCluster = Cluster<Sockets>;
