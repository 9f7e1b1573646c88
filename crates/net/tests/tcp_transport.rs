//! Socket-level tests of [`TcpTransport`] and the [`TcpCluster`] loopback
//! harness: bidirectional delivery, reverse-link replies to dial-only
//! clients, bounded drop-oldest queues, malformed-frame resilience, and
//! full kill/respawn recovery of a replica over real sockets.

use peats::TupleSpace;
use peats_net::{TcpCluster, TcpClusterConfig, TcpConfig, TcpTransport};
use peats_netsim::{Mailbox, NodeId, Transport};
use peats_policy::{Policy, PolicyParams};
use peats_replication::{ClientConfig, ClusterConfig};
use peats_tuplespace::{template, tuple};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Two bound endpoints that dial each other.
fn pair(
    cfg: TcpConfig,
) -> (
    (TcpTransport, peats_net::TcpMailbox),
    (TcpTransport, peats_net::TcpMailbox),
) {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let a0 = l0.local_addr().unwrap();
    let a1 = l1.local_addr().unwrap();
    let peers = |me: NodeId| -> BTreeMap<NodeId, SocketAddr> {
        [(0, a0), (1, a1)]
            .into_iter()
            .filter(|(id, _)| *id != me)
            .collect()
    };
    let e0 = TcpTransport::from_listener(0, l0, peers(0), cfg.clone()).unwrap();
    let e1 = TcpTransport::from_listener(1, l1, peers(1), cfg).unwrap();
    (e0, e1)
}

fn recv_payload(mb: &peats_net::TcpMailbox, within: Duration) -> Option<(NodeId, Vec<u8>)> {
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        if let Ok(Some(env)) = mb.recv_timeout(Duration::from_millis(50)) {
            return Some(env);
        }
    }
    None
}

#[test]
fn bound_endpoints_exchange_messages_both_ways() {
    let ((t0, m0), (t1, m1)) = pair(TcpConfig::default());
    t0.send(0, 1, b"zero to one".to_vec());
    t1.send(1, 0, b"one to zero".to_vec());
    assert_eq!(
        recv_payload(&m1, Duration::from_secs(5)),
        Some((0, b"zero to one".to_vec()))
    );
    assert_eq!(
        recv_payload(&m0, Duration::from_secs(5)),
        Some((1, b"one to zero".to_vec()))
    );
    // Self-send loops back without touching the network.
    t0.send(0, 0, b"self".to_vec());
    assert_eq!(
        recv_payload(&m0, Duration::from_secs(1)),
        Some((0, b"self".to_vec()))
    );
    assert_eq!(t0.peers(), vec![0, 1]);
    t0.shutdown();
    t1.shutdown();
}

#[test]
fn dial_only_client_gets_replies_over_its_own_connection() {
    // A "replica" with a listener, a "client" with none: the reply must
    // ride the reverse link of the client's inbound connection.
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let (server, server_mb) =
        TcpTransport::from_listener(0, l, BTreeMap::new(), TcpConfig::default()).unwrap();
    let (client, client_mb) =
        TcpTransport::connect(7, [(0, addr)].into_iter().collect(), TcpConfig::default());

    client.send(7, 0, b"request".to_vec());
    assert_eq!(
        recv_payload(&server_mb, Duration::from_secs(5)),
        Some((7, b"request".to_vec()))
    );
    server.send(0, 7, b"reply".to_vec());
    assert_eq!(
        recv_payload(&client_mb, Duration::from_secs(5)),
        Some((0, b"reply".to_vec()))
    );
    client.shutdown();
    server.shutdown();
}

#[test]
fn sends_to_unknown_peers_are_silently_dropped() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let (t, mb) = TcpTransport::from_listener(3, l, BTreeMap::new(), TcpConfig::default()).unwrap();
    // Node 99 was never configured and never connected: asynchronous-model
    // semantics say drop, not error, not panic.
    t.send(3, 99, b"into the void".to_vec());
    assert!(recv_payload(&mb, Duration::from_millis(200)).is_none());
    t.shutdown();
}

#[test]
fn outbound_queue_sheds_oldest_when_peer_is_down() {
    // Dial a port that is bound but whose owner was dropped immediately:
    // nothing ever accepts, so frames pile up in the dial link's queue.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let cfg = TcpConfig {
        queue_depth: 2,
        reconnect_max: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(100),
        ..TcpConfig::default()
    };
    let (t, _mb) = TcpTransport::connect(0, [(1, dead)].into_iter().collect(), cfg);
    for i in 0..10u8 {
        t.send(0, 1, vec![i]);
    }
    // 10 sends into a depth-2 queue: at least 8 shed, none blocking.
    let deadline = Instant::now() + Duration::from_secs(2);
    while t.dropped_outbound() < 8 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        t.dropped_outbound() >= 8,
        "drop-oldest must shed, saw {}",
        t.dropped_outbound()
    );
    t.shutdown();
}

#[test]
fn malformed_frames_disconnect_without_killing_the_endpoint() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let (t, mb) = TcpTransport::from_listener(0, l, BTreeMap::new(), TcpConfig::default()).unwrap();

    // A rogue's worth of hostile streams, each on a fresh connection.
    let attacks: Vec<Vec<u8>> = vec![
        vec![0xff, 0xff, 0xff, 0xff, 1, 2, 3], // 4 GiB length claim
        vec![10, 0, 0, 0, 1, 2],               // truncated mid-frame
        vec![1, 0, 0, 0, 9],                   // frame too short for a node id
        vec![0, 0],                            // truncated mid-prefix
        (0..64).collect(),                     // plain garbage
        Vec::new(),                            // connect-then-close
    ];
    for attack in attacks {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(&attack);
        drop(s); // reset/half-close mid-stream
    }
    // Give the readers a moment to chew on the garbage.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        recv_payload(&mb, Duration::from_millis(100)).is_none(),
        "garbage must never surface as a message"
    );

    // The endpoint still serves a well-formed peer.
    let (client, client_mb) =
        TcpTransport::connect(5, [(0, addr)].into_iter().collect(), TcpConfig::default());
    client.send(5, 0, b"still alive?".to_vec());
    assert_eq!(
        recv_payload(&mb, Duration::from_secs(5)),
        Some((5, b"still alive?".to_vec()))
    );
    t.send(0, 5, b"yes".to_vec());
    assert_eq!(
        recv_payload(&client_mb, Duration::from_secs(5)),
        Some((0, b"yes".to_vec()))
    );
    client.shutdown();
    t.shutdown();
}

#[test]
fn peer_reconnects_after_endpoint_restart() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let keeper = l.try_clone().unwrap();
    let cfg = TcpConfig {
        reconnect_max: Duration::from_millis(100),
        ..TcpConfig::default()
    };
    let (b, b_mb) = TcpTransport::from_listener(1, l, BTreeMap::new(), cfg.clone()).unwrap();
    let (a, _a_mb) = TcpTransport::connect(0, [(1, addr)].into_iter().collect(), cfg.clone());

    a.send(0, 1, b"before".to_vec());
    assert_eq!(
        recv_payload(&b_mb, Duration::from_secs(5)),
        Some((0, b"before".to_vec()))
    );

    // Hard-restart endpoint 1 on the same listener: connections reset.
    b.shutdown();
    drop(b_mb);
    let (b2, b2_mb) = TcpTransport::from_listener(1, keeper, BTreeMap::new(), cfg).unwrap();

    // The dialer's reconnect-with-backoff must find the new incarnation;
    // retransmissions (fresh sends) get through.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut delivered = false;
    while !delivered && Instant::now() < deadline {
        a.send(0, 1, b"after".to_vec());
        if let Ok(Some((0, p))) = b2_mb.recv_timeout(Duration::from_millis(100)) {
            delivered = p == b"after";
        }
    }
    assert!(delivered, "dialer must reconnect to the restarted endpoint");
    a.shutdown();
    b2.shutdown();
}

fn quick_cluster_cfg() -> TcpClusterConfig {
    TcpClusterConfig {
        cluster: ClusterConfig {
            batch_cap: 2,
            max_in_flight: 2,
            checkpoint_interval: 2,
            ..ClusterConfig::default()
        },
        tcp: TcpConfig::default(),
    }
}

#[test]
fn tcp_cluster_serves_the_full_op_surface() {
    let mut cluster = TcpCluster::start_with(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &[100, 101],
        &[],
        quick_cluster_cfg(),
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
    assert_eq!(b.take(&template!["JOB", ?x]).unwrap(), tuple!["JOB", 1]);
    assert_eq!(a.inp(&template!["JOB", ?x]).unwrap(), None);
    cluster.shutdown();
}

#[test]
fn killed_replica_recovers_via_state_transfer_over_sockets() {
    let mut cluster = TcpCluster::start_with(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &[100],
        &[],
        quick_cluster_cfg(),
    )
    .unwrap();
    let h = cluster.handle(0);
    for i in 0..8i64 {
        h.out(tuple!["PRE", i]).unwrap();
    }
    // Wait for a stable checkpoint so the killed replica's history is GC'd.
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.stable_seq(0) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stable_before = cluster.stable_seq(0);
    assert!(stable_before > 0, "cluster must stabilize under traffic");

    cluster.kill_replica(2);
    // Three replicas carry the load while 2 is down.
    for i in 0..4i64 {
        h.out(tuple!["MID", i]).unwrap();
    }

    cluster.respawn_replica(2);
    assert_eq!(cluster.last_exec(2), 0, "respawn wiped the replica");
    for i in 0..8i64 {
        h.out(tuple!["POST", i]).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(15);
    while cluster.last_exec(2) < stable_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        cluster.last_exec(2) >= stable_before,
        "respawned replica must catch up via snapshot over TCP (last_exec {}, stable {})",
        cluster.last_exec(2),
        stable_before
    );
    assert_eq!(h.rdp(&template!["PRE", 0]).unwrap(), Some(tuple!["PRE", 0]));
    cluster.shutdown();
}

#[test]
fn injected_send_delay_still_serves_and_slows_the_path() {
    let mut cfg = quick_cluster_cfg();
    cfg.tcp.send_delay = Duration::from_millis(1);
    cfg.cluster.client = ClientConfig {
        invoke_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    };
    let mut cluster = TcpCluster::start_with(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &[100],
        &[],
        cfg,
    )
    .unwrap();
    let h = cluster.handle(0);
    h.out(tuple!["SLOWNET", 1]).unwrap();
    assert_eq!(
        h.rdp(&template!["SLOWNET", ?x]).unwrap(),
        Some(tuple!["SLOWNET", 1])
    );
    cluster.shutdown();
}
