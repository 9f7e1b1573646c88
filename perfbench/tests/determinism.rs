//! The benchmark checks itself at small sizes: a fixed amount of work per
//! client makes every count of a traced run repeat exactly for one seed,
//! and another seed changes the delivery order while every oracle still
//! holds.

use peats_perfbench::{run, Limit, Outcome, RunConfig, Sizes, Workload};
use std::path::PathBuf;

/// Counts a fixed seed must reproduce exactly.
const COUNTS: [&str; 8] = [
    "netsim.msgs_per_op",
    "netsim.bytes_per_op",
    "netsim.sim_ticks_p50",
    "messages.seals_per_op",
    "messages.opens_per_op",
    "replica.ops_per_batch",
    "replica.calls_per_op",
    "client.replies_per_decision",
];

/// Every per-layer metric a traced run must report.
const LAYER_METRICS: [&str; 36] = [
    "netsim.msgs_per_op",
    "netsim.bytes_per_op",
    "netsim.sim_ticks_p50",
    "messages.seals_per_op",
    "messages.seal_us_per_op",
    "messages.opens_per_op",
    "messages.open_us_per_op",
    "messages.open_rejected",
    "auth.sign_us",
    "auth.verify_us",
    "auth.share",
    "replica.on_message_us_per_op",
    "replica.calls_per_op",
    "replica.ops_per_batch",
    "replica.pending_max",
    "replica.view_changes",
    "replica.self_us_per_op",
    "service.execute_us_per_op",
    "policy.permits_us_per_op",
    "tuplespace.op_us_per_op",
    "tuplespace.state_root_us",
    "tuplespace.len_end",
    "wal.append_us_per_batch",
    "wal.bytes_per_op",
    "wal.snapshot_bytes",
    "wal.recovery_s",
    "client.on_reply_us_per_op",
    "client.replies_per_decision",
    "client.rejected_replies_per_op",
    "client.read_fallbacks_per_1k_reads",
    "client.retransmits",
    "universal.space_ops_per_invoke",
    "universal.positions_per_invoke",
    "harness.op_us_per_op",
    "harness.other_us_per_op",
    "harness.ops_per_s",
];

fn traced(workload: Workload, seed: u64) -> Outcome {
    let cfg = RunConfig {
        workload,
        seed,
        limit: Limit::Ops(12),
        trace: true,
        sizes: Sizes::small(),
        data_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test"),
    };
    let outcome = run(&cfg).expect("the run's data directory is writable");
    assert!(
        outcome.correct,
        "{} seed {seed}: oracle failed: {:?}",
        workload.name(),
        outcome.violations
    );
    assert_eq!(outcome.failed, 0, "{} seed {seed}", workload.name());
    assert!(outcome.attempted > 0);
    outcome
}

fn counts(outcome: &Outcome) -> Vec<f64> {
    COUNTS
        .iter()
        .map(|name| outcome.metric(name).expect("count reported"))
        .collect()
}

fn check(workload: Workload) {
    let first = traced(workload, 7);
    let again = traced(workload, 7);
    assert_eq!(counts(&first), counts(&again), "{}", workload.name());
    assert_eq!(first.digests, again.digests, "{}", workload.name());
    assert_eq!(first.attempted, again.attempted);
    let names: Vec<&str> = first.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, LAYER_METRICS, "{}", workload.name());
    // The named spans do not overlap, so they fit in the traced op time
    // and leave a remainder (`harness.other_us_per_op`) that is not
    // negative.
    let other = first.metric("harness.other_us_per_op").expect("remainder");
    assert!(other >= 0.0, "{}: remainder {other}", workload.name());
    assert_eq!(first.metric("replica.view_changes"), Some(0.0));

    let other = traced(workload, 8);
    assert_ne!(
        (counts(&first), &first.digests),
        (counts(&other), &other.digests),
        "{}: another seed changes the inputs or the delivery order",
        workload.name()
    );
}

#[test]
fn work_queue_repeats_exactly() {
    check(Workload::WorkQueue);
}

#[test]
fn hot_reads_repeats_exactly() {
    check(Workload::HotReads);
}

#[test]
fn universal_log_repeats_exactly() {
    check(Workload::UniversalLog);
}
