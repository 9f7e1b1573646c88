//! Re-measures the reference figures quoted in `perfbench/README.md`:
//! how fast-read cost grows with the channel bucket a template hits, how
//! the universal construction's cost grows with the log, how durable
//! throughput falls with the state every checkpoint snapshots.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --example reference
//! ```

use peats_perfbench::{run, Limit, RunConfig, Sizes, Workload};
use std::path::PathBuf;

const SEED: u64 = 1;

fn measure(workload: Workload, sizes: Sizes, secs: f64) -> f64 {
    let cfg = RunConfig {
        workload,
        seed: SEED,
        limit: Limit::Seconds(secs),
        trace: false,
        sizes,
        data_dir: PathBuf::from(".bench_data"),
    };
    let outcome = run(&cfg).expect("the data directory is writable");
    assert!(
        outcome.correct && outcome.failed == 0,
        "{:?}",
        outcome.violations
    );
    outcome.metric("ops_per_s").expect("throughput reported")
}

fn main() {
    println!("| figure | setting | ops/s |");
    println!("|---|---|---|");
    for (channels, tuples) in [(256, 4096), (1, 1024), (1, 4096), (1, 16384)] {
        let sizes = Sizes {
            setup_reps: 1,
            channels,
            working_set: tuples,
            ..Sizes::full()
        };
        let rate = measure(Workload::HotReads, sizes, 5.0);
        println!("| hot_reads mix vs bucket size | {tuples} tuples in {channels} channel(s) | {rate:.0} |");
    }
    for prefix in [100, 400, 1600] {
        let sizes = Sizes {
            log_prefix: prefix,
            log_segment: 200,
            ..Sizes::full()
        };
        // Several epochs, so the figure is their median.
        let rate = measure(Workload::UniversalLog, sizes, 3.0);
        println!("| universal_log vs log length | prefix {prefix} + 200 invocations per epoch | {rate:.0} |");
    }
    for backlog in [0, 256] {
        let sizes = Sizes {
            queue_restarts: 1,
            history_backlog: backlog,
            ..Sizes::full()
        };
        let tuples = backlog * sizes.queue_pairs as u64;
        let rate = measure(Workload::WorkQueue, sizes, 10.0);
        println!(
            "| work_queue vs state size | {tuples} backlog tuples on every replica | {rate:.0} |"
        );
    }
}
