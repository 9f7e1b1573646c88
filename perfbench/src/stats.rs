//! Counters and span timers shared by every actor of one benchmark run.
//!
//! Counts are always kept (they are cheap and make the traced breakdown
//! exact); span timers and the history recording used for the layer
//! replay only run when the run is traced.

use peats_policy::OpCall;
use peats_replication::{Request, Seq};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Shared handle on a run's counters.
pub type SharedStats = Rc<RefCell<Stats>>;

/// At most this many sealed bodies are kept for the MAC micro-timing.
const MAC_SAMPLE_CAP: usize = 2048;
/// One sealed body out of this many is sampled.
const MAC_SAMPLE_EVERY: u64 = 16;

/// A sealed message body kept to time `sign_for`/`verify_from` on the
/// run's own traffic after the run.
#[derive(Clone, Debug)]
pub struct MacSample {
    /// Sending node.
    pub from: u64,
    /// Receiving node.
    pub to: u64,
    /// Encoded message body.
    pub body: Vec<u8>,
}

/// Declares [`Counters`] with its field-wise difference and sum.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// The numeric counters of one run. `Copy`, so a phase is the
        /// difference of two snapshots.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// `self - earlier`, field by field.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            /// `self + other`, field by field.
            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

counters! {
    /// Messages handed to the simulated fabric.
    msgs,
    /// Bytes handed to the simulated fabric.
    bytes,
    /// `Sealed::seal` + `to_bytes` calls.
    seals,
    /// Nanoseconds spent sealing and encoding.
    seal_ns,
    /// `from_bytes` + `open` calls.
    opens,
    /// Nanoseconds spent decoding and verifying.
    open_ns,
    /// Envelopes that failed to decode or authenticate.
    open_rejected,
    /// `Replica::on_message` calls.
    replica_calls,
    /// Nanoseconds inside `Replica::on_message`.
    replica_ns,
    /// `PrePrepare` batches the primary emitted (traced runs only).
    batches,
    /// Requests carried by those batches (traced runs only).
    batched_requests,
    /// Replies fed to the client sessions' votes.
    client_replies,
    /// Nanoseconds inside the client sessions' vote functions.
    client_ns,
    /// Replies that disagreed with the decision they voted on (traced
    /// runs only).
    rejected_replies,
    /// Decisions reached.
    decisions,
    /// Fast reads started.
    fast_reads,
    /// Fast reads that fell back to the ordered path.
    read_fallbacks,
    /// Requests re-broadcast after a client timeout.
    retransmits,
}

/// Every counter and timer of one run.
#[derive(Debug, Default)]
pub struct Stats {
    /// Span timers and history recording are on.
    pub traced: bool,
    /// The numeric counters.
    pub c: Counters,
    /// Wall nanoseconds the timed phase was paused for set-up
    /// repetitions.
    pub paused_ns: u64,
    /// Largest `pending` backlog sampled on the primary (traced runs).
    pub pending_max: usize,
    /// Sampled sealed bodies for the MAC timing (traced runs).
    pub mac_samples: Vec<MacSample>,
    /// Ordered batches observed on the primary's `PrePrepare`s (traced
    /// runs only): the run's committed history, replayed per layer.
    pub history: BTreeMap<Seq, Vec<Request>>,
    /// Accepted fast reads `(seq, pid, op)` (traced runs only).
    pub reads: Vec<(Seq, u64, OpCall<'static>)>,
}

impl Stats {
    /// Fresh counters; `traced` switches the span timers on.
    pub fn shared(traced: bool) -> SharedStats {
        Rc::new(RefCell::new(Stats {
            traced,
            ..Stats::default()
        }))
    }

    /// Records one sealed message (`seal_ns` is 0 when untraced).
    pub fn sealed(&mut self, from: u64, to: u64, body: &[u8], wire_len: usize, seal_ns: u64) {
        self.c.seals += 1;
        self.c.seal_ns += seal_ns;
        self.c.msgs += 1;
        self.c.bytes += wire_len as u64;
        if self.traced
            && self.c.seals.is_multiple_of(MAC_SAMPLE_EVERY)
            && self.mac_samples.len() < MAC_SAMPLE_CAP
        {
            self.mac_samples.push(MacSample {
                from,
                to,
                body: body.to_vec(),
            });
        }
    }
}

/// A span timer that costs nothing when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct Span(Option<Instant>);

impl Span {
    /// Starts a span if `traced`.
    pub fn start(traced: bool) -> Span {
        Span(traced.then(Instant::now))
    }

    /// Nanoseconds since the start (0 when untraced).
    pub fn ns(self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a list of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
