//! Phase attribution from the program's own telemetry spans.
//!
//! Capture stays off in end-to-end runs. A traced run installs the event
//! ring once, and around each measured call resets it, enables capture,
//! and afterwards folds the spans into per-phase self times.

use crate::stats::{self_times, Interval};

/// Event-ring capacity. One traced call must fit: a call that overflows
/// the ring is reported through `trace.dropped_events` and invalidates
/// the run.
const RING_CAPACITY: usize = 1 << 20;

/// The reuse pipeline's phases, by span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Gather + hash: panel packing, row reorder and LSH projection.
    PackHash,
    /// Clustering and temporal-cache probes.
    Cluster,
    /// Centroid GEMM: packing and microkernel, f32 or int8.
    Gemm,
    /// Fold / recover / scatter of centroid results into the output.
    Fold,
    /// int8 requantization.
    Requant,
    /// im2col in the network layer.
    Im2col,
}

impl Phase {
    /// Phase of a span name; `None` for spans outside the pipeline.
    pub fn of(span: &str) -> Option<Phase> {
        Some(match span {
            "exec.fused_pack_hash" | "exec.gather" | "exec.reorder" | "lsh.hash" => Phase::PackHash,
            "exec.cluster" | "exec.warm_cluster" | "lsh.group" => Phase::Cluster,
            "exec.gemm" | "gemm.pack" | "gemm.kernel" | "quant.pack" | "quant.kernel" => {
                Phase::Gemm
            }
            "exec.fold" | "exec.recover" | "exec.scatter" => Phase::Fold,
            "quant.requant" => Phase::Requant,
            "im2col" => Phase::Im2col,
            _ => return None,
        })
    }
}

/// Phase self times and counters of one traced call.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Self time (ms) per phase; im2col is counted over every layer.
    pub phase_ms: std::collections::BTreeMap<Phase, f64>,
    /// `cache.hit`, `cache.miss`, `cache.invalidate`.
    pub cache: [u64; 3],
    /// Events the ring could not hold.
    pub dropped: u64,
}

impl Capture {
    /// Phase self time, 0 when absent.
    pub fn ms(&self, p: Phase) -> f64 {
        self.phase_ms.get(&p).copied().unwrap_or(0.0)
    }

    /// Accumulates another capture.
    pub fn add(&mut self, o: &Capture) {
        for (p, ms) in &o.phase_ms {
            *self.phase_ms.entry(*p).or_default() += ms;
        }
        for (a, b) in self.cache.iter_mut().zip(o.cache) {
            *a += b;
        }
        self.dropped += o.dropped;
    }
}

/// Installs the event ring (idempotent).
pub fn install() {
    greuse_telemetry::install(RING_CAPACITY);
}

/// Runs `body` with capture on and returns its result and capture. With
/// `tagged_only`, pipeline phases count only spans recorded inside a
/// layer the backend tagged as deployed.
pub fn traced<T>(tagged_only: bool, body: impl FnOnce() -> T) -> (T, Capture) {
    greuse_telemetry::reset();
    greuse_telemetry::enable();
    let out = body();
    greuse_telemetry::disable();
    (out, collect(tagged_only))
}

fn collect(tagged_only: bool) -> Capture {
    let events = greuse_telemetry::events();
    let spans: Vec<Interval> = events
        .iter()
        .map(|e| Interval {
            tid: e.tid,
            start: e.start_ns,
            dur: e.dur_ns,
        })
        .collect();
    let selfs = self_times(&spans);
    let mut cap = Capture {
        dropped: greuse_telemetry::dropped_events(),
        ..Capture::default()
    };
    for (e, self_ns) in events.iter().zip(selfs) {
        let Some(phase) = Phase::of(e.name) else {
            continue;
        };
        if tagged_only && phase != Phase::Im2col && e.tag == 0 {
            continue;
        }
        *cap.phase_ms.entry(phase).or_default() += self_ns as f64 / 1e6;
    }
    for (name, v) in greuse_telemetry::counters() {
        match name {
            "cache.hit" => cap.cache[0] += v,
            "cache.miss" => cap.cache[1] += v,
            "cache.invalidate" => cap.cache[2] += v,
            _ => {}
        }
    }
    cap
}
