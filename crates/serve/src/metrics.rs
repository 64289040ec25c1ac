//! Serving metrics: lock-free counters and histograms with a plain-struct
//! snapshot and a minimal line-protocol dump.
//!
//! Everything is `AtomicU64` with relaxed ordering — metrics tolerate
//! off-by-a-few reads under concurrency; they must never contend with the
//! request path.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Batch-size histogram buckets: upper bounds `1, 2, 4, 8, 16, 32, ∞`.
pub const BATCH_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Latency histogram: power-of-two microsecond buckets, `1 µs … 2³⁰ µs (~18 min)`.
const LATENCY_BUCKETS: usize = 31;

/// Live counters shared by every serving component.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Prediction requests accepted (HTTP or in-process).
    requests: AtomicU64,
    /// Requests answered straight from the slot cache (no queue wait).
    cache_hits: AtomicU64,
    /// Requests answered from a coalesced batch (shared one forward pass).
    batched: AtomicU64,
    /// Forward passes actually executed.
    forward_passes: AtomicU64,
    /// Requests that missed their deadline and fell back to HA.
    fallbacks: AtomicU64,
    /// Requests that failed (unknown model, bad slot/station, …).
    errors: AtomicU64,
    /// Checkpoint hot-swaps applied.
    swaps: AtomicU64,
    /// Requests refused admission by a router and degraded without ever
    /// reaching this replica's queue (load shedding).
    shed: AtomicU64,
    /// Gauge: requests currently admitted and in flight on this replica
    /// (the router's per-replica bounded queue occupancy).
    queue_depth: AtomicU64,
    /// Batch-size histogram (bucket i counts batches ≤ BATCH_BUCKETS[i]).
    batch_hist: [AtomicU64; BATCH_BUCKETS.len() + 1],
    /// End-to-end request latency histogram (power-of-two µs buckets).
    latency_hist: [AtomicU64; LATENCY_BUCKETS],
    /// Queue wait of each queued request, enqueue to worker pickup
    /// (power-of-two µs buckets). Cache hits never queue.
    queue_wait_hist: [AtomicU64; LATENCY_BUCKETS],
    /// Duration of each executed forward pass (power-of-two µs buckets).
    forward_hist: [AtomicU64; LATENCY_BUCKETS],
}

impl ServeMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc_requests(&self) {
        self.requests.fetch_add(1, Relaxed);
    }

    /// Records `n` requests answered from the cache.
    pub fn inc_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Relaxed);
    }

    /// Records `n` requests answered from one shared forward pass.
    pub fn inc_batched(&self, n: u64) {
        self.batched.fetch_add(n, Relaxed);
    }

    pub fn inc_fallbacks(&self) {
        self.fallbacks.fetch_add(1, Relaxed);
    }

    pub fn inc_errors(&self) {
        self.errors.fetch_add(1, Relaxed);
    }

    pub fn inc_swaps(&self) {
        self.swaps.fetch_add(1, Relaxed);
    }

    /// Records one request shed by admission control instead of queued.
    pub fn inc_shed(&self) {
        self.shed.fetch_add(1, Relaxed);
    }

    /// Raises the in-flight gauge by one (request admitted to the queue).
    /// Returns the depth *after* the increment.
    pub fn queue_enter(&self) -> u64 {
        self.queue_depth.fetch_add(1, Relaxed) + 1
    }

    /// Lowers the in-flight gauge by one (request completed or failed).
    /// Saturates at zero so a stray double-leave cannot wrap the gauge.
    pub fn queue_leave(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Relaxed, Relaxed, |d| Some(d.saturating_sub(1)));
    }

    /// Current in-flight gauge reading.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Relaxed)
    }

    /// Records one executed forward pass that served a batch of `size`.
    pub fn record_forward(&self, batch_size: usize) {
        self.forward_passes.fetch_add(1, Relaxed);
        let idx = BATCH_BUCKETS
            .iter()
            .position(|&ub| batch_size as u64 <= ub)
            .unwrap_or(BATCH_BUCKETS.len());
        // lint: allow(L004): batch_hist has BATCH_BUCKETS.len() + 1 slots,
        // so the overflow index is in bounds.
        self.batch_hist[idx].fetch_add(1, Relaxed);
    }

    /// Records one request's end-to-end latency.
    pub fn record_latency(&self, latency: Duration) {
        record_us(&self.latency_hist, latency);
    }

    /// Records how long one request waited in the queue for a worker.
    pub fn record_queue_wait(&self, wait: Duration) {
        record_us(&self.queue_wait_hist, wait);
    }

    /// Records how long one forward pass took.
    pub fn record_forward_time(&self, elapsed: Duration) {
        record_us(&self.forward_hist, elapsed);
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (latency_p50_us, latency_p99_us) = p50_p99(&self.latency_hist);
        let (queue_wait_p50_us, queue_wait_p99_us) = p50_p99(&self.queue_wait_hist);
        let (forward_p50_us, forward_p99_us) = p50_p99(&self.forward_hist);
        MetricsSnapshot {
            requests: self.requests.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            batched: self.batched.load(Relaxed),
            forward_passes: self.forward_passes.load(Relaxed),
            fallbacks: self.fallbacks.load(Relaxed),
            errors: self.errors.load(Relaxed),
            swaps: self.swaps.load(Relaxed),
            shed: self.shed.load(Relaxed),
            queue_depth: self.queue_depth.load(Relaxed),
            batch_hist: self.batch_hist.iter().map(|c| c.load(Relaxed)).collect(),
            latency_p50_us,
            latency_p99_us,
            queue_wait_p50_us,
            queue_wait_p99_us,
            forward_p50_us,
            forward_p99_us,
        }
    }
}

/// Adds one duration to a power-of-two microsecond histogram.
fn record_us(hist: &[AtomicU64; LATENCY_BUCKETS], d: Duration) {
    let us = d.as_micros().max(1) as u64;
    let idx = (63 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
    // lint: allow(L004): idx is clamped to LATENCY_BUCKETS - 1 above.
    hist[idx].fetch_add(1, Relaxed);
}

/// The p50 and p99 estimates of a power-of-two microsecond histogram.
fn p50_p99(hist: &[AtomicU64; LATENCY_BUCKETS]) -> (u64, u64) {
    let counts: Vec<u64> = hist.iter().map(|c| c.load(Relaxed)).collect();
    (percentile(&counts, 0.50), percentile(&counts, 0.99))
}

/// Upper-bound estimate of the q-quantile from a power-of-two histogram:
/// returns the upper edge (2^(i+1) µs) of the bucket holding the quantile.
fn percentile(hist: &[u64], q: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 1u64 << (i + 1);
        }
    }
    1u64 << hist.len()
}

/// Plain-struct metrics snapshot (the programmatic surface; the HTTP
/// endpoint renders it via [`MetricsSnapshot::to_line_protocol`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub requests: u64,
    pub cache_hits: u64,
    pub batched: u64,
    pub forward_passes: u64,
    pub fallbacks: u64,
    pub errors: u64,
    pub swaps: u64,
    /// Requests shed by admission control before reaching this replica.
    pub shed: u64,
    /// Gauge: requests admitted and in flight at snapshot time.
    pub queue_depth: u64,
    /// Batch-size histogram; bucket `i` counts batches with size ≤
    /// [`BATCH_BUCKETS`]`[i]`, last bucket is the overflow.
    pub batch_hist: Vec<u64>,
    /// Estimated p50 end-to-end latency (upper bucket edge), microseconds.
    pub latency_p50_us: u64,
    /// Estimated p99 end-to-end latency (upper bucket edge), microseconds.
    pub latency_p99_us: u64,
    /// Estimated p50 queue wait (enqueue to worker pickup) of queued
    /// requests (upper bucket edge), microseconds.
    pub queue_wait_p50_us: u64,
    /// Estimated p99 queue wait of queued requests, microseconds.
    pub queue_wait_p99_us: u64,
    /// Estimated p50 forward-pass time (upper bucket edge), microseconds.
    pub forward_p50_us: u64,
    /// Estimated p99 forward-pass time, microseconds.
    pub forward_p99_us: u64,
}

impl MetricsSnapshot {
    /// Cache hit rate over all accepted requests, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// Upper bucket edge of the largest batch observed (`u64::MAX` for the
    /// overflow bucket), or `0` when no forward pass has run yet.
    pub fn max_batch_observed(&self) -> u64 {
        self.batch_hist
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &count)| count > 0)
            .map(|(i, _)| BATCH_BUCKETS.get(i).copied().unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    /// Renders the snapshot in a minimal `name value` line protocol
    /// (one metric per line, histogram buckets suffixed with `_le_<bound>`).
    pub fn to_line_protocol(&self) -> String {
        let mut out = String::new();
        let mut push = |name: &str, v: u64| {
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        push("serve_requests_total", self.requests);
        push("serve_cache_hits_total", self.cache_hits);
        push("serve_batched_total", self.batched);
        push("serve_forward_passes_total", self.forward_passes);
        push("serve_fallbacks_total", self.fallbacks);
        push("serve_errors_total", self.errors);
        push("serve_swaps_total", self.swaps);
        push("serve_shed_total", self.shed);
        push("serve_queue_depth", self.queue_depth);
        for (i, &count) in self.batch_hist.iter().enumerate() {
            let label = BATCH_BUCKETS
                .get(i)
                .map(|b| b.to_string())
                .unwrap_or_else(|| "inf".into());
            push(&format!("serve_batch_size_le_{label}"), count);
        }
        push("serve_latency_p50_us", self.latency_p50_us);
        push("serve_latency_p99_us", self.latency_p99_us);
        push("serve_queue_wait_p50_us", self.queue_wait_p50_us);
        push("serve_queue_wait_p99_us", self.queue_wait_p99_us);
        push("serve_forward_p50_us", self.forward_p50_us);
        push("serve_forward_p99_us", self.forward_p99_us);
        out.push_str(&format!(
            "serve_cache_hit_rate {:.4}\n",
            self.cache_hit_rate()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_snapshot() {
        let m = ServeMetrics::new();
        for _ in 0..10 {
            m.inc_requests();
        }
        m.inc_cache_hits(4);
        m.inc_batched(5);
        m.record_forward(5);
        m.inc_fallbacks();
        let s = m.snapshot();
        assert_eq!(s.requests, 10);
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.batched, 5);
        assert_eq!(s.forward_passes, 1);
        assert_eq!(s.fallbacks, 1);
        assert!((s.cache_hit_rate() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn batch_histogram_buckets_by_size() {
        let m = ServeMetrics::new();
        m.record_forward(1); // bucket 0 (≤1)
        m.record_forward(2); // bucket 1 (≤2)
        m.record_forward(3); // bucket 2 (≤4)
        m.record_forward(16); // bucket 4 (≤16)
        m.record_forward(1000); // overflow
        let s = m.snapshot();
        assert_eq!(s.batch_hist, vec![1, 1, 1, 0, 1, 0, 1]);
        assert_eq!(s.max_batch_observed(), u64::MAX);
    }

    #[test]
    fn max_batch_observed_tracks_buckets() {
        let m = ServeMetrics::new();
        assert_eq!(m.snapshot().max_batch_observed(), 0);
        m.record_forward(3);
        assert_eq!(m.snapshot().max_batch_observed(), 4);
    }

    #[test]
    fn latency_percentiles_bracket_recorded_values() {
        let m = ServeMetrics::new();
        for _ in 0..99 {
            m.record_latency(Duration::from_micros(100)); // bucket edge 128
        }
        m.record_latency(Duration::from_millis(80)); // way out in the tail
        let s = m.snapshot();
        assert_eq!(s.latency_p50_us, 128);
        assert!(s.latency_p99_us <= 256, "p99 {}", s.latency_p99_us);
        // The single outlier must not drag p50 up.
        assert!(s.latency_p50_us < s.latency_p99_us * 2);
    }

    #[test]
    fn line_protocol_lists_every_counter() {
        let m = ServeMetrics::new();
        m.inc_requests();
        m.record_forward(4);
        m.record_latency(Duration::from_micros(50));
        let text = m.snapshot().to_line_protocol();
        for key in [
            "serve_requests_total 1",
            "serve_forward_passes_total 1",
            "serve_batch_size_le_4 1",
            "serve_batch_size_le_inf 0",
            "serve_latency_p50_us",
            "serve_cache_hit_rate",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn queue_wait_and_forward_histograms_reach_snapshot_and_line_protocol() {
        let m = ServeMetrics::new();
        for _ in 0..99 {
            m.record_queue_wait(Duration::from_micros(10)); // bucket edge 16
            m.record_forward_time(Duration::from_micros(1500)); // bucket edge 2048
        }
        m.record_queue_wait(Duration::from_millis(50));
        m.record_forward_time(Duration::from_millis(50));
        let s = m.snapshot();
        assert_eq!((s.queue_wait_p50_us, s.queue_wait_p99_us), (16, 16));
        assert_eq!((s.forward_p50_us, s.forward_p99_us), (2048, 2048));
        // The two histograms are their own: neither feeds end-to-end latency.
        assert_eq!(s.latency_p50_us, 0);
        let text = s.to_line_protocol();
        for key in [
            "serve_queue_wait_p50_us 16",
            "serve_queue_wait_p99_us 16",
            "serve_forward_p50_us 2048",
            "serve_forward_p99_us 2048",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(ServeMetrics::new().snapshot().latency_p50_us, 0);
    }

    #[test]
    fn queue_gauge_tracks_enter_and_leave_and_saturates() {
        let m = ServeMetrics::new();
        assert_eq!(m.queue_enter(), 1);
        assert_eq!(m.queue_enter(), 2);
        assert_eq!(m.queue_depth(), 2);
        m.queue_leave();
        assert_eq!(m.queue_depth(), 1);
        m.queue_leave();
        m.queue_leave(); // double-leave must not wrap
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn shed_and_queue_depth_reach_snapshot_and_line_protocol() {
        let m = ServeMetrics::new();
        m.inc_shed();
        m.inc_shed();
        m.queue_enter();
        let s = m.snapshot();
        assert_eq!(s.shed, 2);
        assert_eq!(s.queue_depth, 1);
        let text = s.to_line_protocol();
        assert!(text.contains("serve_shed_total 2"), "{text}");
        assert!(text.contains("serve_queue_depth 1"), "{text}");
    }
}
