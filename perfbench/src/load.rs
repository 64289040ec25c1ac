//! Open-loop load generation and the capacity search.
//!
//! Arrivals follow a seeded Poisson schedule fixed before the first request
//! is sent. A bounded set of generator threads works through it: each takes
//! the next due request, sleeps until its due time if early, and sends it.
//! When every thread is busy a request goes out late; its latency is still
//! timed from its *due* time, so a stall is charged to every request it
//! delays (no coordinated omission), and the lateness itself is recorded.

use crate::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seeded Poisson arrival offsets at `rate` per second over `span`.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate;
        if at >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A 200 model answer that passed the output check.
    Ok,
    /// A 200 answer from the HA fallback (`"degraded":true`).
    Degraded,
    /// Transport error or a non-200 status.
    Failed,
    /// A 200 model answer that differs from the expected prediction.
    Wrong,
}

/// One request as the generator saw it. Times are offsets from the run's
/// start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    pub due: Duration,
    pub start: Duration,
    pub end: Duration,
    pub status: Status,
    /// The server's own `latency_us`, when the answer carried one.
    pub server_us: Option<u64>,
}

impl Sample {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.end.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    /// Client-side time from send to answer, in ms.
    pub fn service_ms(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in ms.
    pub fn lateness_ms(&self) -> f64 {
        (self.start.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

/// Runs `schedule` open-loop on `threads` generator threads. `send(i)` makes
/// request `i` and classifies it. Requests not yet started when `stop` is
/// set are never sent, except the first `min_sent`, which always are.
/// Returns every sent request, in schedule order.
pub fn run_open_loop<F>(
    schedule: &[Duration],
    threads: usize,
    stop: &AtomicBool,
    min_sent: usize,
    send: F,
) -> Vec<Sample>
where
    F: Fn(usize) -> (Status, Option<u64>) + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&due) = schedule.get(index) else {
                        break;
                    };
                    let now = t0.elapsed();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    if index >= min_sent && stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let start = t0.elapsed();
                    let (status, server_us) = send(index);
                    let end = t0.elapsed();
                    mine.push(Sample {
                        index,
                        due,
                        start,
                        end,
                        status,
                        server_us,
                    });
                }
                samples
                    .lock()
                    .expect("a generator thread panicked while recording")
                    .extend(mine);
            });
        }
    });
    let mut all = samples
        .into_inner()
        .expect("a generator thread panicked while recording");
    all.sort_by_key(|s| s.index);
    all
}

/// Lays phases measured one after another end to end on one time axis,
/// so rates and lateness computed over the whole read sensibly.
pub fn end_to_end(phases: impl IntoIterator<Item = Vec<Sample>>) -> Vec<Sample> {
    let mut all: Vec<Sample> = Vec::new();
    for phase in phases {
        let shift = all.iter().map(|s| s.end).max().unwrap_or_default();
        all.extend(phase.into_iter().map(|s| Sample {
            due: s.due + shift,
            start: s.start + shift,
            end: s.end + shift,
            ..s
        }));
    }
    all
}

/// Requests per window of a phase's reported p99: ten beyond p99.
pub const P99_WINDOW: usize = 1_000;

/// Failure accounting and latency for one open-loop phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub offered_rps: f64,
    /// Ok answers per second between the first due time and the last answer.
    pub achieved_rps: f64,
    pub attempted: usize,
    pub ok: usize,
    pub degraded: usize,
    pub failed: usize,
    pub wrong: usize,
    /// Latency from due time over every attempted request, ms. A failed or
    /// degraded request keeps its measured time here but fails the SLO test
    /// through the counts.
    pub latency: stats::Summary,
    /// Median p99 over consecutive windows of [`P99_WINDOW`] requests.
    pub p99_ms: f64,
    pub window_p99_ms: Vec<f64>,
    pub lateness_max_ms: f64,
    pub lateness_p99_ms: f64,
    /// Median lateness over the final tenth of the schedule, ms.
    pub lateness_final_ms: f64,
}

impl PhaseReport {
    pub fn of(offered_rps: f64, samples: &[Sample]) -> PhaseReport {
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let late: Vec<f64> = samples.iter().map(Sample::lateness_ms).collect();
        let tail_from = samples.len() - samples.len() / 10;
        let count = |st: Status| samples.iter().filter(|s| s.status == st).count();
        let ok = count(Status::Ok);
        let windows = stats::window_tails(&lat, P99_WINDOW, 99.0);
        let span = match (samples.first(), samples.iter().map(|s| s.end).max()) {
            (Some(first), Some(last)) => last.saturating_sub(first.due).as_secs_f64(),
            _ => 0.0,
        };
        PhaseReport {
            offered_rps,
            achieved_rps: if span > 0.0 { ok as f64 / span } else { 0.0 },
            attempted: samples.len(),
            ok,
            degraded: count(Status::Degraded),
            failed: count(Status::Failed),
            wrong: count(Status::Wrong),
            latency: stats::Summary::of(&lat),
            p99_ms: stats::median(&windows),
            window_p99_ms: windows,
            lateness_max_ms: late.iter().copied().fold(0.0, f64::max),
            lateness_p99_ms: stats::tail_at(&late, 99.0),
            lateness_final_ms: stats::median(&late[tail_from.min(late.len())..]),
        }
    }

    /// Whether the generator ended the phase behind its schedule by more
    /// than `slo_ms` (a backlog it never caught up with).
    pub fn fell_behind(&self, slo_ms: f64) -> bool {
        self.lateness_final_ms.is_nan() || self.lateness_final_ms > slo_ms
    }
}

/// The p99 a capacity probe is judged by: a degraded, failed or wrong
/// answer misses the SLO (counted as an infinite latency), and a probe
/// whose generator ended behind schedule is over capacity outright.
pub fn probe_p99(samples: &[Sample], slo_ms: f64) -> f64 {
    let lat: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.status == Status::Ok {
                s.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let report = PhaseReport::of(0.0, samples);
    if report.fell_behind(slo_ms) {
        return f64::INFINITY;
    }
    stats::tail_at(&lat, 99.0)
}

/// Latency a probe's p99 is capped at: the server's default deadline, past
/// which answers degrade to the fallback. A probe with more than 1 % of
/// misses (infinite p99) sits at the cap, far above any SLO.
pub const P99_CAP_MS: f64 = 250.0;

/// Capacity from probes at fixed ascending `rates` with measured `p99s`:
/// the offered rate at which the least-squares line of log p99 against
/// rate crosses `slo_ms`, kept within half the lowest and twice the
/// highest probed rate. Every probe informs the line, so one probe
/// disturbed by a host stall moves the answer a little instead of deciding
/// it. When p99 does not rise with load there is no crossing to find: the
/// answer is the lowest rate if the probes miss the SLO, else the highest.
pub fn capacity(rates: &[f64], p99s: &[f64], slo_ms: f64) -> f64 {
    let n = rates.len() as f64;
    let y: Vec<f64> = p99s.iter().map(|p| p.min(P99_CAP_MS).ln()).collect();
    let (mx, my) = (rates.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let sxy: f64 = rates.iter().zip(&y).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = rates.iter().map(|x| (x - mx).powi(2)).sum();
    let slope = sxy / sxx;
    let (lowest, highest) = (rates[0], rates[rates.len() - 1]);
    if slope > 0.0 && slope.is_finite() {
        (mx + (slo_ms.ln() - my) / slope).clamp(lowest / 2.0, highest * 2.0)
    } else if my > slo_ms.ln() {
        lowest
    } else {
        highest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedule_is_reproducible_and_poisson() {
        let a = poisson_schedule(7, 500.0, Duration::from_secs(4));
        let b = poisson_schedule(7, 500.0, Duration::from_secs(4));
        let c = poisson_schedule(8, 500.0, Duration::from_secs(4));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 2000 expected arrivals; Poisson sd ≈ 45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }

    fn sample(due_ms: u64, start_ms: u64, end_ms: u64) -> Sample {
        Sample {
            index: 0,
            due: Duration::from_millis(due_ms),
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            status: Status::Ok,
            server_us: None,
        }
    }

    #[test]
    fn phases_are_laid_end_to_end() {
        let a = vec![sample(0, 0, 5), sample(1, 2, 9)];
        let b = vec![sample(0, 1, 3)];
        let all = end_to_end([a, b]);
        assert_eq!(all[2].due, Duration::from_millis(9));
        assert_eq!(all[2].end, Duration::from_millis(12));
        assert_eq!(all[2].lateness_ms(), 1.0);
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let s = sample(10, 30, 35);
        assert_eq!(s.lateness_ms(), 20.0);
        assert_eq!(s.service_ms(), 5.0);
        assert_eq!(s.latency_ms(), 25.0);
    }

    #[test]
    fn a_slow_server_makes_the_generator_late_and_counts_it() {
        // 40 requests due 1 ms apart; each takes 4 ms on one thread, so the
        // k-th request cannot start before 4k ms.
        let schedule: Vec<Duration> = (0..40).map(Duration::from_millis).collect();
        let samples = run_open_loop(&schedule, 1, &AtomicBool::new(false), 0, |_| {
            std::thread::sleep(Duration::from_millis(4));
            (Status::Ok, None)
        });
        assert_eq!(samples.len(), 40);
        for s in &samples {
            let k = s.index as f64;
            assert!(s.lateness_ms() >= 3.0 * k - 1.0, "request {k} was not late");
            assert!(s.latency_ms() >= s.lateness_ms() + 4.0 - 0.5);
        }
        let report = PhaseReport::of(1000.0, &samples);
        assert!(report.lateness_max_ms >= 100.0);
        assert!(report.fell_behind(50.0));
        assert_eq!(probe_p99(&samples, 50.0), f64::INFINITY);
    }

    #[test]
    fn a_fast_server_keeps_the_generator_on_time() {
        let schedule: Vec<Duration> = (0..1000).map(|i| Duration::from_micros(500 * i)).collect();
        let samples = run_open_loop(&schedule, 2, &AtomicBool::new(false), 0, |_| {
            (Status::Ok, None)
        });
        let report = PhaseReport::of(2000.0, &samples);
        assert_eq!(report.attempted, 1000);
        assert_eq!(report.ok, 1000);
        assert!(!report.fell_behind(20.0), "{report:?}");
        assert!(probe_p99(&samples, 20.0) < 20.0, "{report:?}");
    }

    /// A phase stopped early still sends its minimum, so a p99 window is
    /// always full: a faster program that ends the phase sooner still gets
    /// a finite tail.
    #[test]
    fn a_stopped_phase_still_sends_its_minimum() {
        let schedule: Vec<Duration> = (0..5000).map(|i| Duration::from_micros(10 * i)).collect();
        let stopped = AtomicBool::new(true);
        let samples = run_open_loop(&schedule, 2, &stopped, P99_WINDOW, |_| {
            (Status::Ok, Some(1))
        });
        assert_eq!(samples.len(), P99_WINDOW);
        assert!(samples.iter().enumerate().all(|(i, s)| s.index == i));
        let report = PhaseReport::of(100_000.0, &samples);
        assert!(report.p99_ms.is_finite(), "{report:?}");
        assert!(run_open_loop(&schedule, 2, &stopped, 0, |_| (Status::Ok, None)).is_empty());
    }

    /// p99 of a fake system whose latency explodes as the rate nears `max`.
    fn curve(max: f64) -> impl Fn(f64) -> f64 {
        move |rate| {
            if rate >= max {
                f64::INFINITY
            } else {
                5.0 + 2000.0 / (max - rate)
            }
        }
    }

    #[test]
    fn capacity_is_where_the_log_linear_fit_crosses_the_slo() {
        let rates = [100.0, 200.0, 300.0, 400.0];
        // p99 doubles every 100 req/s: 50 ms is crossed at 332.2 req/s.
        let c = capacity(&rates, &[10.0, 20.0, 40.0, 80.0], 50.0);
        let expected = 300.0 + 100.0 * (50f64 / 40.0).ln() / 2f64.ln();
        assert!((c - expected).abs() < 1e-9, "{c} vs {expected}");
        // Flat curves: no crossing to interpolate.
        assert_eq!(capacity(&rates, &[30.0, 30.0, 30.0, 30.0], 50.0), 400.0);
        assert_eq!(capacity(&rates, &[300.0; 4], 50.0), 100.0);
        // Far outside the probed range, the answer is kept near it.
        assert_eq!(capacity(&rates, &[1.0, 1.1, 1.2, 1.3], 50.0), 800.0);
        // Misses are capped, not infinite, so the line still exists.
        let capped = capacity(&rates, &[10.0, 20.0, f64::INFINITY, f64::INFINITY], 50.0);
        assert!(capped > 200.0 && capped < 300.0, "{capped}");
    }

    #[test]
    fn one_noisy_probe_moves_capacity_a_little() {
        let rates = [100.0, 200.0, 300.0, 400.0];
        let clean = capacity(&rates, &[10.0, 20.0, 40.0, 80.0], 50.0);
        // The 200 probe hit a stall and read 3x its true p99.
        let noisy = capacity(&rates, &[10.0, 60.0, 40.0, 80.0], 50.0);
        assert!(noisy < clean && noisy > clean - 60.0, "{noisy} vs {clean}");
    }

    #[test]
    fn capacity_is_monotone_in_the_system_speed() {
        let rates: Vec<f64> = (0..5).map(|i| 250.0 * 2f64.powf(i as f64 / 4.0)).collect();
        let mut seen = Vec::new();
        for max in [260.0, 300.0, 350.0, 400.0, 450.0, 520.0, 700.0] {
            let p99s: Vec<f64> = rates.iter().map(|&r| curve(max)(r)).collect();
            seen.push(capacity(&rates, &p99s, 50.0));
        }
        assert!(
            seen.windows(2).all(|w| w[0] <= w[1]),
            "capacity fell as the system got faster: {seen:?}"
        );
        assert!(seen[6] > seen[2] && seen[2] > seen[0], "{seen:?}");
    }

    #[test]
    fn failed_answers_and_backlog_make_a_probe_miss() {
        let mut samples: Vec<Sample> = (0..1000).map(|i| sample(i, i, i + 1)).collect();
        assert_eq!(probe_p99(&samples, 50.0), 1.0);
        for status in [Status::Degraded, Status::Failed, Status::Wrong] {
            for s in &mut samples[..11] {
                s.status = status;
            }
            assert_eq!(probe_p99(&samples, 50.0), f64::INFINITY, "{status:?}");
        }
        let late: Vec<Sample> = (0..1000).map(|i| sample(i, 2 * i, 2 * i + 1)).collect();
        assert_eq!(probe_p99(&late, 50.0), f64::INFINITY);
    }
}
