//! The cyclic scan: open-loop whole-city `/predict` requests visiting every
//! servable slot in ascending cyclic order, as a planner sweeping or
//! back-testing the day does. The scan is wider than the slot cache, so it
//! measures the forward path as well as the cache.

use crate::check::{self, Ask};
use crate::load::{self, PhaseReport, Sample, Status};
use crate::stack::{Served, MODEL};
use std::sync::atomic::AtomicBool;
use std::sync::OnceLock;
use std::time::Duration;
use stgnn_data::predictor::Prediction;
use stgnn_serve::client::{get_with, ClientConfig};

/// Generator threads, and so connections in flight: the cores of the
/// reference machine (2).
pub const THREADS: usize = 2;

/// p99 latency limit for a scan request, ms. Well under the server's 250 ms
/// deadline, so capacity is set by latency and not by the HA fallback, and
/// above the 30–45 ms stalls a shared 2-core host shows at any load, so a
/// probe fails on queueing and not on one stall.
pub const SLO_MS: f64 = 50.0;

/// Offered rate of the fixed-rate phase that reports p50 and p99: well
/// below capacity, so a slower stretch of a shared host does not push the
/// two generator lanes into queueing. With two busy-loop processes beside
/// the benchmark on 2 cores, the scan p50 rose from 4.8 to 81 ms at
/// 250 req/s, and from 5.1 to 8.0 ms at 100 req/s.
pub const FIXED_RPS: f64 = 100.0;

/// Requests of the fixed-rate phase per round of a run.
pub const FIXED_REQUESTS: usize = 400;

/// Lowest capacity probe rate: about two thirds of the capacity measured
/// when the benchmark was defined (350–400 req/s at the SLO on 2 cores).
pub const PROBE_MIN_RPS: f64 = 250.0;

/// Offered rates of the capacity probes, ascending (geometric from
/// [`PROBE_MIN_RPS`] to twice it). Fixed, so a faster program never gets
/// a heavier load to prove itself on.
pub fn probe_rates() -> Vec<f64> {
    (0..5)
        .map(|i| PROBE_MIN_RPS * 2f64.powf(i as f64 / 4.0))
        .collect()
}

/// Requests per capacity probe: ten beyond p99.
pub const PROBE_REQUESTS: usize = 1_000;

pub fn client() -> ClientConfig {
    ClientConfig {
        attempts: 1,
        read_timeout: Duration::from_secs(5),
        ..ClientConfig::default()
    }
}

/// The served scan, checked against `expected[slot - first]`.
pub struct Scan<'a> {
    pub served: &'a Served,
    pub expected: &'a [Prediction],
    pub seed: u64,
    /// Requests sent so far: the next request continues the cycle.
    pub sent: usize,
}

impl Scan<'_> {
    /// One open-loop phase of `requests` arrivals at `rate`.
    pub fn phase(&mut self, rate: f64, requests: usize) -> (PhaseReport, Vec<Sample>) {
        let (first, last) = self.served.servable();
        let width = last - first + 1;
        let span = Duration::from_secs_f64(requests as f64 / rate * 4.0);
        let mut schedule = load::poisson_schedule(self.seed ^ self.sent as u64, rate, span);
        schedule.truncate(requests);
        let base = self.sent;
        self.sent += schedule.len();
        let addr = self.served.server.addr();
        let config = client();
        let bodies: Vec<OnceLock<(u16, String)>> =
            (0..schedule.len()).map(|_| OnceLock::new()).collect();
        let never = AtomicBool::new(false);
        let mut samples = load::run_open_loop(&schedule, THREADS, &never, 0, |i| {
            let slot = first + (base + i) % width;
            match get_with(
                addr,
                &format!("/predict?model={MODEL}&slot={slot}"),
                &config,
            ) {
                Ok(r) => {
                    let us = check::server_us(&r.body);
                    let _ = bodies[i].set((r.status, r.body));
                    (Status::Ok, us)
                }
                Err(_) => (Status::Failed, None),
            }
        });
        for s in &mut samples {
            if let Some((status, body)) = bodies[s.index].get() {
                let slot = (base + s.index) % width;
                s.status = check::classify(*status, body, Ask::City, &[&self.expected[slot]]);
            }
        }
        (PhaseReport::of(rate, &samples), samples)
    }
}
