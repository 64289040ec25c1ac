//! Spans recorded from the benchmark's own files around calls into each
//! layer's public functions, aggregated per name in memory.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    total: Duration,
    calls: u64,
}

#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, Agg>,
}

impl Spans {
    /// Times `f` under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(name, t.elapsed());
        r
    }

    pub fn add(&mut self, name: &'static str, d: Duration) {
        let a = self.by_name.entry(name).or_default();
        a.total += d;
        a.calls += 1;
    }

    /// Records `wall` minus the totals of `parts` under `name`: the part of
    /// a traced interval no span covers.
    pub fn residual(&mut self, name: &'static str, wall: Duration, parts: &[&str]) {
        let covered: Duration = parts.iter().map(|p| self.total(p)).sum();
        self.add(name, wall.saturating_sub(covered));
    }

    pub fn total(&self, name: &str) -> Duration {
        self.by_name.get(name).map_or(Duration::ZERO, |a| a.total)
    }

    /// Mean milliseconds per call, or `None` when the span never ran.
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        self.by_name
            .get(name)
            .filter(|a| a.calls > 0)
            .map(|a| a.total.as_secs_f64() * 1e3 / a.calls as f64)
    }

    /// Every span's total and call count, for the detail line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.by_name
                .iter()
                .map(|(name, a)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("total_ms", Json::from(a.total.as_secs_f64() * 1e3)),
                            ("calls", Json::from(a.calls)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_the_uncovered_part() {
        let mut s = Spans::default();
        s.add("a", Duration::from_millis(30));
        s.add("a", Duration::from_millis(10));
        s.add("b", Duration::from_millis(5));
        s.residual("rest", Duration::from_millis(60), &["a", "b"]);
        assert_eq!(s.total("rest"), Duration::from_millis(15));
        assert_eq!(s.mean_ms("a"), Some(20.0));
        assert_eq!(s.mean_ms("missing"), None);
    }
}
