//! The online loop under hot reads: `OnlineLoop::run_cycle` fine-tunes,
//! gates, shadows and promotes against the live server's registry while an
//! open-loop generator asks for single stations on the few most recent
//! slots, as dashboards asking about "now" do. Reads are cache hits except
//! right after a promotion bumps the version and every worker rebuilds its
//! model and plan.
//!
//! The traced run replays `run_cycle` step by step from the benchmark's
//! side, through the same public functions, with a span around each stage.

use crate::check::{self, digest, Ask};
use crate::load::{self, PhaseReport, Sample, Status};
use crate::stack::{Res, Served, MODEL, ONLINE_DAYS};
use crate::trace::Spans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use stgnn_core::checkpoint::{fingerprint, GraphTopology};
use stgnn_core::{StgnnConfig, TrainCheckpoint, Trainer};
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::predictor::Prediction;
use stgnn_data::trip::TripRecord;
use stgnn_online::gate::{self, GateConfig};
use stgnn_online::{
    CycleOutcome, LoopState, OnlineConfig, OnlineLoop, Phase, TripWindow, WatchdogConfig,
};
use stgnn_serve::client::get_with;
use stgnn_serve::registry::{Checkpoint, ModelRegistry};
use stgnn_serve::{MetricsSnapshot, ModelSpec};

pub const WINDOW_DAYS: usize = 8;

/// Slots the dashboards read: the last few servable slots.
pub const HOT_SLOTS: usize = 4;

/// Generator threads for the hot reads (the reference machine's cores).
pub const THREADS: usize = 2;

fn fine_tune_config(base: &StgnnConfig) -> StgnnConfig {
    StgnnConfig {
        epochs: 2,
        patience: 2,
        max_batches_per_epoch: Some(4),
        ..base.clone()
    }
}

pub fn loop_config(served: &Served, dir: &Path, tag: &str) -> OnlineConfig {
    OnlineConfig {
        model_name: MODEL.into(),
        window_days: WINDOW_DAYS,
        dataset: DatasetConfig::small(48, 3),
        train: fine_tune_config(&served.config),
        gate: GateConfig::default(),
        watchdog: WatchdogConfig::default(),
        state_path: dir.join(format!("{tag}.state")),
        checkpoint_path: dir.join(format!("{tag}.ckpt")),
        checkpoint_every: 8,
    }
}

/// A cycle's outcome as compared across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Promoted(u64),
    Rejected(&'static str),
}

impl Verdict {
    pub fn label(&self) -> String {
        match self {
            Verdict::Promoted(v) => format!("promoted@v{v}"),
            Verdict::Rejected(stage) => format!("rejected@{stage}"),
        }
    }
}

fn verdict(outcome: CycleOutcome) -> Res<Verdict> {
    match outcome {
        CycleOutcome::Promoted { version, .. } => Ok(Verdict::Promoted(version)),
        CycleOutcome::Rejected { stage, .. } => Ok(Verdict::Rejected(stage)),
        other => Err(format!("unexpected cycle outcome after the window filled: {other:?}").into()),
    }
}

/// Ingests until the window is full, without measuring.
fn fill(looper: &mut OnlineLoop) -> Res<()> {
    for _ in 1..WINDOW_DAYS {
        match looper.run_cycle()? {
            CycleOutcome::WindowFilling { .. } => {}
            other => return Err(format!("expected the window to be filling, got {other:?}").into()),
        }
    }
    Ok(())
}

/// The version history of one run: what each cycle did and when.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    /// (cycle start, cycle end, verdict), offsets from the traffic start.
    pub cycles: Vec<(Duration, Duration, Verdict)>,
    /// Every checkpoint that served, by version: the one serving when the
    /// traffic started, then each promoted one.
    pub checkpoints: Vec<Arc<Checkpoint>>,
}

impl Timeline {
    /// Versions that may have answered a request in flight over
    /// `[start, end]`: the one serving when it was sent, and every version
    /// promoted by a cycle that overlaps the interval.
    pub fn versions_for(&self, start: Duration, end: Duration) -> Vec<u64> {
        let mut serving = self.checkpoints.first().map_or(1, |c| c.version);
        for (_, cycle_end, v) in &self.cycles {
            if let Verdict::Promoted(version) = v {
                if *cycle_end <= start {
                    serving = *version;
                }
            }
        }
        let mut out = vec![serving];
        for (cycle_start, cycle_end, v) in &self.cycles {
            if let Verdict::Promoted(version) = v {
                if *cycle_start <= end && *cycle_end > start {
                    out.push(*version);
                }
            }
        }
        out
    }
}

/// The hot-read requests: a seeded station on one of the hot slots.
fn hot_requests(served: &Served, seed: u64, count: usize) -> Vec<(usize, usize)> {
    let (_, last) = served.servable();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x407);
    (0..count)
        .map(|_| {
            let slot = last + 1 - HOT_SLOTS + rng.gen_range(0..HOT_SLOTS);
            (slot, rng.gen_range(0..served.data.n_stations()))
        })
        .collect()
}

/// Runs `cycles` cycles (driven by `step`) while hot reads arrive at `rate`,
/// then checks every answer against the version that may have served it.
/// The reads go on past the last cycle until at least `min_reads` were sent.
fn under_hot_reads(
    served: &Served,
    seed: u64,
    rate: f64,
    cycles: usize,
    min_reads: usize,
    mut step: impl FnMut() -> Res<Verdict>,
) -> Res<(Vec<f64>, Timeline, PhaseReport, Vec<Sample>)> {
    let registry = Arc::clone(served.server.registry());
    let entry = registry.get(MODEL).ok_or("model not registered")?;
    let mut timeline = Timeline {
        cycles: Vec::new(),
        checkpoints: vec![entry.checkpoint()],
    };
    // A schedule longer than any run; the generator stops with the loop,
    // once it has sent `min_reads`.
    let schedule = load::poisson_schedule(seed ^ 0x40, rate, Duration::from_secs(600));
    let requests = hot_requests(served, seed, schedule.len());
    let bodies: Vec<OnceLock<(u16, String)>> =
        (0..schedule.len()).map(|_| OnceLock::new()).collect();
    let stop = AtomicBool::new(false);
    let addr = served.server.addr();
    let config = crate::scan::client();
    let mut walls = Vec::new();
    let t0 = Instant::now();
    let (samples, looped) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            load::run_open_loop(&schedule, THREADS, &stop, min_reads, |i| {
                let (slot, station) = requests[i];
                let path = format!("/predict?model={MODEL}&slot={slot}&station={station}");
                match get_with(addr, &path, &config) {
                    Ok(r) => {
                        let us = check::server_us(&r.body);
                        let _ = bodies[i].set((r.status, r.body));
                        (Status::Ok, us)
                    }
                    Err(_) => (Status::Failed, None),
                }
            })
        });
        let looped = (|| -> Res<()> {
            for _ in 0..cycles {
                let start = t0.elapsed();
                let t = Instant::now();
                let v = step()?;
                walls.push(t.elapsed().as_secs_f64());
                if let Verdict::Promoted(_) = v {
                    timeline.checkpoints.push(entry.checkpoint());
                }
                timeline.cycles.push((start, t0.elapsed(), v));
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        (generator.join(), looped)
    });
    looped?;
    let mut samples = samples.map_err(|_| "the hot-read generator panicked")?;

    // Expected answers per (version, hot slot), from each checkpoint.
    let spec = ModelSpec::new(served.config.clone(), served.data.n_stations());
    let (_, last) = served.servable();
    let mut expected: Vec<(u64, usize, Prediction)> = Vec::new();
    for ck in &timeline.checkpoints {
        let model = spec.materialize_with(ck)?;
        for slot in last + 1 - HOT_SLOTS..=last {
            let p = model.predict_horizon(&served.data, slot).swap_remove(0);
            expected.push((ck.version, slot, p));
        }
    }
    for s in &mut samples {
        if let Some((status, body)) = bodies[s.index].get() {
            let (slot, station) = requests[s.index];
            let versions = timeline.versions_for(s.start, s.end);
            let allowed: Vec<&Prediction> = expected
                .iter()
                .filter(|(v, t, _)| *t == slot && versions.contains(v))
                .map(|(_, _, p)| p)
                .collect();
            s.status = check::classify(*status, body, Ask::Station(station), &allowed);
        }
    }
    let report = PhaseReport::of(rate, &samples);
    Ok((walls, timeline, report, samples))
}

/// The untraced measurement: `OnlineLoop::run_cycle` on the live
/// registry, a few cycles at a time, under hot reads.
pub struct OnlineRun<'a> {
    served: &'a Served,
    looper: OnlineLoop,
    seed: u64,
    rate: f64,
    pub cycle_walls_s: Vec<f64>,
    pub verdicts: Vec<Verdict>,
    /// Digests of the promoted checkpoints, in order.
    pub promoted: Vec<u64>,
    /// Every hot read so far, phases laid end to end.
    pub hot_samples: Vec<Sample>,
}

impl<'a> OnlineRun<'a> {
    /// Builds the loop on `served`'s registry and fills its window.
    pub fn new(served: &'a Served, seed: u64, rate: f64, dir: &Path) -> Res<OnlineRun<'a>> {
        let mut looper = OnlineLoop::new(
            loop_config(served, dir, "served"),
            Arc::clone(served.server.registry()),
            &served.city,
        )?;
        fill(&mut looper)?;
        Ok(OnlineRun {
            served,
            looper,
            seed,
            rate,
            cycle_walls_s: Vec::new(),
            verdicts: Vec::new(),
            promoted: Vec::new(),
            hot_samples: Vec::new(),
        })
    }

    /// Runs `cycles` more cycles under hot reads.
    pub fn cycles(&mut self, cycles: usize) -> Res<()> {
        let looper = &mut self.looper;
        let phase_seed = self.seed ^ ((self.verdicts.len() as u64) << 32);
        let (walls, timeline, _, samples) =
            under_hot_reads(self.served, phase_seed, self.rate, cycles, 0, || {
                verdict(looper.run_cycle()?)
            })?;
        self.cycle_walls_s.extend(walls);
        self.verdicts
            .extend(timeline.cycles.iter().map(|(_, _, v)| v.clone()));
        self.promoted
            .extend(timeline.checkpoints[1..].iter().map(|c| digest(&c.bytes)));
        let earlier = std::mem::take(&mut self.hot_samples);
        self.hot_samples = load::end_to_end([earlier, samples]);
        Ok(())
    }

    /// Hot-read accounting over every phase so far.
    pub fn hot(&self) -> PhaseReport {
        PhaseReport::of(self.rate, &self.hot_samples)
    }
}

/// The reference: the same cycles on a fresh registry with no traffic.
/// Fine-tuning is bit-identical for any thread count and any contention,
/// so the verdicts and promoted weights must match the served run's.
pub fn reference(served: &Served, cycles: usize, dir: &Path) -> Res<(Vec<Verdict>, Vec<u64>)> {
    let registry = Arc::new(ModelRegistry::new().with_tape_validation(Arc::clone(&served.data)));
    // Version 1: the untrained model `Served::build` registers.
    let spec = ModelSpec::new(served.config.clone(), served.data.n_stations());
    let initial = spec.materialize()?.weights_to_bytes();
    registry.register(MODEL, spec, initial)?;
    // A fresh loop: an earlier reference's state file would resume it.
    let config = loop_config(served, dir, "reference");
    let _ = std::fs::remove_file(&config.state_path);
    let _ = std::fs::remove_file(&config.checkpoint_path);
    let mut looper = OnlineLoop::new(config, Arc::clone(&registry), &served.city)?;
    fill(&mut looper)?;
    let mut verdicts = Vec::new();
    let mut promoted = Vec::new();
    for _ in 0..cycles {
        let v = verdict(looper.run_cycle()?)?;
        if let Verdict::Promoted(_) = v {
            let ck = registry
                .get(MODEL)
                .ok_or("model not registered")?
                .checkpoint();
            promoted.push(digest(&ck.bytes));
        }
        verdicts.push(v);
    }
    Ok((verdicts, promoted))
}

/// `run_cycle`, replayed from the benchmark's side with a span per stage.
struct Replica<'a> {
    served: &'a Served,
    registry: Arc<ModelRegistry>,
    config: OnlineConfig,
    trips_by_day: Vec<Vec<TripRecord>>,
    window: TripWindow,
    state: LoopState,
}

impl Replica<'_> {
    fn persist(&mut self, phase: Phase, spans: &mut Spans) -> Res<()> {
        self.state.phase = phase;
        spans.time("online.persist", || {
            self.state.save(&self.config.state_path)
        })?;
        Ok(())
    }

    fn cycle(&mut self, spans: &mut Spans) -> Res<Option<Verdict>> {
        self.state.candidate_version = None;
        self.persist(Phase::Ingesting, spans)?;
        let trips = self
            .trips_by_day
            .get(self.state.day_cursor)
            .cloned()
            .unwrap_or_default();
        spans.time("online.ingest", || self.window.push_day(&trips));
        self.state.day_cursor += 1;
        self.state.graph_epoch = self.window.graph_epoch();
        spans.time("online.verify", || self.window.verify())?;
        spans.time("online.persist", || {
            self.state.save(&self.config.state_path)
        })?;
        if !self.window.is_full() {
            return Ok(None);
        }
        let dataset = spans.time("online.dataset", || {
            BikeDataset::new(
                self.window.flows().clone(),
                self.served.city.registry.clone(),
                self.config.dataset.clone(),
            )
        })?;
        self.persist(Phase::Training, spans)?;
        let entry = self.registry.get(MODEL).ok_or("model not registered")?;
        let incumbent_ck = entry.checkpoint();
        let (incumbent, candidate) = spans.time("online.finetune", || -> Res<_> {
            let incumbent = entry.spec().materialize_with(&incumbent_ck)?;
            let mut model = entry.spec().materialize_with(&incumbent_ck)?;
            let trainer = Trainer::new(self.config.train.clone())
                .with_checkpointing(&self.config.checkpoint_path, self.config.checkpoint_every);
            let resumable = TrainCheckpoint::load(&self.config.checkpoint_path).is_ok_and(|ck| {
                ck.fingerprint
                    == fingerprint(
                        &self.config.train,
                        model.n_stations(),
                        model.params().len(),
                        &GraphTopology::of(&dataset),
                    )
            });
            if resumable {
                trainer.resume_from(&self.config.checkpoint_path, &mut model, &dataset)?;
            } else {
                trainer.train(&mut model, &dataset)?;
            }
            Ok((incumbent, model))
        })?;
        let report = spans.time("online.gate", || {
            gate::static_gate(&candidate, &incumbent, &dataset, &self.config.gate)
        })?;
        if !report.passed() {
            self.state.cycle += 1;
            self.persist(Phase::Ingesting, spans)?;
            return Ok(Some(Verdict::Rejected(report.stage)));
        }
        self.persist(Phase::Shadowing, spans)?;
        let shadow = spans.time("online.shadow", || -> Res<_> {
            self.registry.pin(MODEL)?;
            let shadow = gate::shadow_compare(&candidate, &incumbent, &dataset, &self.config.gate);
            self.registry.unpin(MODEL)?;
            Ok(shadow)
        })?;
        if !shadow.passed() {
            self.state.cycle += 1;
            self.persist(Phase::Ingesting, spans)?;
            return Ok(Some(Verdict::Rejected(shadow.stage)));
        }
        let t = Instant::now();
        let bytes = candidate.weights_to_bytes();
        let version = spans.time("serve.registry.swap", || {
            self.registry
                .swap_at_epoch(MODEL, bytes, self.state.graph_epoch)
        })?;
        spans.add("online.promote", t.elapsed());
        self.state.candidate_version = Some(version);
        self.state.cycle += 1;
        self.persist(Phase::Promoted, spans)?;
        // The first read after the swap: every worker rebuilds its model
        // and plan for the new version before answering.
        let (_, last) = self.served.servable();
        let path = format!("/predict?model={MODEL}&slot={last}&station=0");
        let r = spans.time("serve.first_read_after_swap", || {
            get_with(self.served.server.addr(), &path, &crate::scan::client())
        })?;
        if r.status != 200 {
            return Err(format!("first read after swap answered {}", r.status).into());
        }
        Ok(Some(Verdict::Promoted(version)))
    }
}

/// The traced run: the real loop (untraced, the reference) on one server,
/// then the replica with spans on a second, both under hot reads.
pub struct TracedOnline {
    pub untraced_walls_s: Vec<f64>,
    pub untraced_verdicts: Vec<Verdict>,
    pub replica_walls_s: Vec<f64>,
    pub replica_verdicts: Vec<Verdict>,
    pub replica_hot: PhaseReport,
    pub replica_hot_samples: Vec<Sample>,
    /// Server counters around the replica's hot-read phase.
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

pub fn traced(
    seed: u64,
    rate: f64,
    cycles: usize,
    dir: &Path,
    spans: &mut Spans,
) -> Res<TracedOnline> {
    let served = Served::build(seed, ONLINE_DAYS)?;
    let mut online_run = OnlineRun::new(&served, seed, rate, dir)?;
    online_run.cycles(cycles)?;
    let (untraced_walls_s, untraced_verdicts) = (online_run.cycle_walls_s, online_run.verdicts);
    drop(served);

    let served = Served::build(seed, ONLINE_DAYS)?;
    let config = loop_config(&served, dir, "replica");
    let _ = std::fs::remove_file(&config.state_path);
    let _ = std::fs::remove_file(&config.checkpoint_path);
    let city = &served.city;
    let mut trips_by_day = vec![Vec::new(); city.config.days];
    for trip in &city.trips {
        if let Some(bucket) = usize::try_from(trip.start_min.div_euclid(24 * 60))
            .ok()
            .and_then(|d| trips_by_day.get_mut(d))
        {
            bucket.push(*trip);
        }
    }
    let mut replica = Replica {
        served: &served,
        registry: Arc::clone(served.server.registry()),
        window: TripWindow::new(city.registry.len(), WINDOW_DAYS, city.config.slots_per_day)?,
        config,
        trips_by_day,
        state: LoopState::fresh(),
    };
    let mut untimed = Spans::default();
    for _ in 1..WINDOW_DAYS {
        if replica.cycle(&mut untimed)?.is_some() {
            return Err("the replica's window filled early".into());
        }
    }
    let before = served.server.metrics_snapshot();
    // At least one full p99 window of reads, however fast the cycles run.
    let (replica_walls_s, timeline, replica_hot, replica_hot_samples) =
        under_hot_reads(&served, seed, rate, cycles, load::P99_WINDOW, || {
            let t = Instant::now();
            let v = replica.cycle(spans)?.ok_or("the window emptied")?;
            spans.add("online.cycle", t.elapsed());
            Ok(v)
        })?;
    let after = served.server.metrics_snapshot();
    let cycle_total = spans.total("online.cycle");
    spans.residual(
        "online.unattributed",
        cycle_total,
        &[
            "online.persist",
            "online.ingest",
            "online.verify",
            "online.dataset",
            "online.finetune",
            "online.gate",
            "online.shadow",
            "online.promote",
            "serve.first_read_after_swap",
        ],
    );
    Ok(TracedOnline {
        untraced_walls_s,
        untraced_verdicts,
        replica_walls_s,
        replica_verdicts: timeline.cycles.iter().map(|(_, _, v)| v.clone()).collect(),
        replica_hot,
        replica_hot_samples,
        before,
        after,
    })
}
