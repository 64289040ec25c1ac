//! Training: `Trainer::train` throughput, its output check, and the traced
//! per-stage replica.
//!
//! The untraced measurement calls `Trainer::train` as a user does. The
//! check replays the same run through the *eager* tape, built here from the
//! model's public API: under the plan/eager bit-identity contract the loss
//! histories must match bit for bit. The traced run replays the trainer's
//! loop through the compiled plan with a span around every stage, and must
//! reproduce the untraced run's losses bit for bit too.

use crate::stack::{Res, TrainStack};
use crate::trace::Spans;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stgnn_core::checkpoint::{fingerprint, Cursor, GraphTopology};
use stgnn_core::model::ModelInputs;
use stgnn_core::{StgnnConfig, StgnnDjd, TrainCheckpoint, Trainer, TrainingPlan};
use stgnn_data::dataset::{BikeDataset, Split};
use stgnn_tensor::autograd::{Graph, Var};
use stgnn_tensor::optim::{Adam, Optimizer};
use stgnn_tensor::plan::PlanExec;
use stgnn_tensor::pool;
use stgnn_tensor::Tensor;

/// Validation slots per epoch, set on every trainer here.
const MAX_VAL_SLOTS: usize = 24;
/// The trainer's gradient clip, mirrored by the replicas below.
const CLIP: f32 = 5.0;

/// How much training one measurement runs.
#[derive(Debug, Clone, Copy)]
pub struct TrainSize {
    pub epochs: usize,
    pub batches_per_epoch: usize,
    /// Batches between checkpoint writes.
    pub checkpoint_every: usize,
}

/// One run's configuration: fixed epochs, patience ≥ epochs so early
/// stopping cannot shorten it, and the batch cap.
pub fn run_config(base: &StgnnConfig, size: TrainSize) -> StgnnConfig {
    StgnnConfig {
        epochs: size.epochs,
        patience: size.epochs,
        max_batches_per_epoch: Some(size.batches_per_epoch),
        ..base.clone()
    }
}

fn trainer(config: &StgnnConfig) -> Trainer {
    Trainer::new(config.clone()).with_max_val_slots(MAX_VAL_SLOTS)
}

fn train_slots(data: &BikeDataset, horizon: usize) -> Vec<usize> {
    let max_slot = data.flows().num_slots().saturating_sub(horizon);
    data.slots(Split::Train)
        .into_iter()
        .filter(|&t| t <= max_slot)
        .collect()
}

fn val_slots(data: &BikeDataset, horizon: usize) -> Vec<usize> {
    let max_slot = data.flows().num_slots().saturating_sub(horizon);
    let all: Vec<usize> = data
        .slots(Split::Val)
        .into_iter()
        .filter(|&t| t <= max_slot)
        .collect();
    if all.len() <= MAX_VAL_SLOTS {
        return all;
    }
    let stride = all.len() as f64 / MAX_VAL_SLOTS as f64;
    (0..MAX_VAL_SLOTS)
        .map(|i| all[(i as f64 * stride) as usize])
        .collect()
}

/// Training slots one run steps through.
pub fn slots_per_run(stack: &TrainStack, size: TrainSize) -> usize {
    let per_epoch = train_slots(&stack.data, stack.config.horizon.max(1))
        .len()
        .min(size.batches_per_epoch * stack.config.batch_size);
    per_epoch * size.epochs
}

/// Loss histories of one run, as bit patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    pub train: Vec<u32>,
    pub val: Vec<u32>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The untraced measurement: whole `Trainer::train` calls on fresh
/// models. The first call warms the tensor pool and is not timed.
pub struct TrainRuns<'a> {
    stack: &'a TrainStack,
    config: StgnnConfig,
    checkpoint_every: usize,
    slots: f64,
    ckpt: PathBuf,
    /// Training slots per wall second of each timed call.
    pub slots_per_s: Vec<f64>,
    /// The first call's loss histories.
    pub history: Option<History>,
    /// Every call produced the same history.
    pub repeatable: bool,
    pub used_compiled_plan: bool,
    pub checkpoint_writes: usize,
    pub checkpoint_failures: usize,
    pub allocs_per_step: f64,
}

impl<'a> TrainRuns<'a> {
    pub fn new(stack: &'a TrainStack, size: TrainSize, dir: &Path) -> TrainRuns<'a> {
        TrainRuns {
            stack,
            config: run_config(&stack.config, size),
            checkpoint_every: size.checkpoint_every,
            slots: slots_per_run(stack, size) as f64,
            ckpt: dir.join("train.ckpt"),
            slots_per_s: Vec::new(),
            history: None,
            repeatable: true,
            used_compiled_plan: true,
            checkpoint_writes: 0,
            checkpoint_failures: 0,
            allocs_per_step: 0.0,
        }
    }

    /// One `Trainer::train` call; timed unless it is the first.
    pub fn run_once(&mut self) -> Res<()> {
        let _ = std::fs::remove_file(&self.ckpt);
        let mut model = StgnnDjd::new(self.config.clone(), self.stack.data.n_stations())?;
        let trainer = trainer(&self.config).with_checkpointing(&self.ckpt, self.checkpoint_every);
        let t = Instant::now();
        let report = trainer.train(&mut model, &self.stack.data)?;
        let wall = t.elapsed().as_secs_f64();
        let history = History {
            train: bits(&report.train_losses),
            val: bits(&report.val_losses),
        };
        match &self.history {
            None => self.history = Some(history),
            Some(first) => {
                self.repeatable &= history == *first;
                self.slots_per_s.push(self.slots / wall);
            }
        }
        self.used_compiled_plan &= report.used_compiled_plan;
        self.checkpoint_writes += report.checkpoint_writes;
        self.checkpoint_failures += report.checkpoint_failures;
        self.allocs_per_step = report.allocs_per_step;
        Ok(())
    }
}

/// One slot's forward and backward: the only part of a training step the
/// two replays below do differently.
enum Stepper<'a> {
    /// The eager tape: one tape per slot, kept alive until its backward,
    /// exactly as the trainer's eager fallback steps it.
    Eager(Vec<Var>),
    /// The compiled plan, one executor lane per slot of a batch.
    Plan {
        plan: &'a TrainingPlan,
        lanes: Vec<PlanExec>,
    },
}

impl Stepper<'_> {
    /// Forward of the `lane`-th slot `t` of a batch; returns its squared loss.
    fn forward(
        &mut self,
        model: &StgnnDjd,
        data: &BikeDataset,
        lane: usize,
        t: usize,
        spans: &mut Spans,
    ) -> Res<f32> {
        match self {
            Stepper::Eager(tapes) => spans.time("core.eager.fwd", || -> Res<f32> {
                let g = Graph::new();
                let out = model.forward(&g, &ModelInputs::from_dataset(data, t), true);
                let (dt, st) = data.targets_horizon(t, model.config().horizon)?;
                let sq = model.squared_loss(&g, &out, &dt, &st);
                let value = sq.with_value(|v| v.scalar());
                tapes.push(sq);
                Ok(value)
            }),
            Stepper::Plan { plan, lanes } => {
                if lanes.len() <= lane {
                    lanes.push(plan.executor());
                }
                spans.time("core.plan.fwd", || {
                    Ok(model.plan_step_forward(plan, &mut lanes[lane], data, t)?)
                })
            }
        }
    }

    /// Backward of the batch's first `slots` lanes with the trainer's
    /// gradient scale.
    fn backward(
        &mut self,
        model: &StgnnDjd,
        slots: usize,
        scale: f32,
        spans: &mut Spans,
    ) -> Res<()> {
        match self {
            Stepper::Eager(tapes) => spans.time("core.eager.bwd", || {
                for sq in tapes.drain(..) {
                    sq.mul_scalar(scale).backward();
                }
            }),
            Stepper::Plan { plan, lanes } => {
                for lane in lanes.iter_mut().take(slots) {
                    spans.time("core.plan.bwd", || {
                        model.plan_step_backward(plan, lane, scale)
                    })?;
                }
            }
        }
        Ok(())
    }
}

/// What a replay produced.
struct Replayed {
    history: History,
    steps: usize,
    pool_misses: u64,
}

/// `Trainer::train`'s epoch loop, written from public APIs: the seeded slot
/// shuffle and batch cap, the batch loss `sqrt(mean radicand)` and its
/// gradient scale, Adam, the epoch mean and the validation sweep, with a
/// checkpoint every `checkpoint.1` batches when `checkpoint` is set. Adam,
/// validation and checkpoint writes are timed into `spans`, and so is each
/// slot's forward and backward, by `step`.
fn replay(
    model: &StgnnDjd,
    data: &BikeDataset,
    config: &StgnnConfig,
    mut step: Stepper,
    checkpoint: Option<(&Path, usize)>,
    spans: &mut Spans,
) -> Res<Replayed> {
    let horizon = config.horizon;
    let train = train_slots(data, horizon);
    let val = val_slots(data, horizon);
    let mut shuffle = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut opt = Adam::new(config.learning_rate).with_clip(CLIP);
    let trainer = trainer(config);
    let run_fp = fingerprint(
        config,
        model.n_stations(),
        model.params().len(),
        &GraphTopology::of(data),
    );
    let (mut train_losses, mut val_losses) = (Vec::<f32>::new(), Vec::<f32>::new());
    let (mut since_ckpt, mut steps, mut pool_misses) = (0usize, 0usize, 0u64);
    for epoch in 0..config.epochs {
        let mut slots = train.clone();
        slots.shuffle(&mut shuffle);
        if let Some(cap) = config.max_batches_per_epoch {
            slots.truncate(cap.saturating_mul(config.batch_size));
        }
        let batches = slots.len().div_ceil(config.batch_size);
        let mut epoch_loss = 0.0f64;
        let pool_before = pool::stats();
        for (chunk, batch) in slots.chunks(config.batch_size).enumerate() {
            model.params().zero_grads();
            let mut radicand = 0.0f64;
            for (lane, &t) in batch.iter().enumerate() {
                let sq = step.forward(model, data, lane, t, spans)?;
                radicand += sq as f64 / batch.len() as f64;
            }
            let loss = radicand.max(0.0).sqrt() as f32;
            let scale = 1.0 / (2.0 * batch.len() as f32 * loss.max(1e-6));
            step.backward(model, batch.len(), scale, spans)?;
            spans.time("core.adam", || opt.step(model.params()));
            epoch_loss += loss as f64;
            steps += 1;
            since_ckpt += 1;
            let Some((path, every)) = checkpoint else {
                continue;
            };
            if since_ckpt < every {
                continue;
            }
            since_ckpt = 0;
            // The model's dropout-RNG state is private to the trainer; a
            // stand-in state of the same size keeps the file identical in
            // length and cost.
            let snapshot = TrainCheckpoint {
                fingerprint: run_fp.clone(),
                cursor: Cursor {
                    epoch,
                    next_batch: chunk + 1,
                    epoch_loss,
                },
                epoch_slots: slots.clone(),
                shuffle_rng: shuffle.state(),
                dropout_rng: shuffle.state(),
                train_losses: train_losses.clone(),
                val_losses: val_losses.clone(),
                best_val_loss: val_losses.iter().copied().fold(f32::INFINITY, f32::min),
                epochs_since_best: 0,
                adam: opt.state(),
                params: model
                    .params()
                    .params()
                    .iter()
                    .map(|p| (p.name().to_string(), p.value()))
                    .collect(),
                best_snapshot: (epoch > 0).then(|| {
                    model
                        .params()
                        .params()
                        .iter()
                        .map(|p| p.value())
                        .collect::<Vec<Tensor>>()
                }),
            };
            spans.time("core.checkpoint.save", || snapshot.save(path))?;
        }
        pool_misses += pool::stats().since(&pool_before).misses;
        train_losses.push((epoch_loss / batches.max(1) as f64) as f32);
        val_losses.push(spans.time("core.val", || trainer.mean_loss(model, data, &val)));
    }
    Ok(Replayed {
        history: History {
            train: bits(&train_losses),
            val: bits(&val_losses),
        },
        steps,
        pool_misses,
    })
}

/// The reference: the same run through the eager tape, one tape per slot.
pub fn eager_reference(stack: &TrainStack, size: TrainSize) -> Res<History> {
    let config = run_config(&stack.config, size);
    let model = StgnnDjd::new(config.clone(), stack.data.n_stations())?;
    let step = Stepper::Eager(Vec::new());
    let replayed = replay(
        &model,
        &stack.data,
        &config,
        step,
        None,
        &mut Spans::default(),
    )?;
    Ok(replayed.history)
}

/// What the traced replica found.
pub struct TracedTrain {
    pub history: History,
    /// Wall time of the replica (tape probe and plan compile included, as
    /// in `Trainer::train`).
    pub wall: Duration,
    /// Untraced `Trainer::train` wall time and history of the same run,
    /// measured just before the replica.
    pub untraced_wall: Duration,
    pub untraced_history: History,
    pub pool_misses_per_step: f64,
    pub steps: usize,
}

/// Replays `Trainer::train` through the compiled plan with spans around
/// each stage: `core.plan.fwd`, `core.plan.bwd`, `core.adam`, `core.val`,
/// `core.checkpoint.save`; the rest of the wall time is
/// `core.train.unattributed`.
pub fn traced(
    stack: &TrainStack,
    size: TrainSize,
    dir: &Path,
    spans: &mut Spans,
) -> Res<TracedTrain> {
    let config = run_config(&stack.config, size);
    let data = &stack.data;

    // A warm-up call, then the untraced call the replica is compared with.
    let mut untraced = TrainRuns::new(stack, size, dir);
    untraced.run_once()?;
    let t = Instant::now();
    untraced.run_once()?;
    let untraced_wall = t.elapsed();
    let untraced_history = untraced.history.ok_or("the untraced run kept no history")?;

    let started = Instant::now();
    let model = StgnnDjd::new(config.clone(), data.n_stations())?;
    let probe = *train_slots(data, config.horizon)
        .first()
        .ok_or("no training slots")?;
    let tape = model.validate_training_tape(data, probe)?;
    if !tape.is_clean() {
        return Err(format!("tape validation failed: {}", tape.summary()).into());
    }
    let plan = model
        .compile_training_plan(data, probe)?
        .ok_or("the training configuration did not compile a plan")?;
    let step = Stepper::Plan {
        plan: &plan,
        lanes: Vec::new(),
    };
    let ckpt_path = dir.join("traced.ckpt");
    let checkpoint = Some((ckpt_path.as_path(), size.checkpoint_every));
    let replayed = replay(&model, data, &config, step, checkpoint, spans)?;
    let wall = started.elapsed();
    spans.residual(
        "core.train.unattributed",
        wall,
        &[
            "core.plan.fwd",
            "core.plan.bwd",
            "core.adam",
            "core.checkpoint.save",
            "core.val",
        ],
    );
    Ok(TracedTrain {
        history: replayed.history,
        wall,
        untraced_wall,
        untraced_history,
        pool_misses_per_step: replayed.pool_misses as f64 / replayed.steps.max(1) as f64,
        steps: replayed.steps,
    })
}
