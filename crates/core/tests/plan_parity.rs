//! Compiled-plan replay must be **bit-identical** to eager execution for
//! the full STGNN-DJD model — values, losses, and parameter gradients —
//! and configurations that cannot replay must fall back to eager cleanly.
//!
//! Identical seeds give identical parameter initialisation and identical
//! dropout RNG streams, so two fresh models with the same config are
//! exact twins; one runs eager, the other through the plan.

use stgnn_core::config::{FcgAggregator, PcgAggregator, StgnnConfig};
use stgnn_core::model::{ModelInputs, StgnnDjd};
use stgnn_core::Trainer;
use stgnn_data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_tensor::autograd::Graph;
use stgnn_tensor::Tensor;

fn dataset(seed: u64) -> BikeDataset {
    let city = SyntheticCity::generate(CityConfig::test_tiny(seed));
    BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap()
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// A compiled inference plan replayed across many slots must reproduce the
/// eager `predict_horizon` byte-for-byte.
#[test]
fn inference_plan_predictions_are_bit_identical_to_eager() {
    let data = dataset(301);
    let config = StgnnConfig::test_tiny(6, 2);
    let model = StgnnDjd::new(config, data.n_stations()).unwrap();
    let slots = data.slots(Split::Test);
    let probe = slots[0];
    let plan = model
        .compile_inference_plan(&data, probe)
        .unwrap()
        .expect("standard config must compile");
    let mut exec = plan.executor();
    for &t in slots.iter().take(6) {
        let eager = model.predict_horizon(&data, t);
        let replay = model
            .plan_predict_horizon(&plan, &mut exec, &data, t)
            .unwrap();
        assert_eq!(eager.len(), replay.len());
        for (h, (e, r)) in eager.iter().zip(&replay).enumerate() {
            for (i, (a, b)) in e.demand.iter().zip(&r.demand).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "slot {t} h {h} demand {i}");
            }
            for (i, (a, b)) in e.supply.iter().zip(&r.supply).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "slot {t} h {h} supply {i}");
            }
        }
    }
}

/// One full training batch — forward radicands, the batch-RMSE chain
/// factor, and every accumulated parameter gradient — replayed on a twin
/// model must match the eager batch bitwise. Dropout is enabled so the
/// test also proves the plan consumes the RNG stream exactly like eager.
#[test]
fn training_plan_batch_matches_eager_bitwise() {
    let data = dataset(302);
    let mut config = StgnnConfig::test_tiny(6, 2);
    // Dropout sits *between* GNN layers, so two layers per branch are
    // needed to put draws on the tape — exercising RNG-stream parity, not
    // just kernels.
    config.dropout = 0.2;
    config.fcg_layers = 2;
    config.pcg_layers = 2;
    let eager = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let twin = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();

    let train = data.slots(Split::Train);
    let batch: Vec<usize> = train.iter().take(3).copied().collect();
    let horizon = config.horizon;

    // Eager reference batch (the trainer's exact recipe).
    eager.params().zero_grads();
    let mut slot_losses = Vec::new();
    let mut radicand_e = 0.0f64;
    for &t in &batch {
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(&data, t);
        let out = eager.forward(&g, &inputs, true);
        let (dt, st) = data.targets_horizon(t, horizon).unwrap();
        let sq = eager.squared_loss(&g, &out, &dt, &st);
        radicand_e += sq.value().scalar() as f64 / batch.len() as f64;
        slot_losses.push(sq);
    }
    let batch_loss = (radicand_e.max(0.0)).sqrt() as f32;
    let grad_scale = 1.0 / (2.0 * batch.len() as f32 * batch_loss.max(1e-6));
    for sq in slot_losses {
        sq.mul_scalar(grad_scale).backward();
    }

    // Twin batch through the compiled plan (probe clones the RNG, so the
    // twin's stream still matches the eager model's pre-batch state).
    let plan = twin
        .compile_training_plan(&data, batch[0])
        .unwrap()
        .expect("standard config must compile");
    assert!(
        plan.needs_rng(),
        "dropout 0.2 must put RNG draws on the tape"
    );
    twin.params().zero_grads();
    let mut lanes: Vec<_> = batch.iter().map(|_| plan.executor()).collect();
    let mut radicand_p = 0.0f64;
    for (lane, &t) in batch.iter().enumerate() {
        let sq = twin
            .plan_step_forward(&plan, &mut lanes[lane], &data, t)
            .unwrap();
        radicand_p += sq as f64 / batch.len() as f64;
    }
    assert_eq!(radicand_e.to_bits(), radicand_p.to_bits(), "batch radicand");
    for lane in &mut lanes {
        twin.plan_step_backward(&plan, lane, grad_scale).unwrap();
    }

    for (pe, pt) in eager.params().params().iter().zip(twin.params().params()) {
        assert_eq!(pe.name(), pt.name(), "param order diverged");
        pe.with_grad(|ge| {
            pt.with_grad(|gt| assert_bits_eq(ge, gt, &format!("grad of {}", pe.name())));
        });
    }
}

/// The FCG max aggregator pools over input-dependent neighbour lists —
/// structure the plan cannot rebind — so compilation must decline and the
/// trainer must fall back to eager (and still train).
#[test]
fn fcg_max_configuration_falls_back_to_eager() {
    let data = dataset(303);
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.fcg_aggregator = FcgAggregator::Max;
    config.epochs = 2;
    config.max_batches_per_epoch = Some(2);
    let model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let t = data.slots(Split::Train)[0];
    assert!(model.compile_training_plan(&data, t).unwrap().is_none());
    assert!(model.compile_inference_plan(&data, t).unwrap().is_none());

    let mut model = model;
    let report = Trainer::new(config).train(&mut model, &data).unwrap();
    assert!(!report.used_compiled_plan);
    assert_eq!(report.epochs_run, 2);
}

/// The FCG mean aggregator's row-normalised adjacency derives from the
/// structural mask per replay; predictions must still match eager bitwise.
#[test]
fn fcg_mean_configuration_replays_through_derived_adjacency() {
    let data = dataset(304);
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.fcg_aggregator = FcgAggregator::Mean;
    let model = StgnnDjd::new(config, data.n_stations()).unwrap();
    let slots = data.slots(Split::Test);
    let plan = model
        .compile_inference_plan(&data, slots[0])
        .unwrap()
        .expect("mean aggregator must compile via derived adjacency");
    let mut exec = plan.executor();
    for &t in slots.iter().take(4) {
        let eager = model.predict_horizon(&data, t);
        let replay = model
            .plan_predict_horizon(&plan, &mut exec, &data, t)
            .unwrap();
        for (e, r) in eager.iter().zip(&replay) {
            for (a, b) in e.demand.iter().zip(&r.demand) {
                assert_eq!(a.to_bits(), b.to_bits(), "slot {t}");
            }
            for (a, b) in e.supply.iter().zip(&r.supply) {
                assert_eq!(a.to_bits(), b.to_bits(), "slot {t}");
            }
        }
    }
}

/// The eager reference for the training-batch parity test: one training
/// batch (3 slots, dropout on, 2 GNN layers per branch) run with the
/// trainer's exact recipe. Returns the batch radicand and every parameter
/// gradient.
fn eager_reference(data: &BikeDataset, config: &StgnnConfig) -> (f64, Vec<Tensor>) {
    let model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let train = data.slots(Split::Train);
    let batch: Vec<usize> = train.iter().take(3).copied().collect();
    model.params().zero_grads();
    let mut slot_losses = Vec::new();
    let mut radicand = 0.0f64;
    for &t in &batch {
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(data, t);
        let out = model.forward(&g, &inputs, true);
        let (dt, st) = data.targets_horizon(t, config.horizon).unwrap();
        let sq = model.squared_loss(&g, &out, &dt, &st);
        radicand += sq.value().scalar() as f64 / batch.len() as f64;
        slot_losses.push(sq);
    }
    let batch_loss = (radicand.max(0.0)).sqrt() as f32;
    let grad_scale = 1.0 / (2.0 * batch.len() as f32 * batch_loss.max(1e-6));
    for sq in slot_losses {
        sq.mul_scalar(grad_scale).backward();
    }
    let grads = model
        .params()
        .params()
        .iter()
        .map(|p| p.with_grad(|g| g.clone()))
        .collect();
    (radicand, grads)
}

/// Runs the same batch on a twin model through its compiled training plan
/// and returns the radicand and gradients.
fn plan_run(data: &BikeDataset, config: &StgnnConfig) -> (f64, Vec<Tensor>) {
    let twin = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let train = data.slots(Split::Train);
    let batch: Vec<usize> = train.iter().take(3).copied().collect();
    let plan = twin
        .compile_training_plan(data, batch[0])
        .unwrap()
        .expect("standard config must compile");
    twin.params().zero_grads();
    let mut lanes: Vec<_> = batch.iter().map(|_| plan.executor()).collect();
    let mut radicand = 0.0f64;
    for (lane, &t) in batch.iter().enumerate() {
        let sq = twin
            .plan_step_forward(&plan, &mut lanes[lane], data, t)
            .unwrap();
        radicand += sq as f64 / batch.len() as f64;
    }
    let batch_loss = (radicand.max(0.0)).sqrt() as f32;
    let grad_scale = 1.0 / (2.0 * batch.len() as f32 * batch_loss.max(1e-6));
    for lane in &mut lanes {
        twin.plan_step_backward(&plan, lane, grad_scale).unwrap();
    }
    let grads = twin
        .params()
        .params()
        .iter()
        .map(|p| p.with_grad(|g| g.clone()))
        .collect();
    (radicand, grads)
}

/// The compiled plan must leave the full model's training batch
/// bit-identical to eager: the radicand and every parameter gradient, at 1
/// *and* 4 kernel threads, for the default configuration and every
/// plan-compiling ablation.
#[test]
fn every_plan_compiling_config_trains_bitwise_like_eager() {
    let data = dataset(306);
    let configs = std::iter::once(("default", parity_config())).chain(plan_compiling_ablations());
    for (config_name, config) in configs {
        let (radicand_e, grads_e) = eager_reference(&data, &config);
        for threads in [1usize, 4] {
            let _threads = stgnn_tensor::par::scoped_threads(threads);
            let at = format!("{config_name}, {threads} thread(s)");
            let (radicand_p, grads_p) = plan_run(&data, &config);
            assert_eq!(
                radicand_e.to_bits(),
                radicand_p.to_bits(),
                "radicand drifted: {at}"
            );
            assert_eq!(grads_e.len(), grads_p.len());
            for (i, (ge, gp)) in grads_e.iter().zip(&grads_p).enumerate() {
                assert_bits_eq(ge, gp, &format!("param {i} grad: {at}"));
            }
        }
    }
}

/// The training configuration the parity tests share: dropout between two
/// GNN layers per branch, so replay must also consume the RNG stream
/// exactly like eager.
fn parity_config() -> StgnnConfig {
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.dropout = 0.2;
    config.fcg_layers = 2;
    config.pcg_layers = 2;
    config
}

/// Every §VII-F/G configuration that compiles a plan, beyond the default.
fn plan_compiling_ablations() -> Vec<(&'static str, StgnnConfig)> {
    let with = |edit: fn(&mut StgnnConfig)| {
        let mut config = parity_config();
        edit(&mut config);
        config
    };
    vec![
        ("FCG-Mean", with(|c| c.fcg_aggregator = FcgAggregator::Mean)),
        ("PCG-Mean", with(|c| c.pcg_aggregator = PcgAggregator::Mean)),
        ("PCG-Max", with(|c| c.pcg_aggregator = PcgAggregator::Max)),
        ("No-FCG", with(|c| c.use_fcg = false)),
        ("No-PCG", with(|c| c.use_pcg = false)),
        (
            "no predictor hidden layer",
            with(|c| c.predictor_hidden = None),
        ),
        ("horizon 3", with(|c| c.horizon = 3)),
    ]
}

/// Each plan-compiling ablation's inference plan must predict
/// bit-identically to eager at 1 and 4 kernel threads (their training
/// batches are covered by the test above).
#[test]
fn every_plan_compiling_ablation_infers_bitwise_like_eager() {
    let data = dataset(308);
    let slot = data.slots(Split::Test)[0];
    for (name, config) in plan_compiling_ablations() {
        let model = StgnnDjd::new(config, data.n_stations()).unwrap();
        let eager = model.predict_horizon(&data, slot);
        for threads in [1usize, 4] {
            let _threads = stgnn_tensor::par::scoped_threads(threads);
            let at = format!("{name} at {threads} thread(s)");
            let plan = model
                .compile_inference_plan(&data, slot)
                .unwrap()
                .unwrap_or_else(|| panic!("{name} must compile an inference plan"));
            let mut exec = plan.executor();
            let replay = model
                .plan_predict_horizon(&plan, &mut exec, &data, slot)
                .unwrap();
            assert_eq!(eager.len(), replay.len(), "horizon: {at}");
            for (h, (e, r)) in eager.iter().zip(&replay).enumerate() {
                for (a, b) in e.demand.iter().zip(&r.demand) {
                    assert_eq!(a.to_bits(), b.to_bits(), "demand h {h}: {at}");
                }
                for (a, b) in e.supply.iter().zip(&r.supply) {
                    assert_eq!(a.to_bits(), b.to_bits(), "supply h {h}: {at}");
                }
            }
        }
    }
}

/// The two configurations whose tapes cannot replay keep declining to
/// compile: FCG-Max (input-dependent pooling structure) and No-FC (a mask
/// derived from inputs that never reach the tape).
#[test]
fn non_replayable_ablations_do_not_compile() {
    let data = dataset(309);
    let t = data.slots(Split::Train)[0];
    let mut fcg_max = parity_config();
    fcg_max.fcg_aggregator = FcgAggregator::Max;
    let mut no_fc = parity_config();
    no_fc.use_flow_conv = false;
    for (name, config) in [("FCG-Max", fcg_max), ("No-FC", no_fc)] {
        let model = StgnnDjd::new(config, data.n_stations()).unwrap();
        assert!(
            model.compile_training_plan(&data, t).unwrap().is_none(),
            "{name}: training plan"
        );
        assert!(
            model.compile_inference_plan(&data, t).unwrap().is_none(),
            "{name}: inference plan"
        );
    }
}

/// End-to-end: a standard-config training run reports that it replayed the
/// compiled plan, and its loss trajectory matches a bitwise-identical twin
/// trained before plan routing existed (the eager recipe is deterministic,
/// so equality across the two paths is checkable via the report).
#[test]
fn trainer_reports_compiled_plan_for_standard_config() {
    let data = dataset(305);
    let mut config = StgnnConfig::test_tiny(6, 2);
    config.epochs = 3;
    config.max_batches_per_epoch = Some(4);
    let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
    let report = Trainer::new(config).train(&mut model, &data).unwrap();
    assert!(report.used_compiled_plan);
    assert!(report.train_losses.iter().all(|l| l.is_finite()));
}
