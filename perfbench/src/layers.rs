//! Per-layer probes for the traced run: the dominant GEMM shapes, the
//! model's input copy, the paper's stages taken one at a time on the eager
//! tape, compiled inference, and the serve worker pool and cache in
//! process.

use crate::stack::{Res, MODEL};
use crate::stats::median;
use crate::trace::Spans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stgnn_core::fcg::FcgNetwork;
use stgnn_core::flow_conv::{fcg_mask, FlowConvolution};
use stgnn_core::model::ModelInputs;
use stgnn_core::pcg::PcgNetwork;
use stgnn_core::{StgnnConfig, StgnnDjd};
use stgnn_data::dataset::BikeDataset;
use stgnn_data::predictor::Prediction;
use stgnn_serve::batch::PoolConfig;
use stgnn_serve::registry::ModelRegistry;
use stgnn_serve::{ModelSpec, ServeMetrics, SlotCache, WorkerPool};
use stgnn_tensor::autograd::{Graph, ParamSet};
use stgnn_tensor::{Shape, Tensor};

/// `[m,k] × [k,n]` shapes the model spends its GEMM time in: the 64- and
/// 28-station square products and the k=96 short-term channel fusion.
pub const MATMULS: [(usize, usize, usize); 3] = [(64, 64, 64), (1, 96, 4096), (28, 28, 28)];

pub fn matmul_name(m: usize, k: usize, n: usize) -> String {
    format!("{m}x{k}x{n}")
}

/// Median microseconds per `Tensor::matmul` call on dense seeded operands,
/// with the operation count (2mkn) and the bytes the operands and result
/// occupy (computed from the shapes, not measured).
pub struct MatmulProbe {
    pub us: f64,
    pub flop: f64,
    pub computed_bytes: f64,
}

pub fn matmul_probe(seed: u64, (m, k, n): (usize, usize, usize)) -> Res<MatmulProbe> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dense = |r: usize, c: usize| -> Res<Tensor> {
        let v: Vec<f32> = (0..r * c).map(|_| rng.gen::<f32>() - 0.5).collect();
        Ok(Tensor::from_vec(Shape::matrix(r, c), v)?)
    };
    let (a, b) = (dense(m, k)?, dense(k, n)?);
    // Batches of calls long enough for the clock; the median batch.
    let per_batch = (2_000_000 / (2 * m * k * n)).clamp(1, 20_000);
    let mut batch_us = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(std::hint::black_box(&a).matmul(std::hint::black_box(&b))?);
        }
        batch_us.push(t.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    Ok(MatmulProbe {
        us: median(&batch_us),
        flop: (2 * m * k * n) as f64,
        computed_bytes: (4 * (m * k + k * n + m * n)) as f64,
    })
}

/// Eager per-stage timings over `slots`. Backward passes of the FCG and
/// PCG stages cannot run without the flow convolution beneath them, so
/// they are taken by differencing cumulative tapes: `fcg.bwd` is
/// bwd(flow_conv+fcg) − bwd(flow_conv). The head is the residual of the
/// full model's forward after the three stages.
pub fn stage_probe(
    data: &BikeDataset,
    config: &StgnnConfig,
    slots: &[usize],
    spans: &mut Spans,
) -> Res<()> {
    let n = data.n_stations();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut params = ParamSet::new();
    let fc = FlowConvolution::new(&mut params, &mut rng, config, n);
    let fcg = FcgNetwork::new(&mut params, &mut rng, config, n);
    let pcg = PcgNetwork::new(&mut params, &mut rng, config, n);
    let model = StgnnDjd::new(config.clone(), n)?;
    let (mut cum_fc, mut cum_fcg, mut cum_pcg) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for &t in slots {
        let inputs = spans.time("data.inputs", || ModelInputs::from_dataset(data, t));
        let flow = |g: &Graph| {
            fc.forward(
                g,
                &inputs.short_in,
                &inputs.short_out,
                &inputs.long_in,
                &inputs.long_out,
            )
        };

        let g = Graph::new();
        let out = spans.time("core.flow_conv.fwd", || flow(&g));
        let t0 = Instant::now();
        out.t.mean_all().backward();
        cum_fc += t0.elapsed();
        params.zero_grads();

        let g = Graph::new();
        let out = flow(&g);
        let f = spans.time("core.fcg.fwd", || {
            let mask = fcg_mask(&out.i_hat.value(), &out.o_hat.value());
            fcg.forward(&g, &out.t, &mask, Some(&mut rng))
        });
        let t0 = Instant::now();
        f.mean_all().backward();
        cum_fcg += t0.elapsed();
        params.zero_grads();

        let g = Graph::new();
        let out = flow(&g);
        let (p, _) = spans.time("core.pcg.fwd", || {
            pcg.forward_with_attention(&g, &out.t, Some(&mut rng))
        });
        let t0 = Instant::now();
        p.mean_all().backward();
        cum_pcg += t0.elapsed();
        params.zero_grads();

        let g = Graph::new();
        let out = spans.time("core.model.fwd", || model.forward(&g, &inputs, true));
        let (dt, st) = data.targets_horizon(t, config.horizon)?;
        let sq = spans.time("core.loss", || model.squared_loss(&g, &out, &dt, &st));
        spans.time("core.model.bwd", || sq.backward());
        model.params().zero_grads();
    }
    let per = slots.len().max(1) as u32;
    for _ in 0..per {
        spans.add("core.flow_conv.bwd", cum_fc / per);
        spans.add("core.fcg.bwd", cum_fcg.saturating_sub(cum_fc) / per);
        spans.add("core.pcg.bwd", cum_pcg.saturating_sub(cum_fc) / per);
    }
    let stages = spans.total("core.flow_conv.fwd")
        + spans.total("core.fcg.fwd")
        + spans.total("core.pcg.fwd");
    let head = spans.total("core.model.fwd").saturating_sub(stages);
    for _ in 0..per {
        spans.add("core.head.fwd", head / per);
    }
    Ok(())
}

/// `plan_predict_horizon` per call at the served scale, and the eager
/// predictions it must equal.
pub fn infer_probe(
    data: &BikeDataset,
    model: &StgnnDjd,
    slots: &[usize],
    spans: &mut Spans,
) -> Res<bool> {
    let plan = model
        .compile_inference_plan(data, slots[0])?
        .ok_or("the served configuration did not compile an inference plan")?;
    let mut exec = plan.executor();
    let mut same = true;
    for &t in slots {
        let got = spans.time("core.plan.infer", || {
            model.plan_predict_horizon(&plan, &mut exec, data, t)
        })?;
        same &= got == model.predict_horizon(data, t);
    }
    Ok(same)
}

/// The worker pool answered in process, without HTTP: misses on distinct
/// slots, then hits on one slot. Also one `SlotCache::insert` into a full
/// cache of the server's capacity, which scans every key to evict.
pub fn serve_probe(
    data: &Arc<BikeDataset>,
    config: &StgnnConfig,
    bytes: Vec<u8>,
    slots: &[usize],
    spans: &mut Spans,
) -> Res<()> {
    let registry = Arc::new(ModelRegistry::new().with_tape_validation(Arc::clone(data)));
    registry.register(
        MODEL,
        ModelSpec::new(config.clone(), data.n_stations()),
        bytes,
    )?;
    let pool = WorkerPool::new(
        registry,
        Arc::new(SlotCache::new(256)),
        Arc::new(ServeMetrics::new()),
        Arc::clone(data),
        PoolConfig::default(),
    );
    let ask = |slot: usize, name: &'static str, spans: &mut Spans| -> Res<()> {
        let t = Instant::now();
        let reply = pool.submit(MODEL, slot).recv()?;
        spans.add(name, t.elapsed());
        reply?;
        Ok(())
    };
    // The first answer builds the worker's model and plan; keep it apart.
    ask(slots[0], "serve.pool.first_reply", spans)?;
    for &slot in &slots[1..] {
        ask(slot, "serve.pool.reply.miss", spans)?;
    }
    for _ in 1..slots.len() {
        ask(slots[0], "serve.pool.reply.hit", spans)?;
    }

    let cache = SlotCache::new(256);
    let value = Arc::new(vec![Prediction {
        demand: vec![0.0; data.n_stations()],
        supply: vec![0.0; data.n_stations()],
    }]);
    for slot in 0..256 {
        cache.insert((MODEL.into(), 1, 1, slot), Arc::clone(&value));
    }
    for slot in 256..1256 {
        let key = (MODEL.to_string(), 1, 1, slot);
        spans.time("serve.cache.insert", || {
            cache.insert(key, Arc::clone(&value))
        });
    }
    Ok(())
}
