//! The repository benchmark. One command measures STGNN-DJD's three user
//! facing jobs — train, serve, re-train while serving — checks every
//! output, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-scan --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Every run reports every end-to-end metric, so each workload runs all
//! three jobs; the workload decides the training scale. `WORKLOADS.md`
//! beside this crate records why each workload exists, how each metric is
//! defined, and which layer metric should move which end-to-end metric.

mod check;
mod env;
mod golden;
mod json;
mod layers;
mod load;
mod online;
mod scan;
mod stack;
mod stats;
mod trace;
mod train;

use json::Json;
use load::{PhaseReport, Sample};
use stack::{Res, Served, TrainStack, MODEL, ONLINE_DAYS, QUICK_DAYS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use stgnn_data::predictor::Prediction;
use stgnn_serve::{MetricsSnapshot, ModelSpec};
use train::TrainSize;

/// End-to-end metrics: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("train_slots_per_s", "1/s"),
    ("scan_p50_ms", "ms"),
    ("online_cycle_s", "s"),
    ("hot_p50_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    Quick,
}

/// What one workload runs: all three jobs, with training at its scale.
struct Workload {
    name: &'static str,
    train_scale: Scale,
    train: TrainSize,
    /// The training call's recorded losses at [`golden::SEED`].
    golden: golden::Losses,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "train-full",
        train_scale: Scale::Full,
        train: TrainSize {
            epochs: 1,
            batches_per_epoch: 2,
            checkpoint_every: 2,
        },
        golden: golden::TRAIN_FULL,
    },
    Workload {
        name: "serve-scan",
        train_scale: Scale::Quick,
        train: TrainSize {
            epochs: 2,
            batches_per_epoch: 8,
            checkpoint_every: 8,
        },
        golden: golden::TRAIN_QUICK,
    },
];

/// Rounds per run. Each round runs two training calls, one fixed-rate scan
/// window and three online cycles, so every metric's samples are spread
/// over the whole run and a host disturbance of a few seconds lands in one
/// round, which the medians then outvote.
const ROUNDS: usize = 3;

/// Timed `Trainer::train` calls per round.
const TRAIN_CALLS_PER_ROUND: usize = 2;

/// Promote cycles after the online window fills, per round; with
/// [`ROUNDS`] they use every day of the online city.
const CYCLES_PER_ROUND: usize = 3;

/// Offered rate of the hot reads during the online cycles.
const HOT_RPS: f64 = 300.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --key value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    // Every run measures the same fixed work (about 50 s on two cores), so
    // commits are compared on equal work; `--seconds` is accepted only.
    let _seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        trace,
    })
}

/// Results of one run: metrics, accounting, checks and detail.
#[derive(Default)]
struct Outcome {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    detail: Vec<(String, Json)>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// Counts a phase at fixed load: every request attempted; failed,
    /// degraded and wrong answers all failed.
    fn account(&mut self, key: &str, phase: &PhaseReport) {
        self.attempted += phase.attempted as u64;
        self.failed += (phase.failed + phase.degraded + phase.wrong) as u64;
        self.check(
            phase.wrong == 0,
            format!("{key}: {} wrong answers", phase.wrong),
        );
        self.detail(key, phase_json(phase));
    }
}

fn phase_json(p: &PhaseReport) -> Json {
    Json::obj([
        ("offered_rps", Json::from(p.offered_rps)),
        ("achieved_rps", Json::from(p.achieved_rps)),
        ("attempted", Json::from(p.attempted)),
        ("ok", Json::from(p.ok)),
        ("degraded", Json::from(p.degraded)),
        ("failed", Json::from(p.failed)),
        ("wrong", Json::from(p.wrong)),
        ("samples", Json::from(p.latency.n)),
        ("p50_ms", Json::from(p.latency.p50)),
        (
            "tail_pct",
            Json::from(p.latency.tail_pct.unwrap_or(f64::NAN)),
        ),
        ("tail_ms", Json::from(p.latency.tail)),
        ("p99_ms", Json::from(p.p99_ms)),
        (
            "window_p99_ms",
            Json::Arr(p.window_p99_ms.iter().map(|&v| Json::from(v)).collect()),
        ),
        ("lateness_max_ms", Json::from(p.lateness_max_ms)),
        ("lateness_p99_ms", Json::from(p.lateness_p99_ms)),
        ("lateness_final_ms", Json::from(p.lateness_final_ms)),
    ])
}

/// A private working directory inside the checkout's build directory.
fn work_dir() -> Res<PathBuf> {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let dir = base.join(format!("perfbench-work-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// What a run measures against: the training stack, the server the scan
/// reads, and a second server whose registry the online loop moves (so
/// the scan always reads version 1).
struct Setup {
    train: TrainStack,
    scan: Served,
    online: Served,
}

fn train_stack(scale: Scale, seed: u64) -> Res<TrainStack> {
    match scale {
        Scale::Full => TrainStack::full(seed),
        Scale::Quick => TrainStack::quick(seed),
    }
}

fn setup(w: &Workload, seed: u64) -> Res<(Vec<f64>, Setup)> {
    stack::timed_setup(SETUP_REPS, || {
        Ok(Setup {
            train: train_stack(w.train_scale, seed)?,
            scan: Served::build(seed, QUICK_DAYS)?,
            online: Served::build(seed, ONLINE_DAYS)?,
        })
    })
}

/// In-process predictions of the served version 1 for every servable slot.
fn scan_expectations(served: &Served) -> Res<Vec<Prediction>> {
    let entry = served
        .server
        .registry()
        .get(MODEL)
        .ok_or("model not registered")?;
    let model = ModelSpec::new(served.config.clone(), served.data.n_stations())
        .materialize_with(&entry.checkpoint())?;
    let (first, last) = served.servable();
    Ok((first..=last)
        .map(|t| model.predict_horizon(&served.data, t).swap_remove(0))
        .collect())
}

fn labels(v: &[online::Verdict]) -> Json {
    Json::Arr(v.iter().map(|x| Json::str(x.label())).collect())
}

fn run(args: &Args, dir: &Path) -> Res<Outcome> {
    let w = args.workload;
    let mut out = Outcome::default();
    let (setup_walls, built) = setup(w, args.seed)?;
    let scale = format!(
        "train {} stations; serve and online {} stations",
        built.train.data.n_stations(),
        built.scan.data.n_stations()
    );
    out.detail("environment", env::fingerprint(&scale));
    out.set("setup_s", stats::median(&setup_walls));
    out.detail("setup_walls_s", nums(&setup_walls));
    if args.trace {
        traced(w, args.seed, &built.train, &built.scan, dir, &mut out)?;
    } else {
        untraced(w, args.seed, &built, dir, &mut out)?;
    }
    drop(built);
    golden_check(w, dir, &mut out)?;
    Ok(out)
}

/// Compares outputs computed at the fixed seed with their recording, after
/// the measurement so it cannot disturb it.
fn golden_check(w: &Workload, dir: &Path, out: &mut Outcome) -> Res<()> {
    let stack = train_stack(w.train_scale, golden::SEED)?;
    let scan = Served::build(golden::SEED, QUICK_DAYS)?;
    let online = Served::build(golden::SEED, ONLINE_DAYS)?;
    let observed = golden::observe(&stack, w.train, &scan, &online, dir)?;
    let problems = golden::compare(&observed, w.golden, golden::SERVE_ONLINE);
    out.detail(
        "golden",
        Json::obj([
            ("seed", Json::from(golden::SEED)),
            ("matches", Json::from(problems.is_empty())),
        ]),
    );
    out.problems.extend(problems);
    Ok(())
}

fn untraced(w: &Workload, seed: u64, built: &Setup, dir: &Path, out: &mut Outcome) -> Res<()> {
    let mut train = train::TrainRuns::new(&built.train, w.train, dir);
    train.run_once()?;
    let expected = scan_expectations(&built.scan)?;
    let mut scan = scan::Scan {
        served: &built.scan,
        expected: &expected,
        seed,
        sent: 0,
    };
    let mut windows = Vec::new();
    let mut online_run = online::OnlineRun::new(&built.online, seed, HOT_RPS, dir)?;
    for _ in 0..ROUNDS {
        for _ in 0..TRAIN_CALLS_PER_ROUND {
            train.run_once()?;
        }
        windows.push(scan.phase(scan::FIXED_RPS, scan::FIXED_REQUESTS).1);
        online_run.cycles(CYCLES_PER_ROUND)?;
    }

    // Train.
    out.set("train_slots_per_s", stats::median(&train.slots_per_s));
    out.attempted += 1 + (ROUNDS * TRAIN_CALLS_PER_ROUND) as u64;
    let reference = train::eager_reference(&built.train, w.train)?;
    out.check(
        train.repeatable,
        "train: repeated runs gave different loss histories",
    );
    out.check(
        train.history.as_ref() == Some(&reference),
        "train: loss history differs from the eager reference",
    );
    out.check(
        train.used_compiled_plan,
        "train: the trainer did not use the compiled plan",
    );
    out.check(
        train.checkpoint_failures == 0,
        "train: checkpoint writes failed",
    );
    out.detail(
        "train",
        Json::obj([
            (
                "slots_per_run",
                Json::from(train::slots_per_run(&built.train, w.train)),
            ),
            ("slots_per_s", nums(&train.slots_per_s)),
            ("checkpoint_writes", Json::from(train.checkpoint_writes)),
            ("allocs_per_step", Json::from(train.allocs_per_step)),
        ]),
    );

    // Scan: p50 over every fixed-rate request. The p99 stays in the detail
    // line: on a shared 2-core host it spread too widely between runs to
    // bound (see WORKLOADS.md).
    let fixed = PhaseReport::of(scan::FIXED_RPS, &load::end_to_end(windows));
    out.set("scan_p50_ms", fixed.latency.p50);
    out.account("scan_fixed", &fixed);

    // Online under hot reads.
    let hot = online_run.hot();
    out.set("online_cycle_s", stats::median(&online_run.cycle_walls_s));
    out.set("hot_p50_ms", hot.latency.p50);
    out.attempted += online_run.cycle_walls_s.len() as u64;
    out.account("hot", &hot);
    let cycles = ROUNDS * CYCLES_PER_ROUND;
    let (ref_verdicts, ref_promoted) = online::reference(&built.online, cycles, dir)?;
    out.check(
        online_run.verdicts == ref_verdicts,
        "online: cycle verdicts differ from the no-traffic reference",
    );
    out.check(
        online_run.promoted == ref_promoted,
        "online: promoted weights differ from the no-traffic reference",
    );
    out.detail(
        "online",
        Json::obj([
            ("cycle_walls_s", nums(&online_run.cycle_walls_s)),
            ("verdicts", labels(&online_run.verdicts)),
            ("reference_verdicts", labels(&ref_verdicts)),
        ]),
    );
    Ok(())
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::from(x)).collect())
}

/// Client, server and HTTP medians of a phase's answered requests.
fn split_times(samples: &[Sample]) -> (f64, f64, f64) {
    let answered: Vec<&Sample> = samples.iter().filter(|s| s.server_us.is_some()).collect();
    let client: Vec<f64> = answered.iter().map(|s| s.service_ms()).collect();
    let server: Vec<f64> = answered
        .iter()
        .filter_map(|s| s.server_us)
        .map(|us| us as f64 / 1e3)
        .collect();
    let http: Vec<f64> = client.iter().zip(&server).map(|(c, s)| c - s).collect();
    (
        stats::median(&client),
        stats::median(&server),
        stats::median(&http),
    )
}

fn serve_counters(
    out: &mut Outcome,
    phase: &str,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    let requests = after.requests - before.requests;
    let forwards = after.forward_passes - before.forward_passes;
    let hits = after.cache_hits - before.cache_hits;
    out.set(
        &format!("serve.{phase}.cache.hit_ratio"),
        hits as f64 / requests.max(1) as f64,
    );
    out.set(
        &format!("serve.{phase}.batch.mean_size"),
        (after.batched - before.batched) as f64 / forwards.max(1) as f64,
    );
    out.set(&format!("serve.{phase}.forward_passes"), forwards as f64);
    out.set(
        &format!("serve.{phase}.fallbacks"),
        (after.fallbacks - before.fallbacks) as f64,
    );
    out.set(
        &format!("serve.{phase}.errors"),
        (after.errors - before.errors) as f64,
    );
}

fn traced(
    w: &Workload,
    seed: u64,
    tstack: &TrainStack,
    served: &Served,
    dir: &Path,
    out: &mut Outcome,
) -> Res<()> {
    let mut spans = trace::Spans::default();

    // Tensor kernels.
    for shape in layers::MATMULS {
        let p = layers::matmul_probe(seed, shape)?;
        let name = layers::matmul_name(shape.0, shape.1, shape.2);
        out.set(&format!("tensor.matmul.{name}.us"), p.us);
        out.set(&format!("tensor.matmul.{name}.flop"), p.flop);
        out.set(
            &format!("tensor.matmul.{name}.computed_bytes"),
            p.computed_bytes,
        );
    }

    // Training, replayed stage by stage.
    let t = train::traced(tstack, w.train, dir, &mut spans)?;
    out.check(
        t.history == t.untraced_history,
        "traced train: replica losses differ from Trainer::train",
    );
    out.attempted += 2;
    out.set("tensor.pool.misses_per_step", t.pool_misses_per_step);
    let overhead = (t.wall.as_secs_f64() / t.untraced_wall.as_secs_f64() - 1.0) * 100.0;
    out.set("trace.overhead.train.pct", overhead);
    let slots: Vec<usize> = tstack
        .data
        .slots(stgnn_data::dataset::Split::Train)
        .into_iter()
        .take(12)
        .collect();
    layers::stage_probe(&tstack.data, &tstack.config, &slots, &mut spans)?;
    out.detail(
        "train_attribution",
        Json::obj([
            ("replica_wall_ms", Json::from(t.wall.as_secs_f64() * 1e3)),
            (
                "untraced_wall_ms",
                Json::from(t.untraced_wall.as_secs_f64() * 1e3),
            ),
            ("steps", Json::from(t.steps)),
        ]),
    );

    // Serve in process.
    let (first, last) = served.servable();
    let probe_slots: Vec<usize> = (first..=last).step_by(9).take(40).collect();
    let model = ModelSpec::new(served.config.clone(), served.data.n_stations()).materialize()?;
    let same = layers::infer_probe(&served.data, &model, &probe_slots, &mut spans)?;
    out.check(same, "plan_predict_horizon differs from predict_horizon");
    let bytes = served
        .server
        .registry()
        .get(MODEL)
        .ok_or("model not registered")?
        .checkpoint()
        .bytes
        .clone();
    layers::serve_probe(
        &served.data,
        &served.config,
        bytes,
        &probe_slots,
        &mut spans,
    )?;

    // Serve over HTTP: the fixed-rate scan phase.
    let expected = scan_expectations(served)?;
    let mut scan = scan::Scan {
        served,
        expected: &expected,
        seed,
        sent: 0,
    };
    let before = served.server.metrics_snapshot();
    let (fixed, samples) = scan.phase(scan::FIXED_RPS, ROUNDS * scan::FIXED_REQUESTS);
    let after = served.server.metrics_snapshot();
    out.account("scan_fixed", &fixed);
    serve_counters(out, "scan", &before, &after);
    let (client, server, http) = split_times(&samples);
    out.set("serve.scan.client.ms", client);
    out.set("serve.scan.server.ms", server);
    out.set("serve.scan.http.ms", http);
    out.set("serve.scan.p99.ms", fixed.p99_ms);
    // Capacity: probes at fixed rates above the fixed-rate phase's.
    let rates = scan::probe_rates();
    let mut p99s = Vec::new();
    let mut probes = Vec::new();
    for &rate in &rates {
        let (report, probe) = scan.phase(rate, scan::PROBE_REQUESTS);
        p99s.push(load::probe_p99(&probe, scan::SLO_MS));
        out.check(
            report.wrong == 0,
            format!(
                "scan probe at {rate:.0} req/s: {} wrong answers",
                report.wrong
            ),
        );
        probes.push(phase_json(&report));
    }
    out.set(
        "serve.scan.capacity_rps",
        load::capacity(&rates, &p99s, scan::SLO_MS),
    );
    out.detail("scan_probes", Json::Arr(probes));
    out.detail("scan_probe_p99_ms", nums(&p99s));

    // Online, replayed stage by stage under hot reads.
    let cycles = ROUNDS * CYCLES_PER_ROUND;
    let o = online::traced(seed, HOT_RPS, cycles, dir, &mut spans)?;
    out.check(
        o.replica_verdicts == o.untraced_verdicts,
        "traced online: replica verdicts differ from OnlineLoop",
    );
    out.attempted += 2 * cycles as u64;
    out.account("hot", &o.replica_hot);
    let (client, server, http) = split_times(&o.replica_hot_samples);
    out.set("serve.hot.client.ms", client);
    out.set("serve.hot.server.ms", server);
    out.set("serve.hot.http.ms", http);
    out.set("serve.hot.p99.ms", o.replica_hot.p99_ms);
    serve_counters(out, "hot", &o.before, &o.after);
    let untraced_cycle = stats::median(&o.untraced_walls_s);
    let traced_cycle = stats::median(&o.replica_walls_s);
    out.set(
        "trace.overhead.online.pct",
        (traced_cycle / untraced_cycle - 1.0) * 100.0,
    );
    out.detail(
        "online",
        Json::obj([
            ("verdicts", labels(&o.untraced_verdicts)),
            ("replica_verdicts", labels(&o.replica_verdicts)),
            ("untraced_cycle_s", Json::from(untraced_cycle)),
            ("replica_cycle_s", Json::from(traced_cycle)),
        ]),
    );

    // Span-derived layer metrics: mean ms per call, per cycle for online.
    let cycles = cycles as f64;
    for (metric, span) in SPAN_METRICS {
        if let Some(ms) = spans.mean_ms(span) {
            out.set(metric, ms);
        }
    }
    for (metric, span) in ONLINE_SPANS {
        out.set(metric, spans.total(span).as_secs_f64() * 1e3 / cycles);
    }
    out.set(
        "core.train.unattributed.ms",
        spans.total("core.train.unattributed").as_secs_f64() * 1e3,
    );
    out.set(
        "serve.cache.insert.us",
        spans.mean_ms("serve.cache.insert").unwrap_or(f64::NAN) * 1e3,
    );
    if let (Some(miss), Some(hit), Some(infer)) = (
        spans.mean_ms("serve.pool.reply.miss"),
        spans.mean_ms("serve.pool.reply.hit"),
        spans.mean_ms("core.plan.infer"),
    ) {
        out.set("serve.queue_wait.miss.ms", miss - infer);
        out.set("serve.queue_wait.hit.ms", hit);
    }
    out.detail("spans", spans.to_json());
    Ok(())
}

/// Per-layer metrics read from spans as mean ms per call.
const SPAN_METRICS: [(&str, &str); 18] = [
    ("data.inputs.ms", "data.inputs"),
    ("core.flow_conv.fwd.ms", "core.flow_conv.fwd"),
    ("core.flow_conv.bwd.ms", "core.flow_conv.bwd"),
    ("core.fcg.fwd.ms", "core.fcg.fwd"),
    ("core.fcg.bwd.ms", "core.fcg.bwd"),
    ("core.pcg.fwd.ms", "core.pcg.fwd"),
    ("core.pcg.bwd.ms", "core.pcg.bwd"),
    ("core.head.fwd.ms", "core.head.fwd"),
    ("core.loss.ms", "core.loss"),
    ("core.adam.ms", "core.adam"),
    ("core.plan.fwd.ms", "core.plan.fwd"),
    ("core.plan.bwd.ms", "core.plan.bwd"),
    ("core.plan.infer.ms", "core.plan.infer"),
    ("core.val.ms", "core.val"),
    ("core.checkpoint.save.ms", "core.checkpoint.save"),
    ("serve.pool.reply.miss.ms", "serve.pool.reply.miss"),
    ("serve.pool.reply.hit.ms", "serve.pool.reply.hit"),
    ("serve.registry.swap.ms", "serve.registry.swap"),
];

/// Online stages, reported as ms per measured cycle.
const ONLINE_SPANS: [(&str, &str); 10] = [
    ("online.ingest.ms", "online.ingest"),
    ("online.verify.ms", "online.verify"),
    ("online.dataset.ms", "online.dataset"),
    ("online.finetune.ms", "online.finetune"),
    ("online.gate.ms", "online.gate"),
    ("online.shadow.ms", "online.shadow"),
    ("online.promote.ms", "online.promote"),
    ("online.persist.ms", "online.persist"),
    ("online.unattributed.ms", "online.unattributed"),
    (
        "serve.first_read_after_swap.ms",
        "serve.first_read_after_swap",
    ),
];

/// Every per-layer metric: (name, unit).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for (m, k, n) in layers::MATMULS {
        let name = layers::matmul_name(m, k, n);
        v.push((format!("tensor.matmul.{name}.us"), "us"));
        v.push((format!("tensor.matmul.{name}.flop"), "count"));
        v.push((format!("tensor.matmul.{name}.computed_bytes"), "bytes"));
    }
    v.push(("tensor.pool.misses_per_step".into(), "count"));
    for (name, _) in SPAN_METRICS {
        v.push((name.into(), "ms"));
    }
    v.push(("core.train.unattributed.ms".into(), "ms"));
    for phase in ["scan", "hot"] {
        for part in ["client", "server", "http", "p99"] {
            v.push((format!("serve.{phase}.{part}.ms"), "ms"));
        }
        v.push((format!("serve.{phase}.cache.hit_ratio"), "ratio"));
        v.push((format!("serve.{phase}.batch.mean_size"), "count"));
        v.push((format!("serve.{phase}.forward_passes"), "count"));
        v.push((format!("serve.{phase}.fallbacks"), "count"));
        v.push((format!("serve.{phase}.errors"), "count"));
    }
    v.push(("serve.scan.capacity_rps".into(), "1/s"));
    v.push(("serve.queue_wait.miss.ms".into(), "ms"));
    v.push(("serve.queue_wait.hit.ms".into(), "ms"));
    v.push(("serve.cache.insert.us".into(), "us"));
    for (name, _) in ONLINE_SPANS {
        v.push((name.into(), "ms"));
    }
    v.push(("trace.overhead.train.pct".into(), "%"));
    v.push(("trace.overhead.online.pct".into(), "%"));
    v
}

fn emit(args: &Args, out: Outcome) {
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut problems = out.problems;
    let mut metrics = Vec::new();
    for (name, unit) in catalog {
        let value = out.metrics.get(&name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            problems.push(format!("metric {name} was not measured"));
        } else if !args.trace && value <= 0.0 {
            problems.push(format!("metric {name} is {value}"));
        }
        metrics.push((
            name,
            Json::obj([
                (
                    "value",
                    Json::from(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit", Json::str(unit)),
            ]),
        ));
    }
    let correct = problems.is_empty();
    let mut detail = vec![
        ("workload".to_string(), Json::str(args.workload.name)),
        ("seed".to_string(), Json::from(args.seed)),
        ("trace".to_string(), Json::from(args.trace)),
        (
            "problems".to_string(),
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ];
    detail.extend(out.detail);
    println!("{}", Json::Obj(detail));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(out.attempted.max(1))),
            ("failed", Json::from(out.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    stgnn_tensor::par::init();
    let dir = match work_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: work directory: {e}");
            std::process::exit(1);
        }
    };
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(out) => emit(&args, out),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics and workloads this
    /// program emits, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        let mut names = Vec::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
        {
            let entry = format!(r#"{{"name":"{name}","unit":"{unit}""#);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
            names.push(name);
        }
        for w in &WORKLOADS {
            assert!(
                compact.contains(&format!(r#"{{"name":"{}","why":"#, w.name)),
                "{}",
                w.name
            );
        }
        let listed = compact.matches(r#"{"name":""#).count();
        assert_eq!(
            listed,
            names.len() + WORKLOADS.len(),
            "BENCHMARK.json lists other names"
        );
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
    }
}
