//! Set-up: the seeded cities, datasets, model configurations and the
//! running server every workload measures against.

use std::sync::Arc;
use std::time::Instant;
use stgnn_core::{StgnnConfig, StgnnDjd};
use stgnn_data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_serve::{ModelSpec, ServeConfig, Server};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Registry name of the served model.
pub const MODEL: &str = "stgnn";

/// Days of the Quick city the scan and the training job read: 3 days of
/// history plus 11 servable days give the 529-slot scan range.
pub const QUICK_DAYS: usize = 14;

/// Days of the online job's Quick city: 7 ingest cycles fill the 8-day
/// window, and each of the 9 measured cycles after it ingests one more day.
pub const ONLINE_DAYS: usize = 16;

/// The Quick city: 28 stations, 48 slots a day.
pub fn quick_city(seed: u64, days: usize) -> CityConfig {
    CityConfig {
        name: "quick".into(),
        n_stations: 28,
        days,
        slots_per_day: 48,
        seed,
        trips_per_station_day: 20.0,
        bike_speed_kmh: 9.0,
        radius_km: 6.0,
        districts: 1,
        min_gravity: 0.0,
    }
}

pub fn quick_model(seed: u64) -> StgnnConfig {
    StgnnConfig {
        seed,
        ..StgnnConfig::quick(48, 3)
    }
}

/// A Quick city of `days` days served over HTTP with an untrained model
/// registered as version 1.
pub struct Served {
    pub city: SyntheticCity,
    pub data: Arc<BikeDataset>,
    pub config: StgnnConfig,
    pub server: Server,
}

impl Served {
    pub fn build(seed: u64, days: usize) -> Res<Served> {
        let city = SyntheticCity::generate(quick_city(seed, days));
        let data = Arc::new(BikeDataset::from_city(&city, DatasetConfig::small(48, 3))?);
        let config = quick_model(seed);
        let spec = ModelSpec::new(config.clone(), data.n_stations());
        let initial = spec.materialize()?.weights_to_bytes();
        let server = Server::start(Arc::clone(&data), ServeConfig::default())?;
        // Registration probes the checkpoint with the tape validator.
        server.registry().register(MODEL, spec, initial)?;
        Ok(Served {
            city,
            data,
            config,
            server,
        })
    }

    /// First and last servable slot.
    pub fn servable(&self) -> (usize, usize) {
        (self.data.first_valid_slot(), self.data.flows().num_slots())
    }
}

/// A training set-up: dataset, configuration and a compiled plan probe.
pub struct TrainStack {
    pub data: BikeDataset,
    pub config: StgnnConfig,
}

impl TrainStack {
    /// The Full Chicago-like city (64 stations, 96 slots a day) with the
    /// paper's windows and hyperparameters.
    pub fn full(seed: u64) -> Res<TrainStack> {
        let city = SyntheticCity::generate(CityConfig {
            seed,
            ..CityConfig::chicago_like()
        });
        let data = BikeDataset::from_city(&city, DatasetConfig::paper())?;
        Self::compiled(
            data,
            StgnnConfig {
                seed,
                ..StgnnConfig::paper()
            },
        )
    }

    /// The Quick city with the quick configuration.
    pub fn quick(seed: u64) -> Res<TrainStack> {
        let city = SyntheticCity::generate(quick_city(seed, QUICK_DAYS));
        let data = BikeDataset::from_city(&city, DatasetConfig::small(48, 3))?;
        Self::compiled(data, quick_model(seed))
    }

    /// Builds the model and compiles its training plan once, as a user's
    /// first training run does.
    fn compiled(data: BikeDataset, config: StgnnConfig) -> Res<TrainStack> {
        let model = StgnnDjd::new(config.clone(), data.n_stations())?;
        let probe = data.slots(Split::Train)[0];
        if model.compile_training_plan(&data, probe)?.is_none() {
            return Err("the training configuration did not compile a plan".into());
        }
        Ok(TrainStack { data, config })
    }
}

/// Runs `build` `times` times and returns each build's wall time in seconds
/// with the last build.
pub fn timed_setup<T>(times: usize, mut build: impl FnMut() -> Res<T>) -> Res<(Vec<f64>, T)> {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Drop the previous build first so two servers never overlap.
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        walls.push(t.elapsed().as_secs_f64());
    }
    let built = last.ok_or("set-up never ran")?;
    Ok((walls, built))
}
