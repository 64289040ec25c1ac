//! Recorded outputs. Every run also computes a few outputs for one fixed
//! seed, [`SEED`], whatever `--seed` is, and compares them bit for bit with
//! the values recorded below. The other checks compare two paths through
//! the same tensor kernels (plan against eager, served against in-process,
//! loaded against idle), so a change to a shared kernel that alters its
//! results passes them; it does not pass these.
//!
//! The values were recorded from the commit that introduced this benchmark
//! on x86-64 with the repository's `x86-64-v3` codegen floor. A change
//! meant to alter results fails here and prints the observed values as
//! Rust literals in the run's `problems`; record them here in the same
//! change, with the reason.

use crate::check::{self, prediction_digest};
use crate::online;
use crate::stack::{Res, Served, TrainStack, MODEL};
use crate::train::{History, TrainRuns, TrainSize};
use std::fmt::Debug;
use std::path::Path;
use stgnn_serve::client::get_with;
use stgnn_serve::ModelSpec;

/// The seed of every recorded output.
pub const SEED: u64 = 2022;

/// Online cycles after the window fills whose outcomes are recorded.
pub const CYCLES: usize = 4;

/// A training call's loss histories, as f32 bit patterns.
#[derive(Debug, Clone, Copy)]
pub struct Losses {
    pub train: &'static [u32],
    pub val: &'static [u32],
}

/// Outputs of the serve job (the 14-day Quick city) and the online job (the
/// 16-day one).
#[derive(Debug, Clone, Copy)]
pub struct ServeOnline {
    /// (slot, digest of version 1's prediction) for a few servable slots.
    pub predictions: &'static [(usize, u64)],
    /// Outcomes of the first [`CYCLES`] online cycles with no traffic.
    pub verdicts: &'static [&'static str],
    /// Digests of the checkpoints those cycles promoted.
    pub promoted: &'static [u64],
}

/// `train-full`'s training call (64 stations, 1 epoch).
pub const TRAIN_FULL: Losses = Losses {
    train: &[0x3f22_306c], // 0.63355136
    val: &[0x3fa9_03ef],   // 1.3204325
};

/// `serve-scan`'s training call (28 stations, 2 epochs).
pub const TRAIN_QUICK: Losses = Losses {
    train: &[0x3d95_1051, 0x3cec_1389], // 0.072785027, 0.028817909
    val: &[0x3ced_76bd, 0x3ce8_6e44],   // 0.028987283, 0.028372891
};

pub const SERVE_ONLINE: ServeOnline = ServeOnline {
    predictions: &[
        (144, 0x9815_2e07_aadf_b571),
        (408, 0x0f48_aeaf_d2a0_60f6),
        (672, 0x0f7d_2c81_7d6f_a171),
    ],
    verdicts: &["promoted@v2", "promoted@v3", "promoted@v4", "promoted@v5"],
    promoted: &[
        0x01ab_12fd_8bc4_849b,
        0x5042_ceeb_3679_78aa,
        0x6968_3943_84e2_4545,
        0xf694_7e3b_fe47_6ec7,
    ],
};

/// What the program computed at [`SEED`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    pub train: History,
    /// (slot, digest) of version 1's in-process `predict_horizon`.
    pub predictions: Vec<(usize, u64)>,
    /// Digest of the same slots' `/predict` answers, `None` when an answer
    /// was not a 200 model answer.
    pub answers: Vec<Option<u64>>,
    pub verdicts: Vec<String>,
    pub promoted: Vec<u64>,
}

/// Runs one training call of `size` on `stack`, asks `served` for a few
/// slots in process and over HTTP, and runs [`CYCLES`] online cycles on
/// `online`'s city with a fresh registry. All three must be built from
/// [`SEED`].
pub fn observe(
    stack: &TrainStack,
    size: TrainSize,
    served: &Served,
    online: &Served,
    dir: &Path,
) -> Res<Observed> {
    let mut runs = TrainRuns::new(stack, size, dir);
    runs.run_once()?;
    let train = runs.history.ok_or("the training call kept no history")?;

    let (first, last) = served.servable();
    let slots = [first, (first + last) / 2, last];
    let entry = served
        .server
        .registry()
        .get(MODEL)
        .ok_or("model not registered")?;
    let model = ModelSpec::new(served.config.clone(), served.data.n_stations())
        .materialize_with(&entry.checkpoint())?;
    let mut predictions = Vec::new();
    let mut answers = Vec::new();
    for t in slots {
        let p = model.predict_horizon(&served.data, t).swap_remove(0);
        predictions.push((t, prediction_digest(&p)));
        let path = format!("/predict?model={MODEL}&slot={t}");
        let r = get_with(served.server.addr(), &path, &crate::scan::client())?;
        let served_model = r.status == 200 && r.body.contains("\"degraded\":false");
        answers.push(
            check::answer(&r.body)
                .filter(|_| served_model)
                .map(|p| prediction_digest(&p)),
        );
    }

    let (verdicts, promoted) = online::reference(online, CYCLES, dir)?;
    Ok(Observed {
        train,
        predictions,
        answers,
        verdicts: verdicts.iter().map(online::Verdict::label).collect(),
        promoted,
    })
}

/// Every way `observed` differs from the recorded `losses` and `outputs`,
/// each naming the observed and the recorded value.
pub fn compare(observed: &Observed, losses: Losses, outputs: ServeOnline) -> Vec<String> {
    let mut problems = Vec::new();
    let mut field = |name: &str, got: &dyn Debug, same: bool, want: &dyn Debug| {
        if !same {
            problems.push(format!(
                "golden {name}: observed {got:?}, recorded {want:?}"
            ));
        }
    };
    let o = observed;
    field(
        "train losses",
        &o.train.train,
        o.train.train == losses.train,
        &losses.train,
    );
    field(
        "val losses",
        &o.train.val,
        o.train.val == losses.val,
        &losses.val,
    );
    field(
        "predictions",
        &o.predictions,
        o.predictions == outputs.predictions,
        &outputs.predictions,
    );
    let recorded_answers: Vec<Option<u64>> =
        outputs.predictions.iter().map(|&(_, d)| Some(d)).collect();
    field(
        "served answers",
        &o.answers,
        o.answers == recorded_answers,
        &recorded_answers,
    );
    field(
        "online verdicts",
        &o.verdicts,
        o.verdicts == outputs.verdicts,
        &outputs.verdicts,
    );
    field(
        "promoted digests",
        &o.promoted,
        o.promoted == outputs.promoted,
        &outputs.promoted,
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOSSES: Losses = Losses {
        train: &[0x3f80_0000, 0x3f40_0000],
        val: &[0x3f00_0000, 0x3ec0_0000],
    };

    const OUTPUTS: ServeOnline = ServeOnline {
        predictions: &[(48, 11), (120, 22), (192, 33)],
        verdicts: &["promoted@v2", "rejected@gate"],
        promoted: &[44],
    };

    fn observed() -> Observed {
        Observed {
            train: History {
                train: LOSSES.train.to_vec(),
                val: LOSSES.val.to_vec(),
            },
            predictions: OUTPUTS.predictions.to_vec(),
            answers: vec![Some(11), Some(22), Some(33)],
            verdicts: OUTPUTS.verdicts.iter().map(|v| v.to_string()).collect(),
            promoted: OUTPUTS.promoted.to_vec(),
        }
    }

    #[test]
    fn recorded_outputs_pass() {
        assert_eq!(compare(&observed(), LOSSES, OUTPUTS), Vec::<String>::new());
    }

    /// Negative control: one flipped bit, one changed digest or one changed
    /// verdict each fails the check, and names what differs.
    #[test]
    fn a_perturbed_recording_fails() {
        let mut o = observed();
        o.train.val[1] ^= 1;
        let problems = compare(&o, LOSSES, OUTPUTS);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("golden val losses"), "{problems:?}");

        let mut o = observed();
        o.answers[2] = Some(34);
        assert_eq!(compare(&o, LOSSES, OUTPUTS).len(), 1);
        o.answers[2] = None;
        assert_eq!(compare(&o, LOSSES, OUTPUTS).len(), 1);

        let mut o = observed();
        o.predictions[0].1 += 1;
        o.verdicts[1] = "rejected@shadow".into();
        o.promoted.push(55);
        assert_eq!(compare(&o, LOSSES, OUTPUTS).len(), 3);
    }

    /// Every recording is complete: a run that computes nothing cannot
    /// match it.
    #[test]
    fn the_recordings_are_filled_in() {
        for losses in [TRAIN_FULL, TRAIN_QUICK] {
            assert!(!losses.train.is_empty() && !losses.val.is_empty());
        }
        assert_eq!(SERVE_ONLINE.predictions.len(), 3);
        assert_eq!(SERVE_ONLINE.verdicts.len(), CYCLES);
        let promotions = SERVE_ONLINE
            .verdicts
            .iter()
            .filter(|v| v.starts_with("promoted"))
            .count();
        assert_eq!(SERVE_ONLINE.promoted.len(), promotions);
    }
}
