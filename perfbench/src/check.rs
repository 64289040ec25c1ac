//! Output checks: a served answer must equal the in-process prediction of
//! the same checkpoint after the server's f32 → text → f32 round trip.

use crate::load::Status;
use stgnn_data::predictor::Prediction;

/// Which part of a prediction a request asked for.
#[derive(Debug, Clone, Copy)]
pub enum Ask {
    City,
    Station(usize),
}

/// The f32 values the server printed for `field`, or `None` when the field
/// is missing or malformed.
fn field_values(body: &str, field: &str) -> Option<Vec<f32>> {
    let needle = format!("\"{field}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let text = if let Some(array) = rest.strip_prefix('[') {
        &array[..array.find(']')?]
    } else {
        &rest[..rest.find(',')?]
    };
    text.split(',').map(|v| v.trim().parse().ok()).collect()
}

/// The prediction a whole-city answer carries, or `None` when a field is
/// missing or malformed.
pub fn answer(body: &str) -> Option<Prediction> {
    Some(Prediction {
        demand: field_values(body, "demand")?,
        supply: field_values(body, "supply")?,
    })
}

/// FNV-1a of `bytes`, to compare weights and predictions across runs.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a prediction's demand then supply bit patterns.
pub fn prediction_digest(p: &Prediction) -> u64 {
    let bytes: Vec<u8> = p
        .demand
        .iter()
        .chain(&p.supply)
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    digest(&bytes)
}

/// Bitwise comparison of one field against the expected values.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

/// Classifies an HTTP answer. `expected` lists the predictions any
/// checkpoint that may have served the request would give for its slot; a
/// non-degraded answer must match one of them exactly.
pub fn classify(status: u16, body: &str, ask: Ask, expected: &[&Prediction]) -> Status {
    if status != 200 {
        return Status::Failed;
    }
    if body.contains("\"degraded\":true") {
        return Status::Degraded;
    }
    if !body.contains("\"degraded\":false") {
        return Status::Failed;
    }
    let (Some(demand), Some(supply)) = (field_values(body, "demand"), field_values(body, "supply"))
    else {
        return Status::Wrong;
    };
    let matches = |p: &&Prediction| match ask {
        Ask::City => same_bits(&demand, &p.demand) && same_bits(&supply, &p.supply),
        Ask::Station(i) => match (p.demand.get(i), p.supply.get(i)) {
            (Some(d), Some(s)) => same_bits(&demand, &[*d]) && same_bits(&supply, &[*s]),
            _ => false,
        },
    };
    if expected.iter().any(matches) {
        Status::Ok
    } else {
        Status::Wrong
    }
}

/// The server's `latency_us` field, if present.
pub fn server_us(body: &str) -> Option<u64> {
    let needle = "\"latency_us\":";
    let start = body.find(needle)? + needle.len();
    let digits: String = body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred() -> Prediction {
        Prediction {
            demand: vec![0.1, 2.5, 1.0e-7, 3.0],
            supply: vec![0.0, 1.25, 7.0, 0.333_333_34],
        }
    }

    /// The body exactly as the server formats it (Rust `{}` of each f32).
    fn body(p: &Prediction, station: Option<usize>, degraded: bool) -> String {
        let arr = |v: &[f32]| {
            let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
            format!("[{}]", items.join(","))
        };
        let (d, s, st) = match station {
            Some(i) => (
                format!("{}", p.demand[i]),
                format!("{}", p.supply[i]),
                format!("\"station\":{i},"),
            ),
            None => (arr(&p.demand), arr(&p.supply), String::new()),
        };
        format!(
            r#"{{"model":"stgnn","slot":150,{st}"demand":{d},"supply":{s},"degraded":{degraded},"source":"model","latency_us":1234}}"#
        )
    }

    #[test]
    fn exact_round_trip_passes() {
        let p = pred();
        assert_eq!(
            classify(200, &body(&p, None, false), Ask::City, &[&p]),
            Status::Ok
        );
        for i in 0..4 {
            let b = body(&p, Some(i), false);
            assert_eq!(classify(200, &b, Ask::Station(i), &[&p]), Status::Ok);
        }
        assert_eq!(server_us(&body(&p, None, false)), Some(1234));
        let parsed = answer(&body(&p, None, false)).expect("a whole-city answer");
        assert_eq!(prediction_digest(&parsed), prediction_digest(&p));
    }

    /// Negative control: one ulp of difference in one value fails the check.
    #[test]
    fn a_perturbed_expectation_fails() {
        let p = pred();
        let served = body(&p, None, false);
        let mut off = pred();
        off.supply[3] = f32::from_bits(off.supply[3].to_bits() + 1);
        assert_eq!(classify(200, &served, Ask::City, &[&off]), Status::Wrong);
        let one = body(&p, Some(3), false);
        assert_eq!(classify(200, &one, Ask::Station(3), &[&off]), Status::Wrong);
        // Any of several allowed versions may match.
        assert_eq!(classify(200, &served, Ask::City, &[&off, &p]), Status::Ok);
    }

    #[test]
    fn degraded_and_error_answers_are_classified() {
        let p = pred();
        assert_eq!(
            classify(200, &body(&p, None, true), Ask::City, &[&p]),
            Status::Degraded
        );
        assert_eq!(
            classify(500, &body(&p, None, false), Ask::City, &[&p]),
            Status::Failed
        );
        assert_eq!(
            classify(200, r#"{"error":"x"}"#, Ask::City, &[&p]),
            Status::Failed
        );
        let truncated = body(&p, None, false).replace("\"supply\"", "\"sup\"");
        assert_eq!(classify(200, &truncated, Ask::City, &[&p]), Status::Wrong);
    }
}
