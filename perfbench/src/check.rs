//! Answer checks.  Expected answers are worked out before the timed window;
//! these functions compare one observed answer against them.

use spn_core::wire::{QueryRequest, QueryResponse};
use spn_platforms::QueryOutput;
use spn_serve::json::{self, Value};
use spn_serve::tcp::{decode_response, encode_response};

use crate::util::Tally;

/// Relative tolerance between simulated and CPU values (the tolerance
/// `spn_bench::run_all_platforms` applies across platforms).
pub const SIM_REL_TOL: f64 = 1e-9;

/// z of a two-sided 99% normal interval.
pub const Z99: f64 = 2.576;

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// An answer's values, assignments and standard errors equal the expected
/// ones bit for bit.
fn same_answer(
    values: &[f64],
    assignments: &Option<Vec<Vec<bool>>>,
    std_err: &Option<Vec<f64>>,
    expected: &QueryOutput,
) -> bool {
    same_bits(values, &expected.values)
        && *assignments == expected.assignments
        && match (std_err, &expected.std_err) {
            (Some(a), Some(b)) => same_bits(a, b),
            (None, None) => true,
            _ => false,
        }
}

/// An engine answer equals the expected one bit for bit (values, MAP or
/// sampled assignments, standard errors).
pub fn output_matches(got: &QueryOutput, expected: &QueryOutput) -> bool {
    same_answer(&got.values, &got.assignments, &got.std_err, expected)
}

/// A decoded wire response equals the expected in-process answer bit for
/// bit and echoes the request id.
pub fn response_matches(got: &QueryResponse, id: u64, expected: &QueryOutput) -> bool {
    got.id == id && same_answer(&got.values, &got.assignments, &got.std_err, expected)
}

/// The wire response carrying `answer` to `request`, with id `id`.
pub fn response_for(request: &QueryRequest, id: u64, answer: &QueryOutput) -> QueryResponse {
    QueryResponse {
        id,
        model: request.model.clone(),
        mode: request.query.mode(),
        numeric: request.numeric,
        precision: request.precision,
        values: answer.values.clone(),
        assignments: answer.assignments.clone(),
        std_err: answer.std_err.clone(),
        samples: answer.samples,
    }
}

/// Checks one wire response line against the expected answer.
pub fn line_matches(line: &str, id: u64, expected: &QueryOutput) -> bool {
    decode_response(line.trim_end()).is_ok_and(|r| response_matches(&r, id, expected))
}

/// Checks one session response line: `ok`, the echoed id, and a value equal
/// bit for bit to the expected full-evidence marginal.
pub fn session_line_matches(line: &str, id: u64, expected: f64) -> bool {
    let Ok(doc) = json::parse(line.trim_end()) else {
        return false;
    };
    matches!(doc.get("ok"), Some(Value::Bool(true)))
        && doc.get("id").and_then(Value::as_f64) == Some(id as f64)
        && doc
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(|v| v.to_bits() == expected.to_bits())
}

/// Simulated value agrees with the CPU value within [`SIM_REL_TOL`].
pub fn sim_agrees(sim: f64, cpu: f64) -> bool {
    (sim - cpu).abs() <= SIM_REL_TOL * cpu.abs().max(1e-30)
}

/// An expectation estimate misses its own 99% interval around the exact
/// value (with a 1e-12 relative floor for rounding in the exact value).
pub fn ci_miss(estimate: f64, std_err: f64, exact: f64) -> bool {
    (estimate - exact).abs() > Z99 * std_err + 1e-12 * exact.abs()
}

/// Half-width of a Hoeffding interval that holds with probability
/// 1 - 1e-9 for the mean of `n` independent draws bounded in [0, 1].
pub fn hoeffding(n: u32) -> f64 {
    ((2.0 / 1e-9f64).ln() / (2.0 * f64::from(n))).sqrt()
}

/// The pass rule for one expectation answer: a probability, within the
/// Hoeffding interval of its `n` draws around the exact value.  Unlike the
/// estimator's own standard error, the bound holds for every answer however
/// many answers share their draws (rows of the same seed and stream do).
pub fn expectation_ok(estimate: f64, exact: f64, n: u32) -> bool {
    (0.0..=1.0).contains(&estimate) && (estimate - exact).abs() <= hoeffding(n)
}

/// Notes how many `(estimate, std_err, exact)` answers fall outside their
/// own 99% interval; returns that share.  Answers sharing a seed share their
/// draws, so the misses of one run are not independent: this is a measured
/// coverage figure, not a pass rule.
pub fn note_ci99(triples: &[(f64, f64, f64)], notes: &mut Vec<String>) -> f64 {
    let misses = triples
        .iter()
        .filter(|&&(est, se, exact)| ci_miss(est, se, exact))
        .count();
    notes.push(format!(
        "expectation answers outside their own 99% interval: {misses} of {} distinct (measured, not a pass rule)",
        triples.len()
    ));
    misses as f64 / triples.len().max(1) as f64
}

/// The checker's self-test: one clean answer must be accepted and the same
/// answer with one bit of its first value flipped must be counted as a
/// failure.  Each of the two is one entry of the returned tally, failed when
/// the checker got it wrong.
pub fn self_test(accepts: impl Fn(&QueryOutput) -> bool, expected: &QueryOutput) -> Tally {
    let mut tally = Tally::new("checker self-test");
    let mut corrupted = expected.clone();
    corrupted.values[0] = f64::from_bits(corrupted.values[0].to_bits() ^ 1);
    tally.record(accepts(expected));
    tally.record(!accepts(&corrupted));
    tally
}

/// [`self_test`] through the wire path: the answer is encoded as a response
/// line, decoded and compared, as every one-shot wire answer is.
pub fn wire_self_test(request: &QueryRequest, expected: &QueryOutput) -> Tally {
    let accepts = |answer: &QueryOutput| {
        let line = encode_response(&response_for(request, request.id, answer));
        line_matches(&line, request.id, expected)
    };
    self_test(accepts, expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_rule_uses_a_hoeffding_band() {
        assert!(hoeffding(32) > 0.5 && hoeffding(32) < 0.6);
        assert!(expectation_ok(0.5, 0.6, 32));
        assert!(!expectation_ok(0.5, 0.0, 1_000_000));
        assert!(!expectation_ok(1.5, 1.0, 32));
        assert!(ci_miss(0.6, 0.01, 0.5));
        assert!(!ci_miss(0.5, 0.0, 0.5));
    }

    #[test]
    fn sim_tolerance_is_relative() {
        assert!(sim_agrees(1.0 + 1e-12, 1.0));
        assert!(!sim_agrees(1.0 + 1e-6, 1.0));
    }
}
