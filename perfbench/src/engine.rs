//! `engine-batch`: in-process, no front end.  The lane-blocked CPU engine
//! answers 256-row marginal, MAP and conditional batches plus small
//! likelihood-weighted expectation batches on Audio (fits in cache) and
//! KDDCup2k (does not), and the nine Fig. 4 circuits are compiled for the
//! processor and simulated next to the GPU model.

use std::time::{Duration, Instant};

use rand::RngCore;
use spn_core::wire::build_query_with_spec;
use spn_core::{EvidenceBatch, QueryBatch, QueryMode, SampleMethod, SampleSpec, Spn};
use spn_learn::Benchmark;
use spn_platforms::{CpuModel, Engine, EngineOptions, QueryOutput};

use crate::check::{self, output_matches};
use crate::sim::{self, SimCircuit};
use crate::trace::{Tracer, ROOT};
use crate::util::{self, Tally};
use crate::{repeated_setup, Args, Outcome, PeakRss, Window};

/// Rows of the exact-mode batches.
pub const BATCH_ROWS: usize = 256;
/// Rows and draws of the expectation batches: sized so that an expectation
/// batch costs about what a MAP batch does on the same circuit.
const EXP_ROWS: usize = 4;
const EXP_DRAWS: u32 = 16;
/// Distinct input batches per (circuit, mode): Audio's batches cost about a
/// tenth of KDDCup2k's, so Audio gets more of them and a run holds enough
/// operations for a p99 with ten samples beyond it.
const VARIANTS: [usize; 2] = [4, 2];

/// The Fig. 4 slug of a benchmark circuit.
pub fn slug(b: Benchmark) -> &'static str {
    match b {
        Benchmark::Netflix => "netflix",
        Benchmark::Bbc => "bbc",
        Benchmark::BioResponse => "bio-response",
        Benchmark::Audio => "audio",
        Benchmark::Cpu => "cpu",
        Benchmark::Msnbc => "msnbc",
        Benchmark::EegEye => "eeg-eye",
        Benchmark::KddCup2k => "kddcup2k",
        Benchmark::Banknote => "banknote",
    }
}

/// The nine Fig. 4 circuits, in the paper's order.
pub fn fig4_circuits() -> Vec<(String, Spn)> {
    Benchmark::all()
        .into_iter()
        .map(|b| (slug(b).to_string(), b.spn()))
        .collect()
}

/// A batch of `rows` queries of `mode` drawn from the seeded stream.
pub fn batch_query(
    rng: &mut rand::rngs::StdRng,
    mode: QueryMode,
    n: usize,
    rows: usize,
    draws: u32,
) -> Result<(QueryBatch, Vec<spn_core::Evidence>), String> {
    let mut targets = Vec::with_capacity(rows);
    let mut givens = Vec::with_capacity(rows);
    for _ in 0..rows {
        match mode {
            QueryMode::Joint => targets.push(util::random_evidence(rng, n, 1.0)),
            QueryMode::Expectation => targets.push(util::sparse_evidence(rng, n, 2)),
            QueryMode::Conditional => {
                targets.push(util::random_evidence(rng, n, 0.3));
                givens.push(util::random_evidence(rng, n, 0.1));
            }
            _ => targets.push(util::random_evidence(rng, n, 0.3)),
        }
    }
    let spec = SampleSpec {
        seed: rng.next_u64() >> 12,
        n_samples: draws,
        method: if mode == QueryMode::Expectation {
            SampleMethod::LikelihoodWeighted
        } else {
            SampleMethod::Ancestral
        },
    };
    let givens = (mode == QueryMode::Conditional).then_some(givens);
    let query = build_query_with_spec(mode, &targets, givens.as_deref(), spec)
        .map_err(|e| e.to_string())?;
    Ok((query, targets))
}

/// One timed operation: a batch on one CPU circuit and its expected answer
/// from the scalar `run_into` oracle.
struct Op {
    circuit: usize,
    query: QueryBatch,
    expected: QueryOutput,
}

struct Stack {
    cpu: Vec<Engine<CpuModel>>,
    sims: Vec<SimCircuit>,
}

fn setup(cpu_circuits: &[&(String, Spn)], fig4: &[(String, Spn)]) -> Result<Stack, String> {
    let mut cpu = Vec::new();
    for (name, spn) in cpu_circuits {
        let mut engine = Engine::new(CpuModel::new(), spn, EngineOptions::default())
            .map_err(|e| format!("{name}: {e}"))?;
        engine.prepare_map().map_err(|e| e.to_string())?;
        cpu.push(engine);
    }
    let sims = fig4
        .iter()
        .map(|(slug, spn)| sim::build(slug, spn))
        .collect::<Result<_, _>>()?;
    Ok(Stack { cpu, sims })
}

/// Closed loop over the operations, cycling until `seconds` have elapsed.
fn op_loop(
    engines: &mut [Engine<CpuModel>],
    ops: &[Op],
    seconds: f64,
    first: usize,
    tracer: &mut Tracer,
) -> (Window, usize) {
    let mut window = Window::new("main window");
    let start = Instant::now();
    window.start = start;
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut last = start;
    let mut k = first;
    while Instant::now() < deadline {
        let op = &ops[k % ops.len()];
        let root = tracer.begin("loadgen.request", ROOT, k as u64);
        let t = Instant::now();
        window.lag_ms.push(util::ms(t - last));
        let out = tracer.span("engine.execute_query", root, k as u64, || {
            engines[op.circuit]
                .execute_query(&op.query)
                .map_err(|e| e.to_string())
        });
        let done = Instant::now();
        let ok = tracer.span("check", root, k as u64, || {
            out.as_ref().is_ok_and(|o| output_matches(o, &op.expected))
        });
        tracer.end(root);
        last = Instant::now();
        if window.tally.record(ok) {
            window.latencies_ms.push(util::ms(done - t));
            window.complete(done, op.query.len() as u64);
        }
        k += 1;
    }
    window.seconds = start.elapsed().as_secs_f64();
    (window, k)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut phases = crate::PhaseClock::start();
    let mut notes = Vec::new();
    let fig4 = fig4_circuits();
    let cpu_circuits: Vec<&(String, Spn)> = fig4
        .iter()
        .filter(|(slug, _)| slug == "audio" || slug == "kddcup2k")
        .collect();

    // Inputs and expected answers, before any timing.
    let mut oracle_tally = Tally::new("oracle");
    let mut rng = util::stream(args.seed, "engine-batch");
    let mut ops = Vec::new();
    let mut estimates = Vec::new();
    for (c, (name, spn)) in cpu_circuits.iter().enumerate() {
        let mut oracle = Engine::new(CpuModel::scalar(), spn, EngineOptions::default())
            .map_err(|e| format!("{name}: {e}"))?;
        let n = spn.num_vars();
        for mode in [
            QueryMode::Marginal,
            QueryMode::Map,
            QueryMode::Conditional,
            QueryMode::Expectation,
        ] {
            for _ in 0..VARIANTS[c] {
                let rows = if mode == QueryMode::Expectation {
                    EXP_ROWS
                } else {
                    BATCH_ROWS
                };
                let (query, targets) = batch_query(&mut rng, mode, n, rows, EXP_DRAWS)?;
                let expected = oracle
                    .execute_query(&query)
                    .map_err(|e| format!("oracle {name} {}: {e}", mode.name()))?;
                if mode == QueryMode::Expectation {
                    let batch =
                        EvidenceBatch::from_evidences(n, &targets).map_err(|e| e.to_string())?;
                    let exact = oracle
                        .execute_batch(&batch)
                        .map_err(|e| e.to_string())?
                        .values;
                    let se = expected.std_err.clone().unwrap_or_default();
                    for ((&est, &se), &exact) in expected.values.iter().zip(&se).zip(&exact) {
                        estimates.push((est, se, exact));
                    }
                }
                ops.push(Op {
                    circuit: c,
                    query,
                    expected,
                });
            }
        }
    }
    util::shuffle(&mut rng, &mut ops);
    for &(est, _, exact) in &estimates {
        oracle_tally.record(check::expectation_ok(est, exact, EXP_DRAWS));
    }
    check::note_ci99(&estimates, &mut notes);
    let sim_inputs = fig4
        .iter()
        .map(|(slug, spn)| sim::inputs(args.seed, slug, spn))
        .collect::<Result<Vec<_>, _>>()?;

    phases.mark("inputs and expected answers");
    let rss = PeakRss::reset();
    let (setup_times, mut stack) = repeated_setup(|| setup(&cpu_circuits, &fig4), drop)?;

    phases.mark("set-up");
    // The checker is tested on the engine answer and on its wire form.
    let mut self_test = check::self_test(|o| output_matches(o, &ops[0].expected), &ops[0].expected);
    let request = spn_core::wire::QueryRequest {
        id: 7,
        model: "engine-batch".to_string(),
        query: ops[0].query.clone(),
        numeric: spn_core::NumericMode::Linear,
        precision: spn_core::Precision::F64,
    };
    let wire_test = check::wire_self_test(&request, &ops[0].expected);
    self_test.attempted += wire_test.attempted;
    self_test.failed += wire_test.failed;

    let mut tracer = Tracer::new(false, Instant::now());
    let windows = crate::run_windows(args, &mut tracer, |seconds, _, next, tracer| {
        let (window, next) = op_loop(&mut stack.cpu, &ops, seconds, next as usize, tracer);
        (window, next as u64)
    });
    let peak_rss_mb = rss.read(&mut notes);
    phases.mark("warm-up and main window");
    let mut sim_tally = Tally::new("simulator");
    let (summary, counters) =
        sim::run_phase(&mut stack.sims, &sim_inputs, &mut sim_tally, &mut tracer)?;
    sim::print_counters(&summary, &counters);

    phases.mark("simulator");
    let measured = crate::Measured {
        fig4: &fig4,
        setup_times,
        tallies: vec![self_test, oracle_tally],
        windows,
        sim: summary,
        sim_tally,
        peak_rss_mb,
    };
    crate::finish(args, measured, &mut tracer, notes, phases)
}
