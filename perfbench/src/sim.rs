//! The simulator phase: a workload's circuits compiled for the paper's
//! processor (Ptree) and the GPU model, run on seeded evidence, values
//! checked against the CPU engine.
//!
//! Cycle counts are deterministic: the same circuit gives the same cycles
//! on every run and host, so ops/cycle and the speed-up over the GPU model
//! are exact, and [`fingerprint`] lets two runs show they repeat bit for
//! bit.

use spn_core::flatten::OpList;
use spn_core::{EvidenceBatch, Spn};
use spn_platforms::{CpuModel, Engine, EngineOptions, GpuModel, PerfReport, ProcessorBackend};
use spn_processor::ProcessorConfig;

use crate::check::sim_agrees;
use crate::trace::{Tracer, ROOT};
use crate::util::{self, geomean, Tally};
use crate::SimSummary;

/// Operations simulated per batch: small circuits get more rows, so that a
/// pass is dominated by simulation rather than per-call set-up.
const SIM_BATCH_OPS: usize = 16_384;

/// The paper's reference figures, printed beside the simulated ones.
pub const PAPER_REFERENCE: &str =
    "paper reference (not an error figure): Ptree peak 11.6 ops/cycle; \
     at least 12x the throughput of the Jetson TX2 GPU. The processor model is unvalidated \
     against silicon: this repository holds no hardware measurement.";

/// One circuit's compiled simulator engines and its checked input batch.
pub struct SimCircuit {
    pub slug: String,
    pub ptree: Engine<ProcessorBackend>,
    pub gpu: Engine<GpuModel>,
}

/// Compiles `spn` for Ptree and the GPU model (part of a workload's set-up
/// where the workload counts it).
pub fn build(slug: &str, spn: &Spn) -> Result<SimCircuit, String> {
    let ops = OpList::from_spn(spn);
    let backend = ProcessorBackend::new(ProcessorConfig::ptree()).map_err(|e| e.to_string())?;
    let ptree = Engine::from_ops(backend, &ops).map_err(|e| format!("{slug} ptree: {e}"))?;
    let gpu = Engine::from_ops(GpuModel::new(), &ops).map_err(|e| format!("{slug} gpu: {e}"))?;
    Ok(SimCircuit {
        slug: slug.to_string(),
        ptree,
        gpu,
    })
}

/// Seeded inputs of one circuit plus the CPU engine's answers on them.
pub struct SimInput {
    pub batch: EvidenceBatch,
    pub reference: Vec<f64>,
}

pub fn inputs(seed: u64, slug: &str, spn: &Spn) -> Result<SimInput, String> {
    let mut rng = util::stream(seed, &format!("sim/{slug}"));
    let n = spn.num_vars();
    let count = (SIM_BATCH_OPS / OpList::from_spn(spn).num_ops().max(1)).clamp(4, 1024);
    let rows: Vec<_> = (0..count)
        .map(|_| util::random_evidence(&mut rng, n, 0.3))
        .collect();
    let batch = EvidenceBatch::from_evidences(n, &rows).map_err(|e| e.to_string())?;
    let mut cpu = Engine::new(CpuModel::scalar(), spn, EngineOptions::default())
        .map_err(|e| format!("{slug} cpu: {e}"))?;
    let reference = cpu.execute_batch(&batch).map_err(|e| e.to_string())?.values;
    Ok(SimInput { batch, reference })
}

/// Per-circuit exact counters of one run.
#[derive(Debug, Clone)]
pub struct CircuitCounters {
    pub slug: String,
    pub ptree: PerfReport,
    pub gpu: PerfReport,
}

/// FNV-1a over every exact counter, so runs can be compared at a glance.
pub fn fingerprint(counters: &[CircuitCounters]) -> u64 {
    let mut h = util::FNV_OFFSET;
    for c in counters {
        for r in [&c.ptree, &c.gpu] {
            for x in [
                r.queries,
                r.cycles,
                r.source_ops,
                r.issued_ops,
                r.instructions,
                r.stall_cycles,
            ] {
                h = util::fnv1a(h, x.to_le_bytes());
            }
        }
    }
    h
}

/// Runs the simulator phase: one GPU-model pass and two Ptree passes per
/// circuit, every pass's values checked against the CPU and the second
/// Ptree pass's counters checked equal to the first's.
pub fn run_phase(
    circuits: &mut [SimCircuit],
    inputs: &[SimInput],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(SimSummary, Vec<CircuitCounters>), String> {
    let mut counters = Vec::with_capacity(circuits.len());
    for (k, (c, input)) in circuits.iter_mut().zip(inputs).enumerate() {
        let gpu = c
            .gpu
            .execute_batch(&input.batch)
            .map_err(|e| e.to_string())?;
        tally.record(values_agree(&gpu.values, &input.reference));
        let mut passes = Vec::with_capacity(2);
        for _ in 0..2 {
            let span = tracer.begin("processor.execute_batch", ROOT, k as u64);
            let out = c
                .ptree
                .execute_batch(&input.batch)
                .map_err(|e| e.to_string())?;
            tracer.end(span);
            tally.record(values_agree(&out.values, &input.reference));
            passes.push(out.perf);
        }
        tally.record(passes[0] == passes[1]);
        counters.push(CircuitCounters {
            slug: c.slug.clone(),
            ptree: passes.swap_remove(0),
            gpu: gpu.perf,
        });
    }
    let ptree: Vec<f64> = counters.iter().map(|c| c.ptree.ops_per_cycle()).collect();
    let ratio: Vec<f64> = counters
        .iter()
        .map(|c| c.ptree.ops_per_cycle() / c.gpu.ops_per_cycle())
        .collect();
    Ok((
        SimSummary {
            ops_per_cycle: geomean(&ptree),
            speedup_vs_gpu: geomean(&ratio),
            circuits: circuits.len(),
        },
        counters,
    ))
}

fn values_agree(got: &[f64], reference: &[f64]) -> bool {
    got.len() == reference.len() && got.iter().zip(reference).all(|(&g, &r)| sim_agrees(g, r))
}

/// Prints the exact per-circuit counters, the fingerprint and the paper's
/// reference figures.
pub fn print_counters(summary: &SimSummary, counters: &[CircuitCounters]) {
    println!("\nsimulated (exact)    ptree_cycles/q  ptree_ops/cycle  stall_cycles  gpu_cycles/q  gpu_ops/cycle");
    for c in counters {
        println!(
            "{:<20} {:>14} {:>16} {:>13} {:>13} {:>14}",
            c.slug,
            c.ptree.cycles_per_query(),
            c.ptree.ops_per_cycle(),
            c.ptree.stall_cycles,
            c.gpu.cycles_per_query(),
            c.gpu.ops_per_cycle()
        );
    }
    println!(
        "geomean Ptree ops/cycle {} ; geomean Ptree/GPU {}x ; sim fingerprint {:016x}",
        summary.ops_per_cycle,
        summary.speedup_vs_gpu,
        fingerprint(counters)
    );
    println!("{PAPER_REFERENCE}");
}
