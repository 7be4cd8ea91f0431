//! The benchmark of record for the SPN workspace.
//!
//! ```text
//! perfbench --workload <wire-lone|wire-open|wire-session|engine-batch>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input — circuits drawn at random, evidence rows, mode order,
//! sample seeds — is derived from `--seed`.  Expected answers are worked out
//! before the timed window and every operation is checked against them.
//! Human-readable tables go to standard output first; the last line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`.  See `LAYERS.md` for what each metric means
//! and which end-to-end metric it should move.

mod check;
mod engine;
mod layers;
mod sim;
mod trace;
mod util;
mod wire;

use util::{median, percentile, sorted, Tally};

/// Fewest repeats of a workload's set-up, and the wall time the repeats
/// fill at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 31;
pub const SETUP_BUDGET_S: f64 = 1.0;
/// Most repeats: bounds the loopback sockets a cheap `wire-*` set-up
/// leaves in `TIME_WAIT`.
pub const SETUP_MAX_REPEATS: usize = 5000;

/// Longest a run may take before it gives up without a result.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(170);

/// Fewest samples behind one p99: ten of them lie beyond it.
pub const P99_SAMPLES: usize = 1000;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["wire-lone", "wire-open", "wire-session", "engine-batch"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count or exact figure).
    pub samples: u64,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// What one main window measured.
#[derive(Debug, Clone)]
pub struct Window {
    /// Per-operation latency seen by the load generator.
    pub latencies_ms: Vec<f64>,
    /// How late each operation was sent against its due time.
    pub lag_ms: Vec<f64>,
    pub ok_ops: u64,
    pub ok_queries: u64,
    /// Wall time of the window.
    pub seconds: f64,
    pub tally: Tally,
    /// When the window opened, and when each correct operation completed
    /// (seconds since then) with its query count.
    pub start: std::time::Instant,
    pub completions: Vec<(f64, u64)>,
    /// `false` when the load did not follow its specification (the
    /// generator fell behind or the backlog grew).
    pub valid: bool,
    pub notes: Vec<String>,
}

impl Window {
    pub fn new(phase: &str) -> Window {
        Window {
            latencies_ms: Vec::new(),
            lag_ms: Vec::new(),
            ok_ops: 0,
            ok_queries: 0,
            seconds: 0.0,
            tally: Tally::new(phase),
            start: std::time::Instant::now(),
            completions: Vec::new(),
            valid: true,
            notes: Vec::new(),
        }
    }

    /// Counts one correct operation of `queries` queries completed at `at`.
    pub fn complete(&mut self, at: std::time::Instant, queries: u64) {
        self.ok_ops += 1;
        self.ok_queries += queries;
        self.completions.push((
            at.saturating_duration_since(self.start).as_secs_f64(),
            queries,
        ));
    }

    /// Completions per second as the median over one-second slices of the
    /// window (operations, or queries with `queries`), so that a stall on a
    /// shared host moves one slice, not the figure.  [`Window::whole_rate`]
    /// is the plain figure.
    pub fn rate(&self, queries: bool) -> f64 {
        let slices = (self.seconds as usize).clamp(1, 60);
        let width = self.seconds / slices as f64;
        let mut counts = vec![0u64; slices];
        for &(t, q) in &self.completions {
            let i = ((t / width) as usize).min(slices - 1);
            counts[i] += if queries { q } else { 1 };
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
        median(&rates)
    }

    /// Correct operations per second over the whole window.
    pub fn whole_rate(&self) -> f64 {
        self.ok_ops as f64 / self.seconds
    }

    /// Nearest-rank percentile of the window's latencies.
    pub fn p(&self, q: f64) -> f64 {
        percentile(&sorted(&self.latencies_ms), q)
    }
}

/// Simulator figures of one run.
#[derive(Debug, Clone)]
pub struct SimSummary {
    pub ops_per_cycle: f64,
    pub speedup_vs_gpu: f64,
    pub circuits: usize,
}

/// Everything a workload hands back to `main`.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tallies: Vec<Tally>,
    pub notes: Vec<String>,
    pub valid: bool,
}

/// Assembles the end-to-end metrics shared by every workload.
fn end_to_end(
    setup_times: &[f64],
    window: &Window,
    sim: &SimSummary,
    tallies: &[Tally],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let n = window.latencies_ms.len() as u64;
    vec![
        metric(
            "setup_s",
            median(setup_times),
            "s",
            setup_times.len() as u64,
        ),
        metric("latency_p50_ms", window.p(0.50), "ms", n),
        metric("requests_per_s", window.rate(false), "1/s", window.ok_ops),
        metric("queries_per_s", window.rate(true), "1/s", window.ok_queries),
        metric(
            "sim_ops_per_cycle",
            sim.ops_per_cycle,
            "ops/cycle",
            sim.circuits as u64,
        ),
        metric(
            "sim_speedup_vs_gpu",
            sim.speedup_vs_gpu,
            "x",
            sim.circuits as u64,
        ),
        metric(
            "ok_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
}

/// Per-layer metrics describing the load generator and the tracing itself,
/// from the traced half of a traced run (`untraced` is the other half; its
/// whole-window p99 is `loadgen.latency_p99_ms`).
fn loadgen_metrics(untraced: &Window, traced: &Window, spans: usize) -> Vec<Metric> {
    let lag = sorted(&traced.lag_ms);
    vec![
        metric(
            "loadgen.latency_p99_ms",
            untraced.p(0.99),
            "ms",
            untraced.latencies_ms.len() as u64,
        ),
        metric(
            "loadgen.lag_p99_ms",
            percentile(&lag, 0.99),
            "ms",
            lag.len() as u64,
        ),
        metric("loadgen.sent", traced.tally.attempted as f64, "count", 1),
        metric("loadgen.ok", traced.tally.ok() as f64, "count", 1),
        metric("loadgen.failed", traced.tally.failed as f64, "count", 1),
        metric(
            "trace.overhead_p50_pct",
            100.0 * (traced.p(0.5) / untraced.p(0.5) - 1.0),
            "%",
            traced.latencies_ms.len() as u64,
        ),
        metric("trace.spans", spans as f64, "count", 1),
    ]
}

/// Wall time spent in each phase of a run, for the notes.
pub struct PhaseClock {
    last: std::time::Instant,
    marks: Vec<(&'static str, f64)>,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            last: std::time::Instant::now(),
            marks: Vec::new(),
        }
    }

    /// Closes the phase that ran since the previous mark.
    pub fn mark(&mut self, phase: &'static str) {
        let now = std::time::Instant::now();
        self.marks.push((phase, (now - self.last).as_secs_f64()));
        self.last = now;
    }

    pub fn note(&self) -> String {
        let parts: Vec<String> = self
            .marks
            .iter()
            .map(|(p, s)| format!("{p} {s:.2}"))
            .collect();
        format!("phase wall times (s): {}", parts.join(", "))
    }
}

/// The warm-up and measured windows of one run.
pub struct Windows {
    pub warm: Tally,
    pub untraced: Window,
    /// The traced half of a traced run.
    pub traced: Option<Window>,
}

/// Runs the warm-up, then the measured window: whole when untraced, as an
/// untraced and a traced half when tracing.  `window(seconds, first_id,
/// next, tracer)` runs one window starting at position `next` of the
/// workload's input cycle and returns the position after it.
pub fn run_windows(
    args: &Args,
    tracer: &mut trace::Tracer,
    mut window: impl FnMut(f64, u64, u64, &mut trace::Tracer) -> (Window, u64),
) -> Windows {
    let (warm, next) = window(warm_up(args.seconds), 1 << 41, 0, tracer);
    let mut warm = warm.tally;
    warm.phase = "warm-up".to_string();
    if !args.trace {
        let untraced = window(args.seconds, 1, next, tracer).0;
        return Windows {
            warm,
            untraced,
            traced: None,
        };
    }
    let (untraced, next) = window(args.seconds / 2.0, 1, next, tracer);
    tracer.set_on(true);
    let (mut traced, _) = window(args.seconds / 2.0, 1 << 40, next, tracer);
    tracer.set_on(false);
    traced.tally.phase = "main window (traced)".to_string();
    Windows {
        warm,
        untraced,
        traced: Some(traced),
    }
}

/// What a workload measured, handed to [`finish`].
pub struct Measured<'a> {
    pub fig4: &'a [(String, spn_core::Spn)],
    pub setup_times: Vec<f64>,
    /// Phases before the windows (checker self-test, oracle, set-up, ...).
    pub tallies: Vec<Tally>,
    pub windows: Windows,
    pub sim: SimSummary,
    pub sim_tally: Tally,
    /// High-water RSS from just before set-up to the end of the main
    /// window (see [`PeakRss`]).
    pub peak_rss_mb: f64,
}

/// The part of a run every workload shares after its simulator pass: run
/// validity, the per-phase tallies, and the end-to-end metrics or, when
/// tracing, the per-layer ones.
pub fn finish(
    args: &Args,
    measured: Measured<'_>,
    tracer: &mut trace::Tracer,
    mut notes: Vec<String>,
    mut phases: PhaseClock,
) -> Result<Outcome, String> {
    let Measured {
        fig4,
        setup_times,
        mut tallies,
        windows,
        sim,
        sim_tally,
        peak_rss_mb,
    } = measured;
    let Windows {
        warm,
        untraced,
        traced,
    } = windows;
    notes.extend(untraced.notes.iter().cloned());
    notes.push(format!(
        "over the whole main window: latency p99 {:.6} ms, {:.3} correct operations per second \
         (requests_per_s is the median over one-second slices)",
        untraced.p(0.99),
        untraced.whole_rate()
    ));
    let mut valid = untraced.valid;
    if let Some(t) = &traced {
        notes.extend(t.notes.iter().cloned());
        valid &= t.valid;
    }
    if !args.trace && untraced.latencies_ms.len() < P99_SAMPLES {
        notes.push(format!(
            "only {} latency samples: fewer than 10 lie beyond p99",
            untraced.latencies_ms.len()
        ));
        valid = false;
    }
    tallies.push(warm);
    tallies.push(untraced.tally.clone());
    if let Some(t) = &traced {
        tallies.push(t.tally.clone());
    }
    tallies.push(sim_tally);
    let metrics = match &traced {
        Some(traced) => {
            let mut metrics = loadgen_metrics(&untraced, traced, tracer.len());
            let mut layer_tally = Tally::new("layer pass");
            metrics.extend(layers::run(
                args,
                fig4,
                tracer,
                &mut layer_tally,
                &mut notes,
            )?);
            tallies.push(layer_tally);
            layers::finish_trace(args, tracer, &mut notes);
            metrics
        }
        None => end_to_end(&setup_times, &untraced, &sim, &tallies, peak_rss_mb),
    };
    phases.mark("metrics and layer pass");
    let setup_sorted = sorted(&setup_times);
    let q = |p: f64| percentile(&setup_sorted, p);
    notes.push(format!(
        "set-up repeated {} times (s): min {:.6}, p25 {:.6}, median {:.6}, p75 {:.6}, max {:.6}",
        setup_times.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    ));
    notes.push(phases.note());
    Ok(Outcome {
        metrics,
        tallies,
        notes,
        valid,
    })
}

/// Runs `setup` at least [`SETUP_REPEATS`] times and until
/// [`SETUP_BUDGET_S`] has gone into it (at most [`SETUP_MAX_REPEATS`]
/// times), tearing down every stack but the
/// last; returns the set-up times in seconds and the last stack.  Cheap
/// set-ups get many repeats, so their median is steady.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(Vec<f64>, S), String> {
    let mut times = Vec::new();
    let started = std::time::Instant::now();
    loop {
        let start = std::time::Instant::now();
        let stack = setup()?;
        times.push(start.elapsed().as_secs_f64());
        let enough =
            times.len() >= SETUP_REPEATS && started.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        if enough || times.len() >= SETUP_MAX_REPEATS {
            return Ok((times, stack));
        }
        teardown(stack);
    }
}

/// The resident-set high-water mark of the program's part of a run: reset
/// after the benchmark has built its inputs and expected answers, read
/// after the main window and before the simulator phase, so neither the
/// benchmark's own oracles nor its simulator pass are counted.
pub struct PeakRss {
    reset: bool,
    baseline_mb: f64,
}

impl PeakRss {
    /// Call just before set-up.
    pub fn reset() -> PeakRss {
        let reset = util::reset_peak_rss();
        PeakRss {
            reset,
            baseline_mb: util::peak_rss_mb(),
        }
    }

    /// Call right after the main window; returns the high-water mark in MB
    /// and notes what it covers.
    pub fn read(&self, notes: &mut Vec<String>) -> f64 {
        let peak = util::peak_rss_mb();
        notes.push(if self.reset {
            format!(
                "peak RSS {peak:.1} MB from set-up to the end of the main window \
                 ({:.1} MB resident when set-up began)",
                self.baseline_mb
            )
        } else {
            format!(
                "peak RSS {peak:.1} MB: the high-water mark could not be reset, so it \
                 also covers building the inputs and expected answers"
            )
        });
        peak
    }
}

/// Untimed traffic before the window, answers checked, so that lazy state
/// and caches are filled before timing starts.
pub fn warm_up(seconds: f64) -> f64 {
    (seconds * 0.3).clamp(0.5, 3.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    // A stuck program must not hang the benchmark: whatever is still running
    // after this long is abandoned and the run fails without a result.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let result = match args.workload.as_str() {
        "engine-batch" => engine::run(&args),
        _ => wire::run(&args),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    };

    println!("\nphase                 attempted          ok      failed");
    for t in &outcome.tallies {
        println!(
            "{:<20} {:>10} {:>11} {:>11}",
            t.phase,
            t.attempted,
            t.ok(),
            t.failed
        );
    }
    let attempted: u64 = outcome.tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = outcome.tallies.iter().map(|t| t.failed).sum();
    println!(
        "failed_share = {} ({failed} of {attempted} operations failed, were refused or wrong)",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(t) = outcome
        .tallies
        .iter()
        .find(|t| t.phase == "checker self-test")
    {
        println!(
            "checker self-test: a clean answer was accepted and the same answer with one bit \
             flipped was counted as a failure: {} ({} of {} checks right)",
            if t.failed == 0 { "yes" } else { "NO" },
            t.ok(),
            t.attempted
        );
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!("\nmetric                                   value          unit       samples");
    let mut all_finite = true;
    for m in &outcome.metrics {
        all_finite &= m.value.is_finite();
        println!(
            "{:<36} {:>16} {:<10} {:>8}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
    // `correct` is about answers; a run whose load did not follow its
    // specification is reported as invalid here instead (see the notes).
    let correct = failed == 0 && all_finite && attempted > 0;
    println!(
        "run validity: {}",
        if outcome.valid {
            "valid"
        } else {
            "INVALID (the load did not follow its specification; see the notes)"
        }
    );
    let fields: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
}
