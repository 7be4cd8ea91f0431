//! The traced run's layer pass: the benchmark calls each layer's public
//! functions itself, inside spans, on seed-derived inputs, and turns the
//! timings and counters into the per-layer metrics.
//!
//! The pass is the same for every workload, so a per-layer metric means the
//! same thing whichever workload's traced run reports it.  Serving layers
//! are driven in the load shape the metric belongs to (see `LAYERS.md`):
//! the `wire-lone` shape for medians and waiting, the `wire-open` shape for
//! tails and coalescing, the `wire-session` walk for sessions.  Kernels,
//! compiler, simulator and GPU model run on the Fig. 4 circuits.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use spn_compiler::Compiler;
use spn_core::flatten::OpList;
use spn_core::query::{conditional_values, MaxProductProgram};
use spn_core::vectorized::run_lane_block;
use spn_core::{
    EvidenceBatch, InputRecipe, NumericMode, QueryBatch, QueryMode, SampleMethod, SampleSpec,
    SamplerProgram, Spn,
};
use spn_platforms::{CpuModel, Engine, EngineOptions, GpuModel};
use spn_processor::{MultiCoreConfig, MultiCoreProcessor, Processor, ProcessorConfig};
use spn_serve::json;
use spn_serve::tcp::{decode_request, encode_response};
use spn_serve::{ModelVariant, SessionOpen, TcpServer};

use crate::check::{
    line_matches, output_matches, response_for, response_matches, same_bits, sim_agrees,
};
use crate::engine::batch_query;
use crate::trace::{Tracer, ROOT};
use crate::util::{self, median, percentile, repeat_for, sorted, Tally};
use crate::wire::{self, PoolItem, OPEN_RATE, SESSION_MODEL};
use crate::{metric, Args, Metric};

/// Length of each in-process and socket probe.
const PROBE: Duration = Duration::from_millis(1000);
/// Length of each micro-measurement.
const MICRO: Duration = Duration::from_millis(60);
/// Circuits whose CPU kernels are timed: the serving models and the two
/// `engine-batch` circuits (Audio fits in cache, KDDCup2k does not).
const CPU_CIRCUITS: [&str; 4] = ["banknote", "cpu", "audio", "kddcup2k"];
/// Queries of the 2-core sharded multi-core run.
const MULTICORE_QUERIES: usize = 16;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Codec timings over a pool's lines: `json::parse` + `decode_request`,
/// and `encode_response` of the expected answers (µs per call).
fn codec_times(pool: &[PoolItem], tracer: &mut Tracer, tally: &mut Tally) -> (Vec<f64>, Vec<f64>) {
    let mut decode = Vec::with_capacity(pool.len());
    let mut encode = Vec::with_capacity(pool.len());
    for (i, item) in pool.iter().enumerate() {
        let line = item.line(i as u64);
        let span = tracer.begin("tcp.decode_request", ROOT, i as u64);
        let t = Instant::now();
        let decoded = json::parse(&line)
            .map_err(err)
            .and_then(|doc| decode_request(&doc).map_err(|e| e.message()));
        decode.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(span);
        tally.record(decoded.is_ok_and(|r| r.query == item.request.query));
        let response = response_for(&item.request, i as u64, &item.expected);
        let span = tracer.begin("tcp.encode_response", ROOT, i as u64);
        let t = Instant::now();
        let text = encode_response(&response);
        encode.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(span);
        tally.record(line_matches(&text, i as u64, &item.expected));
    }
    (decode, encode)
}

/// In-process closed loop through `Service::submit` → `wait`; returns
/// (pool index, latency ms) per request.
fn service_closed(
    service: &wire::Svc,
    pool: &[PoolItem],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < PROBE {
        let i = k % pool.len();
        let mut request = pool[i].request.clone();
        request.id = k as u64;
        let root = tracer.begin("service.request", ROOT, k as u64);
        let t = Instant::now();
        let handle = tracer.span("service.submit", root, k as u64, || service.submit(request));
        let response = tracer.span("service.wait", root, k as u64, || {
            handle.and_then(|h| h.wait())
        });
        let ms = util::ms(t.elapsed());
        tracer.end(root);
        if tally.record(response.is_ok_and(|r| response_matches(&r, k as u64, &pool[i].expected))) {
            out.push((i, ms));
        }
        k += 1;
    }
    out
}

/// In-process open loop at [`OPEN_RATE`]: this thread submits on schedule,
/// a second thread waits on the handles in order.  Latency runs from the
/// submit call to the answer.
fn service_open(
    service: &wire::Svc,
    pool: &[PoolItem],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let total = (PROBE.as_secs_f64() * OPEN_RATE) as u64;
    let interval = 1e9 / OPEN_RATE;
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel();
    let mut waiter_tracer = tracer.fork();
    let (latencies, waited) = std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut latencies = Vec::new();
            let mut results = Vec::new();
            for (k, i, submitted, handle) in rx {
                let (k, i, submitted, handle): (u64, usize, Instant, spn_serve::ResponseHandle) =
                    (k, i, submitted, handle);
                let span = waiter_tracer.begin("service.wait", ROOT, k);
                let response = handle.wait();
                waiter_tracer.end(span);
                let done = Instant::now();
                let ok = response.is_ok_and(|r| response_matches(&r, k, &pool[i].expected));
                results.push(ok);
                if ok {
                    latencies.push(util::ms(done - submitted));
                }
            }
            (latencies, results)
        });
        for k in 0..total {
            let due = t0 + Duration::from_nanos((k as f64 * interval) as u64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let i = k as usize % pool.len();
            let mut request = pool[i].request.clone();
            request.id = k;
            let submitted = Instant::now();
            let span = tracer.begin("service.submit", ROOT, k);
            let handle = service.submit(request);
            tracer.end(span);
            match handle {
                Ok(h) => {
                    let _ = tx.send((k, i, submitted, h));
                }
                Err(_) => {
                    tally.record(false);
                }
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    tracer.absorb(waiter_tracer);
    for ok in waited {
        tally.record(ok);
    }
    latencies
}

/// Engine time of each pool request run alone (median of three, ms).
fn engine_alone(
    models: &[(String, Spn)],
    pool: &[PoolItem],
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let mut engines = wire::oracle_engines(models)?;
    for e in &mut engines {
        e.prepare_map().map_err(err)?;
    }
    let names: Vec<&str> = models.iter().map(|(n, _)| n.as_str()).collect();
    let mut out = Vec::with_capacity(pool.len());
    for item in pool {
        let m = names
            .iter()
            .position(|n| *n == item.request.model)
            .ok_or("unknown model")?;
        let mut times = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let o = engines[m].execute_query(&item.request.query);
            times.push(util::ms(t.elapsed()));
            tally.record(o.is_ok_and(|o| output_matches(&o, &item.expected)));
        }
        out.push(median(&times));
    }
    Ok(out)
}

pub fn run(
    args: &Args,
    fig4: &[(String, Spn)],
    tracer: &mut Tracer,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    tracer.set_on(true);
    let mut m = Vec::new();
    let seed = args.seed;
    let models = wire::serving_models();
    let exact_modes = [
        QueryMode::Joint,
        QueryMode::Marginal,
        QueryMode::Map,
        QueryMode::Conditional,
    ];
    let lone_pool = wire::build_pool(seed, "layers/lone", &models, &exact_modes, 256)?;
    let open_pool = wire::build_pool(seed, "layers/open", &models, &QueryMode::ALL, 1024)?;
    let ci99_misses = wire::pool_expectations(&open_pool, tally, notes);

    // Registry: cold compiles of the serving models.
    let span = tracer.begin("registry.engine", ROOT, 0);
    let (service, compile_ms) = wire::start_service(&models, true)?;
    tracer.end(span);
    m.push(metric(
        "registry.compile_ms",
        compile_ms.iter().sum(),
        "ms",
        compile_ms.len() as u64,
    ));
    m.push(metric(
        "registry.cached_artifacts",
        service.registry().cached_artifacts() as f64,
        "count",
        1,
    ));

    // wire-lone shape: socket, then in-process service, then codec and
    // engine alone on the same requests.
    let mut server = TcpServer::spawn(service.clone(), "127.0.0.1:0").map_err(err)?;
    let stream = wire::connect(&server)?;
    let mut off = Tracer::new(false, Instant::now());
    let wire_lone = wire::lone_loop(&stream, &lone_pool, PROBE.as_secs_f64(), 1, &mut off);
    tally.attempted += wire_lone.tally.attempted;
    tally.failed += wire_lone.tally.failed;
    drop(stream);
    server.shutdown();
    let lone = service_closed(&service, &lone_pool, tracer, tally);
    service.shutdown();
    let alone = engine_alone(&models, &lone_pool, tally)?;
    let (decode, encode) = codec_times(&lone_pool, tracer, tally);
    let service_ms: Vec<f64> = lone.iter().map(|&(_, ms)| ms).collect();
    let waits: Vec<f64> = lone.iter().map(|&(i, ms)| ms - alone[i]).collect();
    let svc_p50 = median(&service_ms);
    let dec_p50 = median(&decode);
    let enc_p50 = median(&encode);
    m.push(metric(
        "tcp.decode_us_p50",
        dec_p50,
        "us",
        decode.len() as u64,
    ));
    m.push(metric(
        "tcp.encode_us_p50",
        enc_p50,
        "us",
        encode.len() as u64,
    ));
    m.push(metric(
        "tcp.front_ms_p50",
        wire_lone.p(0.5) - svc_p50 - (dec_p50 + enc_p50) / 1e3,
        "ms",
        wire_lone.latencies_ms.len() as u64,
    ));
    m.push(metric(
        "service.latency_ms_p50",
        svc_p50,
        "ms",
        service_ms.len() as u64,
    ));
    m.push(metric(
        "service.wait_ms_p50",
        median(&waits),
        "ms",
        waits.len() as u64,
    ));

    // wire-open shape: in-process at the fixed rate (fresh counters), then
    // the socket at the same rate.
    let (service, _) = wire::start_service(&models, true)?;
    let open = sorted(&service_open(&service, &open_pool, tracer, tally));
    let records = service.metrics();
    let batches: u64 = records.iter().map(|r| r.stats.batches).sum();
    let coalesced: u64 = records.iter().map(|r| r.stats.coalesced_batches).sum();
    let queries: u64 = records.iter().map(|r| r.stats.queries).sum();
    let max_batch = records
        .iter()
        .map(|r| r.stats.max_batch_queries)
        .max()
        .unwrap_or(0);
    let mean_batch = queries as f64 / batches.max(1) as f64;
    let mut server = TcpServer::spawn(service.clone(), "127.0.0.1:0").map_err(err)?;
    let stream = wire::connect(&server)?;
    let wire_open = wire::open_loop(
        &stream,
        &open_pool,
        PROBE.as_secs_f64(),
        OPEN_RATE,
        1,
        &mut off,
    );
    tally.attempted += wire_open.tally.attempted;
    tally.failed += wire_open.tally.failed;
    drop(stream);
    server.shutdown();
    service.shutdown();
    let (decode, encode) = codec_times(&open_pool, tracer, tally);
    let svc_p99 = percentile(&open, 0.99);
    m.push(metric(
        "tcp.front_ms_p99",
        wire_open.p(0.99)
            - svc_p99
            - (percentile(&sorted(&decode), 0.99) + percentile(&sorted(&encode), 0.99)) / 1e3,
        "ms",
        wire_open.latencies_ms.len() as u64,
    ));
    m.push(metric(
        "service.latency_ms_p99",
        svc_p99,
        "ms",
        open.len() as u64,
    ));
    m.push(metric("service.batches", batches as f64, "count", 1));
    m.push(metric(
        "service.coalesced_share",
        coalesced as f64 / batches.max(1) as f64,
        "ratio",
        batches,
    ));
    m.push(metric(
        "service.mean_batch_queries",
        mean_batch,
        "count",
        batches,
    ));
    m.push(metric(
        "service.max_batch_queries",
        max_batch as f64,
        "count",
        1,
    ));

    // wire-session walk: Service::session_delta → wait, one in flight, and
    // the engine's incremental path alone.
    let spn = wire::session_spn(seed)?;
    let walk = wire::session_walk(seed, &spn)?;
    let session_models = vec![(SESSION_MODEL.to_string(), spn.clone())];
    let (service, _) = wire::start_service(&session_models, false)?;
    let conn = service.allocate_connection();
    let opened = service
        .session_open(
            conn,
            SessionOpen {
                id: 0,
                session: 1,
                model: SESSION_MODEL.to_string(),
                variant: ModelVariant::default(),
                evidence: walk.start.clone(),
            },
        )
        .and_then(|h| h.wait());
    tally.record(opened.is_ok_and(|r| r.value.to_bits() == walk.start_value.to_bits()));
    let mut delta_ms = Vec::new();
    let start = Instant::now();
    let mut p = 0u64;
    while start.elapsed() < PROBE {
        let flip = walk.flips[p as usize % walk.flips.len()];
        let root = tracer.begin("session.delta", ROOT, p + 1);
        let t = Instant::now();
        let handle = tracer.span("service.session_delta", root, p + 1, || {
            service.session_delta(conn, 1, p + 1, vec![flip])
        });
        let response = tracer.span("session.wait", root, p + 1, || {
            handle.and_then(|h| h.wait())
        });
        delta_ms.push(util::ms(t.elapsed()));
        tracer.end(root);
        tally.record(response.is_ok_and(|r| r.value.to_bits() == walk.expected(p).to_bits()));
        p += 1;
    }
    let stats = service.session_stats();
    service.shutdown();
    m.push(metric(
        "session.delta_ms_p50",
        median(&delta_ms),
        "ms",
        delta_ms.len() as u64,
    ));
    m.push(metric(
        "session.recomputed_ops_per_delta",
        stats.recomputed_ops as f64 / stats.deltas.max(1) as f64,
        "ops",
        stats.deltas,
    ));
    m.push(metric(
        "session.full_pass_share",
        stats.full_pass_deltas as f64 / stats.deltas.max(1) as f64,
        "ratio",
        stats.deltas,
    ));
    let mut engine = Engine::new(CpuModel::new(), &spn, EngineOptions::default()).map_err(err)?;
    let mut session = engine.open_session(&walk.start).map_err(err)?;
    let mut n = 0u64;
    let span = tracer.begin("engine.session_delta", ROOT, 0);
    let t = Instant::now();
    while t.elapsed() < MICRO * 5 {
        let flip = walk.flips[n as usize % walk.flips.len()];
        let out = engine.session_delta(&mut session, &[flip]);
        tally.record(out.is_ok_and(|o| o.value.to_bits() == walk.expected(n).to_bits()));
        n += 1;
    }
    tracer.end(span);
    m.push(metric(
        "engine.session_delta_us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
        "us",
        n,
    ));

    // Engine: every mode at batch 1, at the service's mean batch in the
    // wire-open shape, and at 256, on uci-cpu-perf.
    let bsvc = mean_batch.round().max(1.0) as usize;
    let (name, cpu_spn) = &models[1];
    let mut engine =
        Engine::new(CpuModel::new(), cpu_spn, EngineOptions::default()).map_err(err)?;
    engine.prepare_map().map_err(err)?;
    let mut oracle =
        Engine::new(CpuModel::scalar(), cpu_spn, EngineOptions::default()).map_err(err)?;
    let mut rng = util::stream(seed, "layers/engine");
    for mode in QueryMode::ALL {
        for (label, rows) in [("b1", 1), ("bsvc", bsvc), ("b256", 256)] {
            let (query, _) = batch_query(&mut rng, mode, cpu_spn.num_vars(), rows, wire::DRAWS)?;
            let expected = oracle
                .execute_query(&query)
                .map_err(|e| format!("{name}: {e}"))?;
            let mut ok = true;
            let span = tracer.begin("engine.execute_query", ROOT, rows as u64);
            let (reps, dt) = repeat_for(MICRO, 3, || {
                let out = engine.execute_query(&query);
                ok &= out.is_ok_and(|o| output_matches(&o, &expected));
            });
            tracer.end(span);
            tally.record(ok);
            m.push(metric(
                format!("engine.us_per_query.{}.{label}", mode.name()),
                dt.as_secs_f64() * 1e6 / (reps * rows as u64) as f64,
                "us",
                reps,
            ));
        }
    }
    notes.push(format!("layer pass: the service's mean batch in the wire-open shape is {mean_batch:.2} queries (bsvc = {bsvc})"));

    // CPU kernels: input fill and lane-blocked kernel per circuit, plus the
    // MAP traceback and the conditional divide on Audio.
    let find = |slug: &str| {
        fig4.iter()
            .find(|(s, _)| s == slug)
            .map(|(_, spn)| spn)
            .ok_or("missing circuit")
    };
    let mut rng = util::stream(seed, "layers/cpu");
    for slug in CPU_CIRCUITS {
        let spn = find(slug)?;
        let ops = OpList::from_spn(spn);
        let recipe = InputRecipe::from_op_list(&ops);
        let (query, _) = batch_query(&mut rng, QueryMode::Marginal, spn.num_vars(), 256, 1)?;
        let QueryBatch::Marginal(batch) = query else {
            unreachable!()
        };
        let lanes = 8;
        let blocks = batch.len() / lanes;
        let width = recipe.num_inputs() * lanes;
        let mut tiles = vec![0.0; width * blocks];
        let (reps, dt) = repeat_for(MICRO, 3, || {
            let span = tracer.begin("cpu.fill_lane_block", ROOT, 0);
            for (b, tile) in tiles.chunks_mut(width).enumerate() {
                recipe.fill_lane_block(&batch, b * lanes, lanes, tile);
            }
            tracer.end(span);
        });
        m.push(metric(
            format!("cpu.fill_ns_per_query.{slug}"),
            dt.as_secs_f64() * 1e9 / (reps * 256) as f64,
            "ns",
            reps,
        ));
        let mut results = vec![0.0; ops.num_ops() * lanes];
        let mut out = vec![0.0; batch.len()];
        let (reps, dt) = repeat_for(MICRO, 3, || {
            let span = tracer.begin("cpu.run_lane_block", ROOT, 0);
            for (b, tile) in tiles.chunks(width).enumerate() {
                run_lane_block(
                    &ops,
                    lanes,
                    tile,
                    &mut results,
                    &mut out[b * lanes..(b + 1) * lanes],
                );
            }
            tracer.end(span);
        });
        m.push(metric(
            format!("cpu.kernel_ns_per_op.{slug}"),
            dt.as_secs_f64() * 1e9 / (reps * 256 * ops.num_ops() as u64) as f64,
            "ns",
            reps,
        ));
        // Scalar run_into oracle.
        let mut inputs = vec![0.0; recipe.num_inputs()];
        let mut scratch = vec![0.0; ops.num_ops()];
        let oracle: Vec<f64> = (0..batch.len())
            .map(|q| {
                recipe.fill_query(&batch, q, &mut inputs);
                ops.run_into(&inputs, &mut scratch)
            })
            .collect();
        tally.record(same_bits(&out, &oracle));

        if slug == "audio" {
            let program = MaxProductProgram::from_op_list(&ops);
            let mut per_row = Vec::with_capacity(batch.len());
            for q in 0..batch.len() {
                let (mut i, mut r) = (Vec::new(), Vec::new());
                program.run_query(&batch, q, &mut i, &mut r);
                per_row.push((i, r));
            }
            let mut assignments = Vec::new();
            let (reps, dt) = repeat_for(MICRO, 3, || {
                let span = tracer.begin("query.trace_assignment", ROOT, 0);
                assignments = per_row
                    .iter()
                    .enumerate()
                    .map(|(q, (i, r))| program.trace_assignment(i, r, batch.query(q)))
                    .collect();
                tracer.end(span);
            });
            m.push(metric(
                "cpu.post_ns_per_query.map",
                dt.as_secs_f64() * 1e9 / (reps * 256) as f64,
                "ns",
                reps,
            ));
            let mut scalar =
                Engine::new(CpuModel::scalar(), spn, EngineOptions::default()).map_err(err)?;
            let map = scalar
                .execute_query(&QueryBatch::Map(batch.clone()))
                .map_err(err)?;
            tally.record(map.assignments.as_ref() == Some(&assignments));

            let (cond, _) = batch_query(&mut rng, QueryMode::Conditional, spn.num_vars(), 256, 1)?;
            let QueryBatch::Conditional(cond_batch) = &cond else {
                unreachable!()
            };
            let num = scalar
                .execute_batch(cond_batch.numerator())
                .map_err(err)?
                .values;
            let den = scalar
                .execute_batch(cond_batch.denominator())
                .map_err(err)?
                .values;
            let expected = scalar.execute_query(&cond).map_err(err)?.values;
            const REPS: usize = 2000;
            let copies: Vec<Vec<f64>> = (0..REPS).map(|_| num.clone()).collect();
            let mut last = Vec::new();
            let span = tracer.begin("query.conditional_values", ROOT, 0);
            let t = Instant::now();
            for c in copies {
                last = conditional_values(NumericMode::Linear, c, &den).map_err(err)?;
            }
            let dt = t.elapsed();
            tracer.end(span);
            m.push(metric(
                "cpu.post_ns_per_query.conditional",
                dt.as_secs_f64() * 1e9 / (REPS * 256) as f64,
                "ns",
                REPS as u64,
            ));
            tally.record(same_bits(&last, &expected));

            // Sampler: likelihood-weighted expectation rows.
            let sampler = SamplerProgram::new(spn);
            let spec = SampleSpec {
                seed: seed >> 12,
                n_samples: 64,
                method: SampleMethod::LikelihoodWeighted,
            };
            let rows: Vec<_> = (0..8)
                .map(|_| util::sparse_evidence(&mut rng, spn.num_vars(), 2))
                .collect();
            let rows = EvidenceBatch::from_evidences(spn.num_vars(), &rows).map_err(err)?;
            let mut ok = true;
            let (reps, dt) = repeat_for(MICRO * 3, 1, || {
                for q in 0..rows.len() {
                    let span = tracer.begin("sample.expectation_row", ROOT, q as u64);
                    let est = sampler.expectation_row(rows.query(q), spec, q as u64);
                    tracer.end(span);
                    ok &= est.is_ok_and(|e| e.value.is_finite() && e.std_err >= 0.0);
                }
            });
            tally.record(ok);
            m.push(metric("sample.ci99_miss_share", ci99_misses, "ratio", 1));
            m.push(metric(
                "sample.ns_per_draw",
                dt.as_secs_f64() * 1e9
                    / (reps * rows.len() as u64 * u64::from(spec.n_samples)) as f64,
                "ns",
                reps,
            ));
        }
    }

    // Compiler, processor and GPU model on the nine circuits.
    let processor = Processor::new(ProcessorConfig::ptree()).map_err(err)?;
    let compiler = Compiler::new(ProcessorConfig::ptree());
    let mut host = Duration::ZERO;
    let mut cycles = 0u64;
    let mut kdd = None;
    for (slug, spn) in fig4 {
        let ops = OpList::from_spn(spn);
        let mut times = Vec::new();
        let mut artifact = None;
        for _ in 0..3 {
            let input = ops.clone();
            let span = tracer.begin("compiler.compile_op_list", ROOT, 0);
            let t = Instant::now();
            let a = compiler.compile_op_list(input).map_err(err)?;
            times.push(util::ms(t.elapsed()));
            tracer.end(span);
            artifact = Some(a);
        }
        let artifact = artifact.expect("compiled");
        m.push(metric(
            format!("compiler.compile_ms.{slug}"),
            median(&times),
            "ms",
            3,
        ));
        let input = crate::sim::inputs(seed, slug, spn)?;
        let mut flat = Vec::new();
        artifact
            .fill_batch_inputs(&input.batch, &mut flat)
            .map_err(err)?;
        let span = tracer.begin("processor.run_batch", ROOT, 0);
        let t = Instant::now();
        let run = processor
            .run_batch(&artifact.program, &flat, input.batch.len())
            .map_err(err)?;
        host += t.elapsed();
        tracer.end(span);
        cycles += run.perf.cycles;
        tally.record(
            run.outputs
                .iter()
                .zip(&input.reference)
                .all(|(&s, &c)| sim_agrees(s, c)),
        );
        m.push(metric(
            format!("compiler.issue_efficiency.{slug}"),
            run.perf.issue_efficiency(),
            "ratio",
            1,
        ));
        m.push(metric(
            format!("processor.cycles_per_query.{slug}"),
            run.perf.cycles_per_query(),
            "cycles",
            1,
        ));
        m.push(metric(
            format!("processor.stall_share.{slug}"),
            run.perf.stall_cycles as f64 / run.perf.cycles.max(1) as f64,
            "ratio",
            1,
        ));
        let mut gpu = Engine::from_ops(GpuModel::new(), &ops).map_err(err)?;
        let span = tracer.begin("gpu.execute_batch", ROOT, 0);
        let g = gpu.execute_batch(&input.batch).map_err(err)?;
        tracer.end(span);
        tally.record(
            g.values
                .iter()
                .zip(&input.reference)
                .all(|(&s, &c)| sim_agrees(s, c)),
        );
        m.push(metric(
            format!("gpu.cycles_per_query.{slug}"),
            g.perf.cycles_per_query(),
            "cycles",
            1,
        ));
        if slug == "kddcup2k" {
            kdd = Some((artifact, spn.clone()));
        }
    }
    m.push(metric(
        "processor.host_ns_per_cycle",
        host.as_secs_f64() * 1e9 / cycles as f64,
        "ns",
        cycles,
    ));

    // 2-core batch-sharded KDDCup2k: cycle attribution must add up.
    let (artifact, spn) = kdd.ok_or("kddcup2k missing")?;
    let mut rng = util::stream(seed, "layers/multicore");
    let rows: Vec<_> = (0..MULTICORE_QUERIES)
        .map(|_| util::random_evidence(&mut rng, spn.num_vars(), 0.3))
        .collect();
    let batch = EvidenceBatch::from_evidences(spn.num_vars(), &rows).map_err(err)?;
    let mut flat = Vec::new();
    artifact.fill_batch_inputs(&batch, &mut flat).map_err(err)?;
    let multi =
        MultiCoreProcessor::new(MultiCoreConfig::new(2, ProcessorConfig::ptree())).map_err(err)?;
    let mut states = multi.states_for(&artifact.program);
    let span = tracer.begin("processor.run_batch_sharded", ROOT, 0);
    let sharded = multi
        .run_batch_sharded(&artifact.program, &flat, batch.len(), &mut states)
        .map_err(err)?;
    tracer.end(span);
    let single = processor
        .run_batch(&artifact.program, &flat, batch.len())
        .map_err(err)?;
    tally.record(sharded.cores.check_accounting().is_ok());
    tally.record(same_bits(&sharded.outputs, &single.outputs));
    let sum = |f: fn(&spn_processor::CorePerf) -> u64| {
        sharded.cores.per_core.iter().map(f).sum::<u64>() as f64
    };
    m.push(metric(
        "processor.multicore.compute_cycles",
        sum(|c| c.compute_cycles),
        "cycles",
        2,
    ));
    m.push(metric(
        "processor.multicore.memory_stall_cycles",
        sum(|c| c.memory_stall_cycles),
        "cycles",
        2,
    ));
    m.push(metric(
        "processor.multicore.interconnect_stall_cycles",
        sum(|c| c.interconnect_stall_cycles),
        "cycles",
        2,
    ));
    m.push(metric(
        "processor.multicore.idle_cycles",
        sum(|c| c.idle_cycles),
        "cycles",
        2,
    ));
    tracer.set_on(false);
    Ok(m)
}

/// Writes the spans out and prints each span name's self time.
pub fn finish_trace(args: &Args, tracer: &Tracer, notes: &mut Vec<String>) {
    let path = std::path::PathBuf::from(".bench_out").join(format!("spans-{}.tsv", args.workload));
    match tracer.write_tsv(&path) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
    }
    println!("\nspan                              self_ms      count");
    for (name, (self_ms, count)) in tracer.self_times() {
        println!("{name:<30} {self_ms:>12.3} {count:>10}");
    }
}
