//! The three wire workloads: a client in this process talks line-delimited
//! JSON over a real loopback socket to `spn-serve`'s `TcpServer`, which
//! runs `ServiceConfig::default()` over `CpuModel::new()`.
//!
//! * `wire-lone` — closed loop, one connection, one request in flight:
//!   1-row exact queries (joint, marginal, MAP, conditional) over
//!   `uci-banknote` and `uci-cpu-perf`.
//! * `wire-open` — open loop at [`OPEN_RATE`] over one connection, one
//!   writer and one reader thread, all six modes (32-draw sample and
//!   expectation requests); latency counts from each request's due time.
//! * `wire-session` — closed loop with [`SESSION_WINDOW`] wire-v2 1-flip
//!   deltas outstanding on one session over a random 96-variable circuit.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use spn_core::flatten::OpList;
use spn_core::random::{random_spn, RandomSpnConfig};
use spn_core::wire::{build_query_with_spec, format_evidence, QueryRequest};
use spn_core::{
    Evidence, EvidenceBatch, NumericMode, Precision, QueryBatch, QueryMode, SampleMethod,
    SampleSpec, Spn,
};
use spn_learn::Benchmark;
use spn_platforms::{CpuModel, Engine, EngineOptions, QueryOutput};
use spn_serve::tcp::encode_request;
use spn_serve::{ModelVariant, Service, ServiceConfig, TcpServer};

use crate::check::{self, line_matches, session_line_matches};
use crate::trace::{Tracer, ROOT};
use crate::util::{self, Tally};
use crate::{repeated_setup, sim, Args, Outcome, PeakRss, Window};

/// Fixed arrival rate of `wire-open` (requests per second).
pub const OPEN_RATE: f64 = 16_000.0;
/// Outstanding deltas of `wire-session`.
pub const SESSION_WINDOW: usize = 32;
/// Draws per sample / expectation request.
pub const DRAWS: u32 = 32;
/// Name of `wire-session`'s model.
pub const SESSION_MODEL: &str = "session-random-96";
/// Deltas in one cycle of the session walk (half forward, half undoing).
const WALK_LEN: usize = 2048;
/// Distinct sample seeds per run.  Only same-spec requests coalesce, and a
/// request that cannot coalesce holds a batcher worker for the full
/// `max_wait`; with a fresh seed per request the approximate third of
/// `wire-open` saturates the two workers (p50 near 200 ms at 16k rps).
/// That saturation is a defect of the service, not measured here.  Four
/// shared seeds is an assumption about client traffic, taken from
/// `bench_serve` and not checked against any real client.
const SAMPLE_SEEDS: usize = 4;
/// Distinct requests in a one-shot pool (cycled through during a window).
const LONE_POOL: usize = 256;
const OPEN_POOL: usize = 1024;
/// `wire-open`'s generator has fallen behind when its p99 lateness exceeds
/// this.
const MAX_LAG_P99_MS: f64 = 5.0;
/// A socket read or write waiting longer than this counts the rest as
/// failed.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

pub type Svc = Service<CpuModel>;

/// The serving models of `wire-lone` and `wire-open`.
pub fn serving_models() -> Vec<(String, Spn)> {
    vec![
        ("uci-banknote".to_string(), Benchmark::Banknote.spn()),
        ("uci-cpu-perf".to_string(), Benchmark::Cpu.spn()),
    ]
}

/// Operation-count band of `wire-session`'s circuit.  Random 96-variable
/// circuits range from about 60k to 120k operations, and delta cost scales
/// with the cone a flip reaches (about 3% of the operations), so without a
/// band the circuit's size, not the code, would set most of the run-to-run
/// spread.
const SESSION_OPS: std::ops::RangeInclusive<usize> = 102_000..=112_000;

/// `wire-session`'s random circuit: the first one drawn from the seed's
/// stream whose operation count falls in [`SESSION_OPS`].
pub fn session_spn(seed: u64) -> Result<Spn, String> {
    let mut rng = util::stream(seed, "session-circuit");
    for _ in 0..200 {
        let spn = random_spn(&RandomSpnConfig::with_vars(96), &mut rng);
        if SESSION_OPS.contains(&OpList::from_spn(&spn).num_ops()) {
            return Ok(spn);
        }
    }
    Err("no session circuit in the operation band after 200 draws".to_string())
}

/// One distinct one-shot request, its wire line after the id field, and
/// the answer `Engine::execute_query` gives for it run alone.
pub struct PoolItem {
    pub request: QueryRequest,
    pub tail: String,
    pub expected: QueryOutput,
    /// Exact `P(row)` for expectation requests (coverage check).
    pub exact: Option<f64>,
}

impl PoolItem {
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}", self.tail)
    }
}

/// Ancestral sampling for both approximate modes, as in `bench_serve`:
/// likelihood weighting costs about 5 µs a draw on `uci-cpu-perf`, ten
/// times ancestral, and would alone take a fifth of a core at 16k
/// requests/s.
fn spec_for(rng: &mut StdRng, seeds: &[u64]) -> SampleSpec {
    SampleSpec {
        seed: seeds[rng.gen_range(0..seeds.len())],
        n_samples: DRAWS,
        method: SampleMethod::Ancestral,
    }
}

/// Builds a 1-row request of `mode` over an `n`-variable model.
pub fn random_query(
    rng: &mut StdRng,
    mode: QueryMode,
    n: usize,
    seeds: &[u64],
) -> Result<(QueryBatch, Vec<Evidence>), String> {
    let (rows, givens) = match mode {
        QueryMode::Joint => (vec![util::random_evidence(rng, n, 1.0)], None),
        QueryMode::Marginal | QueryMode::Map => (vec![util::random_evidence(rng, n, 0.5)], None),
        QueryMode::Conditional => (
            vec![util::random_evidence(rng, n, 0.3)],
            Some(vec![util::random_evidence(rng, n, 0.3)]),
        ),
        QueryMode::Sample => (vec![util::random_evidence(rng, n, 0.3)], None),
        QueryMode::Expectation => {
            let observed = rng.gen_range(1..=2usize);
            (vec![util::sparse_evidence(rng, n, observed)], None)
        }
    };
    let spec = spec_for(rng, seeds);
    let query =
        build_query_with_spec(mode, &rows, givens.as_deref(), spec).map_err(|e| e.to_string())?;
    Ok((query, rows))
}

/// Exact-answer engines, one per model.
pub fn oracle_engines(models: &[(String, Spn)]) -> Result<Vec<Engine<CpuModel>>, String> {
    models
        .iter()
        .map(|(name, spn)| {
            Engine::new(CpuModel::new(), spn, EngineOptions::default())
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// A seeded pool of distinct requests cycling over `models` and `modes`
/// (mode order shuffled by the seed), with their expected answers.
pub fn build_pool(
    seed: u64,
    name: &str,
    models: &[(String, Spn)],
    modes: &[QueryMode],
    size: usize,
) -> Result<Vec<PoolItem>, String> {
    let mut rng = util::stream(seed, name);
    let mut engines = oracle_engines(models)?;
    let seeds: Vec<u64> = (0..SAMPLE_SEEDS).map(|_| rng.next_u64() >> 12).collect();
    let mut order: Vec<QueryMode> = (0..size).map(|i| modes[i % modes.len()]).collect();
    util::shuffle(&mut rng, &mut order);
    let mut pool = Vec::with_capacity(size);
    for (i, mode) in order.into_iter().enumerate() {
        let m = i % models.len();
        let (model, spn) = &models[m];
        let (query, rows) = random_query(&mut rng, mode, spn.num_vars(), &seeds)?;
        let request = QueryRequest {
            id: 0,
            model: model.clone(),
            query,
            numeric: NumericMode::Linear,
            precision: Precision::F64,
        };
        let expected = engines[m]
            .execute_query(&request.query)
            .map_err(|e| format!("oracle {model} {}: {e}", mode.name()))?;
        let exact = if mode == QueryMode::Expectation {
            let batch =
                EvidenceBatch::from_evidences(spn.num_vars(), &rows).map_err(|e| e.to_string())?;
            Some(
                engines[m]
                    .execute_batch(&batch)
                    .map_err(|e| e.to_string())?
                    .values[0],
            )
        } else {
            None
        };
        let line = encode_request(&request);
        let tail = line
            .strip_prefix("{\"id\":0,")
            .ok_or_else(|| format!("unexpected request encoding {line}"))?
            .to_string();
        pool.push(PoolItem {
            request,
            tail,
            expected,
            exact,
        });
    }
    Ok(pool)
}

/// Checks a pool's distinct expectation answers against their exact values
/// (one operation each, see [`check::expectation_ok`]) and notes how many
/// fall outside their own 99% interval.  Returns that share.
pub fn pool_expectations(pool: &[PoolItem], tally: &mut Tally, notes: &mut Vec<String>) -> f64 {
    // Repeated requests give the same deterministic answer: count each
    // distinct request once.
    let mut seen = std::collections::HashSet::new();
    let mut triples = Vec::new();
    for item in pool.iter().filter(|item| seen.insert(item.tail.as_str())) {
        let (Some(exact), Some(se)) = (item.exact, item.expected.std_err.as_ref()) else {
            continue;
        };
        let estimate = item.expected.values[0];
        tally.record(check::expectation_ok(estimate, exact, DRAWS));
        triples.push((estimate, se[0], exact));
    }
    check::note_ci99(&triples, notes)
}

/// The session walk: [`WALK_LEN`] 1-flip deltas whose second half undoes
/// the first, so the evidence returns to its start and the walk repeats;
/// `values[j]` is the full-evidence marginal after delta `j` of a cycle.
pub struct SessionWalk {
    pub start: Evidence,
    pub start_value: f64,
    pub flips: Vec<(usize, Option<bool>)>,
    pub tails: Vec<String>,
    pub values: Vec<f64>,
}

impl SessionWalk {
    /// Wire line of delta number `p` (0-based, counted since the open).
    pub fn line(&self, p: u64) -> String {
        format!(
            "{{\"id\":{},{}",
            p + 1,
            self.tails[p as usize % self.tails.len()]
        )
    }

    pub fn expected(&self, p: u64) -> f64 {
        self.values[p as usize % self.values.len()]
    }

    pub fn open_line(&self, model: &str) -> String {
        format!(
            "{{\"id\":0,\"v\":2,\"type\":\"session_open\",\"session\":1,\"model\":\"{model}\",\"row\":\"{}\"}}",
            format_evidence(&self.start)
        )
    }
}

fn obs_char(o: Option<bool>) -> char {
    match o {
        Some(true) => '1',
        Some(false) => '0',
        None => '?',
    }
}

pub fn session_walk(seed: u64, spn: &Spn) -> Result<SessionWalk, String> {
    let mut rng = util::stream(seed, "session-walk");
    let n = spn.num_vars();
    let start = util::random_evidence(&mut rng, n, 0.3);
    let mut current = start.clone();
    let mut flips = Vec::with_capacity(WALK_LEN);
    let mut undo = Vec::with_capacity(WALK_LEN / 2);
    let mut states = Vec::with_capacity(WALK_LEN);
    let set = |e: &mut Evidence, var: usize, o: Option<bool>| match o {
        Some(v) => e.observe(var, v),
        None => e.forget(var),
    };
    for _ in 0..WALK_LEN / 2 {
        let var = rng.gen_range(0..n);
        let old = current.value(var);
        let choices: Vec<Option<bool>> = [Some(true), Some(false), None]
            .into_iter()
            .filter(|&o| o != old)
            .collect();
        let new = choices[rng.gen_range(0..choices.len())];
        set(&mut current, var, new);
        flips.push((var, new));
        undo.push((var, old));
        states.push(current.clone());
    }
    for (var, old) in undo.into_iter().rev() {
        set(&mut current, var, old);
        flips.push((var, old));
        states.push(current.clone());
    }
    let mut engine =
        Engine::new(CpuModel::new(), spn, EngineOptions::default()).map_err(|e| e.to_string())?;
    let batch = EvidenceBatch::from_evidences(n, &states).map_err(|e| e.to_string())?;
    let values = engine
        .execute_batch(&batch)
        .map_err(|e| e.to_string())?
        .values;
    let start_value = engine.execute(&start).map_err(|e| e.to_string())?.0;
    let tails = flips
        .iter()
        .map(|&(var, o)| {
            format!(
                "\"v\":2,\"type\":\"delta\",\"session\":1,\"flips\":[[{var},\"{}\"]]}}",
                obs_char(o)
            )
        })
        .collect();
    Ok(SessionWalk {
        start,
        start_value,
        flips,
        tails,
        values,
    })
}

/// A running service, its TCP front-end and one connected client socket.
pub struct Stack {
    pub service: Arc<Svc>,
    pub server: TcpServer,
    pub stream: TcpStream,
}

impl Stack {
    pub fn teardown(mut self) {
        drop(self.stream);
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// A service with `models` registered and compiled (artifact, MAP plan;
/// samplers are built at registration) — the in-process half of set-up.
/// Returns the per-model cold-compile times in ms.
pub fn start_service(
    models: &[(String, Spn)],
    with_map: bool,
) -> Result<(Arc<Svc>, Vec<f64>), String> {
    let service = Arc::new(Service::new(CpuModel::new(), ServiceConfig::default()));
    let mut compile_ms = Vec::new();
    for (name, spn) in models {
        service.register(name.clone(), spn);
        let t = Instant::now();
        let variant = ModelVariant::default();
        let (mut engine, version) = service
            .registry()
            .engine(name, variant)
            .map_err(|e| e.message())?;
        if with_map {
            engine.prepare_map().map_err(|e| e.to_string())?;
            let map = engine
                .shared_map()
                .ok_or("MAP plan missing after prepare_map")?;
            service.registry().store_map(name, version, variant, map);
        }
        compile_ms.push(util::ms(t.elapsed()));
    }
    Ok((service, compile_ms))
}

/// A client socket to `server`: no Nagle delay, and reads and writes that
/// give up after [`READ_TIMEOUT`], so a stuck server fails the run instead
/// of hanging it.
pub fn connect(server: &TcpServer) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| format!("connecting: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Full set-up: service, TCP server, connected client, and (for sessions)
/// the primed session, checked against its expected value.
pub fn setup_stack(
    models: &[(String, Spn)],
    with_map: bool,
    session: Option<&SessionWalk>,
    tally: &mut Tally,
) -> Result<Stack, String> {
    let (service, _) = start_service(models, with_map)?;
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("spawning server: {e}"))?;
    let stream = connect(&server)?;
    if let Some(walk) = session {
        let mut w = &stream;
        w.write_all(format!("{}\n", walk.open_line(&models[0].0)).as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        tally.record(session_line_matches(&line, 0, walk.start_value));
    }
    Ok(Stack {
        service,
        server,
        stream,
    })
}

/// Closed loop, one request in flight.  Latency runs from the write to the
/// full reply; lag is the generator's own time between a reply and the
/// next send.
pub fn lone_loop(
    stream: &TcpStream,
    pool: &[PoolItem],
    seconds: f64,
    first_id: u64,
    tracer: &mut Tracer,
) -> Window {
    let mut window = Window::new("main window");
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut line = String::new();
    let start = Instant::now();
    window.start = start;
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut last = start;
    let mut k = 0u64;
    while Instant::now() < deadline {
        let item = &pool[k as usize % pool.len()];
        let id = first_id + k;
        let request = item.line(id) + "\n";
        let root = tracer.begin("loadgen.request", ROOT, id);
        let sent = Instant::now();
        window.lag_ms.push(util::ms(sent - last));
        let wrote = tracer.span("tcp.write", root, id, || {
            writer.write_all(request.as_bytes()).is_ok()
        });
        line.clear();
        let read = tracer.span(
            "tcp.read",
            root,
            id,
            || matches!(reader.read_line(&mut line), Ok(n) if n > 0),
        );
        let done = Instant::now();
        let ok = wrote
            && read
            && tracer.span("check", root, id, || {
                line_matches(&line, id, &item.expected)
            });
        tracer.end(root);
        last = Instant::now();
        k += 1;
        if window.tally.record(ok) {
            window.latencies_ms.push(util::ms(done - sent));
            window.complete(done, item.request.query.len() as u64);
        }
        if !(wrote && read) {
            break;
        }
    }
    window.seconds = start.elapsed().as_secs_f64();
    window
}

/// Open loop at `rate`: the writer sends every request that is due, then
/// sleeps until the next due time; the reader times each reply from its
/// request's due time.  The run is invalid when the writer's p99 lateness
/// exceeds [`MAX_LAG_P99_MS`] or the backlog grows over the window.
pub fn open_loop(
    stream: &TcpStream,
    pool: &[PoolItem],
    seconds: f64,
    rate: f64,
    first_id: u64,
    tracer: &mut Tracer,
) -> Window {
    let mut window = Window::new("main window");
    let total = (seconds * rate).round() as u64;
    let interval = 1e9 / rate;
    let received = AtomicU64::new(0);
    let writer_failed = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(2);
    window.start = t0;
    let due = |k: u64| t0 + Duration::from_nanos((k as f64 * interval) as u64);
    let mut reader_tracer = tracer.fork();
    let (lag, backlog) = std::thread::scope(|s| {
        let writer_tracer = tracer.fork();
        let writer = s.spawn(|| {
            let mut tracer = writer_tracer;
            let mut w = stream;
            let mut lag = Vec::with_capacity(total as usize);
            let mut backlog: Vec<(f64, u64)> = Vec::new();
            let mut buf = String::new();
            let mut k = 0u64;
            while k < total {
                let now = Instant::now();
                buf.clear();
                let first = k;
                while k < total && due(k) <= now {
                    let item = &pool[k as usize % pool.len()];
                    buf.push_str(&item.line(first_id + k));
                    buf.push('\n');
                    k += 1;
                }
                if k > first {
                    let span = tracer.begin("tcp.write", ROOT, first_id + first);
                    let ok = w.write_all(buf.as_bytes()).is_ok();
                    tracer.end(span);
                    if !ok {
                        writer_failed.store(true, Ordering::Relaxed);
                        break;
                    }
                    let sent = Instant::now();
                    lag.extend(
                        (first..k).map(|j| util::ms(sent.saturating_duration_since(due(j)))),
                    );
                    backlog.push((
                        (sent - t0).as_secs_f64(),
                        k - received.load(Ordering::Relaxed),
                    ));
                }
                if k < total {
                    if let Some(wait) = due(k).checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                }
            }
            (lag, backlog, tracer)
        });
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut last = t0;
        for k in 0..total {
            let id = first_id + k;
            let item = &pool[k as usize % pool.len()];
            line.clear();
            let read_span = reader_tracer.begin("tcp.read", ROOT, id);
            let read = matches!(reader.read_line(&mut line), Ok(n) if n > 0);
            reader_tracer.end(read_span);
            if !read {
                window.tally.attempted += total - k;
                window.tally.failed += total - k;
                break;
            }
            let done = Instant::now();
            last = done;
            let ok = reader_tracer.span("check", ROOT, id, || {
                line_matches(&line, id, &item.expected)
            });
            reader_tracer.record("loadgen.request", ROOT, id, due(k), done);
            received.fetch_add(1, Ordering::Relaxed);
            if window.tally.record(ok) {
                window
                    .latencies_ms
                    .push(util::ms(done.saturating_duration_since(due(k))));
                window.complete(done, item.request.query.len() as u64);
            }
        }
        window.seconds = (last - t0).as_secs_f64();
        let (lag, backlog, writer_tracer) = writer.join().expect("writer thread");
        tracer.absorb(writer_tracer);
        (lag, backlog)
    });
    tracer.absorb(reader_tracer);
    if writer_failed.load(Ordering::Relaxed) {
        window
            .notes
            .push("the writer could not send every request".to_string());
    }
    let lag_p99 = util::percentile(&util::sorted(&lag), 0.99);
    window.lag_ms = lag;
    if lag_p99 > MAX_LAG_P99_MS {
        window.valid = false;
        window.notes.push(format!(
            "generator fell behind its schedule: p99 lateness {lag_p99:.3} ms > {MAX_LAG_P99_MS} ms"
        ));
    }
    // Backlog (sent, not yet answered) in the second quarter of the window
    // against the last quarter: a backlog that keeps growing means the
    // service is not keeping up with the rate, whatever the latencies say.
    let mean_in = |lo: f64, hi: f64| {
        let v: Vec<f64> = backlog
            .iter()
            .filter(|(t, _)| *t >= lo * seconds && *t < hi * seconds)
            .map(|&(_, b)| b as f64)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let (mid, end) = (mean_in(0.25, 0.5), mean_in(0.75, 1.0));
    let growing = end > 2.0 * mid + 64.0;
    window.notes.push(format!(
        "backlog (sent, unanswered): mean {mid:.1} in the second quarter, {end:.1} in the last quarter, \
         {} at the last send -> {}",
        backlog.last().map_or(0, |b| b.1),
        if growing { "GROWING" } else { "not growing" }
    ));
    if growing {
        window.valid = false;
    }
    window
}

/// Closed loop with `window_size` deltas outstanding on one session.
/// `next` is the walk position of the next delta; returns the window and
/// the position after the last delta sent.
pub fn session_loop(
    stream: &TcpStream,
    walk: &SessionWalk,
    window_size: usize,
    seconds: f64,
    next: u64,
    tracer: &mut Tracer,
) -> (Window, u64) {
    let mut window = Window::new("main window");
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut line = String::new();
    let mut sent_at = vec![Instant::now(); window_size];
    let start = Instant::now();
    window.start = start;
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut sent = next;
    let mut read = next;
    let mut send = |p: u64, sent_at: &mut Vec<Instant>, tracer: &mut Tracer| {
        let span = tracer.begin("tcp.write", ROOT, p + 1);
        let now = Instant::now();
        sent_at[p as usize % window_size] = now;
        let ok = writer.write_all((walk.line(p) + "\n").as_bytes()).is_ok();
        tracer.end(span);
        ok
    };
    let mut broken = false;
    while sent < next + window_size as u64 {
        broken |= !send(sent, &mut sent_at, tracer);
        sent += 1;
    }
    let mut last = Instant::now();
    while read < sent && !broken {
        line.clear();
        let span = tracer.begin("tcp.read", ROOT, read + 1);
        let got = matches!(reader.read_line(&mut line), Ok(n) if n > 0);
        tracer.end(span);
        if !got {
            break;
        }
        let done = Instant::now();
        let issued = sent_at[read as usize % window_size];
        let ok = tracer.span("check", ROOT, read + 1, || {
            session_line_matches(&line, read + 1, walk.expected(read))
        });
        tracer.record("loadgen.request", ROOT, read + 1, issued, done);
        read += 1;
        if window.tally.record(ok) {
            window.latencies_ms.push(util::ms(done - issued));
            window.complete(done, 1);
        }
        if done < deadline {
            let now = Instant::now();
            window.lag_ms.push(util::ms(now - done));
            broken |= !send(sent, &mut sent_at, tracer);
            sent += 1;
        }
        last = done;
    }
    if read < sent {
        window.tally.attempted += sent - read;
        window.tally.failed += sent - read;
    }
    window.seconds = (last - start).as_secs_f64();
    (window, sent)
}

/// The inputs of one wire workload, worked out before any timing.
enum Plan {
    OneShot { pool: Vec<PoolItem>, open: bool },
    Session { walk: SessionWalk },
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut phases = crate::PhaseClock::start();
    let mut notes = Vec::new();
    let mut oracle = Tally::new("oracle");
    let (models, plan) = match args.workload.as_str() {
        "wire-lone" => {
            let models = serving_models();
            let modes = [
                QueryMode::Joint,
                QueryMode::Marginal,
                QueryMode::Map,
                QueryMode::Conditional,
            ];
            let pool = build_pool(args.seed, "wire-lone", &models, &modes, LONE_POOL)?;
            (models, Plan::OneShot { pool, open: false })
        }
        "wire-open" => {
            let models = serving_models();
            let pool = build_pool(args.seed, "wire-open", &models, &QueryMode::ALL, OPEN_POOL)?;
            pool_expectations(&pool, &mut oracle, &mut notes);
            (models, Plan::OneShot { pool, open: true })
        }
        "wire-session" => {
            let spn = session_spn(args.seed)?;
            let walk = session_walk(args.seed, &spn)?;
            notes.push(format!(
                "session circuit: {} variables, {} nodes; walk of {} 1-flip deltas",
                spn.num_vars(),
                spn.num_nodes(),
                walk.flips.len()
            ));
            (
                vec![(SESSION_MODEL.to_string(), spn)],
                Plan::Session { walk },
            )
        }
        other => return Err(format!("not a wire workload: {other}")),
    };
    let fig4 = crate::engine::fig4_circuits();
    let sim_inputs = fig4
        .iter()
        .map(|(slug, spn)| sim::inputs(args.seed, slug, spn))
        .collect::<Result<Vec<_>, _>>()?;
    let session = match &plan {
        Plan::Session { walk } => Some(walk),
        Plan::OneShot { .. } => None,
    };
    let with_map = session.is_none();

    phases.mark("inputs and expected answers");
    let mut setup_tally = Tally::new("setup");
    let rss = PeakRss::reset();
    let (setup_times, stack) = repeated_setup(
        || setup_stack(&models, with_map, session, &mut setup_tally),
        Stack::teardown,
    )?;

    phases.mark("set-up");
    let self_test = match &plan {
        Plan::OneShot { pool, .. } => check::wire_self_test(&pool[0].request, &pool[0].expected),
        Plan::Session { walk } => {
            let value = |answer: &QueryOutput| {
                format!("{{\"id\":1,\"ok\":true,\"value\":{}}}", answer.values[0])
            };
            let expected = QueryOutput {
                values: vec![walk.values[0]],
                assignments: None,
                std_err: None,
                samples: 0,
                perf: Default::default(),
            };
            check::self_test(
                |answer| session_line_matches(&value(answer), 1, walk.values[0]),
                &expected,
            )
        }
    };

    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    let windows =
        crate::run_windows(
            args,
            &mut tracer,
            |seconds, first_id, next, tracer| match &plan {
                Plan::OneShot { pool, open: false } => {
                    (lone_loop(&stack.stream, pool, seconds, first_id, tracer), 0)
                }
                Plan::OneShot { pool, open: true } => (
                    open_loop(&stack.stream, pool, seconds, OPEN_RATE, first_id, tracer),
                    0,
                ),
                Plan::Session { walk } => {
                    session_loop(&stack.stream, walk, SESSION_WINDOW, seconds, next, tracer)
                }
            },
        );
    let peak_rss_mb = rss.read(&mut notes);
    phases.mark("warm-up and main window");
    let service_metrics = stack.service.metrics();
    let session_stats = stack.service.session_stats();
    stack.teardown();

    // Simulator phase on the Fig. 4 circuits, as in every workload (not
    // part of set-up: the serving stack never compiles for the processor).
    let mut sim_tally = Tally::new("simulator");
    let mut circuits = Vec::new();
    for (slug, spn) in &fig4 {
        circuits.push(sim::build(slug, spn)?);
    }
    let (summary, counters) =
        sim::run_phase(&mut circuits, &sim_inputs, &mut sim_tally, &mut tracer)?;
    sim::print_counters(&summary, &counters);

    phases.mark("simulator");
    let batches: u64 = service_metrics.iter().map(|r| r.stats.batches).sum();
    let queries: u64 = service_metrics.iter().map(|r| r.stats.queries).sum();
    notes.push(format!(
        "service: {batches} batches, {:.2} queries per batch; sessions: {} deltas, {} full passes",
        queries as f64 / batches.max(1) as f64,
        session_stats.deltas,
        session_stats.full_pass_deltas
    ));
    let measured = crate::Measured {
        fig4: &fig4,
        setup_times,
        tallies: vec![self_test, oracle, setup_tally],
        windows,
        sim: summary,
        sim_tally,
        peak_rss_mb,
    };
    crate::finish(args, measured, &mut tracer, notes, phases)
}
