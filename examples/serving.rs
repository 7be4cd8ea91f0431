//! The serving stack end to end: registry, micro-batcher, TCP front-end.
//!
//! Registers two models with an in-process [`Service`], fires a burst of
//! concurrent mixed-mode requests through the line-delimited JSON TCP
//! server, then prints the per-model/per-mode serving metrics — including
//! the micro-batch coalescing counters.
//!
//! Run with `cargo run --release --example serving`.  Pass a bind address
//! (e.g. `cargo run --release --example serving -- 127.0.0.1:7879`) to keep
//! the server in the foreground instead, ready for external clients:
//!
//! ```sh
//! printf '{"id":1,"model":"banknote","mode":"marginal","rows":["1???"]}\n' | nc 127.0.0.1 7879
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use spn_accel::core::wire::QueryRequest;
use spn_accel::core::{QueryMode, SampleMethod, SampleSpec};
use spn_accel::learn::Benchmark;
use spn_accel::platforms::{CpuModel, Parallelism};
use spn_accel::serve::tcp::{decode_response, encode_request};
use spn_accel::serve::{BatchPolicy, Service, ServiceConfig, TcpServer};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // One batcher worker with a 10 ms hold makes coalescing easy to see: a
    // request that finds the worker idle is held open for same-key company
    // until other work queues up, and anything that queued behind a batch
    // leaves with the next one.  With two or more workers an idle sibling
    // ends the hold at once, so the default policy adds no wait.
    let service = Arc::new(Service::new(
        CpuModel::new(),
        ServiceConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch_queries: 128,
                max_wait: Duration::from_millis(10),
            },
            parallelism: Parallelism::serial(),
            artifact_capacity: 8,
            ..ServiceConfig::default()
        },
    ));
    let banknote = Benchmark::Banknote.spn();
    let cpu_perf = Benchmark::Cpu.spn();
    println!(
        "registering banknote ({} vars) and cpu-perf ({} vars)",
        banknote.num_vars(),
        cpu_perf.num_vars()
    );
    service.register("banknote", &banknote);
    service.register("cpu-perf", &cpu_perf);

    // With an explicit bind address, stay up and serve external clients.
    if let Some(bind) = std::env::args().nth(1) {
        let server = TcpServer::spawn(Arc::clone(&service), &bind)?;
        println!("serving on {} — press Ctrl-C to stop", server.local_addr());
        loop {
            std::thread::sleep(Duration::from_secs(60));
        }
    }

    let mut server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0")?;
    let addr = server.local_addr();
    println!("serving on {addr}\n");

    // 24 concurrent clients, cycling models and all six query modes.
    let models = [
        ("banknote", banknote.num_vars()),
        ("cpu-perf", cpu_perf.num_vars()),
    ];
    let clients: Vec<_> = (0..24u64)
        .map(|id| {
            let (model, num_vars) = models[(id as usize) % models.len()];
            std::thread::spawn(
                move || -> Result<String, Box<dyn std::error::Error + Send + Sync>> {
                    let mode = QueryMode::ALL[(id as usize) % QueryMode::ALL.len()];
                    let marginal = "?".repeat(num_vars);
                    let mut partial: Vec<char> = vec!['?'; num_vars];
                    partial[(id as usize) % num_vars] = '1';
                    let partial: String = partial.into_iter().collect();
                    let request = match mode {
                        QueryMode::Joint => QueryRequest::from_rows(
                            id,
                            model,
                            mode,
                            &[&"1".repeat(num_vars)],
                            None,
                        )?,
                        QueryMode::Conditional => QueryRequest::from_rows(
                            id,
                            model,
                            mode,
                            &[&partial],
                            Some(&[&marginal]),
                        )?,
                        QueryMode::Sample | QueryMode::Expectation => {
                            QueryRequest::from_rows_with_spec(
                                id,
                                model,
                                mode,
                                &[&partial],
                                None,
                                SampleSpec {
                                    seed: id,
                                    n_samples: 64,
                                    method: SampleMethod::LikelihoodWeighted,
                                },
                            )?
                        }
                        _ => QueryRequest::from_rows(id, model, mode, &[&partial], None)?,
                    };
                    let mut stream = TcpStream::connect(addr)?;
                    stream.write_all(encode_request(&request).as_bytes())?;
                    stream.write_all(b"\n")?;
                    let mut reply = String::new();
                    BufReader::new(stream).read_line(&mut reply)?;
                    let response = decode_response(reply.trim())?;
                    let spread = response
                        .std_err
                        .as_ref()
                        .map(|s| format!(" ± {:.4} ({} samples)", s[0], response.samples))
                        .unwrap_or_default();
                    Ok(format!(
                        "request {:>2} {:<10} {:<12} -> {:.6}{}{}",
                        id,
                        model,
                        mode.name(),
                        response.values[0],
                        spread,
                        response
                            .assignments
                            .map(|a| format!(
                                "  ({}: {})",
                                if mode == QueryMode::Map {
                                    "MAP"
                                } else {
                                    "draw 0"
                                },
                                a[0].iter()
                                    .map(|&b| if b { '1' } else { '0' })
                                    .collect::<String>()
                            ))
                            .unwrap_or_default(),
                    ))
                },
            )
        })
        .collect();
    for client in clients {
        println!("{}", client.join().expect("client thread")?);
    }

    println!("\nper-model / per-mode serving metrics:");
    println!("| model | mode | requests | batches | coalesced | max req/batch | mean lat |");
    println!("|---|---|---|---|---|---|---|");
    for record in service.metrics() {
        let s = &record.stats;
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.2?} |",
            record.model,
            record.mode.name(),
            s.requests,
            s.batches,
            s.coalesced_batches,
            s.max_batch_requests,
            s.mean_latency(),
        );
    }

    server.shutdown();
    service.shutdown();
    println!("\nshut down cleanly");
    Ok(())
}
