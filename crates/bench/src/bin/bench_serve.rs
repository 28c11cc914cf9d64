//! Serving benchmark: multi-stream throughput of the [`ServeEngine`]
//! worker pool and the batch-coalescing amortization of `run_batch`, on
//! vgg16_small across the Reference / Blocked / Quantized backends.
//!
//! Writes `BENCH_serve.json` with one entry per (backend, worker count):
//! closed-loop throughput with one client stream per worker (requests/s,
//! speedup vs the same backend on 1 worker), plus one batch-amortization
//! entry per backend — a 1-worker engine serving the same requests
//! per-request (`submit`/`wait`, batching off) vs pre-coalesced
//! (`run_batch`), best of several trials each, with a raw
//! `Session::run_with` loop recorded alongside as `solo_run_ms`. The
//! amortization rows run on the tiny dedicated `serve_amort` network so
//! the serving-tier costs under test are a measurable fraction of
//! request time; `bench_check` holds their `speedup` to an absolute
//! floor of 1.0 on like hosts. A `serve_metrics` row per backend
//! (completed/shed counts, dispatch histogram totals, p50/p99 latency)
//! comes from the engine's own counters.
//!
//! On a 1-core host the multi-worker configs cannot run in parallel:
//! reporting their (contention-only) timings reads as a serving
//! regression, so they are skipped and flagged in the JSON — the same
//! convention `bench_check` applies to every `*_skipped` flag.
//!
//! Every benchmarked request's output is checked bitwise against a
//! serial `Session::run` oracle: the scheduling claims of the serving
//! layer are only worth measuring while determinism holds.
//!
//! Usage: `bench_serve [--quick] [--out PATH]`

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bconv_graph::{Backend, ExecScratch, ServeConfig, ServeEngine, Session};
use bconv_models::builder::{conv, NetBuilder};
use bconv_models::small::vgg16_small;
use bconv_models::{ActShape, Network};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::{Tensor, TensorError};

const BACKENDS: [(&str, Backend); 3] = [
    ("reference", Backend::Reference),
    ("blocked", Backend::Blocked),
    ("quantized_w8a8", Backend::Quantized { weight_bits: 8, act_bits: 8 }),
];

struct Measurement {
    backend: &'static str,
    workers_requested: usize,
    workers_effective: usize,
    streams: usize,
    requests: usize,
    wall_ms: f64,
    throughput_rps: f64,
    speedup_vs_1_worker: f64,
    outputs_match_oracle: bool,
    /// The plan this configuration actually measured: which cost model
    /// cut its fusion groups, how many splices it took, and where it came
    /// from (fresh / cache-loaded / tune-selected).
    cost_model: String,
    splices: usize,
    plan_provenance: String,
}

/// Plan identity of a built session, for the result rows.
fn plan_fields(session: &Session) -> (String, usize, String) {
    let report = session.plan().report();
    (report.cost_model.clone(), report.splices.len(), report.provenance.to_string())
}

struct Amortization {
    backend: &'static str,
    batch: usize,
    /// Per-request submit/wait through the same 1-worker engine —
    /// serving with batching off, the baseline `speedup` compares
    /// against.
    sequential_ms: f64,
    /// The same requests pre-coalesced through `run_batch`.
    batched_ms: f64,
    /// Informational: a raw `Session::run_with` loop with a warm scratch
    /// (no serving tier at all), for the queue-overhead picture.
    solo_run_ms: f64,
    speedup: f64,
}

/// Engine counters recorded after each backend's amortization runs.
struct MetricsRow {
    backend: &'static str,
    submitted: u64,
    completed: u64,
    shed: u64,
    batches: u64,
    batched_samples: u64,
    p50_latency_us: u64,
    p99_latency_us: u64,
}

fn build(backend: Backend) -> Result<Session, TensorError> {
    Session::builder().network(vgg16_small(32)).backend(backend).seed(2018).build()
}

fn stream_input(stream: usize) -> Tensor {
    uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(0x5E41 + stream as u64))
}

/// The batch-amortization workload: a deliberately small network, so the
/// serving-tier costs that batching targets — queue round-trips, dispatch
/// bookkeeping, coalescing copies — are a measurable fraction of request
/// time. Under vgg16_small they are all sub-percent of per-request
/// compute, and the sequential/batched ratio measures host jitter instead
/// of the serving tier. Closed-loop throughput keeps vgg16_small.
fn amort_net() -> Network {
    let mut b = NetBuilder::new("serve_amort", ActShape { c: 2, h: 8, w: 8 });
    b.push("conv1", conv(3, 1, 1, 2, 4));
    b.push("conv2", conv(3, 1, 1, 4, 4));
    b.build()
}

fn build_amort(backend: Backend) -> Result<Session, TensorError> {
    Session::builder().network(amort_net()).backend(backend).seed(2018).build()
}

fn amort_input(i: usize) -> Tensor {
    uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(0xA3027 + (i % 4) as u64))
}

/// Closed loop: one client thread per stream, each submitting and
/// awaiting `per_stream` requests back-to-back; returns wall time and
/// whether every output matched its oracle bitwise.
fn closed_loop(
    engine: &ServeEngine,
    oracle: &[Tensor],
    per_stream: usize,
) -> Result<(f64, bool), TensorError> {
    let streams = oracle.len();
    let inputs: Vec<Tensor> = (0..streams).map(stream_input).collect();
    // Warm up every worker's scratch (and fault in weights) off the clock.
    engine.run_batch(inputs.clone())?;
    let all_match = AtomicBool::new(true);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for (s, want) in oracle.iter().enumerate() {
            let engine_ref = &engine;
            let inputs_ref = &inputs;
            let all_match = &all_match;
            scope.spawn(move || {
                for _ in 0..per_stream {
                    let ticket = engine_ref.submit(inputs_ref[s].clone()).expect("submit");
                    let report = engine_ref.wait(ticket).expect("wait");
                    if report.output.data() != want.data() {
                        all_match.store(false, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    Ok((t.elapsed().as_secs_f64() * 1e3, all_match.load(Ordering::Relaxed)))
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    // Quick mode keeps enough requests per stream that fixed per-trial
    // overhead (client-thread spawn, worker wakeup) stays well under the
    // regression gate's tolerance relative to the full-mode baseline.
    let per_stream = if quick { 16 } else { 40 };
    // Each closed-loop config is measured several times and the best wall
    // time kept: external host load only ever slows a trial down, so
    // best-of-trials is the stable capability number the CI regression
    // gate compares.
    let trials = if quick { 2 } else { 3 };
    let amort_batch = 8usize;
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());

    // 1-core hosts cannot show multi-stream speedup; skip and flag.
    let multi_stream_configs_skipped = avail == 1;
    let worker_counts: Vec<usize> =
        if multi_stream_configs_skipped { vec![1] } else { vec![1, 2, 4, 8] };
    if multi_stream_configs_skipped {
        println!(
            "available_parallelism is 1: skipping multi-worker configs (no serving speedup is \
             measurable on this host)"
        );
    }

    let mut results: Vec<Measurement> = Vec::new();
    let mut amortizations: Vec<Amortization> = Vec::new();
    let mut metrics_rows: Vec<MetricsRow> = Vec::new();
    for (name, backend) in BACKENDS {
        // One serial oracle per backend; its outputs gate every config.
        let oracle_session = build(backend)?;
        let max_streams = worker_counts.iter().copied().max().unwrap_or(1);
        let mut oracle: Vec<Tensor> = Vec::with_capacity(max_streams);
        for s in 0..max_streams {
            oracle.push(oracle_session.run(&stream_input(s))?.output);
        }

        println!("\n{name}: {per_stream} requests/stream, streams = workers");
        let mut base_rps = 0.0f64;
        for &workers in &worker_counts {
            let session = build(backend)?;
            let (cost_model, splices, plan_provenance) = plan_fields(&session);
            let engine = session.into_engine(ServeConfig {
                workers,
                queue_depth: 64,
                max_batch: 4,
                ..ServeConfig::default()
            })?;
            let (mut wall_ms, mut ok) = (f64::INFINITY, true);
            for _ in 0..trials {
                let (ms, trial_ok) = closed_loop(&engine, &oracle[..workers], per_stream)?;
                wall_ms = wall_ms.min(ms);
                ok &= trial_ok;
            }
            engine.shutdown();
            let requests = workers * per_stream;
            let rps = requests as f64 / (wall_ms / 1e3);
            if workers == 1 {
                base_rps = rps;
            }
            let speedup = rps / base_rps;
            println!(
                "workers={workers:<2} streams={workers:<2} {requests:>4} reqs in {wall_ms:>8.1} \
                 ms = {rps:>8.0} req/s  speedup {speedup:>5.2}x  bitwise-match {ok}"
            );
            results.push(Measurement {
                backend: name,
                workers_requested: workers,
                workers_effective: workers.min(avail),
                streams: workers,
                requests,
                wall_ms,
                throughput_rps: rps,
                speedup_vs_1_worker: speedup,
                outputs_match_oracle: ok,
                cost_model,
                splices,
                plan_provenance,
            });
        }

        // Batch amortization on one worker: the same engine serving the
        // same requests with coalescing off (one submit/wait round-trip
        // per request) vs on (one pre-coalesced run_batch), so the
        // speedup isolates exactly what batching buys *within* the
        // serving tier — measured on the small `serve_amort` network
        // where those costs are visible. A raw run_with loop with a warm
        // scratch is also recorded (solo_run_ms) as the no-serving-tier
        // reference point. Each timed window runs the request set several
        // times, and each side keeps its best of `amort_trials` windows:
        // host load only ever slows a trial down.
        let inputs: Vec<Tensor> = (0..amort_batch).map(amort_input).collect();
        let amort_oracle = build_amort(backend)?;
        let mut seq_scratch = ExecScratch::new();
        amort_oracle.run_with(&inputs[0], &mut seq_scratch)?;
        let cycles = 8;
        let amort_trials = trials * 3;
        let mut solo_run_ms = f64::INFINITY;
        for _ in 0..amort_trials {
            let t = Instant::now();
            for _ in 0..cycles {
                for input in &inputs {
                    std::hint::black_box(amort_oracle.run_with(input, &mut seq_scratch)?);
                }
            }
            solo_run_ms = solo_run_ms.min(t.elapsed().as_secs_f64() * 1e3 / cycles as f64);
        }
        let engine = build_amort(backend)?.into_engine(ServeConfig {
            workers: 1,
            queue_depth: 64,
            max_batch: amort_batch,
            adaptive_batch: false,
        })?;
        // Grow the worker's batch-sized scratch off the clock — a partial
        // warm-up would leave the first measured run_batch paying the
        // full-batch buffer growth.
        engine.run_batch(inputs.clone())?;
        let mut sequential_ms = f64::INFINITY;
        let mut batched_ms = f64::INFINITY;
        for _ in 0..amort_trials {
            let t = Instant::now();
            for _ in 0..cycles {
                for input in &inputs {
                    let ticket = engine.submit(input.clone())?;
                    std::hint::black_box(engine.wait(ticket)?);
                }
            }
            sequential_ms = sequential_ms.min(t.elapsed().as_secs_f64() * 1e3 / cycles as f64);
            let t = Instant::now();
            for _ in 0..cycles {
                std::hint::black_box(engine.run_batch(inputs.clone())?);
            }
            batched_ms = batched_ms.min(t.elapsed().as_secs_f64() * 1e3 / cycles as f64);
        }
        let metrics = engine.metrics();
        engine.shutdown();
        let speedup = sequential_ms / batched_ms;
        println!(
            "run_batch({amort_batch}) on 1 worker (serve_amort net): sequential \
             {sequential_ms:.2} ms vs batched {batched_ms:.2} ms = {speedup:.2}x (solo run_with \
             loop {solo_run_ms:.2} ms)"
        );
        println!(
            "engine metrics: {} completed, {} dispatches / {} samples, p50 {} us, p99 {} us",
            metrics.completed,
            metrics.batches,
            metrics.batched_samples,
            metrics.p50_latency_us,
            metrics.p99_latency_us
        );
        amortizations.push(Amortization {
            backend: name,
            batch: amort_batch,
            sequential_ms,
            batched_ms,
            solo_run_ms,
            speedup,
        });
        metrics_rows.push(MetricsRow {
            backend: name,
            submitted: metrics.submitted,
            completed: metrics.completed,
            shed: metrics.shed,
            batches: metrics.batches,
            batched_samples: metrics.batched_samples,
            p50_latency_us: metrics.p50_latency_us,
            p99_latency_us: metrics.p99_latency_us,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve\",\n");
    json.push_str("  \"network\": \"vgg16_small\",\n");
    json.push_str(&format!("  \"requests_per_stream\": {per_stream},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"available_parallelism\": {avail},\n"));
    json.push_str(&format!(
        "  \"multi_stream_configs_skipped\": {multi_stream_configs_skipped},\n"
    ));
    json.push_str("  \"baseline\": \"workers=1 of the same backend\",\n");
    json.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"workers_requested\": {}, \"workers_effective\": {}, \
             \"streams\": {}, \"requests\": {}, \"wall_ms\": {:.2}, \"throughput_rps\": {:.1}, \
             \"speedup_vs_1_worker\": {:.3}, \"outputs_match_oracle\": {}, \"cost_model\": \
             \"{}\", \"splices\": {}, \"plan_provenance\": \"{}\"}}{}\n",
            m.backend,
            m.workers_requested,
            m.workers_effective,
            m.streams,
            m.requests,
            m.wall_ms,
            m.throughput_rps,
            m.speedup_vs_1_worker,
            m.outputs_match_oracle,
            m.cost_model,
            m.splices,
            m.plan_provenance,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"batch_amortization\": [\n");
    for (i, a) in amortizations.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"network\": \"serve_amort\", \"backend\": \"{}\", \"batch\": {}, \
             \"sequential_ms\": {:.3}, \"batched_ms\": {:.3}, \"solo_run_ms\": {:.3}, \
             \"speedup\": {:.3}}}{}\n",
            a.backend,
            a.batch,
            a.sequential_ms,
            a.batched_ms,
            a.solo_run_ms,
            a.speedup,
            if i + 1 == amortizations.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"serve_metrics\": [\n");
    for (i, m) in metrics_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"submitted\": {}, \"completed\": {}, \"shed\": {}, \
             \"batches\": {}, \"batched_samples\": {}, \"p50_latency_us\": {}, \
             \"p99_latency_us\": {}}}{}\n",
            m.backend,
            m.submitted,
            m.completed,
            m.shed,
            m.batches,
            m.batched_samples,
            m.p50_latency_us,
            m.p99_latency_us,
            if i + 1 == metrics_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json)?;
    println!("\nwrote {out_path}");

    // Determinism gates the whole benchmark: serving timings are only
    // meaningful while every request matches its serial oracle bitwise.
    assert!(
        results.iter().all(|m| m.outputs_match_oracle),
        "served outputs must match the serial oracle bitwise"
    );
    // The acceptance signal: on a genuinely multi-core host, blocked
    // multi-stream throughput must scale with the worker pool. The floor
    // is enforced only in full mode — quick mode's tiny sample (CI on
    // shared runners) records the curve in the JSON and warns instead,
    // so one scheduling hiccup cannot fail a build with no code defect.
    // 1-core hosts skipped the configs above.
    if !multi_stream_configs_skipped {
        let blocked_best = results
            .iter()
            .filter(|m| m.backend == "blocked" && m.workers_requested > 1)
            .map(|m| m.speedup_vs_1_worker)
            .fold(0.0f64, f64::max);
        let floor = if avail >= 4 { 1.1 } else { 0.9 };
        if blocked_best <= floor {
            let msg = format!(
                "blocked multi-stream throughput did not scale: best speedup {blocked_best:.2}x \
                 on {avail} cores (floor {floor})"
            );
            assert!(quick, "{msg}");
            println!("warning ({} requests/stream is a small sample): {msg}", per_stream);
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("bench_serve: {e}");
        std::process::exit(1);
    }
}
