//! End-to-end and per-layer benchmark of the bconv engine.
//!
//! Usage (normally through `perfbench/run.sh`, which builds this crate and
//! pins `BCONV_THREADS=1` and glibc's `MALLOC_MMAP_THRESHOLD_`):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads:
//!
//! - `sr-stream`: one closed-loop caller on `vdsr_small(64, 8, 16)`, float
//!   blocked, batch 1 — the paper's constant-resolution VDSR stack fused
//!   on chip; float kernels and the fused block walk do the work.
//! - `cls-w8a8-stream`: the same loop on `vgg16_small(64)` under w8a8
//!   quantization — the integer path, pooling merges and whole-map FC
//!   segments; setup includes calibration.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! per-layer breakdown and writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`. Every output is checked
//! bit for bit against a serial `Session::run` oracle. The last stdout
//! line is the JSON result.

mod layers;
mod replay;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use std::process::ExitCode;

use bconv_graph::{host_fingerprint, Backend, THREADS_ENV};
use bconv_models::small::{vdsr_small, vgg16_small};

use report::{json_str, result_line, Metrics};
use stream::StreamSpec;
use trace::Tracer;

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable detail lines printed before the result.
    pub notes: Vec<String>,
    /// Extra provenance fields (key, JSON value).
    pub provenance: Vec<(&'static str, String)>,
    pub tracer: Option<Tracer>,
}

/// glibc's mmap threshold; run.sh sets it.
const MMAP_THRESHOLD_ENV: &str = "MALLOC_MMAP_THRESHOLD_";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = match args.workload.as_str() {
        "sr-stream" => StreamSpec {
            net: || vdsr_small(64, 8, 16),
            backend: Backend::Blocked,
            rel_err_inputs: 16,
        },
        "cls-w8a8-stream" => StreamSpec {
            net: || vgg16_small(64),
            backend: Backend::Quantized { weight_bits: 8, act_bits: 8 },
            rel_err_inputs: 256,
        },
        other => return Err(format!("unknown workload {other:?} (sr-stream, cls-w8a8-stream)")),
    };
    stream::run(&spec, args.seed, args.seconds, args.trace)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Intra-request block threading spreads far more than it gains on a
    // 2-core host, so the benchmark measures with one thread per request.
    let threads = std::env::var(THREADS_ENV).unwrap_or_default();
    if threads != "1" {
        eprintln!(
            "perfbench: {THREADS_ENV} must be 1 (got {threads:?}); run through perfbench/run.sh"
        );
        return ExitCode::from(2);
    }
    // The allocator setting run.sh pins, so that buffer placement does not
    // depend on the allocation history of the run.
    let mmap_threshold = std::env::var(MMAP_THRESHOLD_ENV).unwrap_or_default();
    if mmap_threshold.is_empty() {
        eprintln!("perfbench: {MMAP_THRESHOLD_ENV} must be set; run through perfbench/run.sh");
        return ExitCode::from(2);
    }
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    if let Some(tracer) = &out.tracer {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans: {} written to {}", tracer.spans().len(), path.display()),
            Err(e) => println!("# spans: could not write {}: {e}", path.display()),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut prov = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("host", json_str(&host_fingerprint())),
        ("nproc", nproc.to_string()),
        ("bconv_threads", json_str(&threads)),
        ("malloc_mmap_threshold", json_str(&mmap_threshold)),
        ("commit", json_str(&report::commit())),
    ];
    prov.extend(out.provenance.iter().cloned());
    let error_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    prov.push(("error_ratio", report::json_num(error_ratio)));
    let fields: Vec<String> = prov.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("{{\"provenance\": {{{}}}}}", fields.join(", "));
    println!("{}", result_line(out.failed == 0, out.attempted, out.failed, &out.metrics));
    ExitCode::SUCCESS
}
