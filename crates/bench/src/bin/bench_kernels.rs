//! Kernel-layer benchmark: the conv kernel policies on the vgg16_small
//! fused pipeline — every layer forced onto the direct loop
//! (`direct_t1`), forced onto im2col+GEMM (`gemm_t1`), and the per-layer
//! `Auto` resolution (`auto_t1`: the plane kernel on these 3×3 stride-1
//! layers). Every configuration must match `direct_t1` bitwise.
//!
//! Writes `BENCH_kernels.json` (machine-readable, one entry per
//! configuration, speedups relative to the direct baseline — the seed
//! repo's execution mode) so successive PRs accumulate a perf trajectory.
//! `--quick` trims repetitions for CI. The `_t1` suffix of the config
//! names is kept because the names are identity keys in the committed
//! baseline.
//!
//! Usage: `bench_kernels [--quick] [--out PATH]`

use bconv_bench::session_times;
use bconv_core::BlockingPattern;
use bconv_graph::{KernelPolicy, Session};
use bconv_models::small::vgg16_small;
use bconv_tensor::error::TensorError;
use bconv_tensor::init::{seeded_rng, uniform_tensor};

struct Config {
    name: &'static str,
    kernel: KernelPolicy,
}

struct Measurement {
    name: String,
    kernel: &'static str,
    median_us: f64,
    min_us: f64,
    speedup: f64,
    output_matches_baseline: bool,
}

fn build(kernel: KernelPolicy) -> Result<Session, TensorError> {
    Session::builder()
        .network(vgg16_small(32))
        .pattern(BlockingPattern::hierarchical(2))
        .kernel(kernel)
        .seed(2018)
        .build()
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let reps = if quick { 9 } else { 30 };
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());

    let configs = [
        Config { name: "direct_t1", kernel: KernelPolicy::Direct },
        Config { name: "gemm_t1", kernel: KernelPolicy::Im2colGemm },
        Config { name: "auto_t1", kernel: KernelPolicy::Auto },
    ];

    let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(7));
    let baseline_session = build(configs[0].kernel)?;
    let baseline_out = baseline_session.run(&input)?.output;
    let baseline_times = session_times(&baseline_session, &input, reps);

    println!("vgg16_small fused pipeline, {reps} reps");
    let mut results = Vec::new();
    for cfg in &configs {
        let session = build(cfg.kernel)?;
        let (us, min_us) = if cfg.name == "direct_t1" {
            baseline_times
        } else {
            session_times(&session, &input, reps)
        };
        let out = session.run(&input)?.output;
        let matches = out.data() == baseline_out.data();
        let speedup = baseline_times.0 / us;
        println!(
            "{:<10} kernel={:<12} median {:>9.1} us  speedup {:>5.2}x  bitwise-match {}",
            cfg.name,
            cfg.kernel.name(),
            us,
            speedup,
            matches
        );
        results.push(Measurement {
            name: cfg.name.to_string(),
            kernel: cfg.kernel.name(),
            median_us: us,
            min_us,
            speedup,
            output_matches_baseline: matches,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernels\",\n");
    json.push_str("  \"network\": \"vgg16_small\",\n");
    json.push_str("  \"pattern\": \"H2x2\",\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"available_parallelism\": {avail},\n"));
    json.push_str("  \"baseline\": \"direct_t1\",\n");
    json.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"kernel\": \"{}\", \"median_us\": {:.1}, \
             \"min_us\": {:.1}, \"speedup_vs_direct_t1\": {:.3}, \
             \"output_matches_baseline\": {}}}{}\n",
            m.name,
            m.kernel,
            m.median_us,
            m.min_us,
            m.speedup,
            m.output_matches_baseline,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json)?;
    println!("wrote {out_path}");

    assert!(
        results.iter().all(|m| m.output_matches_baseline),
        "kernel configurations must agree bitwise"
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run()
}
