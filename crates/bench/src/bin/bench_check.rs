//! CI benchmark-regression gate: compare fresh `--quick` bench runs
//! against the committed `BENCH_*.json` baselines and fail on >25%
//! throughput regression or **any** off-chip-bits increase.
//! Skip-and-flag entries (e.g. multi-worker configs on a 1-core host) are
//! exempt — see [`bconv_bench::check`] for the exact rules. Every
//! exemption is listed in a dedicated summary block at the end of the run,
//! so a skipped parallel config is visible in CI output rather than a
//! silent coverage hole.
//!
//! Usage: `bench_check [--tolerance PCT] [--fresh-suffix SUF] [BENCH...]`
//!
//! With no bench names, checks `kernels quant serve planner`. For each
//! bench `B` the baseline is `BENCH_B.json` (committed) and the fresh run
//! is `BENCH_B<SUF>` (default suffix `.fresh.json`, what the CI loop
//! writes via `--out`). Exits non-zero when any gate rule fails, and with
//! status 2 on usage/IO errors.

use bconv_bench::check::{check_bench, Finding, Json};

const DEFAULT_BENCHES: [&str; 4] = ["kernels", "quant", "serve", "planner"];
const DEFAULT_TOLERANCE_PCT: f64 = 25.0;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e} (run the bench first)"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned());
    let tolerance: f64 = match opt("--tolerance") {
        Some(v) => v.parse().map_err(|_| format!("--tolerance takes a percentage, got {v:?}"))?,
        None => DEFAULT_TOLERANCE_PCT,
    };
    let suffix = opt("--fresh-suffix").unwrap_or_else(|| ".fresh.json".to_string());
    let mut benches: Vec<String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--tolerance" || a == "--fresh-suffix" {
            skip_next = true;
            continue;
        }
        benches.push(a.clone());
    }
    if benches.is_empty() {
        benches = DEFAULT_BENCHES.iter().map(|s| s.to_string()).collect();
    }

    let mut failures = 0usize;
    let mut exempted: Vec<Finding> = Vec::new();
    for bench in &benches {
        let baseline = load(&format!("BENCH_{bench}.json"))?;
        let fresh = load(&format!("BENCH_{bench}{suffix}"))?;
        let findings = check_bench(bench, &baseline, &fresh, tolerance);
        let entries = baseline.get("results").and_then(Json::as_array).map_or(0, <[Json]>::len);
        println!(
            "{bench}: {} baseline entries, {} finding(s) (tolerance {tolerance}%)",
            entries,
            findings.len()
        );
        for f in findings {
            println!("  {f}");
            if f.kind.is_failure() {
                failures += 1;
            } else {
                exempted.push(f);
            }
        }
    }
    // Make every skip-and-flag exemption loudly visible: a parallel config
    // the fresh host could not measure is a known coverage hole, not a
    // pass, and CI logs must say exactly which configs went ungated.
    if exempted.is_empty() {
        println!("bench_check: no skip-and-flag exemptions — every baseline config was gated");
    } else {
        println!(
            "bench_check: {} skip-and-flag exemption(s) (NOT gated this run):",
            exempted.len()
        );
        for f in &exempted {
            println!("  exempt {}/{}: {}", f.bench, f.entry, f.detail);
        }
    }
    println!(
        "bench_check: {} failure(s), {} exemption(s) across {} bench(es)",
        failures,
        exempted.len(),
        benches.len()
    );
    Ok(failures == 0)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench_check: {e}");
            std::process::exit(2);
        }
    }
}
