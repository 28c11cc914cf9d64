//! Per-layer metrics assembled from the traced run.

use std::time::{Duration, Instant};

use bconv_graph::{ExecScratch, GraphQuantSpec, Session};
use bconv_tensor::Tensor;

use crate::replay::{self, RepTiming, Replayer};
use crate::report::Metrics;
use crate::stats::{median, rank_agreement};
use crate::trace::Tracer;

/// Execution metrics (`core.fusion`, `graph.exec`, `tensor.kernel`,
/// `quant.*`, `accel`): segment replays for `replay_budget` (at least
/// five), a block walk of the first fused segment, and per-convolution
/// kernel timings for `kernel_budget`. Returns the replays attempted and
/// failed.
#[allow(clippy::too_many_arguments)]
pub fn exec_layers(
    session: &Session,
    spec: Option<&GraphQuantSpec>,
    inputs: &[Tensor],
    seed: u64,
    replay_budget: Duration,
    kernel_budget: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let mut replayer = Replayer::new(session, spec);
    let mut scratch = ExecScratch::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reps = Vec::new();
    let start = Instant::now();
    let mut last = 0;
    while attempted < 5 || start.elapsed() < replay_budget {
        last = attempted as usize % inputs.len();
        attempted += 1;
        match replayer.rep(&inputs[last], &mut scratch, tracer, attempted) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                failed += 1;
                notes.push(format!("replay failed: {e}"));
            }
        }
    }
    // graph.exec's own time is the replay span's self time: whole-map
    // nodes and the segment loop, outside the fused segments.
    let self_ns = tracer.self_times_ns();
    let spans = tracer.spans();
    let med = |f: &dyn Fn(&RepTiming) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let replay_us = |r: &RepTiming| spans[r.replay].dur_ns() as f64 / 1e3;
    let other_us = med(&|r| self_ns[r.replay] as f64 / 1e3).ok_or("no replay succeeded")?;
    let coverage = med(&|r| 1.0 - self_ns[r.replay] as f64 / 1e3 / replay_us(r).max(1e-3));
    let seg_us: Vec<f64> = (0..reps.first().map_or(0, |r| r.fused_ns.len()))
        .filter_map(|k| med(&|r| r.fused_ns[k] as f64 / 1e3))
        .collect();
    // The replay's buffers are not the executor's, and a fused segment's
    // speed depends on where its buffers land (see run.sh), so the two
    // totals need not agree.
    notes.push(format!(
        "run_with {:.1} us, its replay {:.1} us (medians of {})",
        med(&|r| r.run_ns as f64 / 1e3).unwrap_or(0.0),
        med(&replay_us).unwrap_or(0.0),
        reps.len()
    ));
    let mut blocks_us = Vec::new();
    for _ in 0..5 {
        blocks_us.extend(replayer.block_walk(&inputs[last], tracer, 0)?);
    }
    let modeled = replay::modeled_segment_cycles(session)?;
    let layers = replay::conv_layers(session, spec, seed, kernel_budget, tracer)?;

    for (k, (us, cyc)) in seg_us.iter().zip(&modeled).enumerate() {
        notes.push(format!("fused segment {k}: measured {us:.1} us, modeled {cyc} cycles"));
    }
    let quantized = spec.is_some();
    for l in &layers {
        notes.push(format!(
            "conv {}: {} MACs, modeled {} cycles, float {:.1} us, integer {:.1} us",
            l.name, l.macs, l.modeled_cycles, l.float_us, l.quant_us
        ));
    }
    let macs: u64 = layers.iter().map(|l| l.macs).sum();
    let float_us: f64 = layers.iter().map(|l| l.float_us).sum();
    let quant_us: f64 = layers.iter().map(|l| l.quant_us).sum();
    let ranked: Vec<(u64, f64)> = layers
        .iter()
        .map(|l| (l.modeled_cycles, if quantized { l.quant_us } else { l.float_us }))
        .collect();
    let agreement = rank_agreement(&ranked)
        .ok_or("rank agreement needs two convolutions the model and the clock both tell apart")?;

    m.push("tensor.kernel.conv_us", float_us, "us");
    m.push("tensor.kernel.gmacs_per_s", macs as f64 / float_us / 1e3, "GMAC/s");
    m.push("quant.qconv.conv_us", quant_us, "us");
    m.push("quant.qgemm.gmacs_per_s", macs as f64 / quant_us / 1e3, "GMAC/s");
    m.push(
        "core.fusion.segment_us.0",
        *seg_us.first().ok_or("the plan has no fused segment")?,
        "us",
    );
    m.push("core.fusion.block_us", median(&blocks_us).unwrap_or(0.0), "us");
    m.push("core.fusion.blocks", replay::fused_block_count(session) as f64, "count");
    m.push("graph.exec.other_us", other_us, "us");
    m.push("graph.exec.coverage", coverage.unwrap_or(0.0), "ratio");
    m.push("accel.modeled_cycles.0", *modeled.first().unwrap_or(&0) as f64, "cycles");
    m.push("accel.rank_agreement", agreement, "ratio");
    Ok((attempted, failed))
}
