//! Closed-loop streams: one caller runs `Session::run_with` back to back
//! with a warm scratch, so the next request starts when the last ends.

use std::time::{Duration, Instant};

use bconv_graph::{Backend, ExecScratch, PlanSpec, Session};
use bconv_models::Network;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::Tensor;

use crate::report::{digest, peak_rss_mb};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::{layers, replay, serve, Outcome};

/// Weight seed of every benchmark model. Inputs come from the workload
/// seed; the model stays fixed so exact counts repeat across seeds.
pub const MODEL_SEED: u64 = 2018;

/// Share of an end-to-end run spent on cold builds. The builds run in
/// `ROUNDS` slices between slices of the closed loop, so that both see
/// the same host conditions. `setup_s` is the fastest build, for the
/// reason given at `FLOOR_PCT`: on a shared 2-vCPU VM the median of ~100
/// cls-w8a8-stream builds moved by 28% between two sets of identical
/// runs, the fastest by under 5%.
const SETUP_SHARE: f64 = 0.1;

/// Build slices (and closed-loop slices) of an end-to-end run.
const ROUNDS: u32 = 20;

/// Distinct inputs each closed loop cycles through.
const POOL: usize = 16;

/// Percentile of request latency reported as `lat_p1_us`. On a shared
/// 2-vCPU VM, neighbours slow the same code by 40-80% for stretches of
/// milliseconds to seconds, and the share of a run they cover varies from
/// run to run: the median and p99 read that share (their spread between
/// identical runs reached 22% and 35%) while the low tail reads the
/// program's own cost in the quiet stretches every run has.
const FLOOR_PCT: f64 = 1.0;

/// A closed-loop workload.
pub struct StreamSpec {
    pub net: fn() -> Network,
    pub backend: Backend,
    /// Inputs `rel_err_vs_float` pools over: enough output values that
    /// the ratio barely moves between seeds.
    pub rel_err_inputs: usize,
}

/// Builds a session through the stable builder surface only.
pub fn build(net: Network, backend: Backend) -> Result<Session, String> {
    Session::builder()
        .network(net)
        .backend(backend)
        .seed(MODEL_SEED)
        .planner(PlanSpec::new())
        .build()
        .map_err(|e| format!("Session::build: {e}"))
}

/// `count` seeded inputs of the session's input shape at batch `n`.
pub fn input_pool(session: &Session, n: usize, count: usize, seed: u64) -> Vec<Tensor> {
    let s = session.graph().input_shape();
    (0..count)
        .map(|i| {
            let mut rng = seeded_rng(seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64));
            uniform_tensor([n, s.c, s.h, s.w], -1.0, 1.0, &mut rng)
        })
        .collect()
}

/// Bit-for-bit tensor equality.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data().iter().map(|v| v.to_bits()).eq(b.data().iter().map(|v| v.to_bits()))
}

/// Serial `Session::run` oracle outputs, plus the exact per-inference
/// traffic counts (which must agree across inputs).
pub fn oracle(session: &Session, inputs: &[Tensor]) -> Result<(Vec<Tensor>, u64, u64), String> {
    let mut outs = Vec::with_capacity(inputs.len());
    let mut counts = None;
    for x in inputs {
        let r = session.run(x).map_err(|e| format!("oracle run: {e}"))?;
        let c = (r.stats.offchip_bits(), r.stats.peak_working_bits());
        if *counts.get_or_insert(c) != c {
            return Err("off-chip / on-chip bit counts differ between inputs".into());
        }
        outs.push(r.output);
    }
    let (off, peak) = counts.ok_or("empty input pool")?;
    Ok((outs, off, peak))
}

/// Relative L2 error of `outs` against the dense float reference backend
/// (same network, weights and inputs), pooled over all inputs: what
/// blocking, and quantization where used, cost in output fidelity.
pub fn rel_err_vs_float(net: Network, inputs: &[Tensor], outs: &[Tensor]) -> Result<f64, String> {
    let reference = build(net, Backend::Reference)?;
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (x, y) in inputs.iter().zip(outs) {
        let r = reference.run(x).map_err(|e| format!("reference run: {e}"))?.output;
        for (a, b) in y.data().iter().zip(r.data()) {
            num += f64::from(a - b).powi(2);
            den += f64::from(*b).powi(2);
        }
    }
    Ok((num / den).sqrt())
}

/// Builds a session and returns it with its build time in seconds.
fn timed_build(spec: &StreamSpec) -> Result<(Session, f64), String> {
    let t0 = Instant::now();
    let session = build((spec.net)(), spec.backend)?;
    Ok((session, t0.elapsed().as_secs_f64()))
}

/// What a closed loop measured, accumulated over its slices.
#[derive(Default)]
pub struct LoopOut {
    /// Latency of each successful request, µs, in request order.
    pub lat_us: Vec<f64>,
    /// With a tracer: traced minus untraced latency, µs, of each pair of
    /// back-to-back requests that both succeeded.
    pub trace_cost_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Loop time, seconds.
    pub elapsed_s: f64,
}

/// Runs requests back to back for `dur`, checking every output against
/// its oracle off the clock, and adds what it measured to `out`. With a
/// tracer, every second request gets a `graph.exec.run_with` span, and
/// its latency includes recording the span.
pub fn closed_loop(
    session: &Session,
    inputs: &[Tensor],
    oracle: &[Tensor],
    dur: Duration,
    scratch: &mut ExecScratch,
    mut tracer: Option<&mut Tracer>,
    out: &mut LoopOut,
) {
    let start = Instant::now();
    let mut untraced_us = None;
    while start.elapsed() < dur {
        let k = out.attempted as usize % inputs.len();
        let traced = out.attempted % 2 == 1;
        let t0 = Instant::now();
        let r = session.run_with(&inputs[k], scratch);
        let mut t1 = Instant::now();
        if let Some(t) = tracer.as_deref_mut().filter(|_| traced) {
            t.record("graph.exec.run_with", t0, t1, None, out.attempted);
            t1 = Instant::now();
        }
        out.attempted += 1;
        let ok = match r {
            Ok(rep) => {
                let same = same_bits(&rep.output, &oracle[k]);
                scratch.recycle(rep.output);
                same
            }
            Err(_) => false,
        };
        if !ok {
            out.failed += 1;
            untraced_us = None;
            continue;
        }
        let us = (t1 - t0).as_nanos() as f64 / 1e3;
        out.lat_us.push(us);
        if tracer.is_some() {
            match (traced, untraced_us.take()) {
                (true, Some(base)) => out.trace_cost_us.push(us - base),
                (false, _) => untraced_us = Some(us),
                _ => {}
            }
        }
    }
    out.elapsed_s += start.elapsed().as_secs_f64();
}

/// Runs a closed-loop workload for `seconds`: end-to-end metrics, or with
/// `trace` the per-layer breakdown.
pub fn run(spec: &StreamSpec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (session, first_build_s) = timed_build(spec)?;
    let inputs = input_pool(&session, 1, POOL, seed);
    let (expect, offchip_bits, peak_bits) = oracle(&session, &inputs)?;
    let mut out = Outcome::default();
    out.provenance.push((
        "output_digest",
        format!("\"{:016x}\"", digest(expect.iter().flat_map(|t| t.data()))),
    ));
    let mut scratch = ExecScratch::new();
    // Warm the scratch and the caches off the clock.
    for x in &inputs {
        let r = session.run_with(x, &mut scratch).map_err(|e| format!("warm-up: {e}"))?;
        scratch.recycle(r.output);
    }
    let total = Duration::from_secs_f64(seconds);
    let m = &mut out.metrics;
    if !trace {
        let quality = input_pool(&session, 1, spec.rel_err_inputs, seed ^ 0x4E11);
        let (quality_out, _, _) = oracle(&session, &quality)?;
        let rel_err = rel_err_vs_float((spec.net)(), &quality, &quality_out)?;
        let mut build_s = vec![first_build_s];
        let mut lp = LoopOut::default();
        for _ in 0..ROUNDS {
            let builds_end = Instant::now() + total.mul_f64(SETUP_SHARE / f64::from(ROUNDS));
            loop {
                build_s.push(timed_build(spec)?.1);
                if Instant::now() >= builds_end {
                    break;
                }
            }
            let slice = total.mul_f64((1.0 - SETUP_SHARE) / f64::from(ROUNDS));
            closed_loop(&session, &inputs, &expect, slice, &mut scratch, None, &mut lp);
        }
        let lat = sorted(lp.lat_us.clone());
        let [floor, p50, p99] =
            [FLOOR_PCT, 50.0, 99.0].map(|pct| percentile(&lat, pct).ok_or("no request succeeded"));
        let (floor, p50, p99) = (floor?, p50?, p99?);
        let builds = sorted(build_s);
        m.push("setup_s", builds[0], "s");
        m.push("lat_p1_us", floor.value, "us");
        m.push("offchip_bits", offchip_bits as f64, "bit");
        m.push("peak_onchip_bits", peak_bits as f64, "bit");
        m.push("rel_err_vs_float", rel_err, "ratio");
        m.push("peak_rss_mb", peak_rss_mb(), "MiB");
        out.notes.push(format!(
            "setup_s is the fastest of {} cold builds (median {:.6} s); lat_p1_us is read from {} latency samples \
             ({} below it); p50 {:.1} us ({} beyond), p99 {:.1} us ({} beyond) and throughput \
             {:.2}/s follow the host's load and are not gated",
            builds.len(),
            median(&builds).unwrap_or(0.0),
            floor.samples,
            floor.samples - floor.beyond - 1,
            p50.value,
            p50.beyond,
            p99.value,
            p99.beyond,
            lp.lat_us.len() as f64 / lp.elapsed_s
        ));
        out.attempted = lp.attempted;
        out.failed = lp.failed;
        return Ok(out);
    }

    let mut tracer = Tracer::new();
    let spec_q = replay::setup_layers(
        &(spec.net)(),
        MODEL_SEED,
        &session,
        total.mul_f64(0.05),
        &mut tracer,
        m,
    )?;
    // Traced and untraced requests alternate, so that both halves of each
    // pair see the same host conditions.
    let mut lp = LoopOut::default();
    closed_loop(
        &session,
        &inputs,
        &expect,
        total.mul_f64(0.5),
        &mut scratch,
        Some(&mut tracer),
        &mut lp,
    );
    let (exec_attempted, exec_failed) = layers::exec_layers(
        &session,
        spec_q.as_ref(),
        &inputs,
        seed,
        total.mul_f64(0.15),
        total.mul_f64(0.1),
        &mut tracer,
        m,
        &mut out.notes,
    )?;
    let p50_us = median(&lp.lat_us).ok_or("no request succeeded")?;
    let (serve_attempted, serve_failed) = serve::probe(
        &session,
        &inputs,
        &expect,
        seed,
        Duration::from_secs_f64(p50_us / 1e6),
        total.mul_f64(0.1),
        m,
    )?;
    m.push(
        "trace.overhead_us",
        median(&lp.trace_cost_us).ok_or("no traced request had an untraced neighbour")?,
        "us",
    );
    out.notes.push(format!(
        "serve probe: {serve_attempted} requests in bursts of {}, one tight request each",
        serve::BURST + 2
    ));
    out.notes.push(format!(
        "trace.overhead_us is the median over {} pairs of back-to-back requests of traced minus \
         untraced latency",
        lp.trace_cost_us.len()
    ));
    out.attempted = lp.attempted + exec_attempted + serve_attempted;
    out.failed = lp.failed + exec_failed + serve_failed;
    out.tracer = Some(tracer);
    Ok(out)
}
