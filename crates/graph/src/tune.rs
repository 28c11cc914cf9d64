//! Per-host design-space exploration over the planning knobs
//! [`crate::cost::AccelCost`] otherwise fixes a priori — the paper's §IV
//! DSE (Figure 12), run against the *engine's own planner* instead of the
//! standalone VGG-16 enumeration in `bconv_accel::dse`.
//!
//! The bounded joint space covers:
//!
//! * **buffer splits** — how the platform's BRAM bits divide between the
//!   intermediate ping-pong pair and the extra (splice) buffer
//!   (§III-B3's organisation and two skewed alternatives);
//! * **blocking pattern** — hierarchical and fixed grids valid for the
//!   input resolution, the Fig. 4(a) re-grid axis;
//! * **kernel policy** — a host execution knob that never changes
//!   numerics, only time.
//!
//! Every candidate is planned with the real [`crate::plan::Planner`] under
//! an [`AccelCost`] built from its buffer split, then scored on the accel
//! model's queries: modeled off-chip bits (every segment boundary's
//! write + read-back) and predicted cycles (MAC cycles at the PE count
//! plus [`FpgaPlatform::dram_cycles`] for the traffic). Splice
//! boundaries whose pooled grids can re-merge under
//! [`BlockGrid::merge`] — the pooling-aware Fig. 4(a) case — are counted
//! per point. Optional short measured trials time real sessions for the
//! Pareto-front finalists, so the report records predicted *and*
//! measured.
//!
//! The winner (lexicographically smallest `(off-chip bits, predicted
//! cycles)`; the §III-B3 default split is always candidate 0, so the
//! winner is never worse than the default) can be cached per host under
//! the same fingerprint as [`crate::cache::PlanKey`], which is how
//! [`crate::session::SessionBuilder::tuned`] skips re-exploration on warm
//! start-up.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bconv_accel::platform::{zc706, FpgaPlatform};
use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_models::Network;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::{Tensor, TensorError};

use crate::cache::{escape_json, fnv1a, graph_content_hash, host_fingerprint, parse_json, Json};
use crate::cost::AccelCost;
use crate::ir::{Graph, LowerOptions, NodeOp};
use crate::plan::{ExecPlan, Planner, PlannerOptions, Segment};
use crate::session::{Backend, Session};

/// Schema version of cached tune winners, bumped whenever a stored
/// winner's meaning changes; files of another version load as misses.
const WINNER_SCHEMA_VERSION: u64 = 2;

/// Cap on measured finalists, keeping trial time bounded no matter how
/// wide the Pareto front is.
const MAX_MEASURED: usize = 6;

/// Tuning configuration.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Target platform supplying BRAM capacity and the DRAM model.
    pub platform: FpgaPlatform,
    /// PE parallelism for the cycle estimates.
    pub npe: usize,
    /// Weight-binding seed (must match the session the winner will serve).
    pub seed: u64,
    /// Whether lowering inserts a ReLU after every conv.
    pub relu_after_conv: bool,
    /// Timed repetitions per measured finalist; `0` skips measurement and
    /// scores on the model alone (the build-path default — measuring
    /// inside `Session::build` would make start-up time depend on it).
    pub trials: usize,
    /// Directory for the per-host winner cache (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            platform: zc706(),
            npe: 1,
            seed: 2018,
            relu_after_conv: false,
            trials: 0,
            cache_dir: None,
        }
    }
}

/// One explored design point and its scores.
#[derive(Debug, Clone)]
pub struct TunePoint {
    /// Blocking pattern (`Display` form).
    pub pattern: String,
    /// Bits of one intermediate (ping-pong) buffer.
    pub intermediate_buffer_bits: u64,
    /// Bits of the extra (splice) buffer.
    pub extra_buffer_bits: u64,
    /// Kernel policy name.
    pub kernel: String,
    /// Modeled off-chip traffic of the candidate's plan, in bits.
    pub offchip_bits: u64,
    /// Predicted cycles: MACs over the PE count plus the DRAM transfer
    /// cycles of the off-chip traffic.
    pub predicted_cycles: u64,
    /// Fusion groups in the candidate's plan.
    pub fusion_groups: usize,
    /// Splices the candidate's plan took.
    pub splices: usize,
    /// Splice boundaries whose pooled grid re-merges cleanly under
    /// [`BlockGrid::merge`] (the pooling-aware Fig. 4(a) re-grid).
    pub merge_ready_splices: usize,
    /// Best wall time of the measured trials, if this point was a
    /// finalist and trials ran.
    pub measured_ms: Option<f64>,
}

/// The winning configuration, in applicable (typed) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneWinner {
    /// Blocking pattern to plan under.
    pub pattern: BlockingPattern,
    /// Bits of one intermediate buffer for [`AccelCost::with_buffers`].
    pub intermediate_buffer_bits: u64,
    /// Bits of the extra buffer for [`AccelCost::with_buffers`].
    pub extra_buffer_bits: u64,
    /// Kernel policy.
    pub kernel: KernelPolicy,
}

impl TuneWinner {
    /// The cost model this winner plans with.
    pub fn cost_model(&self, platform: FpgaPlatform, npe: usize) -> AccelCost {
        AccelCost::with_buffers(platform, self.intermediate_buffer_bits, self.extra_buffer_bits)
            .npe(npe)
    }
}

/// Everything the exploration found: every point, the Pareto front, the
/// winner, and what the winner saves over the §III-B3 default.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Network name.
    pub network: String,
    /// Content hash of the tuned graph.
    pub net_hash: u64,
    /// Host fingerprint the winner is valid for.
    pub host: String,
    /// Per-host cache key the winner is stored under.
    pub key: String,
    /// Every explored point, in exploration order. Index 0 is always the
    /// default configuration ([`AccelCost::for_platform`] split, `H2x2`,
    /// auto kernel).
    pub points: Vec<TunePoint>,
    /// Indices into [`Self::points`] of the Pareto front on
    /// `(offchip_bits, predicted_cycles)` — the §IV dominance rule.
    pub pareto: Vec<usize>,
    /// Index into [`Self::points`] of the winner.
    pub winner_index: usize,
    /// The winner in applicable form.
    pub winner: TuneWinner,
}

impl TuneReport {
    /// The default configuration's point (always index 0).
    pub fn default_point(&self) -> &TunePoint {
        &self.points[0]
    }

    /// The winning point.
    pub fn winner_point(&self) -> &TunePoint {
        &self.points[self.winner_index]
    }

    /// Serializes the report as a JSON document (the CI artifact format).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"network\": \"{}\",\n", escape_json(&self.network)));
        out.push_str(&format!("  \"net_hash\": \"{:016x}\",\n", self.net_hash));
        out.push_str(&format!("  \"host\": \"{}\",\n", escape_json(&self.host)));
        out.push_str(&format!("  \"key\": \"{}\",\n", escape_json(&self.key)));
        out.push_str(&format!("  \"points_explored\": {},\n", self.points.len()));
        out.push_str(&format!("  \"winner_index\": {},\n", self.winner_index));
        let pareto: Vec<String> = self.pareto.iter().map(|i| i.to_string()).collect();
        out.push_str(&format!("  \"pareto\": [{}],\n", pareto.join(",")));
        out.push_str("  \"points\": [\n");
        let lines: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let measured = match p.measured_ms {
                    Some(ms) => format!("{ms:.3}"),
                    None => "null".to_string(),
                };
                format!(
                    "    {{\"pattern\": \"{}\", \"intermediate_buffer_bits\": {}, \
                     \"extra_buffer_bits\": {}, \"kernel\": \"{}\", \"offchip_bits\": {}, \
                     \"predicted_cycles\": {}, \"fusion_groups\": {}, \"splices\": {}, \
                     \"merge_ready_splices\": {}, \"measured_ms\": {}}}",
                    p.pattern,
                    p.intermediate_buffer_bits,
                    p.extra_buffer_bits,
                    p.kernel,
                    p.offchip_bits,
                    p.predicted_cycles,
                    p.fusion_groups,
                    p.splices,
                    p.merge_ready_splices,
                    measured
                )
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Modeled off-chip feature-map traffic of a plan, in elements: every
/// segment reads its input map from DRAM and writes its output map back,
/// so each inter-segment boundary counts a write plus a read-back —
/// the same convention as [`crate::plan::SpliceReport`]'s savings.
pub fn modeled_offchip_elems(graph: &Graph, plan: &ExecPlan) -> u64 {
    let map_elems = |id: usize| -> u64 {
        graph.nodes().get(id).map_or(0, |n| (n.out_shape.c * n.out_shape.h * n.out_shape.w) as u64)
    };
    let in_elems = |id: usize| -> u64 {
        graph.nodes().get(id).map_or(0, |n| (n.in_shape.c * n.in_shape.h * n.in_shape.w) as u64)
    };
    let mut total = 0u64;
    for seg in plan.segments() {
        match seg {
            Segment::Single(id) => total += in_elems(*id) + map_elems(*id),
            Segment::Fused { nodes, .. } | Segment::Spliced { nodes, .. } => {
                let first = nodes.first().copied().unwrap_or_default();
                let last = nodes.last().copied().unwrap_or_default();
                total += in_elems(first) + map_elems(last);
            }
        }
    }
    total
}

/// Total conv MACs of the graph (whole maps) — constant across candidates,
/// the compute term of the predicted-cycle score.
fn graph_macs(graph: &Graph) -> u64 {
    let mut macs = 0u64;
    for node in graph.nodes() {
        if let NodeOp::Conv { conv, .. } = &node.op {
            let g = conv.geom();
            let out = node.out_shape;
            let per_out = (g.kernel * g.kernel * conv.c_in() / conv.groups()) as u64;
            macs += (out.c * out.h * out.w) as u64 * per_out;
        }
    }
    macs
}

/// Splice boundaries whose upstream group's *output* grid — possibly
/// pooled down to more, smaller blocks than the downstream pattern wants —
/// re-merges in 2×2 clusters under [`BlockGrid::merge`]: the Fig. 4(a)
/// pooling-aware re-grid at a splice joint.
fn merge_ready_splices(plan: &ExecPlan) -> usize {
    let mut ready = 0usize;
    for seg in plan.segments() {
        let Segment::Spliced { pipeline, .. } = seg else { continue };
        for pair in pipeline.groups().windows(2) {
            if pair[0].out_grid().merge(2).is_ok() {
                ready += 1;
            }
        }
    }
    ready
}

/// One candidate configuration of the joint space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    pattern: BlockingPattern,
    ib_bits: u64,
    eb_bits: u64,
    kernel: KernelPolicy,
}

/// Enumerates the bounded joint space, with the §III-B3 default first.
fn candidates(graph: &Graph, platform: &FpgaPlatform) -> Vec<Candidate> {
    let total = (platform.bram18_blocks * platform.bram18_bits) as u64;
    let default = Candidate {
        pattern: BlockingPattern::hierarchical(2),
        ib_bits: total / 8,
        eb_bits: total / 4,
        kernel: KernelPolicy::Auto,
    };
    let s = graph.input_shape();
    let patterns: Vec<BlockingPattern> = [
        BlockingPattern::hierarchical(2),
        BlockingPattern::hierarchical(4),
        BlockingPattern::fixed(8),
        BlockingPattern::fixed(16),
    ]
    .into_iter()
    .filter(|p| BlockGrid::from_pattern(s.h, s.w, *p).is_ok())
    .collect();
    // Buffer splits of the BRAM bits: the §III-B3 default (1/8 + 1/8
    // intermediate, 1/4 extra), a splice-heavy skew, and a depth-heavy
    // skew. The remainder is always left for weights.
    let splits: [(u64, u64); 3] =
        [(total / 8, total / 4), (total / 16, total * 3 / 8), (total * 3 / 16, total / 8)];
    let mut out = vec![default];
    for &pattern in &patterns {
        for &(ib_bits, eb_bits) in &splits {
            for kernel in [KernelPolicy::Auto, KernelPolicy::Direct] {
                let c = Candidate { pattern, ib_bits, eb_bits, kernel };
                if c != default {
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Plans and scores one candidate.
fn score(
    graph: &Graph,
    platform: &FpgaPlatform,
    npe: usize,
    macs: u64,
    c: &Candidate,
) -> Result<TunePoint, TensorError> {
    let model = AccelCost::with_buffers(platform.clone(), c.ib_bits, c.eb_bits).npe(npe);
    let planner = Planner::new(PlannerOptions {
        pattern: c.pattern,
        cost_model: Some(std::sync::Arc::new(model)),
        kernel: c.kernel,
        ..PlannerOptions::default()
    });
    let plan = planner.plan(graph)?;
    let offchip_bits = modeled_offchip_elems(graph, &plan) * 32;
    let predicted_cycles = macs / npe.max(1) as u64 + platform.dram_cycles(offchip_bits);
    Ok(TunePoint {
        pattern: c.pattern.to_string(),
        intermediate_buffer_bits: c.ib_bits,
        extra_buffer_bits: c.eb_bits,
        kernel: c.kernel.name().to_string(),
        offchip_bits,
        predicted_cycles,
        fusion_groups: plan.fusion_groups(),
        splices: plan.report().splices.len(),
        merge_ready_splices: merge_ready_splices(&plan),
        measured_ms: None,
    })
}

/// Pareto front on `(offchip_bits, predicted_cycles)` — the §IV dominance
/// rule of `bconv_accel::dse::pareto_front`, applied to the planner's own
/// points.
fn pareto_indices(points: &[TunePoint]) -> Vec<usize> {
    let mut front = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let dominated = points.iter().any(|q| {
            (q.offchip_bits < p.offchip_bits && q.predicted_cycles <= p.predicted_cycles)
                || (q.offchip_bits <= p.offchip_bits && q.predicted_cycles < p.predicted_cycles)
        });
        if !dominated {
            front.push(i);
        }
    }
    front
}

/// The per-host winner-cache key.
fn tune_key(net_hash: u64, host: &str, platform: &FpgaPlatform, npe: usize) -> String {
    format!("tune|{net_hash:016x}|{host}|{}|npe{npe}", platform.name)
}

/// Explores the joint space for `graph` and returns the scored report
/// (prediction only — no sessions are built). Winner caching and measured
/// trials live in [`tune`].
pub fn tune_lowered(graph: &Graph, opts: &TuneOptions) -> Result<TuneReport, TensorError> {
    let macs = graph_macs(graph);
    let cands = candidates(graph, &opts.platform);
    let mut points = Vec::with_capacity(cands.len());
    for c in &cands {
        points.push(score(graph, &opts.platform, opts.npe, macs, c)?);
    }
    let pareto = pareto_indices(&points);
    // Winner: lexicographically least (off-chip bits, predicted cycles,
    // index). The default is candidate 0, so the winner's modeled
    // off-chip bits never exceed the default's.
    let mut winner_index = 0usize;
    for (i, p) in points.iter().enumerate() {
        let best = &points[winner_index];
        if (p.offchip_bits, p.predicted_cycles, i)
            < (best.offchip_bits, best.predicted_cycles, winner_index)
        {
            winner_index = i;
        }
    }
    let w = &cands[winner_index.min(cands.len() - 1)];
    let net_hash = graph_content_hash(graph, opts.seed);
    let host = host_fingerprint();
    Ok(TuneReport {
        network: graph.name().to_string(),
        net_hash,
        host: host.clone(),
        key: tune_key(net_hash, &host, &opts.platform, opts.npe),
        points,
        pareto,
        winner_index,
        winner: TuneWinner {
            pattern: w.pattern,
            intermediate_buffer_bits: w.ib_bits,
            extra_buffer_bits: w.eb_bits,
            kernel: w.kernel,
        },
    })
}

/// Full tuning entry point: lowers `net`, explores the space, optionally
/// times the Pareto-front finalists on real sessions
/// ([`TuneOptions::trials`] best-of repetitions each), and caches the
/// winner per host when [`TuneOptions::cache_dir`] is set.
///
/// # Errors
///
/// Returns [`TensorError`] when lowering, planning, or a measured trial
/// fails. Winner-cache I/O failures are swallowed — caching is an
/// optimisation, never a correctness input.
pub fn tune(net: &Network, opts: &TuneOptions) -> Result<TuneReport, TensorError> {
    let graph = Graph::lower(
        net,
        &LowerOptions { seed: opts.seed, relu_after_conv: opts.relu_after_conv },
    )?;
    let mut report = tune_lowered(&graph, opts)?;
    if opts.trials > 0 {
        let s = graph.input_shape();
        let input = Tensor::filled([1, s.c, s.h, s.w], 0.5);
        let mut finalists: Vec<usize> = report.pareto.clone();
        if !finalists.contains(&report.winner_index) {
            finalists.push(report.winner_index);
        }
        if !finalists.contains(&0) {
            finalists.push(0); // always measure the default for comparison
        }
        finalists.truncate(MAX_MEASURED);
        for idx in finalists {
            let p = &report.points[idx];
            let model = AccelCost::with_buffers(
                opts.platform.clone(),
                p.intermediate_buffer_bits,
                p.extra_buffer_bits,
            )
            .npe(opts.npe);
            let pattern = pattern_from_name(&p.pattern).ok_or_else(|| {
                TensorError::invalid(format!("unparseable pattern {:?}", p.pattern))
            })?;
            let kernel = kernel_from_name(&p.kernel).ok_or_else(|| {
                TensorError::invalid(format!("unparseable kernel {:?}", p.kernel))
            })?;
            let session = Session::builder()
                .network(net.clone())
                .backend(Backend::Blocked)
                .pattern(pattern)
                .cost_model(model)
                .kernel(kernel)
                .seed(opts.seed)
                .relu_after_conv(opts.relu_after_conv)
                .build()?;
            let mut best_ms = f64::INFINITY;
            for _ in 0..opts.trials {
                let t = Instant::now();
                std::hint::black_box(session.run(&input)?);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                best_ms = best_ms.min(ms);
            }
            report.points[idx].measured_ms = Some(best_ms);
        }
    }
    if let Some(dir) = &opts.cache_dir {
        store_winner(dir, &report.key, &report.winner);
    }
    Ok(report)
}

/// Loads a previously cached winner for `(graph, host, platform)`, or
/// `None` when there is no valid entry. Any read/parse/key failure is a
/// miss, never an error — the caller re-tunes.
pub fn load_cached_winner(
    dir: &Path,
    graph: &Graph,
    seed: u64,
    platform: &FpgaPlatform,
    npe: usize,
) -> Option<(TuneWinner, String)> {
    let net_hash = graph_content_hash(graph, seed);
    let key = tune_key(net_hash, &host_fingerprint(), platform, npe);
    let path = dir.join(format!("{}.json", winner_file_stem(&key)));
    let text = std::fs::read_to_string(path).ok()?;
    let doc = parse_json(&text).ok()?;
    if doc.get("version").and_then(Json::as_u64) != Some(WINNER_SCHEMA_VERSION) {
        return None;
    }
    if doc.get("key").and_then(Json::as_str) != Some(key.as_str()) {
        return None;
    }
    let pattern = pattern_from_name(doc.get("pattern").and_then(Json::as_str)?)?;
    let kernel = kernel_from_name(doc.get("kernel").and_then(Json::as_str)?)?;
    Some((
        TuneWinner {
            pattern,
            intermediate_buffer_bits: doc.get("intermediate_buffer_bits").and_then(Json::as_u64)?,
            extra_buffer_bits: doc.get("extra_buffer_bits").and_then(Json::as_u64)?,
            kernel,
        },
        key,
    ))
}

fn winner_file_stem(key: &str) -> String {
    format!("tune-{:016x}", fnv1a(key.as_bytes()))
}

/// Writes the winner cache entry; failures are swallowed (see [`tune`]).
pub(crate) fn store_winner(dir: &Path, key: &str, winner: &TuneWinner) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let text = format!(
        "{{\"version\": {WINNER_SCHEMA_VERSION}, \"key\": \"{}\", \"pattern\": \"{}\", \
         \"intermediate_buffer_bits\": {}, \"extra_buffer_bits\": {}, \"kernel\": \"{}\"}}\n",
        escape_json(key),
        winner.pattern,
        winner.intermediate_buffer_bits,
        winner.extra_buffer_bits,
        winner.kernel.name()
    );
    let path = dir.join(format!("{}.json", winner_file_stem(key)));
    let _ = std::fs::write(path, text);
}

/// Parses a pattern back from its `Display` form (`F8`, `F28x14`,
/// `H2x2`).
pub(crate) fn pattern_from_name(name: &str) -> Option<BlockingPattern> {
    let (kind, rest) = name.split_at(name.len().min(1));
    let parse_pair = |s: &str| -> Option<(usize, usize)> {
        match s.split_once('x') {
            Some((a, b)) => Some((a.parse().ok()?, b.parse().ok()?)),
            None => {
                let v: usize = s.parse().ok()?;
                Some((v, v))
            }
        }
    };
    let (a, b) = parse_pair(rest)?;
    match kind {
        "F" => Some(BlockingPattern::Fixed { th: a, tw: b }),
        "H" => Some(BlockingPattern::Hierarchical { gh: a, gw: b }),
        _ => None,
    }
}

/// Parses a kernel policy back from its name.
pub(crate) fn kernel_from_name(name: &str) -> Option<KernelPolicy> {
    match name {
        "auto" => Some(KernelPolicy::Auto),
        "direct" => Some(KernelPolicy::Direct),
        "im2col-gemm" => Some(KernelPolicy::Im2colGemm),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_models::small::vgg16_small;

    #[test]
    fn pattern_names_round_trip() {
        for p in [
            BlockingPattern::hierarchical(2),
            BlockingPattern::hierarchical(4),
            BlockingPattern::fixed(8),
            BlockingPattern::Fixed { th: 28, tw: 14 },
        ] {
            assert_eq!(pattern_from_name(&p.to_string()), Some(p));
        }
        assert_eq!(pattern_from_name(""), None);
        assert_eq!(pattern_from_name("Q4"), None);
    }

    #[test]
    fn default_candidate_is_first_and_unique() {
        let graph = Graph::lower(&vgg16_small(32), &LowerOptions::default()).unwrap();
        let cands = candidates(&graph, &zc706());
        assert!(cands.len() > 10, "space too small: {}", cands.len());
        let d = cands[0];
        assert_eq!(d.pattern, BlockingPattern::hierarchical(2));
        assert_eq!(d.kernel, KernelPolicy::Auto);
        assert_eq!(cands.iter().filter(|c| **c == d).count(), 1);
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let graph = Graph::lower(&vgg16_small(32), &LowerOptions::default()).unwrap();
        let report = tune_lowered(&graph, &TuneOptions::default()).unwrap();
        assert!(!report.pareto.is_empty());
        for &i in &report.pareto {
            let p = &report.points[i];
            for q in &report.points {
                let dominates =
                    q.offchip_bits < p.offchip_bits && q.predicted_cycles <= p.predicted_cycles;
                assert!(!dominates, "pareto point {i} dominated");
            }
        }
        // The winner never regresses the default's modeled traffic.
        assert!(report.winner_point().offchip_bits <= report.default_point().offchip_bits);
    }
}
