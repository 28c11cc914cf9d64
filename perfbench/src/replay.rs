//! Per-layer replay: every call the traced run makes into the engine
//! below the `Session` API lives in this module, so a change to those
//! internal interfaces touches one file of the benchmark.
//!
//! - [`setup_layers`] times lowering, planning and calibration on their
//!   own public entry points.
//! - [`Replayer`] re-executes `session.plan().segments()` through
//!   `FusedChain` / `FusedPipeline::run_fused_into` on the real
//!   intermediate maps, and checks the replayed output bit for bit
//!   against `Session::run_with`.
//! - [`conv_layers`] times every fused convolution through the float
//!   block kernel and the integer block path, next to the cycles the
//!   paper's accelerator model predicts for it.

use std::time::{Duration, Instant};

use bconv_accel::schedule::{fused_group_cost, StageFootprint};
use bconv_core::fusion::{BlockScratch, FusedChain, MemStats, PipelineScratch};
use bconv_core::{BlockConv2d, BlockConvScratch};
use bconv_graph::{
    Backend, ExecScratch, Graph, GraphQuantSpec, LowerOptions, NodeId, NodeOp, NodeRef, Planner,
    PlannerOptions, Segment, Session, DEFAULT_CALIBRATION_BATCHES,
};
use bconv_models::Network;
use bconv_quant::qconv::{QConvScratch, QuantChainOp};
use bconv_quant::qlinear::{QLinear, QLinearScratch};
use bconv_quant::QParams;
use bconv_tensor::elementwise::add_into;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::Tensor;

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Processing elements of the modeled accelerator; 1 matches the default
/// of the planner's `AccelCost` model, so modeled cycles equal MACs.
const NPE: usize = 1;

/// Bit widths used to time the integer path on float workloads.
const PROBE_BITS: u8 = 8;

/// The session's default calibration set: `DEFAULT_CALIBRATION_BATCHES`
/// seeded uniform batches over the input shape. Rebuilt here so that
/// calibration can be timed on its own and the quantized replay can run
/// the whole-map FC nodes in integer arithmetic with the session's
/// activation ranges. If this copy drifts from the session's, the bitwise
/// replay check fails.
fn default_calibration(graph: &Graph, seed: u64) -> Vec<Tensor> {
    let s = graph.input_shape();
    (0..DEFAULT_CALIBRATION_BATCHES)
        .map(|i| {
            let mut rng = seeded_rng(seed ^ 0x5143_414C ^ ((i as u64 + 1) << 32));
            uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut rng)
        })
        .collect()
}

fn time_us<T>(
    tracer: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let out = f()?;
    let t1 = Instant::now();
    tracer.record(name, t0, t1, None, 0);
    Ok((out, (t1 - t0).as_nanos() as f64 / 1e3))
}

/// Times lowering, calibration and planning of `net`, repeating while
/// `budget` lasts (one to five times), and pushes the build-stage metrics
/// (`graph.ir`, `graph.plan`, `graph.quantize`) into `m`. Calibration is
/// timed on every workload, although only a quantized session's build
/// runs it. Returns the calibrated spec of a quantized session, for
/// replaying it.
pub fn setup_layers(
    net: &Network,
    model_seed: u64,
    session: &Session,
    budget: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<Option<GraphQuantSpec>, String> {
    let opts = LowerOptions { seed: model_seed, relu_after_conv: false };
    let (wbits, abits) = match session.backend() {
        Backend::Quantized { weight_bits, act_bits } => (weight_bits, act_bits),
        _ => (PROBE_BITS, PROBE_BITS),
    };
    let planner =
        Planner::new(PlannerOptions { pattern: session.plan().pattern(), ..Default::default() });
    let (mut lower, mut plan, mut calib) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while lower.is_empty() || (lower.len() < 5 && start.elapsed() < budget) {
        let (graph, us) = time_us(tracer, "graph.ir.lower", || {
            Graph::lower(net, &opts).map_err(|e| format!("lowering: {e}"))
        })?;
        lower.push(us);
        let inputs = default_calibration(&graph, model_seed);
        let (spec, us) = time_us(tracer, "graph.quantize.calibrate", || {
            GraphQuantSpec::calibrate(&graph, &inputs, wbits, abits)
                .map_err(|e| format!("calibration: {e}"))
        })?;
        calib.push(us);
        let quantized = matches!(session.backend(), Backend::Quantized { .. });
        let (planned, us) = time_us(tracer, "graph.plan.plan", || {
            if quantized { planner.plan_quantized(&graph, &spec) } else { planner.plan(&graph) }
                .map_err(|e| format!("planning: {e}"))
        })?;
        plan.push(us);
        last = Some((planned, quantized.then_some(spec)));
    }
    let (planned, spec) = last.ok_or("no setup repetition ran")?;
    if planned.segments().len() != session.plan().segments().len()
        || planned.fusion_groups() != session.plan().fusion_groups()
    {
        return Err("re-planning outside the session produced a different plan".into());
    }
    m.push("graph.ir.lower_us", median(&lower).unwrap_or(0.0), "us");
    m.push("graph.plan.plan_us", median(&plan).unwrap_or(0.0), "us");
    m.push("graph.quantize.calibrate_us", median(&calib).unwrap_or(0.0), "us");
    m.push("graph.plan.fusion_groups", session.plan().fusion_groups() as f64, "count");
    m.push("graph.plan.splices", session.plan().report().splices.len() as f64, "count");
    Ok(spec)
}

/// Timings of one replayed request.
pub struct RepTiming {
    /// `Session::run_with` wall time.
    pub run_ns: u64,
    /// The `graph.exec.replay` span.
    pub replay: SpanId,
    /// Replay time of each fused (or spliced) segment, in plan order.
    pub fused_ns: Vec<u64>,
}

/// Segment-by-segment re-execution of a session's plan.
pub struct Replayer<'s> {
    session: &'s Session,
    /// Integer FC layers of a quantized session, by node id.
    qlinears: Vec<Option<(QLinear, QParams)>>,
    /// Node values of the replay in flight (buffers reused across reps).
    vals: Vec<Tensor>,
    pipe: PipelineScratch,
    qlin: QLinearScratch,
}

impl<'s> Replayer<'s> {
    /// Prepares a replay of `session`; `spec` is its calibration when the
    /// session is quantized.
    pub fn new(session: &'s Session, spec: Option<&GraphQuantSpec>) -> Self {
        let nodes = session.graph().nodes();
        let qlinears = nodes
            .iter()
            .enumerate()
            .map(|(id, node)| match (&node.op, spec) {
                (NodeOp::Fc(lin), Some(spec)) => spec
                    .act_params(id)
                    .and_then(|p| QLinear::from_linear(lin, spec.weight_bits).map(|q| (q, p))),
                _ => None,
            })
            .collect();
        Self {
            session,
            qlinears,
            vals: vec![Tensor::default(); nodes.len()],
            pipe: PipelineScratch::new(),
            qlin: QLinearScratch::new(),
        }
    }

    /// Runs `input` through `run_with`, then replays every segment, and
    /// fails unless the replayed output equals the run's output bit for
    /// bit. Spans: `graph.exec.run_with`, and `graph.exec.replay` with one
    /// `core.fusion.segment.<k>` child per fused segment `k`; whole-map
    /// nodes and the segment loop are the replay span's self time.
    pub fn rep(
        &mut self,
        input: &Tensor,
        scratch: &mut ExecScratch,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<RepTiming, String> {
        let t0 = Instant::now();
        let report = self.session.run_with(input, scratch).map_err(|e| format!("run_with: {e}"))?;
        let t1 = Instant::now();
        tracer.record("graph.exec.run_with", t0, t1, None, request);

        let Self { session, qlinears, vals, pipe, qlin } = self;
        let graph = session.graph();
        let root = tracer.open("graph.exec.replay", None, request);
        let mut fused_ns = Vec::new();
        for seg in session.plan().segments() {
            let out_id = seg.output_node();
            let mut out = std::mem::take(&mut vals[out_id]);
            let start = Instant::now();
            let done = match seg {
                Segment::Fused { chain, input: src, .. } => chain
                    .run_fused_into(resolve(vals, input, *src), 1, &mut out, pipe.block_mut())
                    .map(|_| ()),
                Segment::Spliced { pipeline, input: src, .. } => pipeline
                    .run_fused_into(resolve(vals, input, *src), 1, &mut out, pipe)
                    .map(|_| ()),
                Segment::Single(id) => {
                    eval_single(graph, qlinears, *id, vals, input, &mut out, qlin)
                }
            };
            let end = Instant::now();
            done.map_err(|e| format!("replaying segment ending at node {out_id}: {e}"))?;
            if !matches!(seg, Segment::Single(_)) {
                let name = format!("core.fusion.segment.{}", fused_ns.len());
                tracer.record(name, start, end, Some(root), request);
                fused_ns.push((end - start).as_nanos() as u64);
            }
            vals[out_id] = out;
        }
        tracer.close(root);
        let replayed = &vals[graph.output_id()];
        let same = replayed.shape() == report.output.shape()
            && replayed.data().iter().map(|v| v.to_bits()).eq(report
                .output
                .data()
                .iter()
                .map(|v| v.to_bits()));
        scratch.recycle(report.output);
        if !same {
            return Err("segment replay differs from Session::run_with".into());
        }
        Ok(RepTiming { run_ns: (t1 - t0).as_nanos() as u64, replay: root, fused_ns })
    }

    /// Walks the first fused segment block by block through
    /// `FusedChain::run_block_scratch` (the first group of a spliced
    /// segment), reading the segment's real input map from the last
    /// [`rep`](Self::rep). Returns each block's time in µs; spans
    /// `core.fusion.block` under `core.fusion.block_walk`.
    pub fn block_walk(
        &mut self,
        input: &Tensor,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<Vec<f64>, String> {
        let (chain, src) = first_fused(self.session).ok_or("the plan has no fused segment")?;
        let in_map = resolve(&self.vals, input, src);
        let block: &mut BlockScratch = self.pipe.block_mut();
        let mut stats = MemStats::default();
        let walk = tracer.open("core.fusion.block_walk", None, request);
        let mut out = Vec::new();
        let grid = chain.in_grid();
        for row in 0..grid.num_rows() {
            for col in 0..grid.num_cols() {
                let t0 = Instant::now();
                chain
                    .run_block_scratch(in_map, row, col, block, &mut stats)
                    .map_err(|e| format!("block ({row},{col}): {e}"))?;
                let t1 = Instant::now();
                tracer.record("core.fusion.block", t0, t1, Some(walk), request);
                out.push((t1 - t0).as_nanos() as f64 / 1e3);
            }
        }
        tracer.close(walk);
        Ok(out)
    }
}

fn resolve<'a>(vals: &'a [Tensor], input: &'a Tensor, r: NodeRef) -> &'a Tensor {
    match r {
        NodeRef::Input => input,
        NodeRef::Node(i) => &vals[i],
    }
}

/// Evaluates a whole-map node the way the session's executor does. Only
/// the node kinds the benchmark's networks place outside fusion groups
/// are supported.
fn eval_single(
    graph: &Graph,
    qlinears: &[Option<(QLinear, QParams)>],
    id: NodeId,
    vals: &[Tensor],
    input: &Tensor,
    out: &mut Tensor,
    qlin: &mut QLinearScratch,
) -> Result<(), bconv_tensor::TensorError> {
    let node = &graph.nodes()[id];
    let in_t = resolve(vals, input, node.input);
    match &node.op {
        NodeOp::Add { other } => add_into(in_t, resolve(vals, input, *other), out),
        NodeOp::Fc(lin) => match &qlinears[id] {
            Some((q, params)) => q.forward_into(in_t, *params, out, qlin),
            None => lin.forward_into(in_t, out),
        },
        op => Err(bconv_tensor::TensorError::invalid(format!(
            "the replay does not evaluate whole-map {} nodes",
            op.mnemonic()
        ))),
    }
}

/// The first fused segment's chain (first group of a spliced one) and
/// what it reads.
fn first_fused(session: &Session) -> Option<(&FusedChain, NodeRef)> {
    session.plan().segments().iter().find_map(|seg| match seg {
        Segment::Fused { chain, input, .. } => Some((chain, *input)),
        Segment::Spliced { pipeline, input, .. } => pipeline.groups().first().map(|g| (g, *input)),
        Segment::Single(_) => None,
    })
}

/// Every fused convolution of the plan with the node it came from, by
/// fused-segment ordinal.
fn fused_convs(session: &Session) -> Vec<Vec<(NodeId, &BlockConv2d)>> {
    let nodes = session.graph().nodes();
    let conv_ids = |ids: &[NodeId]| -> Vec<NodeId> {
        ids.iter().copied().filter(|&id| matches!(nodes[id].op, NodeOp::Conv { .. })).collect()
    };
    session
        .plan()
        .segments()
        .iter()
        .filter_map(|seg| match seg {
            Segment::Fused { nodes: ids, chain, .. } => {
                Some(conv_ids(ids).into_iter().zip(chain.convs()).collect())
            }
            Segment::Spliced { nodes: ids, pipeline, .. } => Some(
                conv_ids(ids)
                    .into_iter()
                    .zip(pipeline.groups().iter().flat_map(FusedChain::convs))
                    .collect(),
            ),
            Segment::Single(_) => None,
        })
        .collect()
}

/// Blocks walked per inference, over every fused group.
pub fn fused_block_count(session: &Session) -> usize {
    let blocks = |c: &FusedChain| c.in_grid().num_blocks();
    session
        .plan()
        .segments()
        .iter()
        .map(|seg| match seg {
            Segment::Fused { chain, .. } => blocks(chain),
            Segment::Spliced { pipeline, .. } => pipeline.groups().iter().map(blocks).sum(),
            Segment::Single(_) => 0,
        })
        .sum()
}

fn footprint(b: &BlockConv2d, bits: u64) -> Result<StageFootprint, String> {
    let out_grid = b.output_grid().map_err(|e| format!("output grid: {e}"))?;
    Ok(StageFootprint {
        in_block_bits: (b.conv().c_in() * b.grid().max_block_area()) as u64 * bits,
        out_block_bits: (b.conv().c_out() * out_grid.max_block_area()) as u64 * bits,
        macs: b.macs(),
    })
}

/// Modeled compute cycles of each fused segment under the accelerator's
/// fused-group cost model.
pub fn modeled_segment_cycles(session: &Session) -> Result<Vec<u64>, String> {
    let bits = u64::from(session.plan().act_bits().unwrap_or(32));
    fused_convs(session)
        .iter()
        .map(|convs| {
            let fps =
                convs.iter().map(|(_, b)| footprint(b, bits)).collect::<Result<Vec<_>, _>>()?;
            Ok(fused_group_cost(&fps, NPE).compute_cycles)
        })
        .collect()
}

/// One fused convolution, timed on both block paths.
pub struct ConvLayer {
    pub name: String,
    pub macs: u64,
    pub modeled_cycles: u64,
    /// Median µs of one sweep over all blocks through the float kernel.
    pub float_us: f64,
    /// Median µs of one sweep through block padding + the integer path.
    pub quant_us: f64,
}

/// Times every fused convolution block by block, alternating the float
/// kernel (`BlockConv2d::forward_block_into`) and the integer path (the
/// quantized chain stage: block padding, then `QuantChainOp`), on a
/// seeded map of the layer's input shape — kernel time does not depend on
/// the values. Each layer gets an equal share of `budget` and at least
/// three sweeps of each. Spans: `tensor.kernel.conv` and `quant.qconv.conv`
/// with the layer index as request id.
pub fn conv_layers(
    session: &Session,
    spec: Option<&GraphQuantSpec>,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Vec<ConvLayer>, String> {
    let layers: Vec<(NodeId, &BlockConv2d)> = fused_convs(session).into_iter().flatten().collect();
    let per_layer = budget / layers.len().max(1) as u32;
    let bits = u64::from(session.plan().act_bits().unwrap_or(32));
    let wbits = spec.map_or(PROBE_BITS, |s| s.weight_bits);
    let mut rng = seeded_rng(seed ^ 0xC0_4B);
    let (mut fscratch, mut qscratch) = (BlockConvScratch::new(), QConvScratch::new());
    let (mut out, mut qpad) = (Tensor::default(), Tensor::default());
    let mut result = Vec::new();
    for (li, &(id, b)) in layers.iter().enumerate() {
        let conv = b.conv();
        let params = spec
            .and_then(|s| s.act_params(id))
            .unwrap_or_else(|| QParams::from_abs_max(1.0, PROBE_BITS));
        let kernel = KernelPolicy::Auto.resolve(conv);
        let op = QuantChainOp::from_conv_with_kernel(conv, wbits, params, kernel)
            .ok_or_else(|| format!("conv node {id} has all-zero weights"))?;
        let grid = b.grid();
        let map = uniform_tensor([1, conv.c_in(), grid.h(), grid.w()], -1.0, 1.0, &mut rng);
        let mut blocks = Vec::new();
        for row in 0..grid.num_rows() {
            for col in 0..grid.num_cols() {
                let blk = grid.block(row, col);
                let t = map.crop(blk.h0, blk.w0, blk.bh, blk.bw).map_err(|e| e.to_string())?;
                blocks.push((row, col, t));
            }
        }
        let (mut fl, mut qu) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while fl.len() < 3 || start.elapsed() < per_layer {
            let t0 = Instant::now();
            for (row, col, blk) in &blocks {
                b.forward_block_into(blk, *row, *col, &mut out, &mut fscratch)
                    .map_err(|e| format!("float block conv: {e}"))?;
            }
            let t1 = Instant::now();
            for (row, col, blk) in &blocks {
                b.pad_block_into(blk, *row, *col, &mut qpad)
                    .and_then(|()| op.forward_prepadded_into(&qpad, &mut out, &mut qscratch))
                    .map_err(|e| format!("integer block conv: {e}"))?;
            }
            let t2 = Instant::now();
            tracer.record("tensor.kernel.conv", t0, t1, None, li as u64);
            tracer.record("quant.qconv.conv", t1, t2, None, li as u64);
            fl.push((t1 - t0).as_nanos() as f64 / 1e3);
            qu.push((t2 - t1).as_nanos() as f64 / 1e3);
        }
        result.push(ConvLayer {
            name: session.graph().nodes()[id].name.clone(),
            macs: b.macs(),
            modeled_cycles: fused_group_cost(&[footprint(b, bits)?], NPE).compute_cycles,
            float_us: median(&fl).unwrap_or(0.0),
            quant_us: median(&qu).unwrap_or(0.0),
        });
    }
    Ok(result)
}
