//! Executors: pluggable backends that run a compiled [`Graph`].
//!
//! Three backends ship with the crate:
//!
//! * [`ReferenceExecutor`] — dense layer-wise execution on whole feature
//!   maps; every intermediate makes a DRAM round trip. The numerical and
//!   memory-accounting baseline.
//! * [`BlockedExecutor`] — executes an [`ExecPlan`]: fusion groups run
//!   block-by-block through [`bconv_core::fusion::FusedChain`], whole-map
//!   segments run densely, and [`MemStats`] records the off-chip traffic
//!   the fused schedule avoids.
//! * [`crate::quantize::QuantizedExecutor`] — the blocked schedule with
//!   every convolution in calibrated integer arithmetic (the paper's
//!   deployment path; see [`crate::quantize`]).
//!
//! The float backends share one node evaluator, so a graph with an
//! unblocked plan produces bit-identical outputs on `Reference` and
//! `Blocked`; blocking itself only perturbs block-boundary pixels (paper
//! §II-C). The quantized backend reuses the same segment loop and
//! evaluator but substitutes integer convolutions, so it tracks — rather
//! than matches — the float results.
//!
//! Executors are **immutable after construction** ([`Executor`] requires
//! `Send + Sync`): one compiled backend can serve concurrent callers.
//! All per-run mutable state lives in an [`ExecScratch`] owned by the
//! caller — [`Executor::run_scratch`] reuses it across requests so
//! steady-state serving performs no allocation beyond the output tensor
//! handed back in each [`RunReport`] (see [`crate::serve`]).

use std::sync::Arc;

use bconv_core::fusion::{MemStats, PipelineScratch};
use bconv_quant::qconv::QConvScratch;
use bconv_quant::qlinear::QLinearScratch;
use bconv_tensor::activation::relu_inplace;
use bconv_tensor::elementwise::add_into;
use bconv_tensor::kernel::{ConvScratch, KernelKind};
use bconv_tensor::pad::{pad2d_asym_into, PadMode};
use bconv_tensor::pool::{global_avg_pool_into, max_pool2d_into};
use bconv_tensor::upsample::upsample_nearest_into;
use bconv_tensor::{Tensor, TensorError};

use crate::ir::{Graph, NodeOp, NodeRef};
use crate::plan::{ExecPlan, Segment};

/// Result of one execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The network output.
    pub output: Tensor,
    /// Memory/traffic statistics in elements (multiply by the bitwidth for
    /// bits, as the paper's figures do).
    pub stats: MemStats,
    /// Number of executed segments (nodes for the reference backend).
    pub segments: usize,
}

/// Reusable per-caller execution state: the node-value table, a pool of
/// recycled intermediate tensors, and the kernel scratch buffers. One
/// scratch belongs to one caller at a time (a serving worker owns one for
/// its lifetime); the executor itself stays shared and immutable.
///
/// Buffers grow to the largest request seen and are reused afterwards:
/// once warm, a run's only allocation is the output tensor that leaves in
/// its [`RunReport`] (it is handed to the caller, so it cannot return to
/// the pool).
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Materialised per-node values of the in-flight run.
    values: Vec<Option<Tensor>>,
    /// Remaining-use counters (consumer counts) of the in-flight run.
    remaining: Vec<usize>,
    /// Recycled value buffers: released intermediates land here and are
    /// reshaped for the next node instead of reallocating.
    pool: Vec<Tensor>,
    /// Per-block intermediates for serial fused-chain execution plus the
    /// boundary maps of spliced pipelines (one
    /// [`bconv_core::fusion::BlockScratch`] serves both the plain-chain
    /// and pipeline paths — see [`PipelineScratch::block_mut`]).
    pipeline: PipelineScratch,
    /// Whole-map (single-segment) kernel temporaries.
    single: SingleScratch,
}

impl ExecScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a tensor to the scratch's recycle pool — typically the
    /// [`RunReport::output`] of a finished request. The output buffer is
    /// the one allocation a warm [`run_scratch`](Executor::run_scratch)
    /// still performs (it leaves in the report, so it cannot return to the
    /// pool by itself); a caller that hands it back after consuming the
    /// result makes steady-state execution **fully** allocation-free,
    /// which `tests/alloc_gate.rs` asserts to the byte.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.pool.push(tensor);
    }
}

/// Kernel temporaries for whole-map (`Segment::Single`) node evaluation.
#[derive(Debug, Default)]
pub(crate) struct SingleScratch {
    /// Float conv kernel temporaries (im2col patches etc.).
    conv: ConvScratch,
    /// Integer conv temporaries (quantized activations).
    pub(crate) qconv: QConvScratch,
    /// Integer FC temporaries (quantized activations).
    pub(crate) qlinear: QLinearScratch,
    /// Padded-input staging buffer (conv geometry padding, pool `-inf`
    /// padding).
    padded: Tensor,
}

/// A compiled execution backend. Implementations are immutable after
/// construction and shareable across threads; all per-run mutable state
/// is confined to the caller's [`ExecScratch`].
pub trait Executor: Send + Sync {
    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Runs the network on `input` (NCHW, any batch size) with one-shot
    /// scratch buffers. Prefer [`run_scratch`](Self::run_scratch) when
    /// running many requests.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when `input` does not match the graph's
    /// input shape or an operator fails.
    fn run(&self, input: &Tensor) -> Result<RunReport, TensorError> {
        self.run_scratch(input, &mut ExecScratch::new())
    }

    /// [`run`](Self::run) reusing caller-owned buffers across requests —
    /// the serving entry point. Outputs are bitwise-identical to
    /// [`run`](Self::run); only the allocation behaviour differs.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    fn run_scratch(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError>;
}

/// Validates the per-element input shape against the graph.
pub(crate) fn check_input(graph: &Graph, input: &Tensor) -> Result<(), TensorError> {
    let [_, c, h, w] = input.shape().dims();
    let want = graph.input_shape();
    if (c, h, w) != (want.c, want.h, want.w) {
        return Err(TensorError::shape_mismatch(
            format!("{} input", graph.name()),
            want.to_string(),
            format!("{c}x{h}x{w}"),
        ));
    }
    Ok(())
}

/// Max pooling with symmetric padding, padding with `-inf` so border
/// windows ignore the synthetic pixels (descriptor pools may carry `p>0`,
/// e.g. the ResNet stem's 3/2/1). The padded staging buffer comes from
/// the caller's scratch.
fn max_pool_padded_into(
    input: &Tensor,
    k: usize,
    s: usize,
    p: usize,
    out: &mut Tensor,
    padded: &mut Tensor,
) -> Result<(), TensorError> {
    if p == 0 {
        return max_pool2d_into(input, k, s, out);
    }
    let [n, c, h, w] = input.shape().dims();
    padded.reset([n, c, h + 2 * p, w + 2 * p]);
    padded.data_mut().fill(f32::NEG_INFINITY);
    padded.paste(input, p, p)?;
    max_pool2d_into(padded, k, s, out)
}

/// Shared node evaluator: the single source of truth for what each op
/// computes, used by every backend. Writes into `out` (reshaped to fit,
/// every element overwritten), drawing temporaries from `scratch`.
pub(crate) fn eval_node_into(
    op: &NodeOp,
    input: &Tensor,
    aux: Option<&Tensor>,
    out: &mut Tensor,
    scratch: &mut SingleScratch,
) -> Result<(), TensorError> {
    match op {
        NodeOp::Conv { conv, .. } => {
            // Whole-map convs pad with their own symmetric zero geometry
            // padding (exactly `Conv2d::forward`), staged in scratch.
            let p = conv.geom().padding;
            pad2d_asym_into(input, p, p, p, p, PadMode::Zero, &mut scratch.padded)?;
            conv.forward_prepadded_into(&scratch.padded, KernelKind::Direct, out, &mut scratch.conv)
        }
        NodeOp::Relu => {
            out.reset(input.shape());
            out.data_mut().copy_from_slice(input.data());
            relu_inplace(out);
            Ok(())
        }
        NodeOp::MaxPool { k, s, p } => {
            max_pool_padded_into(input, *k, *s, *p, out, &mut scratch.padded)
        }
        NodeOp::GlobalAvgPool => {
            global_avg_pool_into(input, out);
            Ok(())
        }
        NodeOp::Fc(linear) => linear.forward_into(input, out),
        NodeOp::Add { .. } => {
            let other = aux.ok_or_else(|| TensorError::invalid("Add without second input"))?;
            add_into(input, other, out)
        }
        NodeOp::Upsample { factor } => upsample_nearest_into(input, *factor, out),
    }
}

/// Resolves a [`NodeRef`] against stored values.
pub(crate) fn resolve<'a>(
    values: &'a [Option<Tensor>],
    input: &'a Tensor,
    r: NodeRef,
) -> Result<&'a Tensor, TensorError> {
    match r {
        NodeRef::Input => Ok(input),
        NodeRef::Node(i) => values[i]
            .as_ref()
            .ok_or_else(|| TensorError::invalid(format!("node {i} value not materialised"))),
    }
}

/// Dense layer-wise backend: the conventional accelerator dataflow where
/// every intermediate feature map is written to and read back from DRAM.
#[derive(Debug, Clone)]
pub struct ReferenceExecutor {
    graph: Arc<Graph>,
}

impl ReferenceExecutor {
    /// Compiles the backend (trivially) from a graph.
    pub fn new(graph: Arc<Graph>) -> Self {
        Self { graph }
    }
}

impl Executor for ReferenceExecutor {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn run_scratch(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        let last = self.graph.output_id();
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel(),
            ..MemStats::default()
        };
        let output = run_dense_scratch(&self.graph, input, scratch, |id, node, in_t, aux, out| {
            let live =
                in_t.shape().numel() + out.shape().numel() + aux.map_or(0, |t| t.shape().numel());
            stats.peak_working_elems = stats.peak_working_elems.max(live);
            // ReLU runs in place on hardware: no extra DRAM round trip
            // (matching FusedChain::run_layerwise's accounting).
            if !matches!(node.op, NodeOp::Relu) {
                stats.offchip_elems +=
                    if id == last { out.shape().numel() } else { 2 * out.shape().numel() };
            }
        })?;
        Ok(RunReport { output, stats, segments: self.graph.nodes().len() })
    }
}

/// The dense layer-wise graph walk shared by the reference backend and the
/// calibration pass: resolve inputs (including `Add` second operands),
/// evaluate through [`eval_node_into`], recycle intermediates after their
/// last consumer, return the graph output. `observe` sees every node's
/// inputs and output as it executes — the reference backend accumulates
/// [`MemStats`] there, calibration feeds conv inputs to its range
/// trackers. Keeping the walk here once guarantees calibration runs
/// exactly the numerics the reference backend reports.
pub(crate) fn run_dense_scratch(
    graph: &Graph,
    input: &Tensor,
    scratch: &mut ExecScratch,
    mut observe: impl FnMut(crate::ir::NodeId, &crate::ir::Node, &Tensor, Option<&Tensor>, &Tensor),
) -> Result<Tensor, TensorError> {
    check_input(graph, input)?;
    let nodes = graph.nodes();
    let ExecScratch { values, remaining, pool, single, .. } = scratch;
    // A cleared table drops any values a previously failed run left
    // behind; the Vec allocations themselves persist across requests.
    values.clear();
    values.resize_with(nodes.len(), || None);
    remaining.clear();
    remaining.extend((0..nodes.len()).map(|i| graph.consumer_count(i)));
    for (id, node) in nodes.iter().enumerate() {
        let mut out = pool.pop().unwrap_or_default();
        let in_t = resolve(values, input, node.input)?;
        let aux = match node.op {
            NodeOp::Add { other } => Some(resolve(values, input, other)?),
            _ => None,
        };
        eval_node_into(&node.op, in_t, aux, &mut out, single)?;
        observe(id, node, in_t, aux, &out);
        values[id] = Some(out);
        release_used(values, remaining, pool, node);
    }
    values[graph.output_id()].take().ok_or_else(|| TensorError::invalid("graph produced no output"))
}

/// [`run_dense_scratch`] with one-shot buffers (the calibration entry
/// point, which walks a graph only a handful of times).
pub(crate) fn run_dense(
    graph: &Graph,
    input: &Tensor,
    observe: impl FnMut(crate::ir::NodeId, &crate::ir::Node, &Tensor, Option<&Tensor>, &Tensor),
) -> Result<Tensor, TensorError> {
    run_dense_scratch(graph, input, &mut ExecScratch::new(), observe)
}

/// Decrements one reference's remaining-use counter, recycling the value
/// into the buffer pool once all its consumers have run. The graph output
/// has consumer count 0 and is therefore never recycled here.
pub(crate) fn release_ref(
    values: &mut [Option<Tensor>],
    remaining: &mut [usize],
    pool: &mut Vec<Tensor>,
    r: NodeRef,
) {
    if let NodeRef::Node(i) = r {
        remaining[i] = remaining[i].saturating_sub(1);
        if remaining[i] == 0 {
            if let Some(t) = values[i].take() {
                pool.push(t);
            }
        }
    }
}

/// Releases every tensor `node` just read.
pub(crate) fn release_used(
    values: &mut [Option<Tensor>],
    remaining: &mut [usize],
    pool: &mut Vec<Tensor>,
    node: &crate::ir::Node,
) {
    release_ref(values, remaining, pool, node.input);
    if let NodeOp::Add { other } = node.op {
        release_ref(values, remaining, pool, other);
    }
}

/// Blocked/fused backend: executes an [`ExecPlan`], streaming fusion
/// groups block-by-block so their intermediates never cross the off-chip
/// boundary. Blocks run serially on the calling thread; to use more cores,
/// serve many requests at once through [`crate::serve::ServeEngine`]
/// workers or [`crate::serve::router::Router`] replicas.
#[derive(Debug, Clone)]
pub struct BlockedExecutor {
    graph: Arc<Graph>,
    plan: Arc<ExecPlan>,
}

impl BlockedExecutor {
    /// Compiles the backend from a graph and a planned segment list. The
    /// plan is shared, not cloned; its `FusedChain` stages in turn share
    /// the graph's `Arc<Conv2d>` weights.
    pub fn new(graph: Arc<Graph>, plan: Arc<ExecPlan>) -> Self {
        Self { graph, plan }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }
}

impl Executor for BlockedExecutor {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn run_scratch(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        // A quantized plan carries integer fused chains and whole-map convs
        // that expect quantized dispatch: running it here would mix float
        // and integer numerics and report traffic at the wrong width.
        if let Some(bits) = self.plan.act_bits() {
            return Err(TensorError::invalid(format!(
                "plan was compiled for {bits}-bit quantized execution; \
                 use the quantized backend"
            )));
        }
        run_plan(&self.graph, &self.plan, 32, input, scratch, |_, node, in_t, aux, out, s| {
            eval_node_into(&node.op, in_t, aux, out, s)
        })
    }
}

/// The segment-loop shared by the blocked and quantized backends: fused
/// segments run their chains block-by-block, whole-map nodes go through
/// `eval_single` (the only point where the backends differ — the
/// quantized backend substitutes `QConv2d` for conv nodes there). All
/// [`MemStats`] accounting conventions — peak-working tracking, the
/// write + read-back rule for non-final segment outputs, the
/// in-place-ReLU exemption — live here once, so the two backends cannot
/// drift apart. All mutable run state draws from `scratch`.
pub(crate) fn run_plan(
    graph: &Graph,
    plan: &ExecPlan,
    bits_per_elem: u8,
    input: &Tensor,
    scratch: &mut ExecScratch,
    eval_single: impl Fn(
        crate::ir::NodeId,
        &crate::ir::Node,
        &Tensor,
        Option<&Tensor>,
        &mut Tensor,
        &mut SingleScratch,
    ) -> Result<(), TensorError>,
) -> Result<RunReport, TensorError> {
    check_input(graph, input)?;
    let nodes = graph.nodes();
    let ExecScratch { values, remaining, pool, pipeline, single } = scratch;
    values.clear();
    values.resize_with(nodes.len(), || None);
    // Remaining-use counters, as in the reference backend. Fused-group
    // interiors are never materialised, so only segment inputs (and
    // Add second operands) are counted down here.
    remaining.clear();
    remaining.extend((0..nodes.len()).map(|i| graph.consumer_count(i)));
    let mut stats =
        MemStats { peak_working_elems: 0, offchip_elems: input.shape().numel(), bits_per_elem };
    let segments = plan.segments();
    let last_seg = segments.len().saturating_sub(1);
    for (si, seg) in segments.iter().enumerate() {
        let mut out = pool.pop().unwrap_or_default();
        let out_id = match seg {
            Segment::Fused { nodes: ids, chain, input: src } => {
                let in_t = resolve(values, input, *src)?;
                let gs = chain.run_fused_into(in_t, 1, &mut out, pipeline.block_mut())?;
                // Per-block buffers are the group's working set; its
                // input/output traffic is accounted at the segment
                // boundaries below.
                stats.peak_working_elems = stats.peak_working_elems.max(gs.peak_working_elems);
                *ids.last().ok_or_else(|| TensorError::invalid("fused segment covers no nodes"))?
            }
            Segment::Spliced { nodes: ids, pipeline: pipe, input: src } => {
                let in_t = resolve(values, input, *src)?;
                let gs = pipe.run_fused_into(in_t, 1, &mut out, pipeline)?;
                // Group-boundary maps stayed on chip: they are part of the
                // pipeline's working-set peak, and the only off-chip
                // traffic is the segment input/output accounted below.
                stats.peak_working_elems = stats.peak_working_elems.max(gs.peak_working_elems);
                *ids.last()
                    .ok_or_else(|| TensorError::invalid("spliced segment covers no nodes"))?
            }
            Segment::Single(id) => {
                let node = &nodes[*id];
                let in_t = resolve(values, input, node.input)?;
                let aux = match node.op {
                    NodeOp::Add { other } => Some(resolve(values, input, other)?),
                    _ => None,
                };
                eval_single(*id, node, in_t, aux, &mut out, single)?;
                let live = in_t.shape().numel()
                    + out.shape().numel()
                    + aux.map_or(0, |t| t.shape().numel());
                stats.peak_working_elems = stats.peak_working_elems.max(live);
                *id
            }
        };
        // Segment outputs are materialised off-chip: written once, and
        // read back unless this is the network output. In-place ReLU
        // singles transfer nothing (parity with the reference backend).
        let in_place_relu =
            matches!(seg, Segment::Single(id) if matches!(nodes[*id].op, NodeOp::Relu));
        if !in_place_relu {
            stats.offchip_elems +=
                if si == last_seg { out.shape().numel() } else { 2 * out.shape().numel() };
        }
        values[out_id] = Some(out);
        match seg {
            Segment::Fused { input: src, .. } | Segment::Spliced { input: src, .. } => {
                release_ref(values, remaining, pool, *src);
            }
            Segment::Single(id) => release_used(values, remaining, pool, &nodes[*id]),
        }
    }
    let output = values[graph.output_id()]
        .take()
        .ok_or_else(|| TensorError::invalid("plan did not produce the graph output"))?;
    Ok(RunReport { output, stats, segments: segments.len() })
}
