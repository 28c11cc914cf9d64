//! Block-wise multi-layer fusion (paper §II-B, §III).
//!
//! With block convolution the computation of several consecutive layers can
//! be carried out *per block*: a block flows through conv → relu → pool →
//! conv → ... entirely in on-chip-sized buffers, and only the first input
//! and the final output ever cross the off-chip boundary. [`FusedChain`]
//! models one such fusion group; [`FusedPipeline`] chains groups with an
//! on-chip "extra buffer" concatenation between them (Figure 10's CONV4
//! stage, where fixed blocking splices pooled blocks back together).

use std::sync::Arc;

use bconv_quant::qconv::{QConvScratch, QuantChainOp};
use bconv_quant::QParams;
use bconv_tensor::activation::relu_inplace;
use bconv_tensor::conv::Conv2d;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;
use bconv_tensor::pool::{max_pool2d, max_pool2d_into};
use bconv_tensor::{Tensor, TensorError};

use crate::block_conv::{BlockConv2d, BlockConvScratch};
use crate::blocking::BlockGrid;

/// The error for any `threads` argument other than 1: block walks always
/// run serially on the calling thread.
const THREADS_MUST_BE_ONE: &str =
    "run_fused_into: threads must be 1 (blocks run serially on the calling thread)";

/// One operation in a fusion group.
///
/// Convolution weights are held behind an [`Arc`]: planning a chain from
/// a weight-bound graph shares the graph's weight tensors instead of
/// deep-cloning them.
#[derive(Debug, Clone)]
pub enum ChainOp {
    /// A stride-1 convolution, executed as a block convolution.
    Conv(Arc<Conv2d>),
    /// Element-wise ReLU.
    Relu,
    /// `k × k` max pooling with stride `k` (the paper's baselines replace
    /// strided convolution with stride-1 convolution + pooling, §II-F).
    MaxPool {
        /// Pooling window and stride.
        k: usize,
    },
}

impl ChainOp {
    /// Convenience constructor wrapping a convolution (owned or shared)
    /// into the chain.
    pub fn conv(conv: impl Into<Arc<Conv2d>>) -> Self {
        Self::Conv(conv.into())
    }
}

/// A fusion-group stage whose convolution is already solved: the planner's
/// trial walk runs [`BlockConv2d::plan_with_kernel`] to validate every
/// candidate extension, so assembling the final chain from [`PlannedOp`]s
/// (via [`FusedChain::from_planned`]) reuses those Equation 2 solutions
/// instead of re-solving them.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // conv stages dominate by design
pub enum PlannedOp {
    /// A solved block convolution.
    Conv(BlockConv2d),
    /// Element-wise ReLU.
    Relu,
    /// `k × k` max pooling with stride `k`.
    MaxPool {
        /// Pooling window and stride.
        k: usize,
    },
}

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // conv stages dominate by design
enum Stage {
    Conv(BlockConv2d),
    /// A quantized block convolution: `plan` carries the Equation 2 padding
    /// schedule and grids, `op` the integer arithmetic. The block executor
    /// pads once via the plan and hands the padded block to the quantized
    /// kernel — no double padding.
    QConv {
        plan: BlockConv2d,
        op: QuantChainOp,
    },
    Relu,
    Pool {
        k: usize,
    },
}

/// Memory and traffic statistics of one execution, in **elements** (multiply
/// by the bitwidth to get bits, as Figures 1/9 and Table IX do).
///
/// These model the paper's **accelerator dataflow** — feature-map block
/// buffers and off-chip feature-map transfers — not host-process memory.
/// CPU-side kernel temporaries (the padded block, the im2col patch
/// matrix of [`bconv_tensor::kernel`]) are execution details of *this*
/// reference implementation and are excluded, as is weight storage.
/// Both fields are scheduling-invariant: identical for any serve-worker
/// count and any kernel choice.
///
/// Element counts are bitwidth-agnostic; `bits_per_elem` records the word
/// width one feature-map element occupies on the wire (32 for the float
/// backends, the activation bitwidth for the quantized backend), so
/// [`offchip_bits`](Self::offchip_bits) reports traffic the way the paper's
/// memory figures do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Peak number of elements simultaneously alive in working buffers.
    pub peak_working_elems: usize,
    /// Elements transferred across the off-chip boundary (reads + writes of
    /// feature maps; weights excluded).
    pub offchip_elems: usize,
    /// Bits per feature-map element at the executing precision (32 = f32).
    pub bits_per_elem: u8,
}

impl Default for MemStats {
    fn default() -> Self {
        Self { peak_working_elems: 0, offchip_elems: 0, bits_per_elem: 32 }
    }
}

impl MemStats {
    /// Off-chip traffic in bits at the executing precision.
    pub fn offchip_bits(&self) -> u64 {
        self.offchip_elems as u64 * self.bits_per_elem as u64
    }

    /// Peak working-buffer footprint in bits at the executing precision.
    pub fn peak_working_bits(&self) -> u64 {
        self.peak_working_elems as u64 * self.bits_per_elem as u64
    }
}

/// Reusable per-caller buffers for block-by-block chain execution: the
/// ping-pong block pair (Figure 10's intermediate buffers) plus the
/// convolution temporaries. Buffers grow to the largest block seen and
/// are reused across blocks and chain stages — steady-state fused
/// execution allocates nothing.
#[derive(Debug, Default)]
pub struct BlockScratch {
    cur: Tensor,
    next: Tensor,
    conv: BlockConvScratch,
    qpad: Tensor,
    qconv: QConvScratch,
}

impl BlockScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The output block left behind by the last
    /// [`FusedChain::run_block_scratch`] call.
    pub fn output(&self) -> &Tensor {
        &self.cur
    }
}

/// Reusable buffers for spliced-pipeline execution: the per-block
/// [`BlockScratch`] shared by every group, plus the two alternating
/// group-boundary maps (the accelerator's extra buffer of Figure 10 —
/// one holds the upstream group's spliced output while the downstream
/// group writes the next boundary into the other).
#[derive(Debug, Default)]
pub struct PipelineScratch {
    block: BlockScratch,
    ping: Tensor,
    pong: Tensor,
}

impl PipelineScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-block scratch, for callers that interleave plain
    /// [`FusedChain`] runs with pipeline runs and want one set of block
    /// buffers rather than two (e.g. an executor's per-worker scratch).
    pub fn block_mut(&mut self) -> &mut BlockScratch {
        &mut self.block
    }
}

/// A fusion group: a chain of ops executed block-by-block under one grid.
#[derive(Debug, Clone)]
pub struct FusedChain {
    stages: Vec<Stage>,
    in_grid: BlockGrid,
    out_grid: BlockGrid,
}

impl FusedChain {
    /// Plans a fusion group for inputs tiled by `grid`.
    ///
    /// Convolutions must be stride-1 (strided layers are expressed as
    /// conv + pool per the paper's baseline rewrite); pooling requires the
    /// grid to stay aligned ([`BlockGrid::downscale`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when a stage cannot be
    /// blocked under the running grid.
    pub fn plan(
        ops: Vec<ChainOp>,
        grid: BlockGrid,
        pad_mode: PadMode,
    ) -> Result<Self, TensorError> {
        Self::plan_with_kernel(ops, grid, pad_mode, KernelPolicy::default())
    }

    /// [`plan`](Self::plan) with an explicit [`KernelPolicy`]: every conv
    /// stage resolves its kernel (direct loop vs im2col+GEMM) under the
    /// policy at plan time, so execution carries no per-run dispatch.
    ///
    /// # Errors
    ///
    /// See [`FusedChain::plan`].
    pub fn plan_with_kernel(
        ops: Vec<ChainOp>,
        grid: BlockGrid,
        pad_mode: PadMode,
        policy: KernelPolicy,
    ) -> Result<Self, TensorError> {
        let in_grid = grid.clone();
        let mut cur = grid;
        let mut stages = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                ChainOp::Conv(conv) => {
                    if conv.geom().stride != 1 {
                        return Err(TensorError::invalid(
                            "fused convolutions must be stride-1; express stride as conv + pool",
                        ));
                    }
                    let bconv = BlockConv2d::plan_with_kernel(conv, cur.clone(), pad_mode, policy)?
                        .with_packed_weights();
                    cur = bconv.output_grid()?;
                    stages.push(Stage::Conv(bconv));
                }
                ChainOp::Relu => stages.push(Stage::Relu),
                ChainOp::MaxPool { k } => {
                    cur = cur.downscale(k)?;
                    stages.push(Stage::Pool { k });
                }
            }
        }
        Ok(Self { stages, in_grid, out_grid: cur })
    }

    /// Plans a **quantized** fusion group: every convolution executes
    /// through the integer path of [`bconv_quant::qconv::QConv2d`] — i32
    /// activations, i64 accumulators — with its input activations
    /// requantized at the stage's calibrated parameters. Block padding
    /// follows the same Equation 2 schedule and `pad_mode` as the float
    /// plan, applied once per block (the quantized kernel runs prepadded).
    ///
    /// `act_params` holds the frozen input-activation [`QParams`] of each
    /// [`ChainOp::Conv`], in op order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when a stage cannot be
    /// blocked under the running grid, when `act_params` does not cover
    /// exactly the chain's convolutions, or when a convolution's weights
    /// are all zero (no quantized form).
    pub fn plan_quantized(
        ops: Vec<ChainOp>,
        grid: BlockGrid,
        pad_mode: PadMode,
        weight_bits: u8,
        act_params: &[QParams],
    ) -> Result<Self, TensorError> {
        Self::plan_quantized_with_kernel(
            ops,
            grid,
            pad_mode,
            weight_bits,
            act_params,
            KernelPolicy::default(),
        )
    }

    /// [`plan_quantized`](Self::plan_quantized) with an explicit
    /// [`KernelPolicy`]: each quantized conv resolves the policy on its
    /// (geometry-identical) float layer and executes through the matching
    /// integer kernel — the direct i64-accumulator loop or the `i16`
    /// im2col+GEMM fast path — so `Auto` picks the integer GEMM exactly
    /// where the float path would pick im2col+GEMM.
    ///
    /// # Errors
    ///
    /// See [`FusedChain::plan_quantized`].
    pub fn plan_quantized_with_kernel(
        ops: Vec<ChainOp>,
        grid: BlockGrid,
        pad_mode: PadMode,
        weight_bits: u8,
        act_params: &[QParams],
        policy: KernelPolicy,
    ) -> Result<Self, TensorError> {
        let in_grid = grid.clone();
        let mut cur = grid;
        let mut stages = Vec::with_capacity(ops.len());
        let mut conv_idx = 0usize;
        for op in ops {
            match op {
                ChainOp::Conv(conv) => {
                    if conv.geom().stride != 1 {
                        return Err(TensorError::invalid(
                            "fused convolutions must be stride-1; express stride as conv + pool",
                        ));
                    }
                    let params = act_params.get(conv_idx).copied().ok_or_else(|| {
                        TensorError::invalid(format!(
                            "plan_quantized: {} act-param sets for conv stage {}",
                            act_params.len(),
                            conv_idx + 1
                        ))
                    })?;
                    conv_idx += 1;
                    // The plan's resolved kernel drives the *integer*
                    // loops: the QuantChainOp inherits it and runs either
                    // the direct loop or the i16 im2col+GEMM. Float weight
                    // packing is skipped — this plan only ever pads blocks.
                    let plan = BlockConv2d::plan_with_kernel(
                        Arc::clone(&conv),
                        cur.clone(),
                        pad_mode,
                        policy,
                    )?;
                    cur = plan.output_grid()?;
                    let op = QuantChainOp::from_conv_with_kernel(
                        &conv,
                        weight_bits,
                        params,
                        plan.kernel(),
                    )
                    .ok_or_else(|| TensorError::invalid("plan_quantized: all-zero conv weights"))?;
                    stages.push(Stage::QConv { plan, op });
                }
                ChainOp::Relu => stages.push(Stage::Relu),
                ChainOp::MaxPool { k } => {
                    cur = cur.downscale(k)?;
                    stages.push(Stage::Pool { k });
                }
            }
        }
        if conv_idx != act_params.len() {
            return Err(TensorError::invalid(format!(
                "plan_quantized: {} act-param sets for {} conv stages",
                act_params.len(),
                conv_idx
            )));
        }
        Ok(Self { stages, in_grid, out_grid: cur })
    }

    /// Assembles a chain from pre-solved stages, validating grid continuity
    /// instead of re-solving each convolution's Equation 2 padding
    /// schedule: each conv stage must have been planned on exactly the grid
    /// the preceding stages produce.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when a conv stage was planned
    /// on a different grid than the running one, and
    /// [`TensorError::InvalidParameter`] when pooling misaligns the grid.
    pub fn from_planned(ops: Vec<PlannedOp>, in_grid: BlockGrid) -> Result<Self, TensorError> {
        let mut cur = in_grid.clone();
        let mut stages = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                PlannedOp::Conv(bconv) => {
                    if bconv.grid() != &cur {
                        return Err(TensorError::shape_mismatch(
                            "FusedChain::from_planned conv stage grid",
                            cur.to_string(),
                            bconv.grid().to_string(),
                        ));
                    }
                    cur = bconv.output_grid()?;
                    stages.push(Stage::Conv(bconv.with_packed_weights()));
                }
                PlannedOp::Relu => stages.push(Stage::Relu),
                PlannedOp::MaxPool { k } => {
                    cur = cur.downscale(k)?;
                    stages.push(Stage::Pool { k });
                }
            }
        }
        Ok(Self { stages, in_grid, out_grid: cur })
    }

    /// [`from_planned`](Self::from_planned) on the quantized integer path:
    /// each pre-solved conv plan keeps its padding schedule and grids, and
    /// gains a [`QuantChainOp`] quantized at `weight_bits` with the stage's
    /// calibrated input-activation [`QParams`] (one per conv, in order).
    ///
    /// # Errors
    ///
    /// As [`from_planned`](Self::from_planned), plus
    /// [`TensorError::InvalidParameter`] when `act_params` does not cover
    /// exactly the chain's convolutions or a convolution's weights are all
    /// zero (no quantized form).
    pub fn from_planned_quantized(
        ops: Vec<PlannedOp>,
        in_grid: BlockGrid,
        weight_bits: u8,
        act_params: &[QParams],
    ) -> Result<Self, TensorError> {
        let mut cur = in_grid.clone();
        let mut stages = Vec::with_capacity(ops.len());
        let mut conv_idx = 0usize;
        for op in ops {
            match op {
                PlannedOp::Conv(plan) => {
                    if plan.grid() != &cur {
                        return Err(TensorError::shape_mismatch(
                            "FusedChain::from_planned_quantized conv stage grid",
                            cur.to_string(),
                            plan.grid().to_string(),
                        ));
                    }
                    let params = act_params.get(conv_idx).copied().ok_or_else(|| {
                        TensorError::invalid(format!(
                            "from_planned_quantized: {} act-param sets for conv stage {}",
                            act_params.len(),
                            conv_idx + 1
                        ))
                    })?;
                    conv_idx += 1;
                    cur = plan.output_grid()?;
                    let op = QuantChainOp::from_conv_with_kernel(
                        plan.conv(),
                        weight_bits,
                        params,
                        plan.kernel(),
                    )
                    .ok_or_else(|| {
                        TensorError::invalid("from_planned_quantized: all-zero conv weights")
                    })?;
                    stages.push(Stage::QConv { plan, op });
                }
                PlannedOp::Relu => stages.push(Stage::Relu),
                PlannedOp::MaxPool { k } => {
                    cur = cur.downscale(k)?;
                    stages.push(Stage::Pool { k });
                }
            }
        }
        if conv_idx != act_params.len() {
            return Err(TensorError::invalid(format!(
                "from_planned_quantized: {} act-param sets for {} conv stages",
                act_params.len(),
                conv_idx
            )));
        }
        Ok(Self { stages, in_grid, out_grid: cur })
    }

    /// Activation bitwidth of the chain's quantized stages, `None` for a
    /// float chain. Quantized chains are planned with one activation
    /// bitwidth throughout, so the first quantized stage is authoritative.
    pub fn act_bits(&self) -> Option<u8> {
        self.stages.iter().find_map(|s| match s {
            Stage::QConv { op, .. } => Some(op.act_params().bits()),
            _ => None,
        })
    }

    /// Grid on the group's input.
    pub fn in_grid(&self) -> &BlockGrid {
        &self.in_grid
    }

    /// Grid on the group's output.
    pub fn out_grid(&self) -> &BlockGrid {
        &self.out_grid
    }

    /// Number of stages in the group.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the group has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Output channel count given the input channel count.
    pub fn out_channels(&self, c_in: usize) -> usize {
        self.stages.iter().fold(c_in, |c, s| match s {
            Stage::Conv(b) => b.conv().c_out(),
            Stage::QConv { op, .. } => op.qconv().c_out(),
            _ => c,
        })
    }

    /// The block-convolution plans of the chain's conv stages (float and
    /// quantized), in order.
    pub fn convs(&self) -> impl Iterator<Item = &BlockConv2d> {
        self.stages.iter().filter_map(|s| match s {
            Stage::Conv(b) => Some(b),
            Stage::QConv { plan, .. } => Some(plan),
            _ => None,
        })
    }

    /// Runs a single block `(row, col)` of `input` through every stage of
    /// the chain, reusing `scratch` for all intermediates; the result is
    /// left in [`BlockScratch::output`]. Blocks are independent by
    /// construction (paper §II-C), so callers may run them in any order;
    /// [`run_fused_into`](Self::run_fused_into) walks them row-major on
    /// the calling thread.
    ///
    /// `stats` accumulates the per-block working-set peak; off-chip
    /// traffic is accounted by the caller at the chain boundary.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `input` does not match the planned grid.
    pub fn run_block_scratch(
        &self,
        input: &Tensor,
        row: usize,
        col: usize,
        scratch: &mut BlockScratch,
        stats: &mut MemStats,
    ) -> Result<(), TensorError> {
        let b = self.in_grid.block(row, col);
        input.crop_into(b.h0, b.w0, b.bh, b.bw, &mut scratch.cur)?;
        for stage in &self.stages {
            match stage {
                Stage::Conv(bconv) => {
                    bconv.forward_block_into(
                        &scratch.cur,
                        row,
                        col,
                        &mut scratch.next,
                        &mut scratch.conv,
                    )?;
                }
                Stage::QConv { plan, op } => {
                    // Pad once (Equation 2 schedule, session pad mode), then
                    // hand the padded block to the integer kernel.
                    plan.pad_block_into(&scratch.cur, row, col, &mut scratch.qpad)?;
                    op.forward_prepadded_into(
                        &scratch.qpad,
                        &mut scratch.next,
                        &mut scratch.qconv,
                    )?;
                }
                Stage::Relu => {
                    relu_inplace(&mut scratch.cur);
                    continue;
                }
                Stage::Pool { k } => max_pool2d_into(&scratch.cur, *k, *k, &mut scratch.next)?,
            }
            // Input and output block buffers are alive simultaneously
            // (the paper's ping-pong intermediate buffers, Figure 10).
            stats.peak_working_elems = stats
                .peak_working_elems
                .max(scratch.cur.shape().numel() + scratch.next.shape().numel());
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        Ok(())
    }

    /// Executes the group block-by-block (*fused* dataflow): only the input
    /// and the group output cross the off-chip boundary. [`MemStats`] are
    /// exact: off-chip traffic is the group input + output and the
    /// working-set peak is a max over blocks.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `input` does not match the planned grid.
    pub fn run_fused(&self, input: &Tensor) -> Result<(Tensor, MemStats), TensorError> {
        let mut out = Tensor::default();
        let mut scratch = BlockScratch::new();
        let stats = self.run_fused_into(input, 1, &mut out, &mut scratch)?;
        Ok((out, stats))
    }

    /// [`run_fused`](Self::run_fused) into caller-owned buffers — the
    /// serving-path primitive. `out` is reshaped to the group's output map
    /// and every element is overwritten (the output grid tiles it exactly);
    /// `scratch` carries all block intermediates, so a caller that reuses
    /// both across requests performs **zero steady-state allocation** per
    /// run. The chain is batch-aware: inputs may carry any batch size `n`
    /// (coalesced requests run as one map), block buffers simply grow with
    /// `n` the first time and are handed back through `scratch` for the
    /// next run.
    ///
    /// Blocks run serially on the calling thread; parallelism comes from
    /// serving many requests at once (serve workers and router replicas).
    /// `threads` must be `1`. It remains only so existing callers keep
    /// compiling, and the next benchmark change removes it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `threads != 1`, and
    /// shape errors if `input` does not match the planned grid.
    pub fn run_fused_into(
        &self,
        input: &Tensor,
        threads: usize,
        out: &mut Tensor,
        scratch: &mut BlockScratch,
    ) -> Result<MemStats, TensorError> {
        if threads != 1 {
            return Err(TensorError::invalid(THREADS_MUST_BE_ONE));
        }
        let [n, c, h, w] = input.shape().dims();
        if h != self.in_grid.h() || w != self.in_grid.w() {
            return Err(TensorError::shape_mismatch(
                "FusedChain::run_fused input",
                format!("[{},{}]", self.in_grid.h(), self.in_grid.w()),
                format!("[{h},{w}]"),
            ));
        }
        let c_out = self.out_channels(c);
        out.reset([n, c_out, self.out_grid.h(), self.out_grid.w()]);
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel() + out.shape().numel(),
            bits_per_elem: self.act_bits().unwrap_or(32),
        };
        // Blocks are walked row-major by linear index — never materialised
        // as a list, so a run performs zero steady-state allocation (gated
        // by `bconv-analyze` lint L1 and the alloc-gate test).
        let cols = self.in_grid.num_cols();
        for i in 0..self.in_grid.num_rows() * cols {
            let (row, col) = (i / cols, i % cols);
            self.run_block_scratch(input, row, col, scratch, &mut stats)?;
            let ob = self.out_grid.block(row, col);
            out.paste(scratch.output(), ob.h0, ob.w0)?;
        }
        Ok(stats)
    }

    /// Executes the group layer-by-layer on whole feature maps (the
    /// conventional accelerator dataflow): every intermediate map is
    /// written to and read back from off-chip memory.
    ///
    /// Numerically identical to [`run_fused`](Self::run_fused) — fusion
    /// changes the schedule, not the mathematics.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `input` does not match the planned grid.
    pub fn run_layerwise(&self, input: &Tensor) -> Result<(Tensor, MemStats), TensorError> {
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel(),
            bits_per_elem: self.act_bits().unwrap_or(32),
        };
        let mut cur = input.clone();
        // The chain output is whatever the last *materialising* stage
        // produces — a trailing in-place ReLU must not push the final conv
        // back into the 2x (write + read-back) intermediate bucket.
        let last = self.stages.iter().rposition(|s| !matches!(s, Stage::Relu));
        for (idx, stage) in self.stages.iter().enumerate() {
            let next = match stage {
                Stage::Conv(bconv) => bconv.forward(&cur)?,
                Stage::QConv { plan, op } => qconv_forward_map(plan, op, &cur)?,
                Stage::Relu => {
                    relu_inplace(&mut cur);
                    continue;
                }
                Stage::Pool { k } => max_pool2d(&cur, *k, *k)?,
            };
            stats.peak_working_elems =
                stats.peak_working_elems.max(cur.shape().numel() + next.shape().numel());
            // Intermediate maps make a DRAM round trip (write + read);
            // the final output is written once.
            stats.offchip_elems +=
                if Some(idx) == last { next.shape().numel() } else { 2 * next.shape().numel() };
            cur = next;
        }
        Ok((cur, stats))
    }
}

/// Whole-map quantized block convolution: split by the plan's grid, pad
/// each block locally, run the integer kernel, concatenate — the
/// layer-wise counterpart of the fused [`Stage::QConv`] path (same
/// mathematics, conventional schedule).
fn qconv_forward_map(
    plan: &BlockConv2d,
    op: &QuantChainOp,
    input: &Tensor,
) -> Result<Tensor, TensorError> {
    let [n, _, h, w] = input.shape().dims();
    let grid = plan.grid();
    if h != grid.h() || w != grid.w() {
        return Err(TensorError::shape_mismatch(
            "quantized chain stage input",
            format!("[{},{}]", grid.h(), grid.w()),
            format!("[{h},{w}]"),
        ));
    }
    let out_grid = plan.output_grid()?;
    let mut out = Tensor::zeros([n, op.qconv().c_out(), out_grid.h(), out_grid.w()]);
    let mut cropped = Tensor::zeros([0, 0, 0, 0]);
    let mut padded = Tensor::zeros([0, 0, 0, 0]);
    let mut block_out = Tensor::zeros([0, 0, 0, 0]);
    let mut scratch = QConvScratch::new();
    for row in 0..grid.num_rows() {
        for col in 0..grid.num_cols() {
            let b = grid.block(row, col);
            let ob = out_grid.block(row, col);
            input.crop_into(b.h0, b.w0, b.bh, b.bw, &mut cropped)?;
            plan.pad_block_into(&cropped, row, col, &mut padded)?;
            op.forward_prepadded_into(&padded, &mut block_out, &mut scratch)?;
            out.paste(&block_out, ob.h0, ob.w0)?;
        }
    }
    Ok(out)
}

/// A pipeline of fusion groups. Between groups the (now smaller) feature
/// map is concatenated in an on-chip extra buffer and re-gridded — the
/// fixed-blocking splice of Figure 4(a)/Figure 10.
#[derive(Debug, Clone)]
pub struct FusedPipeline {
    groups: Vec<FusedChain>,
}

impl FusedPipeline {
    /// Builds a pipeline from planned groups, validating that each group's
    /// output map feeds the next group's input map and that all groups
    /// execute at one precision ([`MemStats`] carries a single
    /// `bits_per_elem`, so a mixed float/quantized pipeline would
    /// misreport its traffic in bits).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent group sizes
    /// and [`TensorError::InvalidParameter`] on mixed-precision groups.
    pub fn new(groups: Vec<FusedChain>) -> Result<Self, TensorError> {
        for pair in groups.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.out_grid().h() != b.in_grid().h() || a.out_grid().w() != b.in_grid().w() {
                return Err(TensorError::shape_mismatch(
                    "FusedPipeline group boundary",
                    format!("[{},{}]", a.out_grid().h(), a.out_grid().w()),
                    format!("[{},{}]", b.in_grid().h(), b.in_grid().w()),
                ));
            }
            if a.act_bits() != b.act_bits() {
                return Err(TensorError::invalid(format!(
                    "FusedPipeline groups must share one precision, got {:?} then {:?} act bits",
                    a.act_bits(),
                    b.act_bits()
                )));
            }
        }
        Ok(Self { groups })
    }

    /// The fusion groups.
    pub fn groups(&self) -> &[FusedChain] {
        &self.groups
    }

    /// Consumes the pipeline, returning its groups (e.g. to re-splice with
    /// another group appended) without cloning the planned stages.
    pub fn into_groups(self) -> Vec<FusedChain> {
        self.groups
    }

    /// Executes all groups fused; intermediate maps between groups stay in
    /// the on-chip extra buffer, so off-chip traffic is still input + final
    /// output only.
    ///
    /// # Errors
    ///
    /// Propagates per-group execution errors.
    pub fn run_fused(&self, input: &Tensor) -> Result<(Tensor, MemStats), TensorError> {
        let mut out = Tensor::default();
        let mut scratch = PipelineScratch::new();
        let stats = self.run_fused_into(input, 1, &mut out, &mut scratch)?;
        Ok((out, stats))
    }

    /// [`run_fused`](Self::run_fused) into caller-owned buffers: `out`
    /// receives the final group's output and `scratch` carries the
    /// per-block intermediates plus the two alternating group-boundary maps
    /// (the accelerator's extra buffer), so a caller that reuses both
    /// performs no steady-state allocation.
    ///
    /// [`MemStats`] stay exact: off-chip traffic is the pipeline input +
    /// final output only, and the working-set peak adds the on-chip
    /// boundary maps alive around each group (its source map unless that is
    /// the off-chip input, and its destination map unless that is the
    /// off-chip output) to the group's own ping-pong block peak.
    ///
    /// `threads` must be `1`, as for [`FusedChain::run_fused_into`]; the
    /// next benchmark change removes the argument.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `threads != 1`;
    /// propagates per-group execution errors; an empty pipeline is
    /// rejected (it has no output map to produce).
    pub fn run_fused_into(
        &self,
        input: &Tensor,
        threads: usize,
        out: &mut Tensor,
        scratch: &mut PipelineScratch,
    ) -> Result<MemStats, TensorError> {
        if threads != 1 {
            return Err(TensorError::invalid(THREADS_MUST_BE_ONE));
        }
        let Some(last) = self.groups.len().checked_sub(1) else {
            return Err(TensorError::invalid("cannot run an empty FusedPipeline"));
        };
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel(),
            bits_per_elem: self.groups.iter().find_map(FusedChain::act_bits).unwrap_or(32),
        };
        let PipelineScratch { block, ping, pong } = scratch;
        for (idx, group) in self.groups.iter().enumerate() {
            // Source: the pipeline input for the first group, the previous
            // group's boundary map (in `ping`) afterwards. Destination: the
            // caller's output for the last group, `pong` otherwise.
            let gs = match (idx == 0, idx == last) {
                (true, true) => group.run_fused_into(input, 1, out, block)?,
                (true, false) => group.run_fused_into(input, 1, pong, block)?,
                (false, true) => group.run_fused_into(ping, 1, out, block)?,
                (false, false) => group.run_fused_into(ping, 1, pong, block)?,
            };
            let src_elems = if idx == 0 { 0 } else { ping.shape().numel() };
            let dst_elems = if idx == last { 0 } else { pong.shape().numel() };
            stats.peak_working_elems =
                stats.peak_working_elems.max(gs.peak_working_elems + src_elems + dst_elems);
            std::mem::swap(ping, pong);
        }
        stats.offchip_elems += out.shape().numel();
        Ok(stats)
    }

    /// Executes all groups layer-by-layer (conventional dataflow).
    ///
    /// # Errors
    ///
    /// Propagates per-group execution errors.
    pub fn run_layerwise(&self, input: &Tensor) -> Result<(Tensor, MemStats), TensorError> {
        let mut cur = input.clone();
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel(),
            bits_per_elem: self.groups.iter().find_map(FusedChain::act_bits).unwrap_or(32),
        };
        let last = self.groups.len().saturating_sub(1);
        for (idx, group) in self.groups.iter().enumerate() {
            let (next, gs) = group.run_layerwise(&cur)?;
            stats.peak_working_elems = stats.peak_working_elems.max(gs.peak_working_elems);
            // Group outputs also round-trip through DRAM layer-wise.
            stats.offchip_elems += gs.offchip_elems - cur.shape().numel() - next.shape().numel()
                + if idx == last { next.shape().numel() } else { 2 * next.shape().numel() };
            cur = next;
        }
        Ok((cur, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingPattern;
    use bconv_tensor::conv::ConvGeom;
    use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};

    fn conv(c_in: usize, c_out: usize, seed: u64) -> Conv2d {
        he_conv2d(c_in, c_out, ConvGeom::same(3), 1, &mut seeded_rng(seed)).unwrap()
    }

    fn three_layer_chain(grid: BlockGrid) -> FusedChain {
        // The Figure 2(b) scenario: three consecutive 3x3 convolutions.
        FusedChain::plan(
            vec![
                ChainOp::conv(conv(2, 4, 1)),
                ChainOp::Relu,
                ChainOp::conv(conv(4, 4, 2)),
                ChainOp::Relu,
                ChainOp::conv(conv(4, 2, 3)),
            ],
            grid,
            PadMode::Zero,
        )
        .unwrap()
    }

    #[test]
    fn fused_equals_layerwise_exactly() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let chain = three_layer_chain(grid);
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(4));
        let (fused, _) = chain.run_fused(&input).unwrap();
        let (layerwise, _) = chain.run_layerwise(&input).unwrap();
        assert!(fused.approx_eq(&layerwise, 1e-5).unwrap());
    }

    #[test]
    fn fused_eliminates_intermediate_offchip_traffic() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let chain = three_layer_chain(grid);
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(5));
        let (_, fs) = chain.run_fused(&input).unwrap();
        let (_, ls) = chain.run_layerwise(&input).unwrap();
        // Fused: input + output only.
        assert_eq!(fs.offchip_elems, 2 * 8 * 8 + 2 * 8 * 8);
        // Layer-wise: input + output + 2x both intermediates (4ch 8x8 each).
        assert_eq!(ls.offchip_elems, 2 * 64 + 2 * 64 + 2 * (4 * 64) + 2 * (4 * 64));
        assert!(fs.offchip_elems < ls.offchip_elems);
    }

    #[test]
    fn fused_working_set_is_block_sized() {
        let grid = BlockGrid::from_pattern(16, 16, BlockingPattern::hierarchical(4)).unwrap();
        let chain = FusedChain::plan(
            vec![ChainOp::conv(conv(2, 2, 7)), ChainOp::conv(conv(2, 2, 8))],
            grid,
            PadMode::Zero,
        )
        .unwrap();
        let input = uniform_tensor([1, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(9));
        let (_, fs) = chain.run_fused(&input).unwrap();
        let (_, ls) = chain.run_layerwise(&input).unwrap();
        // Fused working set: two 4x4x2 block buffers = 64 elements,
        // vs layer-wise two full 16x16x2 maps = 1024.
        assert_eq!(fs.peak_working_elems, 2 * (2 * 4 * 4));
        assert_eq!(ls.peak_working_elems, 2 * (2 * 16 * 16));
    }

    #[test]
    fn pooling_inside_a_fused_group() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let chain = FusedChain::plan(
            vec![
                ChainOp::conv(conv(1, 2, 11)),
                ChainOp::Relu,
                ChainOp::MaxPool { k: 2 },
                ChainOp::conv(conv(2, 1, 12)),
            ],
            grid,
            PadMode::Zero,
        )
        .unwrap();
        let input = uniform_tensor([1, 1, 8, 8], -1.0, 1.0, &mut seeded_rng(13));
        let (fused, _) = chain.run_fused(&input).unwrap();
        let (layerwise, _) = chain.run_layerwise(&input).unwrap();
        assert_eq!(fused.shape().dims(), [1, 1, 4, 4]);
        assert!(fused.approx_eq(&layerwise, 1e-5).unwrap());
    }

    #[test]
    fn strided_conv_in_chain_is_rejected() {
        let grid = BlockGrid::single(8, 8);
        let mut rng = seeded_rng(14);
        let strided = he_conv2d(1, 1, ConvGeom::new(3, 2, 1), 1, &mut rng).unwrap();
        assert!(FusedChain::plan(vec![ChainOp::conv(strided)], grid, PadMode::Zero).is_err());
    }

    #[test]
    fn pipeline_regrids_between_groups() {
        // Group 1: conv+pool under 4x4 blocks of an 16x16 map -> 8x8 map of
        // 2x2 blocks; splice into a single block for group 2 (Figure 10).
        let g1_grid = BlockGrid::from_pattern(16, 16, BlockingPattern::fixed(4)).unwrap();
        let g1 = FusedChain::plan(
            vec![ChainOp::conv(conv(1, 2, 21)), ChainOp::MaxPool { k: 2 }],
            g1_grid,
            PadMode::Zero,
        )
        .unwrap();
        let g2_grid = g1.out_grid().clone().merge(4).unwrap();
        assert_eq!(g2_grid.num_blocks(), 1);
        let g2 =
            FusedChain::plan(vec![ChainOp::conv(conv(2, 1, 22))], g2_grid, PadMode::Zero).unwrap();
        let pipeline = FusedPipeline::new(vec![g1, g2]).unwrap();
        let input = uniform_tensor([1, 1, 16, 16], -1.0, 1.0, &mut seeded_rng(23));
        let (fused, fs) = pipeline.run_fused(&input).unwrap();
        let (layerwise, ls) = pipeline.run_layerwise(&input).unwrap();
        assert!(fused.approx_eq(&layerwise, 1e-5).unwrap());
        assert!(fs.offchip_elems < ls.offchip_elems);
        // Fused pipeline off-chip = input + final output only.
        assert_eq!(fs.offchip_elems, 16 * 16 + 8 * 8);
    }

    #[test]
    fn from_planned_reuses_trial_solves_bitwise() {
        // Assembling a chain from pre-solved BlockConv2d stages (the
        // planner's trial-walk artifacts) must execute identically to
        // re-solving through plan().
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let c1 = Arc::new(conv(1, 2, 61));
        let c2 = Arc::new(conv(2, 1, 62));
        let b1 = BlockConv2d::plan(Arc::clone(&c1), grid.clone(), PadMode::Zero).unwrap();
        let pooled = b1.output_grid().unwrap().downscale(2).unwrap();
        let b2 = BlockConv2d::plan(Arc::clone(&c2), pooled, PadMode::Zero).unwrap();
        let planned = FusedChain::from_planned(
            vec![
                PlannedOp::Conv(b1),
                PlannedOp::Relu,
                PlannedOp::MaxPool { k: 2 },
                PlannedOp::Conv(b2),
            ],
            grid.clone(),
        )
        .unwrap();
        let solved = FusedChain::plan(
            vec![ChainOp::Conv(c1), ChainOp::Relu, ChainOp::MaxPool { k: 2 }, ChainOp::Conv(c2)],
            grid,
            PadMode::Zero,
        )
        .unwrap();
        let input = uniform_tensor([1, 1, 8, 8], -1.0, 1.0, &mut seeded_rng(63));
        let (a, sa) = planned.run_fused(&input).unwrap();
        let (b, sb) = solved.run_fused(&input).unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(sa, sb);
    }

    #[test]
    fn from_planned_rejects_grid_discontinuity() {
        // A conv solved on the wrong grid cannot silently join a chain.
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let other = BlockGrid::single(8, 8);
        let bconv = BlockConv2d::plan(conv(1, 1, 64), other, PadMode::Zero).unwrap();
        assert!(FusedChain::from_planned(vec![PlannedOp::Conv(bconv)], grid).is_err());
    }

    #[test]
    fn pipeline_scratch_reuse_is_bitwise_stable() {
        let g1_grid = BlockGrid::from_pattern(16, 16, BlockingPattern::fixed(4)).unwrap();
        let g1 = FusedChain::plan(
            vec![ChainOp::conv(conv(1, 2, 71)), ChainOp::MaxPool { k: 2 }],
            g1_grid,
            PadMode::Zero,
        )
        .unwrap();
        let g2_grid = g1.out_grid().clone().merge(2).unwrap();
        let g2 =
            FusedChain::plan(vec![ChainOp::conv(conv(2, 1, 72))], g2_grid, PadMode::Zero).unwrap();
        let pipeline = FusedPipeline::new(vec![g1, g2]).unwrap();
        let input = uniform_tensor([1, 1, 16, 16], -1.0, 1.0, &mut seeded_rng(73));
        let (serial, ss) = pipeline.run_fused(&input).unwrap();
        let mut scratch = PipelineScratch::new();
        for run in 0..3 {
            let mut out = Tensor::default();
            // Reusing one scratch across runs must not leak state into
            // outputs or stats.
            let stats = pipeline.run_fused_into(&input, 1, &mut out, &mut scratch).unwrap();
            assert_eq!(out.data(), serial.data(), "run {run}");
            assert_eq!(stats, ss, "run {run}");
        }
    }

    #[test]
    fn run_fused_into_rejects_threads_other_than_one() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let chain =
            FusedChain::plan(vec![ChainOp::conv(conv(1, 1, 74))], grid, PadMode::Zero).unwrap();
        let pipeline = FusedPipeline::new(vec![chain.clone()]).unwrap();
        let input = uniform_tensor([1, 1, 8, 8], -1.0, 1.0, &mut seeded_rng(75));
        let mut out = Tensor::default();
        for threads in [0usize, 2] {
            let err = chain.run_fused_into(&input, threads, &mut out, &mut BlockScratch::new());
            assert!(matches!(err, Err(TensorError::InvalidParameter { .. })), "{err:?}");
            let err =
                pipeline.run_fused_into(&input, threads, &mut out, &mut PipelineScratch::new());
            assert!(matches!(err, Err(TensorError::InvalidParameter { .. })), "{err:?}");
        }
    }

    #[test]
    fn empty_pipeline_is_rejected_at_run() {
        let p = FusedPipeline::new(Vec::new()).unwrap();
        assert!(p.run_fused(&Tensor::zeros([1, 1, 4, 4])).is_err());
    }

    /// Per-tensor abs-max params, as a calibration pass would freeze them.
    fn calibrated(t: &Tensor, bits: u8) -> QParams {
        let m = t.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        QParams::from_abs_max(m, bits)
    }

    #[test]
    fn quantized_chain_is_schedule_invariant_and_tracks_float() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let ops = vec![ChainOp::conv(conv(2, 4, 31)), ChainOp::Relu, ChainOp::conv(conv(4, 2, 32))];
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(33));
        let float_chain = FusedChain::plan(ops.clone(), grid.clone(), PadMode::Zero).unwrap();
        assert_eq!(float_chain.act_bits(), None);
        let (float_out, fs) = float_chain.run_fused(&input).unwrap();
        // Calibrate each conv stage's input from the float path.
        let head = FusedChain::plan(ops[..2].to_vec(), grid.clone(), PadMode::Zero).unwrap();
        let (mid, _) = head.run_fused(&input).unwrap();
        let params = [calibrated(&input, 8), calibrated(&mid, 8)];
        let qchain = FusedChain::plan_quantized(ops, grid, PadMode::Zero, 8, &params).unwrap();
        assert_eq!(qchain.act_bits(), Some(8));
        let (q_fused, qs) = qchain.run_fused(&input).unwrap();
        let (q_layer, _) = qchain.run_layerwise(&input).unwrap();
        assert_eq!(
            q_fused.data(),
            q_layer.data(),
            "quantized fusion must be a schedule change only"
        );
        // Same element traffic, narrower words: bits shrink 32 -> 8.
        assert_eq!(qs.offchip_elems, fs.offchip_elems);
        assert_eq!(qs.bits_per_elem, 8);
        assert_eq!(fs.bits_per_elem, 32);
        assert_eq!(qs.offchip_bits(), qs.offchip_elems as u64 * 8);
        assert_eq!(fs.offchip_bits(), 4 * qs.offchip_bits());
        let mag = float_out.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        let err = float_out.max_abs_diff(&q_fused).unwrap() / mag;
        assert!(err < 0.1, "8-bit quantized chain error too large: {err}");
    }

    #[test]
    fn quantized_chain_honors_block_pad_mode() {
        // The motivating bug: quantized block execution under replicate
        // padding must track the replicate float chain, not zero padding.
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let cv = conv(1, 1, 35);
        let input = uniform_tensor([1, 1, 8, 8], 0.5, 1.0, &mut seeded_rng(36));
        let params = [calibrated(&input, 8)];
        let run = |mode| {
            let chain = FusedChain::plan_quantized(
                vec![ChainOp::conv(cv.clone())],
                grid.clone(),
                mode,
                8,
                &params,
            )
            .unwrap();
            chain.run_fused(&input).unwrap().0
        };
        let float_rep =
            FusedChain::plan(vec![ChainOp::conv(cv.clone())], grid.clone(), PadMode::Replicate)
                .unwrap()
                .run_fused(&input)
                .unwrap()
                .0;
        let mag = float_rep.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        let err_rep = float_rep.max_abs_diff(&run(PadMode::Replicate)).unwrap() / mag;
        let err_zero = float_rep.max_abs_diff(&run(PadMode::Zero)).unwrap() / mag;
        assert!(err_rep < 0.05, "replicate quant chain diverges: {err_rep}");
        assert!(err_zero > 4.0 * err_rep, "zero padding should visibly differ");
    }

    #[test]
    fn plan_quantized_validates_param_count() {
        let grid = BlockGrid::single(8, 8);
        let ops = vec![ChainOp::conv(conv(2, 2, 41))];
        let p = QParams::from_abs_max(1.0, 8);
        assert!(
            FusedChain::plan_quantized(ops.clone(), grid.clone(), PadMode::Zero, 8, &[]).is_err()
        );
        assert!(FusedChain::plan_quantized(ops, grid, PadMode::Zero, 8, &[p, p]).is_err());
    }

    #[test]
    fn pipeline_rejects_mixed_precision_groups() {
        // One MemStats word width per pipeline: float + quantized groups
        // cannot share a run without misreporting offchip_bits.
        let f = FusedChain::plan(
            vec![ChainOp::conv(conv(1, 1, 51))],
            BlockGrid::single(8, 8),
            PadMode::Zero,
        )
        .unwrap();
        let q = FusedChain::plan_quantized(
            vec![ChainOp::conv(conv(1, 1, 52))],
            BlockGrid::single(8, 8),
            PadMode::Zero,
            8,
            &[QParams::from_abs_max(1.0, 8)],
        )
        .unwrap();
        assert!(FusedPipeline::new(vec![f.clone(), q]).is_err());
        assert!(FusedPipeline::new(vec![f.clone(), f]).is_ok());
    }

    #[test]
    fn pipeline_rejects_mismatched_groups() {
        let g1 = FusedChain::plan(
            vec![ChainOp::MaxPool { k: 2 }],
            BlockGrid::single(8, 8),
            PadMode::Zero,
        )
        .unwrap();
        let g2 =
            FusedChain::plan(vec![ChainOp::Relu], BlockGrid::single(8, 8), PadMode::Zero).unwrap();
        assert!(FusedPipeline::new(vec![g1, g2]).is_err());
    }
}
