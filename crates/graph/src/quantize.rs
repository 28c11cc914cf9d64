//! The quantized executor backend: post-training quantization of a compiled
//! graph, executed on the blocked/fused schedule.
//!
//! This is the paper's deployment path (§III-C, Figure 7): the hardware
//! designs run *quantized* blocked convolutions — 16/8-bit for the VGG-16
//! accelerator, 8-bit activations × 4-bit weights for VDSR. Compilation
//! adds one stage over the float backends:
//!
//! 1. **Calibration** ([`GraphQuantSpec::calibrate`]) — run the graph
//!    densely (reference semantics) on a handful of calibration inputs,
//!    observing every convolution's input activations through a
//!    [`Calibrator`]; freeze per-node [`QParams`] from the EMA of
//!    per-batch maxima (the Distiller-style PTQ policy).
//! 2. **Quantized planning** ([`crate::plan::Planner::plan_quantized`]) —
//!    the same fusion-group walk as the float plan, but chains are built
//!    with [`bconv_core::fusion::FusedChain::plan_quantized`]: integer
//!    convolution stages with per-stage requantization.
//! 3. **Execution** ([`QuantizedExecutor`]) — the blocked schedule; fused
//!    groups run their quantized chains block-by-block, whole-map conv
//!    segments run through dense [`QConv2d`], everything else (pool, FC,
//!    add, ...) stays float. [`bconv_core::fusion::MemStats`] reports
//!    feature-map traffic at
//!    the activation bitwidth, so `offchip_bits()` reproduces the paper's
//!    memory accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bconv_quant::calibrate::Calibrator;
use bconv_quant::qconv::QConv2d;
use bconv_quant::qlinear::QLinear;
use bconv_quant::QParams;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;
use bconv_tensor::{Tensor, TensorError};

use crate::exec::{eval_node_into, run_dense, run_plan, ExecScratch, Executor, RunReport};
use crate::ir::{Graph, NodeId, NodeOp};
use crate::plan::{ExecPlan, Segment};

/// Process-wide count of completed calibration passes, incremented by
/// [`GraphQuantSpec::calibrate`].
static CALIBRATION_PASSES: AtomicU64 = AtomicU64::new(0);

/// Number of calibration passes this process has run. Calibration is the
/// most expensive build-time step (a dense forward pass per calibration
/// batch), so deployments that stamp out engine replicas should see this
/// counter rise **once** per model — replicas built through
/// [`Session::fork`](crate::Session::fork) or
/// [`crate::serve::router::Router`] share the calibrated spec instead of
/// re-calibrating (`tests/serve_router.rs` pins that contract).
pub fn calibration_passes() -> u64 {
    CALIBRATION_PASSES.load(Ordering::Relaxed)
}

/// Validates a bitwidth request before it reaches [`QParams`] (which
/// panics on out-of-range widths).
pub(crate) fn check_bits(what: &str, bits: u8) -> Result<(), TensorError> {
    if !(2..=16).contains(&bits) {
        return Err(TensorError::invalid(format!("{what} must be in 2..=16 bits, got {bits}")));
    }
    Ok(())
}

/// Bitwidths plus frozen per-node activation ranges: everything the
/// quantized planner and executor need beyond the float graph.
#[derive(Debug, Clone)]
pub struct GraphQuantSpec {
    /// Weight bitwidth for every quantized convolution.
    pub weight_bits: u8,
    /// Activation bitwidth (feature-map word width).
    pub act_bits: u8,
    /// Per-node input-activation params (`None` for nodes that are neither
    /// conv nor FC, and for nodes whose calibration observed only zeros).
    act_params: Vec<Option<QParams>>,
}

impl GraphQuantSpec {
    /// Frozen input-activation parameters of conv/FC node `id`, if any.
    pub fn act_params(&self, id: NodeId) -> Option<QParams> {
        self.act_params.get(id).copied().flatten()
    }

    /// Runs the calibration pass: evaluates the graph densely on each
    /// calibration input (exactly the reference executor's numerics),
    /// feeding every conv and FC node's input activations to a
    /// [`Calibrator`], then freezes per-node [`QParams`] at `act_bits`
    /// from the EMA of per-batch maxima (after a single batch the EMA
    /// equals the absolute maximum; a node whose inputs were all zero
    /// gets `None`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `inputs` is empty, a
    /// bitwidth is out of range, or a calibrated activation range is not
    /// finite (an input or activation held `±Inf`), and shape errors when a
    /// calibration input does not match the graph.
    pub fn calibrate(
        graph: &Graph,
        inputs: &[Tensor],
        weight_bits: u8,
        act_bits: u8,
    ) -> Result<Self, TensorError> {
        check_bits("weight_bits", weight_bits)?;
        check_bits("act_bits", act_bits)?;
        if inputs.is_empty() {
            return Err(TensorError::invalid(
                "calibration needs at least one input (got an empty batch list)",
            ));
        }
        let mut cals: Vec<Option<Calibrator>> = graph
            .nodes()
            .iter()
            .map(|n| matches!(n.op, NodeOp::Conv { .. } | NodeOp::Fc(_)).then(Calibrator::new))
            .collect();
        for input in inputs {
            // The reference backend's dense walk, observing every conv
            // node's input activations: calibration sees exactly the
            // numerics the reference executor computes.
            run_dense(graph, input, |id, _, in_t, _, _| {
                if let Some(cal) = cals[id].as_mut() {
                    cal.observe(in_t);
                }
            })?;
        }
        // An infinite activation anywhere poisons the EMA, and no QParams
        // can cover an infinite range.
        for (id, cal) in cals.iter().enumerate() {
            if cal.as_ref().is_some_and(|c| !c.abs_max().is_finite()) {
                return Err(TensorError::invalid(format!(
                    "calibration saw a non-finite activation range at node {}",
                    graph.nodes()[id].name
                )));
            }
        }
        let act_params =
            cals.iter().map(|c| c.as_ref().and_then(|c| c.finalize_ema(act_bits))).collect();
        CALIBRATION_PASSES.fetch_add(1, Ordering::Relaxed);
        Ok(Self { weight_bits, act_bits, act_params })
    }
}

/// Quantized backend: the blocked/fused schedule with every convolution in
/// integer arithmetic. Fused segments execute the plan's quantized chains
/// block by block, exactly like the float blocked backend; whole-map conv
/// segments run dense [`QConv2d`] — through the integer im2col+GEMM fast
/// path wherever the kernel policy picks it — with zero outer padding
/// (matching the float reference's geometry padding); FC nodes run
/// through quantized [`QLinear`]; all other whole-map ops run float.
#[derive(Debug, Clone)]
pub struct QuantizedExecutor {
    graph: Arc<Graph>,
    plan: Arc<ExecPlan>,
    spec: Arc<GraphQuantSpec>,
    /// Dense quantized convolutions for `Segment::Single` conv nodes,
    /// indexed by node id.
    qconvs: Vec<Option<Arc<QConv2d>>>,
    /// Quantized FC layers for `Segment::Single` FC nodes, indexed by node
    /// id (`None` where weights or calibration leave no integer form — the
    /// node then falls back to float).
    qlinears: Vec<Option<Arc<QLinear>>>,
}

impl QuantizedExecutor {
    /// Compiles the backend from a graph, a **quantized** plan (built by
    /// [`crate::plan::Planner::plan_quantized`] with the same `spec`), and
    /// the frozen quantization spec. Whole-map convolutions resolve
    /// `policy` per layer (the same resolution the plan applied to its
    /// blocked stages), so `Auto` sends them down the integer GEMM path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when a whole-map conv
    /// segment has all-zero weights or no calibrated activation range.
    pub fn new(
        graph: Arc<Graph>,
        plan: Arc<ExecPlan>,
        spec: Arc<GraphQuantSpec>,
        policy: KernelPolicy,
    ) -> Result<Self, TensorError> {
        if plan.act_bits() != Some(spec.act_bits) {
            return Err(TensorError::invalid(format!(
                "plan precision ({:?} act bits) does not match the quantization spec ({}); \
                 compile the plan with Planner::plan_quantized and the same spec",
                plan.act_bits(),
                spec.act_bits
            )));
        }
        let mut qconvs: Vec<Option<Arc<QConv2d>>> = vec![None; graph.nodes().len()];
        let mut qlinears: Vec<Option<Arc<QLinear>>> = vec![None; graph.nodes().len()];
        for seg in plan.segments() {
            let Segment::Single(id) = seg else { continue };
            let name = &graph.nodes()[*id].name;
            match &graph.nodes()[*id].op {
                NodeOp::Conv { conv, .. } => {
                    if spec.act_params(*id).is_none() {
                        return Err(TensorError::invalid(format!(
                            "no calibrated activation range for conv node {name}"
                        )));
                    }
                    let q = QConv2d::from_conv_with_kernel(
                        conv,
                        spec.weight_bits,
                        policy.resolve(conv),
                    )
                    .ok_or_else(|| {
                        TensorError::invalid(format!("conv node {name} has all-zero weights"))
                    })?;
                    qconvs[*id] = Some(Arc::new(q));
                }
                // FC nodes quantize opportunistically: zero weights or an
                // uncalibrated input range simply leave the node on the
                // float path (the classifier head is not worth failing a
                // build over, unlike a conv trunk).
                NodeOp::Fc(linear) if spec.act_params(*id).is_some() => {
                    qlinears[*id] = QLinear::from_linear(linear, spec.weight_bits).map(Arc::new);
                }
                _ => {}
            }
        }
        Ok(Self { graph, plan, spec, qconvs, qlinears })
    }

    /// The compiled (quantized) plan.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// The frozen quantization spec.
    pub fn spec(&self) -> &GraphQuantSpec {
        &self.spec
    }
}

impl Executor for QuantizedExecutor {
    fn name(&self) -> &'static str {
        "quantized"
    }

    fn run_scratch(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        // The shared segment loop, with feature maps crossing the off-chip
        // boundary at the activation bitwidth (the paper's Figure 7 memory
        // accounting) and whole-map convs dispatched to dense QConv2d.
        run_plan(
            &self.graph,
            &self.plan,
            self.spec.act_bits,
            input,
            scratch,
            |id, node, in_t, aux, out, s| {
                // Whole-map quantized conv: outer padding is zero, exactly
                // as the float path pads whole maps.
                if let Some(q) = &self.qconvs[id] {
                    let params = self.spec.act_params(id).ok_or_else(|| {
                        TensorError::invalid(format!(
                            "no calibrated activation params for conv node {id} \
                             (spec/graph mismatch)"
                        ))
                    })?;
                    return q.forward_into(in_t, params, PadMode::Zero, out, &mut s.qconv);
                }
                // Quantized FC: integer dot products at the calibrated
                // input range.
                if let Some(ql) = &self.qlinears[id] {
                    let params = self.spec.act_params(id).ok_or_else(|| {
                        TensorError::invalid(format!(
                            "no calibrated activation params for fc node {id} \
                             (spec/graph mismatch)"
                        ))
                    })?;
                    return ql.forward_into(in_t, params, out, &mut s.qlinear);
                }
                eval_node_into(&node.op, in_t, aux, out, s)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LowerOptions;
    use bconv_models::small::vgg16_small;
    use bconv_tensor::init::{seeded_rng, uniform_tensor};

    fn lowered() -> Graph {
        Graph::lower(&vgg16_small(32), &LowerOptions::default()).unwrap()
    }

    #[test]
    fn calibration_freezes_params_for_every_conv_and_fc() {
        let g = lowered();
        let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(1));
        let spec = GraphQuantSpec::calibrate(&g, &[input], 8, 8).unwrap();
        let mut fc_seen = false;
        for (id, node) in g.nodes().iter().enumerate() {
            match node.op {
                NodeOp::Conv { .. } | NodeOp::Fc(_) => {
                    fc_seen |= matches!(node.op, NodeOp::Fc(_));
                    let p = spec.act_params(id);
                    assert!(p.is_some(), "node {} has no params", node.name);
                    assert_eq!(p.unwrap().bits(), 8);
                }
                _ => assert!(spec.act_params(id).is_none()),
            }
        }
        assert!(fc_seen, "vgg16_small should end in an FC head");
    }

    #[test]
    fn calibration_rejects_empty_batches_and_bad_bits() {
        let g = lowered();
        let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(2));
        assert!(GraphQuantSpec::calibrate(&g, &[], 8, 8).is_err());
        assert!(GraphQuantSpec::calibrate(&g, std::slice::from_ref(&input), 1, 8).is_err());
        assert!(GraphQuantSpec::calibrate(&g, std::slice::from_ref(&input), 8, 32).is_err());
    }

    #[test]
    fn executors_reject_mismatched_plan_precision() {
        use crate::exec::{BlockedExecutor, Executor};
        use crate::plan::{Planner, PlannerOptions};
        let g = Arc::new(lowered());
        let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(4));
        let spec =
            Arc::new(GraphQuantSpec::calibrate(&g, std::slice::from_ref(&input), 8, 8).unwrap());
        let planner = Planner::new(PlannerOptions::default());
        let qplan = Arc::new(planner.plan_quantized(&g, &spec).unwrap());
        let fplan = Arc::new(planner.plan(&g).unwrap());
        // A quantized plan on the float blocked backend is refused at run.
        let blocked = BlockedExecutor::new(Arc::clone(&g), Arc::clone(&qplan));
        assert!(blocked.run(&input).is_err());
        // A float plan on the quantized backend is refused at construction.
        assert!(QuantizedExecutor::new(
            Arc::clone(&g),
            fplan,
            Arc::clone(&spec),
            KernelPolicy::Auto
        )
        .is_err());
        // The matched pair runs.
        let q = QuantizedExecutor::new(g, qplan, spec, KernelPolicy::Auto).unwrap();
        assert!(q.run(&input).is_ok());
    }

    #[test]
    fn ema_discounts_an_outlier_batch() {
        let g = lowered();
        let mut rng = seeded_rng(3);
        let mut inputs: Vec<Tensor> =
            (0..3).map(|_| uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut rng)).collect();
        inputs.push(uniform_tensor([1, 3, 32, 32], -50.0, 50.0, &mut rng)); // outlier
        inputs.push(uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut rng));
        let spec = GraphQuantSpec::calibrate(&g, &inputs, 8, 8).unwrap();
        // Node 0 is the first conv, reading the graph input: the EMA range
        // must sit well below the outlier's absolute maximum.
        let p = spec.act_params(0).unwrap();
        assert!(p.scale() * (p.qmax() as f32) < 49.0, "EMA did not discount the outlier");
    }
}
