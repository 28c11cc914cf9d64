//! The planner: partitions a [`Graph`] into fusion groups under a
//! network-level blocking plan and a pluggable fusion [`CostModel`].
//!
//! This is where [`bconv_core::plan::NetworkPlan`] decisions become actual
//! execution: each conv the plan marks `Blocked` runs as a block
//! convolution inside a [`FusedChain`] fusion group; `Normal` convs (the
//! information-fusion points of the VDSR blocking-depth scheme) and every
//! op the fused dataflow cannot express (strided conv, padded or
//! non-matching pooling, residual `Add`, FC, GAP, upsampling) become
//! whole-map segments with an off-chip boundary on either side.
//!
//! Group *depth* is the cost model's call: the default [`ElementBudget`]
//! cuts on a flat element budget, while [`crate::cost::AccelCost`] asks
//! the `bconv-accel` cycle/memory model and additionally **splices**
//! adjacent compatible groups into a [`FusedPipeline`] (Figure 10's
//! fixed-blocking splice), keeping the group-boundary map in the on-chip
//! extra buffer instead of a DRAM round trip. Every decision is recorded
//! in the plan's [`PlanReport`], so benches and tests can assert the
//! planner's choices, not just its outputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::fusion::{FusedChain, FusedPipeline, PlannedOp};
use bconv_core::plan::{LayerBlocking, NetworkPlan};
use bconv_core::BlockConv2d;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;
use bconv_tensor::TensorError;

use crate::cost::{CostModel, ElementBudget, SpliceCost, StageCost};
use crate::ir::{Graph, NodeId, NodeOp, NodeRef};
use crate::quantize::GraphQuantSpec;

/// Process-wide count of full planner walks ([`Planner::plan`] /
/// [`Planner::plan_quantized`]). A [`crate::cache::PlanCache`] hit rebuilds
/// the plan from its serialized form without a walk, so tests assert this
/// counter stays flat across cache-loaded builds — the "skips planning
/// entirely" guarantee, counted rather than trusted.
static PLANNER_INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Number of full planner walks this process has run. Monotone; a
/// [`crate::cache::PlanCache`] hit leaves it untouched. Mirrors
/// [`crate::quantize::calibration_passes`].
pub fn planner_invocations() -> u64 {
    PLANNER_INVOCATIONS.load(Ordering::Relaxed)
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Blocking pattern applied to blocked convolutions.
    pub pattern: BlockingPattern,
    /// Per-conv-layer blocking decisions. `None` derives the paper's
    /// "block everything splittable" resolution rule from the graph.
    pub plan: Option<NetworkPlan>,
    /// Block-padding mode (paper §II-F evaluates zero/replicate/reflect).
    pub pad_mode: PadMode,
    /// On-chip working-buffer budget in **elements** for the default
    /// [`ElementBudget`] cost model: a fusion group is cut when extending
    /// it would push the per-block ping-pong buffer pair past the budget.
    /// `None` fuses maximal chains. Ignored when [`Self::cost_model`] is
    /// set. Like [`bconv_core::fusion::MemStats`], this models the
    /// accelerator's feature-map buffers; host-side kernel temporaries
    /// (e.g. the im2col patch matrix) are CPU execution details outside
    /// the budget.
    pub budget_elems: Option<usize>,
    /// Per-layer conv kernel selection for blocked convolutions (direct
    /// loop, plane sweeps or im2col+GEMM; see [`bconv_tensor::kernel`]).
    pub kernel: KernelPolicy,
    /// Fusion cost model deciding group cuts and splices. `None` uses
    /// [`ElementBudget`] over [`Self::budget_elems`] — the planner's
    /// historical behaviour, bitwise.
    pub cost_model: Option<Arc<dyn CostModel>>,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        Self {
            pattern: BlockingPattern::hierarchical(2),
            plan: None,
            pad_mode: PadMode::Zero,
            budget_elems: None,
            kernel: KernelPolicy::default(),
            cost_model: None,
        }
    }
}

/// One executable unit of the compiled plan.
#[derive(Debug, Clone)]
pub enum Segment {
    /// A fusion group executed block-by-block; only its input and output
    /// cross the off-chip boundary.
    Fused {
        /// Node ids covered by the group, in execution order.
        nodes: Vec<NodeId>,
        /// The planned chain.
        chain: FusedChain,
        /// What the group reads.
        input: NodeRef,
    },
    /// Adjacent fusion groups spliced into one pipeline (Figure 10's
    /// fixed-blocking splice): group-boundary maps stay in the on-chip
    /// extra buffer, so only the pipeline's input and final output cross
    /// the off-chip boundary. Numerically identical to running the groups
    /// as separate [`Segment::Fused`] segments — the splice is a schedule
    /// change only.
    Spliced {
        /// Node ids covered by all groups, in execution order.
        nodes: Vec<NodeId>,
        /// The spliced groups.
        pipeline: FusedPipeline,
        /// What the first group reads.
        input: NodeRef,
    },
    /// A single node executed on whole feature maps.
    Single(NodeId),
}

impl Segment {
    /// Id of the node whose output this segment produces. Fused segments
    /// always cover at least one node; an empty list would be a
    /// construction bug and falls back to node 0 rather than panicking.
    pub fn output_node(&self) -> NodeId {
        match self {
            Self::Fused { nodes, .. } | Self::Spliced { nodes, .. } => {
                nodes.last().copied().unwrap_or_default()
            }
            Self::Single(id) => *id,
        }
    }
}

/// One splice the planner took: the fused-group boundary whose feature map
/// now stays on chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceReport {
    /// Last node of the upstream group.
    pub from_node: NodeId,
    /// First node of the downstream group.
    pub to_node: NodeId,
    /// Off-chip elements the splice saves per batch element (the boundary
    /// map's write + read-back round trip).
    pub saved_offchip_elems: usize,
}

/// Where a compiled plan came from. Recorded in [`PlanReport`] so callers
/// (and `BENCH_serve.json` rows) can tell a freshly planned session from
/// one that loaded a pinned plan or a tuned winner.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PlanProvenance {
    /// The planner walked the graph in this build.
    #[default]
    Fresh,
    /// Deserialized from a [`crate::cache::PlanCache`] entry; no planner
    /// walk ran.
    CacheLoaded {
        /// Canonical form of the [`crate::cache::PlanKey`] that hit.
        key: String,
    },
    /// Planned under a [`mod@crate::tune`] winner's configuration (the walk
    /// ran, but its knobs came from the autotuner, not the caller).
    TuneSelected {
        /// Canonical form of the per-host tune key the winner was cached
        /// under.
        key: String,
    },
}

impl std::fmt::Display for PlanProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Fresh => write!(f, "fresh"),
            Self::CacheLoaded { key } => write!(f, "cache-loaded:{key}"),
            Self::TuneSelected { key } => write!(f, "tune-selected:{key}"),
        }
    }
}

impl PlanProvenance {
    /// Short label without the key ("fresh" / "cache-loaded" /
    /// "tune-selected") for bench rows and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Fresh => "fresh",
            Self::CacheLoaded { .. } => "cache-loaded",
            Self::TuneSelected { .. } => "tune-selected",
        }
    }
}

/// The planner's decisions, segment structure aside: which cost model
/// ruled, where it cut, and which boundaries it spliced. Benches and
/// tests assert against this instead of reverse-engineering segments.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    /// Name of the cost model that made the decisions.
    pub cost_model: String,
    /// Nodes the cost model refused to fuse into the running group (a
    /// group cut fell right before each). Structural cuts — fan-out,
    /// non-fusable ops, `Normal` plan entries — are not listed; they are
    /// not the model's choice.
    pub cost_cuts: Vec<NodeId>,
    /// Splices taken, in plan order.
    pub splices: Vec<SpliceReport>,
    /// How the plan reached this session: fresh walk, cache hit, or tuned
    /// configuration.
    pub provenance: PlanProvenance,
}

impl PlanReport {
    /// Total off-chip elements saved per batch element by the splices.
    pub fn spliced_offchip_elems_saved(&self) -> usize {
        self.splices.iter().map(|s| s.saved_offchip_elems).sum()
    }
}

/// A compiled execution plan: an ordered segment list plus the planner's
/// decision report.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    segments: Vec<Segment>,
    pattern: BlockingPattern,
    blocked_convs: usize,
    total_convs: usize,
    act_bits: Option<u8>,
    report: PlanReport,
}

impl ExecPlan {
    /// Reassembles a plan from parts — the deserialization path of
    /// [`crate::cache::PlanCache`], which rebuilds segments by re-solving
    /// block plans from stored grids rather than re-running the planner
    /// walk.
    pub(crate) fn from_parts(
        segments: Vec<Segment>,
        pattern: BlockingPattern,
        blocked_convs: usize,
        total_convs: usize,
        act_bits: Option<u8>,
        report: PlanReport,
    ) -> Self {
        Self { segments, pattern, blocked_convs, total_convs, act_bits, report }
    }

    /// Mutable decision report, for the build path to stamp provenance.
    pub(crate) fn report_mut(&mut self) -> &mut PlanReport {
        &mut self.report
    }

    /// Blocking pattern the plan was compiled under.
    pub fn pattern(&self) -> BlockingPattern {
        self.pattern
    }

    /// Total convolutions in the source graph (blocked or not).
    pub fn total_convs(&self) -> usize {
        self.total_convs
    }

    /// Activation bitwidth the plan was compiled for: `Some` for a
    /// [`Planner::plan_quantized`] plan (whose fused chains carry integer
    /// stages and whose whole-map convs expect quantized dispatch), `None`
    /// for a float plan. Executors must match — see
    /// [`crate::exec::BlockedExecutor`].
    pub fn act_bits(&self) -> Option<u8> {
        self.act_bits
    }

    /// Ordered segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The planner's decision report (cost model, cuts, splices).
    pub fn report(&self) -> &PlanReport {
        &self.report
    }

    /// Number of fusion groups (spliced pipelines count each constituent
    /// group).
    pub fn fusion_groups(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Fused { .. } => 1,
                Segment::Spliced { pipeline, .. } => pipeline.groups().len(),
                Segment::Single(_) => 0,
            })
            .sum()
    }

    /// Number of convolutions executing as block convolutions.
    pub fn blocked_convs(&self) -> usize {
        self.blocked_convs
    }

    /// Fraction of convolutions that are blocked (Table I's metric, now
    /// measured on the *executable* plan).
    pub fn blocking_ratio(&self) -> f64 {
        if self.total_convs == 0 {
            return 0.0;
        }
        self.blocked_convs as f64 / self.total_convs as f64
    }

    /// Human-readable plan summary, one line per segment.
    pub fn describe(&self, graph: &Graph) -> String {
        let name = |n: NodeId| graph.nodes()[n].name.as_str();
        let mut out = String::new();
        for (i, seg) in self.segments.iter().enumerate() {
            match seg {
                Segment::Fused { nodes, chain, .. } => {
                    let names: Vec<&str> = nodes.iter().map(|&n| name(n)).collect();
                    out.push_str(&format!(
                        "segment {i}: fused [{}] under {} ({} blocks)\n",
                        names.join(" -> "),
                        self.pattern,
                        chain.in_grid().num_blocks(),
                    ));
                }
                Segment::Spliced { nodes, pipeline, .. } => {
                    // Each chain stage covers exactly one node, so the flat
                    // node list splits back into groups by chain length.
                    let mut cursor = 0usize;
                    let groups: Vec<String> = pipeline
                        .groups()
                        .iter()
                        .map(|g| {
                            let span = &nodes[cursor..cursor + g.len()];
                            cursor += g.len();
                            let names: Vec<&str> = span.iter().map(|&n| name(n)).collect();
                            format!("[{}]", names.join(" -> "))
                        })
                        .collect();
                    out.push_str(&format!(
                        "segment {i}: spliced {} under {} ({} groups)\n",
                        groups.join(" => "),
                        self.pattern,
                        pipeline.groups().len(),
                    ));
                }
                Segment::Single(id) => {
                    let node = &graph.nodes()[*id];
                    out.push_str(&format!(
                        "segment {i}: {} ({}, whole-map)\n",
                        node.name,
                        node.op.mnemonic(),
                    ));
                }
            }
        }
        out
    }
}

/// Compiles [`Graph`]s into [`ExecPlan`]s.
#[derive(Debug, Clone)]
pub struct Planner {
    opts: PlannerOptions,
    model: Arc<dyn CostModel>,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new(PlannerOptions::default())
    }
}

/// In-progress fusion group during the greedy walk. `ops` holds the
/// already-solved [`BlockConv2d`] plans of the trial walk, so finalizing
/// the chain never re-solves a padding schedule; `costs` mirrors the
/// conv/pool stages in [`StageCost`] units for the cost model.
struct OpenChain {
    nodes: Vec<NodeId>,
    /// The id of the most recently joined node (always `nodes.last()`,
    /// tracked separately so the walk never unwraps an empty list).
    last_node: NodeId,
    ops: Vec<PlannedOp>,
    costs: Vec<StageCost>,
    input: NodeRef,
    start_grid: BlockGrid,
    cur_grid: BlockGrid,
    cur_channels: usize,
    has_blocked_conv: bool,
}

/// A walked segment paired with the stage costs of its fused group (used
/// by the splice pass; `None` for whole-map segments) and, for spliced
/// pipelines, the boundary-map sizes at its group joints (elements).
struct WalkedSegment {
    seg: Segment,
    costs: Option<Vec<StageCost>>,
    boundaries: Vec<usize>,
}

impl Planner {
    /// Planner with the given options. The effective cost model is
    /// [`PlannerOptions::cost_model`] when set, otherwise [`ElementBudget`]
    /// over [`PlannerOptions::budget_elems`].
    pub fn new(opts: PlannerOptions) -> Self {
        let model = opts
            .cost_model
            .clone()
            .unwrap_or_else(|| Arc::new(ElementBudget::from_option(opts.budget_elems)));
        Self { opts, model }
    }

    /// The effective fusion cost model.
    pub fn cost_model(&self) -> &dyn CostModel {
        self.model.as_ref()
    }

    /// Per-conv-ordinal decisions: the explicit plan when given, otherwise
    /// the resolution rule over the graph's conv nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when an explicit plan does
    /// not cover exactly the graph's conv layers — silently defaulting the
    /// tail would execute a different plan than the caller asked for.
    fn decisions(&self, graph: &Graph) -> Result<Vec<LayerBlocking>, TensorError> {
        if let Some(plan) = &self.opts.plan {
            if plan.len() != graph.conv_count() {
                return Err(TensorError::invalid(format!(
                    "NetworkPlan covers {} conv layers but {} has {}",
                    plan.len(),
                    graph.name(),
                    graph.conv_count()
                )));
            }
            return Ok(plan.per_layer().to_vec());
        }
        let spatial: Vec<bconv_core::analysis::ConvLayerSpatial> = graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Conv { .. }))
            .map(|n| bconv_core::analysis::ConvLayerSpatial { h: n.in_shape.h, w: n.in_shape.w })
            .collect();
        Ok(NetworkPlan::by_resolution(&spatial, self.opts.pattern).per_layer().to_vec())
    }

    /// Compiles the graph into a segment plan.
    ///
    /// The walk is greedy: a fusion group opens at the first blocked,
    /// fusable conv and extends through consecutive single-consumer
    /// conv/relu/pool nodes while (a) the running [`BlockGrid`] stays
    /// valid (Equation 2 solvable, pooling aligned) and (b) the cost model
    /// accepts the extension. Anything else cuts the group — an off-chip
    /// boundary, exactly as the paper's normal-convolution fusion points
    /// do. A second pass then offers adjacent compatible groups to the
    /// cost model for splicing into [`FusedPipeline`] segments.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when an explicit [`NetworkPlan`] does not
    /// cover exactly the graph's conv layers, or if a planned chain fails
    /// to re-validate (cannot happen for grids the trial walk accepted).
    pub fn plan(&self, graph: &Graph) -> Result<ExecPlan, TensorError> {
        self.plan_inner(graph, None)
    }

    /// [`plan`](Self::plan) with every fused convolution compiled to the
    /// quantized integer path: the fusion-group walk (and therefore the
    /// segment structure) is identical to the float plan, but chains are
    /// built from the trial walk's solved block plans via
    /// [`FusedChain::from_planned`] with `spec`'s weight bitwidth and the
    /// calibrated per-node activation ranges. Splices are taken under the
    /// same rules — every group of a quantized plan shares the spec's
    /// activation bitwidth, so [`FusedPipeline`]'s single-precision rule
    /// always permits them.
    ///
    /// # Errors
    ///
    /// As [`plan`](Self::plan), plus [`TensorError::InvalidParameter`] when
    /// a fused conv node has no calibrated activation range in `spec`.
    pub fn plan_quantized(
        &self,
        graph: &Graph,
        spec: &GraphQuantSpec,
    ) -> Result<ExecPlan, TensorError> {
        self.plan_inner(graph, Some(spec))
    }

    fn plan_inner(
        &self,
        graph: &Graph,
        quant: Option<&GraphQuantSpec>,
    ) -> Result<ExecPlan, TensorError> {
        PLANNER_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
        let decisions = self.decisions(graph)?;
        let bits = quant.map_or(32, |spec| spec.act_bits);
        let mut report =
            PlanReport { cost_model: self.model.name().to_string(), ..PlanReport::default() };
        let mut walked: Vec<WalkedSegment> = Vec::new();
        let mut open: Option<OpenChain> = None;
        let mut blocked_convs = 0usize;

        for (id, node) in graph.nodes().iter().enumerate() {
            // Can this node extend the currently open chain?
            if let Some(mut chain) = open.take() {
                let prev = chain.last_node;
                let continues =
                    node.input == NodeRef::Node(prev) && graph.consumer_count(prev) == 1;
                if continues {
                    match self.try_extend(&mut chain, id, node, &decisions, bits) {
                        Extend::Extended => {
                            if let NodeOp::Conv { .. } = node.op {
                                blocked_convs += 1;
                            }
                            open = Some(chain);
                            continue;
                        }
                        Extend::CutByModel => report.cost_cuts.push(id),
                        Extend::Cut => {}
                    }
                }
                // The node did not join: close the group.
                walked.push(Self::finalize(chain, graph, quant)?);
            }

            // Try to open a new group at this node; otherwise run it whole.
            if let Some(chain) = self.try_open(id, node, &decisions, bits)? {
                blocked_convs += 1;
                open = Some(chain);
            } else {
                walked.push(WalkedSegment {
                    seg: Segment::Single(id),
                    costs: None,
                    boundaries: Vec::new(),
                });
            }
        }
        if let Some(chain) = open.take() {
            walked.push(Self::finalize(chain, graph, quant)?);
        }

        let segments = self.splice_pass(graph, walked, bits, &mut report)?;

        Ok(ExecPlan {
            segments,
            pattern: self.opts.pattern,
            blocked_convs,
            total_convs: graph.conv_count(),
            act_bits: quant.map(|spec| spec.act_bits),
            report,
        })
    }

    /// Offers every adjacent pair of fused groups to the cost model for
    /// splicing: the downstream group must read exactly the upstream
    /// group's (single-consumer) output, and the pipeline's precision and
    /// boundary-map validation must hold — then the boundary map stays on
    /// chip. A pipeline keeps growing while the model keeps accepting, so
    /// three or more groups can splice into one segment.
    fn splice_pass(
        &self,
        graph: &Graph,
        walked: Vec<WalkedSegment>,
        bits: u8,
        report: &mut PlanReport,
    ) -> Result<Vec<Segment>, TensorError> {
        /// Output grid of a fused/spliced segment's last group.
        fn last_chain(seg: &Segment) -> Option<&FusedChain> {
            match seg {
                Segment::Fused { chain, .. } => Some(chain),
                Segment::Spliced { pipeline, .. } => pipeline.groups().last(),
                Segment::Single(_) => None,
            }
        }
        let mut out: Vec<WalkedSegment> = Vec::with_capacity(walked.len());
        for cur in walked {
            let splice = match (out.last(), &cur) {
                (
                    Some(prev @ WalkedSegment { costs: Some(prev_costs), .. }),
                    WalkedSegment {
                        seg: Segment::Fused { input, nodes, chain },
                        costs: Some(cur_costs),
                        ..
                    },
                ) => last_chain(&prev.seg).and_then(|prev_chain| {
                    let prev_out = prev.seg.output_node();
                    // The downstream group must read exactly the upstream
                    // group's output, the boundary must have no other
                    // consumer, and the pipeline must be expressible (maps
                    // line up, one precision throughout) — the same
                    // conditions FusedPipeline::new validates.
                    let compatible = *input == NodeRef::Node(prev_out)
                        && graph.consumer_count(prev_out) == 1
                        && prev_chain.out_grid().h() == chain.in_grid().h()
                        && prev_chain.out_grid().w() == chain.in_grid().w()
                        && prev_chain.act_bits() == chain.act_bits();
                    let boundary_elems = {
                        let s = graph.nodes()[prev_out].out_shape;
                        s.c * s.h * s.w
                    };
                    // Peak extra-buffer occupancy of the prospective
                    // pipeline: while a middle group runs, its source and
                    // destination boundary maps are both resident, so the
                    // peak is the largest adjacent-boundary pair.
                    let peak_extra_elems =
                        prev.boundaries.last().map_or(boundary_elems, |&b| b + boundary_elems).max(
                            prev.boundaries.windows(2).map(|w| w[0] + w[1]).max().unwrap_or(0),
                        );
                    let boundary =
                        SpliceCost { boundary_elems, peak_extra_elems, bits_per_elem: bits };
                    (compatible && self.model.allow_splice(prev_costs, cur_costs, &boundary))
                        .then_some((prev_out, nodes[0], boundary.boundary_elems))
                }),
                _ => None,
            };
            let Some((from_node, to_node, boundary_elems)) = splice else {
                out.push(cur);
                continue;
            };
            // A splice decision implies `out.last()` matched above, so the
            // pop yields that same upstream segment; an empty stack would
            // be a walk bug and degrades to the no-splice path.
            let Some(prev) = out.pop() else {
                out.push(cur);
                continue;
            };
            let (mut groups, mut nodes_all, p_input) = match prev.seg {
                Segment::Fused { nodes, chain, input } => (vec![chain], nodes, input),
                Segment::Spliced { nodes, pipeline, input } => {
                    (pipeline.into_groups(), nodes, input)
                }
                Segment::Single(_) => unreachable!("spliceable segments are fused"),
            };
            let WalkedSegment {
                seg: Segment::Fused { nodes, chain, .. },
                costs: Some(cur_costs),
                ..
            } = cur
            else {
                unreachable!("splice candidates are fused segments");
            };
            groups.push(chain);
            // Compatibility was pre-checked above, so construction cannot
            // fail; propagate rather than panic if it ever does.
            let pipeline = FusedPipeline::new(groups)?;
            report.splices.push(SpliceReport {
                from_node,
                to_node,
                saved_offchip_elems: 2 * boundary_elems,
            });
            nodes_all.extend(nodes);
            // Splice candidates matched `costs: Some(..)` above; an absent
            // cost vector degrades to empty rather than panicking.
            let mut costs = prev.costs.unwrap_or_default();
            costs.extend(cur_costs);
            let mut boundaries = prev.boundaries;
            boundaries.push(boundary_elems);
            out.push(WalkedSegment {
                seg: Segment::Spliced { nodes: nodes_all, pipeline, input: p_input },
                costs: Some(costs),
                boundaries,
            });
        }
        Ok(out.into_iter().map(|w| w.seg).collect())
    }

    /// Opens a fusion group if `node` is a blocked, fusable convolution.
    fn try_open(
        &self,
        id: NodeId,
        node: &crate::ir::Node,
        decisions: &[LayerBlocking],
        bits: u8,
    ) -> Result<Option<OpenChain>, TensorError> {
        let NodeOp::Conv { conv, conv_ordinal } = &node.op else {
            return Ok(None);
        };
        if conv.geom().stride != 1 {
            return Ok(None); // strided convs run whole-map (paper §II-F
                             // rewrites them to conv + pool instead)
        }
        let Some(LayerBlocking::Blocked(pattern)) = decisions.get(*conv_ordinal).copied() else {
            return Ok(None);
        };
        if pattern != self.opts.pattern {
            // Mixed-pattern plans: only the session pattern fuses; other
            // patterns fall back to whole-map execution.
            return Ok(None);
        }
        let Ok(grid) = BlockGrid::from_pattern(node.in_shape.h, node.in_shape.w, pattern) else {
            return Ok(None); // resolution too small to split
        };
        // Weights are shared, not cloned: the chain stage and the graph
        // node hold the same Arc<Conv2d> allocation.
        let Ok(bconv) = BlockConv2d::plan_with_kernel(
            Arc::clone(conv),
            grid.clone(),
            self.opts.pad_mode,
            self.opts.kernel,
        ) else {
            return Ok(None); // Equation 2 unsolvable for this geometry
        };
        let out_grid = bconv.output_grid()?;
        // Note: the cost model governs fusion-group *depth*, not blocking
        // itself — a blocked conv whose own buffers exceed the model's
        // capacity still opens a (single-op) group so plan semantics stay
        // numerically invariant under any model.
        let cost = StageCost {
            in_block_elems: grid.max_block_area() * conv.c_in(),
            out_block_elems: out_grid.max_block_area() * conv.c_out(),
            in_map_elems: node.in_shape.c * node.in_shape.h * node.in_shape.w,
            out_map_elems: node.out_shape.c * node.out_shape.h * node.out_shape.w,
            macs: bconv.macs(),
            bits_per_elem: bits,
        };
        Ok(Some(OpenChain {
            nodes: vec![id],
            last_node: id,
            ops: vec![PlannedOp::Conv(bconv)],
            costs: vec![cost],
            input: node.input,
            start_grid: grid,
            cur_grid: out_grid,
            cur_channels: conv.c_out(),
            has_blocked_conv: true,
        }))
    }

    /// Attempts to extend an open chain with `node`.
    fn try_extend(
        &self,
        chain: &mut OpenChain,
        id: NodeId,
        node: &crate::ir::Node,
        decisions: &[LayerBlocking],
        bits: u8,
    ) -> Extend {
        match &node.op {
            NodeOp::Relu => {
                chain.nodes.push(id);
                chain.last_node = id;
                chain.ops.push(PlannedOp::Relu);
                Extend::Extended
            }
            NodeOp::MaxPool { k, s, p } => {
                if k != s || *p != 0 {
                    return Extend::Cut; // fused pooling is k×k/stride-k only
                }
                let Ok(next) = chain.cur_grid.downscale(*k) else {
                    return Extend::Cut; // block boundaries misaligned
                };
                let cost = StageCost {
                    in_block_elems: chain.cur_grid.max_block_area() * chain.cur_channels,
                    out_block_elems: next.max_block_area() * chain.cur_channels,
                    in_map_elems: node.in_shape.c * node.in_shape.h * node.in_shape.w,
                    out_map_elems: node.out_shape.c * node.out_shape.h * node.out_shape.w,
                    macs: 0,
                    bits_per_elem: bits,
                };
                if !self.model.allow_extend(&chain.costs, &cost) {
                    return Extend::CutByModel;
                }
                chain.cur_grid = next;
                chain.nodes.push(id);
                chain.last_node = id;
                chain.ops.push(PlannedOp::MaxPool { k: *k });
                chain.costs.push(cost);
                Extend::Extended
            }
            NodeOp::Conv { conv, conv_ordinal } => {
                if conv.geom().stride != 1 {
                    return Extend::Cut;
                }
                let Some(LayerBlocking::Blocked(pattern)) = decisions.get(*conv_ordinal).copied()
                else {
                    return Extend::Cut; // Normal conv = fusion point
                };
                if pattern != self.opts.pattern {
                    return Extend::Cut;
                }
                let Ok(bconv) = BlockConv2d::plan_with_kernel(
                    Arc::clone(conv),
                    chain.cur_grid.clone(),
                    self.opts.pad_mode,
                    self.opts.kernel,
                ) else {
                    return Extend::Cut;
                };
                let Ok(out_grid) = bconv.output_grid() else {
                    return Extend::Cut;
                };
                let cost = StageCost {
                    in_block_elems: chain.cur_grid.max_block_area() * conv.c_in(),
                    out_block_elems: out_grid.max_block_area() * conv.c_out(),
                    in_map_elems: node.in_shape.c * node.in_shape.h * node.in_shape.w,
                    out_map_elems: node.out_shape.c * node.out_shape.h * node.out_shape.w,
                    macs: bconv.macs(),
                    bits_per_elem: bits,
                };
                if !self.model.allow_extend(&chain.costs, &cost) {
                    return Extend::CutByModel;
                }
                chain.cur_grid = out_grid;
                chain.cur_channels = conv.c_out();
                chain.nodes.push(id);
                chain.last_node = id;
                chain.ops.push(PlannedOp::Conv(bconv));
                chain.costs.push(cost);
                Extend::Extended
            }
            _ => Extend::Cut,
        }
    }

    /// Converts an open chain into a fused segment, assembling the chain
    /// from the trial walk's already-solved [`BlockConv2d`] stages (no
    /// re-solving of Equation 2 padding schedules). Chains always contain
    /// at least one blocked conv (groups only open at one), so even a
    /// single-op chain must execute through the blocked path to preserve
    /// the plan's numerics.
    fn finalize(
        chain: OpenChain,
        graph: &Graph,
        quant: Option<&GraphQuantSpec>,
    ) -> Result<WalkedSegment, TensorError> {
        debug_assert!(chain.has_blocked_conv);
        let fused = assemble_chain(graph, &chain.nodes, chain.ops, chain.start_grid, quant)?;
        Ok(WalkedSegment {
            seg: Segment::Fused { nodes: chain.nodes, chain: fused, input: chain.input },
            costs: Some(chain.costs),
            boundaries: Vec::new(),
        })
    }
}

/// Builds the [`FusedChain`] of the fused group `nodes` from its solved
/// `ops`, on the float path or, with a quantization spec, on the integer
/// path with each conv node's calibrated input-activation range. The
/// planner and the plan cache both assemble chains here, so a cache-loaded
/// chain is built exactly as a freshly planned one.
///
/// # Errors
///
/// [`TensorError::InvalidParameter`] when a conv node of the group has no
/// calibrated activation range in `quant`, plus any error of
/// [`FusedChain::from_planned`].
pub(crate) fn assemble_chain(
    graph: &Graph,
    nodes: &[NodeId],
    ops: Vec<PlannedOp>,
    start: BlockGrid,
    quant: Option<&GraphQuantSpec>,
) -> Result<FusedChain, TensorError> {
    let mut act_params = Vec::new();
    if let Some(spec) = quant {
        for (&id, op) in nodes.iter().zip(&ops) {
            if matches!(op, PlannedOp::Conv(_)) {
                act_params.push(spec.act_params(id).ok_or_else(|| {
                    let name = graph.nodes().get(id).map_or("?", |n| n.name.as_str());
                    TensorError::invalid(format!(
                        "no calibrated activation range for conv node {id} ({name})"
                    ))
                })?);
            }
        }
    }
    let quant = quant.map(|spec| (spec.weight_bits, act_params.as_slice()));
    FusedChain::from_planned(ops, start, quant)
}

enum Extend {
    Extended,
    /// Structural cut: the node cannot join any fused group here.
    Cut,
    /// The cost model refused the extension (recorded in the report).
    CutByModel,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AccelCost;
    use crate::ir::{Graph, LowerOptions};
    use bconv_accel::platform::zc706;
    use bconv_models::small::{resnet18_small, vgg16_small};
    use bconv_models::vdsr::vdsr_with_depth;

    fn lower(net: &bconv_models::Network) -> Graph {
        Graph::lower(net, &LowerOptions::default()).unwrap()
    }

    #[test]
    fn vgg_plan_fuses_conv_pool_stages() {
        let g = lower(&vgg16_small(32));
        let plan = Planner::new(PlannerOptions::default()).plan(&g).unwrap();
        assert!(plan.fusion_groups() >= 1, "{}", plan.describe(&g));
        // Every conv in VGG-small is stride-1 and splittable at 32x32 under
        // H2x2, so the executable blocking ratio is 1.
        assert!((plan.blocking_ratio() - 1.0).abs() < 1e-9);
        // FC / GAP segments stay whole-map.
        assert!(plan.segments().iter().any(|s| matches!(s, Segment::Single(_))));
        // The default model is the element budget, and with no budget it
        // neither cuts nor splices.
        assert_eq!(plan.report().cost_model, "element-budget");
        assert!(plan.report().cost_cuts.is_empty());
        assert!(plan.report().splices.is_empty());
    }

    #[test]
    fn unblocked_plan_has_no_fusion_groups() {
        let g = lower(&vgg16_small(32));
        let opts = PlannerOptions {
            plan: Some(NetworkPlan::unblocked(g.conv_count())),
            ..PlannerOptions::default()
        };
        let plan = Planner::new(opts).plan(&g).unwrap();
        assert_eq!(plan.fusion_groups(), 0);
        assert_eq!(plan.blocking_ratio(), 0.0);
        assert_eq!(plan.segments().len(), g.nodes().len());
    }

    #[test]
    fn residual_sources_cut_fusion_groups() {
        let g = lower(&resnet18_small(32));
        let plan = Planner::new(PlannerOptions::default()).plan(&g).unwrap();
        // No fused group may contain a node with fan-out except as its last
        // node (its output is materialised at the segment boundary).
        for seg in plan.segments() {
            if let Segment::Fused { nodes, .. } = seg {
                for &n in &nodes[..nodes.len() - 1] {
                    assert_eq!(g.consumer_count(n), 1, "fused interior node {n} fans out");
                }
            }
        }
    }

    #[test]
    fn blocking_depth_plan_places_fusion_points() {
        // VDSR with blocking depth 2: every third conv is a whole-map
        // fusion point, so the 6-conv net splits into 2-conv fused groups.
        let net = vdsr_with_depth(24, 24, 6, 8);
        let g = lower(&net);
        let opts = PlannerOptions {
            plan: Some(NetworkPlan::by_blocking_depth(6, BlockingPattern::hierarchical(2), 2)),
            ..PlannerOptions::default()
        };
        let plan = Planner::new(opts).plan(&g).unwrap();
        assert_eq!(plan.fusion_groups(), 2, "{}", plan.describe(&g));
        assert_eq!(plan.blocked_convs(), 4);
    }

    #[test]
    fn mismatched_plan_length_is_rejected() {
        // A plan covering the wrong number of conv layers must error, not
        // silently default the tail to Normal.
        let g = lower(&vgg16_small(32)); // 13 convs
        for wrong in [12, 14, 1] {
            let opts = PlannerOptions {
                plan: Some(NetworkPlan::unblocked(wrong)),
                ..PlannerOptions::default()
            };
            assert!(Planner::new(opts).plan(&g).is_err(), "plan of length {wrong} accepted");
        }
    }

    #[test]
    fn budget_limits_group_depth() {
        let net = vdsr_with_depth(24, 24, 6, 8);
        let g = lower(&net);
        let unlimited = Planner::new(PlannerOptions::default()).plan(&g).unwrap();
        // 12x12 blocks, 8 channels: one conv stage pair needs
        // 12*12*1 + 12*12*8 elements; a budget below two wide stages forces
        // cuts after the first conv.
        let tight = Planner::new(PlannerOptions {
            budget_elems: Some(12 * 12 * 8 + 12 * 12 * 2),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        assert!(tight.fusion_groups() >= unlimited.fusion_groups());
        // Each cut the budget forces is recorded in the report.
        assert!(!tight.report().cost_cuts.is_empty());
        let max_group = |p: &ExecPlan| {
            p.segments()
                .iter()
                .filter_map(|s| match s {
                    Segment::Fused { nodes, .. } => Some(nodes.len()),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        assert!(max_group(&tight) < max_group(&unlimited));
    }

    /// An AccelCost model whose intermediate capacity matches an element
    /// budget of `elems` at 32-bit words, with a generous extra buffer.
    fn accel_like_budget(elems: usize) -> Arc<dyn CostModel> {
        Arc::new(AccelCost::with_buffers(zc706(), (elems as u64) * 32 / 2, 1 << 24))
    }

    #[test]
    fn accel_cost_splices_adjacent_groups() {
        // A budget that cuts VGG-small after conv1-1 leaves two adjacent
        // fused groups; the accel model takes the Figure 10 splice, the
        // element budget does not.
        let g = lower(&vgg16_small(32));
        let budget = 1500usize;
        let element = Planner::new(PlannerOptions {
            budget_elems: Some(budget),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        let accel = Planner::new(PlannerOptions {
            cost_model: Some(accel_like_budget(budget)),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        assert!(element.report().splices.is_empty());
        assert!(
            !accel.report().splices.is_empty(),
            "accel model took no splice:\n{}",
            accel.describe(&g)
        );
        assert!(accel.segments().iter().any(|s| matches!(s, Segment::Spliced { .. })));
        assert_eq!(accel.report().cost_model, "accel-cost");
        // Both models cut somewhere; the splice re-fuses the boundary.
        assert!(!accel.report().cost_cuts.is_empty());
        assert!(accel.report().spliced_offchip_elems_saved() > 0);
        // Splicing merges segments but keeps every fusion group.
        assert_eq!(accel.fusion_groups(), element.fusion_groups());
        assert!(accel.segments().len() < element.segments().len());
    }

    #[test]
    fn splice_pass_gates_on_adjacent_boundary_pairs() {
        // VDSR under a cut-per-conv budget has 5 fused groups with 4
        // equal boundaries (8ch x 24x24 = 4608 elems). An extra buffer
        // that holds one boundary but not two must stop every pipeline at
        // 2 groups — a middle group would keep both its boundaries
        // resident at once.
        let g = lower(&vdsr_with_depth(24, 24, 6, 8));
        let budget = 12 * 12 * 8 + 12 * 12 * 2;
        let one_boundary_bits = 4608u64 * 32;
        let model = Arc::new(AccelCost::with_buffers(
            zc706(),
            budget as u64 * 32 / 2,
            one_boundary_bits, // < 2 boundaries
        ));
        let plan =
            Planner::new(PlannerOptions { cost_model: Some(model), ..PlannerOptions::default() })
                .plan(&g)
                .unwrap();
        assert!(!plan.report().splices.is_empty(), "{}", plan.describe(&g));
        for seg in plan.segments() {
            if let Segment::Spliced { pipeline, .. } = seg {
                assert_eq!(
                    pipeline.groups().len(),
                    2,
                    "pair-limited extra buffer must cap pipelines at 2 groups:\n{}",
                    plan.describe(&g)
                );
            }
        }
        // A roomy extra buffer splices deeper on the same cuts.
        let deep = Planner::new(PlannerOptions {
            cost_model: Some(Arc::new(AccelCost::with_buffers(
                zc706(),
                budget as u64 * 32 / 2,
                1 << 24,
            ))),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        let max_groups = deep
            .segments()
            .iter()
            .filter_map(|s| match s {
                Segment::Spliced { pipeline, .. } => Some(pipeline.groups().len()),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(max_groups > 2, "{}", deep.describe(&g));
    }

    #[test]
    fn describe_prints_spliced_pipelines() {
        let g = lower(&vgg16_small(32));
        let plan = Planner::new(PlannerOptions {
            cost_model: Some(accel_like_budget(1500)),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        let d = plan.describe(&g);
        assert!(d.contains("spliced"), "{d}");
        assert!(d.contains("=>"), "{d}");
    }

    #[test]
    fn splice_pass_respects_boundary_fanout() {
        // ResNet residual sources fan out: even a splice-everything model
        // must never splice across a boundary another node still reads.
        let g = lower(&resnet18_small(32));
        let plan = Planner::new(PlannerOptions {
            cost_model: Some(Arc::new(AccelCost::for_platform(zc706()))),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        for seg in plan.segments() {
            let Segment::Spliced { nodes, pipeline, .. } = seg else { continue };
            let mut cursor = 0usize;
            for group in &pipeline.groups()[..pipeline.groups().len() - 1] {
                cursor += group.len();
                let boundary = nodes[cursor - 1];
                assert_eq!(g.consumer_count(boundary), 1, "spliced boundary {boundary} fans out");
            }
        }
    }

    #[test]
    fn cost_model_and_budget_resolution() {
        // An explicit cost model wins over budget_elems; without one the
        // budget is wrapped in ElementBudget.
        let p = Planner::new(PlannerOptions {
            budget_elems: Some(10),
            cost_model: Some(Arc::new(ElementBudget::unbounded())),
            ..PlannerOptions::default()
        });
        assert_eq!(p.cost_model().name(), "element-budget");
        let g = lower(&vdsr_with_depth(24, 24, 6, 8));
        // Unbounded explicit model: one fused group despite the budget.
        let plan = p.plan(&g).unwrap();
        assert!(plan.report().cost_cuts.is_empty(), "{}", plan.describe(&g));
    }
}
