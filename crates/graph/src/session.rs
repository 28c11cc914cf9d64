//! The [`Session`] entry point: compile a network descriptor once, run it
//! many times.
//!
//! ```
//! use bconv_graph::Session;
//! use bconv_core::BlockingPattern;
//! use bconv_models::small::vgg16_small;
//! use bconv_tensor::{PadMode, Tensor};
//!
//! # fn main() -> Result<(), bconv_tensor::TensorError> {
//! let session = Session::builder()
//!     .network(vgg16_small(32))
//!     .pattern(BlockingPattern::hierarchical(2))
//!     .pad(PadMode::Zero)
//!     .build()?;
//! let report = session.run(&Tensor::filled([1, 3, 32, 32], 0.5))?;
//! assert_eq!(report.output.shape().dims(), [1, 10, 1, 1]);
//! # Ok(())
//! # }
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use bconv_core::blocking::BlockingPattern;
use bconv_core::plan::NetworkPlan;
use bconv_models::Network;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;
use bconv_tensor::{Tensor, TensorError};

use bconv_tensor::init::{seeded_rng, uniform_tensor};

use crate::cache::{PlanCache, PlanKey};
use crate::cost::CostModel;
use crate::exec::{BlockedExecutor, ExecScratch, Executor, ReferenceExecutor, RunReport};
use crate::ir::{Graph, LowerOptions, NodeOp};
use crate::plan::{ExecPlan, PlanProvenance, Planner, PlannerOptions, Segment};
use crate::quantize::{GraphQuantSpec, QuantizedExecutor};
use crate::serve::router::Router;
use crate::serve::{ServeConfig, ServeEngine};
use crate::tune::{self, TuneOptions};

/// Which executor backend a session compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Dense layer-wise execution (numerical/memory baseline).
    Reference,
    /// Blocked, fused execution per the compiled plan (the default).
    #[default]
    Blocked,
    /// The blocked schedule with every convolution in calibrated integer
    /// arithmetic — the paper's deployment path (§III-C, Figure 7:
    /// `weight_bits: 8, act_bits: 16` for the VGG-16 accelerator,
    /// `weight_bits: 4, act_bits: 8` for VDSR). Building this backend runs
    /// a post-training calibration pass (see [`crate::quantize`]);
    /// [`RunReport`] traffic is reported at
    /// `act_bits` per feature-map element.
    Quantized {
        /// Convolution weight bitwidth (2..=16).
        weight_bits: u8,
        /// Activation bitwidth (2..=16); also the off-chip word width.
        act_bits: u8,
    },
}

/// Name of the environment variable that once set the blocked backend's
/// per-request thread count. The engine no longer reads it: blocks run
/// serially on the calling thread, and parallelism comes from
/// [`ServeConfig::workers`] and [`Session::into_router`]. The constant
/// remains only for callers that still name the variable; the next
/// benchmark change removes it.
pub const THREADS_ENV: &str = "BCONV_THREADS";

/// Number of synthesised calibration batches when the quantized backend is
/// built without [`SessionBuilder::calibration`] data.
pub const DEFAULT_CALIBRATION_BATCHES: usize = 4;

/// Deterministic stand-in calibration set: seeded uniform batches over the
/// network's input shape. Real calibration data gives real activation
/// ranges; this keeps `Backend::Quantized` buildable out of the box with
/// the same reproducibility guarantees as weight binding.
fn default_calibration(graph: &Graph, seed: u64) -> Vec<Tensor> {
    let s = graph.input_shape();
    (0..DEFAULT_CALIBRATION_BATCHES)
        .map(|i| {
            let mut rng = seeded_rng(seed ^ 0x5143_414C ^ ((i as u64 + 1) << 32));
            uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut rng)
        })
        .collect()
}

/// The cache-aware planning funnel: on a [`PlanKey`] hit the pinned plan is
/// rebuilt from its stored decisions and the planner walk never runs (its
/// provenance is already `CacheLoaded`); otherwise the planner runs, the
/// given provenance is stamped, and the plan is stored best-effort. Every
/// cache failure — missing file, corrupt JSON, stale key, incompatible
/// schema — falls back to fresh planning; none is fatal.
#[allow(clippy::too_many_arguments)]
fn plan_or_load(
    cache: Option<&PlanCache>,
    key: Option<&PlanKey>,
    planner: &Planner,
    graph: &Graph,
    pad: PadMode,
    kernel: KernelPolicy,
    quant: Option<&GraphQuantSpec>,
    provenance: PlanProvenance,
) -> Result<Arc<ExecPlan>, TensorError> {
    if let (Some(cache), Some(key)) = (cache, key) {
        if let Ok(plan) = cache.load(key, graph, pad, kernel, quant) {
            return Ok(Arc::new(plan));
        }
    }
    let mut plan = match quant {
        Some(spec) => planner.plan_quantized(graph, spec)?,
        None => planner.plan(graph)?,
    };
    plan.report_mut().provenance = provenance;
    if let (Some(cache), Some(key)) = (cache, key) {
        let _ = cache.store(key, &plan);
    }
    Ok(Arc::new(plan))
}

/// The planning configuration, as one value: everything that decides
/// *what plan* a session compiles (as opposed to which backend executes
/// it). [`SessionBuilder::planner`]
/// consumes a spec wholesale; the builder's individual knobs
/// ([`SessionBuilder::pattern`], [`SessionBuilder::on_chip_budget`],
/// [`SessionBuilder::cost_model`], …) are thin conveniences writing into
/// the same spec, kept for compatibility.
///
/// ```
/// use bconv_graph::session::PlanSpec;
/// use bconv_core::BlockingPattern;
///
/// let spec = PlanSpec::new()
///     .pattern(BlockingPattern::hierarchical(2))
///     .on_chip_budget(1500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlanSpec {
    /// Blocking pattern (`None` = the `H2×2` default).
    pub pattern: Option<BlockingPattern>,
    /// Explicit per-conv-layer blocking decisions (`None` derives the
    /// paper's resolution rule).
    pub network_plan: Option<NetworkPlan>,
    /// Element budget for the default cost model; mutually exclusive with
    /// [`Self::cost_model`].
    pub budget_elems: Option<usize>,
    /// Fusion cost model (cuts and splices).
    pub cost_model: Option<Arc<dyn CostModel>>,
    /// Block-padding mode.
    pub pad: PadMode,
    /// Conv kernel policy for blocked convolutions.
    pub kernel: KernelPolicy,
    /// Plan-cache directory: when set, `build()` loads a pinned plan on a
    /// [`PlanKey`] hit (skipping the planner walk entirely) and stores
    /// freshly planned ones.
    pub cache_dir: Option<PathBuf>,
    /// Run the per-host autotuner ([`mod@crate::tune`]) and plan under its
    /// winner. Knobs the caller pinned explicitly keep their values; only
    /// unset ones take the winner's.
    pub tuned: bool,
}

impl PlanSpec {
    /// An empty spec (all defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the blocking pattern.
    pub fn pattern(mut self, pattern: BlockingPattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Sets explicit per-conv-layer blocking decisions.
    pub fn network_plan(mut self, plan: NetworkPlan) -> Self {
        self.network_plan = Some(plan);
        self
    }

    /// Caps the per-block on-chip working buffers, in elements.
    pub fn on_chip_budget(mut self, elems: usize) -> Self {
        self.budget_elems = Some(elems);
        self
    }

    /// Sets the fusion cost model.
    pub fn cost_model(mut self, model: impl CostModel + 'static) -> Self {
        self.cost_model = Some(Arc::new(model));
        self
    }

    /// Sets the block-padding mode.
    pub fn pad(mut self, pad: PadMode) -> Self {
        self.pad = pad;
        self
    }

    /// Sets the conv kernel policy.
    pub fn kernel(mut self, policy: KernelPolicy) -> Self {
        self.kernel = policy;
        self
    }

    /// Enables the plan cache under `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Enables per-host autotuning.
    pub fn tuned(mut self) -> Self {
        self.tuned = true;
        self
    }
}

/// Builder for [`Session`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    network: Option<Network>,
    spec: PlanSpec,
    backend: Backend,
    seed: Option<u64>,
    relu_after_conv: bool,
    calibration: Option<Vec<Tensor>>,
}

impl SessionBuilder {
    /// Sets the network descriptor to compile (required).
    pub fn network(mut self, net: Network) -> Self {
        self.network = Some(net);
        self
    }

    /// Replaces the whole planning configuration with `spec` — the
    /// documented way to configure planning. The per-knob builder methods
    /// below write into the same spec and remain as conveniences.
    pub fn planner(mut self, spec: PlanSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Enables the plan compilation cache under `dir`: a [`PlanKey`] hit
    /// loads the pinned plan (bitwise-identical execution, no planner
    /// walk); a miss plans fresh and stores the result. Equivalent to
    /// [`PlanSpec::cache_dir`].
    pub fn plan_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.cache_dir = Some(dir.into());
        self
    }

    /// Enables per-host autotuning: `build()` runs (or loads, when a
    /// plan cache directory is set, from its per-host winner cache) the
    /// bounded [`mod@crate::tune`] exploration and plans under the winning
    /// pattern / buffer split / kernel policy. Knobs set
    /// explicitly on the builder keep their values. Equivalent to
    /// [`PlanSpec::tuned`].
    pub fn tuned(mut self) -> Self {
        self.spec.tuned = true;
        self
    }

    /// Sets the blocking pattern (default `H2×2`).
    ///
    /// **Note:** convenience delegating to [`PlanSpec::pattern`]; prefer
    /// [`planner`](Self::planner) for new code.
    pub fn pattern(mut self, pattern: BlockingPattern) -> Self {
        self.spec.pattern = Some(pattern);
        self
    }

    /// Overrides the per-conv-layer blocking decisions (default: the
    /// paper's resolution rule under the session pattern). Use
    /// [`NetworkPlan::by_blocking_depth`] for the VDSR fusion-point
    /// schedule or [`NetworkPlan::unblocked`] for a pure dense baseline.
    ///
    /// **Note:** convenience delegating to [`PlanSpec::network_plan`];
    /// prefer [`planner`](Self::planner) for new code.
    pub fn plan(mut self, plan: NetworkPlan) -> Self {
        self.spec.network_plan = Some(plan);
        self
    }

    /// Sets the block-padding mode (default zero padding).
    ///
    /// **Note:** convenience delegating to [`PlanSpec::pad`]; prefer
    /// [`planner`](Self::planner) for new code.
    pub fn pad(mut self, pad: PadMode) -> Self {
        self.spec.pad = pad;
        self
    }

    /// Caps the per-block on-chip working buffers, in elements. Fusion
    /// groups are cut at the boundary where they would exceed the budget
    /// (the default [`crate::cost::ElementBudget`] model; mutually
    /// exclusive with [`cost_model`](Self::cost_model)).
    ///
    /// **Note:** convenience delegating to [`PlanSpec::on_chip_budget`];
    /// prefer [`planner`](Self::planner) for new code.
    pub fn on_chip_budget(mut self, elems: usize) -> Self {
        self.spec.budget_elems = Some(elems);
        self
    }

    /// Selects the fusion cost model deciding where the planner cuts
    /// fusion groups and whether adjacent groups splice into a
    /// `FusedPipeline` (see [`crate::cost`]). The default is
    /// [`crate::cost::ElementBudget`] over
    /// [`on_chip_budget`](Self::on_chip_budget); pass
    /// [`crate::cost::AccelCost`] to plan against the `bconv-accel`
    /// cycle/memory model. Setting both a cost model and an element budget
    /// is rejected at build time (ambiguous).
    ///
    /// **Note:** convenience delegating to [`PlanSpec::cost_model`];
    /// prefer [`planner`](Self::planner) for new code.
    pub fn cost_model(mut self, model: impl CostModel + 'static) -> Self {
        self.spec.cost_model = Some(Arc::new(model));
        self
    }

    /// Selects the executor backend (default [`Backend::Blocked`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Seed for deterministic weight binding (default 2018). Sessions
    /// built from the same network with the same seed share weights
    /// regardless of backend — the basis of cross-backend parity tests.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Inserts a ReLU after every convolution during lowering.
    pub fn relu_after_conv(mut self, yes: bool) -> Self {
        self.relu_after_conv = yes;
        self
    }

    /// Selects the conv kernel policy for blocked convolutions (default
    /// [`KernelPolicy::Auto`]: im2col+GEMM wherever the patch matrix pays
    /// for itself, the direct loop for degenerate single-tap layers).
    ///
    /// **Note:** convenience delegating to [`PlanSpec::kernel`]; prefer
    /// [`planner`](Self::planner) for new code.
    pub fn kernel(mut self, policy: KernelPolicy) -> Self {
        self.spec.kernel = policy;
        self
    }

    /// Calibration inputs for the quantized backend's post-training range
    /// calibration (ignored by the float backends). When unset, the build
    /// synthesises [`DEFAULT_CALIBRATION_BATCHES`] seeded uniform batches
    /// over the network's input shape — deterministic, like weight binding,
    /// but real data gives real activation ranges.
    pub fn calibration(mut self, inputs: Vec<Tensor>) -> Self {
        self.calibration = Some(inputs);
        self
    }

    /// Compiles the session: lowers the descriptor to a [`Graph`], plans
    /// fusion groups, and builds the selected executor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when no network was given, the descriptor
    /// fails to lower, or planning fails.
    pub fn build(self) -> Result<Session, TensorError> {
        let net = self
            .network
            .ok_or_else(|| TensorError::invalid("SessionBuilder::network is required"))?;
        let mut spec = self.spec;
        if spec.cost_model.is_some() && spec.budget_elems.is_some() {
            return Err(TensorError::invalid(
                "SessionBuilder::cost_model and ::on_chip_budget are mutually exclusive; \
                 encode the budget in the model (e.g. ElementBudget::with_budget)",
            ));
        }
        let lower_opts =
            LowerOptions { seed: self.seed.unwrap_or(2018), relu_after_conv: self.relu_after_conv };
        let graph = Arc::new(Graph::lower(&net, &lower_opts)?);

        let mut provenance = PlanProvenance::Fresh;
        if spec.tuned {
            let topts = TuneOptions {
                seed: lower_opts.seed,
                relu_after_conv: self.relu_after_conv,
                cache_dir: spec.cache_dir.clone(),
                ..TuneOptions::default()
            };
            let cached = spec.cache_dir.as_ref().and_then(|d| {
                tune::load_cached_winner(d, &graph, lower_opts.seed, &topts.platform, topts.npe)
            });
            let (winner, key) = match cached {
                Some(hit) => hit,
                None => {
                    let report = tune::tune_lowered(&graph, &topts)?;
                    if let Some(dir) = spec.cache_dir.as_ref() {
                        tune::store_winner(dir, &report.key, &report.winner);
                    }
                    (report.winner, report.key)
                }
            };
            // The winner only fills knobs the caller left at their
            // defaults — an explicit pattern/model/kernel choice
            // on the builder always wins over the tuner.
            if spec.pattern.is_none() {
                spec.pattern = Some(winner.pattern);
            }
            if spec.cost_model.is_none() && spec.budget_elems.is_none() {
                spec.cost_model =
                    Some(Arc::new(winner.cost_model(topts.platform.clone(), topts.npe)));
            }
            if spec.kernel == KernelPolicy::default() {
                spec.kernel = winner.kernel;
            }
            provenance = PlanProvenance::TuneSelected { key };
        }

        let pattern = spec.pattern.unwrap_or(BlockingPattern::hierarchical(2));
        let kernel = spec.kernel;
        let pad = spec.pad;
        let planner_opts = PlannerOptions {
            pattern,
            plan: spec.network_plan.clone(),
            pad_mode: pad,
            budget_elems: spec.budget_elems,
            kernel,
            cost_model: spec.cost_model.clone(),
        };
        let planner = Planner::new(planner_opts);
        let cache = spec.cache_dir.as_ref().map(|d| PlanCache::new(d.clone()));
        let key = cache.as_ref().map(|_| {
            PlanKey::for_build(
                &graph,
                lower_opts.seed,
                pattern,
                spec.network_plan.as_ref(),
                self.backend,
                planner.cost_model(),
                kernel,
                pad,
            )
        });
        let (exec_plan, executor): (Arc<ExecPlan>, Arc<dyn Executor>) = match self.backend {
            Backend::Reference => {
                let plan = plan_or_load(
                    cache.as_ref(),
                    key.as_ref(),
                    &planner,
                    &graph,
                    pad,
                    kernel,
                    None,
                    provenance,
                )?;
                (plan, Arc::new(ReferenceExecutor::new(Arc::clone(&graph))))
            }
            Backend::Blocked => {
                let plan = plan_or_load(
                    cache.as_ref(),
                    key.as_ref(),
                    &planner,
                    &graph,
                    pad,
                    kernel,
                    None,
                    provenance,
                )?;
                let exec = BlockedExecutor::new(Arc::clone(&graph), Arc::clone(&plan));
                (plan, Arc::new(exec))
            }
            Backend::Quantized { weight_bits, act_bits } => {
                // Calibration always runs — a cached plan pins the fusion
                // decisions, not the activation ranges.
                let inputs = match self.calibration {
                    Some(inputs) => inputs,
                    None => default_calibration(&graph, lower_opts.seed),
                };
                let qspec =
                    Arc::new(GraphQuantSpec::calibrate(&graph, &inputs, weight_bits, act_bits)?);
                let plan = plan_or_load(
                    cache.as_ref(),
                    key.as_ref(),
                    &planner,
                    &graph,
                    pad,
                    kernel,
                    Some(&qspec),
                    provenance,
                )?;
                let exec =
                    QuantizedExecutor::new(Arc::clone(&graph), Arc::clone(&plan), qspec, kernel)?;
                (plan, Arc::new(exec))
            }
        };
        Ok(Session { graph, exec_plan, backend: self.backend, kernel, executor })
    }
}

/// A compiled, executable network.
///
/// The executor behind a session is immutable and `Send + Sync`: `run`
/// takes `&self`, so one session can serve concurrent callers directly,
/// or be turned into a worker-pool serving engine with
/// [`into_engine`](Session::into_engine).
pub struct Session {
    graph: Arc<Graph>,
    exec_plan: Arc<ExecPlan>,
    backend: Backend,
    kernel: KernelPolicy,
    executor: Arc<dyn Executor>,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Runs the network on `input` (NCHW, any batch size).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on input-shape mismatch or operator failure.
    pub fn run(&self, input: &Tensor) -> Result<RunReport, TensorError> {
        self.executor.run(input)
    }

    /// [`run`](Session::run) reusing caller-owned scratch buffers across
    /// requests: outputs are bitwise-identical, but a warm scratch makes
    /// steady-state execution allocation-free apart from the output
    /// tensor returned in the [`RunReport`]. One scratch serves one
    /// caller at a time — clone nothing, just keep it between calls.
    ///
    /// # Errors
    ///
    /// See [`run`](Session::run).
    pub fn run_with(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        self.executor.run_scratch(input, scratch)
    }

    /// Consumes the session and spins up a [`ServeEngine`]: a pool of
    /// worker threads sharing this session's compiled executor, each with
    /// its own reusable [`ExecScratch`], behind a bounded request queue
    /// with ticketed (`submit`/`wait`) and batched (`run_batch`) entry
    /// points. See [`crate::serve`] for the serving semantics.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `config` is invalid
    /// (zero workers, queue depth, or batch size).
    pub fn into_engine(self, config: ServeConfig) -> Result<ServeEngine, TensorError> {
        ServeEngine::new(self, config)
    }

    /// Consumes the session and builds a [`Router`]: `replicas` serving
    /// engines, each configured with `config`, sharing this session's
    /// graph, plan, executor (and, for the quantized backend, its one
    /// calibration pass) through [`fork`](Session::fork). See
    /// [`crate::serve::router`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `replicas` is zero or
    /// `config` is invalid.
    pub fn into_router(self, replicas: usize, config: ServeConfig) -> Result<Router, TensorError> {
        Router::new(self, replicas, config)
    }

    /// A second handle to the same compiled session: the fork shares the
    /// lowered graph, the fusion plan, and the executor (including conv
    /// weights — `Arc<Conv2d>` everywhere — and the quantized backend's
    /// calibrated spec) with `self` by reference count, so forking is a
    /// few atomic increments. Nothing is re-lowered, re-planned, or
    /// re-calibrated. This is how [`Router`] stamps out engine replicas
    /// from one build.
    pub fn fork(&self) -> Session {
        Session {
            graph: Arc::clone(&self.graph),
            exec_plan: Arc::clone(&self.exec_plan),
            backend: self.backend,
            kernel: self.kernel,
            executor: Arc::clone(&self.executor),
        }
    }

    /// The shared executor and graph, for the serving engine.
    pub(crate) fn shared_parts(&self) -> (Arc<Graph>, Arc<dyn Executor>) {
        (Arc::clone(&self.graph), Arc::clone(&self.executor))
    }

    /// Test hook: swap the compiled executor (e.g. for one that panics on
    /// a marker input) so serve-layer failure paths can be driven
    /// deterministically.
    #[cfg(test)]
    pub(crate) fn swap_executor(&mut self, executor: Arc<dyn Executor>) {
        self.executor = executor;
    }

    /// The lowered graph (weights bound).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The compiled fusion plan (what the blocked backend executes).
    pub fn plan(&self) -> &ExecPlan {
        &self.exec_plan
    }

    /// The shared plan handle itself — [`fork`](Session::fork)s and
    /// [`Router`] replicas hold clones of this `Arc`, so plan identity
    /// across handles is checkable with [`Arc::ptr_eq`].
    pub fn plan_handle(&self) -> &Arc<ExecPlan> {
        &self.exec_plan
    }

    /// The selected backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The conv kernel policy the session was compiled under.
    pub fn kernel(&self) -> KernelPolicy {
        self.kernel
    }

    /// Resolved convolution kernel per conv node, in execution order, as
    /// `(layer name, kernel name)` pairs. Fused and spliced convolutions
    /// report the kernel their compiled chain carries; whole-map singles
    /// report what the executor dispatches — the session policy's
    /// resolution for quantized convs, the direct loop for float ones.
    pub fn conv_kernels(&self) -> Vec<(String, &'static str)> {
        let nodes = self.graph.nodes();
        let conv_names = |ids: &[crate::ir::NodeId]| -> Vec<String> {
            ids.iter()
                .filter(|id| matches!(nodes[**id].op, NodeOp::Conv { .. }))
                .map(|id| nodes[*id].name.clone())
                .collect()
        };
        let mut out = Vec::new();
        for seg in self.exec_plan.segments() {
            match seg {
                Segment::Fused { nodes: ids, chain, .. } => {
                    out.extend(
                        conv_names(ids).into_iter().zip(chain.convs().map(|b| b.kernel().name())),
                    );
                }
                Segment::Spliced { nodes: ids, pipeline, .. } => {
                    let kinds =
                        pipeline.groups().iter().flat_map(|g| g.convs()).map(|b| b.kernel().name());
                    out.extend(conv_names(ids).into_iter().zip(kinds));
                }
                Segment::Single(id) => {
                    if let NodeOp::Conv { conv, .. } = &nodes[*id].op {
                        let kind = match self.backend {
                            Backend::Quantized { .. } => self.kernel.resolve(conv),
                            _ => bconv_tensor::kernel::KernelKind::Direct,
                        };
                        out.push((nodes[*id].name.clone(), kind.name()));
                    }
                }
            }
        }
        out
    }

    /// Human-readable summary of what this session will execute. The
    /// reference backend ignores the fused plan, so its description says
    /// so rather than listing segments it won't run.
    pub fn describe(&self) -> String {
        match self.backend {
            Backend::Reference => format!(
                "{} on reference backend: dense layer-wise over {} nodes (fused plan unused)\n",
                self.graph.name(),
                self.graph.nodes().len(),
            ),
            Backend::Blocked => format!(
                "{} on blocked backend: {} segments, {} fusion groups, blocking ratio {:.0}%\n{}",
                self.graph.name(),
                self.exec_plan.segments().len(),
                self.exec_plan.fusion_groups(),
                self.exec_plan.blocking_ratio() * 100.0,
                self.exec_plan.describe(&self.graph),
            ),
            Backend::Quantized { weight_bits, act_bits } => format!(
                "{} on quantized backend (w{weight_bits}a{act_bits}): {} segments, {} fusion \
                 groups, blocking ratio {:.0}%\n{}",
                self.graph.name(),
                self.exec_plan.segments().len(),
                self.exec_plan.fusion_groups(),
                self.exec_plan.blocking_ratio() * 100.0,
                self.exec_plan.describe(&self.graph),
            ),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("network", &self.graph.name())
            .field("backend", &self.backend)
            .field("segments", &self.exec_plan.segments().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_models::small::vgg16_small;

    #[test]
    fn builder_requires_a_network() {
        assert!(Session::builder().build().is_err());
    }

    #[test]
    fn default_backend_is_blocked() {
        let s = Session::builder().network(vgg16_small(32)).build().unwrap();
        assert_eq!(s.backend(), Backend::Blocked);
        assert!(s.plan().fusion_groups() > 0);
    }

    #[test]
    fn run_rejects_wrong_input_shape() {
        let s = Session::builder().network(vgg16_small(32)).build().unwrap();
        assert!(s.run(&Tensor::zeros([1, 3, 16, 16])).is_err());
    }

    #[test]
    fn describe_mentions_backend_and_groups() {
        let s = Session::builder().network(vgg16_small(32)).build().unwrap();
        let d = s.describe();
        assert!(d.contains("blocked"), "{d}");
        assert!(d.contains("fusion groups"), "{d}");
    }

    #[test]
    fn quantized_backend_builds_and_describes_bitwidths() {
        let s = Session::builder()
            .network(vgg16_small(32))
            .backend(Backend::Quantized { weight_bits: 8, act_bits: 8 })
            .build()
            .unwrap();
        assert_eq!(s.backend(), Backend::Quantized { weight_bits: 8, act_bits: 8 });
        assert!(s.plan().fusion_groups() > 0, "quantized plan keeps the fused structure");
        let d = s.describe();
        assert!(d.contains("quantized") && d.contains("w8a8"), "{d}");
        let report = s.run(&Tensor::filled([1, 3, 32, 32], 0.5)).unwrap();
        assert_eq!(report.output.shape().dims(), [1, 10, 1, 1]);
        assert_eq!(report.stats.bits_per_elem, 8);
    }

    #[test]
    fn quantized_backend_rejects_bad_bitwidths() {
        for (w, a) in [(1, 8), (8, 32), (0, 0)] {
            let r = Session::builder()
                .network(vgg16_small(32))
                .backend(Backend::Quantized { weight_bits: w, act_bits: a })
                .build();
            assert!(r.is_err(), "w{w}a{a} should be rejected");
        }
    }

    #[test]
    fn quantized_backend_accepts_explicit_calibration_data() {
        let cal: Vec<Tensor> = (0..2).map(|i| Tensor::filled([1, 3, 32, 32], i as f32)).collect();
        let s = Session::builder()
            .network(vgg16_small(32))
            .backend(Backend::Quantized { weight_bits: 8, act_bits: 8 })
            .calibration(cal)
            .build()
            .unwrap();
        assert!(s.run(&Tensor::filled([1, 3, 32, 32], 0.5)).is_ok());
        // An empty calibration set is an error, not a silent default.
        let r = Session::builder()
            .network(vgg16_small(32))
            .backend(Backend::Quantized { weight_bits: 8, act_bits: 8 })
            .calibration(Vec::new())
            .build();
        assert!(r.is_err());
    }
}
