//! Plan compilation cache: serialize a compiled [`ExecPlan`] once, pin it
//! on disk, and rebuild it on the next process start without re-running
//! the planner walk.
//!
//! The serialized form stores the plan's *decisions* — segment node
//! lists, each fused group's input [`BlockGrid`] — not its solved block
//! convolutions. Loading re-solves Equation 2 per stored grid through
//! [`BlockConv2d::plan_with_kernel`] and reassembles chains with
//! [`FusedChain::from_planned`] (on the integer path against the session's
//! freshly calibrated spec for quantized sessions), through the same
//! helper the planner's own `finalize` calls — so a cache-loaded session
//! executes bitwise identically to a freshly planned one, while skipping
//! the planner walk entirely (asserted via [`crate::plan::planner_invocations`]).
//!
//! Entries are keyed by [`PlanKey`]: network content hash × blocking
//! pattern × backend × cost-model parameters × kernel policy × pad mode ×
//! host fingerprint. A stale or foreign entry under the same file name is
//! rejected with [`PlanCacheError::KeyMismatch`] and the session falls
//! back to fresh planning — a cache can corrupt start-up *time*, never
//! results.
//!
//! The codec is a hand-rolled recursive-descent JSON reader and a
//! string-builder writer (the same offline idiom as `bconv_bench`'s
//! `check` module): no serde, objects as ordered `Vec<(String, Json)>`
//! pairs, every malformed byte a typed error rather than a panic.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::fusion::{FusedChain, FusedPipeline, PlannedOp};
use bconv_core::plan::{LayerBlocking, NetworkPlan};
use bconv_core::BlockConv2d;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;

use crate::cost::CostModel;
use crate::ir::{Graph, NodeId, NodeOp, NodeRef};
use crate::plan::{assemble_chain, ExecPlan, PlanProvenance, PlanReport, Segment, SpliceReport};
use crate::quantize::GraphQuantSpec;
use crate::session::Backend;

/// Serialized-plan schema version; bumped when the layout changes so old
/// entries are rejected as [`PlanCacheError::Incompatible`], not
/// misparsed.
const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Minimal JSON value + parser (offline codec, no serde)
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order as key/value pairs —
/// plan files are small and written by this module, so linear key lookup
/// beats pulling in a map type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (plan files only use integers, parsed through f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, rejecting fractions.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
            return None;
        }
        Some(n as u64)
    }

    pub(crate) fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. Plan files nest
/// about six levels deep; the limit keeps a corrupt file from exhausting
/// the stack of the recursive parser.
const MAX_JSON_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing garbage and nesting
/// deeper than [`MAX_JSON_DEPTH`].
pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let (value, mut pos) = parse_value(bytes, 0, 0)?;
    pos = skip_ws(bytes, pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], mut pos: usize) -> usize {
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

fn parse_value(bytes: &[u8], pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let pos = skip_ws(bytes, pos);
    if matches!(bytes.get(pos), Some(b'{' | b'[')) && depth >= MAX_JSON_DEPTH {
        return Err(format!("nesting deeper than {MAX_JSON_DEPTH} at offset {pos}"));
    }
    match bytes.get(pos) {
        Some(b'{') => parse_object(bytes, pos + 1, depth + 1),
        Some(b'[') => parse_array(bytes, pos + 1, depth + 1),
        Some(b'"') => {
            let (s, next) = parse_string(bytes, pos + 1)?;
            Ok((Json::Str(s), next))
        }
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(bytes: &[u8], pos: usize, lit: &str, value: Json) -> Result<(Json, usize), String> {
    let end = pos + lit.len();
    if bytes.get(pos..end) == Some(lit.as_bytes()) {
        Ok((value, end))
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: usize) -> Result<(Json, usize), String> {
    let mut end = pos;
    while matches!(bytes.get(end), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
        end += 1;
    }
    let text = bytes
        .get(pos..end)
        .and_then(|s| std::str::from_utf8(s).ok())
        .ok_or_else(|| format!("invalid number at offset {pos}"))?;
    let n: f64 = text.parse().map_err(|_| format!("invalid number {text:?} at offset {pos}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number at offset {pos}"));
    }
    Ok((Json::Num(n), end))
}

fn parse_string(bytes: &[u8], mut pos: usize) -> Result<(String, usize), String> {
    let mut out = String::new();
    loop {
        match bytes.get(pos) {
            Some(b'"') => return Ok((out, pos + 1)),
            Some(b'\\') => {
                match bytes.get(pos + 1) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    other => {
                        return Err(format!("unsupported escape {other:?} at offset {pos}"));
                    }
                }
                pos += 2;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole scalar.
                let tail = bytes.get(pos..).unwrap_or_default();
                let s = std::str::from_utf8(tail)
                    .map_err(|_| format!("invalid utf-8 at offset {pos}"))?;
                let ch = s.chars().next().ok_or_else(|| "truncated string".to_string())?;
                out.push(ch);
                pos += ch.len_utf8();
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(bytes: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let mut items = Vec::new();
    pos = skip_ws(bytes, pos);
    if bytes.get(pos) == Some(&b']') {
        return Ok((Json::Arr(items), pos + 1));
    }
    loop {
        let (value, next) = parse_value(bytes, pos, depth)?;
        items.push(value);
        pos = skip_ws(bytes, next);
        match bytes.get(pos) {
            Some(b',') => pos = skip_ws(bytes, pos + 1),
            Some(b']') => return Ok((Json::Arr(items), pos + 1)),
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let mut pairs = Vec::new();
    pos = skip_ws(bytes, pos);
    if bytes.get(pos) == Some(&b'}') {
        return Ok((Json::Obj(pairs), pos + 1));
    }
    loop {
        pos = skip_ws(bytes, pos);
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let (key, next) = parse_string(bytes, pos + 1)?;
        pos = skip_ws(bytes, next);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        let (value, next) = parse_value(bytes, pos + 1, depth)?;
        pairs.push((key, value));
        pos = skip_ws(bytes, next);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok((Json::Obj(pairs), pos + 1)),
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Plan keys
// ---------------------------------------------------------------------

/// FNV-1a over a byte string — the stable, dependency-free hash behind
/// network content hashes and cache file names.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// This host's planning-relevant fingerprint: the same
/// available-parallelism probe `bench_check` gates timing comparisons on.
/// Thread count feeds the tuner's search space, so plans pinned on one
/// host class never silently serve another.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("cores{cores}")
}

/// Content hash of a lowered graph: structure, shapes, conv geometry and
/// the weight-binding seed. Weights are derived deterministically from
/// `(structure, seed)`, so two graphs with equal hashes carry equal
/// parameters.
pub fn graph_content_hash(graph: &Graph, seed: u64) -> u64 {
    let mut desc = String::new();
    desc.push_str(graph.name());
    let s = graph.input_shape();
    desc.push_str(&format!("|in{}x{}x{}|seed{seed}", s.c, s.h, s.w));
    for node in graph.nodes() {
        desc.push('|');
        desc.push_str(&node.name);
        desc.push(':');
        desc.push_str(node.op.mnemonic());
        desc.push_str(&format!(
            ":{}x{}x{}>{}x{}x{}",
            node.in_shape.c,
            node.in_shape.h,
            node.in_shape.w,
            node.out_shape.c,
            node.out_shape.h,
            node.out_shape.w
        ));
        match &node.op {
            NodeOp::Conv { conv, conv_ordinal } => {
                let g = conv.geom();
                desc.push_str(&format!(
                    ":o{conv_ordinal}k{}s{}p{}g{}c{}>{}",
                    g.kernel,
                    g.stride,
                    g.padding,
                    conv.groups(),
                    conv.c_in(),
                    conv.c_out()
                ));
            }
            NodeOp::MaxPool { k, s, p } => desc.push_str(&format!(":k{k}s{s}p{p}")),
            NodeOp::Upsample { factor } => desc.push_str(&format!(":f{factor}")),
            NodeOp::Add { other } => desc.push_str(&format!(":{other:?}")),
            _ => {}
        }
    }
    fnv1a(desc.as_bytes())
}

/// Stable identity string for an explicit [`NetworkPlan`] (the
/// per-conv-layer blocking decisions), or the resolution-rule marker when
/// the planner derives decisions itself.
pub fn network_plan_key(plan: Option<&NetworkPlan>) -> String {
    match plan {
        None => "resolution-rule".to_string(),
        Some(p) => {
            let mut out = String::from("explicit:");
            for d in p.per_layer() {
                match d {
                    LayerBlocking::Normal => out.push('N'),
                    LayerBlocking::Blocked(pat) => out.push_str(&format!("B({pat})")),
                }
                out.push(',');
            }
            out
        }
    }
}

/// Stable identity string for a [`Backend`].
pub fn backend_key(backend: Backend) -> String {
    match backend {
        Backend::Reference => "reference".to_string(),
        Backend::Blocked => "blocked".to_string(),
        Backend::Quantized { weight_bits, act_bits } => {
            format!("quantized_w{weight_bits}a{act_bits}")
        }
    }
}

/// Everything that must match for a pinned plan to be reusable: the
/// network's content hash, the blocking pattern, the explicit network
/// plan (if any), the backend, the cost model's parameters, the kernel
/// policy, the pad mode, and the host fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    /// Network name (informational; the hash is the identity).
    pub network: String,
    /// [`graph_content_hash`] of the lowered graph + seed.
    pub net_hash: u64,
    /// Blocking pattern, in its `Display` form (`F28`, `H2x2`).
    pub pattern: String,
    /// [`network_plan_key`] of the explicit per-layer decisions.
    pub plan: String,
    /// [`backend_key`] of the session backend.
    pub backend: String,
    /// [`CostModel::cache_param_key`] of the effective cost model.
    pub cost_model: String,
    /// Kernel policy name (`auto` / `direct` / `im2col-gemm`).
    pub kernel: String,
    /// Pad mode name (`zero` / `replicate` / `reflect`).
    pub pad: String,
    /// [`host_fingerprint`] of the planning host.
    pub host: String,
}

impl PlanKey {
    /// Assembles the key for a session build.
    #[allow(clippy::too_many_arguments)]
    pub fn for_build(
        graph: &Graph,
        seed: u64,
        pattern: BlockingPattern,
        plan: Option<&NetworkPlan>,
        backend: Backend,
        cost_model: &dyn CostModel,
        kernel: KernelPolicy,
        pad: PadMode,
    ) -> Self {
        Self {
            network: graph.name().to_string(),
            net_hash: graph_content_hash(graph, seed),
            pattern: pattern.to_string(),
            plan: network_plan_key(plan),
            backend: backend_key(backend),
            cost_model: cost_model.cache_param_key(),
            kernel: kernel.name().to_string(),
            pad: pad.name().to_string(),
            host: host_fingerprint(),
        }
    }

    /// The canonical one-line form stored inside (and checked against)
    /// every cache entry.
    pub fn canonical(&self) -> String {
        format!(
            "{}|{:016x}|{}|{}|{}|{}|{}|{}|{}",
            self.network,
            self.net_hash,
            self.pattern,
            self.plan,
            self.backend,
            self.cost_model,
            self.kernel,
            self.pad,
            self.host
        )
    }

    /// Cache file stem: an FNV-1a digest of the canonical form, so every
    /// distinct key maps to its own file and collisions surface as
    /// [`PlanCacheError::KeyMismatch`] on the stored canonical string.
    pub fn file_stem(&self) -> String {
        format!("plan-{:016x}", fnv1a(self.canonical().as_bytes()))
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a cache entry could not be used. Every variant is a *soft*
/// failure: the session build falls back to fresh planning and may
/// overwrite the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanCacheError {
    /// The entry does not exist or could not be read/written.
    Io(String),
    /// The file exists but is not a well-formed plan document.
    Parse(String),
    /// The file parses but was pinned under a different key (stale
    /// weights, other host, other cost model, hash collision).
    KeyMismatch {
        /// The key this build requires.
        expected: String,
        /// The key the entry was stored under.
        found: String,
    },
    /// The entry's decisions no longer rebuild against this graph (e.g.
    /// node ids out of range, grids that fail Equation 2).
    Incompatible(String),
}

impl std::fmt::Display for PlanCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(msg) => write!(f, "plan cache io: {msg}"),
            Self::Parse(msg) => write!(f, "plan cache parse: {msg}"),
            Self::KeyMismatch { expected, found } => {
                write!(f, "plan cache key mismatch: expected {expected}, found {found}")
            }
            Self::Incompatible(msg) => write!(f, "plan cache incompatible: {msg}"),
        }
    }
}

impl std::error::Error for PlanCacheError {}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// An on-disk store of pinned plans, one JSON file per [`PlanKey`].
#[derive(Debug, Clone)]
pub struct PlanCache {
    dir: PathBuf,
}

impl PlanCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    pub fn path_for(&self, key: &PlanKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.file_stem()))
    }

    /// Loads and rebuilds the pinned plan for `key`, re-solving block
    /// plans against `graph` under `pad`/`kernel` (and, for quantized
    /// sessions, the freshly calibrated `quant` spec). On success the
    /// plan's provenance is [`PlanProvenance::CacheLoaded`].
    ///
    /// # Errors
    ///
    /// Any [`PlanCacheError`]; all are soft — callers fall back to fresh
    /// planning.
    pub fn load(
        &self,
        key: &PlanKey,
        graph: &Graph,
        pad: PadMode,
        kernel: KernelPolicy,
        quant: Option<&GraphQuantSpec>,
    ) -> Result<ExecPlan, PlanCacheError> {
        let path = self.path_for(key);
        let text = std::fs::read_to_string(&path).map_err(|e| PlanCacheError::Io(e.to_string()))?;
        let doc = parse_json(&text).map_err(PlanCacheError::Parse)?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| PlanCacheError::Parse("missing version".to_string()))?;
        if version != SCHEMA_VERSION {
            return Err(PlanCacheError::Incompatible(format!(
                "schema version {version}, expected {SCHEMA_VERSION}"
            )));
        }
        let found = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| PlanCacheError::Parse("missing key".to_string()))?;
        let expected = key.canonical();
        if found != expected {
            return Err(PlanCacheError::KeyMismatch { expected, found: found.to_string() });
        }
        rebuild_plan(&doc, key, graph, pad, kernel, quant)
    }

    /// Serializes `plan` under `key`, creating the cache directory if
    /// needed.
    ///
    /// # Errors
    ///
    /// [`PlanCacheError::Io`] when the directory or file cannot be
    /// written. Callers treat a failed store as a missed optimisation,
    /// not a build failure.
    pub fn store(&self, key: &PlanKey, plan: &ExecPlan) -> Result<(), PlanCacheError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| PlanCacheError::Io(e.to_string()))?;
        let text = serialize_plan(key, plan);
        std::fs::write(self.path_for(key), text).map_err(|e| PlanCacheError::Io(e.to_string()))
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

fn grid_json(grid: &BlockGrid) -> String {
    let segs = |pairs: &[(usize, usize)]| -> String {
        let items: Vec<String> =
            pairs.iter().map(|(start, size)| format!("[{start},{size}]")).collect();
        format!("[{}]", items.join(","))
    };
    format!(
        "{{\"h\":{},\"w\":{},\"rows\":{},\"cols\":{}}}",
        grid.h(),
        grid.w(),
        segs(grid.row_segments()),
        segs(grid.col_segments())
    )
}

fn nodes_json(nodes: &[NodeId]) -> String {
    let items: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Serializes a compiled plan (with its key) to the cache document form.
pub fn serialize_plan(key: &PlanKey, plan: &ExecPlan) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"key\": \"{}\",\n", escape_json(&key.canonical())));
    let pattern = match plan.pattern() {
        BlockingPattern::Fixed { th, tw } => {
            format!("{{\"kind\":\"fixed\",\"th\":{th},\"tw\":{tw}}}")
        }
        BlockingPattern::Hierarchical { gh, gw } => {
            format!("{{\"kind\":\"hierarchical\",\"gh\":{gh},\"gw\":{gw}}}")
        }
    };
    out.push_str(&format!("  \"pattern\": {pattern},\n"));
    match plan.act_bits() {
        Some(bits) => out.push_str(&format!("  \"act_bits\": {bits},\n")),
        None => out.push_str("  \"act_bits\": null,\n"),
    }
    out.push_str(&format!("  \"blocked_convs\": {},\n", plan.blocked_convs()));
    out.push_str(&format!("  \"total_convs\": {},\n", plan.total_convs()));
    let report = plan.report();
    let cuts: Vec<String> = report.cost_cuts.iter().map(|n| n.to_string()).collect();
    let splices: Vec<String> = report
        .splices
        .iter()
        .map(|s| {
            format!(
                "{{\"from\":{},\"to\":{},\"saved\":{}}}",
                s.from_node, s.to_node, s.saved_offchip_elems
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"report\": {{\"cost_model\":\"{}\",\"cost_cuts\":[{}],\"splices\":[{}]}},\n",
        escape_json(&report.cost_model),
        cuts.join(","),
        splices.join(",")
    ));
    out.push_str("  \"segments\": [\n");
    let seg_lines: Vec<String> = plan
        .segments()
        .iter()
        .map(|seg| match seg {
            Segment::Single(id) => format!("    {{\"kind\":\"single\",\"node\":{id}}}"),
            Segment::Fused { nodes, chain, .. } => format!(
                "    {{\"kind\":\"fused\",\"nodes\":{},\"grid\":{}}}",
                nodes_json(nodes),
                grid_json(chain.in_grid())
            ),
            Segment::Spliced { nodes, pipeline, .. } => {
                let groups: Vec<String> = pipeline
                    .groups()
                    .iter()
                    .map(|g| format!("{{\"len\":{},\"grid\":{}}}", g.len(), grid_json(g.in_grid())))
                    .collect();
                format!(
                    "    {{\"kind\":\"spliced\",\"nodes\":{},\"groups\":[{}]}}",
                    nodes_json(nodes),
                    groups.join(",")
                )
            }
        })
        .collect();
    out.push_str(&seg_lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Rebuild (deserialization)
// ---------------------------------------------------------------------

fn parse_grid(value: &Json) -> Result<BlockGrid, PlanCacheError> {
    let field = |name: &str| -> Result<usize, PlanCacheError> {
        value
            .get(name)
            .and_then(Json::as_usize)
            .ok_or_else(|| PlanCacheError::Parse(format!("grid missing {name}")))
    };
    let segs = |name: &str| -> Result<Vec<(usize, usize)>, PlanCacheError> {
        let arr = value
            .get(name)
            .and_then(Json::as_arr)
            .ok_or_else(|| PlanCacheError::Parse(format!("grid missing {name}")))?;
        arr.iter()
            .map(|pair| {
                let items = pair
                    .as_arr()
                    .ok_or_else(|| PlanCacheError::Parse("grid segment not a pair".into()))?;
                match items {
                    [a, b] => match (a.as_usize(), b.as_usize()) {
                        (Some(start), Some(size)) => Ok((start, size)),
                        _ => Err(PlanCacheError::Parse("grid segment not integers".into())),
                    },
                    _ => Err(PlanCacheError::Parse("grid segment not a pair".into())),
                }
            })
            .collect()
    };
    BlockGrid::from_segments(field("h")?, field("w")?, segs("rows")?, segs("cols")?)
        .map_err(|e| PlanCacheError::Incompatible(format!("stored grid invalid: {e}")))
}

fn parse_nodes(value: &Json) -> Result<Vec<NodeId>, PlanCacheError> {
    let arr = value
        .get("nodes")
        .and_then(Json::as_arr)
        .ok_or_else(|| PlanCacheError::Parse("segment missing nodes".to_string()))?;
    arr.iter()
        .map(|n| {
            n.as_usize().ok_or_else(|| PlanCacheError::Parse("node id not an integer".to_string()))
        })
        .collect()
}

/// Re-solves the planned ops of one fused group from its stored node list
/// and input grid — the same [`BlockConv2d::plan_with_kernel`] calls the
/// planner's trial walk made, in the same order, so the rebuilt chain is
/// bit-identical. Returns the ops and the number of blocked convs.
///
/// The stored grid must tile the first node's input, and each node must
/// be the sole consumer of the one before it — within the group, and of
/// `joins` (the upstream group's last node) in a spliced pipeline — as
/// the planner's walk requires.
fn rebuild_ops(
    graph: &Graph,
    nodes: &[NodeId],
    joins: Option<NodeId>,
    start: &BlockGrid,
    pad: PadMode,
    kernel: KernelPolicy,
) -> Result<(Vec<PlannedOp>, usize), PlanCacheError> {
    let mut cur = start.clone();
    let mut ops = Vec::with_capacity(nodes.len());
    let mut convs = 0usize;
    let mut prev = joins;
    for (i, &id) in nodes.iter().enumerate() {
        let node = graph
            .nodes()
            .get(id)
            .ok_or_else(|| PlanCacheError::Incompatible(format!("node {id} out of range")))?;
        let fits = i > 0 || (node.in_shape.h, node.in_shape.w) == (start.h(), start.w());
        let wired =
            prev.is_none_or(|p| node.input == NodeRef::Node(p) && graph.consumer_count(p) == 1);
        if !(fits && wired) {
            return Err(PlanCacheError::Incompatible(format!(
                "node {id} does not continue its fused group"
            )));
        }
        prev = Some(id);
        match &node.op {
            NodeOp::Conv { conv, .. } => {
                let bconv =
                    BlockConv2d::plan_with_kernel(Arc::clone(conv), cur.clone(), pad, kernel)
                        .map_err(|e| {
                            PlanCacheError::Incompatible(format!("node {id} unplannable: {e}"))
                        })?;
                cur = bconv.output_grid().map_err(|e| {
                    PlanCacheError::Incompatible(format!("node {id} output grid: {e}"))
                })?;
                ops.push(PlannedOp::Conv(bconv));
                convs += 1;
            }
            NodeOp::Relu => ops.push(PlannedOp::Relu),
            NodeOp::MaxPool { k, s, p } if k == s && *p == 0 => {
                cur = cur.downscale(*k).map_err(|e| {
                    PlanCacheError::Incompatible(format!("node {id} pool grid: {e}"))
                })?;
                ops.push(PlannedOp::MaxPool { k: *k });
            }
            op => {
                return Err(PlanCacheError::Incompatible(format!(
                    "node {id} ({}) cannot appear in a fused group",
                    op.mnemonic()
                )));
            }
        }
    }
    Ok((ops, convs))
}

/// Builds one fused group's chain from rebuilt ops through the planner's
/// own [`assemble_chain`], on the float or quantized path to match the
/// session backend.
fn rebuild_chain(
    graph: &Graph,
    nodes: &[NodeId],
    ops: Vec<PlannedOp>,
    start: BlockGrid,
    quant: Option<&GraphQuantSpec>,
) -> Result<FusedChain, PlanCacheError> {
    assemble_chain(graph, nodes, ops, start, quant)
        .map_err(|e| PlanCacheError::Incompatible(format!("chain rebuild: {e}")))
}

/// Input reference of a segment's first node, read from the graph (the
/// graph is the authority on wiring; the file only stores decisions).
fn segment_input(graph: &Graph, first: NodeId) -> Result<NodeRef, PlanCacheError> {
    graph
        .nodes()
        .get(first)
        .map(|n| n.input)
        .ok_or_else(|| PlanCacheError::Incompatible(format!("node {first} out of range")))
}

fn rebuild_plan(
    doc: &Json,
    key: &PlanKey,
    graph: &Graph,
    pad: PadMode,
    kernel: KernelPolicy,
    quant: Option<&GraphQuantSpec>,
) -> Result<ExecPlan, PlanCacheError> {
    let stored_act_bits =
        match doc.get("act_bits") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.as_u64().and_then(|b| u8::try_from(b).ok()).ok_or_else(|| {
                PlanCacheError::Parse("act_bits not a small integer".to_string())
            })?),
        };
    let expected_act_bits = quant.map(|spec| spec.act_bits);
    if stored_act_bits != expected_act_bits {
        return Err(PlanCacheError::Incompatible(format!(
            "stored act_bits {stored_act_bits:?} but session expects {expected_act_bits:?}"
        )));
    }
    let pattern_doc =
        doc.get("pattern").ok_or_else(|| PlanCacheError::Parse("missing pattern".to_string()))?;
    let pfield = |name: &str| -> Result<usize, PlanCacheError> {
        pattern_doc
            .get(name)
            .and_then(Json::as_usize)
            .ok_or_else(|| PlanCacheError::Parse(format!("pattern missing {name}")))
    };
    let pattern = match pattern_doc.get("kind").and_then(Json::as_str) {
        Some("fixed") => BlockingPattern::Fixed { th: pfield("th")?, tw: pfield("tw")? },
        Some("hierarchical") => {
            BlockingPattern::Hierarchical { gh: pfield("gh")?, gw: pfield("gw")? }
        }
        _ => return Err(PlanCacheError::Parse("unknown pattern kind".to_string())),
    };

    let report_doc =
        doc.get("report").ok_or_else(|| PlanCacheError::Parse("missing report".to_string()))?;
    let cost_model = report_doc
        .get("cost_model")
        .and_then(Json::as_str)
        .ok_or_else(|| PlanCacheError::Parse("report missing cost_model".to_string()))?
        .to_string();
    let cost_cuts: Vec<NodeId> = report_doc
        .get("cost_cuts")
        .and_then(Json::as_arr)
        .ok_or_else(|| PlanCacheError::Parse("report missing cost_cuts".to_string()))?
        .iter()
        .map(|n| {
            n.as_usize().ok_or_else(|| PlanCacheError::Parse("cost cut not an integer".to_string()))
        })
        .collect::<Result<_, _>>()?;
    let splices: Vec<SpliceReport> = report_doc
        .get("splices")
        .and_then(Json::as_arr)
        .ok_or_else(|| PlanCacheError::Parse("report missing splices".to_string()))?
        .iter()
        .map(|s| {
            let field = |name: &str| -> Result<usize, PlanCacheError> {
                s.get(name)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| PlanCacheError::Parse(format!("splice missing {name}")))
            };
            Ok(SpliceReport {
                from_node: field("from")?,
                to_node: field("to")?,
                saved_offchip_elems: field("saved")?,
            })
        })
        .collect::<Result<_, _>>()?;

    let seg_docs = doc
        .get("segments")
        .and_then(Json::as_arr)
        .ok_or_else(|| PlanCacheError::Parse("missing segments".to_string()))?;
    let mut segments = Vec::with_capacity(seg_docs.len());
    let mut blocked_convs = 0usize;
    // Segments must list every graph node once, in graph order, as the
    // planner's walk emits them: a skipped or repeated node would run a
    // different network.
    let mut next_node = 0usize;
    let mut claim = |nodes: &[NodeId]| {
        for &id in nodes {
            if id != next_node {
                return Err(PlanCacheError::Incompatible(format!(
                    "segment lists node {id} where node {next_node} runs next"
                )));
            }
            next_node += 1;
        }
        Ok(())
    };
    for seg in seg_docs {
        match seg.get("kind").and_then(Json::as_str) {
            Some("single") => {
                let id = seg
                    .get("node")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| PlanCacheError::Parse("single missing node".to_string()))?;
                claim(&[id])?;
                segments.push(Segment::Single(id));
            }
            Some("fused") => {
                let nodes = parse_nodes(seg)?;
                claim(&nodes)?;
                let first = *nodes.first().ok_or_else(|| {
                    PlanCacheError::Parse("fused segment with no nodes".to_string())
                })?;
                let grid = parse_grid(seg.get("grid").ok_or_else(|| {
                    PlanCacheError::Parse("fused segment missing grid".to_string())
                })?)?;
                let (ops, convs) = rebuild_ops(graph, &nodes, None, &grid, pad, kernel)?;
                blocked_convs += convs;
                let chain = rebuild_chain(graph, &nodes, ops, grid, quant)?;
                let input = segment_input(graph, first)?;
                segments.push(Segment::Fused { nodes, chain, input });
            }
            Some("spliced") => {
                let nodes = parse_nodes(seg)?;
                claim(&nodes)?;
                let first = *nodes.first().ok_or_else(|| {
                    PlanCacheError::Parse("spliced segment with no nodes".to_string())
                })?;
                let group_docs = seg.get("groups").and_then(Json::as_arr).ok_or_else(|| {
                    PlanCacheError::Parse("spliced segment missing groups".to_string())
                })?;
                let mut cursor = 0usize;
                let mut groups = Vec::with_capacity(group_docs.len());
                for g in group_docs {
                    let len = g
                        .get("len")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| PlanCacheError::Parse("group missing len".to_string()))?;
                    let span = nodes.get(cursor..cursor + len).ok_or_else(|| {
                        PlanCacheError::Parse("group lengths exceed node list".to_string())
                    })?;
                    let joins = cursor.checked_sub(1).map(|last| nodes[last]);
                    cursor += len;
                    let grid =
                        parse_grid(g.get("grid").ok_or_else(|| {
                            PlanCacheError::Parse("group missing grid".to_string())
                        })?)?;
                    let (ops, convs) = rebuild_ops(graph, span, joins, &grid, pad, kernel)?;
                    blocked_convs += convs;
                    groups.push(rebuild_chain(graph, span, ops, grid, quant)?);
                }
                if cursor != nodes.len() {
                    return Err(PlanCacheError::Parse(
                        "group lengths do not cover the node list".to_string(),
                    ));
                }
                let pipeline = FusedPipeline::new(groups)
                    .map_err(|e| PlanCacheError::Incompatible(format!("pipeline rebuild: {e}")))?;
                let input = segment_input(graph, first)?;
                segments.push(Segment::Spliced { nodes, pipeline, input });
            }
            _ => return Err(PlanCacheError::Parse("unknown segment kind".to_string())),
        }
    }

    if next_node != graph.nodes().len() {
        return Err(PlanCacheError::Incompatible(format!(
            "segments cover {next_node} of {} nodes",
            graph.nodes().len()
        )));
    }

    let report = PlanReport {
        cost_model,
        cost_cuts,
        splices,
        provenance: PlanProvenance::CacheLoaded { key: key.canonical() },
    };
    Ok(ExecPlan::from_parts(
        segments,
        pattern,
        blocked_convs,
        graph.conv_count(),
        stored_act_bits,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_plan_shapes() {
        let doc = parse_json(
            "{\"version\": 1, \"arr\": [[0,16],[16,16]], \"s\": \"a|b\", \"neg\": -1, \
             \"none\": null, \"t\": true}",
        )
        .unwrap();
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-1.0));
        assert_eq!(doc.get("neg").and_then(Json::as_u64), None, "negatives are not u64");
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a|b"));
        assert_eq!(doc.get("none"), Some(&Json::Null));
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
        let arr = doc.get("arr").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].as_arr().unwrap()[0].as_usize(), Some(16));
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        for bad in ["", "{", "{\"a\":}", "[1,", "{\"a\" 1}", "{} trailing", "nul", "1e999"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t";
        let doc = parse_json(&format!("{{\"k\":\"{}\"}}", escape_json(s))).unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_str), Some(s));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn plan_keys_distinguish_every_axis() {
        let base = PlanKey {
            network: "n".into(),
            net_hash: 1,
            pattern: "H2x2".into(),
            plan: "resolution-rule".into(),
            backend: "blocked".into(),
            cost_model: "element-budget(unbounded)".into(),
            kernel: "auto".into(),
            pad: "zero".into(),
            host: "cores4".into(),
        };
        let mut variants = vec![base.clone()];
        let mut k = base.clone();
        k.net_hash = 2;
        variants.push(k);
        let mut k = base.clone();
        k.pattern = "F8".into();
        variants.push(k);
        let mut k = base.clone();
        k.backend = "quantized_w8a8".into();
        variants.push(k);
        let mut k = base.clone();
        k.cost_model = "element-budget(b1500)".into();
        variants.push(k);
        let mut k = base.clone();
        k.host = "cores8".into();
        variants.push(k);
        let canon: Vec<String> = variants.iter().map(PlanKey::canonical).collect();
        for (i, a) in canon.iter().enumerate() {
            for (j, b) in canon.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "keys {i} and {j} collide");
                }
            }
        }
    }
}
