//! Benchmark regression checking: compare a fresh `BENCH_*.json` run
//! against the committed baseline and flag throughput regressions and
//! off-chip-traffic increases — the logic behind the `bench_check` CI
//! gate.
//!
//! The workspace has no crates.io access (so no serde); the bench files
//! are flat JSON written by our own binaries, parsed here with a minimal
//! recursive-descent reader.

use std::fmt;

/// A parsed JSON value (the subset our bench files use — which is all of
/// JSON except exotic number forms).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as f64; bench files stay well within exact
    /// integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (with byte offset) on malformed
    /// input, trailing garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(src: &str) -> Result<Self, String> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Bench files nest
/// three levels deep; the limit keeps a corrupt file from exhausting the
/// stack of the recursive parser.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth >= MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// What the checker found for one baseline entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Throughput regressed beyond the tolerance — fails the gate.
    Regression,
    /// Off-chip traffic increased (any amount) — fails the gate.
    OffchipIncrease,
    /// A baseline entry has no fresh counterpart and no skip flag excuses
    /// it — fails the gate (silent coverage loss).
    MissingEntry,
    /// A baseline entry was skipped-and-flagged by the fresh run (e.g.
    /// multi-worker configs on a 1-core host) — exempt, reported for
    /// visibility.
    Skipped,
}

impl FindingKind {
    /// Whether this finding fails the gate.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Self::Skipped)
    }
}

/// One checker finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Bench name (e.g. `kernels`).
    pub bench: String,
    /// Entry key within the bench (joined identity fields).
    pub entry: String,
    /// What happened.
    pub kind: FindingKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            FindingKind::Regression => "REGRESSION",
            FindingKind::OffchipIncrease => "OFFCHIP-INCREASE",
            FindingKind::MissingEntry => "MISSING",
            FindingKind::Skipped => "skipped",
        };
        write!(f, "[{tag}] {}/{}: {}", self.bench, self.entry, self.detail)
    }
}

/// Fields that identify an entry across runs, in priority order.
const IDENTITY_KEYS: [&str; 6] =
    ["network", "name", "backend", "cost_model", "workers_requested", "streams"];

/// Joined identity of a result entry.
fn entry_key(entry: &Json) -> String {
    let mut parts = Vec::new();
    for key in IDENTITY_KEYS {
        if let Some(v) = entry.get(key) {
            match v {
                Json::Str(s) => parts.push(s.clone()),
                Json::Num(n) => parts.push(format!("{n}")),
                other => parts.push(format!("{other:?}")),
            }
        }
    }
    if parts.is_empty() {
        "<unkeyed>".to_string()
    } else {
        parts.join("/")
    }
}

/// True when the fresh run declared any top-level `*_skipped` flag (the
/// skip-and-flag convention of `bench_serve` on hosts that
/// cannot run a configuration meaningfully).
fn fresh_declares_skips(fresh: &Json) -> bool {
    match fresh {
        Json::Obj(fields) => {
            fields.iter().any(|(k, v)| k.ends_with("_skipped") && v.as_bool().unwrap_or(false))
        }
        _ => false,
    }
}

/// True when a baseline entry is a parallel configuration — the only kind
/// a host-capability skip flag can legitimately excuse. Serial entries
/// going missing is coverage loss no matter what the fresh run skipped.
fn entry_is_parallel(entry: &Json) -> bool {
    entry.get("workers_requested").and_then(Json::as_f64).is_some_and(|n| n > 1.0)
}

/// Compares a fresh bench document against its baseline.
///
/// Gate rules, per baseline `results[]` entry (matched to fresh by its
/// identity fields):
///
/// * `min_us`/`median_us` growing beyond `tolerance_pct` →
///   [`FindingKind::Regression`];
/// * `throughput_rps` shrinking beyond `tolerance_pct` → regression;
/// * `offchip_bits` / `offchip_elems` increasing at all →
///   [`FindingKind::OffchipIncrease`] (these are deterministic);
/// * per-entry `"skipped": true` in the fresh run, or a missing fresh
///   *parallel* entry under a top-level `*_skipped` flag →
///   [`FindingKind::Skipped`] (exempt);
/// * a missing fresh entry otherwise → [`FindingKind::MissingEntry`].
///
/// Wall-clock metrics are only comparable between like hosts: when both
/// documents record a top-level `available_parallelism` and the values
/// differ, every timing comparison is skipped-and-flagged (one finding
/// per bench) while the deterministic metrics still gate.
///
/// Additionally, every baseline `batch_amortization[]` entry gates the
/// fresh run's `speedup` against an **absolute** floor of 1.0 on like
/// hosts: `run_batch` coalescing must never lose to per-request
/// submit/wait through the same engine. Cross-host the floor is
/// skipped-and-flagged; a baseline backend with no fresh amortization
/// entry is [`FindingKind::MissingEntry`] either way.
pub fn check_bench(bench: &str, baseline: &Json, fresh: &Json, tolerance_pct: f64) -> Vec<Finding> {
    let mut findings = Vec::new();
    let base_results = baseline.get("results").and_then(Json::as_array).unwrap_or(&[]);
    let fresh_results = fresh.get("results").and_then(Json::as_array).unwrap_or(&[]);
    let skips_declared = fresh_declares_skips(fresh);
    let finding = |entry: &str, kind, detail: String| Finding {
        bench: bench.to_string(),
        entry: entry.to_string(),
        kind,
        detail,
    };
    let host = |doc: &Json| doc.get("available_parallelism").and_then(Json::as_f64);
    let timing_comparable = match (host(baseline), host(fresh)) {
        (Some(b), Some(f)) if b != f => {
            findings.push(finding(
                "<host>",
                FindingKind::Skipped,
                format!(
                    "timing comparisons skipped: baseline host has {b} core(s), fresh host {f} \
                     (deterministic metrics still gated)"
                ),
            ));
            false
        }
        _ => true,
    };

    for base in base_results {
        let key = entry_key(base);
        let Some(new) = fresh_results.iter().find(|e| entry_key(e) == key) else {
            // A host-capability skip flag only excuses parallel configs;
            // a missing serial entry is silent coverage loss either way.
            let kind = if skips_declared && entry_is_parallel(base) {
                FindingKind::Skipped
            } else {
                FindingKind::MissingEntry
            };
            findings.push(finding(&key, kind, "no fresh entry for baseline config".into()));
            continue;
        };
        if new.get("skipped").and_then(Json::as_bool).unwrap_or(false) {
            findings.push(finding(&key, FindingKind::Skipped, "fresh run flagged skip".into()));
            continue;
        }
        // Lower-is-better timing. Prefer `min_us` (best-of-reps, robust
        // against external load, which only ever adds time) and fall back
        // to `median_us` for baselines that predate the field.
        let timing = timing_comparable.then_some(()).and_then(|()| {
            ["min_us", "median_us"].into_iter().find_map(|metric| {
                match (
                    base.get(metric).and_then(Json::as_f64),
                    new.get(metric).and_then(Json::as_f64),
                ) {
                    (Some(b), Some(f)) => Some((metric, b, f)),
                    _ => None,
                }
            })
        });
        if let Some((metric, b, f)) = timing {
            if b > 0.0 && f > b * (1.0 + tolerance_pct / 100.0) {
                findings.push(finding(
                    &key,
                    FindingKind::Regression,
                    format!("{metric} {b:.1} -> {f:.1} (> {tolerance_pct}% slower)"),
                ));
            }
        }
        // Higher-is-better throughput.
        if let (true, Some(b), Some(f)) = (
            timing_comparable,
            base.get("throughput_rps").and_then(Json::as_f64),
            new.get("throughput_rps").and_then(Json::as_f64),
        ) {
            if b > 0.0 && f < b * (1.0 - tolerance_pct / 100.0) {
                findings.push(finding(
                    &key,
                    FindingKind::Regression,
                    format!("throughput_rps {b:.1} -> {f:.1} (> {tolerance_pct}% drop)"),
                ));
            }
        }
        // Off-chip traffic is deterministic: any increase fails.
        for metric in ["offchip_bits", "offchip_elems"] {
            if let (Some(b), Some(f)) =
                (base.get(metric).and_then(Json::as_f64), new.get(metric).and_then(Json::as_f64))
            {
                if f > b {
                    findings.push(finding(
                        &key,
                        FindingKind::OffchipIncrease,
                        format!("{metric} {b} -> {f}"),
                    ));
                }
            }
        }
    }

    // Batch-amortization floor: unlike the relative gates above, this one
    // is absolute — a fresh speedup below 1.0 means batching made serving
    // slower than per-request submit/wait, which is a bug regardless of
    // what the baseline recorded.
    let base_amort = baseline.get("batch_amortization").and_then(Json::as_array).unwrap_or(&[]);
    let fresh_amort = fresh.get("batch_amortization").and_then(Json::as_array).unwrap_or(&[]);
    for base in base_amort {
        let key = format!("amortization/{}", entry_key(base));
        let Some(new) = fresh_amort.iter().find(|e| entry_key(e) == entry_key(base)) else {
            findings.push(finding(
                &key,
                FindingKind::MissingEntry,
                "no fresh amortization entry for baseline backend".into(),
            ));
            continue;
        };
        if !timing_comparable {
            findings.push(finding(
                &key,
                FindingKind::Skipped,
                "amortization floor not gated across unlike hosts".into(),
            ));
            continue;
        }
        match new.get("speedup").and_then(Json::as_f64) {
            Some(s) if s >= 1.0 => {}
            Some(s) => findings.push(finding(
                &key,
                FindingKind::Regression,
                format!(
                    "run_batch speedup {s:.3} < 1.0 — coalescing must not lose to \
                     per-request submit/wait"
                ),
            )),
            None => findings.push(finding(
                &key,
                FindingKind::MissingEntry,
                "fresh amortization entry lacks a speedup field".into(),
            )),
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(results: &str, extra: &str) -> Json {
        Json::parse(&format!("{{\"bench\": \"t\"{extra}, \"results\": [{results}]}}")).unwrap()
    }

    #[test]
    fn parser_reads_a_real_bench_document() {
        let j = Json::parse(
            r#"{
  "bench": "kernels",
  "reps": 30,
  "quick": false,
  "threaded_configs_skipped": true,
  "results": [
    {"name": "direct_t1", "median_us": 1228.8, "speedup_vs_direct_t1": 1.000,
     "output_matches_baseline": true},
    {"name": "gemm_t1", "median_us": 293.5, "negative": -4.2e-1, "nothing": null}
  ]
}"#,
        )
        .unwrap();
        assert_eq!(j.get("bench").and_then(Json::as_str), Some("kernels"));
        assert_eq!(j.get("reps").and_then(Json::as_f64), Some(30.0));
        let results = j.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].get("nothing"), Some(&Json::Null));
        assert_eq!(results[1].get("negative").and_then(Json::as_f64), Some(-0.42));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parser_rejects_nesting_beyond_the_depth_limit() {
        let deep = "[".repeat(1_000_000);
        assert!(Json::parse(&deep).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let j = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = doc(r#"{"name": "a", "median_us": 100.0}"#, "");
        let ok = doc(r#"{"name": "a", "median_us": 124.0}"#, "");
        let bad = doc(r#"{"name": "a", "median_us": 126.0}"#, "");
        assert!(check_bench("t", &base, &ok, 25.0).is_empty());
        let f = check_bench("t", &base, &bad, 25.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::Regression);
        assert!(f[0].kind.is_failure());
    }

    #[test]
    fn min_us_is_preferred_over_median_when_both_present() {
        // A noisy median with a stable minimum passes; a regressed minimum
        // fails regardless of the median.
        let base = doc(r#"{"name": "a", "median_us": 100.0, "min_us": 90.0}"#, "");
        let noisy = doc(r#"{"name": "a", "median_us": 400.0, "min_us": 95.0}"#, "");
        assert!(check_bench("t", &base, &noisy, 25.0).is_empty());
        let slow = doc(r#"{"name": "a", "median_us": 100.0, "min_us": 140.0}"#, "");
        assert_eq!(check_bench("t", &base, &slow, 25.0)[0].kind, FindingKind::Regression);
    }

    #[test]
    fn throughput_drop_beyond_tolerance_fails() {
        let base =
            doc(r#"{"backend": "blocked", "workers_requested": 2, "throughput_rps": 1000.0}"#, "");
        let ok =
            doc(r#"{"backend": "blocked", "workers_requested": 2, "throughput_rps": 760.0}"#, "");
        let bad =
            doc(r#"{"backend": "blocked", "workers_requested": 2, "throughput_rps": 740.0}"#, "");
        assert!(check_bench("t", &base, &ok, 25.0).is_empty());
        assert_eq!(check_bench("t", &base, &bad, 25.0)[0].kind, FindingKind::Regression);
    }

    #[test]
    fn any_offchip_increase_fails() {
        let base = doc(r#"{"name": "a", "offchip_bits": 1000, "offchip_elems": 10}"#, "");
        let same = doc(r#"{"name": "a", "offchip_bits": 1000, "offchip_elems": 10}"#, "");
        let worse = doc(r#"{"name": "a", "offchip_bits": 1001, "offchip_elems": 10}"#, "");
        assert!(check_bench("t", &base, &same, 25.0).is_empty());
        let f = check_bench("t", &base, &worse, 25.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::OffchipIncrease);
    }

    #[test]
    fn skip_and_flag_entries_are_exempt() {
        let base = doc(r#"{"backend": "blocked", "workers_requested": 8, "min_us": 50.0}"#, "");
        // Missing without a skip flag: coverage loss, fails.
        let missing = doc(r#"{"backend": "blocked", "workers_requested": 1, "min_us": 9.0}"#, "");
        let f = check_bench("t", &base, &missing, 25.0);
        assert_eq!(f[0].kind, FindingKind::MissingEntry);
        assert!(f[0].kind.is_failure());
        // Missing parallel config under a declared top-level skip: exempt.
        let skipped = doc(
            r#"{"backend": "blocked", "workers_requested": 1, "min_us": 9.0}"#,
            ", \"multi_stream_configs_skipped\": true",
        );
        let f = check_bench("t", &base, &skipped, 25.0);
        assert_eq!(f[0].kind, FindingKind::Skipped);
        assert!(!f[0].kind.is_failure());
        // Per-entry skip flag: exempt even if slower.
        let entry_skip = doc(
            r#"{"backend": "blocked", "workers_requested": 8, "min_us": 500.0, "skipped": true}"#,
            "",
        );
        let f = check_bench("t", &base, &entry_skip, 25.0);
        assert_eq!(f[0].kind, FindingKind::Skipped);
    }

    #[test]
    fn skip_flags_cannot_excuse_missing_serial_entries() {
        // A top-level host-capability skip must not silence the loss of a
        // serial (workers = 1) config.
        let base = doc(r#"{"backend": "blocked", "workers_requested": 1, "min_us": 50.0}"#, "");
        let fresh = doc(
            r#"{"backend": "quantized", "workers_requested": 1, "min_us": 10.0}"#,
            ", \"multi_stream_configs_skipped\": true",
        );
        let f = check_bench("t", &base, &fresh, 25.0);
        assert_eq!(f[0].kind, FindingKind::MissingEntry);
        assert!(f[0].kind.is_failure());
    }

    #[test]
    fn cross_host_runs_skip_timing_but_still_gate_offchip() {
        let base = doc(
            r#"{"name": "a", "min_us": 100.0, "offchip_bits": 1000}"#,
            ", \"available_parallelism\": 1",
        );
        // Different core count: a 10x slower timing is flagged skipped,
        // not failed...
        let slow = doc(
            r#"{"name": "a", "min_us": 1000.0, "offchip_bits": 1000}"#,
            ", \"available_parallelism\": 4",
        );
        let f = check_bench("t", &base, &slow, 25.0);
        assert!(f.iter().all(|x| x.kind == FindingKind::Skipped), "{f:?}");
        // ...but an off-chip increase still fails cross-host.
        let worse = doc(
            r#"{"name": "a", "min_us": 1000.0, "offchip_bits": 1001}"#,
            ", \"available_parallelism\": 4",
        );
        let f = check_bench("t", &base, &worse, 25.0);
        assert!(f.iter().any(|x| x.kind == FindingKind::OffchipIncrease));
        // Same core count: the timing gate is armed.
        let same_host = doc(
            r#"{"name": "a", "min_us": 1000.0, "offchip_bits": 1000}"#,
            ", \"available_parallelism\": 1",
        );
        let f = check_bench("t", &base, &same_host, 25.0);
        assert!(f.iter().any(|x| x.kind == FindingKind::Regression));
    }

    #[test]
    fn amortization_speedup_below_one_fails_on_like_hosts() {
        let amort = |speedup: f64| {
            format!(
                ", \"available_parallelism\": 1, \"batch_amortization\": \
                 [{{\"backend\": \"blocked\", \"batch\": 8, \"speedup\": {speedup}}}]"
            )
        };
        let base = doc("", &amort(1.05));
        let ok = doc("", &amort(1.01));
        assert!(check_bench("t", &base, &ok, 25.0).is_empty());
        // The floor is absolute: 0.95 fails even though it is within 25%
        // of the baseline's own figure.
        let bad = doc("", &amort(0.95));
        let f = check_bench("t", &base, &bad, 25.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::Regression);
        assert!(f[0].entry.starts_with("amortization/"), "{}", f[0].entry);
    }

    #[test]
    fn amortization_floor_is_skipped_across_unlike_hosts() {
        let base = doc(
            "",
            ", \"available_parallelism\": 1, \"batch_amortization\": \
             [{\"backend\": \"blocked\", \"batch\": 8, \"speedup\": 1.05}]",
        );
        let fresh = doc(
            "",
            ", \"available_parallelism\": 8, \"batch_amortization\": \
             [{\"backend\": \"blocked\", \"batch\": 8, \"speedup\": 0.7}]",
        );
        let f = check_bench("t", &base, &fresh, 25.0);
        assert!(f.iter().all(|x| x.kind == FindingKind::Skipped), "{f:?}");
        assert!(f.iter().any(|x| x.entry.starts_with("amortization/")));
    }

    #[test]
    fn missing_amortization_entry_is_coverage_loss() {
        let base = doc(
            "",
            ", \"batch_amortization\": \
             [{\"backend\": \"blocked\", \"batch\": 8, \"speedup\": 1.05}]",
        );
        let fresh = doc("", ", \"batch_amortization\": []");
        let f = check_bench("t", &base, &fresh, 25.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::MissingEntry);
        assert!(f[0].kind.is_failure());
    }

    #[test]
    fn entries_match_on_compound_identity() {
        // Two entries sharing "name" but differing in "network" must not
        // cross-match.
        let base = doc(
            r#"{"network": "vgg", "name": "x", "median_us": 100.0},
               {"network": "vdsr", "name": "x", "median_us": 10.0}"#,
            "",
        );
        let fresh = doc(
            r#"{"network": "vgg", "name": "x", "median_us": 100.0},
               {"network": "vdsr", "name": "x", "median_us": 10.0}"#,
            "",
        );
        assert!(check_bench("t", &base, &fresh, 25.0).is_empty());
    }
}
