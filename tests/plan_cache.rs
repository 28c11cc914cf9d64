//! Plan-cache and autotuner contract tests.
//!
//! The contract under test (ISSUE 10):
//!
//! * a plan-cache hit produces a session whose execution is **bitwise
//!   identical** to a freshly planned one, on every backend;
//! * a cache hit skips planning entirely — the planner-invocation
//!   counter stays flat;
//! * corrupted or stale cache files are rejected with a typed error and
//!   fall back to fresh planning, never a panic — fuzzed with random bytes,
//!   truncations and single-field mutations of valid plan files;
//! * the tuner's winner never models more off-chip traffic than the
//!   default configuration, and tuned builds cache their winner per host;
//! * `Session::fork` and `Session::into_router` share the already-built
//!   plan (`Arc::ptr_eq`) rather than re-planning.
//!
//! `bconv_graph::planner_invocations` is process-global, so every test in
//! this binary serialises on one mutex: counter assertions must not race
//! with other tests' session builds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bconv_accel::platform::zc706;
use bconv_core::BlockingPattern;
use bconv_graph::cache::{PlanCache, PlanCacheError, PlanKey};
use bconv_graph::cost::{AccelCost, ElementBudget};
use bconv_graph::tune::{tune, TuneOptions};
use bconv_graph::{
    planner_invocations, Backend, KernelPolicy, PlanProvenance, PlanSpec, ServeConfig, Session,
};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::small::{vdsr_small, vgg16_small};
use bconv_models::{ActShape, Network};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::pad::PadMode;
use bconv_tensor::Tensor;
use proptest::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty cache directory unique to this test run.
fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bconv-plan-cache-{}-{tag}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn input_for(net: &Network, seed: u64) -> Tensor {
    let s = net.input;
    uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(seed))
}

const BACKENDS: [Backend; 3] =
    [Backend::Reference, Backend::Blocked, Backend::Quantized { weight_bits: 8, act_bits: 8 }];

#[test]
fn cache_round_trip_is_bitwise_identical_on_every_backend() {
    let _g = serial();
    for (name, net) in [("vgg16_small", vgg16_small(32)), ("vdsr_small", vdsr_small(24, 4, 8))] {
        let input = input_for(&net, 0xCAFE);
        for backend in BACKENDS {
            let dir = temp_cache_dir("roundtrip");
            let fresh = Session::builder()
                .network(net.clone())
                .backend(backend)
                .plan_cache(&dir)
                .build()
                .unwrap();
            assert_eq!(
                fresh.plan().report().provenance,
                PlanProvenance::Fresh,
                "{name}/{backend:?}: first build must plan fresh"
            );
            let before = planner_invocations();
            let cached = Session::builder()
                .network(net.clone())
                .backend(backend)
                .plan_cache(&dir)
                .build()
                .unwrap();
            assert_eq!(
                planner_invocations(),
                before,
                "{name}/{backend:?}: cache hit must skip the planner entirely"
            );
            assert!(
                matches!(cached.plan().report().provenance, PlanProvenance::CacheLoaded { .. }),
                "{name}/{backend:?}: got {:?}",
                cached.plan().report().provenance
            );
            let a = fresh.run(&input).unwrap();
            let b = cached.run(&input).unwrap();
            assert_eq!(
                a.output.data(),
                b.output.data(),
                "{name}/{backend:?}: cache-loaded execution must be bitwise identical"
            );
            assert_eq!(a.stats.offchip_elems, b.stats.offchip_elems, "{name}/{backend:?}");
            assert_eq!(
                fresh.plan().fusion_groups(),
                cached.plan().fusion_groups(),
                "{name}/{backend:?}: plan structure must survive the round trip"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn corrupted_cache_files_fall_back_to_fresh_planning() {
    let _g = serial();
    let dir = temp_cache_dir("corrupt");
    let net = vgg16_small(32);
    let first = Session::builder().network(net.clone()).plan_cache(&dir).build().unwrap();

    // The stored file sits exactly where the key says it does.
    let cache = PlanCache::new(dir.clone());
    let key = PlanKey::for_build(
        first.graph(),
        2018,
        BlockingPattern::hierarchical(2),
        None,
        Backend::Blocked,
        &ElementBudget::unbounded(),
        KernelPolicy::Auto,
        PadMode::Zero,
    );
    let path = cache.path_for(&key);
    assert!(path.is_file(), "expected the first build to store {}", path.display());

    // Truncated garbage, and nesting deep enough to overflow the stack of
    // a recursive parser without a depth limit.
    for corrupt in ["{ this is not json".to_string(), "[".repeat(1_000_000)] {
        // Corrupt it: load reports a typed parse error, never a panic.
        std::fs::write(&path, &corrupt).unwrap();
        let err =
            cache.load(&key, first.graph(), PadMode::Zero, KernelPolicy::Auto, None).unwrap_err();
        assert!(matches!(err, PlanCacheError::Parse(_)), "got {err}");

        // And the builder silently re-plans fresh (and re-stores).
        let before = planner_invocations();
        let rebuilt = Session::builder().network(net.clone()).plan_cache(&dir).build().unwrap();
        assert_eq!(planner_invocations(), before + 1, "corrupt file must force a fresh plan");
        assert_eq!(rebuilt.plan().report().provenance, PlanProvenance::Fresh);

        // The re-store healed the cache.
        let healed = Session::builder().network(net.clone()).plan_cache(&dir).build().unwrap();
        assert!(matches!(healed.plan().report().provenance, PlanProvenance::CacheLoaded { .. }));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_keys_are_rejected_with_a_typed_mismatch() {
    let _g = serial();
    let dir = temp_cache_dir("stale");
    let net = vgg16_small(32);
    let first = Session::builder().network(net.clone()).plan_cache(&dir).build().unwrap();
    let cache = PlanCache::new(dir.clone());
    let key = |seed: u64, graph: &bconv_graph::Graph| {
        PlanKey::for_build(
            graph,
            seed,
            BlockingPattern::hierarchical(2),
            None,
            Backend::Blocked,
            &ElementBudget::unbounded(),
            KernelPolicy::Auto,
            PadMode::Zero,
        )
    };
    let stored = cache.path_for(&key(2018, first.graph()));

    // A session with a different seed hashes to a different key: drop the
    // seed-2018 plan file onto the seed-2019 key's path and the stored
    // key string betrays it.
    let other = Session::builder().network(net).seed(2019).build().unwrap();
    let stale_key = key(2019, other.graph());
    std::fs::copy(&stored, cache.path_for(&stale_key)).unwrap();
    let err =
        cache.load(&stale_key, other.graph(), PadMode::Zero, KernelPolicy::Auto, None).unwrap_err();
    assert!(matches!(err, PlanCacheError::KeyMismatch { .. }), "got {err}");

    // A missing file is a typed IO error, not a panic.
    let miss = key(2020, first.graph());
    let err =
        cache.load(&miss, first.graph(), PadMode::Zero, KernelPolicy::Auto, None).unwrap_err();
    assert!(matches!(err, PlanCacheError::Io(_)), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tune_winner_never_models_more_offchip_than_the_default() {
    let _g = serial();
    let report = tune(&vgg16_small(32), &TuneOptions::default()).unwrap();
    assert!(report.points.len() > 1, "the DSE must explore beyond the default");
    assert!(!report.pareto.is_empty());
    for &i in &report.pareto {
        assert!(i < report.points.len());
    }
    assert!(
        report.winner_point().offchip_bits <= report.default_point().offchip_bits,
        "winner {} > default {}",
        report.winner_point().offchip_bits,
        report.default_point().offchip_bits
    );
    // The report serialises (CI uploads it as an artifact).
    let json = report.to_json();
    assert!(json.contains("\"pareto\"") && json.contains("\"points\""), "{json}");
}

#[test]
fn tuned_builds_cache_their_winner_and_stay_bitwise_identical() {
    let _g = serial();
    let dir = temp_cache_dir("tuned");
    let net = vgg16_small(32);
    let input = input_for(&net, 0xBEEF);

    let first = Session::builder().network(net.clone()).tuned().plan_cache(&dir).build().unwrap();
    assert!(
        matches!(first.plan().report().provenance, PlanProvenance::TuneSelected { .. }),
        "got {:?}",
        first.plan().report().provenance
    );

    // Second tuned build: winner loaded from the per-host cache, plan
    // loaded from the plan cache — nothing plans, nothing re-tunes.
    let before = planner_invocations();
    let second = Session::builder().network(net.clone()).tuned().plan_cache(&dir).build().unwrap();
    assert_eq!(planner_invocations(), before, "cached winner + cached plan must skip planning");
    assert!(matches!(second.plan().report().provenance, PlanProvenance::CacheLoaded { .. }));
    let a = first.run(&input).unwrap();
    let b = second.run(&input).unwrap();
    assert_eq!(a.output.data(), b.output.data(), "tuned execution must be reproducible bitwise");

    // A fresh session pinned to the winner's exact knobs executes
    // bitwise identically to the tune-selected one.
    let topts = TuneOptions::default();
    let report = tune(&net, &topts).unwrap();
    let w = report.winner;
    let explicit = Session::builder()
        .network(net)
        .pattern(w.pattern)
        .cost_model(w.cost_model(topts.platform.clone(), topts.npe))
        .kernel(w.kernel)
        .build()
        .unwrap();
    let c = explicit.run(&input).unwrap();
    assert_eq!(a.output.data(), c.output.data(), "tune-selected == fresh with the same knobs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fork_and_router_share_the_compiled_plan() {
    let _g = serial();
    let session = Session::builder().network(vgg16_small(32)).build().unwrap();
    let fork = session.fork();
    assert!(
        Arc::ptr_eq(session.plan_handle(), fork.plan_handle()),
        "fork must share the ExecPlan allocation, not re-plan"
    );
    let before = planner_invocations();
    let router = fork.into_router(3, ServeConfig::default()).unwrap();
    assert_eq!(planner_invocations(), before, "router replicas must reuse the built plan");
    let engines = router.replicas();
    assert_eq!(engines.len(), 3);
    assert!(engines.iter().all(|e| engines[0].shares_model_with(e)));
    router.shutdown();
}

#[test]
fn plan_spec_path_matches_the_legacy_knobs() {
    let _g = serial();
    let net = vdsr_small(24, 4, 8);
    let input = input_for(&net, 0xF00D);
    let via_spec = Session::builder()
        .network(net.clone())
        .planner(PlanSpec::new().pattern(BlockingPattern::fixed(8)).on_chip_budget(1500))
        .build()
        .unwrap();
    let via_knobs = Session::builder()
        .network(net.clone())
        .pattern(BlockingPattern::fixed(8))
        .on_chip_budget(1500)
        .build()
        .unwrap();
    assert_eq!(via_spec.plan().fusion_groups(), via_knobs.plan().fusion_groups());
    let a = via_spec.run(&input).unwrap();
    let b = via_knobs.run(&input).unwrap();
    assert_eq!(a.output.data(), b.output.data(), "spec and knob paths must compile identically");

    // The old mutual-exclusion diagnostic survives the redesign, through
    // the spec path too.
    let err = Session::builder()
        .network(net)
        .planner(PlanSpec::new().on_chip_budget(10).cost_model(ElementBudget::unbounded()))
        .build()
        .unwrap_err();
    assert!(format!("{err}").contains("mutually exclusive"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serialize → deserialize → execute round-trips bitwise on random
    /// small nets, across all three backends.
    #[test]
    fn random_nets_round_trip_bitwise(
        c1 in 1usize..4,
        c2 in 1usize..4,
        seed in 0u64..200,
        backend_idx in 0usize..3,
    ) {
        let _g = serial();
        let backend = BACKENDS[backend_idx];
        let mut b = NetBuilder::new("prop-cache", ActShape { c: 2, h: 16, w: 16 });
        b.push("conv1", conv(3, 1, 1, 2, c1));
        b.push("conv2", conv(3, 1, 1, c1, c2));
        b.push("pool", maxpool(2, 2, 0));
        let net = b.build();
        let input = input_for(&net, seed ^ 0x51AB);
        let dir = temp_cache_dir("prop");

        let fresh = Session::builder()
            .network(net.clone())
            .seed(seed)
            .backend(backend)
            .plan_cache(&dir)
            .build()
            .unwrap();
        let cached = Session::builder()
            .network(net)
            .seed(seed)
            .backend(backend)
            .plan_cache(&dir)
            .build()
            .unwrap();
        prop_assert!(matches!(
            cached.plan().report().provenance,
            PlanProvenance::CacheLoaded { .. }
        ));
        let a = fresh.run(&input).unwrap();
        let b = cached.run(&input).unwrap();
        prop_assert_eq!(a.output.data(), b.output.data());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Byte ranges of the unsigned integers in a JSON text, outside strings.
fn number_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let (mut spans, mut i, mut in_str) = (Vec::new(), 0, false);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            c if !in_str && c.is_ascii_digit() => {
                let start = i;
                while bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                }
                spans.push(start..i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// One corruption of a valid stored plan, chosen by `mode` and `pick`.
fn mutate(valid: &str, mode: usize, pick: usize, seed: u64) -> Vec<u8> {
    match mode {
        // Random bytes.
        0 => {
            let noise =
                uniform_tensor([1, 1, 1, 1 + pick % 300], 0.0, 256.0, &mut seeded_rng(seed));
            noise.data().iter().map(|&v| v as u8).collect()
        }
        // Truncation.
        1 => valid.as_bytes()[..pick % valid.len()].to_vec(),
        // One number (a node id, a grid start or size, a group length,
        // the schema version, ...) changed.
        2 => {
            let spans = number_spans(valid);
            let span = spans[pick % spans.len()].clone();
            let old: u64 = valid[span.clone()].parse().unwrap();
            let new = [old + 1, old.saturating_sub(1), 0, 2 * old + 1, 1 << 40][(pick / 7) % 5];
            format!("{}{new}{}", &valid[..span.start], &valid[span.end..]).into_bytes()
        }
        // One segment or pattern kind swapped.
        3 => {
            let kinds: Vec<usize> =
                valid.match_indices("\"kind\":\"").map(|(i, m)| i + m.len()).collect();
            let at = kinds[pick % kinds.len()];
            let end = at + valid[at..].find('"').unwrap();
            let new = ["single", "fused", "spliced", "fixed", "hierarchical"][(pick / 7) % 5];
            format!("{}{new}{}", &valid[..at], &valid[end..]).into_bytes()
        }
        // The schema version moved on.
        _ => valid.replacen("\"version\": 1", "\"version\": 2", 1).into_bytes(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A corrupt plan file never panics the loader and never changes
    /// results: every load ends in a typed `PlanCacheError` (and the
    /// builder plans fresh) or in a plan whose output is bitwise identical
    /// to the fresh plan's. Spliced plans (under `AccelCost`) and plain
    /// fused plans are both fuzzed, on every backend.
    #[test]
    fn corrupt_plan_files_end_in_a_typed_error_or_the_fresh_plan(
        mode in 0usize..5,
        pick in 0usize..100_000,
        seed in 0u64..1_000,
        backend_idx in 0usize..3,
        spliced in 0usize..2,
    ) {
        let _g = serial();
        let backend = BACKENDS[backend_idx];
        let bits = match backend {
            Backend::Quantized { act_bits, .. } => act_bits,
            _ => 32,
        };
        let net = vgg16_small(32);
        let input = input_for(&net, seed);
        let dir = temp_cache_dir("fuzz");
        let build = || {
            let b = Session::builder().network(net.clone()).backend(backend).plan_cache(&dir);
            let b = if spliced == 1 {
                b.cost_model(AccelCost::with_buffers(zc706(), 1500 * u64::from(bits) / 2, 1 << 24))
            } else {
                b
            };
            b.build().unwrap()
        };
        let fresh = build();
        let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let valid = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, mutate(&valid, mode, pick, seed)).unwrap();

        let loaded = build();
        if matches!(loaded.plan().report().provenance, PlanProvenance::CacheLoaded { .. }) {
            let a = fresh.run(&input).unwrap();
            let b = loaded.run(&input).unwrap();
            prop_assert_eq!(a.output.data(), b.output.data(), "mode {} pick {}", mode, pick);
            prop_assert_eq!(a.stats, b.stats);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
