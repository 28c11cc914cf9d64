//! Serving-tier scheduling and sharding determinism: priorities,
//! deadlines, and the multi-replica [`Router`] are *schedule* choices —
//! they decide when and where a request runs, never what it computes.
//!
//! Three contracts from ISSUE 9:
//! * priority/deadline scheduling never changes outputs (bitwise vs a
//!   serial `Session::run` oracle, per request, any worker count);
//! * an expired deadline sheds with the typed
//!   [`TensorError::DeadlineExpired`], visible in [`ServeMetrics::shed`];
//! * a router's N replicas share ONE compiled model — graph, plan,
//!   weights, and calibration all `Arc`-shared (asserted via
//!   `Arc::ptr_eq` through [`ServeEngine::shares_model_with`]), with
//!   exactly one quantization calibration pass counted for the whole
//!   replica set — and route identically to solo runs.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use bconv_graph::quantize::calibration_passes;
use bconv_graph::{Backend, ServeConfig, Session, SessionBuilder, SubmitOptions};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::{ActShape, Network};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::{Tensor, TensorError};
use proptest::prelude::*;

/// Serializes the tests in this binary: the calibration-pass counter is
/// process-global, so the test that asserts an exact delta must not race
/// other tests that build quantized sessions.
static GATE: Mutex<()> = Mutex::new(());

fn random_net(c1: usize, with_pool: bool) -> Network {
    let mut b = NetBuilder::new("serve_sched_prop", ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, c1));
    b.push("conv2", conv(3, 1, 1, c1, 2));
    if with_pool {
        b.push("pool", maxpool(2, 2, 0));
    }
    b.build()
}

fn session(net: &Network, backend: Backend, seed: u64) -> Session {
    let b: SessionBuilder =
        Session::builder().network(net.clone()).backend(backend).seed(seed).relu_after_conv(true);
    b.build().expect("session builds")
}

fn request_mix(seed: u64) -> Vec<Tensor> {
    [1usize, 2, 1, 3, 1]
        .iter()
        .enumerate()
        .map(|(i, &n)| uniform_tensor([n, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(seed + i as u64)))
        .collect()
}

const BACKENDS: [Backend; 3] =
    [Backend::Reference, Backend::Blocked, Backend::Quantized { weight_bits: 8, act_bits: 8 }];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random priority/deadline mixes reorder execution freely but every
    /// request's output and stats stay bitwise-identical to the serial
    /// oracle, at 1 and 4 workers.
    #[test]
    fn priorities_and_deadlines_never_change_outputs(
        c1 in 1usize..4,
        pool_idx in 0usize..2,
        max_batch in 1usize..5,
        seed in 0u64..1000,
        prio_bits in 0u32..1024,
    ) {
        // Five 2-bit priority classes unpacked from one random word (the
        // vendored proptest shim has no collection strategies).
        let prios: Vec<u8> = (0..5).map(|i| ((prio_bits >> (2 * i)) & 3) as u8).collect();
        let _gate = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let net = random_net(c1, pool_idx == 1);
        let inputs = request_mix(seed ^ 0x51ED);
        // Generous deadlines: scheduling pressure without any shed (a
        // shed request has no output to compare).
        let deadline = Instant::now() + Duration::from_secs(3600);
        for backend in BACKENDS {
            let oracle = session(&net, backend, seed);
            let want: Vec<_> = inputs.iter().map(|t| oracle.run(t).expect("oracle")).collect();
            for workers in [1usize, 4] {
                let engine = session(&net, backend, seed)
                    .into_engine(ServeConfig { workers, queue_depth: 4, max_batch, ..ServeConfig::default() })
                    .expect("engine builds");
                let tickets: Vec<_> = inputs
                    .iter()
                    .zip(&prios)
                    .map(|(t, &priority)| {
                        let opts = SubmitOptions { priority, deadline: Some(deadline) };
                        engine.submit_with(t.clone(), opts).expect("submit_with")
                    })
                    .collect();
                for (i, &t) in tickets.iter().enumerate() {
                    let got = engine.wait(t).expect("wait");
                    prop_assert_eq!(
                        got.output.data(), want[i].output.data(),
                        "{:?} workers={} req={} prio={}: prioritised output diverged",
                        backend, workers, i, prios[i]
                    );
                    prop_assert_eq!(got.stats, want[i].stats);
                }
                engine.shutdown();
            }
        }
    }

    /// The router is bitwise-invisible: spreading a request mix over 1-3
    /// replicas (mixed poll/wait redemption) equals solo session runs.
    #[test]
    fn router_matches_solo_runs_bitwise(
        c1 in 1usize..4,
        replicas in 1usize..4,
        seed in 0u64..1000,
    ) {
        let _gate = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let net = random_net(c1, true);
        let inputs = request_mix(seed ^ 0xB0);
        let oracle = session(&net, Backend::Blocked, seed);
        let want: Vec<_> = inputs.iter().map(|t| oracle.run(t).expect("oracle")).collect();
        let router = session(&net, Backend::Blocked, seed)
            .into_router(replicas, ServeConfig { workers: 1, queue_depth: 4, max_batch: 3, ..ServeConfig::default() })
            .expect("router builds");
        let tickets: Vec<_> =
            inputs.iter().map(|t| router.submit(t.clone()).expect("submit")).collect();
        for (i, &t) in tickets.iter().enumerate().rev() {
            // Redeem by polling (spin) for even requests, blocking for odd:
            // both redemption paths must deliver the same bits.
            let got = if i % 2 == 0 {
                loop {
                    match router.poll(t).expect("poll") {
                        Some(report) => break report,
                        None => std::thread::yield_now(),
                    }
                }
            } else {
                router.wait(t).expect("wait")
            };
            prop_assert_eq!(
                got.output.data(), want[i].output.data(),
                "replicas={} req={}: routed output diverged", replicas, i
            );
            prop_assert_eq!(got.stats, want[i].stats);
        }
        router.shutdown();
    }
}

#[test]
fn router_shares_one_model_and_one_calibration_pass() {
    let _gate = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let net = random_net(3, true);
    let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
    let before = calibration_passes();
    let base = session(&net, backend, 77);
    let oracle = base.fork();
    let router = base
        .into_router(
            4,
            ServeConfig { workers: 1, queue_depth: 4, max_batch: 2, ..ServeConfig::default() },
        )
        .expect("router builds");
    assert_eq!(
        calibration_passes() - before,
        1,
        "one session + fork + 4 replicas must calibrate exactly once"
    );
    // Every replica serves the same Arc'd graph and executor (weights,
    // plan, calibration): shares_model_with is Arc::ptr_eq on both.
    let engines = router.replicas();
    assert_eq!(engines.len(), 4);
    for (i, engine) in engines.iter().enumerate().skip(1) {
        assert!(
            engines[0].shares_model_with(engine),
            "replica {i} does not share the compiled model"
        );
    }
    // And the sharing is not cosmetic: routed outputs are bitwise equal
    // to the forked oracle's solo runs.
    let inputs = request_mix(0xCA11B);
    let reports = router.run_batch(inputs.clone()).expect("run_batch");
    for (i, (inp, got)) in inputs.iter().zip(&reports).enumerate() {
        let want = oracle.run(inp).expect("oracle");
        assert_eq!(got.output.data(), want.output.data(), "req {i} diverged across replicas");
        assert_eq!(got.stats, want.stats, "req {i} stats diverged");
    }
    let m = router.metrics();
    assert_eq!(m.completed, inputs.len() as u64);
    assert_eq!((m.failed, m.shed), (0, 0));
    router.shutdown();
}

#[test]
fn router_sheds_expired_requests_with_typed_error() {
    let _gate = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let net = random_net(2, false);
    let router = session(&net, Backend::Blocked, 9)
        .into_router(
            2,
            ServeConfig { workers: 1, queue_depth: 4, max_batch: 2, ..ServeConfig::default() },
        )
        .expect("router builds");
    let input = uniform_tensor([1, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(0xDEAD));
    let opts = SubmitOptions { priority: 0, deadline: Some(Instant::now()) };
    let ticket = router.submit_with(input.clone(), opts).expect("submit_with");
    assert!(matches!(router.wait(ticket), Err(TensorError::DeadlineExpired)));
    assert_eq!(router.metrics().shed, 1, "the shed must surface in aggregated metrics");
    // The same input without a deadline still serves fine.
    let ok = router.submit(input).expect("submit");
    assert!(router.wait(ok).is_ok());
    router.shutdown();
}
