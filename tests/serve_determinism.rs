//! Serving determinism: the [`ServeEngine`] contract that scheduling is
//! **bitwise invisible**. For random small networks and request mixes,
//! batched (`run_batch`) and ticketed (`submit`/`wait`) serving produce
//! per-request outputs and [`MemStats`] identical to sequential
//! `Session::run` calls — across the Reference / Blocked / Quantized
//! backends, 1/2/8 engine workers, and any batch-coalescing size.
//!
//! Worker count, queue timing, and batch coalescing are schedule choices
//! and must never leak into numerics or memory accounting.

use bconv_graph::{Backend, ServeConfig, Session, SessionBuilder, TicketId};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::{ActShape, Network};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::{PadMode, Tensor};
use proptest::prelude::*;

/// A random-but-valid small network: two or three stride-1 convs on a
/// 16x16 map (so every hierarchical grid divides), optional pooling tail.
fn random_net(c1: usize, c2: usize, with_pool: bool) -> Network {
    let mut b = NetBuilder::new("serve_prop", ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, c1));
    b.push("conv2", conv(3, 1, 1, c1, c2));
    if with_pool {
        b.push("pool", maxpool(2, 2, 0));
        b.push("conv3", conv(3, 1, 1, c2, 2));
    }
    b.build()
}

fn session(net: &Network, backend: Backend, pad: PadMode, seed: u64) -> Session {
    let b: SessionBuilder = Session::builder()
        .network(net.clone())
        .backend(backend)
        .pad(pad)
        .seed(seed)
        .relu_after_conv(true);
    b.build().expect("property session builds")
}

/// Request mix with non-uniform batch sizes, so coalescing chunks land on
/// uneven boundaries.
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

    /// `run_batch` and `submit`/`wait` are bitwise-identical to the
    /// sequential oracle, per request, for every backend x worker count.
    #[test]
    fn serving_matches_sequential_runs_bitwise(
        c1 in 1usize..4,
        c2 in 1usize..4,
        pool_idx in 0usize..2,
        mode_idx in 0usize..3,
        max_batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        let net = random_net(c1, c2, pool_idx == 1);
        let mode = PadMode::ALL[mode_idx];
        let inputs = request_mix(seed ^ 0xBA7C);
        for backend in BACKENDS {
            let oracle = session(&net, backend, mode, seed);
            let want: Vec<_> = inputs
                .iter()
                .map(|t| oracle.run(t).expect("oracle run"))
                .collect();
            for workers in [1usize, 2, 8] {
                let engine = session(&net, backend, mode, seed)
                    .into_engine(ServeConfig { workers, queue_depth: 4, max_batch, ..ServeConfig::default() })
                    .expect("engine builds");

                // Batched entry point.
                let got = engine.run_batch(inputs.clone()).expect("run_batch");
                prop_assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        g.output.data(), w.output.data(),
                        "{:?} workers={} req={}: run_batch output diverged", backend, workers, i
                    );
                    prop_assert_eq!(
                        g.stats, w.stats,
                        "{:?} workers={} req={}: per-request stats diverged", backend, workers, i
                    );
                    prop_assert_eq!(g.segments, w.segments);
                }

                // Ticketed entry point, redeemed out of submission order.
                let tickets: Vec<TicketId> = inputs
                    .iter()
                    .map(|t| engine.submit(t.clone()).expect("submit"))
                    .collect();
                for (i, &t) in tickets.iter().enumerate().rev() {
                    let g = engine.wait(t).expect("wait");
                    prop_assert_eq!(
                        g.output.data(), want[i].output.data(),
                        "{:?} workers={} req={}: ticketed output diverged", backend, workers, i
                    );
                    prop_assert_eq!(g.stats, want[i].stats);
                }
                engine.shutdown();
            }
        }
    }
}
