//! Cost-model / splice contract tests: a fusion cost model is a **schedule
//! policy** — swapping [`ElementBudget`] for [`AccelCost`] (same capacity)
//! must never change what a session computes, only how much off-chip
//! traffic the plan needs. Spliced pipelines are bitwise identical to
//! their unspliced counterparts (float and quantized, at any thread
//! count), `offchip_bits()` never increases when a splice is taken — and
//! strictly decreases when one is — and the `PlanReport` records exactly
//! the decisions the segments embody.
//!
//! (The working-set peak is *allowed* to grow under a splice: the boundary
//! map moves from DRAM into the on-chip extra buffer, which is the whole
//! trade.)

use bconv_accel::platform::zc706;
use bconv_graph::{AccelCost, Backend, Segment, Session, SessionBuilder};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::{ActShape, Network};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::PadMode;
use proptest::prelude::*;

/// A random-but-valid small network: stride-1 convs on a 16x16 map (so
/// every hierarchical grid divides), optional pooling tail — the same
/// family as the serving determinism suite.
fn random_net(c1: usize, c2: usize, with_pool: bool) -> Network {
    let mut b = NetBuilder::new("splice_prop", ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, c1));
    b.push("conv2", conv(3, 1, 1, c1, c2));
    if with_pool {
        b.push("pool", maxpool(2, 2, 0));
        b.push("conv3", conv(3, 1, 1, c2, 2));
    }
    b.build()
}

fn builder(net: &Network, backend: Backend, seed: u64) -> SessionBuilder {
    Session::builder()
        .network(net.clone())
        .backend(backend)
        .pad(PadMode::Zero)
        .seed(seed)
        .relu_after_conv(true)
}

/// The AccelCost twin of an element budget at the plan's word width: cuts
/// land at the same stage pairs, splices become available.
fn accel_twin(budget_elems: usize, bits: u8) -> AccelCost {
    AccelCost::with_buffers(zc706(), budget_elems as u64 * bits as u64 / 2, 1 << 24)
}

fn plan_bits(backend: Backend) -> u8 {
    match backend {
        Backend::Quantized { act_bits, .. } => act_bits,
        _ => 32,
    }
}

const BACKENDS: [Backend; 2] =
    [Backend::Blocked, Backend::Quantized { weight_bits: 8, act_bits: 8 }];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Spliced vs unspliced plans: bitwise-identical outputs (float and
    /// quantized), off-chip traffic never increases, and strictly
    /// decreases whenever a splice was taken.
    #[test]
    fn spliced_plans_are_bitwise_identical_and_never_cost_traffic(
        c1 in 1usize..4,
        c2 in 1usize..4,
        pool_idx in 0usize..2,
        budget in 150usize..600,
        seed in 0u64..1000,
    ) {
        let net = random_net(c1, c2, pool_idx == 1);
        let input = uniform_tensor([1, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(seed ^ 0x51CE));
        for backend in BACKENDS {
            let unspliced =
                builder(&net, backend, seed).on_chip_budget(budget).build().expect("budget session");
            let spliced = builder(&net, backend, seed)
                .cost_model(accel_twin(budget, plan_bits(backend)))
                .build()
                .expect("accel session");
            prop_assert!(unspliced.plan().report().splices.is_empty());

            let a = unspliced.run(&input).expect("unspliced run");
            let b = spliced.run(&input).expect("spliced run");
            prop_assert_eq!(
                a.output.data(), b.output.data(),
                "{:?} budget={}: cost model changed numerics", backend, budget
            );
            prop_assert!(
                b.stats.offchip_elems <= a.stats.offchip_elems,
                "{:?} budget={}: splice increased off-chip elems ({} > {})",
                backend, budget, b.stats.offchip_elems, a.stats.offchip_elems
            );
            prop_assert!(b.stats.offchip_bits() <= a.stats.offchip_bits());

            let report = spliced.plan().report();
            let spliced_segments = spliced
                .plan()
                .segments()
                .iter()
                .filter(|s| matches!(s, Segment::Spliced { .. }))
                .count();
            if report.splices.is_empty() {
                // No splice taken: the plans must agree exactly.
                prop_assert_eq!(spliced_segments, 0);
                prop_assert_eq!(a.stats, b.stats, "{:?} budget={}", backend, budget);
            } else {
                prop_assert!(spliced_segments > 0);
                // Each splice saves exactly the boundary map's round trip.
                prop_assert_eq!(
                    a.stats.offchip_elems - b.stats.offchip_elems,
                    report.spliced_offchip_elems_saved(),
                    "{:?} budget={}: report disagrees with measured savings", backend, budget
                );
                prop_assert!(b.stats.offchip_bits() < a.stats.offchip_bits());
            }
        }
    }
}

/// The ISSUE acceptance scenario on vgg16_small: under a capacity that
/// forces cuts, `AccelCost` takes at least one decision `ElementBudget`
/// does not (the splice), the spliced plan's `offchip_bits()` is strictly
/// lower, and outputs stay bitwise identical — the cost model changed the
/// schedule, not the mathematics.
#[test]
fn vgg16_small_accel_cost_beats_element_budget_on_traffic() {
    let net = bconv_models::small::vgg16_small(32);
    let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(2018));
    let budget = 1500usize; // cuts after conv1-1 (16x16 blocks, 4 channels)
    let element = Session::builder()
        .network(net.clone())
        .seed(2018)
        .on_chip_budget(budget)
        .build()
        .expect("element session");
    let accel = Session::builder()
        .network(net.clone())
        .seed(2018)
        .cost_model(accel_twin(budget, 32))
        .build()
        .expect("accel session");

    let er = element.plan().report();
    let ar = accel.plan().report();
    assert!(er.splices.is_empty() && !er.cost_cuts.is_empty(), "budget must cut, never splice");
    assert!(!ar.splices.is_empty(), "accel model must splice:\n{}", accel.describe());

    let e = element.run(&input).expect("element run");
    let a = accel.run(&input).expect("accel run");
    assert_eq!(a.output.data(), e.output.data(), "cost models must not change numerics");
    assert!(
        a.stats.offchip_bits() < e.stats.offchip_bits(),
        "splice must strictly lower off-chip traffic ({} vs {})",
        a.stats.offchip_bits(),
        e.stats.offchip_bits()
    );

    // And the quantized deployment path splices under the same rules
    // (FusedPipeline's single-precision constraint is satisfied — every
    // group carries the spec's activation bitwidth).
    let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
    let qe = Session::builder()
        .network(net.clone())
        .seed(2018)
        .backend(backend)
        .on_chip_budget(budget)
        .build()
        .expect("quant element session");
    let qa = Session::builder()
        .network(net)
        .seed(2018)
        .backend(backend)
        .cost_model(accel_twin(budget, 8))
        .build()
        .expect("quant accel session");
    assert!(!qa.plan().report().splices.is_empty(), "{}", qa.describe());
    let eq = qe.run(&input).expect("quant element run");
    let aq = qa.run(&input).expect("quant accel run");
    assert_eq!(aq.output.data(), eq.output.data());
    assert!(aq.stats.offchip_bits() < eq.stats.offchip_bits());
    assert_eq!(aq.stats.bits_per_elem, 8);
}

/// Conflicting budget + cost model requests are rejected at build time.
#[test]
fn cost_model_and_budget_are_mutually_exclusive() {
    let r = Session::builder()
        .network(bconv_models::small::vgg16_small(32))
        .on_chip_budget(1000)
        .cost_model(accel_twin(1000, 32))
        .build();
    assert!(r.is_err());
}
