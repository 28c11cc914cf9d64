//! The pluggable-kernel execution contract:
//!
//! * the conv kernel choice does not change `Session` numerics — not a
//!   single bit, for the blocked fused walk and the whole-map reference
//!   walk alike;
//! * `FusedChain` stages share the `Graph`'s `Arc<Conv2d>` weights
//!   (no deep clones — blocked-conv weights exist once per session).

use std::sync::Arc;

use bconv_core::BlockingPattern;
use bconv_graph::{Backend, KernelPolicy, NodeOp, Segment, Session};
use bconv_models::small::{resnet18_small, vdsr_small, vgg16_small};
use bconv_models::Network;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::Tensor;

fn vgg_session(kernel: KernelPolicy) -> Session {
    Session::builder()
        .network(vgg16_small(32))
        .pattern(BlockingPattern::hierarchical(2))
        .kernel(kernel)
        .seed(2018)
        .build()
        .unwrap()
}

fn vgg_input(seed: u64) -> Tensor {
    uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(seed))
}

#[test]
fn kernel_choice_does_not_change_session_numerics() {
    // Both kernels accumulate in the same order, so even the whole-network
    // outputs match exactly; the documented contract is 1e-4 relative.
    let input = vgg_input(43);
    let direct = vgg_session(KernelPolicy::Direct).run(&input).unwrap();
    let gemm = vgg_session(KernelPolicy::Im2colGemm).run(&input).unwrap();
    let mag = direct.output.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
    let rel = direct.output.max_abs_diff(&gemm.output).unwrap() / mag;
    assert!(rel < 1e-4, "kernel choice perturbed session output: rel err {rel}");
}

fn session(net: Network, backend: Backend, pattern: usize, kernel: KernelPolicy) -> Session {
    Session::builder()
        .network(net)
        .backend(backend)
        .pattern(BlockingPattern::hierarchical(pattern))
        .kernel(kernel)
        .seed(2018)
        .build()
        .unwrap()
}

fn kernels(session: &Session) -> Vec<&'static str> {
    session.conv_kernels().into_iter().map(|(_, k)| k).collect()
}

#[test]
fn auto_matches_direct_bitwise_on_blocked_vdsr() {
    let net = || vdsr_small(48, 6, 8);
    let auto = session(net(), Backend::Blocked, 2, KernelPolicy::Auto);
    let direct = session(net(), Backend::Blocked, 2, KernelPolicy::Direct);
    assert!(kernels(&auto).iter().all(|&k| k == "plane"), "{:?}", auto.conv_kernels());
    assert!(kernels(&direct).iter().all(|&k| k == "direct"), "{:?}", direct.conv_kernels());
    let input = uniform_tensor([1, 1, 48, 48], -1.0, 1.0, &mut seeded_rng(44));
    let a = auto.run(&input).unwrap().output;
    let d = direct.run(&input).unwrap().output;
    assert_eq!(a.data(), d.data(), "plane kernel changed the blocked VDSR output");
}

#[test]
fn auto_matches_direct_bitwise_on_reference_vgg() {
    // The reference backend runs every conv whole-map through the plane
    // kernel whatever the policy; a single-block (H1x1) blocked session
    // under the Direct policy walks the same whole maps through the
    // direct loop, so the two must agree bit for bit.
    let auto = session(vgg16_small(32), Backend::Reference, 1, KernelPolicy::Auto);
    let direct = session(vgg16_small(32), Backend::Blocked, 1, KernelPolicy::Direct);
    assert!(kernels(&auto).iter().all(|&k| k == "plane"), "{:?}", auto.conv_kernels());
    assert!(kernels(&direct).iter().all(|&k| k == "direct"), "{:?}", direct.conv_kernels());
    let input = vgg_input(45);
    let a = auto.run(&input).unwrap().output;
    let d = direct.run(&input).unwrap().output;
    assert_eq!(a.data(), d.data(), "plane kernel changed the reference VGG output");
}

#[test]
fn fused_chains_share_graph_weights() {
    for net in [vgg16_small(32), resnet18_small(32)] {
        let session = Session::builder()
            .network(net)
            .pattern(BlockingPattern::hierarchical(2))
            .build()
            .unwrap();
        let nodes = session.graph().nodes();
        let mut fused_convs = 0usize;
        for seg in session.plan().segments() {
            let Segment::Fused { nodes: ids, chain, .. } = seg else {
                continue;
            };
            let node_arcs: Vec<&Arc<_>> = ids
                .iter()
                .filter_map(|&id| match &nodes[id].op {
                    NodeOp::Conv { conv, .. } => Some(conv),
                    _ => None,
                })
                .collect();
            let stage_arcs: Vec<&Arc<_>> = chain.convs().map(|b| b.conv_arc()).collect();
            assert_eq!(node_arcs.len(), stage_arcs.len());
            for (node_arc, stage_arc) in node_arcs.iter().zip(&stage_arcs) {
                assert!(
                    Arc::ptr_eq(node_arc, stage_arc),
                    "chain stage deep-cloned its weights instead of sharing the graph's Arc"
                );
                fused_convs += 1;
            }
        }
        assert!(fused_convs > 0, "expected fused conv stages to check");
    }
}
