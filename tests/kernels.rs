//! The pluggable-kernel execution contract:
//!
//! * the conv kernel choice does not change `Session` numerics;
//! * `FusedChain` stages share the `Graph`'s `Arc<Conv2d>` weights
//!   (no deep clones — blocked-conv weights exist once per session).

use std::sync::Arc;

use bconv_core::BlockingPattern;
use bconv_graph::{KernelPolicy, NodeOp, Segment, Session};
use bconv_models::small::{resnet18_small, vgg16_small};
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
