//! Property tests: the output-channel-lane integer kernel against the i64
//! direct loop, bit for bit.
//!
//! The lane kernel runs 3×3 stride-1 layers with a multiple of 16 output
//! channels per group on small planes; past its crossover the same layers
//! go to the plane kernel. The suites sweep plane sizes across that
//! crossover, so both sides of the dispatch are compared, and pin the
//! exactness bound `K * max|w_q| * qmax_act < 2^24` from both sides.

use bconv_quant::qconv::{QConv2d, QConvScratch};
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::KernelKind;
use bconv_tensor::Tensor;
use proptest::prelude::*;

/// `(fast path, direct loop)` outputs of `q` on an already-padded input.
fn both(q: &QConv2d, padded: &Tensor, act: QParams) -> (Tensor, Tensor) {
    let mut scratch = QConvScratch::new();
    let (mut fast, mut direct) = (Tensor::default(), Tensor::default());
    q.forward_prepadded_into(padded, act, &mut fast, &mut scratch).unwrap();
    q.forward_prepadded_direct_into(padded, act, &mut direct, &mut scratch).unwrap();
    (fast, direct)
}

fn positions(padded: &Tensor) -> usize {
    let [_, _, ph, pw] = padded.shape().dims();
    (ph - 2) * (pw - 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bitwise parity for 16 or 32 output channels per group, 1–2 groups,
    /// batch 1–3, 4- and 8-bit weights, on padded planes from 3×3 (one
    /// output position) to 18×18 (past the lane crossover).
    #[test]
    fn lane_kernel_matches_direct_loop_bitwise(
        cout_idx in 0usize..2,
        groups in 1usize..=2,
        cin_per_group in 1usize..=5,
        n in 1usize..=3,
        ph in 3usize..=18,
        pw in 3usize..=18,
        wb_idx in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let cout_per_group = [16usize, 32][cout_idx];
        let weight_bits = [4u8, 8][wb_idx];
        let mut rng = seeded_rng(seed);
        let conv = he_conv2d(
            cin_per_group * groups,
            cout_per_group * groups,
            ConvGeom::new(3, 1, 1),
            groups,
            &mut rng,
        )
        .unwrap();
        let padded = uniform_tensor([n, cin_per_group * groups, ph, pw], -1.0, 1.0, &mut rng);
        let q = QConv2d::from_conv_with_kernel(&conv, weight_bits, KernelKind::Plane).unwrap();
        let act = QParams::from_abs_max(1.0, 8);
        let kernel = q.int_kernel(act, positions(&padded));
        prop_assert!(kernel == "lane" || kernel == "plane", "unexpected kernel {kernel}");
        let (fast, direct) = both(&q, &padded, act);
        prop_assert_eq!(fast.shape(), direct.shape());
        prop_assert_eq!(
            fast.data(),
            direct.data(),
            "{kernel}: {n}x{}x{ph}x{pw} -> {} channels, {groups} groups, w{weight_bits}",
            cin_per_group * groups,
            cout_per_group * groups
        );
    }
}

/// The dispatch covers both sides of the crossover: the smallest planes
/// run the lane kernel and the largest the plane kernel, each bitwise equal
/// to the direct loop.
#[test]
fn dispatch_crosses_from_lane_to_plane_with_plane_size() {
    let mut rng = seeded_rng(11);
    let conv = he_conv2d(16, 16, ConvGeom::new(3, 1, 1), 1, &mut rng).unwrap();
    let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Plane).unwrap();
    let act = QParams::from_abs_max(1.0, 8);
    let mut seen = Vec::new();
    for side in [4, 6, 10, 18, 34] {
        let padded = uniform_tensor([1, 16, side, side], -1.0, 1.0, &mut rng);
        let kernel = q.int_kernel(act, positions(&padded));
        let (fast, direct) = both(&q, &padded, act);
        assert_eq!(fast.data(), direct.data(), "{kernel} at {side}x{side}");
        seen.push(kernel);
    }
    assert_eq!(seen.first(), Some(&"lane"), "{seen:?}");
    assert_eq!(seen.last(), Some(&"plane"), "{seen:?}");
}

/// Tail tiles: planes whose position count is not a multiple of the
/// 4-position tile, including one-column planes where a tile spans four
/// rows and a clamped tail repeats the last position.
#[test]
fn lane_kernel_handles_tail_tiles_and_thin_planes() {
    let mut rng = seeded_rng(13);
    let conv = he_conv2d(6, 16, ConvGeom::new(3, 1, 1), 1, &mut rng).unwrap();
    let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Plane).unwrap();
    let act = QParams::from_abs_max(1.0, 8);
    for (ph, pw) in [(3, 3), (4, 3), (12, 3), (3, 12), (5, 7), (7, 4), (9, 9)] {
        let padded = uniform_tensor([2, 6, ph, pw], -1.0, 1.0, &mut rng);
        assert_eq!(q.int_kernel(act, positions(&padded)), "lane", "{ph}x{pw}");
        let (fast, direct) = both(&q, &padded, act);
        assert_eq!(fast.data(), direct.data(), "{ph}x{pw}");
    }
}

/// A layer whose accumulators reach the largest sums allowed: every
/// weight quantizes to the 8-bit maximum and every activation to the
/// 12-bit maximum, so each output is `K * 127 * 2047`. With 7 input
/// channels (`K = 63`) that is 16,378,047, just under `2^24`, and the lane
/// kernel runs; with 8 (`K = 72`) the bound is exceeded and the layer
/// leaves the f32 kernels. Both stay bitwise equal to the direct loop.
#[test]
fn lane_kernel_is_exact_at_the_f32_bound() {
    let act = QParams::from_abs_max(1.0, 12);
    for (c_in, expect) in [(7, "lane"), (8, "im2col-gemm")] {
        let mut conv = Conv2d::zeros(c_in, 16, ConvGeom::new(3, 1, 1)).unwrap();
        conv.weight_mut().data_mut().fill(0.5);
        conv.bias_mut().fill(0.25);
        let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Plane).unwrap();
        let padded = Tensor::filled([2, c_in, 6, 5], 1.0);
        assert_eq!(q.int_kernel(act, positions(&padded)), expect, "c_in {c_in}");
        let (fast, direct) = both(&q, &padded, act);
        assert_eq!(fast.data(), direct.data(), "c_in {c_in}");
        // The reduction really reaches the bound: one output's integer sum.
        let sum = (c_in * 9 * 127 * 2047) as f32;
        let os = q.weight_scales()[0] * act.scale();
        assert_eq!(fast.data()[0], sum * os + 0.25, "c_in {c_in}");
    }
}

/// Layers the lane kernel cannot tile (output channels per group not a
/// multiple of 16) or built on the direct loop never report it.
#[test]
fn lane_kernel_needs_whole_channel_tiles() {
    let mut rng = seeded_rng(12);
    let act = QParams::from_abs_max(1.0, 8);
    let narrow = he_conv2d(8, 8, ConvGeom::new(3, 1, 1), 1, &mut rng).unwrap();
    let q = QConv2d::from_conv_with_kernel(&narrow, 8, KernelKind::Plane).unwrap();
    assert_eq!(q.int_kernel(act, 4), "plane");
    let wide = he_conv2d(16, 16, ConvGeom::new(3, 1, 1), 1, &mut rng).unwrap();
    let direct = QConv2d::from_conv(&wide, 8).unwrap();
    assert_eq!(direct.int_kernel(act, 4), "direct");
    let strided = he_conv2d(16, 16, ConvGeom::new(3, 2, 1), 1, &mut rng).unwrap();
    let q = QConv2d::from_conv_with_kernel(&strided, 8, KernelKind::Im2colGemm).unwrap();
    assert_eq!(q.int_kernel(act, 4), "im2col-gemm");
}
