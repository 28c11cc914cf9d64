//! Property-based parity between the conv kernels.
//!
//! The im2col+GEMM kernel must agree with the direct loop across the
//! whole geometry space the paper's networks exercise: arbitrary
//! stride/padding, grouped convolution including the depthwise extreme,
//! and 1×1 pointwise layers. The tolerance is 1e-4 *relative* — in
//! practice the kernels agree bitwise (same accumulation order), and the
//! suite asserts that too on the drawn cases so a regression in either
//! property is caught.
//!
//! The plane kernel covers 3×3 stride-1 layers; its suites assert bitwise
//! equality with the direct loop outright.

use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::{ConvScratch, KernelKind};
use bconv_tensor::pad::{pad2d, PadMode};
use bconv_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng;

/// Runs `conv` on `input` through one kernel implementation.
fn run_kernel(kind: KernelKind, conv: &Conv2d, input: &Tensor) -> Tensor {
    let p = conv.geom().padding;
    let padded = pad2d(input, p, p, PadMode::Zero).unwrap();
    let mut out = Tensor::default();
    let mut scratch = ConvScratch::new();
    conv.forward_prepadded_into(&padded, kind, &mut out, &mut scratch).unwrap();
    out
}

/// Max relative deviation of `a` from `b` (scaled by `b`'s magnitude).
fn rel_err(a: &Tensor, b: &Tensor) -> f32 {
    let mag = b.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
    a.max_abs_diff(b).unwrap() / mag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense convolution, arbitrary stride/padding/kernel geometry.
    #[test]
    fn gemm_matches_direct_dense(
        h in 4usize..20,
        w in 4usize..20,
        c_in in 1usize..5,
        c_out in 1usize..7,
        k in 1usize..5,
        s in 1usize..3,
        p in 0usize..3,
        seed in 0u64..10_000,
    ) {
        prop_assume!(h + 2 * p >= k && w + 2 * p >= k);
        let mut rng = seeded_rng(seed);
        let conv = he_conv2d(c_in, c_out, ConvGeom::new(k, s, p), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, c_in, h, w], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &conv, &input);
        let gemm = run_kernel(KernelKind::Im2colGemm, &conv, &input);
        prop_assert_eq!(direct.shape(), gemm.shape());
        let err = rel_err(&gemm, &direct);
        prop_assert!(err < 1e-4, "kernels diverged: rel err {err}");
        // Stronger implementation property: same accumulation order.
        prop_assert_eq!(direct.data(), gemm.data());
    }

    /// Grouped convolution, including the depthwise extreme
    /// (`groups == c_in`) of MobileNet-V1.
    #[test]
    fn gemm_matches_direct_grouped(
        h in 4usize..16,
        w in 4usize..16,
        cpg in 1usize..3,     // input channels per group
        mpg in 1usize..4,     // output channels per group
        groups in 1usize..5,
        k in 1usize..4,
        s in 1usize..3,
        seed in 0u64..10_000,
    ) {
        let p = k / 2;
        prop_assume!(h + 2 * p >= k && w + 2 * p >= k);
        let (c_in, c_out) = (cpg * groups, mpg * groups);
        let mut rng = seeded_rng(seed ^ 0x9E37);
        let conv = he_conv2d(c_in, c_out, ConvGeom::new(k, s, p), groups, &mut rng).unwrap();
        let input = uniform_tensor([1, c_in, h, w], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &conv, &input);
        let gemm = run_kernel(KernelKind::Im2colGemm, &conv, &input);
        let err = rel_err(&gemm, &direct);
        prop_assert!(err < 1e-4, "grouped kernels diverged: rel err {err}");
    }

    /// 1×1 pointwise convolution (paper §II-C: blocking-invariant) over a
    /// batch, where im2col degenerates to a plain channel matmul.
    #[test]
    fn gemm_matches_direct_pointwise(
        n in 1usize..3,
        h in 1usize..12,
        w in 1usize..12,
        c_in in 1usize..9,
        c_out in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed ^ 0x5D1E);
        let conv = he_conv2d(c_in, c_out, ConvGeom::new(1, 1, 0), 1, &mut rng).unwrap();
        let input = uniform_tensor([n, c_in, h, w], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &conv, &input);
        let gemm = run_kernel(KernelKind::Im2colGemm, &conv, &input);
        let err = rel_err(&gemm, &direct);
        prop_assert!(err < 1e-4, "pointwise kernels diverged: rel err {err}");
        prop_assert_eq!(direct.data(), gemm.data());
    }

    /// Plane kernel, dense and grouped (including depthwise) 3×3
    /// stride-1 layers over a batch, with non-square maps down to a
    /// single output row or column and single-channel ends.
    #[test]
    fn plane_matches_direct_bitwise(
        n in 1usize..4,
        h in 1usize..14,
        w in 1usize..14,
        cpg in 1usize..4,     // input channels per group
        mpg in 1usize..4,     // output channels per group
        groups in 1usize..4,
        p in 0usize..2,
        seed in 0u64..10_000,
    ) {
        prop_assume!(h + 2 * p >= 3 && w + 2 * p >= 3);
        let (c_in, c_out) = (cpg * groups, mpg * groups);
        let mut rng = seeded_rng(seed ^ 0x91A4);
        let mut conv = he_conv2d(c_in, c_out, ConvGeom::new(3, 1, p), groups, &mut rng).unwrap();
        for b in conv.bias_mut() {
            *b = rng.gen_range(-0.5f32..0.5);
        }
        let input = uniform_tensor([n, c_in, h, w], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &conv, &input);
        let plane = run_kernel(KernelKind::Plane, &conv, &input);
        prop_assert_eq!(direct.shape(), plane.shape());
        prop_assert_eq!(direct.data(), plane.data());
    }

    /// Plane kernel at the channel extremes: one input channel fanning out
    /// (VDSR's first layer) or many reducing to one (its output layer),
    /// on maps whose output is a single row or a single column.
    #[test]
    fn plane_matches_direct_bitwise_at_channel_extremes(
        n in 1usize..4,
        len in 1usize..40,
        wide in prop::sample::select(vec![false, true]),
        c in 1usize..20,
        fan_out in prop::sample::select(vec![false, true]),
        seed in 0u64..10_000,
    ) {
        let (c_in, c_out) = if fan_out { (1, c) } else { (c, 1) };
        // Padded 3 × (len + 2) or (len + 2) × 3: one output row or column.
        let (h, w) = if wide { (1, len) } else { (len, 1) };
        let mut rng = seeded_rng(seed ^ 0x3E11);
        let conv = he_conv2d(c_in, c_out, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([n, c_in, h, w], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &conv, &input);
        let plane = run_kernel(KernelKind::Plane, &conv, &input);
        prop_assert_eq!(direct.shape(), plane.shape());
        prop_assert_eq!(direct.data(), plane.data());
        // And through an unpadded valid convolution: exactly one output
        // row or column.
        let valid = he_conv2d(c_in, c_out, ConvGeom::new(3, 1, 0), 1, &mut rng).unwrap();
        let (vh, vw) = if wide { (3, len + 2) } else { (len + 2, 3) };
        let input = uniform_tensor([n, c_in, vh, vw], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &valid, &input);
        let plane = run_kernel(KernelKind::Plane, &valid, &input);
        let [_, _, oh, ow] = plane.shape().dims();
        prop_assert_eq!(if wide { oh } else { ow }, 1);
        prop_assert_eq!(direct.data(), plane.data());
    }

    /// A reused scratch carries no state between calls: convolving two
    /// different layers back-to-back through one scratch matches fresh
    /// runs.
    #[test]
    fn scratch_reuse_is_stateless(
        h in 4usize..12,
        w in 4usize..12,
        c1 in 1usize..4,
        c2 in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed ^ 0xC0DE);
        let conv_a = he_conv2d(c1, c2, ConvGeom::same(3), 1, &mut rng).unwrap();
        let conv_b = he_conv2d(c2, c1, ConvGeom::same(1), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, c1, h, w], -1.0, 1.0, &mut rng);

        let fresh_a = run_kernel(KernelKind::Im2colGemm, &conv_a, &input);
        let fresh_b = run_kernel(KernelKind::Im2colGemm, &conv_b, &fresh_a);

        let mut scratch = ConvScratch::new();
        let mut out = Tensor::default();
        let pa = pad2d(&input, 1, 1, PadMode::Zero).unwrap();
        conv_a.forward_prepadded_into(&pa, KernelKind::Im2colGemm, &mut out, &mut scratch).unwrap();
        prop_assert_eq!(out.data(), fresh_a.data());
        let reused_a = out.clone();
        conv_b
            .forward_prepadded_into(&reused_a, KernelKind::Im2colGemm, &mut out, &mut scratch)
            .unwrap();
        prop_assert_eq!(out.data(), fresh_b.data());
    }
}
