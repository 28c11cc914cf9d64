//! The integer fast path: the quantized counterpart of
//! [`bconv_tensor::kernel::Im2colGemmKernel`].
//!
//! The direct loop in [`crate::qconv`] pays seven nested loops of strided
//! reads per output element. This module replaces it with three kernels
//! over weights packed once when the [`QConv2d`] is built
//! ([`QPackedWeights`], never repacked per run):
//!
//! 1. the **lane kernel** (`qlane_conv`), for 3×3 stride-1 layers with a
//!    multiple of 16 output channels per group on small planes. It
//!    vectorises over output channels: a register tile of 4 output
//!    positions × 16 channels of f32 accumulators runs the whole
//!    `(c_in, tap)` reduction, one activation broadcast times one weight
//!    vector per step. Blocks of a few pixels — the deep stages of a
//!    blocked network — keep every vector lane busy.
//! 2. the **plane kernel** (`qplane_conv`), for the other 3×3 stride-1
//!    layers with `K <= PLANE_MAX_KK`. It vectorises over output
//!    positions: per output channel, one shift-and-add sweep per input
//!    channel over a padded-width accumulator plane, with no patch matrix.
//! 3. the **im2col + widening GEMM** for everything else: an `i16`
//!    position-major patch matrix (each output position's `K` taps
//!    contiguous, in the direct loop's `(c_in, kh, kw)` order) built per
//!    block in reusable scratch, and an `i16×i16→i32` dot-product
//!    microkernel — the idiom LLVM lowers to `pmaddwd`-style instructions —
//!    with an `i64` fallback for layers whose reduction could overflow
//!    32 bits.
//!
//! # Dispatch
//!
//! `qim2col_gemm` picks the kernel per call from the layer, its activation
//! range and the plane size (`select_int_kernel`): the two f32 kernels
//! need 3×3 stride-1 and the exactness bound below; among those, the lane
//! kernel takes lane-eligible layers whose output plane has at most
//! `LANE_MAX_POSITIONS` positions (beyond that, the plane kernel's
//! whole-row sweeps win), the plane kernel takes the rest up to
//! `PLANE_MAX_KK`, and the GEMM takes everything else. The rule has no
//! knobs; [`QConv2d::int_kernel`] reports its choice.
//!
//! # Bitwise parity with the direct loop
//!
//! Integer accumulation is exact, so *any* summation order yields the same
//! total as the direct loop's `i64` accumulator provided no intermediate
//! overflows or rounds. Every partial sum is bounded by
//! `K · max|w_q| · qmax_act`. The GEMM accumulates in `i32` when that
//! bound fits `i32` and in `i64` otherwise. The two f32 kernels run only
//! when the bound is below `2^24`: every product and partial sum is then
//! an integer that f32 represents exactly, so each f32 multiply and add is
//! exact in any association. The final rescale
//! `acc as f32 * (w_scale[m] * act_scale) + bias[m]` is the direct loop's
//! expression verbatim, so all paths are bitwise identical — unlike the
//! float kernels, which must preserve accumulation order.

use bconv_tensor::shape::conv_out_dim;
use bconv_tensor::{Tensor, TensorError};

use crate::qconv::{QConv2d, QConvScratch};
use crate::QParams;

/// Quantized weights packed for the integer kernels: row-major `M×K` `i16`
/// rows per group for the GEMM (quantized at the layer's per-channel
/// scales, narrowed from the direct loop's `i32` storage — every
/// representable weight fits `i16` at bitwidths up to 16), the same rows
/// as integer-valued `f32` for the exact-f32 plane kernel, and — for 3×3
/// stride-1 layers with a multiple of 16 output channels per group — an
/// integer-valued `f32` copy in the lane kernel's
/// `[group][16-channel block][c_in][tap][16]` order. Built once at
/// [`QConv2d`] construction.
#[derive(Debug, Clone)]
pub struct QPackedWeights {
    data: Vec<i16>,
    data_f32: Vec<f32>,
    lanes: Vec<f32>,
    max_abs: i32,
}

impl QPackedWeights {
    /// Packs already-quantized weights in [`QConv2d`]'s `[c_out, c_in/g, k,
    /// k]` row-major layout (`dims`), adding the lane-kernel copy when
    /// [`lane_eligible`] holds for the layer.
    pub(crate) fn pack(weight_q: &[i32], dims: [usize; 4], groups: usize, stride: usize) -> Self {
        let mut max_abs = 0i32;
        let mut data = Vec::with_capacity(weight_q.len());
        let mut data_f32 = Vec::with_capacity(weight_q.len());
        for &w in weight_q {
            max_abs = max_abs.max(w.abs());
            data.push(w as i16);
            // Exact: |w| <= 32767 is far inside f32's integer range.
            data_f32.push(w as f32);
        }
        let mut lanes = Vec::new();
        if lane_eligible(dims, groups, stride) {
            let [c_out, cin_per_group, _, _] = dims;
            let cout_per_group = c_out / groups;
            lanes.reserve(weight_q.len());
            for m0 in (0..c_out).step_by(LANE_M) {
                for ci in 0..cin_per_group {
                    for tap in 0..9 {
                        for m in m0..m0 + LANE_M {
                            lanes.push(data_f32[(m * cin_per_group + ci) * 9 + tap]);
                        }
                    }
                }
            }
            debug_assert_eq!(lanes.len(), groups * cout_per_group * cin_per_group * 9);
        }
        Self { data, data_f32, lanes, max_abs }
    }

    /// Largest absolute quantized weight — the tight per-layer factor in
    /// the accumulator-width bound.
    pub fn max_abs(&self) -> i32 {
        self.max_abs
    }

    /// Packed element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no weights are packed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `m × kk` weight rows of one group.
    pub(crate) fn group_rows(&self, grp: usize, m: usize, kk: usize) -> &[i16] {
        &self.data[grp * m * kk..(grp + 1) * m * kk]
    }

    /// The `m × kk` weight rows of one group as integer-valued `f32`.
    pub(crate) fn group_rows_f32(&self, grp: usize, m: usize, kk: usize) -> &[f32] {
        &self.data_f32[grp * m * kk..(grp + 1) * m * kk]
    }

    /// The lane kernel's weights for output channels `m0..m0 + LANE_M`
    /// (`m0` counted across groups), one `[f32; LANE_M]` per `(c_in, tap)`
    /// in reduction order; empty unless the layer is lane-eligible.
    fn lane_block(&self, m0: usize, kk: usize) -> &[[f32; LANE_M]] {
        let block = self.lanes.get(m0 * kk..(m0 + LANE_M) * kk).unwrap_or_default();
        block.as_chunks::<LANE_M>().0
    }
}

/// The integer im2col+GEMM kernel, mirroring the float
/// [`Im2colGemmKernel`](bconv_tensor::kernel::Im2colGemmKernel) behind the
/// same resolved-[`KernelKind`](bconv_tensor::kernel::KernelKind) seam.
#[derive(Debug, Clone, Copy, Default)]
pub struct QIm2colGemmKernel;

impl QIm2colGemmKernel {
    /// Kernel name for reports and plan dumps.
    pub fn name(&self) -> &'static str {
        "im2col-gemm"
    }

    /// Evaluates `qconv` on a pre-padded input through the integer GEMM,
    /// bitwise identical to the direct loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on channel/shape mismatch.
    pub fn forward_prepadded_into(
        &self,
        qconv: &QConv2d,
        padded: &Tensor,
        act_params: QParams,
        out: &mut Tensor,
        scratch: &mut QConvScratch,
    ) -> Result<(), TensorError> {
        qim2col_gemm(qconv, padded, act_params, out, scratch)
    }
}

/// How many partial-sum magnitudes f32 holds exactly: every integer below
/// `2^24` is representable, so integer accumulation carried in f32 lanes is
/// bit-exact as long as `K * max|w_q| * qmax_act` stays under this.
const F32_EXACT_LIMIT: i64 = 1 << 24;

/// Plane-kernel cutover: above this reduction length the dot-product GEMM's
/// `pmaddwd` density wins over the plane kernel's build-free streaming (the
/// plane path re-reads all input planes once per output channel).
const PLANE_MAX_KK: usize = 192;

/// Output channels per lane-kernel register tile: one 512-bit vector of
/// f32 accumulators per output position.
pub(crate) const LANE_M: usize = 16;

/// Output positions per lane-kernel register tile. Four positions × 16
/// channels stay in registers across the whole reduction; an 8 × 16 tile
/// spilled and ran about 7× slower.
const LANE_P: usize = 4;

/// Lane-kernel cutover, in output positions per plane. Measured per block
/// for 16→16 channels on a 2-vCPU AVX-512 host: the lane kernel wins
/// below this (4×4 padded block 7.3 → 1.3 µs, 10×10 14.5 → 9.6 µs) and
/// loses from 16×16 outputs (18×18 padded) up, where the plane kernel's
/// whole-row sweeps amortise their per-channel overhead.
const LANE_MAX_POSITIONS: usize = 144;

/// True when a layer can run the lane kernel at all: 3×3 stride-1 with a
/// whole number of [`LANE_M`]-channel tiles per group. Whether it does also
/// depends on the activation range and the plane size
/// ([`select_int_kernel`]).
fn lane_eligible(dims: [usize; 4], groups: usize, stride: usize) -> bool {
    let [c_out, _, k, _] = dims;
    k == 3 && stride == 1 && groups > 0 && (c_out / groups).is_multiple_of(LANE_M)
}

/// The fast-path kernel a quantized convolution runs on one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntKernel {
    /// Output-channel-lane 3×3 kernel (`qlane_conv`).
    Lane,
    /// Exact-f32 plane shift-and-add 3×3 kernel (`qplane_conv`).
    Plane,
    /// i16 im2col + widening dot-product GEMM, accumulating in `i64`
    /// when `wide` and in `i32` otherwise.
    Gemm {
        /// The reduction bound exceeds `i32`.
        wide: bool,
    },
}

impl IntKernel {
    /// Kernel name for reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            IntKernel::Lane => "lane",
            IntKernel::Plane => "plane",
            IntKernel::Gemm { .. } => "im2col-gemm",
        }
    }
}

/// The dispatch rule of the integer fast path for `q` at activation range
/// `act_params` on a plane of `positions` output positions:
///
/// * both f32 kernels need 3×3 stride-1 and the exactness bound
///   `K * max|w_q| * qmax_act < 2^24`;
/// * the lane kernel takes lane-eligible layers on planes of at most
///   [`LANE_MAX_POSITIONS`] positions;
/// * the plane kernel takes the rest with `K <= PLANE_MAX_KK`;
/// * the GEMM takes everything else, in `i32` lanes whenever the bound
///   fits `i32` and in the `i64` kernel otherwise.
pub(crate) fn select_int_kernel(q: &QConv2d, act_params: QParams, positions: usize) -> IntKernel {
    let [_, cin_per_group, k, _] = q.weight_dims;
    let kk = cin_per_group * k * k;
    // Accumulation bound over any association of the reduction (each
    // partial sum is at most K * max|w_q| * qmax_act in magnitude).
    let bound = kk as i64 * q.packed.max_abs() as i64 * act_params.qmax() as i64;
    let exact_f32 = k == 3 && q.geom.stride == 1 && bound < F32_EXACT_LIMIT;
    if exact_f32 && !q.packed.lanes.is_empty() && positions <= LANE_MAX_POSITIONS {
        IntKernel::Lane
    } else if exact_f32 && kk <= PLANE_MAX_KK {
        IntKernel::Plane
    } else {
        IntKernel::Gemm { wide: bound > i32::MAX as i64 }
    }
}

/// The integer fast path. Dispatches per layer and plane shape
/// ([`select_int_kernel`]) to the lane kernel, the plane kernel or the
/// i16 im2col + widening dot-product GEMM.
///
/// Hot path — performs no allocation once `scratch` has grown to the
/// layer's working size.
pub(crate) fn qim2col_gemm(
    q: &QConv2d,
    padded: &Tensor,
    act_params: QParams,
    out: &mut Tensor,
    scratch: &mut QConvScratch,
) -> Result<(), TensorError> {
    let [n, c_in, ph, pw] = padded.shape().dims();
    q.check_channels("QConv2d prepadded input channels", c_in)?;
    let [c_out, cin_per_group, k, _] = q.weight_dims;
    let s = q.geom.stride;
    let oh = conv_out_dim(ph, k, s, 0)?;
    let ow = conv_out_dim(pw, k, s, 0)?;
    let groups = q.groups;
    let cout_per_group = c_out / groups;
    let kk = cin_per_group * k * k;
    let nn = oh * ow;

    let wide = match select_int_kernel(q, act_params, nn) {
        IntKernel::Lane => return qlane_conv(q, padded, act_params, out, scratch),
        IntKernel::Plane => return qplane_conv(q, padded, act_params, out, scratch),
        IntKernel::Gemm { wide } => wide,
    };
    let QConvScratch { act16, cols, .. } = scratch;

    // Activations are quantized through the same QParams rounding as the
    // direct loop; every value fits i16 (|q| <= qmax <= 32767).
    act16.resize(padded.data().len(), 0);
    for (dst, &v) in act16.iter_mut().zip(padded.data()) {
        *dst = act_params.quantize_value(v) as i16;
    }
    cols.resize(nn * kk, 0);

    let act_scale = act_params.scale();

    out.reset([n, c_out, oh, ow]);
    let oshape = out.shape();
    let odata = out.data_mut();

    for ni in 0..n {
        for grp in 0..groups {
            if k == 1 && s == 1 {
                // Pointwise: the patch matrix is the channel-plane
                // transpose; fill it column-by-column with contiguous
                // plane reads.
                for ci in 0..cin_per_group {
                    let c = grp * cin_per_group + ci;
                    let base = (ni * c_in + c) * ph * pw;
                    let plane = &act16[base..base + nn];
                    for (j, &v) in plane.iter().enumerate() {
                        cols[j * kk + ci] = v;
                    }
                }
            } else {
                // im2col, position-major: output position j's K taps are
                // contiguous, in the direct loop's (ci, kh, kw) tap order.
                // Positions iterate innermost over a hoisted source row so
                // the per-tap-row work is a handful of stores — a
                // `copy_from_slice` per k-tap row costs more in memcpy
                // dispatch than it moves at k == 3.
                for ohi in 0..oh {
                    let prow = &mut cols[ohi * ow * kk..(ohi + 1) * ow * kk];
                    let mut l = 0;
                    for ci in 0..cin_per_group {
                        let c = grp * cin_per_group + ci;
                        for khi in 0..k {
                            let base = ((ni * c_in + c) * ph + (ohi * s + khi)) * pw;
                            let src = &act16[base..base + pw];
                            if k == 3 {
                                for (owi, patch) in prow.chunks_exact_mut(kk).enumerate() {
                                    let b = owi * s;
                                    patch[l] = src[b];
                                    patch[l + 1] = src[b + 1];
                                    patch[l + 2] = src[b + 2];
                                }
                            } else {
                                for (owi, patch) in prow.chunks_exact_mut(kk).enumerate() {
                                    let b = owi * s;
                                    patch[l..l + k].copy_from_slice(&src[b..b + k]);
                                }
                            }
                            l += k;
                        }
                    }
                }
            }
            let mbase = grp * cout_per_group;
            let wgrp = q.packed.group_rows(grp, cout_per_group, kk);
            let c0 = oshape.index(ni, mbase, 0, 0);
            let cdst = &mut odata[c0..c0 + cout_per_group * nn];
            qgemm(
                wgrp,
                cols,
                &q.bias[mbase..mbase + cout_per_group],
                &q.wscales[mbase..mbase + cout_per_group],
                act_scale,
                cdst,
                kk,
                nn,
                wide,
            );
        }
    }
    Ok(())
}

/// The exact-f32 plane kernel for 3×3 stride-1 layers: activations are
/// quantized to **integer-valued f32** and the convolution runs as nine
/// fused shift-and-add sweeps per input channel over accumulators kept in
/// the padded-width plane layout. One contiguous multiply-add spans the
/// whole plane per channel (the `pw - ow` junk columns where windows wrap
/// rows are computed but never extracted), so there is no patch matrix and
/// no horizontal reduction — the two costs that dominate the dot-product
/// GEMM at thin reduction lengths.
///
/// # Bitwise parity with the direct loop
///
/// Caller guarantees `K * max|w_q| * qmax_act < 2^24`: every product and
/// every partial sum (in any association, junk columns included) is then
/// an integer in f32's exact range, each f32 multiply and add is exact,
/// and the accumulated value equals the direct loop's i64 accumulator
/// cast to f32. The rescale `acc * (wscale[m]*act_scale) + bias[m]` is
/// the direct loop's expression verbatim.
fn qplane_conv(
    q: &QConv2d,
    padded: &Tensor,
    act_params: QParams,
    out: &mut Tensor,
    scratch: &mut QConvScratch,
) -> Result<(), TensorError> {
    let QConvScratch { actf, accf, .. } = scratch;
    let [n, c_in, ph, pw] = padded.shape().dims();
    let [c_out, cin_per_group, k, _] = q.weight_dims;
    debug_assert_eq!(k, 3);
    let oh = conv_out_dim(ph, k, 1, 0)?;
    let ow = conv_out_dim(pw, k, 1, 0)?;
    let groups = q.groups;
    let cout_per_group = c_out / groups;
    let kk = cin_per_group * 9;
    let plane = ph * pw;
    // Rows `0..oh` of the accumulator plane hold output rows at padded
    // width; the last row needs only `ow` columns.
    let span = (oh - 1) * pw + ow;

    actf.resize(padded.data().len(), 0.0);
    for (dst, &v) in actf.iter_mut().zip(padded.data()) {
        *dst = act_params.quantize_value_f32(v);
    }
    accf.resize(span, 0.0);
    let act_scale = act_params.scale();

    out.reset([n, c_out, oh, ow]);
    let oshape = out.shape();
    let odata = out.data_mut();

    for ni in 0..n {
        for grp in 0..groups {
            let wgrp = q.packed.group_rows_f32(grp, cout_per_group, kk);
            for mo in 0..cout_per_group {
                let m = grp * cout_per_group + mo;
                let wrow = &wgrp[mo * kk..(mo + 1) * kk];
                // The direct loop's rescale expression verbatim.
                let os = q.wscales[m] * act_scale;
                let bi = q.bias[m];
                let acc = &mut accf[..span];
                acc.fill(0.0);
                for ci in 0..cin_per_group {
                    let c = grp * cin_per_group + ci;
                    let base = (ni * c_in + c) * plane;
                    let src = &actf[base..base + plane];
                    let wt = &wrow[ci * 9..ci * 9 + 9];
                    let (w0, w1, w2) = (wt[0], wt[1], wt[2]);
                    let (w3, w4, w5) = (wt[3], wt[4], wt[5]);
                    let (w6, w7, w8) = (wt[6], wt[7], wt[8]);
                    // Three source rows per accumulator element; the
                    // `span + 2` windows end exactly at the plane's edge.
                    let r0 = &src[0..span + 2];
                    let r1 = &src[pw..pw + span + 2];
                    let r2 = &src[2 * pw..2 * pw + span + 2];
                    for (i, a) in acc.iter_mut().enumerate() {
                        *a += w0 * r0[i]
                            + w1 * r0[i + 1]
                            + w2 * r0[i + 2]
                            + w3 * r1[i]
                            + w4 * r1[i + 1]
                            + w5 * r1[i + 2]
                            + w6 * r2[i]
                            + w7 * r2[i + 1]
                            + w8 * r2[i + 2];
                    }
                }
                let o0 = oshape.index(ni, m, 0, 0);
                for ohi in 0..oh {
                    let arow = &acc[ohi * pw..ohi * pw + ow];
                    let dst = &mut odata[o0 + ohi * ow..o0 + (ohi + 1) * ow];
                    for (o, &a) in dst.iter_mut().zip(arow) {
                        *o = a * os + bi;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The output-channel-lane kernel for 3×3 stride-1 layers on small planes:
/// where `qplane_conv` vectorises over the positions of one output
/// channel — idle lanes and a per-`(m, c_in)` sweep setup on a 2×2 or 4×4
/// block — this kernel vectorises over [`LANE_M`] output channels. Each
/// register tile holds [`LANE_P`] output positions × [`LANE_M`] channels
/// of f32 accumulators for the whole `(c_in, tap)` reduction; per tile the
/// positions' 3×3 windows of integer-valued activations are gathered once
/// into a `[c_in][tap][LANE_P]` patch (one contiguous copy per tap when
/// the positions share an output row) that every channel block of the
/// group reuses, and each reduction step is one activation broadcast times
/// one weight vector from [`QPackedWeights`]' lane copy. A tail tile
/// repeats the plane's last position and drops the copies.
///
/// # Bitwise parity with the direct loop
///
/// The caller guarantees the bound of [`select_int_kernel`], so as in
/// `qplane_conv` every product and partial sum is an integer below `2^24`
/// and exact in f32; the scatter to NCHW applies the direct loop's rescale
/// `acc * (wscale[m] * act_scale) + bias[m]` verbatim.
fn qlane_conv(
    q: &QConv2d,
    padded: &Tensor,
    act_params: QParams,
    out: &mut Tensor,
    scratch: &mut QConvScratch,
) -> Result<(), TensorError> {
    let QConvScratch { actf, accf: patch, .. } = scratch;
    let [n, c_in, ph, pw] = padded.shape().dims();
    let [c_out, cin_per_group, _, _] = q.weight_dims;
    let oh = conv_out_dim(ph, 3, 1, 0)?;
    let ow = conv_out_dim(pw, 3, 1, 0)?;
    let cout_per_group = c_out / q.groups;
    let kk = cin_per_group * 9;
    let plane = ph * pw;
    let nn = oh * ow;

    actf.resize(padded.data().len(), 0.0);
    for (dst, &v) in actf.iter_mut().zip(padded.data()) {
        *dst = act_params.quantize_value_f32(v);
    }
    patch.resize(kk * LANE_P, 0.0);
    let act_scale = act_params.scale();
    // Offsets of the nine taps from a window's origin, in `(kh, kw)` order.
    let offs: [usize; 9] = std::array::from_fn(|t| t / 3 * pw + t % 3);

    out.reset([n, c_out, oh, ow]);
    let odata = out.data_mut();

    for ni in 0..n {
        for grp in 0..q.groups {
            let c0 = ni * c_in + grp * cin_per_group;
            let src = &actf[c0 * plane..(c0 + cin_per_group) * plane];
            for j0 in (0..nn).step_by(LANE_P) {
                // Window origins of the tile's positions in the padded
                // plane; the tail repeats the last position.
                let base: [usize; LANE_P] = std::array::from_fn(|p| {
                    let j = (j0 + p).min(nn - 1);
                    (j / ow) * pw + j % ow
                });
                // Positions on one output row read each tap as one
                // contiguous run of the padded row.
                let b0 = base[0];
                let run = base.iter().enumerate().all(|(p, &b)| b == b0 + p);
                let mut rows = patch.as_chunks_mut::<LANE_P>().0.iter_mut();
                for x in src.chunks_exact(plane) {
                    for (&off, t) in offs.iter().zip(rows.by_ref()) {
                        if run {
                            t.copy_from_slice(&x[b0 + off..b0 + off + LANE_P]);
                        } else {
                            *t = std::array::from_fn(|p| x[base[p] + off]);
                        }
                    }
                }
                let xs = patch.as_chunks::<LANE_P>().0;
                for m0 in (grp * cout_per_group..(grp + 1) * cout_per_group).step_by(LANE_M) {
                    let acc = lane_tile(xs, q.packed.lane_block(m0, kk));
                    // The direct loop's rescale expression verbatim.
                    let os: [f32; LANE_M] = std::array::from_fn(|l| q.wscales[m0 + l] * act_scale);
                    let bias = &q.bias[m0..m0 + LANE_M];
                    for (p, a) in acc.iter().enumerate().take(nn - j0) {
                        let o0 = (ni * c_out + m0) * nn + j0 + p;
                        let terms = a.iter().zip(&os).zip(bias);
                        for (l, ((&al, &o), &bi)) in terms.enumerate() {
                            odata[o0 + l * nn] = al * o + bi;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// One register tile of the lane kernel: `acc[p][l] = sum_r x[r][p] *
/// w[r][l]` over the reduction rows `r`, accumulated in `r` order.
#[inline(always)]
fn lane_tile(xs: &[[f32; LANE_P]], ws: &[[f32; LANE_M]]) -> [[f32; LANE_M]; LANE_P] {
    let mut acc = [[0.0f32; LANE_M]; LANE_P];
    for (x, w) in xs.iter().zip(ws) {
        for p in 0..LANE_P {
            for l in 0..LANE_M {
                acc[p][l] += x[p] * w[l];
            }
        }
    }
    acc
}

/// Patch-tile width: how many output positions stay L1-resident while the
/// weight rows stream past them.
const JT: usize = 8;

/// `out[m][j] = dot(w[m], patch[j]) * (wscale[m]*act_scale) + bias[m]`.
///
/// Tiled so `JT` patch rows stay hot in L1 across the whole weight-row
/// sweep; each dot product is a straight widening reduction the
/// auto-vectorizer turns into `pmaddwd`-style lanes.
#[allow(clippy::too_many_arguments)] // flat hot-path signature, no temp structs
fn qgemm(
    w: &[i16],
    cols: &[i16],
    bias: &[f32],
    wscales: &[f32],
    act_scale: f32,
    out: &mut [f32],
    kk: usize,
    nn: usize,
    wide: bool,
) {
    // Monomorphize on the accumulator width: a per-dot branch in the inner
    // loop costs ~15% at thin reduction lengths.
    if wide {
        qgemm_body::<true>(w, cols, bias, wscales, act_scale, out, kk, nn);
    } else {
        qgemm_body::<false>(w, cols, bias, wscales, act_scale, out, kk, nn);
    }
}

#[allow(clippy::too_many_arguments)] // flat hot-path signature, no temp structs
fn qgemm_body<const WIDE: bool>(
    w: &[i16],
    cols: &[i16],
    bias: &[f32],
    wscales: &[f32],
    act_scale: f32,
    out: &mut [f32],
    kk: usize,
    nn: usize,
) {
    let mut jt = 0;
    while jt < nn {
        let jn = JT.min(nn - jt);
        for (mi, orow) in out.chunks_exact_mut(nn).enumerate() {
            let wrow = &w[mi * kk..(mi + 1) * kk];
            // The direct loop's rescale expression verbatim (same operand
            // order), so both kernels produce identical f32 bits.
            let os = wscales[mi] * act_scale;
            let bi = bias[mi];
            for j in jt..jt + jn {
                let patch = &cols[j * kk..(j + 1) * kk];
                let acc = if WIDE {
                    dot_i16_i64(wrow, patch) as f32
                } else {
                    dot_i16_i32(wrow, patch) as f32
                };
                orow[j] = acc * os + bi;
            }
        }
        jt += JT;
    }
}

/// Widening `i16` dot product with `i32` accumulation — exact when the
/// caller has bounded `K * max|w| * max|x|` to `i32` range (any partial
/// sum is then also in range, so vectorized reassociation is safe).
#[inline]
pub(crate) fn dot_i16_i32(a: &[i16], b: &[i16]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// Widening `i16` dot product with `i64` accumulation, for layers whose
/// reduction bound exceeds `i32` (e.g. wide-activation w8a16 layers).
#[inline]
pub(crate) fn dot_i16_i64(a: &[i16], b: &[i16]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i64;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i64 * y as i64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_narrows_and_tracks_max() {
        let p = QPackedWeights::pack(&[3, -7, 0, 32767, -32767], [1, 5, 1, 1], 1, 1);
        assert_eq!(p.max_abs(), 32767);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.group_rows(0, 1, 5), &[3, -7, 0, 32767, -32767]);
        assert!(p.lane_block(0, 5).is_empty(), "a 1x1 layer gets no lane copy");
    }

    #[test]
    fn lane_packing_is_channel_block_then_reduction_order() {
        // Two groups of 16 channels, 2 input channels per group: weight
        // (m, ci, tap) = m * 100 + ci * 10 + tap.
        let dims = [32, 2, 3, 3];
        let w: Vec<i32> = (0..32 * 18).map(|i| i / 18 * 100 + i % 18 / 9 * 10 + i % 9).collect();
        let p = QPackedWeights::pack(&w, dims, 2, 1);
        let kk = 18;
        for m0 in [0, 16] {
            let block = p.lane_block(m0, kk);
            assert_eq!(block.len(), kk);
            for (r, lanes) in block.iter().enumerate() {
                let (ci, tap) = (r / 9, r % 9);
                for (l, &v) in lanes.iter().enumerate() {
                    assert_eq!(v, ((m0 + l) * 100 + ci * 10 + tap) as f32);
                }
            }
        }
        assert!(QPackedWeights::pack(&w, dims, 2, 2).lane_block(0, kk).is_empty(), "strided");
    }

    #[test]
    fn dot_products_agree_across_widths() {
        let a: Vec<i16> = (0..100).map(|i| (i * 37 % 255) as i16 - 127).collect();
        let b: Vec<i16> = (0..100).map(|i| (i * 91 % 255) as i16 - 127).collect();
        assert_eq!(dot_i16_i32(&a, &b) as i64, dot_i16_i64(&a, &b));
    }

    #[test]
    fn i32_bound_is_conservative() {
        // 127*127*k at k = 133,000 stays within i32: the w8a8 path never
        // needs the wide kernel at any realistic reduction length.
        let bound = 133_000i64 * 127 * 127;
        assert!(bound <= i32::MAX as i64);
    }
}
