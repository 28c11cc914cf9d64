//! Spatial padding in the three modes the paper evaluates as *block padding*
//! (§II-F, Figure 6): zero, replicate and reflect.
//!
//! On an FPGA, block padding is the line buffer's border and costs nothing;
//! here it is a copy that every block of a fused chain pays once per conv
//! stage, so [`pad2d_asym_into`] works row by row: one source-row lookup,
//! one `fill` or row copy, and per-element resolution only for the border
//! columns.

use crate::{Tensor, TensorError};

/// How out-of-bounds pixels are synthesised when padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PadMode {
    /// Pad with zeros (the paper's default block padding).
    #[default]
    Zero,
    /// Copy the boundary pixel outwards.
    Replicate,
    /// Mirror around the boundary pixel (the boundary itself is the axis and
    /// is not repeated), matching PyTorch `ReflectionPad2d`.
    Reflect,
}

impl PadMode {
    /// All modes, in the order Figure 6 reports them.
    pub const ALL: [PadMode; 3] = [PadMode::Zero, PadMode::Replicate, PadMode::Reflect];

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            PadMode::Zero => "zero",
            PadMode::Replicate => "replicate",
            PadMode::Reflect => "reflect",
        }
    }
}

/// Maps a possibly out-of-range coordinate to a source coordinate, or `None`
/// when the mode synthesises a zero.
#[inline]
fn resolve(coord: isize, len: usize, mode: PadMode) -> Option<usize> {
    if coord >= 0 && (coord as usize) < len {
        return Some(coord as usize);
    }
    match mode {
        PadMode::Zero => None,
        PadMode::Replicate => Some(coord.clamp(0, len as isize - 1) as usize),
        PadMode::Reflect => {
            if len == 1 {
                return Some(0);
            }
            // Reflect with period 2*(len-1), boundary not repeated.
            let period = 2 * (len as isize - 1);
            let mut c = coord.rem_euclid(period);
            if c >= len as isize {
                c = period - c;
            }
            Some(c as usize)
        }
    }
}

/// Pads a tensor spatially by `(ph_top, ph_bottom, pw_left, pw_right)`.
///
/// Asymmetric padding is required by block convolution when the paper's
/// Equation 2 yields asymmetric block padding (e.g. strided layers).
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] when reflect padding exceeds
/// what the input size supports (`pad >= len` has no defined reflection),
/// or when replicate or reflect padding pads a side of an empty spatial
/// dimension (there is no source pixel to copy). Zero padding of an empty
/// dimension is all padding and succeeds.
///
/// # Examples
///
/// ```
/// use bconv_tensor::{Tensor, pad::{pad2d_asym, PadMode}};
/// let t = Tensor::filled([1, 1, 2, 2], 3.0);
/// let p = pad2d_asym(&t, 1, 1, 1, 1, PadMode::Zero)?;
/// assert_eq!(p.shape().dims(), [1, 1, 4, 4]);
/// assert_eq!(p.at(0, 0, 0, 0), 0.0);
/// assert_eq!(p.at(0, 0, 1, 1), 3.0);
/// # Ok::<(), bconv_tensor::TensorError>(())
/// ```
pub fn pad2d_asym(
    input: &Tensor,
    ph_top: usize,
    ph_bottom: usize,
    pw_left: usize,
    pw_right: usize,
    mode: PadMode,
) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([0, 0, 0, 0]);
    pad2d_asym_into(input, ph_top, ph_bottom, pw_left, pw_right, mode, &mut out)?;
    Ok(out)
}

/// [`pad2d_asym`] into a caller-provided tensor, reusing its allocation
/// (`out` is reshaped to fit). The scratch-buffer variant block executors
/// call once per block.
///
/// The copy runs row by row: each output row resolves its source row once,
/// a zero-padded row is one `fill`, the interior is one row copy, and only
/// the `pw_left + pw_right` border columns resolve per element (zero
/// padding fills them, and fills the rows above and below the map in one
/// go). Every output element is a copy of one input element (or a zero),
/// so the result is bitwise that of resolving each element on its own.
///
/// # Errors
///
/// See [`pad2d_asym`].
pub fn pad2d_asym_into(
    input: &Tensor,
    ph_top: usize,
    ph_bottom: usize,
    pw_left: usize,
    pw_right: usize,
    mode: PadMode,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let [n, c, h, w] = input.shape().dims();
    check_pads(h, w, ph_top, ph_bottom, pw_left, pw_right, mode).map_err(|why| {
        TensorError::invalid(format!(
            "{} padding (top {ph_top}, bottom {ph_bottom}, left {pw_left}, right {pw_right}) \
             of a {h}x{w} map: {why}",
            mode.name()
        ))
    })?;
    let oh = h + ph_top + ph_bottom;
    let ow = w + pw_left + pw_right;
    out.reset([n, c, oh, ow]);
    if h == 0 || w == 0 {
        // No source pixels: only zero padding gets here with a non-empty
        // output, and every element of it is padding.
        out.data_mut().fill(0.0);
        return Ok(());
    }
    let planes = input.data().chunks_exact(h * w).zip(out.data_mut().chunks_exact_mut(oh * ow));
    for (src, dst) in planes {
        if mode == PadMode::Zero {
            // The padding rows above and below the map are one fill each.
            let (top, rest) = dst.split_at_mut(ph_top * ow);
            let (mid, bottom) = rest.split_at_mut(h * ow);
            top.fill(0.0);
            bottom.fill(0.0);
            for (drow, srow) in mid.chunks_exact_mut(ow).zip(src.chunks_exact(w)) {
                let (left, rest) = drow.split_at_mut(pw_left);
                let (interior, right) = rest.split_at_mut(w);
                left.fill(0.0);
                copy_row(interior, srow);
                right.fill(0.0);
            }
            continue;
        }
        for (hi, drow) in dst.chunks_exact_mut(ow).enumerate() {
            let Some(sh) = resolve(hi as isize - ph_top as isize, h, mode) else {
                drow.fill(0.0);
                continue;
            };
            let srow = &src[sh * w..(sh + 1) * w];
            let (left, rest) = drow.split_at_mut(pw_left);
            let (interior, right) = rest.split_at_mut(w);
            copy_row(interior, srow);
            for (j, v) in left.iter_mut().enumerate() {
                *v = resolve(j as isize - pw_left as isize, w, mode).map_or(0.0, |sw| srow[sw]);
            }
            for (j, v) in right.iter_mut().enumerate() {
                *v = resolve((w + j) as isize, w, mode).map_or(0.0, |sw| srow[sw]);
            }
        }
    }
    Ok(())
}

/// Copies one block row. An element loop rather than `copy_from_slice`:
/// block rows are a few to a few dozen floats, where the inlined vector
/// copy beats a `memcpy` call (16×8×8 zero padding: 1.1 → 0.4 µs on a
/// 2-vCPU AVX-512 host).
#[inline]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s;
    }
}

/// Validates padding amounts against the input's spatial size, returning
/// why they are rejected: replicate and reflect synthesise border pixels
/// from source pixels, so a padded side of an empty axis has nothing to
/// copy, and reflection needs `pad < len`. Zero padding accepts any amount.
fn check_pads(
    h: usize,
    w: usize,
    ph_top: usize,
    ph_bottom: usize,
    pw_left: usize,
    pw_right: usize,
    mode: PadMode,
) -> Result<(), &'static str> {
    if mode == PadMode::Zero {
        return Ok(());
    }
    if (h == 0 && ph_top + ph_bottom > 0) || (w == 0 && pw_left + pw_right > 0) {
        return Err("a padded side of an empty spatial dimension has no source pixels");
    }
    let (max_h, max_w) = (ph_top.max(ph_bottom), pw_left.max(pw_right));
    if mode == PadMode::Reflect && ((h > 0 && max_h >= h) || (w > 0 && max_w >= w)) {
        return Err("reflect padding must be smaller than the spatial dims");
    }
    Ok(())
}

/// Symmetric spatial padding by `(ph, pw)` on each side.
///
/// # Errors
///
/// See [`pad2d_asym`].
pub fn pad2d(input: &Tensor, ph: usize, pw: usize, mode: PadMode) -> Result<Tensor, TensorError> {
    pad2d_asym(input, ph, ph, pw, pw, mode)
}

/// Backward pass of [`pad2d_asym`]: scatter-adds a gradient w.r.t. the
/// padded tensor back onto the unpadded input.
///
/// Padding is linear, so its adjoint routes each padded-pixel gradient to
/// the source pixel that produced it (zero padding drops it, replicate and
/// reflect accumulate onto boundary pixels). Used by the training crate to
/// backpropagate through *block padding* in all three modes of Figure 6.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `grad_padded` is not the
/// padded shape of `[n, c, h, w]` = `input_dims`, and the forward pass's
/// [`TensorError::InvalidParameter`] for padding it rejects.
pub fn pad2d_backward(
    grad_padded: &Tensor,
    input_dims: [usize; 4],
    ph_top: usize,
    ph_bottom: usize,
    pw_left: usize,
    pw_right: usize,
    mode: PadMode,
) -> Result<Tensor, TensorError> {
    let [n, c, h, w] = input_dims;
    let [gn, gc, gh, gw] = grad_padded.shape().dims();
    if gn != n || gc != c || gh != h + ph_top + ph_bottom || gw != w + pw_left + pw_right {
        return Err(TensorError::shape_mismatch(
            "pad2d_backward",
            format!("[{n},{c},{},{}]", h + ph_top + ph_bottom, w + pw_left + pw_right),
            format!("[{gn},{gc},{gh},{gw}]"),
        ));
    }
    check_pads(h, w, ph_top, ph_bottom, pw_left, pw_right, mode).map_err(|why| {
        TensorError::invalid(format!(
            "pad2d_backward, {} padding of a {h}x{w} map: {why}",
            mode.name()
        ))
    })?;
    let mut grad = Tensor::zeros(input_dims);
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..gh {
                let src_h = resolve(hi as isize - ph_top as isize, h, mode);
                for wi in 0..gw {
                    let src_w = resolve(wi as isize - pw_left as isize, w, mode);
                    if let (Some(sh), Some(sw)) = (src_h, src_w) {
                        *grad.at_mut(ni, ci, sh, sw) += grad_padded.at(ni, ci, hi, wi);
                    }
                }
            }
        }
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq3() -> Tensor {
        // 1x1x3x3 with values 0..9.
        Tensor::from_fn(1, 3, 3, |_, h, w| (h * 3 + w) as f32)
    }

    #[test]
    fn zero_padding_surrounds_with_zeros() {
        let p = pad2d(&seq3(), 1, 1, PadMode::Zero).unwrap();
        assert_eq!(p.shape().dims(), [1, 1, 5, 5]);
        for i in 0..5 {
            assert_eq!(p.at(0, 0, 0, i), 0.0);
            assert_eq!(p.at(0, 0, 4, i), 0.0);
            assert_eq!(p.at(0, 0, i, 0), 0.0);
            assert_eq!(p.at(0, 0, i, 4), 0.0);
        }
        assert_eq!(p.at(0, 0, 1, 1), 0.0 + 0.0); // original (0,0)
        assert_eq!(p.at(0, 0, 3, 3), 8.0);
    }

    #[test]
    fn replicate_padding_copies_boundary() {
        let p = pad2d(&seq3(), 1, 1, PadMode::Replicate).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 0.0); // corner copies (0,0)
        assert_eq!(p.at(0, 0, 0, 2), 1.0); // top copies row 0
        assert_eq!(p.at(0, 0, 4, 4), 8.0); // corner copies (2,2)
        assert_eq!(p.at(0, 0, 2, 0), 3.0); // left copies column 0
    }

    #[test]
    fn reflect_padding_mirrors_without_repeating_boundary() {
        // Row values 0 1 2 reflect-padded by 1 -> 1 0 1 2 1.
        let p = pad2d(&seq3(), 1, 1, PadMode::Reflect).unwrap();
        assert_eq!(p.at(0, 0, 1, 0), 1.0);
        assert_eq!(p.at(0, 0, 1, 4), 1.0);
        // Column direction: rows 0,3,6 -> padded col values 3,0,3,6,3.
        assert_eq!(p.at(0, 0, 0, 1), 3.0);
        assert_eq!(p.at(0, 0, 4, 1), 3.0);
    }

    #[test]
    fn reflect_rejects_padding_wider_than_input() {
        let t = Tensor::filled([1, 1, 2, 2], 1.0);
        assert!(pad2d(&t, 2, 0, PadMode::Reflect).is_err());
        assert!(pad2d(&t, 1, 1, PadMode::Reflect).is_ok());
    }

    #[test]
    fn asymmetric_padding_shapes() {
        let p = pad2d_asym(&seq3(), 0, 2, 1, 0, PadMode::Zero).unwrap();
        assert_eq!(p.shape().dims(), [1, 1, 5, 4]);
        // Top row is original row 0 shifted right by 1.
        assert_eq!(p.at(0, 0, 0, 1), 0.0);
        assert_eq!(p.at(0, 0, 0, 2), 1.0);
    }

    #[test]
    fn single_pixel_reflect_degenerates_to_replicate() {
        let t = Tensor::filled([1, 1, 1, 1], 5.0);
        // len == 1: reflection is defined as the pixel itself.
        let p = pad2d(&t, 0, 0, PadMode::Reflect).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 5.0);
    }

    #[test]
    fn pad_backward_zero_crops_the_gradient() {
        let grad_padded = Tensor::filled([1, 1, 5, 5], 1.0);
        let g = pad2d_backward(&grad_padded, [1, 1, 3, 3], 1, 1, 1, 1, PadMode::Zero).unwrap();
        // Every interior pixel receives exactly its own gradient.
        assert_eq!(g.data(), &[1.0; 9]);
    }

    #[test]
    fn pad_backward_replicate_accumulates_on_boundary() {
        let grad_padded = Tensor::filled([1, 1, 5, 5], 1.0);
        let g = pad2d_backward(&grad_padded, [1, 1, 3, 3], 1, 1, 1, 1, PadMode::Replicate).unwrap();
        // Corner pixels receive their own + 3 replicated gradients.
        assert_eq!(g.at(0, 0, 0, 0), 4.0);
        assert_eq!(g.at(0, 0, 0, 1), 2.0);
        assert_eq!(g.at(0, 0, 1, 1), 1.0);
        // Total gradient is conserved.
        assert_eq!(g.data().iter().sum::<f32>(), 25.0);
    }

    #[test]
    fn pad_backward_reflect_conserves_gradient_mass() {
        let grad_padded = Tensor::filled([1, 1, 5, 5], 1.0);
        let g = pad2d_backward(&grad_padded, [1, 1, 3, 3], 1, 1, 1, 1, PadMode::Reflect).unwrap();
        assert_eq!(g.data().iter().sum::<f32>(), 25.0);
        // Reflection maps each padded row/col onto interior index 1, so the
        // centre pixel accumulates 3x3 contributions while corners keep 1.
        assert_eq!(g.at(0, 0, 1, 1), 9.0);
        assert_eq!(g.at(0, 0, 0, 0), 1.0);
    }

    #[test]
    fn pad_backward_shape_mismatch_errors() {
        let grad = Tensor::zeros([1, 1, 4, 4]);
        assert!(pad2d_backward(&grad, [1, 1, 3, 3], 1, 1, 1, 1, PadMode::Zero).is_err());
    }

    #[test]
    fn empty_spatial_dims_are_typed_errors_for_copying_modes() {
        // A padded side of an empty axis has no pixel to replicate or
        // reflect; zero padding is all padding.
        let t = Tensor::zeros([1, 1, 0, 4]);
        for mode in [PadMode::Replicate, PadMode::Reflect] {
            let err = pad2d(&t, 1, 1, mode).unwrap_err();
            assert!(matches!(err, TensorError::InvalidParameter { .. }), "{mode:?}: {err:?}");
        }
        let p = pad2d(&t, 1, 1, PadMode::Zero).unwrap();
        assert_eq!(p.shape().dims(), [1, 1, 2, 6]);
        assert!(p.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_width_is_a_typed_error_for_copying_modes() {
        let t = Tensor::zeros([2, 3, 4, 0]);
        for mode in [PadMode::Replicate, PadMode::Reflect] {
            assert!(pad2d_asym(&t, 0, 0, 0, 1, mode).is_err(), "{mode:?}");
            // Padding only the non-empty axis leaves zero-width rows.
            let p = pad2d_asym(&t, 1, 1, 0, 0, mode).unwrap();
            assert_eq!(p.shape().dims(), [2, 3, 6, 0]);
        }
        let p = pad2d_asym(&t, 0, 0, 2, 0, PadMode::Zero).unwrap();
        assert_eq!(p.shape().dims(), [2, 3, 4, 2]);
        assert!(p.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pad_backward_rejects_what_forward_rejects() {
        let grad = Tensor::zeros([1, 1, 2, 2]);
        assert!(pad2d_backward(&grad, [1, 1, 0, 2], 1, 1, 0, 0, PadMode::Replicate).is_err());
    }

    #[test]
    fn pad_mode_names() {
        assert_eq!(PadMode::ALL.map(|m| m.name()), ["zero", "replicate", "reflect"]);
    }
}
