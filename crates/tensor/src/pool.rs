//! Max / average / global-average pooling.
//!
//! Pooling is central to the paper twice over: the §II-F baselines replace
//! strided convolutions with stride-1 convolution + max pooling, and fixed
//! blocking merges adjacent blocks after every pooling layer (Figure 4a).
//!
//! Fused chains pool every block, so the max and average pools run row by
//! row (see `pool2d_into`): whole output rows fold whole input rows, with
//! the element-wise op sequence of the textbook window loop, and the
//! VGG-style `2×2` stride-2 max pool takes a four-load fast path.

use crate::shape::conv_out_dim;
use crate::{Tensor, TensorError};

/// Max pooling with window `k`, stride `s` and zero implicit padding.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] for degenerate geometry.
///
/// # Examples
///
/// ```
/// use bconv_tensor::{Tensor, pool::max_pool2d};
/// let t = Tensor::from_fn(1, 4, 4, |_, h, w| (h * 4 + w) as f32);
/// let p = max_pool2d(&t, 2, 2)?;
/// assert_eq!(p.shape().dims(), [1, 1, 2, 2]);
/// assert_eq!(p.at(0, 0, 0, 0), 5.0);
/// # Ok::<(), bconv_tensor::TensorError>(())
/// ```
pub fn max_pool2d(input: &Tensor, k: usize, s: usize) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([0, 0, 0, 0]);
    max_pool2d_into(input, k, s, &mut out)?;
    Ok(out)
}

/// [`max_pool2d`] into a caller-provided tensor, reusing its allocation
/// (`out` is reshaped to fit). The scratch-buffer variant block executors
/// call once per block.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] for degenerate geometry.
pub fn max_pool2d_into(
    input: &Tensor,
    k: usize,
    s: usize,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    pool2d_into(input, k, s, PoolKind::Max, out)
}

/// Average pooling with window `k` and stride `s`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] for degenerate geometry.
pub fn avg_pool2d(input: &Tensor, k: usize, s: usize) -> Result<Tensor, TensorError> {
    pool2d(input, k, s, PoolKind::Avg)
}

#[derive(Clone, Copy)]
enum PoolKind {
    Max,
    Avg,
}

fn pool2d(input: &Tensor, k: usize, s: usize, kind: PoolKind) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([0, 0, 0, 0]);
    pool2d_into(input, k, s, kind, &mut out)?;
    Ok(out)
}

/// Row-wise pooling: each output row starts at the fold's identity (`-inf`
/// for max, `0` for average) and folds the window's input rows into it in
/// the same `(kh, kw)` order and with the same `max`/`+` op as a
/// per-element loop, so every output element sees the identical op
/// sequence (NaN and ±0 included) while the inner loop runs along a row.
fn pool2d_into(
    input: &Tensor,
    k: usize,
    s: usize,
    kind: PoolKind,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let [n, c, h, w] = input.shape().dims();
    let oh = conv_out_dim(h, k, s, 0)?;
    let ow = conv_out_dim(w, k, s, 0)?;
    out.reset([n, c, oh, ow]);
    if out.data().is_empty() {
        return Ok(());
    }
    let planes = input.data().chunks_exact(h * w).zip(out.data_mut().chunks_exact_mut(oh * ow));
    for (src, dst) in planes {
        for (ohi, orow) in dst.chunks_exact_mut(ow).enumerate() {
            let rows = &src[ohi * s * w..(ohi * s + k) * w];
            match kind {
                PoolKind::Max if k == 2 && s == 2 => {
                    let (r0, r1) = rows.split_at(w);
                    let pairs = r0.chunks_exact(2).zip(r1.chunks_exact(2));
                    for (o, (a, b)) in orow.iter_mut().zip(pairs) {
                        *o = f32::NEG_INFINITY.max(a[0]).max(a[1]).max(b[0]).max(b[1]);
                    }
                }
                PoolKind::Max => {
                    orow.fill(f32::NEG_INFINITY);
                    for row in rows.chunks_exact(w) {
                        for kwi in 0..k {
                            let taps = row[kwi..].iter().step_by(s);
                            for (o, &v) in orow.iter_mut().zip(taps) {
                                *o = o.max(v);
                            }
                        }
                    }
                }
                PoolKind::Avg => {
                    orow.fill(0.0);
                    for row in rows.chunks_exact(w) {
                        for kwi in 0..k {
                            let taps = row[kwi..].iter().step_by(s);
                            for (o, &v) in orow.iter_mut().zip(taps) {
                                *o += v;
                            }
                        }
                    }
                    let area = (k * k) as f32;
                    for o in orow.iter_mut() {
                        *o /= area;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Global average pooling: collapses each channel map to a single value,
/// producing a `[n, c, 1, 1]` tensor (MobileNet-V1 / ResNet heads).
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    global_avg_pool_into(input, &mut out);
    out
}

/// [`global_avg_pool`] into a caller-provided output tensor (reshaped to
/// `[n, c, 1, 1]`, every element overwritten) — the allocation-free
/// variant for executors that pool buffers.
pub fn global_avg_pool_into(input: &Tensor, out: &mut Tensor) {
    let [n, c, h, w] = input.shape().dims();
    out.reset([n, c, 1, 1]);
    let denom = (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let mut sum = 0.0;
            for hi in 0..h {
                for wi in 0..w {
                    sum += input.at(ni, ci, hi, wi);
                }
            }
            *out.at_mut(ni, ci, 0, 0) = sum / denom;
        }
    }
}

/// Argmax indices of a max-pool, needed by the training crate's backward
/// pass. Returns `(pooled, argmax)` where `argmax[i]` is the flat input
/// index that produced output element `i`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] for degenerate geometry.
pub fn max_pool2d_with_argmax(
    input: &Tensor,
    k: usize,
    s: usize,
) -> Result<(Tensor, Vec<usize>), TensorError> {
    let [n, c, h, w] = input.shape().dims();
    let oh = conv_out_dim(h, k, s, 0)?;
    let ow = conv_out_dim(w, k, s, 0)?;
    let mut out = Tensor::zeros([n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let ishape = input.shape();
    let mut flat = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for khi in 0..k {
                        for kwi in 0..k {
                            let hh = ohi * s + khi;
                            let ww = owi * s + kwi;
                            let v = input.at(ni, ci, hh, ww);
                            if v > best {
                                best = v;
                                best_idx = ishape.index(ni, ci, hh, ww);
                            }
                        }
                    }
                    *out.at_mut(ni, ci, ohi, owi) = best;
                    argmax[flat] = best_idx;
                    flat += 1;
                }
            }
        }
    }
    Ok((out, argmax))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_maximum() {
        let t = Tensor::from_fn(1, 4, 4, |_, h, w| (h * 4 + w) as f32);
        let p = max_pool2d(&t, 2, 2).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 5.0);
        assert_eq!(p.at(0, 0, 1, 1), 15.0);
    }

    #[test]
    fn avg_pool_averages_window() {
        let t = Tensor::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as f32);
        let p = avg_pool2d(&t, 2, 2).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 1.5);
    }

    #[test]
    fn global_avg_pool_collapses_spatial_dims() {
        let t = Tensor::from_fn(2, 3, 3, |c, _, _| c as f32);
        let p = global_avg_pool(&t);
        assert_eq!(p.shape().dims(), [1, 2, 1, 1]);
        assert_eq!(p.at(0, 0, 0, 0), 0.0);
        assert_eq!(p.at(0, 1, 0, 0), 1.0);
    }

    #[test]
    fn argmax_points_at_the_maximum() {
        let t = Tensor::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as f32);
        let (p, idx) = max_pool2d_with_argmax(&t, 2, 2).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 3.0);
        assert_eq!(idx, vec![3]);
    }

    #[test]
    fn pooling_commutes_with_block_split() {
        // 2x2 pooling of an 8x8 map equals pooling each 4x4 quadrant and
        // concatenating — the property that makes pooling "naturally
        // splittable" (paper §II-E).
        let t = Tensor::from_fn(1, 8, 8, |_, h, w| ((h * 8 + w) % 7) as f32);
        let full = max_pool2d(&t, 2, 2).unwrap();
        let mut stitched = Tensor::zeros([1, 1, 4, 4]);
        for bh in 0..2 {
            for bw in 0..2 {
                let block = t.crop(bh * 4, bw * 4, 4, 4).unwrap();
                let pooled = max_pool2d(&block, 2, 2).unwrap();
                stitched.paste(&pooled, bh * 2, bw * 2).unwrap();
            }
        }
        assert_eq!(full, stitched);
    }
}
