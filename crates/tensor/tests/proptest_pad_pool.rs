//! Property tests: the row-wise padding and pooling loops against naive
//! per-element oracles kept here, compared bit for bit.
//!
//! Both operators only copy, compare or add input elements, so the
//! row-wise loops must reproduce the per-element loops exactly — including
//! NaN payloads, infinities and signed zeros, which the inputs are seeded
//! with.

use bconv_tensor::init::seeded_rng;
use bconv_tensor::pad::{pad2d_asym, PadMode};
use bconv_tensor::pool::{avg_pool2d, max_pool2d};
use bconv_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Special values every other drawn element is replaced with.
const SPECIALS: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];

/// A tensor of finite values in `[-4, 4)` with roughly `special_ratio` of
/// its elements replaced by NaN, ±Inf or ±0.
fn spiky_tensor(dims: [usize; 4], special_ratio: f64, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.data_mut() {
        *v = if rng.gen_bool(special_ratio) {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            rng.gen_range(-4.0f32..4.0)
        };
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one pattern. Rust leaves the sign and
/// payload of a NaN that an add *produces* unspecified (the compiler may
/// commute the operands, and x86 propagates the first NaN operand), so two
/// builds of the same summation loop may disagree there. Every other bit
/// pattern, ±0 and ±Inf included, is compared exactly.
fn bits_nan_canonical(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// The per-element source coordinate of a padded coordinate, written out
/// independently of the library's resolver.
fn oracle_source(coord: isize, len: usize, mode: PadMode) -> Option<usize> {
    let len = len as isize;
    if (0..len).contains(&coord) {
        return Some(coord as usize);
    }
    match mode {
        PadMode::Zero => None,
        PadMode::Replicate => Some(if coord < 0 { 0 } else { len as usize - 1 }),
        PadMode::Reflect if len == 1 => Some(0),
        PadMode::Reflect => {
            // Mirror repeatedly about the edge pixels until inside.
            let mut c = coord;
            while !(0..len).contains(&c) {
                c = if c < 0 { -c } else { 2 * (len - 1) - c };
            }
            Some(c as usize)
        }
    }
}

fn oracle_pad(
    t: &Tensor,
    top: usize,
    bottom: usize,
    left: usize,
    right: usize,
    mode: PadMode,
) -> Tensor {
    let [n, c, h, w] = t.shape().dims();
    let mut out = Tensor::zeros([n, c, h + top + bottom, w + left + right]);
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h + top + bottom {
                for wi in 0..w + left + right {
                    let sh = oracle_source(hi as isize - top as isize, h, mode);
                    let sw = oracle_source(wi as isize - left as isize, w, mode);
                    if let (Some(sh), Some(sw)) = (sh, sw) {
                        *out.at_mut(ni, ci, hi, wi) = t.at(ni, ci, sh, sw);
                    }
                }
            }
        }
    }
    out
}

/// Textbook window loop: fold each window in `(kh, kw)` order.
fn oracle_pool(t: &Tensor, k: usize, s: usize, max: bool) -> Tensor {
    let [n, c, h, w] = t.shape().dims();
    let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
    let mut out = Tensor::zeros([n, c, oh, ow]);
    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = if max { f32::NEG_INFINITY } else { 0.0 };
                    for khi in 0..k {
                        for kwi in 0..k {
                            let v = t.at(ni, ci, ohi * s + khi, owi * s + kwi);
                            acc = if max { acc.max(v) } else { acc + v };
                        }
                    }
                    if !max {
                        acc /= (k * k) as f32;
                    }
                    *out.at_mut(ni, ci, ohi, owi) = acc;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Row-wise padding equals the per-element oracle bit for bit in all
    /// three modes, for asymmetric pads 0–3 on non-square maps.
    #[test]
    fn row_wise_padding_matches_per_element_oracle(
        n in 1usize..=3,
        c in 1usize..=3,
        h in 1usize..9,
        w in 1usize..9,
        top in 0usize..=3,
        bottom in 0usize..=3,
        left in 0usize..=3,
        right in 0usize..=3,
        mode_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let mode = PadMode::ALL[mode_idx];
        let t = spiky_tensor([n, c, h, w], 0.2, &mut seeded_rng(seed));
        let got = pad2d_asym(&t, top, bottom, left, right, mode);
        let reflect_ok = top.max(bottom) < h && left.max(right) < w;
        if mode == PadMode::Reflect && !reflect_ok {
            prop_assert!(got.is_err(), "reflect pad beyond the input must be rejected");
        } else {
            let got = got.unwrap();
            let want = oracle_pad(&t, top, bottom, left, right, mode);
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert_eq!(bits(&got), bits(&want), "{mode:?} t{top} b{bottom} l{left} r{right}");
        }
    }

    /// Row-wise max and average pooling equal the window loop bit for bit,
    /// NaN, ±Inf and ±0 included (NaN payloads of averages excepted, see
    /// [`bits_nan_canonical`]), for windows and strides 1–3.
    #[test]
    fn row_wise_pooling_matches_window_oracle(
        n in 1usize..=2,
        c in 1usize..=3,
        h in 3usize..12,
        w in 3usize..12,
        k in 1usize..=3,
        s in 1usize..=3,
        special_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let ratio = [0.0, 0.1, 0.5][special_idx];
        let t = spiky_tensor([n, c, h, w], ratio, &mut seeded_rng(seed));
        let got_max = max_pool2d(&t, k, s).unwrap();
        let want_max = oracle_pool(&t, k, s, true);
        prop_assert_eq!(got_max.shape(), want_max.shape());
        prop_assert_eq!(bits(&got_max), bits(&want_max), "max k{k} s{s}");
        let got_avg = avg_pool2d(&t, k, s).unwrap();
        let want_avg = oracle_pool(&t, k, s, false);
        prop_assert_eq!(
            bits_nan_canonical(&got_avg),
            bits_nan_canonical(&want_avg),
            "avg k{k} s{s}"
        );
    }
}

/// All-special inputs: windows of only NaN, only signed zeros, and mixes
/// whose maximum depends on the fold order.
#[test]
fn pooling_matches_oracle_on_all_special_maps() {
    let mut rng = seeded_rng(7);
    for _ in 0..64 {
        let t = spiky_tensor([1, 2, 6, 8], 1.0, &mut rng);
        for (k, s) in [(2, 2), (3, 1), (2, 1), (3, 3)] {
            assert_eq!(bits(&max_pool2d(&t, k, s).unwrap()), bits(&oracle_pool(&t, k, s, true)));
            assert_eq!(
                bits_nan_canonical(&avg_pool2d(&t, k, s).unwrap()),
                bits_nan_canonical(&oracle_pool(&t, k, s, false))
            );
        }
    }
}
