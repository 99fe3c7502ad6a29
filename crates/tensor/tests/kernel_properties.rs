//! Property tests for the blocked/parallel compute backend.
//!
//! Every fast kernel (packed GEMM with all transpose variants, im2col
//! convolution forward and both gradients) is checked against the naive
//! reference loops in `pelta_tensor::kernels::reference` over randomised
//! shapes, strides and paddings — and against itself across thread counts,
//! where the determinism contract requires **bitwise** identical results.
//! The row-walking broadcast, broadcast-reduction, permutation and
//! row-sum kernels, and the small GEMM in every transpose variant, must
//! match their per-element references bitwise too.

use pelta_tensor::kernels::{conv, gemm::gemm, reference};
use pelta_tensor::pool::ThreadPool;
use pelta_tensor::{Conv2dSpec, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Absolute tolerance for fast-vs-naive comparisons (the FMA kernels round
/// differently from the scalar reference).
const TOL: f32 = 1e-4;

/// The largest `m·k·n` that `gemm` sends to its unpacked small path.
const SMALL_GEMM_FLOPS: usize = 48 * 48 * 48;

fn assert_close(fast: &[f32], naive: &[f32], what: &str) {
    assert_eq!(fast.len(), naive.len(), "{what}: length mismatch");
    for (i, (a, b)) in fast.iter().zip(naive).enumerate() {
        assert!(
            (a - b).abs() < TOL,
            "{what}: element {i} differs: fast {a} vs naive {b}"
        );
    }
}

fn assert_bitwise(one: &[f32], many: &[f32], what: &str) {
    assert_eq!(
        one.to_bits_vec(),
        many.to_bits_vec(),
        "{what}: thread counts disagree bitwise"
    );
}

/// Bit-exact comparison helper.
trait ToBits {
    fn to_bits_vec(&self) -> Vec<u32>;
}

impl ToBits for [f32] {
    fn to_bits_vec(&self) -> Vec<u32> {
        self.iter().map(|x| x.to_bits()).collect()
    }
}

/// Bit-level edge cases mixed into generated tensors: one quiet NaN pattern
/// (so which operand a NaN result propagates from cannot matter), both
/// signed zeros, subnormals of both signs and the smallest normal.
const EDGE_VALUES: [f32; 8] = [
    f32::NAN,
    0.0,
    -0.0,
    f32::from_bits(1),
    -f32::from_bits(1),
    f32::from_bits(0x0040_0000),
    -f32::from_bits(0x0040_0000),
    f32::MIN_POSITIVE,
];

/// A tensor of shape `dims` whose elements are an edge value one time in
/// four and a uniform draw from `[-4, 4)` otherwise.
fn edge_tensor(rng: &mut ChaCha8Rng, dims: &[usize]) -> Tensor {
    let data = (0..dims.iter().product::<usize>())
        .map(|_| {
            if rng.gen_range(0..4usize) == 0 {
                EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// Rank 0–4 dimensions from `0..=7`, with extra weight on length 1 and
/// an occasional length 0.
fn random_dims(rng: &mut ChaCha8Rng) -> Vec<usize> {
    let rank = rng.gen_range(0..=4usize);
    (0..rank)
        .map(|_| match rng.gen_range(0..10usize) {
            0 => 0,
            1 | 2 => 1,
            d => d - 2,
        })
        .collect()
}

/// A shape that broadcasts to `out`: some leading axes dropped, and each
/// remaining axis kept or set to 1.
fn broadcast_operand(rng: &mut ChaCha8Rng, out: &[usize]) -> Vec<usize> {
    let dropped = rng.gen_range(0..=out.len());
    out[dropped..]
        .iter()
        .map(|&d| if rng.gen_range(0..3usize) == 0 { 1 } else { d })
        .collect()
}

type TensorOp = fn(&Tensor, &Tensor) -> pelta_tensor::Result<Tensor>;
type ScalarOp = fn(f32, f32) -> f32;

/// Each public broadcasting binary op beside the scalar function it
/// applies.
const BINARY_OPS: [(&str, TensorOp, ScalarOp); 6] = [
    ("add", Tensor::add, |a, b| a + b),
    ("sub", Tensor::sub, |a, b| a - b),
    ("mul", Tensor::mul, |a, b| a * b),
    ("div", Tensor::div, |a, b| a / b),
    ("maximum", Tensor::maximum, f32::max),
    ("minimum", Tensor::minimum, f32::min),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packed GEMM (all four transpose combinations) matches the naive
    /// i-k-j loop, bitwise-identically at 1, 2 and 4 threads. Dimensions
    /// straddle the small-GEMM cutoff so both paths are exercised.
    #[test]
    fn prop_gemm_matches_reference_at_any_thread_count(
        m in 1usize..96,
        k in 1usize..96,
        n in 1usize..96,
        trans_bits in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let (trans_a, trans_b) = (trans_bits & 1 != 0, trans_bits & 2 != 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Stored layouts depend on the transpose flags.
        let a_dims = if trans_a { [k, m] } else { [m, k] };
        let b_dims = if trans_b { [n, k] } else { [k, n] };
        let a = Tensor::rand_uniform(&a_dims, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&b_dims, -1.0, 1.0, &mut rng);

        // Naive oracle on the materialised transposes.
        let a_mat = if trans_a { a.transpose().unwrap() } else { a.clone() };
        let b_mat = if trans_b { b.transpose().unwrap() } else { b.clone() };
        let naive = reference::naive_matmul(&a_mat, &b_mat).unwrap();

        let mut per_pool = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut out = vec![0.0f32; m * n];
            gemm(&pool, trans_a, a.data(), trans_b, b.data(), m, k, n, &mut out, false);
            assert_close(&out, naive.data(), "gemm");
            per_pool.push(out);
        }
        assert_bitwise(&per_pool[0], &per_pool[1], "gemm 1 vs 2 threads");
        assert_bitwise(&per_pool[0], &per_pool[2], "gemm 1 vs 4 threads");
    }

    /// GEMM accumulate mode adds onto the existing output.
    #[test]
    fn prop_gemm_accumulate_adds(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let pool = ThreadPool::new(2);
        let mut once = vec![0.0f32; m * n];
        gemm(&pool, false, a.data(), false, b.data(), m, k, n, &mut once, false);
        let mut twice = once.clone();
        gemm(&pool, false, a.data(), false, b.data(), m, k, n, &mut twice, true);
        for (two, one) in twice.iter().zip(&once) {
            prop_assert!((two - 2.0 * one).abs() < TOL);
        }
    }

    /// im2col conv2d forward matches the naive 7-loop direct convolution
    /// over random geometry, bitwise-identically across thread counts.
    #[test]
    fn prop_conv2d_matches_reference(
        n in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..5,
        h in 4usize..11,
        w in 4usize..11,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let kernel = kernel.min(h).min(w);
        let spec = Conv2dSpec::new(stride, pad);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&[n, c_in, h, w], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[c_out, c_in, kernel, kernel], -1.0, 1.0, &mut rng);
        let naive = reference::naive_conv2d(&x, &wt, spec).unwrap();

        let mut per_pool = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            let fast = conv::conv2d(&pool, &x, &wt, spec).unwrap();
            prop_assert_eq!(fast.dims(), naive.dims());
            assert_close(fast.data(), naive.data(), "conv2d");
            per_pool.push(fast);
        }
        assert_bitwise(per_pool[0].data(), per_pool[1].data(), "conv2d 1 vs 2 threads");
        assert_bitwise(per_pool[0].data(), per_pool[2].data(), "conv2d 1 vs 4 threads");
    }

    /// Both convolution gradients match their naive references over random
    /// geometry and thread counts.
    #[test]
    fn prop_conv2d_gradients_match_reference(
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..4,
        h in 4usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let w = h; // square inputs keep the case count manageable
        let kernel = kernel.min(h);
        let spec = Conv2dSpec::new(stride, pad);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&[n, c_in, h, w], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[c_out, c_in, kernel, kernel], -1.0, 1.0, &mut rng);
        let y = reference::naive_conv2d(&x, &wt, spec).unwrap();
        let g = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);

        let naive_gx =
            reference::naive_conv2d_input_grad(&g, &wt, x.dims(), spec).unwrap();
        let naive_gw =
            reference::naive_conv2d_weight_grad(&x, &g, wt.dims(), spec).unwrap();

        let mut gx_runs = Vec::new();
        let mut gw_runs = Vec::new();
        for threads in [1usize, 3] {
            let pool = ThreadPool::new(threads);
            let gx = conv::conv2d_input_grad(&pool, &g, &wt, x.dims(), spec).unwrap();
            let gw = conv::conv2d_weight_grad(&pool, &x, &g, wt.dims(), spec).unwrap();
            assert_close(gx.data(), naive_gx.data(), "conv2d_input_grad");
            assert_close(gw.data(), naive_gw.data(), "conv2d_weight_grad");
            gx_runs.push(gx);
            gw_runs.push(gw);
        }
        assert_bitwise(gx_runs[0].data(), gx_runs[1].data(), "input_grad threads");
        assert_bitwise(gw_runs[0].data(), gw_runs[1].data(), "weight_grad threads");
    }

    /// The batched matmul driver agrees with per-slice matmuls regardless of
    /// which internal path (per-slice parallel vs per-row parallel) it took.
    #[test]
    fn prop_batch_matmul_matches_slices(
        b in 1usize..5,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[b, m, k], -1.0, 1.0, &mut rng);
        let bb = Tensor::rand_uniform(&[b, k, n], -1.0, 1.0, &mut rng);
        let fast = a.batch_matmul(&bb).unwrap();
        for bi in 0..b {
            let ai = a.index_axis(0, bi).unwrap();
            let bi_t = bb.index_axis(0, bi).unwrap();
            let naive = reference::naive_matmul(&ai, &bi_t).unwrap();
            let slice = fast.index_axis(0, bi).unwrap();
            assert_close(slice.data(), naive.data(), "batch_matmul");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All six broadcasting binary ops, in both operand orders, over ranks
    /// 0–4 with length-1, length-0 and missing leading axes, match the
    /// per-element reference bit for bit.
    #[test]
    fn prop_broadcast_ops_match_reference_bitwise(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = random_dims(&mut rng);
        let a_dims = broadcast_operand(&mut rng, &out);
        let b_dims = broadcast_operand(&mut rng, &out);
        let a = edge_tensor(&mut rng, &a_dims);
        let b = edge_tensor(&mut rng, &b_dims);
        for (name, op, f) in BINARY_OPS {
            for (x, y) in [(&a, &b), (&b, &a)] {
                let fast = op(x, y).unwrap();
                let naive = reference::naive_broadcast_zip(x, y, f).unwrap();
                prop_assert_eq!(fast.dims(), naive.dims());
                prop_assert!(
                    fast.data().to_bits_vec() == naive.data().to_bits_vec(),
                    "{name} {:?} by {:?}: {:?} vs reference {:?}",
                    x.dims(), y.dims(), fast.data(), naive.data()
                );
            }
        }
    }

    /// `reduce_to_shape` to every target shape that broadcasts to the
    /// source (leading axes dropped, any subset of the rest collapsed to 1)
    /// matches the per-element reference bit for bit.
    #[test]
    fn prop_reduce_to_shape_matches_reference_bitwise(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dims = random_dims(&mut rng);
        let src = edge_tensor(&mut rng, &dims);
        for dropped in 0..=dims.len() {
            let kept = &dims[dropped..];
            for ones in 0..1usize << kept.len() {
                let target: Vec<usize> = kept
                    .iter()
                    .enumerate()
                    .map(|(axis, &d)| if ones >> axis & 1 == 1 { 1 } else { d })
                    .collect();
                let fast = src.reduce_to_shape(&target).unwrap();
                let naive = reference::naive_reduce_to_shape(&src, &target).unwrap();
                prop_assert_eq!(fast.dims(), naive.dims());
                prop_assert!(
                    fast.data().to_bits_vec() == naive.data().to_bits_vec(),
                    "{dims:?} to {target:?}: {:?} vs reference {:?}",
                    fast.data(), naive.data()
                );
            }
        }
    }

    /// `permute` under a random permutation matches the reference.
    #[test]
    fn prop_permute_matches_reference_bitwise(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dims = random_dims(&mut rng);
        let t = edge_tensor(&mut rng, &dims);
        let mut axes: Vec<usize> = (0..dims.len()).collect();
        for i in (1..axes.len()).rev() {
            axes.swap(i, rng.gen_range(0..=i));
        }
        let fast = t.permute(&axes).unwrap();
        let naive = reference::naive_permute(&t, &axes).unwrap();
        prop_assert_eq!(fast.dims(), naive.dims());
        prop_assert!(
            fast.data().to_bits_vec() == naive.data().to_bits_vec(),
            "{dims:?} permuted by {axes:?}"
        );
    }

    /// `sum_axis` on every axis matches the reference bit for bit, and a
    /// last-axis row of only -0.0 sums to +0.0.
    #[test]
    fn prop_sum_axis_matches_reference_bitwise(seed in 0u64..1_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut dims = random_dims(&mut rng);
        if dims.is_empty() {
            dims.push(3);
        }
        let mut t = edge_tensor(&mut rng, &dims);
        let last = dims.len() - 1;
        let row = dims[last];
        if t.numel() > 0 {
            t.data_mut()[..row].fill(-0.0);
            let sums = t.sum_axis(last, false).unwrap();
            prop_assert_eq!(sums.data()[0].to_bits(), 0.0f32.to_bits());
        }
        for axis in 0..dims.len() {
            for keep_dims in [false, true] {
                let fast = t.sum_axis(axis, keep_dims).unwrap();
                let naive = reference::naive_sum_axis(&t, axis, keep_dims).unwrap();
                prop_assert_eq!(fast.dims(), naive.dims());
                prop_assert!(
                    fast.data().to_bits_vec() == naive.data().to_bits_vec(),
                    "{dims:?} summed over axis {axis}"
                );
            }
        }
    }

    /// Below the small-GEMM cutoff, `gemm` has the bits of
    /// `reference::naive_matmul` on the explicit transposes, for all four
    /// transpose pairs. `m` and `n` reach past every row- and column-block
    /// edge; each depth is capped so `m·k·n` stays within the cutoff. With
    /// `accumulate`, a second product continues the first, so the two calls
    /// must equal one naive product over the concatenated depth.
    #[test]
    fn prop_small_gemm_matches_naive_matmul_bitwise(
        m in 1usize..=70,
        n in 1usize..=70,
        k1 in 1usize..=64,
        k2 in 1usize..=64,
        trans_bits in 0usize..4,
        accumulate in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (trans_a, trans_b) = (trans_bits & 1 != 0, trans_bits & 2 != 0);
        let k_max = SMALL_GEMM_FLOPS / (m * n);
        let calls = if accumulate == 1 { 2 } else { 1 };
        let depths: Vec<usize> = [k1, k2][..calls].iter().map(|&k| k.min(k_max)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool = ThreadPool::new(1);
        let mut out = vec![0.0f32; m * n];
        let (mut a_parts, mut b_parts) = (Vec::new(), Vec::new());
        for (call, &k) in depths.iter().enumerate() {
            let a_dims = if trans_a { [k, m] } else { [m, k] };
            let b_dims = if trans_b { [n, k] } else { [k, n] };
            let a = edge_tensor(&mut rng, &a_dims);
            let b = edge_tensor(&mut rng, &b_dims);
            gemm(&pool, trans_a, a.data(), trans_b, b.data(), m, k, n, &mut out, call > 0);
            a_parts.push(if trans_a { a.transpose().unwrap() } else { a });
            b_parts.push(if trans_b { b.transpose().unwrap() } else { b });
        }
        let a_mat = Tensor::concat(&a_parts.iter().collect::<Vec<_>>(), 1).unwrap();
        let b_mat = Tensor::concat(&b_parts.iter().collect::<Vec<_>>(), 0).unwrap();
        let naive = reference::naive_matmul(&a_mat, &b_mat).unwrap();
        prop_assert!(
            out.to_bits_vec() == naive.data().to_bits_vec(),
            "m={m} n={n} depths={depths:?} trans_a={trans_a} trans_b={trans_b}"
        );
    }
}

/// Non-proptest sanity check: the public `Tensor` ops (which use the global
/// pool) agree with the naive references on a blocked-path-sized problem.
#[test]
fn tensor_ops_route_through_kernels() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let a = Tensor::rand_uniform(&[130, 70], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[70, 90], -1.0, 1.0, &mut rng);
    let fast = a.matmul(&b).unwrap();
    let naive = reference::naive_matmul(&a, &b).unwrap();
    assert_close(fast.data(), naive.data(), "Tensor::matmul");

    let x = Tensor::rand_uniform(&[2, 3, 12, 12], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[8, 3, 3, 3], -1.0, 1.0, &mut rng);
    let spec = Conv2dSpec::new(1, 1);
    let fast = x.conv2d(&w, spec).unwrap();
    let naive = reference::naive_conv2d(&x, &w, spec).unwrap();
    assert_close(fast.data(), naive.data(), "Tensor::conv2d");
}
