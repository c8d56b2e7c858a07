//! Synthetic workload generators: random inputs and small CNNs for tests,
//! examples, and the functional cross-validation harness.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::{
    ActQuant, Branch, BranchOp, Conv2d, ConvSpec, Layer, MixedBlock, Model, Padding, Pool2d,
    PoolKind, QTensor, Shape, WeightQuant,
};

/// Generates a random quantized input tensor with the given parameters.
#[must_use]
pub fn random_input(shape: Shape, params: ActQuant, seed: u64) -> QTensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = vec![0u8; shape.len()];
    rng.fill_bytes(&mut data);
    QTensor::from_vec(shape, params, data)
}

/// Generates a random convolution sub-layer with seeded weights.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors the paper's (R,S,C,M,U,pad) nomenclature
pub fn random_conv(
    name: &str,
    (r, s): (usize, usize),
    c: usize,
    m: usize,
    stride: usize,
    padding: Padding,
    relu: bool,
    seed: u64,
) -> Conv2d {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = ConvSpec {
        name: name.to_owned(),
        r,
        s,
        c,
        m,
        stride,
        padding,
        relu,
    };
    let mut weights = vec![0u8; spec.weight_len()];
    rng.fill_bytes(&mut weights);
    let w_quant = WeightQuant {
        scale: 0.01,
        zero_point: 128,
    };
    let bias: Vec<i64> = (0..m).map(|_| rng.gen_range(-300..300)).collect();
    Conv2d::with_weights(spec, weights, w_quant, bias)
}

/// Prunes a convolution's weight codes, the workload shape behind
/// bit-slice round skipping: every code is masked to its low `keep_bits`
/// bits (low-magnitude quantization — the top `8 - keep_bits` bit-slice
/// rows become all-zero on every lane), and an additional `zero_fraction`
/// of the codes is zeroed outright (magnitude pruning). The weight zero
/// point moves to 0 so pruned codes decode to exactly-zero real weights.
///
/// Shape-only layers pass through unchanged.
///
/// # Panics
///
/// Panics if `keep_bits` is 0 or exceeds 8, or `zero_fraction` is outside
/// `[0, 1]`.
#[must_use]
pub fn prune_conv(mut conv: Conv2d, keep_bits: u32, zero_fraction: f64, seed: u64) -> Conv2d {
    assert!((1..=8).contains(&keep_bits), "keep_bits in 1..=8");
    assert!(
        (0.0..=1.0).contains(&zero_fraction),
        "zero_fraction in [0, 1]"
    );
    let mask = ((1u16 << keep_bits) - 1) as u8;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5041_5253_4541_u64);
    if let Some(w) = conv.weights.as_mut() {
        for q in w.iter_mut() {
            *q &= mask;
            if zero_fraction > 0.0 && rng.gen_range(0.0..1.0) < zero_fraction {
                *q = 0;
            }
        }
    }
    conv.w_quant = WeightQuant {
        scale: conv.w_quant.scale,
        zero_point: 0,
    };
    conv
}

/// Quantization parameters of a post-ReLU activation tensor: zero point 0
/// (codes are non-negative reals), so an exactly-zero activation is the
/// all-zero code `0x00` — the byte shape dynamic input-bit round skipping
/// feeds on. (With a symmetric range the zero code would be `0x80`, which
/// is bit-*dense*.)
#[must_use]
pub fn relu_act_quant() -> ActQuant {
    ActQuant::from_range(0.0, 6.0)
}

/// Generates a ReLU-sparse activation tensor with controllable sparsity:
/// each code is exactly zero with probability `zero_fraction` (the `ReLU`
/// footprint), and surviving codes are masked to their low `keep_bits`
/// bits (the low-magnitude tail real post-ReLU distributions have). Uses
/// [`relu_act_quant`] so zero codes decode to exactly-zero reals.
///
/// # Panics
///
/// Panics if `zero_fraction` is outside `[0, 1]` or `keep_bits` is not in
/// `1..=8`.
#[must_use]
pub fn relu_sparse_input(shape: Shape, zero_fraction: f64, keep_bits: u32, seed: u64) -> QTensor {
    assert!(
        (0.0..=1.0).contains(&zero_fraction),
        "zero_fraction in [0, 1]"
    );
    assert!((1..=8).contains(&keep_bits), "keep_bits in 1..=8");
    let mask = ((1u16 << keep_bits) - 1) as u8;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5245_4c55_u64);
    let mut data = vec![0u8; shape.len()];
    for q in &mut data {
        if rng.gen_range(0.0..1.0) >= zero_fraction {
            *q = (rng.next_u32() as u8) & mask;
        }
    }
    QTensor::from_vec(shape, relu_act_quant(), data)
}

/// [`mini_inception`] re-quantized to consume post-ReLU inputs
/// ([`relu_act_quant`], zero point 0) — the multi-layer workload for
/// dynamic input-activation round skipping. Weights stay dense-random, so
/// any skip comes from the activations alone.
#[must_use]
pub fn relu_sparse_mini(seed: u64) -> Model {
    let mut model = mini_inception(seed);
    model.name = "relu-sparse-mini".into();
    model.input_quant = relu_act_quant();
    model
}

/// A single dense-random convolution consuming post-ReLU inputs — the
/// focused workload for predicted-vs-executed input-skip cross-checks and
/// the detect-overhead break-even measurement. VALID padding, so no
/// padding bytes contribute zeros: with a zero-point-0 input quant, SAME
/// padding alone elides ~20% of rounds (padded taps are all-zero bytes),
/// which would mask the break-even.
#[must_use]
pub fn relu_sparse_conv_model(seed: u64) -> Model {
    let conv = random_conv("relu_conv", (3, 3), 8, 4, 1, Padding::Valid, true, seed);
    let mut model = single_conv_model(conv, Shape::new(6, 6, 8));
    model.input_quant = relu_act_quant();
    model
}

/// [`mini_inception`] with every convolution pruned to 2-bit codes and 50%
/// exact zeros — the dense-vs-pruned evaluation workload for
/// `SparsityMode::SkipZeroRows` (at least the top six multiplier-bit
/// rounds of every MAC are elidable).
#[must_use]
pub fn pruned_inception(seed: u64) -> Model {
    let mut model = mini_inception(seed);
    model.name = "pruned-inception".into();
    let mut salt = 0u64;
    for layer in &mut model.layers {
        for conv in layer.conv_sublayers_mut() {
            salt += 1;
            *conv = prune_conv(conv.clone(), 2, 0.5, seed.wrapping_add(salt));
        }
    }
    model
}

/// A single pruned convolution model (keep 2 bits, half the codes zero) —
/// the focused workload for predicted-vs-executed skip cross-checks.
#[must_use]
pub fn pruned_conv_model(seed: u64) -> Model {
    let conv = prune_conv(
        random_conv("pruned_conv", (3, 3), 8, 4, 1, Padding::Same, true, seed),
        2,
        0.5,
        seed,
    );
    single_conv_model(conv, Shape::new(6, 6, 8))
}

/// A small but structurally complete CNN exercising every layer kind Neural
/// Cache supports: conv (VALID + SAME, strided), max pool, a mixed block
/// with a pool branch and shared-range concat, average pooling and a final
/// classifier. Designed to run the functional executor in well under a
/// second.
#[must_use]
pub fn tiny_cnn(seed: u64) -> Model {
    let s = |k| seed.wrapping_mul(1000).wrapping_add(k);
    let mixed = MixedBlock {
        name: "tiny_mixed".into(),
        branches: vec![
            Branch::new(vec![BranchOp::Conv(random_conv(
                "tiny_mixed/b0_1x1",
                (1, 1),
                16,
                8,
                1,
                Padding::Same,
                true,
                s(3),
            ))]),
            Branch::new(vec![
                BranchOp::Conv(random_conv(
                    "tiny_mixed/b1_1x1",
                    (1, 1),
                    16,
                    4,
                    1,
                    Padding::Same,
                    true,
                    s(4),
                )),
                BranchOp::Conv(random_conv(
                    "tiny_mixed/b1_3x3",
                    (3, 3),
                    4,
                    8,
                    1,
                    Padding::Same,
                    true,
                    s(5),
                )),
            ]),
            Branch::new(vec![
                BranchOp::Pool(Pool2d {
                    name: "tiny_mixed/b2_pool".into(),
                    kind: PoolKind::Avg,
                    k: 3,
                    stride: 1,
                    padding: Padding::Same,
                }),
                BranchOp::Conv(random_conv(
                    "tiny_mixed/b2_proj",
                    (1, 1),
                    16,
                    4,
                    1,
                    Padding::Same,
                    true,
                    s(6),
                )),
            ]),
        ],
    };
    let model = Model {
        name: "tiny-cnn".into(),
        input_shape: Shape::new(12, 12, 4),
        input_quant: ActQuant::from_range(-1.0, 1.0),
        layers: vec![
            Layer::Conv(random_conv(
                "conv1",
                (3, 3),
                4,
                8,
                1,
                Padding::Same,
                true,
                s(1),
            )),
            Layer::Pool(Pool2d {
                name: "pool1".into(),
                kind: PoolKind::Max,
                k: 2,
                stride: 2,
                padding: Padding::Valid,
            }),
            Layer::Conv(random_conv(
                "conv2",
                (3, 3),
                8,
                16,
                1,
                Padding::Valid,
                true,
                s(2),
            )),
            Layer::Mixed(mixed),
            Layer::Pool(Pool2d {
                name: "gap".into(),
                kind: PoolKind::Avg,
                k: 4,
                stride: 1,
                padding: Padding::Valid,
            }),
            Layer::Conv(random_conv(
                "classifier",
                (1, 1),
                20,
                10,
                1,
                Padding::Valid,
                false,
                s(7),
            )),
        ],
    };
    debug_assert!(model.validate().is_ok());
    model
}

/// A miniature Inception: one block of every family the real network uses —
/// an Inception-A-style block (1x1 / 5x5 / double-3x3 / avgpool-proj), a
/// reduction block with a **raw max-pool branch** (the Mixed 6a/7a pattern
/// whose pool output concatenates with requantized conv branches), and an
/// Inception-C-style block with **terminal splits** (the Mixed 7b/7c 1x3 +
/// 3x1 fan-out). Exercises every orchestration path of the executors at toy
/// scale.
#[must_use]
pub fn mini_inception(seed: u64) -> Model {
    let s = |k| seed.wrapping_mul(7919).wrapping_add(k);
    let c1 = |name: &str, k: (usize, usize), c, m, sd| {
        random_conv(name, k, c, m, 1, Padding::Same, true, sd)
    };

    // Block A on 8x8x8: branches 4 + (3 -> 4) + (3 -> 4 -> 4) + (pool -> 2).
    let block_a = MixedBlock {
        name: "mini_a".into(),
        branches: vec![
            Branch::new(vec![BranchOp::Conv(c1("mini_a/b0", (1, 1), 8, 4, s(1)))]),
            Branch::new(vec![
                BranchOp::Conv(c1("mini_a/b1_1x1", (1, 1), 8, 3, s(2))),
                BranchOp::Conv(c1("mini_a/b1_5x5", (5, 5), 3, 4, s(3))),
            ]),
            Branch::new(vec![
                BranchOp::Conv(c1("mini_a/b2_1x1", (1, 1), 8, 3, s(4))),
                BranchOp::Conv(c1("mini_a/b2_3x3a", (3, 3), 3, 4, s(5))),
                BranchOp::Conv(c1("mini_a/b2_3x3b", (3, 3), 4, 4, s(6))),
            ]),
            Branch::new(vec![
                BranchOp::Pool(Pool2d {
                    name: "mini_a/b3_pool".into(),
                    kind: PoolKind::Avg,
                    k: 3,
                    stride: 1,
                    padding: Padding::Same,
                }),
                BranchOp::Conv(c1("mini_a/b3_proj", (1, 1), 8, 2, s(7))),
            ]),
        ],
    };

    // Reduction block on 8x8x14 -> 3x3: stride-2 conv + raw max-pool branch.
    let block_r = MixedBlock {
        name: "mini_r".into(),
        branches: vec![
            Branch::new(vec![BranchOp::Conv(random_conv(
                "mini_r/b0_3x3",
                (3, 3),
                14,
                6,
                2,
                Padding::Valid,
                true,
                s(8),
            ))]),
            Branch::new(vec![BranchOp::Pool(Pool2d {
                name: "mini_r/b1_pool".into(),
                kind: PoolKind::Max,
                k: 3,
                stride: 2,
                padding: Padding::Valid,
            })]),
        ],
    };

    // Block C on 3x3x20: a split branch (1x3 + 3x1) plus a plain 1x1.
    let block_c = MixedBlock {
        name: "mini_c".into(),
        branches: vec![
            Branch::new(vec![BranchOp::Conv(c1("mini_c/b0", (1, 1), 20, 4, s(9)))]),
            Branch::new(vec![
                BranchOp::Conv(c1("mini_c/b1_1x1", (1, 1), 20, 6, s(10))),
                BranchOp::Split(vec![
                    c1("mini_c/b1_1x3", (1, 3), 6, 4, s(11)),
                    c1("mini_c/b1_3x1", (3, 1), 6, 4, s(12)),
                ]),
            ]),
        ],
    };

    let model = Model {
        name: "mini-inception".into(),
        input_shape: Shape::new(8, 8, 8),
        input_quant: ActQuant::from_range(-1.0, 1.0),
        layers: vec![
            Layer::Mixed(block_a),
            Layer::Mixed(block_r),
            Layer::Mixed(block_c),
            Layer::Pool(Pool2d {
                name: "mini_gap".into(),
                kind: PoolKind::Avg,
                k: 3,
                stride: 1,
                padding: Padding::Valid,
            }),
            Layer::Conv(random_conv(
                "mini_logits",
                (1, 1),
                12,
                5,
                1,
                Padding::Valid,
                false,
                s(13),
            )),
        ],
    };
    debug_assert!(model.validate().is_ok());
    model
}

/// A single-conv model, handy for focused equivalence tests.
#[must_use]
pub fn single_conv_model(conv: Conv2d, input_shape: Shape) -> Model {
    Model {
        name: format!("single-{}", conv.spec.name),
        input_shape,
        input_quant: ActQuant::from_range(-1.0, 1.0),
        layers: vec![Layer::Conv(conv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_model;

    #[test]
    fn tiny_cnn_runs_end_to_end() {
        let model = tiny_cnn(42);
        assert!(model.has_weights());
        let input = random_input(model.input_shape, model.input_quant, 1);
        let result = run_model(&model, &input);
        assert_eq!(result.output.shape(), Shape::new(1, 1, 10));
        assert_eq!(result.layers.len(), 6);
        // Deterministic.
        let again = run_model(&model, &input);
        assert_eq!(result.output, again.output);
    }

    #[test]
    fn tiny_cnn_is_seed_sensitive() {
        let input = random_input(Shape::new(12, 12, 4), ActQuant::from_range(-1.0, 1.0), 1);
        let a = run_model(&tiny_cnn(1), &input);
        let b = run_model(&tiny_cnn(2), &input);
        assert_ne!(a.output, b.output);
    }

    #[test]
    fn mini_inception_runs_and_covers_all_block_families() {
        let model = mini_inception(11);
        assert!(model.has_weights());
        // Structure checks: a split terminal, a pool-final branch, and an
        // avgpool-projection branch all present.
        let has_split = model.layers.iter().any(|l| {
            matches!(l, Layer::Mixed(b) if b.branches.iter().any(|br| {
                matches!(br.ops.last(), Some(BranchOp::Split(_)))
            }))
        });
        let has_pool_final = model.layers.iter().any(|l| {
            matches!(l, Layer::Mixed(b) if b.branches.iter().any(|br| {
                matches!(br.ops.last(), Some(BranchOp::Pool(_)))
            }))
        });
        assert!(has_split, "mini-inception must exercise terminal splits");
        assert!(
            has_pool_final,
            "mini-inception must exercise pool-final branches"
        );
        let input = random_input(model.input_shape, model.input_quant, 4);
        let out = run_model(&model, &input);
        assert_eq!(out.output.shape(), Shape::new(1, 1, 5));
    }

    #[test]
    fn prune_conv_masks_and_zeroes_codes() {
        let conv = prune_conv(
            random_conv("p", (3, 3), 8, 4, 1, Padding::Same, true, 3),
            2,
            0.5,
            9,
        );
        let w = conv.weights.as_ref().unwrap();
        assert!(w.iter().all(|&q| q < 4), "codes masked to 2 bits");
        let zeros = w.iter().filter(|&&q| q == 0).count();
        // ~50% magnitude-pruned plus the codes that were already 0 mod 4.
        assert!(
            zeros as f64 / w.len() as f64 > 0.4,
            "{zeros}/{} zero codes",
            w.len()
        );
        assert_eq!(conv.w_quant.zero_point, 0, "zero code = zero weight");
        // Deterministic.
        let again = prune_conv(
            random_conv("p", (3, 3), 8, 4, 1, Padding::Same, true, 3),
            2,
            0.5,
            9,
        );
        assert_eq!(conv.weights, again.weights);
    }

    #[test]
    fn pruned_inception_keeps_structure_and_prunes_every_conv() {
        let dense = mini_inception(11);
        let pruned = pruned_inception(11);
        assert_eq!(pruned.layers.len(), dense.layers.len());
        assert_eq!(pruned.validate().unwrap().output(), Shape::new(1, 1, 5));
        let mut convs = 0;
        for layer in &pruned.layers {
            for conv in layer.conv_sublayers() {
                convs += 1;
                assert!(
                    conv.weights.as_ref().unwrap().iter().all(|&q| q < 4),
                    "{} not pruned",
                    conv.spec.name
                );
            }
        }
        assert_eq!(convs, dense.conv_sublayer_count());
        // Still runs end to end.
        let input = random_input(pruned.input_shape, pruned.input_quant, 2);
        let out = run_model(&pruned, &input);
        assert_eq!(out.output.shape(), Shape::new(1, 1, 5));
    }

    #[test]
    fn pruned_conv_model_is_a_weighted_single_conv() {
        let model = pruned_conv_model(5);
        assert!(model.has_weights());
        assert_eq!(model.layers.len(), 1);
        let input = random_input(model.input_shape, model.input_quant, 6);
        let _ = run_model(&model, &input);
    }

    #[test]
    fn relu_sparse_inputs_have_zero_point_zero_and_controlled_density() {
        let shape = Shape::new(16, 16, 8);
        let t = relu_sparse_input(shape, 0.6, 3, 11);
        assert_eq!(t.params().zero_point, 0, "ReLU quant pins zero at code 0");
        let zeros = t.data().iter().filter(|&&q| q == 0).count();
        let frac = zeros as f64 / t.data().len() as f64;
        assert!(frac > 0.55, "zero fraction {frac:.2} too low");
        assert!(t.data().iter().all(|&q| q < 8), "codes masked to 3 bits");
        // Deterministic, seed-sensitive.
        assert_eq!(t, relu_sparse_input(shape, 0.6, 3, 11));
        assert_ne!(t, relu_sparse_input(shape, 0.6, 3, 12));
        // Density 0 keeps every code zero; density bound is honored.
        let dense = relu_sparse_input(shape, 0.0, 8, 5);
        assert!(dense.data().iter().any(|&q| q > 127), "full-width codes");
        let empty = relu_sparse_input(shape, 1.0, 8, 5);
        assert!(empty.data().iter().all(|&q| q == 0));
    }

    #[test]
    fn relu_sparse_models_run_end_to_end() {
        let model = relu_sparse_mini(7);
        assert_eq!(model.input_quant.zero_point, 0);
        let input = relu_sparse_input(model.input_shape, 0.5, 4, 8);
        let out = run_model(&model, &input);
        assert_eq!(out.output.shape(), Shape::new(1, 1, 5));
        let single = relu_sparse_conv_model(7);
        assert_eq!(single.layers.len(), 1);
        let input = relu_sparse_input(single.input_shape, 0.5, 4, 9);
        let _ = run_model(&single, &input);
    }

    #[test]
    fn random_input_is_deterministic() {
        let shape = Shape::new(4, 4, 2);
        let q = ActQuant::default();
        assert_eq!(random_input(shape, q, 9), random_input(shape, q, 9));
        assert_ne!(random_input(shape, q, 9), random_input(shape, q, 10));
    }
}
