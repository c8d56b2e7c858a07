//! The complete Inception v3 graph (Szegedy et al., CVPR 2016), the
//! paper's benchmark model: 20 top-level layers, 94 convolution sub-layers.
//!
//! The structure below reproduces the TF-slim `inception_v3` network the
//! paper profiles; its Table I row values (H, `RxS`, E, C, M, convolution
//! counts, filter megabytes) are derived from this graph and asserted
//! against the paper in `summary` tests. Weights are synthetic (seeded
//! pseudo-random codes) — the schedule and cycle counts of Neural Cache are
//! data-independent (Section VI-A), so real `ImageNet` weights would change
//! no timing result.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::{
    ActQuant, Branch, BranchOp, Conv2d, ConvSpec, Layer, MixedBlock, Model, Padding, Pool2d,
    PoolKind, Shape, WeightQuant,
};

/// Builds the Inception v3 graph without weights (shape-only): sufficient
/// for Table I, the data-layout planner, and the timing simulator.
#[must_use]
pub fn inception_v3() -> Model {
    build(None)
}

/// Builds Inception v3 with seeded synthetic weights and biases, for
/// functional (bit-accurate) execution.
#[must_use]
pub fn inception_v3_with_weights(seed: u64) -> Model {
    build(Some(SmallRng::seed_from_u64(seed)))
}

/// Number of convolution sub-layers the paper quotes for Inception v3
/// ("94 convolutional sub-layers", Section II-A) — the graph has 95
/// convolution nodes including the final classifier, which the paper counts
/// separately because `TensorFlow` labels it `FullyConnected` even though it
/// executes as a 1x1 convolution.
pub const CONV_SUBLAYERS: usize = 94;

struct B {
    rng: Option<SmallRng>,
}

impl B {
    #[allow(clippy::too_many_arguments)] // mirrors the paper's (R,S,C,M,U,pad) nomenclature
    fn conv(
        &mut self,
        name: &str,
        (r, s): (usize, usize),
        c: usize,
        m: usize,
        stride: usize,
        padding: Padding,
        relu: bool,
    ) -> Conv2d {
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
        match &mut self.rng {
            None => Conv2d::shape_only(spec),
            Some(rng) => {
                let mut weights = vec![0u8; spec.weight_len()];
                rng.fill_bytes(&mut weights);
                let w_quant = WeightQuant {
                    scale: 0.004 + rng.gen::<f64>() * 0.004,
                    zero_point: 120 + rng.gen_range(0..16),
                };
                let bias: Vec<i64> = (0..m).map(|_| rng.gen_range(-800..800)).collect();
                Conv2d::with_weights(spec, weights, w_quant, bias)
            }
        }
    }
}

fn avg_pool(name: &str) -> BranchOp {
    BranchOp::Pool(Pool2d {
        name: name.to_owned(),
        kind: PoolKind::Avg,
        k: 3,
        stride: 1,
        padding: Padding::Same,
    })
}

fn max_pool_s2(name: &str) -> BranchOp {
    BranchOp::Pool(Pool2d {
        name: name.to_owned(),
        kind: PoolKind::Max,
        k: 3,
        stride: 2,
        padding: Padding::Valid,
    })
}

/// Inception-A block (Mixed 5b/5c/5d): 1x1 + (1x1 -> 5x5) + (1x1 -> 3x3 ->
/// 3x3) + (avgpool -> 1x1 proj).
fn inception_a(b: &mut B, name: &str, in_c: usize, proj: usize) -> Layer {
    let n = |suffix: &str| format!("{name}/{suffix}");
    Layer::Mixed(MixedBlock {
        name: name.to_owned(),
        branches: vec![
            Branch::new(vec![BranchOp::Conv(b_conv(
                b,
                &n("b0_1x1"),
                (1, 1),
                in_c,
                64,
            ))]),
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b1_1x1"), (1, 1), in_c, 48)),
                BranchOp::Conv(b_conv(b, &n("b1_5x5"), (5, 5), 48, 64)),
            ]),
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b2_1x1"), (1, 1), in_c, 64)),
                BranchOp::Conv(b_conv(b, &n("b2_3x3_a"), (3, 3), 64, 96)),
                BranchOp::Conv(b_conv(b, &n("b2_3x3_b"), (3, 3), 96, 96)),
            ]),
            Branch::new(vec![
                avg_pool(&n("b3_pool")),
                BranchOp::Conv(b_conv(b, &n("b3_proj"), (1, 1), in_c, proj)),
            ]),
        ],
    })
}

/// Reduction-A block (Mixed 6a): stride-2 3x3 + (1x1 -> 3x3 -> 3x3/2) +
/// maxpool.
fn reduction_a(b: &mut B, name: &str, in_c: usize) -> Layer {
    let n = |suffix: &str| format!("{name}/{suffix}");
    Layer::Mixed(MixedBlock {
        name: name.to_owned(),
        branches: vec![
            Branch::new(vec![BranchOp::Conv(b.conv(
                &n("b0_3x3"),
                (3, 3),
                in_c,
                384,
                2,
                Padding::Valid,
                true,
            ))]),
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b1_1x1"), (1, 1), in_c, 64)),
                BranchOp::Conv(b_conv(b, &n("b1_3x3_a"), (3, 3), 64, 96)),
                BranchOp::Conv(b.conv(&n("b1_3x3_b"), (3, 3), 96, 96, 2, Padding::Valid, true)),
            ]),
            Branch::new(vec![max_pool_s2(&n("b2_pool"))]),
        ],
    })
}

/// Inception-B block (Mixed 6b..6e): 1x1 + (1x1 -> 1x7 -> 7x1) +
/// (1x1 -> 7x1 -> 1x7 -> 7x1 -> 1x7) + (avgpool -> 1x1), with `mid` the
/// 7x7-factorized width (128/160/192).
fn inception_b(b: &mut B, name: &str, in_c: usize, mid: usize) -> Layer {
    let n = |suffix: &str| format!("{name}/{suffix}");
    Layer::Mixed(MixedBlock {
        name: name.to_owned(),
        branches: vec![
            Branch::new(vec![BranchOp::Conv(b_conv(
                b,
                &n("b0_1x1"),
                (1, 1),
                in_c,
                192,
            ))]),
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b1_1x1"), (1, 1), in_c, mid)),
                BranchOp::Conv(b_conv(b, &n("b1_1x7"), (1, 7), mid, mid)),
                BranchOp::Conv(b_conv(b, &n("b1_7x1"), (7, 1), mid, 192)),
            ]),
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b2_1x1"), (1, 1), in_c, mid)),
                BranchOp::Conv(b_conv(b, &n("b2_7x1_a"), (7, 1), mid, mid)),
                BranchOp::Conv(b_conv(b, &n("b2_1x7_a"), (1, 7), mid, mid)),
                BranchOp::Conv(b_conv(b, &n("b2_7x1_b"), (7, 1), mid, mid)),
                BranchOp::Conv(b_conv(b, &n("b2_1x7_b"), (1, 7), mid, 192)),
            ]),
            Branch::new(vec![
                avg_pool(&n("b3_pool")),
                BranchOp::Conv(b_conv(b, &n("b3_proj"), (1, 1), in_c, 192)),
            ]),
        ],
    })
}

/// Reduction-B block (Mixed 7a): (1x1 -> 3x3/2) + (1x1 -> 1x7 -> 7x1 ->
/// 3x3/2) + maxpool.
fn reduction_b(b: &mut B, name: &str, in_c: usize) -> Layer {
    let n = |suffix: &str| format!("{name}/{suffix}");
    Layer::Mixed(MixedBlock {
        name: name.to_owned(),
        branches: vec![
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b0_1x1"), (1, 1), in_c, 192)),
                BranchOp::Conv(b.conv(&n("b0_3x3"), (3, 3), 192, 320, 2, Padding::Valid, true)),
            ]),
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b1_1x1"), (1, 1), in_c, 192)),
                BranchOp::Conv(b_conv(b, &n("b1_1x7"), (1, 7), 192, 192)),
                BranchOp::Conv(b_conv(b, &n("b1_7x1"), (7, 1), 192, 192)),
                BranchOp::Conv(b.conv(&n("b1_3x3"), (3, 3), 192, 192, 2, Padding::Valid, true)),
            ]),
            Branch::new(vec![max_pool_s2(&n("b2_pool"))]),
        ],
    })
}

/// Inception-C block (Mixed 7b/7c): 1x1 + (1x1 -> {1x3, 3x1}) +
/// (1x1 -> 3x3 -> {1x3, 3x1}) + (avgpool -> 1x1).
fn inception_c(b: &mut B, name: &str, in_c: usize) -> Layer {
    let n = |suffix: &str| format!("{name}/{suffix}");
    Layer::Mixed(MixedBlock {
        name: name.to_owned(),
        branches: vec![
            Branch::new(vec![BranchOp::Conv(b_conv(
                b,
                &n("b0_1x1"),
                (1, 1),
                in_c,
                320,
            ))]),
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b1_1x1"), (1, 1), in_c, 384)),
                BranchOp::Split(vec![
                    b_conv(b, &n("b1_1x3"), (1, 3), 384, 384),
                    b_conv(b, &n("b1_3x1"), (3, 1), 384, 384),
                ]),
            ]),
            Branch::new(vec![
                BranchOp::Conv(b_conv(b, &n("b2_1x1"), (1, 1), in_c, 448)),
                BranchOp::Conv(b_conv(b, &n("b2_3x3"), (3, 3), 448, 384)),
                BranchOp::Split(vec![
                    b_conv(b, &n("b2_1x3"), (1, 3), 384, 384),
                    b_conv(b, &n("b2_3x1"), (3, 1), 384, 384),
                ]),
            ]),
            Branch::new(vec![
                avg_pool(&n("b3_pool")),
                BranchOp::Conv(b_conv(b, &n("b3_proj"), (1, 1), in_c, 192)),
            ]),
        ],
    })
}

/// Stride-1 SAME convolution with `ReLU` — the common case inside blocks.
fn b_conv(b: &mut B, name: &str, k: (usize, usize), c: usize, m: usize) -> Conv2d {
    b.conv(name, k, c, m, 1, Padding::Same, true)
}

fn build(rng: Option<SmallRng>) -> Model {
    let mut b = B { rng };
    let layers = vec![
        // --- Stem ---
        Layer::Conv(b.conv("Conv2d_1a_3x3", (3, 3), 3, 32, 2, Padding::Valid, true)),
        Layer::Conv(b.conv("Conv2d_2a_3x3", (3, 3), 32, 32, 1, Padding::Valid, true)),
        Layer::Conv(b.conv("Conv2d_2b_3x3", (3, 3), 32, 64, 1, Padding::Same, true)),
        Layer::Pool(Pool2d {
            name: "MaxPool_3a_3x3".into(),
            kind: PoolKind::Max,
            k: 3,
            stride: 2,
            padding: Padding::Valid,
        }),
        Layer::Conv(b.conv("Conv2d_3b_1x1", (1, 1), 64, 80, 1, Padding::Valid, true)),
        Layer::Conv(b.conv("Conv2d_4a_3x3", (3, 3), 80, 192, 1, Padding::Valid, true)),
        Layer::Pool(Pool2d {
            name: "MaxPool_5a_3x3".into(),
            kind: PoolKind::Max,
            k: 3,
            stride: 2,
            padding: Padding::Valid,
        }),
        // --- Inception-A ---
        inception_a(&mut b, "Mixed_5b", 192, 32),
        inception_a(&mut b, "Mixed_5c", 256, 64),
        inception_a(&mut b, "Mixed_5d", 288, 64),
        // --- Reduction-A ---
        reduction_a(&mut b, "Mixed_6a", 288),
        // --- Inception-B ---
        inception_b(&mut b, "Mixed_6b", 768, 128),
        inception_b(&mut b, "Mixed_6c", 768, 160),
        inception_b(&mut b, "Mixed_6d", 768, 160),
        inception_b(&mut b, "Mixed_6e", 768, 192),
        // --- Reduction-B ---
        reduction_b(&mut b, "Mixed_7a", 768),
        // --- Inception-C ---
        inception_c(&mut b, "Mixed_7b", 1280),
        inception_c(&mut b, "Mixed_7c", 2048),
        // --- Head ---
        Layer::Pool(Pool2d {
            name: "AvgPool".into(),
            kind: PoolKind::Avg,
            k: 8,
            stride: 1,
            padding: Padding::Valid,
        }),
        Layer::Conv(b.conv(
            "FullyConnected",
            (1, 1),
            2048,
            1001,
            1,
            Padding::Valid,
            false,
        )),
    ];
    let model = Model {
        name: "Inception v3".into(),
        input_shape: Shape::new(299, 299, 3),
        input_quant: ActQuant::from_range(-1.0, 1.0),
        layers,
    };
    debug_assert_eq!(model.validate(), Shape::new(1, 1, 1001));
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_chain_reaches_logits() {
        let m = inception_v3();
        assert_eq!(m.output_shape(), Shape::new(1, 1, 1001));
        assert_eq!(m.layers.len(), 20, "Table I has 20 rows");
    }

    #[test]
    fn conv_sublayer_count_matches_paper() {
        let m = inception_v3();
        // 94 convolutional sub-layers + the FullyConnected classifier that
        // TensorFlow converts to a 1x1 convolution.
        assert_eq!(m.conv_sublayer_count(), CONV_SUBLAYERS + 1);
    }

    #[test]
    fn intermediate_shapes_match_table1() {
        let m = inception_v3();
        let inputs = m.layer_inputs();
        let h: Vec<usize> = inputs.iter().map(|s| s.h).collect();
        assert_eq!(
            h,
            vec![
                299, 149, 147, 147, 73, 73, 71, // stem
                35, 35, 35, // 5b-5d
                35, // 6a
                17, 17, 17, 17, // 6b-6e
                17, // 7a
                8, 8, // 7b, 7c
                8, 1 // avgpool, fc
            ]
        );
        // Block output channels.
        assert_eq!(inputs[8].c, 256, "Mixed_5b output");
        assert_eq!(inputs[9].c, 288, "Mixed_5c output");
        assert_eq!(inputs[10].c, 288, "Mixed_5d output");
        assert_eq!(inputs[11].c, 768, "Mixed_6a output");
        assert_eq!(inputs[16].c, 1280, "Mixed_7a output");
        assert_eq!(inputs[17].c, 2048, "Mixed_7b output");
    }

    #[test]
    fn total_filter_bytes_near_paper_total() {
        let m = inception_v3();
        let mb = m.total_filter_bytes() as f64 / (1024.0 * 1024.0);
        // Table I's filter column sums to 21.7 MB; our graph derives
        // 22.7 MB because the paper's Mixed_6a and Mixed_6e filter cells
        // are inconsistent with their own convolution counts (see the
        // `PAPER` table in `summary`'s tests).
        assert!((22.0..23.5).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn weighted_model_has_weights_and_is_deterministic() {
        let a = inception_v3_with_weights(7);
        let b = inception_v3_with_weights(7);
        let c = inception_v3_with_weights(8);
        assert!(a.has_weights());
        assert_eq!(a, b, "same seed, same model");
        assert_ne!(a, c, "different seed, different weights");
    }
}
