//! Table I derivation: per-layer parameters of the benchmark network.
//!
//! The paper's Table I lists, for each of Inception v3's 20 top-level
//! layers: input height `H`, filter window range `RxS`, output height `E`,
//! channel range `C`, filter-batch range `M`, the number of convolutions,
//! and filter/input sizes in MB. All columns here are *derived* from the
//! model graph; tests assert them against the published table.
//!
//! Two conventions reverse-engineered from the published numbers:
//! - pooling steps inside mixed blocks contribute their channel count to
//!   both the `C` and `M` ranges (standalone pooling layers print `C = 0`);
//! - the input size of a mixed block counts the block input once per
//!   branch (each branch independently streams the block input).

use std::fmt::Write;

use crate::{Branch, BranchOp, Layer, Model, Shape};

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSummary {
    /// Layer name.
    pub name: String,
    /// Input spatial height `H`.
    pub h: usize,
    /// Smallest filter window `R*S` among sub-layers (pool window for
    /// standalone pooling layers).
    pub window_min: usize,
    /// Largest filter window `R*S`.
    pub window_max: usize,
    /// Output spatial height `E`.
    pub e: usize,
    /// Smallest channel count `C` (0 for standalone pooling layers).
    pub c_min: usize,
    /// Largest channel count `C`.
    pub c_max: usize,
    /// Smallest filter-batch count `M`.
    pub m_min: usize,
    /// Largest filter-batch count `M`.
    pub m_max: usize,
    /// Total convolutions: sum over conv sub-layers of `E_h * E_w * M`.
    pub convolutions: usize,
    /// Filter bytes of the layer, in MB (8-bit codes, MB = 2^20 bytes).
    pub filter_mb: f64,
    /// Input bytes of the layer, in MB (mixed blocks: once per branch).
    pub input_mb: f64,
}

const MB: f64 = 1024.0 * 1024.0;

/// Computes the Table I rows of a model.
#[must_use]
pub fn table1(model: &Model) -> Vec<LayerSummary> {
    model
        .layers
        .iter()
        .zip(model.layer_inputs())
        .map(|(layer, input)| summarize_layer(layer, input))
        .collect()
}

fn summarize_layer(layer: &Layer, input: Shape) -> LayerSummary {
    let out = layer.out_shape(input);
    match layer {
        Layer::Conv(conv) => {
            let spec = &conv.spec;
            let conv_out = spec.out_shape(input);
            LayerSummary {
                name: spec.name.clone(),
                h: input.h,
                window_min: spec.window(),
                window_max: spec.window(),
                e: out.h,
                c_min: spec.c,
                c_max: spec.c,
                m_min: spec.m,
                m_max: spec.m,
                convolutions: conv_out.h * conv_out.w * spec.m,
                filter_mb: spec.weight_len() as f64 / MB,
                input_mb: input.bytes() as f64 / MB,
            }
        }
        Layer::Pool(pool) => LayerSummary {
            name: pool.name.clone(),
            h: input.h,
            window_min: pool.k * pool.k,
            window_max: pool.k * pool.k,
            e: out.h,
            c_min: 0,
            c_max: 0,
            m_min: input.c,
            m_max: input.c,
            convolutions: 0,
            filter_mb: 0.0,
            input_mb: input.bytes() as f64 / MB,
        },
        Layer::Mixed(block) => {
            let mut window = RangeAcc::new();
            let mut c = RangeAcc::new();
            let mut m = RangeAcc::new();
            let mut convolutions = 0usize;
            let mut filter_bytes = 0usize;
            for branch in &block.branches {
                walk_branch(
                    branch,
                    input,
                    &mut window,
                    &mut c,
                    &mut m,
                    &mut convolutions,
                    &mut filter_bytes,
                );
            }
            LayerSummary {
                name: block.name.clone(),
                h: input.h,
                window_min: window.min,
                window_max: window.max,
                e: out.h,
                c_min: c.min,
                c_max: c.max,
                m_min: m.min,
                m_max: m.max,
                convolutions,
                filter_mb: filter_bytes as f64 / MB,
                // Each branch streams the block input (paper convention).
                input_mb: (block.branches.len() * input.bytes()) as f64 / MB,
            }
        }
    }
}

fn walk_branch(
    branch: &Branch,
    block_input: Shape,
    window: &mut RangeAcc,
    c: &mut RangeAcc,
    m: &mut RangeAcc,
    convolutions: &mut usize,
    filter_bytes: &mut usize,
) {
    let mut cur = block_input;
    for op in &branch.ops {
        match op {
            BranchOp::Conv(conv) => {
                let spec = &conv.spec;
                let out = spec.out_shape(cur);
                window.add(spec.window());
                c.add(spec.c);
                m.add(spec.m);
                *convolutions += out.h * out.w * spec.m;
                *filter_bytes += spec.weight_len();
                cur = out;
            }
            BranchOp::Pool(pool) => {
                // Pool steps contribute their channel count to the C and M
                // ranges (Table I convention for mixed blocks).
                c.add(cur.c);
                m.add(cur.c);
                cur = pool.out_shape(cur);
            }
            BranchOp::Split(convs) => {
                let mut total_c = 0;
                for conv in convs {
                    let spec = &conv.spec;
                    let out = spec.out_shape(cur);
                    window.add(spec.window());
                    c.add(spec.c);
                    m.add(spec.m);
                    *convolutions += out.h * out.w * spec.m;
                    *filter_bytes += spec.weight_len();
                    total_c += out.c;
                }
                cur = Shape::new(op.out_shape(cur).h, op.out_shape(cur).w, total_c);
            }
        }
    }
}

struct RangeAcc {
    min: usize,
    max: usize,
}

impl RangeAcc {
    fn new() -> Self {
        RangeAcc {
            min: usize::MAX,
            max: 0,
        }
    }

    fn add(&mut self, v: usize) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// Renders the rows as an aligned text table (the `table1_layers` bench
/// binary prints this).
#[must_use]
pub fn render_table1(rows: &[LayerSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>4} {:>7} {:>4} {:>11} {:>11} {:>9} {:>11} {:>10}",
        "Layer", "H", "RxS", "E", "C", "M", "Conv", "Filter/MB", "Input/MB"
    );
    for r in rows {
        let fmt_range = |lo: usize, hi: usize| {
            if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}-{hi}")
            }
        };
        let _ = writeln!(
            out,
            "{:<18} {:>4} {:>7} {:>4} {:>11} {:>11} {:>9} {:>11.3} {:>10.3}",
            r.name,
            r.h,
            fmt_range(r.window_min, r.window_max),
            r.e,
            fmt_range(r.c_min, r.c_max),
            fmt_range(r.m_min, r.m_max),
            r.convolutions,
            r.filter_mb,
            r.input_mb,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inception::inception_v3;

    /// One published Table I row: (name, H, E, convolutions, filter MB,
    /// input MB).
    type PaperRow = (&'static str, usize, usize, Option<usize>, Option<f64>, f64);

    /// The published Table I. `None` marks cells where the paper's number is
    /// inconsistent with its own convolution counts / the standard Inception
    /// v3 graph (`Mixed_6e` conv count and filter size; `Mixed_6a` filter
    /// size).
    const PAPER: &[PaperRow] = &[
        ("Conv2d_1a_3x3", 299, 149, Some(710_432), Some(0.001), 0.256),
        ("Conv2d_2a_3x3", 149, 147, Some(691_488), Some(0.009), 0.678),
        (
            "Conv2d_2b_3x3",
            147,
            147,
            Some(1_382_976),
            Some(0.018),
            0.659,
        ),
        ("MaxPool_3a_3x3", 147, 73, Some(0), Some(0.000), 1.319),
        ("Conv2d_3b_1x1", 73, 73, Some(426_320), Some(0.005), 0.325),
        ("Conv2d_4a_3x3", 73, 71, Some(967_872), Some(0.132), 0.407),
        ("MaxPool_5a_3x3", 71, 35, Some(0), Some(0.000), 0.923),
        ("Mixed_5b", 35, 35, Some(568_400), Some(0.243), 0.897),
        ("Mixed_5c", 35, 35, Some(607_600), Some(0.264), 1.196),
        ("Mixed_5d", 35, 35, Some(607_600), Some(0.271), 1.346),
        ("Mixed_6a", 35, 17, Some(334_720), None, 1.009),
        ("Mixed_6b", 17, 17, Some(443_904), Some(1.234), 0.847),
        ("Mixed_6c", 17, 17, Some(499_392), Some(1.609), 0.847),
        ("Mixed_6d", 17, 17, Some(499_392), Some(1.609), 0.847),
        ("Mixed_6e", 17, 17, None, None, 0.847),
        ("Mixed_7a", 17, 8, Some(254_720), Some(1.617), 0.635),
        ("Mixed_7b", 8, 8, Some(208_896), Some(4.805), 0.313),
        ("Mixed_7c", 8, 8, Some(208_896), Some(5.789), 0.500),
        ("AvgPool", 8, 1, Some(0), Some(0.000), 0.125),
        ("FullyConnected", 1, 1, Some(1_001), Some(1.955), 0.002),
    ];

    #[test]
    fn inception_matches_table1() {
        let rows = table1(&inception_v3());
        assert_eq!(rows.len(), PAPER.len());
        for (row, &(name, h, e, convs, filter_mb, input_mb)) in rows.iter().zip(PAPER) {
            assert_eq!(row.name, name);
            assert_eq!(row.h, h, "{name}: H");
            assert_eq!(row.e, e, "{name}: E");
            if let Some(convs) = convs {
                assert_eq!(row.convolutions, convs, "{name}: conv count");
            }
            if let Some(filter_mb) = filter_mb {
                assert!(
                    (row.filter_mb - filter_mb).abs() < 0.002,
                    "{name}: filter MB {} vs paper {filter_mb}",
                    row.filter_mb
                );
            }
            assert!(
                (row.input_mb - input_mb).abs() < 0.002,
                "{name}: input MB {} vs paper {input_mb}",
                row.input_mb
            );
        }
    }

    #[test]
    fn mixed_6e_discrepancy_is_what_design_md_says() {
        let rows = table1(&inception_v3());
        let m6e = rows.iter().find(|r| r.name == "Mixed_6e").unwrap();
        // Standard Inception v3 Mixed_6e (192-wide) gives 554,880; the
        // paper prints 499,392 (the 6c/6d value).
        assert_eq!(m6e.convolutions, 554_880);
    }

    #[test]
    fn channel_and_window_ranges_match_table1() {
        let rows = table1(&inception_v3());
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        // Mixed 5b: RxS 1-25, C 48-192, M 32-192.
        let r = get("Mixed_5b");
        assert_eq!((r.window_min, r.window_max), (1, 25));
        assert_eq!((r.c_min, r.c_max), (48, 192));
        assert_eq!((r.m_min, r.m_max), (32, 192));
        // Mixed 6b: C 128-768, M 128-768. (The paper prints its RxS range
        // as "1-9" although the block's largest window is the 7-tap 1x7;
        // we derive 1-7.)
        let r = get("Mixed_6b");
        assert_eq!((r.window_min, r.window_max), (1, 7));
        assert_eq!((r.c_min, r.c_max), (128, 768));
        assert_eq!((r.m_min, r.m_max), (128, 768));
        // Mixed 7c: C 384-2048, M 192-2048.
        let r = get("Mixed_7c");
        assert_eq!((r.c_min, r.c_max), (384, 2048));
        assert_eq!((r.m_min, r.m_max), (192, 2048));
        // Mixed 6a: C 64-288, M 64-384.
        let r = get("Mixed_6a");
        assert_eq!((r.c_min, r.c_max), (64, 288));
        assert_eq!((r.m_min, r.m_max), (64, 384));
        // Standalone pools print C = 0 like the paper.
        let r = get("MaxPool_3a_3x3");
        assert_eq!((r.c_min, r.c_max), (0, 0));
        assert_eq!((r.m_min, r.m_max), (64, 64));
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = table1(&inception_v3());
        let text = render_table1(&rows);
        assert_eq!(text.lines().count(), 21);
        assert!(text.contains("Mixed_7c"));
        assert!(text.contains("5.789"));
    }
}
