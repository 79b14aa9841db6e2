//! Bit pins of the onboarded runtime estimators: every operator's compiled
//! lookup table, for llama2-7b on A100 and H100 at TP1, TP2 and TP4.
//!
//! Each fingerprint hashes the estimator's `Debug` rendering, which prints
//! every table point with round-trip float precision. The expected values
//! were captured when each forest was compiled by evaluating
//! `RandomForest::predict` at every grid point; the one-sweep compile must
//! reproduce them bit for bit.

use vidur::prelude::*;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn llama2_7b_compiled_tables_pinned() {
    let expected: [(&str, u32, u64); 6] = [
        ("a100", 1, 0x72b1c911b48c401c),
        ("a100", 2, 0x9078728f342a6ea1),
        ("a100", 4, 0x32fcb7dcf51be488),
        ("h100", 1, 0x6f6a6c7769bc7e75),
        ("h100", 2, 0x112c3804eb5f6d13),
        ("h100", 4, 0x74855bf9531d4533),
    ];
    let model = ModelSpec::llama2_7b();
    let mut got = Vec::new();
    for &(sku_name, tp, _) in &expected {
        let sku = match sku_name {
            "a100" => GpuSku::a100_80g(),
            _ => GpuSku::h100_80g(),
        };
        let est = vidur::simulator::onboard(
            &model,
            &ParallelismConfig::new(tp, 1),
            &sku,
            EstimatorKind::default(),
        );
        got.push((sku_name, tp, fnv1a(format!("{est:?}").as_bytes())));
    }
    assert_eq!(got, expected, "compiled tables changed");
}
