//! Property tests for latency histogram quantiles: an estimate never
//! exceeds the largest observation.

use std::time::Duration;

use proptest::prelude::*;

use revelio_runtime::Histogram;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Observations span 0us to ~67s on a log scale, so every bucket,
    /// including the unbounded overflow bucket, is exercised.
    #[test]
    fn quantile_never_exceeds_max(
        raw in prop::collection::vec((0u32..27, 0u64..1 << 26), 1..40),
        q in 0.0f64..=1.0,
    ) {
        let h = Histogram::default();
        for &(bits, m) in &raw {
            h.observe(Duration::from_micros(m >> (26 - bits.min(26))));
        }
        let s = h.snapshot();
        prop_assert!(
            s.quantile_us(q) <= s.max_us,
            "q={} estimate {} > max {}",
            q,
            s.quantile_us(q),
            s.max_us
        );
    }
}
