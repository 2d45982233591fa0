//! The flop count a matmul ticks into the trace clock.
//!
//! The clock's counters are process-global, so a delta read off them is
//! exact only while nothing else multiplies: this test is alone in its
//! binary.

use simpadv_tensor::{matmul_flops, Tensor};
use simpadv_trace::clock;

#[test]
fn flop_formula_matches_the_clock_tick() {
    let a = Tensor::ones(&[3, 5]);
    let b = Tensor::ones(&[5, 7]);
    let before = clock::snapshot();
    let _ = a.matmul(&b);
    let delta = clock::snapshot().delta_since(&before);
    assert_eq!(delta.flops, matmul_flops(3, 5, 7));
    assert_eq!(matmul_flops(3, 5, 7), 105);
}
