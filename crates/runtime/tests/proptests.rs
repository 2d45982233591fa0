//! Property-based tests for the determinism contract: every `par_*`
//! entry point equals its serial counterpart, bitwise, for arbitrary
//! input lengths (including 0 and lengths below the thread count).

use proptest::prelude::*;
use simpadv_runtime::{split_seed, Runtime};

proptest! {
    #[test]
    fn par_map_equals_serial_map(
        items in prop::collection::vec(-1_000_000i64..1_000_000, 0..200),
        threads in 1usize..9,
    ) {
        let rt = Runtime::new(threads);
        let serial: Vec<i64> = items.iter().map(|x| x.wrapping_mul(31).wrapping_add(7)).collect();
        let parallel = rt.par_map(&items, |x| x.wrapping_mul(31).wrapping_add(7));
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn par_map_float_results_are_bitwise_equal(
        items in prop::collection::vec(-1.0e3f32..1.0e3, 0..150),
        threads in 1usize..9,
    ) {
        let rt = Runtime::new(threads);
        let serial: Vec<u32> = items.iter().map(|x| (x.sin() * x.exp()).to_bits()).collect();
        let parallel: Vec<u32> = rt.par_map(&items, |x| (x.sin() * x.exp()).to_bits());
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn par_chunks_equals_serial_chunking(
        len in 0usize..500,
        chunk in 1usize..40,
        threads in 1usize..9,
    ) {
        let data: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).cos()).collect();
        let serial: Vec<f32> = data.chunks(chunk).map(|c| c.iter().sum()).collect();
        let parallel = Runtime::new(threads)
            .par_chunks(len, chunk, |r| data[r].iter().sum::<f32>());
        let serial_bits: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
        let parallel_bits: Vec<u32> = parallel.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(parallel_bits, serial_bits);
    }

    #[test]
    fn chunk_partition_is_thread_count_invariant(
        len in 0usize..300,
        chunk in 1usize..32,
        ta in 1usize..9,
        tb in 1usize..9,
    ) {
        let a = Runtime::new(ta).par_chunks(len, chunk, |r| r);
        let b = Runtime::new(tb).par_chunks(len, chunk, |r| r);
        prop_assert_eq!(&a, &b);
        // the ranges tile 0..len exactly
        let mut cursor = 0usize;
        for r in &a {
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.end > r.start);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, len);
    }

    #[test]
    fn split_seed_is_injective_on_small_streams(base in 0u64..u64::MAX) {
        let seeds: Vec<u64> = (0..64).map(|s| split_seed(base, s)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seeds.len());
    }
}
