//! Number text: every `f32` is written as at most nine significant digits
//! and reads back bitwise, through this crate and through the plain
//! `str::parse::<f64>() as f32` decode older readers use; a plain decimal
//! reads as exactly what `str::parse::<f64>` returns.

/// Checks that `x`'s text reads back as `x`, bit for bit, both ways.
fn assert_round_trips(x: f32) {
    let text = serde_json::to_string(&x).unwrap();
    let back: f32 = serde_json::from_str(&text).unwrap();
    assert_eq!(back.to_bits(), x.to_bits(), "{x:e} wrote {text}, read back {back:e}");
    let parsed = text.parse::<f64>().unwrap() as f32;
    assert_eq!(parsed.to_bits(), x.to_bits(), "{x:e} wrote {text}, parse::<f64> read {parsed:e}");
}

/// Checks that the crate reads `text` as bitwise what `str::parse::<f64>`
/// reads.
fn assert_reads_like_std(text: &str) {
    let want = text.parse::<f64>().unwrap();
    let got: f64 = serde_json::from_str(text).unwrap();
    assert_eq!(got.to_bits(), want.to_bits(), "{text}: read {got:e}, std reads {want:e}");
}

#[test]
fn every_997th_finite_f32_round_trips_bitwise() {
    let mut checked = 0u64;
    for bits in (0..=u32::MAX).step_by(997) {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            assert_round_trips(x);
            checked += 1;
        }
    }
    assert!(checked > 4_000_000, "{checked} values");
}

/// Every `f32` in the pixel range [0, 1], both ways: 1 065 353 217 values,
/// about ten minutes on one core in a release build.
#[test]
#[ignore = "exhaustive; run with `cargo test --release -p serde_json --test numbers -- --ignored`"]
fn every_f32_in_the_pixel_range_round_trips_bitwise() {
    for bits in 0..=1.0f32.to_bits() {
        assert_round_trips(f32::from_bits(bits));
    }
}

#[test]
fn nine_digits_are_the_most_an_f32_gets() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..100_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let x = f32::from_bits((state >> 32) as u32);
        // Integers keep their exact `N.0` text, and magnitudes below about
        // 1e-23 the text of the widened f64.
        if !x.is_finite() || x.fract() == 0.0 || x.abs() < 1e-22 {
            continue;
        }
        let text = serde_json::to_string(&x).unwrap();
        let significant = text.trim_start_matches(['-', '0', '.']).replace('.', "");
        let significant = significant.trim_end_matches('0');
        assert!(significant.len() <= 9, "{x:e} wrote {text}");
    }
}

#[test]
fn plain_decimals_read_as_std_reads_them() {
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut next = |bound: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    for _ in 0..200_000 {
        let digits = |n: u64, next: &mut dyn FnMut(u64) -> u64| -> String {
            (0..n).map(|_| char::from(b'0' + next(10) as u8)).collect()
        };
        let int_len = 1 + next(12);
        let frac_len = 1 + next(24);
        let sign = if next(2) == 0 { "-" } else { "" };
        let text = format!("{sign}{}.{}", digits(int_len, &mut next), digits(frac_len, &mut next));
        assert_reads_like_std(&text);
    }
    // Pixels as the writer gives them: nine digits or fewer.
    for i in 0..=100_000u32 {
        assert_reads_like_std(&format!("0.{i:09}"));
        assert_reads_like_std(&format!("0.{i:05}"));
    }
}

#[test]
fn plain_decimal_edge_cases_read_as_std_reads_them() {
    let cases = [
        // 19 and 20 significant digits
        "1234567890.123456789",
        "12345678901.23456789",
        "0.0000001234567890123456789",
        "9999999999.999999999",
        "99999999999.999999999",
        // mantissas of 2^53 - 1, 2^53 and 2^53 + 1
        "900719925474099.1",
        "900719925474099.2",
        "900719925474099.3",
        "-9007199254.740993",
        // 22 and 23 fraction digits
        "0.0000000000000000000001",
        "0.00000000000000000000001",
        "1.0000000000000000000001",
        "0.1234567890123456789012",
        "0.12345678901234567890123",
        // signs, zeros and leading zeros
        "-0.0",
        "0.0",
        "-0.5",
        "000.5",
        "-000123.000",
        "0.000000000000000000000",
        "00000000000000000000000000.1",
        // the pixel values a request carries
        "0.100000001",
        "0.784313738",
        "0.00392156886",
        "1.0",
    ];
    for text in cases {
        assert_reads_like_std(text);
    }
    let negative_zero: f64 = serde_json::from_str("-0.0").unwrap();
    assert!(negative_zero == 0.0 && negative_zero.is_sign_negative());
}

#[test]
fn malformed_numbers_read_as_before() {
    use serde::Value;
    // `1.` is what Rust's own float parser accepts, and so did this reader.
    assert_eq!(serde_json::from_str::<Value>("1.").unwrap(), Value::F64(1.0));
    assert_eq!(serde_json::from_str::<Value>("-1.").unwrap(), Value::F64(-1.0));
    for text in ["1.2.3", "-", "1e", "--1", "1-2", "1.5-", "0.5e", "1.e"] {
        let err = serde_json::from_str::<Value>(text).unwrap_err().to_string();
        assert!(err.contains("invalid number"), "{text}: {err}");
    }
    // Integers stay integers, exponents stay on the general path.
    assert_eq!(serde_json::from_str::<Value>("-12").unwrap(), Value::I64(-12));
    assert_eq!(serde_json::from_str::<Value>("007").unwrap(), Value::U64(7));
    assert_eq!(serde_json::from_str::<Value>("2.5e-3").unwrap(), Value::F64(0.0025));
}
