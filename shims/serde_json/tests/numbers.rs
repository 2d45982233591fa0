//! Number text: every `f32` is written as its correctly rounded decimal of
//! at most nine significant digits, exactly the text derived here from
//! `core::fmt`'s, and reads back bitwise, through this crate and through
//! the plain `str::parse::<f64>() as f32` decode older readers use; a
//! plain decimal reads as exactly what `str::parse::<f64>` returns.

use std::fmt::Write as _;

/// Writes into `out` the text the crate must give the finite `x`, derived
/// without its code: the nine digits `{:.8e}` prints for the exact value
/// (ties to even), trailing zeros dropped, in plain notation. Integers
/// below 1e15 are `N.0`, and magnitudes below 2⁻⁷⁶ the `{}` text of the
/// widened `f64`.
fn expected_text(x: f32, out: &mut String) {
    out.clear();
    if x.is_sign_negative() {
        out.push('-');
    }
    let magnitude = x.abs();
    if magnitude.fract() == 0.0 && f64::from(magnitude) < 1e15 {
        let _ = write!(out, "{magnitude:.1}");
        return;
    }
    if magnitude < 2f32.powi(-76) {
        let _ = write!(out, "{}", f64::from(magnitude));
        return;
    }
    let mut scientific = String::with_capacity(16);
    let _ = write!(scientific, "{:.8e}", f64::from(magnitude));
    let (mantissa, exp) = scientific.split_once('e').unwrap();
    let digits: String = mantissa.chars().filter(|&c| c != '.').collect();
    let digits = digits.trim_end_matches('0');
    // The digits are d.ddd × 10^exp: the point goes after `exp + 1` of them.
    let point = exp.parse::<i32>().unwrap() + 1;
    if point <= 0 {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', point.unsigned_abs() as usize));
        out.push_str(digits);
    } else if point as usize >= digits.len() {
        out.push_str(digits);
        out.extend(std::iter::repeat_n('0', point as usize - digits.len()));
    } else {
        let (int, frac) = digits.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    }
}

/// Checks that `x`'s text is [`expected_text`], reusing `want` for it,
/// and that it reads back as `x`, bit for bit, both ways.
fn assert_text_and_round_trip(x: f32, want: &mut String) {
    let text = serde_json::to_string(&x).unwrap();
    expected_text(x, want);
    assert_eq!(&text, want, "{x:e} ({:#010x})", x.to_bits());
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

/// Every 997th finite `f32`, of either sign: its text, and its round trip.
#[test]
fn every_997th_finite_f32_round_trips_bitwise() {
    let mut checked = 0u64;
    let mut want = String::new();
    for bits in (0..=u32::MAX).step_by(997) {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            assert_text_and_round_trip(x, &mut want);
            checked += 1;
        }
    }
    assert!(checked > 4_000_000, "{checked} values");
}

/// Every `f32` in the pixel range [0, 1], 1 065 353 217 values: its text,
/// and its round trip both ways. A writer that printed other digits that
/// still read back would change every model file, so the text is checked
/// too.
#[test]
#[ignore = "exhaustive; run with `cargo test --release -p serde_json --test numbers -- --ignored`"]
fn every_f32_in_the_pixel_range_round_trips_bitwise() {
    let mut want = String::new();
    for bits in 0..=1.0f32.to_bits() {
        assert_text_and_round_trip(f32::from_bits(bits), &mut want);
    }
}

#[test]
fn the_text_derivation_matches_pinned_texts() {
    let mut want = String::new();
    for (x, text) in [
        (0.0f32, "0.0"),
        (-0.0, "-0.0"),
        (1.0, "1.0"),
        (0.1, "0.100000001"),
        (200.0 / 255.0, "0.784313738"),
        (1e-7, "0.000000100000001"),
        (-2.5e20, "-250000005000000000000"),
        (f32::MAX, "340282347000000000000000000000000000000"),
        (999_999_986_991_104.0, "999999986991104.0"),
    ] {
        expected_text(x, &mut want);
        assert_eq!(want, text, "{x:e}");
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
