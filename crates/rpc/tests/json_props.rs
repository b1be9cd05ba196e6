//! Malformed-input property tests for the vendored JSON module: arbitrary
//! byte soup, truncations of valid documents, and random value trees must
//! never panic — every failure is a typed [`JsonError`] — and
//! encode → parse is the identity on every generatable value. Number
//! tokens must parse to exactly the value `str::parse` gives them.

use fairgen_rpc::json::{parse, Json};
use proptest::collection::vec;
use proptest::prelude::*;

/// Builds a deterministic Json tree from a stream of draws — a hand-rolled
/// recursive strategy (the vendored proptest has no `prop_recursive`).
fn build_json(draws: &[u64], cursor: &mut usize, depth: usize) -> Json {
    let mut next = |m: u64| -> u64 {
        let v = draws.get(*cursor).copied().unwrap_or(7);
        *cursor += 1;
        v % m
    };
    let choice = if depth >= 4 { next(6) } else { next(8) };
    match choice {
        0 => Json::Null,
        1 => Json::Bool(next(2) == 0),
        2 => Json::U64(draws.get(*cursor).copied().unwrap_or(3).wrapping_mul(0x9e37)),
        3 => Json::I64(-((next(1 << 40)) as i64)),
        4 => Json::F64((next(1 << 20) as f64) / 64.0 - 1024.0),
        5 => {
            let len = next(6) as usize;
            let mut s = String::new();
            for _ in 0..len {
                // A mix of ASCII, escapes, and multibyte UTF-8.
                s.push(match next(7) {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => '\u{1}',
                    4 => 'é',
                    5 => '😀',
                    _ => 'x',
                });
            }
            Json::Str(s)
        }
        6 => {
            let len = next(4) as usize;
            Json::Arr((0..len).map(|_| build_json(draws, cursor, depth + 1)).collect())
        }
        _ => {
            let len = next(4) as usize;
            Json::Obj(
                (0..len)
                    .map(|i| (format!("k{i}"), build_json(draws, cursor, depth + 1)))
                    .collect(),
            )
        }
    }
}

/// The number classification the parser promises, built on `str::parse`:
/// an integral token is `U64` (unsigned) or `I64` (negative) when it fits,
/// and anything else is the `F64` that `str::parse::<f64>` reads.
fn reference_number(token: &str) -> Json {
    let integral = !token.contains(['.', 'e', 'E']);
    if integral {
        if token.starts_with('-') {
            if let Ok(v) = token.parse::<i64>() {
                return Json::I64(v);
            }
        } else if let Ok(v) = token.parse::<u64>() {
            return Json::U64(v);
        }
    }
    Json::F64(token.parse::<f64>().expect("reference token is a valid float"))
}

fn assert_number_matches_reference(token: &str) {
    assert_eq!(parse(token.as_bytes()), Ok(reference_number(token)), "token {token}");
}

#[test]
fn integer_edge_tokens_match_str_parse() {
    for token in [
        "0",
        "-0",
        "7",
        "-7",
        "999999999999999999",   // 18 digits
        "9999999999999999999",  // 19 digits, fits u64
        "-999999999999999999",  // 18 digits
        "-9999999999999999999", // 19 digits, below i64::MIN
        "10000000000000000000", // 20 digits, fits u64
        "99999999999999999999", // 20 digits, above u64::MAX
        "18446744073709551615", // u64::MAX
        "18446744073709551616", // u64::MAX + 1
        "9223372036854775807",  // i64::MAX
        "9223372036854775808",  // i64::MAX + 1, still a u64
        "-9223372036854775808", // i64::MIN
        "-9223372036854775809", // i64::MIN - 1
        "123456789012345678901234567890",
        "-123456789012345678901234567890",
        "-0.0",
        "1.5e300",
        "2E-3",
    ] {
        assert_number_matches_reference(token);
    }
}

proptest! {
    #[test]
    fn u64_tokens_match_str_parse(v in any::<u64>(), shift in 0u32..64) {
        assert_number_matches_reference(&(v >> shift).to_string());
    }

    #[test]
    fn i64_tokens_match_str_parse(v in any::<i64>(), shift in 0u32..64) {
        assert_number_matches_reference(&(v >> shift).to_string());
    }

    #[test]
    fn long_digit_runs_match_str_parse(
        digits in vec(0u8..10, 1..26),
        negative in any::<bool>(),
    ) {
        // No leading zero (JSON forbids it where `str::parse` would not).
        let mut token = String::from(if negative { "-" } else { "" });
        for (i, &d) in digits.iter().enumerate() {
            let d = if i == 0 && digits.len() > 1 { d.max(1) } else { d };
            token.push(char::from(b'0' + d));
        }
        assert_number_matches_reference(&token);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        // Ok or typed Err — reaching this line at all is the property.
        let _ = parse(&bytes);
    }

    #[test]
    fn encode_parse_round_trips(draws in vec(any::<u64>(), 1..64)) {
        let mut cursor = 0;
        let value = build_json(&draws, &mut cursor, 0);
        let encoded = value.encode();
        let back = parse(encoded.as_bytes());
        prop_assert_eq!(back.as_ref(), Ok(&value), "through {}", encoded);
    }

    #[test]
    fn truncations_of_valid_documents_never_panic(
        draws in vec(any::<u64>(), 1..48),
        cut_seed in any::<u64>(),
    ) {
        let mut cursor = 0;
        let value = build_json(&draws, &mut cursor, 0);
        let encoded = value.encode();
        let cut = (cut_seed as usize) % (encoded.len() + 1);
        // Cutting mid-UTF-8-sequence must also be handled (as bytes).
        let _ = parse(&encoded.as_bytes()[..cut]);
    }

    #[test]
    fn trailing_garbage_is_always_rejected(
        draws in vec(any::<u64>(), 1..32),
        garbage in 1u8..=127,
    ) {
        let mut cursor = 0;
        let value = build_json(&draws, &mut cursor, 0);
        let mut bytes = value.encode().into_bytes();
        // Any non-whitespace suffix byte must surface as an error (the
        // parser may diagnose it as garbage or as a malformed longer token,
        // e.g. `12` + `3` parses as a different number — so append a byte
        // that cannot extend any JSON value).
        if matches!(garbage, b' ' | b'\t' | b'\n' | b'\r') {
            prop_assume!(false);
        }
        bytes.push(b'#');
        bytes.push(garbage);
        prop_assert!(parse(&bytes).is_err());
    }

    #[test]
    fn u64_seeds_round_trip_losslessly(seed in any::<u64>()) {
        let encoded = Json::U64(seed).encode();
        let back = parse(encoded.as_bytes()).expect("integer");
        prop_assert_eq!(back.as_u64(), Some(seed));
    }
}
