//! Property-based round-trip coverage of the hand-rolled JSON layer
//! (`runtime::obs::json`): every metrics dump, Chrome trace, drift
//! report and bench-history row goes through this writer/parser pair,
//! so `parse(v.to_string()) == v` has to hold across escapes, unicode,
//! deep nesting and the awkward corners of f64 formatting. The same
//! trees check the Prometheus rendering (`Json::to_prometheus`): one
//! sample per finite number or boolean, one `# TYPE` line per name
//! ahead of its samples, and only valid metric names.
//!
//! The offline proptest shim has integer-range strategies only, so the
//! structured values are grown from a seeded SplitMix64 stream — the
//! same recipe the observability tests use for traces.

use hicma_parsec::runtime::obs::json::Json;
use proptest::prelude::*;

/// SplitMix64 step: the shim's own generator, reused here so a failing
/// seed reproduces exactly.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Characters that stress the escaper: quotes, backslashes, control
/// characters, BMP and astral unicode, and plain ASCII.
const CHAR_POOL: &[char] = &[
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}',
    'é', 'ß', '中', '文', '→', '\u{2028}', '😀', '🚀', '\u{10FFFF}', '\u{0}',
];

fn seeded_string(state: &mut u64) -> String {
    let len = (next(state) % 12) as usize;
    (0..len).map(|_| CHAR_POOL[(next(state) as usize) % CHAR_POOL.len()]).collect()
}

/// Finite f64s biased toward the corners: exact integers at the 2^53
/// precision cliff, subnormals, huge magnitudes, negative zero, and
/// random bit patterns filtered to finite.
fn seeded_num(state: &mut u64) -> f64 {
    const EDGES: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        -0.5,
        1e308,
        -1e308,
        f64::MAX,
        f64::MIN,
        5e-324,                  // smallest subnormal
        2.2250738585072014e-308, // smallest normal
        9007199254740992.0,      // 2^53
        9007199254740991.0,      // 2^53 - 1
        -9007199254740991.0,
        1.0 / 3.0,
        std::f64::consts::PI,
        1e-10,
        123_456_789.123_456_79,
    ];
    match next(state) % 3 {
        0 => EDGES[(next(state) as usize) % EDGES.len()],
        1 => (next(state) as i64 % 1_000_000) as f64,
        _ => {
            let v = f64::from_bits(next(state));
            if v.is_finite() {
                v
            } else {
                (next(state) % 1000) as f64 * 0.25
            }
        }
    }
}

/// A random Json tree of bounded depth/width.
fn seeded_json(state: &mut u64, depth: usize) -> Json {
    let pick = if depth == 0 { next(state) % 4 } else { next(state) % 6 };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(next(state).is_multiple_of(2)),
        2 => Json::Num(seeded_num(state)),
        3 => Json::Str(seeded_string(state)),
        4 => {
            let n = (next(state) % 4) as usize;
            Json::Arr((0..n).map(|_| seeded_json(state, depth - 1)).collect())
        }
        _ => {
            let n = (next(state) % 4) as usize;
            Json::Obj(
                (0..n).map(|_| (seeded_string(state), seeded_json(state, depth - 1))).collect(),
            )
        }
    }
}

/// The same tree with about a third of its numbers made non-finite.
fn poisoned(v: Json, state: &mut u64) -> Json {
    match v {
        Json::Num(_) if next(state).is_multiple_of(3) => {
            Json::Num([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(next(state) % 3) as usize])
        }
        Json::Arr(items) => Json::Arr(items.into_iter().map(|v| poisoned(v, state)).collect()),
        Json::Obj(fields) => {
            Json::Obj(fields.into_iter().map(|(k, v)| (k, poisoned(v, state))).collect())
        }
        leaf => leaf,
    }
}

/// Finite numbers and booleans in a tree: the leaves Prometheus prints.
fn sampled_leaves(v: &Json) -> usize {
    match v {
        Json::Bool(_) => 1,
        Json::Num(x) => usize::from(x.is_finite()),
        Json::Null | Json::Str(_) => 0,
        Json::Arr(items) => items.iter().map(sampled_leaves).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| sampled_leaves(v)).sum(),
    }
}

/// `[a-zA-Z_][a-zA-Z0-9_]*`
fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The Prometheus rendering prints one sample per finite number or
    /// boolean leaf and nothing for strings, nulls and non-finite
    /// numbers; each name gets one `# TYPE` line, right before its
    /// samples, and every name is a valid metric name.
    #[test]
    fn prometheus_samples_the_numeric_leaves(seed in 0u64..1_000_000) {
        let mut state = seed ^ 0x5eed_0f9a;
        let v = seeded_json(&mut state, 4);
        let v = poisoned(v, &mut state);
        let text = v.to_prometheus();
        let mut typed: Vec<&str> = Vec::new();
        let mut samples = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.strip_suffix(" gauge").expect("every sample is a gauge");
                prop_assert!(is_metric_name(name), "seed {}: name `{}`", seed, name);
                prop_assert!(!typed.contains(&name), "seed {}: second TYPE for {}", seed, name);
                typed.push(name);
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("`series value`");
            let name = series.split('{').next().unwrap();
            prop_assert_eq!(Some(&name), typed.last(), "seed {}: {} outside its family", seed, line);
            let x = value.parse::<f64>();
            prop_assert!(x.is_ok_and(f64::is_finite), "seed {}: value `{}`", seed, value);
            samples += 1;
        }
        prop_assert_eq!(samples, sampled_leaves(&v), "seed {}: {}", seed, text);
    }

    /// Writer → parser is the identity on finite-valued trees. f64
    /// equality is exact: `Display` prints the shortest round-trip
    /// form, so even subnormals and 2^53-adjacent integers survive.
    #[test]
    fn structured_values_round_trip(seed in 0u64..1_000_000) {
        let mut state = seed;
        let v = seeded_json(&mut state, 4);
        let text = v.to_string();
        let back = Json::parse(&text);
        prop_assert!(back.is_ok(), "seed {} failed to parse {}: {:?}", seed, text, back.err());
        prop_assert_eq!(back.unwrap(), v, "seed {}", seed);
    }

    /// Strings alone, heavier on the escape pool.
    #[test]
    fn strings_round_trip(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(3).wrapping_add(1);
        let mut s = String::new();
        for _ in 0..(next(&mut state) % 40) {
            s.push(CHAR_POOL[(next(&mut state) as usize) % CHAR_POOL.len()]);
        }
        let v = Json::Str(s);
        prop_assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    /// Numbers alone: shortest-round-trip printing must be lossless.
    #[test]
    fn numbers_round_trip(seed in 0u64..1_000_000) {
        let mut state = seed ^ 0xdead_beef;
        let x = seeded_num(&mut state);
        let v = Json::Num(x);
        let back = Json::parse(&v.to_string()).unwrap();
        match back {
            Json::Num(y) => prop_assert!(
                x == y || (x.is_nan() && y.is_nan()),
                "{} reparsed as {}", x, y
            ),
            other => prop_assert!(false, "number reparsed as {:?}", other),
        }
    }
}

#[test]
fn non_finite_numbers_serialize_as_null() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let text = Json::Num(x).to_string();
        assert_eq!(text, "null");
        assert_eq!(Json::parse(&text).unwrap(), Json::Null);
    }
}

#[test]
fn prometheus_prints_nothing_for_strings_nulls_and_non_finite_numbers() {
    let v = Json::Obj(vec![
        ("s".to_string(), Json::Str("1".to_string())),
        ("n".to_string(), Json::Null),
        ("x".to_string(), Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)])),
    ]);
    assert_eq!(v.to_prometheus(), "");
}

#[test]
fn prometheus_names_paths_and_labels_positions() {
    let v = Json::parse(r#"{"a":{"b-c":1.5,"d":true},"e":[[2],[3,false]],"f":[{"g":4}]}"#).unwrap();
    let want = "# TYPE tlr_a_b_c gauge\ntlr_a_b_c 1.5\n\
                # TYPE tlr_a_d gauge\ntlr_a_d 1\n\
                # TYPE tlr_e gauge\n\
                tlr_e{i=\"0\",j=\"0\"} 2\ntlr_e{i=\"1\",j=\"0\"} 3\ntlr_e{i=\"1\",j=\"1\"} 0\n\
                # TYPE tlr_f_g gauge\ntlr_f_g{i=\"0\"} 4\n";
    assert_eq!(v.to_prometheus(), want);
}

#[test]
fn deep_nesting_round_trips() {
    // ~200 levels: the parser recurses, so this pins the practical
    // depth head-room for metrics dumps without risking stack overflow.
    let mut v = Json::Num(42.0);
    for i in 0..200 {
        v = if i % 2 == 0 {
            Json::Arr(vec![v])
        } else {
            Json::Obj(vec![("k".to_string(), v)])
        };
    }
    let text = v.to_string();
    assert_eq!(Json::parse(&text).unwrap(), v);
}

#[test]
fn unicode_escapes_parse_to_chars() {
    let v = Json::parse(r#""\u0041\u00e9\u4e2d\u001f""#).unwrap();
    assert_eq!(v, Json::Str("Aé中\u{1f}".to_string()));
    // Lone surrogates cannot form a char; the parser substitutes
    // U+FFFD instead of erroring, keeping dumps loadable.
    let v = Json::parse(r#""\ud83d""#).unwrap();
    assert_eq!(v, Json::Str("\u{fffd}".to_string()));
}

#[test]
fn control_characters_escape_and_reparse() {
    let s: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
    let v = Json::Str(s);
    let text = v.to_string();
    assert!(text.contains("\\u0000") || text.contains("\\n"), "{text}");
    assert_eq!(Json::parse(&text).unwrap(), v);
}

#[test]
fn whitespace_and_structure_tolerance() {
    let v = Json::parse(" {\n\t\"a\" : [ 1 , 2.5 ,\r null , true ] , \"b\" : { } } ").unwrap();
    assert_eq!(v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()), Some(4));
    assert_eq!(v.get("b"), Some(&Json::Obj(Vec::new())));
}

#[test]
fn malformed_inputs_error_instead_of_panicking() {
    for bad in [
        "", "{", "[", "\"", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "nul", "1e999e",
        "\"\\x\"", "\"\\u12\"", "[1 2]", "{}extra",
    ] {
        assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
    }
}
