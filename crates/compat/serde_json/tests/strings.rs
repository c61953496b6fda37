//! String decoding: round-trips over every character class the writer
//! treats differently, and inputs large enough that a decoder which is not
//! linear in the input size would never finish.

use proptest::prelude::*;
use serde::Value;

/// One character from a class the writer and scanner treat differently:
/// printable ASCII, a control byte, an escape-class character, a BMP
/// non-ASCII character, or an astral (surrogate-pair) character.
fn char_of(class: u8, x: u32) -> char {
    const ESCAPED: [char; 8] = ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'];
    let cp = match class {
        0 => 0x20 + x % 0x5F,
        1 => x % 0x20,
        2 => return ESCAPED[x as usize % ESCAPED.len()],
        3 => 0x80 + x % (0xD800 - 0x80),
        _ => 0x1_0000 + x % (0x11_0000 - 0x1_0000),
    };
    char::from_u32(cp).expect("every class maps into valid scalar values")
}

fn mixed_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..5, any::<u32>()), 0..48)
        .prop_map(|chars| chars.into_iter().map(|(c, x)| char_of(c, x)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_string_round_trips(s in mixed_string()) {
        let json = serde_json::to_string(&s).unwrap();
        prop_assert!(!json.bytes().any(|b| b < 0x20), "writer left a raw control byte in {json:?}");
        prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), s.clone());
        // The same string as an object key and inside pretty output.
        let doc = vec![(s.clone(), s.clone())];
        let pretty = serde_json::to_string_pretty(&doc).unwrap();
        prop_assert_eq!(serde_json::from_str::<Vec<(String, String)>>(&pretty).unwrap(), doc);
    }
}

#[test]
fn multi_mib_single_string_decodes() {
    let mut s = String::new();
    while s.len() < 4 << 20 {
        s.push_str("plain ascii run, é✓😀 then an escape \" and \\ and \n; ");
    }
    let json = serde_json::to_string(&s).unwrap();
    assert_eq!(serde_json::from_str::<String>(&json).unwrap(), s);
}

#[test]
fn hundred_thousand_short_keys_decode() {
    const KEYS: usize = 100_000;
    let mut json = String::from("{");
    for i in 0..KEYS {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"k{i}\":{i}"));
    }
    json.push('}');
    let Value::Object(fields) = serde_json::from_str::<Value>(&json).unwrap() else {
        panic!("expected an object");
    };
    assert_eq!(fields.len(), KEYS);
    assert_eq!(fields[KEYS - 1].0, format!("k{}", KEYS - 1));
}
