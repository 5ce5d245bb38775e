//! Property tests for [`flash_engine::knobs`]: every `FLASH_*` variable
//! is text from outside the program. For every knob, arbitrary text must
//! parse or fall back to the documented default — never panic — and a
//! valid value must survive surrounding whitespace.

use std::time::Duration;

use flash_engine::knobs::{parse, Kind, Knob, Value, ALL};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Characters that reach every branch of the parsers: digits, signs,
/// the float syntax, whitespace, letters and multi-byte UTF-8.
const CHARS: [char; 16] = [
    '0', '1', '9', '-', '+', '.', 'e', 'E', ' ', '\t', '\n', 'x', 'n', 'i', 'é', '😀',
];

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| match rng.below(4) {
            0 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('?'),
            _ => CHARS[rng.below(CHARS.len() as u64) as usize],
        })
        .collect()
}

/// Arbitrary text, biased towards what the parsers might trip over.
struct AnyText;

impl Strategy for AnyText {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        text(rng)
    }
}

/// Whitespace `trim` removes, for either side of a value.
struct Padding;

impl Strategy for Padding {
    type Value = (&'static str, &'static str);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        const PADS: [&str; 5] = [" ", "", "\t", "\n ", "  "];
        let mut pad = || PADS[rng.below(PADS.len() as u64) as usize];
        (pad(), pad())
    }
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics(raw in AnyText) {
        for knob in ALL {
            if let Some(v) = parse(knob.kind, Some(&raw)) {
                let fits = match (knob.kind, v) {
                    (Kind::Count, Value::Count(n)) => n > 0,
                    (Kind::Seconds, Value::Seconds(d)) => !d.is_zero(),
                    (Kind::Text, Value::Text(s)) => !s.is_empty() && s == s.trim(),
                    (Kind::Flag, Value::On) => true,
                    _ => false,
                };
                prop_assert!(fits, "{}={raw:?}", knob.name);
            }
        }
    }

    #[test]
    fn padded_counts_parse(n in 1u64..=u64::MAX, pad in Padding) {
        let raw = format!("{}{n}{}", pad.0, pad.1);
        prop_assert_eq!(parse(Kind::Count, Some(&raw)), Some(Value::Count(n)));
    }

    #[test]
    fn padded_seconds_parse(ms in 1u64..10_000_000, pad in Padding) {
        let raw = format!("{}{}{}", pad.0, ms as f64 / 1000.0, pad.1);
        let got = match parse(Kind::Seconds, Some(&raw)) {
            Some(Value::Seconds(d)) => d,
            other => panic!("{raw:?} gave {other:?}"),
        };
        prop_assert!(got.abs_diff(Duration::from_millis(ms)) < Duration::from_micros(1));
    }
}

#[test]
fn trimmed_valid_values_parse() {
    for knob in ALL {
        let (raw, want) = match knob.kind {
            Kind::Count => (" 8 ", Value::Count(8)),
            Kind::Seconds => (" 2.5 ", Value::Seconds(Duration::from_millis(2500))),
            Kind::Text => (" out/dir ", Value::Text("out/dir".into())),
            Kind::Flag => (" 1 ", Value::On),
        };
        assert_eq!(parse(knob.kind, Some(raw)), Some(want), "{}", knob.name);
    }
}

/// Unset, empty, zero and malformed values all mean the default. Text
/// knobs take any non-blank string as a directory or pattern, so only
/// blank text is malformed for them.
#[test]
fn empty_zero_and_malformed_values_mean_the_default() {
    for knob in ALL {
        let malformed: &[&str] = match knob.kind {
            Kind::Text => &["", "  ", "\t\n"],
            _ => &["", " ", "0", " 0 ", "x", "-1", "inf", "NaN", "1e30"],
        };
        assert_eq!(parse(knob.kind, None), None, "{} unset", knob.name);
        for raw in malformed {
            assert_eq!(parse(knob.kind, Some(raw)), None, "{}={raw:?}", knob.name);
        }
    }
}

/// The table is the README's operator table: unique `FLASH_*` names,
/// and a default and doc on every row.
#[test]
fn table_rows_are_complete_and_unique() {
    for (i, knob) in ALL.iter().enumerate() {
        assert!(knob.name.starts_with("FLASH_"), "{knob:?}");
        assert!(!knob.default.is_empty() && !knob.doc.is_empty(), "{knob:?}");
        assert!(
            ALL[..i].iter().all(|k| k.name != knob.name),
            "duplicate {}",
            knob.name
        );
    }
}

/// The typed readers go through the environment and the one parser; a
/// value the reader's type cannot hold means the default too.
#[test]
fn typed_readers_read_the_environment() {
    let knob = Knob {
        name: "FLASH_KNOBS_PROPS_SELF_TEST",
        kind: Kind::Count,
        default: "unset",
        doc: "test-only",
    };
    std::env::remove_var(knob.name);
    assert_eq!(knob.count::<u16>(), None);
    std::env::set_var(knob.name, " 8 ");
    assert_eq!(knob.count::<u16>(), Some(8));
    assert_eq!(knob.seconds(), None, "a count is not seconds");
    std::env::set_var(knob.name, "70000");
    assert_eq!(knob.count::<u16>(), None);
    assert_eq!(knob.count::<u32>(), Some(70_000));
    std::env::remove_var(knob.name);
}
