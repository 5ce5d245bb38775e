//! Property tests for [`flash_engine::json`]: every artifact this
//! workspace writes goes through it, and `minimize --replay` feeds it
//! files from outside the program. Generated values must survive
//! `parse(render(v)) == v`, and truncated or byte-damaged documents must
//! come back as `Err` or `Ok` — never a panic or a stack overflow.

use flash_engine::json::Json;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Characters that exercise every branch of the string writer and
/// parser: plain ASCII, the escaped set, raw control characters, and
/// multi-byte UTF-8.
const CHARS: [char; 14] = [
    'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '€', '😀',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(8))
        .map(|_| match rng.below(4) {
            0 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('?'),
            _ => CHARS[rng.below(CHARS.len() as u64) as usize],
        })
        .collect()
}

/// A finite float with an arbitrary bit pattern (JSON cannot carry
/// NaN or infinity, so the writer renders those as `null`).
fn float(rng: &mut TestRng) -> f64 {
    let f = f64::from_bits(rng.next_u64());
    if f.is_finite() {
        f
    } else {
        0.5
    }
}

/// Any canonical [`Json`] value with at most `depth` levels of arrays
/// and objects. `Int` is kept negative: a non-negative integer parses as
/// `UInt`, its one canonical form.
struct AnyJson {
    depth: u32,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 6 } else { 8 };
        let inner = AnyJson {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::UInt(prop_oneof![0u64..1000, any::<u64>(), Just(u64::MAX)].generate(rng)),
            3 => Json::Int(prop_oneof![-1000i64..0, i64::MIN..0, Just(i64::MIN)].generate(rng)),
            4 => Json::Float(float(rng)),
            5 => Json::Str(string(rng)),
            6 => Json::Arr((0..rng.below(4)).map(|_| inner.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (string(rng), inner.generate(rng)))
                    .collect(),
            ),
        }
    }
}

/// Bytes most likely to turn a valid document into a tricky invalid
/// one, plus a non-ASCII lead byte.
const DAMAGE: [u8; 16] = [
    b'[', b']', b'{', b'}', b'"', b'\\', b',', b':', b'-', b'.', b'e', b'0', b'u', b'n', b' ', 0xc3,
];

proptest! {
    #[test]
    fn render_then_parse_is_identity(v in AnyJson { depth: 4 }) {
        let text = v.render();
        prop_assert_eq!(Json::parse(&text), Ok(v.clone()), "{}", text);
    }

    #[test]
    fn truncated_documents_never_panic(v in AnyJson { depth: 4 }, cut in any::<u64>()) {
        let text = v.render();
        let bytes = text.as_bytes();
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        let _ = Json::parse(&String::from_utf8_lossy(&bytes[..cut]));
    }

    #[test]
    fn damaged_documents_never_panic(
        v in AnyJson { depth: 4 },
        hits in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..4),
    ) {
        let mut bytes = v.render().into_bytes();
        for (at, with) in hits {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = match with % 3 {
                0 => (with >> 8) as u8,
                _ => DAMAGE[(with >> 8) as usize % DAMAGE.len()],
            };
        }
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}
