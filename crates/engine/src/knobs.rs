//! Every `FLASH_*` environment variable the workspace reads, declared
//! once with its type, default and meaning, and parsed by one function.
//!
//! [`parse`] trims the variable's text and never panics. An unset,
//! empty, zero or malformed value yields `None`, which every reader
//! takes as the knob's documented default, so a typo can neither crash
//! a run nor turn a sweep into one that checks nothing. [`ALL`] is the
//! README's operator table row for row; `crates/bench/tests/doc_links.rs`
//! holds the two equal.
//!
//! Binaries, test helpers and the run-matrix driver consult knobs. The
//! MAGIC model and `Machine` take every setting as a value; the one
//! process default a machine config still takes from here is
//! [`SHARDS`].
//!
//! ```
//! use flash_engine::knobs::{parse, Kind, Value};
//!
//! assert_eq!(parse(Kind::Count, Some(" 8 ")), Some(Value::Count(8)));
//! assert_eq!(parse(Kind::Count, Some("0")), None); // the default
//! ```

use std::time::Duration;

/// How a knob's text is read.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A positive whole number.
    Count,
    /// A positive, finite number of seconds; fractions allowed.
    Seconds,
    /// Non-empty text: a directory or a substring to match.
    Text,
    /// On when set to `1`.
    Flag,
}

/// A knob's value when it is validly set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A [`Kind::Count`] value.
    Count(u64),
    /// A [`Kind::Seconds`] value.
    Seconds(Duration),
    /// A [`Kind::Text`] value, trimmed.
    Text(String),
    /// A [`Kind::Flag`] that is on.
    On,
}

/// One environment knob: a row of the README's operator table.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// How its text is read.
    pub kind: Kind,
    /// What an unset, empty, zero or malformed value means, as the
    /// README's Default column writes it.
    pub default: &'static str,
    /// What the knob does, in one line.
    pub doc: &'static str,
}

/// Problem-size divisor of the paper artifacts.
pub const SCALE: Knob = Knob {
    name: "FLASH_SCALE",
    kind: Kind::Count,
    default: "4",
    doc: "problem-size divisor of the paper artifacts; 1 is the paper's Table 3.5 sizes",
};

/// Processor count of the parallel applications.
pub const PROCS: Knob = Knob {
    name: "FLASH_PROCS",
    kind: Kind::Count,
    default: "16",
    doc: "processor count of the parallel applications",
};

/// Run-matrix worker threads.
pub const JOBS: Knob = Knob {
    name: "FLASH_JOBS",
    kind: Kind::Count,
    default: "all cores",
    doc: "run-matrix worker threads; output is byte-identical for any value",
};

/// Wall-clock limit per run-matrix job.
pub const JOB_TIMEOUT: Knob = Knob {
    name: "FLASH_JOB_TIMEOUT",
    kind: Kind::Seconds,
    default: "none",
    doc: "wall-clock seconds per run-matrix job; an overrunning job is abandoned as failed",
};

/// Default shard count of every machine config.
pub const SHARDS: Knob = Knob {
    name: "FLASH_SHARDS",
    kind: Kind::Count,
    default: "1",
    doc: "shard count of the time-window engine; output is byte-identical for any value",
};

/// Seeds per configuration of a soak test.
pub const SOAK_SEEDS: Knob = Knob {
    name: "FLASH_SOAK_SEEDS",
    kind: Kind::Count,
    default: "suite default",
    doc: "seeds per configuration of the checked-stress, fault and traffic soaks",
};

/// Directory for observed-mode exports.
pub const OBSERVE_OUT: Knob = Knob {
    name: "FLASH_OBSERVE_OUT",
    kind: Kind::Text,
    default: "unset",
    doc: "directory: export flash-observe-v1 JSON and a Chrome trace per unique run-matrix job",
};

/// Isolation self-test: panic matching jobs.
pub const INJECT_PANIC: Knob = Knob {
    name: "FLASH_INJECT_PANIC",
    kind: Kind::Text,
    default: "unset",
    doc: "substring: panic the run-matrix jobs whose key contains it (isolation self-test)",
};

/// Isolation self-test: hang matching jobs.
pub const INJECT_HANG: Knob = Knob {
    name: "FLASH_INJECT_HANG",
    kind: Kind::Text,
    default: "unset",
    doc: "substring: hang the run-matrix jobs whose key contains it (isolation self-test)",
};

/// Rewrite golden transcripts instead of diffing them.
pub const BLESS: Knob = Knob {
    name: "FLASH_BLESS",
    kind: Kind::Flag,
    default: "unset",
    doc: "1: rewrite golden transcripts instead of diffing them",
};

/// Every knob, in the README's order.
pub const ALL: [Knob; 10] = [
    SCALE,
    PROCS,
    JOBS,
    JOB_TIMEOUT,
    SHARDS,
    SOAK_SEEDS,
    OBSERVE_OUT,
    INJECT_PANIC,
    INJECT_HANG,
    BLESS,
];

/// Reads a variable's text (`None`: unset) as a value of `kind`.
/// `None` means the knob's documented default: unset, empty, zero,
/// non-positive, non-finite, unrepresentable and unparsable values all
/// give it.
pub fn parse(kind: Kind, raw: Option<&str>) -> Option<Value> {
    let raw = raw?.trim();
    match kind {
        Kind::Count => raw.parse().ok().filter(|&n| n > 0).map(Value::Count),
        Kind::Seconds => {
            let secs = raw.parse::<f64>().ok().filter(|&s| s > 0.0)?;
            Duration::try_from_secs_f64(secs).ok().map(Value::Seconds)
        }
        Kind::Text => (!raw.is_empty()).then(|| Value::Text(raw.to_owned())),
        Kind::Flag => (raw == "1").then_some(Value::On),
    }
}

impl Knob {
    /// The knob's value in this process's environment (`None`: the
    /// default). Text that is not valid Unicode counts as malformed.
    fn get(&self) -> Option<Value> {
        parse(self.kind, std::env::var(self.name).ok().as_deref())
    }

    /// A [`Kind::Count`] knob's value as a `T`; `None` (the default) also
    /// when `T` cannot hold it.
    pub fn count<T: TryFrom<u64>>(&self) -> Option<T> {
        match self.get()? {
            Value::Count(n) => T::try_from(n).ok(),
            _ => None,
        }
    }

    /// A [`Kind::Seconds`] knob's value.
    pub fn seconds(&self) -> Option<Duration> {
        match self.get()? {
            Value::Seconds(d) => Some(d),
            _ => None,
        }
    }

    /// A [`Kind::Text`] knob's value.
    pub fn text(&self) -> Option<String> {
        match self.get()? {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Whether a [`Kind::Flag`] knob is on.
    pub fn is_on(&self) -> bool {
        self.get() == Some(Value::On)
    }
}
