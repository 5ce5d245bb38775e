//! Output checks. Every run the benchmark makes is one attempt; it
//! fails when any expectation on its output does not hold. The failed
//! share of attempts is the benchmark's error rate.

use std::fmt::Debug;

use flash::RunResult;

/// Runs attempted and failed, with one note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs whose output failed a check.
    pub failed: u64,
    /// `what: why` for each failed run.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one run; returns its value when every check held.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                self.notes.push(format!("{what}: {why}"));
                None
            }
        }
    }

    /// Failed runs over runs attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The run must have completed; yields its execution cycles.
pub fn completed(r: &RunResult) -> Result<u64, String> {
    match r {
        RunResult::Completed { exec_cycles } => Ok(*exec_cycles),
        other => Err(format!("run did not complete: {other:?}")),
    }
}

/// `got` must equal `expected`.
pub fn same<T: PartialEq + Debug>(what: &str, expected: &T, got: &T) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what} differ: expected {expected:?}, got {got:?}"))
    }
}

/// `got` must be byte-identical to the golden transcript `want`; the
/// error names the first line that differs.
pub fn golden(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let (g, w) = (String::from_utf8_lossy(got), String::from_utf8_lossy(want));
    let (mut gl, mut wl) = (g.lines(), w.lines());
    let mut line = 1;
    loop {
        match (gl.next(), wl.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                return Err(format!(
                    "stdout drifts from the golden at line {line}: got {a:?}, want {b:?}"
                ))
            }
        }
    }
}
