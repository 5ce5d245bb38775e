//! `minimize` — shrink a failing FLASH run to a minimal, replayable
//! `flash-repro-v1` artifact.
//!
//! ```text
//! minimize [output flags] <failure spec> --predicate <p>
//! minimize --replay <artifact.json>
//! ```
//!
//! Failure spec (see `flash_minimize::Spec`):
//!
//! ```text
//!   --stress NODES,LINES,ITEMS,SEED   seeded stress-net streams
//!   --workload NAME,PROCS,SCALE[,BOUND] named paper workload, bounded
//!   --traffic NODES,OBJECTS,ITEMS,GAP,SEED[,BOUND] open-loop traffic, paced
//!   --controller flash|cost-table|ideal    (default flash)
//!   --cache BYTES                     cache capacity override
//!   --check                           arm the flash-check net
//!   --faults none|zeroed,S|light,S|stress,S   fault preset
//!   --link-down SRC,DST,FROM[,UNTIL]  scripted outage (repeatable)
//!   --watchdog CYCLES                 watchdog override
//!   --budget CYCLES                   run budget (default 2000000)
//!   --predicate wedge[:fp] | violation[:fp] | oracle | shards:a,b | exit:cmd
//! ```
//!
//! Output flags:
//!
//! ```text
//!   --out PATH          write the minimal artifact (default: repro.json)
//!   --emit-test NAME    also print a #[test] regression stub
//!   --attempts N        candidate-evaluation budget (default 5000)
//!   --timeout SECS      wall-clock limit per candidate (default: none)
//!   --shards N          force a shard count for every replay
//!   --no-pin            don't pin the first observed fingerprint
//!   --verbose           log accepted shrinks to stderr
//! ```
//!
//! Replay mode:
//!
//! ```text
//!   --replay PATH       replay an artifact; exit 0 if the recorded
//!                       failure reproduces, 2 if the run is clean,
//!                       1 on any mismatch.
//! ```

use flash::repro::Repro;
use flash_minimize::{emit, minimize, EvalOptions, Predicate, SearchOptions, Spec};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("minimize: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let mut spec_args: Vec<String> = Vec::new();
    let mut out_path = String::from("repro.json");
    let mut emit_test: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut opts = SearchOptions::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_path = value(&mut i, "--out")?,
            "--emit-test" => emit_test = Some(value(&mut i, "--emit-test")?),
            "--replay" => replay_path = Some(value(&mut i, "--replay")?),
            "--attempts" => {
                opts.max_attempts = value(&mut i, "--attempts")?
                    .parse()
                    .map_err(|_| "bad --attempts")?;
            }
            "--timeout" => {
                let secs = value(&mut i, "--timeout")?;
                let limit = secs
                    .parse::<f64>()
                    .ok()
                    .filter(|&s| s > 0.0)
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or(format!("bad --timeout `{secs}`: need positive seconds"))?;
                opts.eval.timeout = Some(limit);
            }
            "--shards" => {
                opts.eval.shards = Some(
                    value(&mut i, "--shards")?
                        .parse()
                        .map_err(|_| "bad --shards")?,
                );
            }
            "--no-pin" => opts.no_pin = true,
            "--verbose" => opts.verbose = true,
            other => spec_args.push(other.to_string()),
        }
        i += 1;
    }

    if let Some(path) = replay_path {
        return replay(&path, &opts.eval);
    }

    let spec = Spec::from_args(&spec_args)?;
    let initial = spec.build_repro();
    eprintln!(
        "minimizing: {} node(s), {} reference(s), {} fault atom(s), predicate `{}`",
        initial.nodes,
        initial.reference_count(),
        initial.fault_atoms.len(),
        spec.predicate,
    );
    let shrink = minimize(&initial, &spec.predicate, &opts)?;
    std::fs::write(&out_path, shrink.repro.to_json_string())
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!(
        "minimal: {} node(s), {} reference(s), {} fault atom(s) after {} attempt(s); fingerprint {}",
        shrink.repro.nodes,
        shrink.repro.reference_count(),
        shrink.repro.fault_atoms.len(),
        shrink.attempts,
        shrink.fingerprint,
    );
    eprintln!("artifact: {out_path}");
    eprintln!("replay:   minimize --replay {out_path}");
    if let Some(name) = emit_test {
        println!("{}", emit::test_stub(&shrink.repro, &name));
    }
    Ok(0)
}

/// Replays an artifact and reports whether its recorded failure still
/// reproduces.
fn replay(path: &str, eval: &EvalOptions) -> Result<i32, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let repro = Repro::parse(&text)?;
    let predicate: Predicate = repro
        .predicate
        .parse()
        .map_err(|e| format!("artifact predicate: {e}"))?;
    match predicate.eval(&repro, eval) {
        Some(fp) => {
            println!("reproduced: {fp}");
            if let Some(expect) = &repro.expect {
                if *expect != fp {
                    println!("WARNING: artifact recorded a different fingerprint: {expect}");
                    return Ok(1);
                }
            }
            Ok(0)
        }
        None => {
            let outcome = repro.replay();
            println!(
                "clean: failure did not reproduce (result {:?}, {} violation(s))",
                outcome.result,
                outcome.violations.len()
            );
            Ok(2)
        }
    }
}
