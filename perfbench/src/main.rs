//! Command line:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Prints every metric by name with its unit, then one JSON result line.
//! Exits 1 when an output check failed, 2 on a usage error.

use perfbench::{Options, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut opts) = (None, Options::new(perfbench::DEFAULT_SEED, 10.0));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage(&format!("{flag} needs a value")) };
        let ok = match flag.as_str() {
            "--workload" => Workload::parse(value).map(|w| workload = Some(w)).is_some(),
            "--seed" => value.parse().map(|s| opts.seed = s).is_ok(),
            "--seconds" => {
                value.parse().map(|s: f64| opts.seconds = s).is_ok() && opts.seconds > 0.0
            }
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };

    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        perfbench::nproc()
    );
    let outcome = perfbench::run(workload, &opts);
    println!("input digest {:016x}", outcome.input_digest);
    for line in &outcome.lines {
        println!("{line}");
    }
    if opts.trace {
        match perfbench::trace::write_spans(workload.name(), opts.seed, &outcome.spans) {
            Ok(path) => println!("{} spans written to {path}", outcome.spans.len()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    let correct = outcome.failed == 0;
    println!("{}", perfbench::result_json(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
