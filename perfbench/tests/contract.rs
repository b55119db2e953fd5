//! The benchmark's own contract: tiny runs of every workload complete
//! without failures, inputs and modelled figures depend only on the seed,
//! and the output checks catch a corrupted output.

use perfbench::{run, Options, Workload, END_TO_END, PER_LAYER};

fn tiny(seed: u64, trace: bool) -> Options {
    Options { seed, seconds: 0.2, trace, tiny: true, corrupt: None }
}

#[test]
fn tiny_runs_complete_without_failures() {
    for w in Workload::ALL {
        let out = run(w, &tiny(7, false));
        assert!(out.attempted > 0, "{}: nothing attempted", w.name());
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.lines);
        assert_eq!(out.get("success_share"), Some(1.0), "{}", w.name());
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        assert!(
            out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
            "{}: {:?}",
            w.name(),
            out.metrics
        );
    }
}

#[test]
fn tiny_traced_runs_replay_the_same_work() {
    for w in Workload::ALL {
        let out = run(w, &tiny(7, true));
        // A replay that disagrees with the session counts as a failure.
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.lines);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        assert!(!out.spans.is_empty(), "{}: no spans", w.name());
        assert!(out.get("bench.trace_coverage").is_some_and(|c| c > 0.0), "{}", w.name());
    }
}

#[test]
fn same_seed_gives_same_inputs_and_model_figures() {
    for w in Workload::ALL {
        let (a, b) = (run(w, &tiny(11, false)), run(w, &tiny(11, false)));
        assert_eq!(a.input_digest, b.input_digest, "{}", w.name());
        for name in ["model_cycles", "model_energy_uj"] {
            assert_eq!(a.get(name), b.get(name), "{}: {name}", w.name());
        }
        let c = run(w, &tiny(12, false));
        assert_ne!(a.input_digest, c.input_digest, "{}: the seed must reach the inputs", w.name());
    }
}

#[test]
fn a_corrupted_output_is_counted_as_failed() {
    for w in Workload::ALL {
        let out = run(w, &Options { corrupt: Some(0), ..tiny(5, false) });
        assert_eq!(
            out.failed,
            1,
            "{}: the check must catch exactly the corrupted output",
            w.name()
        );
        assert!(out.get("success_share").is_some_and(|s| s < 1.0), "{}", w.name());
    }
}

#[test]
fn a_short_stall_moves_the_windowed_p99_little() {
    // 3000 samples in order; a stall puts 40 slow ones in the first window.
    let mut ms = vec![1.0; 3 * perfbench::P99_WINDOW];
    ms[..40].fill(100.0);
    assert_eq!(perfbench::percentile(&ms, 99.0), 100.0);
    assert_eq!(perfbench::windowed_p99(&ms), 1.0);
    // Below two windows it is the plain p99.
    assert_eq!(perfbench::windowed_p99(&ms[..1500]), 100.0);
}
