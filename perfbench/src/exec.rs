//! `exec_decode_static`: one client sends back-to-back execute requests
//! against a fixed set of LLaMA-shaped W8 weights (q/k/v/o/up/down at
//! 1/16 of LLaMA-1-7B's width), each with fresh decode activations of
//! 1 to 8 tokens. The plan cache holds every plan and is warmed during
//! set-up, so hits are ≈100%: per-request weight slicing, plan-key
//! construction and the cache's read path dominate, the Scoreboard never
//! runs, and evaluation is small because m is small.

use crate::trace::{self, Tracer};
use crate::{Call, ClosedStats, Digest, Options, Outcome};
use std::collections::BTreeMap;
use ta_core::{GemmRequest, Session, TransArrayConfig};
use ta_hasse::SharedPlanCache;
use ta_models::{llm_activation_matrix_int, llm_weight_matrix_int, mix};
use ta_quant::{gemm_i32, MatI32};

/// Plan-cache capacity: above the ≈2.4k plans of the six weights.
const CACHE_PLANS: usize = 8192;

/// Latency limit behind `slo_rate_rps`.
const LATENCY_LIMIT_MS: f64 = 50.0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Calls every run makes (two turns over the weights); `model_*`
/// average over them and replays draw from them.
const FIRST_CALLS: usize = 12;

/// Requests replayed stage by stage in traced mode.
const REPLAYS: usize = 6;

/// The six projection weights of one LLaMA block at `hidden` and
/// `inter` width, as `(n, k)`.
pub(crate) fn block_shapes(hidden: usize, inter: usize) -> [(usize, usize); 6] {
    [
        (hidden, hidden),
        (hidden, hidden),
        (hidden, hidden),
        (hidden, hidden),
        (inter, hidden),
        (hidden, inter),
    ]
}

/// Seeded W8 weights for `shapes`.
pub(crate) fn weights(seed: u64, shapes: &[(usize, usize)]) -> Vec<MatI32> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(n, k))| llm_weight_matrix_int(n, k, 8, mix(seed, i as u64, 0x3E16, 0)))
        .collect()
}

/// A session whose plan cache holds every plan of `weights`, warmed by
/// one execute per weight.
pub(crate) fn warm_session(threads: usize, weights: &[MatI32]) -> Session {
    let cfg = TransArrayConfig {
        sample_limit: 0,
        threads,
        plan_cache: CACHE_PLANS,
        ..TransArrayConfig::paper_w8()
    };
    let session = Session::new(cfg).expect("static-weight config is valid");
    for w in weights {
        let x = MatI32::from_fn(w.cols(), 1, |r, _| (r % 7) as i32 - 3);
        session.run(GemmRequest::execute(w.clone(), x)).expect("warm-up request is valid");
    }
    session
}

/// Warms a replay cache with one replay per weight.
pub(crate) fn warm_replay_cache(cfg: &TransArrayConfig, weights: &[MatI32]) -> SharedPlanCache {
    let cache = SharedPlanCache::new(CACHE_PLANS);
    let mut scratch = Tracer::new();
    for w in weights {
        let x = MatI32::from_fn(w.cols(), 1, |r, _| (r % 7) as i32 - 3);
        trace::replay_execute(&mut scratch, 0, cfg, &cache, w, &x);
    }
    cache
}

struct Setup {
    weights: Vec<MatI32>,
    session: Session,
    digest: u64,
}

/// Weight index and activations of request `i`: the weights take turns,
/// so every window of the stream carries the same mix of shapes.
fn operands(setup: &Setup, seed: u64, i: usize) -> (usize, MatI32) {
    let w = i % setup.weights.len();
    let m = 1 + (mix(seed, i as u64, 0xDEC1, 0) % 8) as usize;
    let k = setup.weights[w].cols();
    (w, llm_activation_matrix_int(k, m, 8, mix(seed, i as u64, 0xAC7, 0)))
}

fn request(setup: &Setup, seed: u64, i: usize) -> GemmRequest {
    let (w, x) = operands(setup, seed, i);
    GemmRequest::execute(setup.weights[w].clone(), x)
}

fn setup(opts: &Options) -> Setup {
    let (hidden, inter) = if opts.tiny { (32, 64) } else { (256, 688) };
    let weights = weights(opts.seed, &block_shapes(hidden, inter));
    let session = warm_session(crate::nproc(), &weights);
    let mut d = Digest::default();
    weights.iter().for_each(|w| d.mat(w));
    Setup { weights, session, digest: d.finish() }
}

struct Record {
    latency_s: f64,
    output_digest: Option<u64>,
    subtiles: u64,
    cycles: u64,
    energy_pj: f64,
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let (setup, setup_s) = crate::timed_setup(SETUP_REPS, || setup(opts));
    let session = &setup.session;
    let cache_before = session.accelerator().plan_cache_stats().unwrap_or_default();
    let mut tracer = Tracer::new();
    let mut records: Vec<Record> = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let calls = crate::closed_loop(
        session,
        opts.seconds,
        FIRST_CALLS,
        opts.trace.then_some(&mut tracer),
        |i| request(&setup, opts.seed, i),
        |i, call: &Call| {
            if call.traced { &mut traced } else { &mut untraced }.push(call.latency_s);
            let ok = call.response.as_ref().ok();
            let output_digest = ok.and_then(|r| r.output.as_ref()).map(|out| {
                if opts.corrupt == Some(i) {
                    crate::mat_digest(&crate::corrupt(out))
                } else {
                    crate::mat_digest(out)
                }
            });
            records.push(Record {
                latency_s: call.latency_s,
                output_digest,
                subtiles: ok.map_or(0, |r| r.report.subtiles_simulated),
                cycles: ok.map_or(0, |r| r.report.cycles),
                energy_pj: ok.map_or(0.0, |r| r.report.energy.total()),
            });
        },
    );
    let cache = session.accelerator().plan_cache_stats().unwrap_or_default().delta(&cache_before);

    // Correctness, outside the measured phase: every output must equal
    // the `gemm_i32` oracle on the regenerated operands.
    let indices: Vec<usize> = (0..calls).collect();
    let failed = crate::par_map(&indices, crate::nproc(), |&i| {
        let (w, x) = operands(&setup, opts.seed, i);
        records[i].output_digest != Some(crate::mat_digest(&gemm_i32(&setup.weights[w], &x)))
    })
    .into_iter()
    .filter(|&wrong| wrong)
    .count() as u64;

    let first = &records[..FIRST_CALLS];
    let mut out = Outcome {
        attempted: calls as u64,
        failed,
        input_digest: setup.digest,
        ..Outcome::default()
    };
    out.lines.push(format!("checked all {calls} outputs against gemm_i32"));
    if !opts.trace {
        let stats = ClosedStats {
            setup_s,
            latencies_s: records.iter().map(|r| r.latency_s).collect(),
            subtiles: records.iter().map(|r| r.subtiles).sum(),
            latency_limit_ms: LATENCY_LIMIT_MS,
            attempted: out.attempted,
            failed: out.failed,
            model_cycles: crate::mean(&first.iter().map(|r| r.cycles as f64).collect::<Vec<_>>()),
            model_energy_pj: crate::mean(&first.iter().map(|r| r.energy_pj).collect::<Vec<_>>()),
        };
        out.metrics = stats.metrics(&mut out.lines);
        return out;
    }

    let cfg = session.config().clone();
    let replay_cache = warm_replay_cache(&cfg, &setup.weights);
    let picks =
        crate::sample_indices(opts.seed, 0x7EA5, FIRST_CALLS, if opts.tiny { 2 } else { REPLAYS });
    let sample = crate::replay_sample(
        session,
        &picks,
        |i| request(&setup, opts.seed, i),
        |t, i, resp| {
            let (w, x) = operands(&setup, opts.seed, i);
            let r = trace::replay_execute(t, i as u64, &cfg, &replay_cache, &setup.weights[w], &x);
            r.matches(&cfg, &resp.report, resp.output.as_ref()).then_some(r)
        },
    );
    out.failed += sample.mismatches;
    let mut values = BTreeMap::new();
    crate::replay_layer_values(&sample, cache, calls, &mut values, &mut out.lines);
    values.insert("core.run_ms", crate::median(&traced) * 1e3);
    values.insert("bench.trace_overhead", crate::trace_overhead(&traced, &untraced));
    out.metrics = crate::table_metrics(&crate::PER_LAYER, &values);
    out.spans = tracer.into_spans();
    trace::append(&mut out.spans, &sample.spans);
    out
}
