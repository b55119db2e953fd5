//! `sim_llama_cold`: one client sends back-to-back simulate requests over
//! the seven LLaMA-1-7B prefill FC GEMMs (paper W8, full-scale sub-tile
//! sampling), each with a fresh pattern seed. The plan cache is on but
//! holds fewer plans than one request touches, so every lookup misses,
//! inserts and evicts: Scoreboard build and the cache's write path
//! dominate, and slicing, evaluation and serving are absent.

use crate::trace::{self, Tracer};
use crate::{Call, ClosedStats, Digest, Options, Outcome, ReplaySample};
use std::collections::BTreeMap;
use ta_core::{GemmReport, GemmRequest, Session, TransArrayConfig};
use ta_hasse::SharedPlanCache;
use ta_models::{mix, NamedGemm, QuantGaussianSource};
use ta_workloads::{zoo, Scale};

/// Plan-cache capacity: a quarter of the sub-tiles one request samples.
const CACHE_PLANS: usize = 256;

/// Latency limit behind `slo_rate_rps`.
const LATENCY_LIMIT_MS: f64 = 250.0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// One call in this many (plus call 0) is checked against a threads=1
/// run without the plan cache.
const CHECK_EVERY: u64 = 8;

/// Requests replayed stage by stage in traced mode, drawn from the
/// first pass over the layers (which every run makes).
const REPLAYS: usize = 3;

struct Setup {
    session: Session,
    layers: Vec<NamedGemm>,
    digest: u64,
}

fn config(opts: &Options, threads: usize, plan_cache: usize) -> TransArrayConfig {
    let sample_limit = if opts.tiny { 16 } else { Scale::full().sample_limit };
    TransArrayConfig { sample_limit, threads, plan_cache, ..TransArrayConfig::paper_w8() }
}

fn source(cfg: &TransArrayConfig, seed: u64, i: usize) -> QuantGaussianSource {
    QuantGaussianSource::new(
        cfg.width,
        cfg.weight_bits,
        cfg.n_tile(),
        mix(seed, i as u64, 0x5135, 0),
    )
}

fn request(setup: &Setup, seed: u64, i: usize) -> GemmRequest {
    let layer = &setup.layers[i % setup.layers.len()];
    GemmRequest::simulate(layer.shape, source(setup.session.config(), seed, i))
}

fn setup(opts: &Options) -> Setup {
    let session = Session::new(config(opts, crate::nproc(), CACHE_PLANS))
        .expect("sim_llama_cold config is valid");
    let layers = zoo::prefill_layers(Scale::full());
    // The inputs are the request stream: each request's shape and the
    // patterns its pattern source yields. Fold the first pass's shapes
    // and the first sub-tile of each.
    let mut d = Digest::default();
    for (i, layer) in layers.iter().enumerate() {
        let s = layer.shape;
        [s.n, s.k, s.m].into_iter().for_each(|v| d.word(v as u64));
        use ta_core::PatternSource;
        for p in source(session.config(), opts.seed, i).subtile_patterns(0, 0) {
            d.word(u64::from(p));
        }
    }
    Setup { session, layers, digest: d.finish() }
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let (setup, setup_s) = crate::timed_setup(SETUP_REPS, || setup(opts));
    let session = &setup.session;
    let cache_before = session.accelerator().plan_cache_stats().unwrap_or_default();
    let mut tracer = Tracer::new();
    let mut reports: Vec<Option<GemmReport>> = Vec::new();
    let (mut traced, mut untraced, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let calls = crate::closed_loop(
        session,
        opts.seconds,
        setup.layers.len(),
        opts.trace.then_some(&mut tracer),
        |i| request(&setup, opts.seed, i),
        |_, call: &Call| {
            latencies.push(call.latency_s);
            if call.traced { &mut traced } else { &mut untraced }.push(call.latency_s);
            reports.push(call.response.as_ref().ok().map(|r| r.report.clone()));
        },
    );
    let cache = session.accelerator().plan_cache_stats().unwrap_or_default().delta(&cache_before);
    if let Some(Some(r)) = opts.corrupt.and_then(|i| reports.get_mut(i)) {
        r.cycles ^= 1;
    }

    // Correctness, outside the measured phase: a seeded subset of reports
    // must equal a threads=1 run without the plan cache.
    let reference = Session::new(config(opts, 1, 0)).expect("reference config is valid");
    let checked: Vec<usize> = (0..calls)
        .filter(|&i| i == 0 || mix(opts.seed, i as u64, 0xC4EC, 0).is_multiple_of(CHECK_EVERY))
        .collect();
    let wrong = crate::par_map(&checked, crate::nproc(), |&i| {
        let want = reference.run(request(&setup, opts.seed, i)).ok().map(|r| r.report);
        // Failed calls are counted once, below.
        reports[i].is_some() && reports[i] != want
    })
    .into_iter()
    .filter(|&w| w)
    .count() as u64;
    let errors = reports.iter().filter(|r| r.is_none()).count() as u64;

    let first_pass = &reports[..setup.layers.len()];
    let mut out = Outcome {
        attempted: calls as u64,
        failed: errors + wrong,
        input_digest: setup.digest,
        ..Outcome::default()
    };
    out.lines.push(format!(
        "checked {} of {} reports against the uncached serial run",
        checked.len(),
        calls
    ));
    if !opts.trace {
        let stats = ClosedStats {
            setup_s,
            latencies_s: latencies,
            subtiles: reports.iter().flatten().map(|r| r.subtiles_simulated).sum(),
            latency_limit_ms: LATENCY_LIMIT_MS,
            attempted: out.attempted,
            failed: out.failed,
            model_cycles: crate::mean(
                &first_pass.iter().flatten().map(|r| r.cycles as f64).collect::<Vec<_>>(),
            ),
            model_energy_pj: crate::mean(
                &first_pass.iter().flatten().map(|r| r.energy.total()).collect::<Vec<_>>(),
            ),
        };
        out.metrics = stats.metrics(&mut out.lines);
        return out;
    }

    let indices = crate::sample_indices(
        opts.seed,
        0x7EA5,
        setup.layers.len(),
        if opts.tiny { 1 } else { REPLAYS },
    );
    let replay_cache = SharedPlanCache::new(CACHE_PLANS);
    let cfg = session.config().clone();
    let sample: ReplaySample = crate::replay_sample(
        session,
        &indices,
        |i| request(&setup, opts.seed, i),
        |t, i, resp| {
            let mut src = source(&cfg, opts.seed, i);
            let shape = setup.layers[i % setup.layers.len()].shape;
            let r = trace::replay_simulate(t, i as u64, &cfg, &replay_cache, shape, &mut src);
            r.matches(&cfg, &resp.report, None).then_some(r)
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
