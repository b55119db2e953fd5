//! The repository benchmark: three workloads that each make one layer of
//! the Transitive Array stack dominate, measured end to end with tracing
//! off, plus a traced mode that breaks the same work down per layer.
//!
//! The benchmark drives the system only through public entry points
//! (`Session::run`, `Server::submit` / `Ticket::wait_timeout`, and the
//! public functions of `ta-bitslice`, `ta-hasse` and `ta-core`), and
//! builds every input from the seed it is given. README.md maps each
//! per-layer metric to the end-to-end metric and workload it moves.

pub mod exec;
pub mod serve;
pub mod sim;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use ta_core::error::TaError;
use ta_core::{GemmRequest, GemmResponse, Session};
use ta_hasse::PlanCacheStats;
use ta_quant::MatI32;
use trace::{Span, Tracer};

/// The seed a claim is first measured on.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of all tuning, so a claim can be rechecked on inputs
/// its author never saw.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// The benchmark's workloads (README.md gives the rationale of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop cold simulation of the LLaMA-1-7B prefill FC GEMMs.
    SimLlamaCold,
    /// Closed-loop execution of decode activations against static weights.
    ExecDecodeStatic,
    /// Open-loop prefill + decode traffic through `ta-serve`.
    ServePrefillDecode,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] =
        [Workload::SimLlamaCold, Workload::ExecDecodeStatic, Workload::ServePrefillDecode];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimLlamaCold => "sim_llama_cold",
            Workload::ExecDecodeStatic => "exec_decode_static",
            Workload::ServePrefillDecode => "serve_prefill_decode",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one benchmark run is performed.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Traced mode: per-layer spans and replay instead of end-to-end metrics.
    pub trace: bool,
    /// Shrinks every shape and phase so the benchmark's own tests run fast.
    pub tiny: bool,
    /// Flips one bit of the output of this request before the correctness
    /// check, to prove the check fires.
    pub corrupt: Option<usize>,
}

impl Options {
    /// A full-size untraced run.
    pub fn new(seed: u64, seconds: f64) -> Self {
        Self { seed, seconds, trace: false, tiny: false, corrupt: None }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted in the measured phase.
    pub attempted: u64,
    /// Requests that were rejected, shed, lost, timed out or wrong.
    pub failed: u64,
    /// Digest of the inputs generated from the seed.
    pub input_digest: u64,
    /// The metrics of this mode: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Spans recorded in traced mode, written out at the end.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Runs one workload.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    match workload {
        Workload::SimLlamaCold => sim::run(opts),
        Workload::ExecDecodeStatic => exec::run(opts),
        Workload::ServePrefillDecode => serve::run(opts),
    }
}

/// Host cores; sessions and the server use one thread per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds. Repeating set-up keeps `setup_s` steady.
pub(crate) fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(secs(t0));
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// Median of `values` (0 when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples per window of [`windowed_p99`]: enough for 10 beyond each
/// window's p99.
pub const P99_WINDOW: usize = 1000;

/// p99 of samples in arrival order, robust to a short host stall: the
/// median of the p99s of consecutive [`P99_WINDOW`]-sample windows (a
/// short tail joins the window before it). Fewer than two windows' worth
/// of samples gives the plain p99.
pub fn windowed_p99(in_order: &[f64]) -> f64 {
    let windows = (in_order.len() / P99_WINDOW).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { in_order.len() } else { (w + 1) * P99_WINDOW };
            percentile(&in_order[w * P99_WINDOW..end], 99.0)
        })
        .collect();
    median(&per_window)
}

/// Arithmetic mean of `values` (0 when empty).
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A 64-bit chained splitmix digest for input and output fingerprints.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Digest(u64);

impl Digest {
    /// Folds one word.
    pub(crate) fn word(&mut self, v: u64) {
        self.0 = ta_models::splitmix64(self.0 ^ v);
    }

    /// Folds a matrix, shape included.
    pub(crate) fn mat(&mut self, m: &MatI32) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for r in 0..m.rows() {
            for &v in m.row(r) {
                self.word(v as u32 as u64);
            }
        }
    }

    /// The digest value.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one matrix.
pub(crate) fn mat_digest(m: &MatI32) -> u64 {
    let mut d = Digest::default();
    d.mat(m);
    d.finish()
}

/// Flips one bit of `m` (the corruption the check must catch).
pub(crate) fn corrupt(m: &MatI32) -> MatI32 {
    MatI32::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) ^ i32::from(r == 0 && c == 0))
}

/// Maps `f` over `items` on `threads` scoped workers, keeping order.
/// Correctness checks run through this after the measured phase.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("check worker panicked")).collect()
    })
}

/// Formats the result line: one JSON object with the run's verdict,
/// request counts and metrics.
pub fn result_json(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The end-to-end metrics, `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("subtiles_per_s", "subtiles/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_rate_rps", "req/s"),
    ("success_share", "ratio"),
    ("model_cycles", "cycles"),
    ("model_energy_uj", "uJ"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`, reported by the traced run.
/// A layer a workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("models.source_us", "us"),
    ("bitslice.slice_ms", "ms"),
    ("bitslice.extract_us", "us"),
    ("hasse.plan_key_us", "us"),
    ("hasse.cache_hit_us", "us"),
    ("hasse.cache_hit_rate", "ratio"),
    ("hasse.cache_miss_us", "us"),
    ("hasse.cache_insert_us", "us"),
    ("hasse.cache_evictions", "count"),
    ("hasse.plan_build_us", "us"),
    ("hasse.plans_built", "count"),
    ("hasse.evaluate_us", "us"),
    ("core.accumulate_us", "us"),
    ("core.ops_per_subtile", "ops"),
    ("core.run_ms", "ms"),
    ("core.parallel_efficiency", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.service_ms_decode", "ms"),
    ("serve.service_ms_prompt", "ms"),
    ("serve.batch_size_mean", "requests"),
    ("serve.padded_share", "ratio"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.worker_lost", "count"),
    ("serve.timeouts", "count"),
    ("bench.generator_lag_ms_p99", "ms"),
    ("bench.backlog_end", "requests"),
    ("bench.trace_coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Orders `values` by `table`; a metric missing from `values` reads 0.
///
/// # Panics
///
/// Panics if `values` names a metric the table does not list.
pub(crate) fn table_metrics(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Vec<Metric> {
    for name in values.keys() {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
    }
    table
        .iter()
        .map(|&(name, unit)| Metric { name, value: values.get(name).copied().unwrap_or(0.0), unit })
        .collect()
}

/// One closed-loop call: its latency and the session's answer.
pub(crate) struct Call {
    pub(crate) latency_s: f64,
    pub(crate) traced: bool,
    pub(crate) response: Result<GemmResponse, TaError>,
}

/// One client sending back-to-back `Session::run` calls for `seconds`
/// (and at least `min_calls` calls). In traced mode every odd call runs
/// inside a `core.run` span, so traced and untraced calls interleave and
/// their difference is the tracing overhead.
pub(crate) fn closed_loop(
    session: &Session,
    seconds: f64,
    min_calls: usize,
    mut tracer: Option<&mut Tracer>,
    mut make: impl FnMut(usize) -> GemmRequest,
    mut keep: impl FnMut(usize, &Call),
) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min_calls || secs(start) < seconds {
        let request = make(i);
        let traced = tracer.is_some() && i % 2 == 1;
        if traced {
            tracer.as_deref_mut().expect("traced").begin("core.run", i as u64);
        }
        let t0 = Instant::now();
        let response = session.run(request);
        let latency_s = secs(t0);
        if traced {
            tracer.as_deref_mut().expect("traced").end();
        }
        keep(i, &Call { latency_s, traced, response });
        i += 1;
    }
    i
}

/// The end-to-end metrics of a closed loop.
pub(crate) struct ClosedStats {
    pub(crate) setup_s: f64,
    pub(crate) latencies_s: Vec<f64>,
    pub(crate) subtiles: u64,
    pub(crate) latency_limit_ms: f64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Mean modelled cycles per request over a seed-determined set.
    pub(crate) model_cycles: f64,
    /// Mean modelled energy per request (pJ) over the same set.
    pub(crate) model_energy_pj: f64,
}

impl ClosedStats {
    pub(crate) fn metrics(&self, lines: &mut Vec<String>) -> Vec<Metric> {
        let busy: f64 = self.latencies_s.iter().sum();
        let ms: Vec<f64> = self.latencies_s.iter().map(|s| s * 1e3).collect();
        let within = ms.iter().filter(|&&l| l <= self.latency_limit_ms).count();
        lines.push(format!(
            "closed loop: {} calls in {:.3} s busy, p99 over {} windows of at least {} calls \
             ({} beyond each window's p99), limit {} ms",
            ms.len(),
            busy,
            (ms.len() / P99_WINDOW).max(1),
            P99_WINDOW.min(ms.len()),
            P99_WINDOW.min(ms.len()) / 100,
            self.latency_limit_ms
        ));
        let values = BTreeMap::from([
            ("setup_s", self.setup_s),
            ("requests_per_s", ms.len() as f64 / busy),
            ("subtiles_per_s", self.subtiles as f64 / busy),
            ("latency_p50_ms", median(&ms)),
            ("latency_p99_ms", windowed_p99(&ms)),
            ("slo_rate_rps", within as f64 / busy),
            ("success_share", success_share(self.attempted, self.failed)),
            ("model_cycles", self.model_cycles),
            ("model_energy_uj", self.model_energy_pj / 1e6),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
        table_metrics(&END_TO_END, &values)
    }
}

/// Share of attempted requests that succeeded.
pub(crate) fn success_share(attempted: u64, failed: u64) -> f64 {
    (attempted.saturating_sub(failed)) as f64 / attempted.max(1) as f64
}

/// Timings of the replayed sample: the same requests run untraced
/// serially and in parallel, then replayed stage by stage.
#[derive(Debug, Default)]
pub(crate) struct ReplaySample {
    pub(crate) requests: usize,
    pub(crate) serial_ns: f64,
    pub(crate) parallel_ns: f64,
    pub(crate) mismatches: u64,
    pub(crate) subtiles: u64,
    pub(crate) ops: u64,
    pub(crate) spans: Vec<Span>,
}

/// Runs each sampled request through `Session::run_serial` and
/// `Session::run` (untraced), then through `replay`, which returns the
/// replay's result checked against the parallel run's response.
pub(crate) fn replay_sample(
    session: &Session,
    indices: &[usize],
    make: impl Fn(usize) -> GemmRequest,
    mut replay: impl FnMut(&mut Tracer, usize, &GemmResponse) -> Option<trace::Replayed>,
) -> ReplaySample {
    let mut out = ReplaySample::default();
    let mut tracer = Tracer::new();
    for &i in indices {
        let t0 = Instant::now();
        let serial = session.run_serial(make(i));
        out.serial_ns += t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        let parallel = session.run(make(i));
        out.parallel_ns += t1.elapsed().as_nanos() as f64;
        out.requests += 1;
        let (Ok(serial), Ok(parallel)) = (serial, parallel) else {
            out.mismatches += 1;
            continue;
        };
        match replay(&mut tracer, i, &parallel) {
            Some(r) if serial == parallel => {
                out.subtiles += r.subtiles;
                out.ops += r.ops;
            }
            _ => out.mismatches += 1,
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// Per-layer values shared by every workload's traced run: the replayed
/// stage self times, and the plan-cache counters of the measured phase.
pub(crate) fn replay_layer_values(
    sample: &ReplaySample,
    cache: PlanCacheStats,
    requests: usize,
    values: &mut BTreeMap<&'static str, f64>,
    lines: &mut Vec<String>,
) {
    let stages = trace::self_times(&sample.spans);
    let per_req = sample.requests.max(1) as f64;
    values.insert("models.source_us", trace::per_call_us(&stages, "models.source"));
    values.insert("bitslice.slice_ms", trace::per_call_us(&stages, "bitslice.slice") / 1e3);
    values.insert("bitslice.extract_us", trace::per_call_us(&stages, "bitslice.extract"));
    values.insert("hasse.plan_key_us", trace::per_call_us(&stages, "hasse.plan_key"));
    values.insert("hasse.cache_hit_us", trace::total_us_per(&stages, "hasse.cache_hit", per_req));
    values.insert("hasse.cache_miss_us", trace::total_us_per(&stages, "hasse.cache_miss", per_req));
    values.insert(
        "hasse.cache_insert_us",
        trace::total_us_per(&stages, "hasse.cache_insert", per_req),
    );
    values.insert("hasse.plan_build_us", trace::per_call_us(&stages, "hasse.plan_build"));
    values.insert("hasse.evaluate_us", trace::per_call_us(&stages, "hasse.evaluate"));
    values.insert("core.accumulate_us", trace::per_call_us(&stages, "core.accumulate"));
    values.insert("core.ops_per_subtile", sample.ops as f64 / sample.subtiles.max(1) as f64);
    values.insert(
        "core.parallel_efficiency",
        sample.serial_ns / (nproc() as f64 * sample.parallel_ns.max(1.0)),
    );
    values.insert("bench.trace_coverage", trace::coverage(&sample.spans));
    let reqs = requests.max(1) as f64;
    values.insert("hasse.cache_hit_rate", cache.hit_rate());
    values.insert("hasse.cache_evictions", cache.evictions as f64 / reqs);
    values.insert("hasse.plans_built", cache.insertions as f64 / reqs);
    let replay_ns: u64 =
        sample.spans.iter().filter(|s| s.name == "bench.replay").map(trace::Span::dur_ns).sum();
    lines.push(format!(
        "replayed {} requests ({} sub-tiles) in {:.3} ms, {:.3} times their untraced \
         run_serial time; stage self times (replay root excluded):",
        sample.requests,
        sample.subtiles,
        replay_ns as f64 / 1e6,
        replay_ns as f64 / sample.serial_ns.max(1.0)
    ));
    lines.extend(trace::stage_table(&stages, &["bench.replay"]));
}

/// Tracing overhead: mean traced latency over mean untraced latency, minus 1.
pub(crate) fn trace_overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    mean(traced) / mean(untraced).max(f64::MIN_POSITIVE) - 1.0
}

/// Seeded pick of `count` distinct indices below `below`.
pub(crate) fn sample_indices(seed: u64, salt: u64, below: usize, count: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::new();
    let mut j = 0u64;
    while picked.len() < count.min(below) {
        let i = (ta_models::mix(seed, salt, j, 0) % below as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
        j += 1;
    }
    picked
}
