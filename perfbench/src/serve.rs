//! `serve_prefill_decode`: an open loop. One generator thread sends
//! Poisson arrivals from 4 tenants through `ta-serve` on the wall clock,
//! with no SLO limits and a width-quantized `BatchPolicy`. The mix is
//! decode requests (1 to 8 tokens) and prompt chunks (241 to 256 tokens)
//! against the same static weights, pre-warmed in set-up; prompt chunks
//! carry most of the worker time. The generator climbs a ladder of fixed
//! arrival rates from well under to above a 2-core host's capacity.
//!
//! This is the only workload that exercises queueing, batching and
//! padding. Slab evaluation and row accumulation at prompt widths are its
//! largest compute stages, and it shows a long prompt delaying the
//! decodes queued behind it.

use crate::trace::{self, Tracer};
use crate::{Digest, Options, Outcome};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use ta_core::{GemmRequest, GemmResponse, GemmShape};
use ta_models::{mix, seeded_span_matrix};
use ta_quant::{gemm_i32, MatI32};
use ta_serve::loadgen::poisson_trace;
use ta_serve::{BatchPolicy, FaultConfig, ServeError, Server, ServerConfig, ServerStats, Ticket};

/// The ladder, climbed in this order: (arrival rate in req/s, share of
/// the measured seconds). The nominal rate, which loads a 2-core host to
/// about 40%, gets half the time: three p99 windows of 1000 samples at
/// `--seconds 30`. The rates around that host's capacity (about 480 req/s) get
/// hundreds of samples each, and the two above it come last.
const LADDER: [(f64, f64); 8] = [
    (100.0, 0.05),
    (200.0, 0.5),
    (300.0, 0.07),
    (350.0, 0.07),
    (400.0, 0.07),
    (450.0, 0.07),
    (500.0, 0.085),
    (600.0, 0.085),
];

/// The rate latency percentiles (and peak memory) are reported at.
const NOMINAL_RATE: f64 = 200.0;

/// The p99 latency limit behind `slo_rate_rps`.
const LATENCY_LIMIT_MS: f64 = 50.0;

/// One arrival in this many is a prompt chunk.
const PROMPT_EVERY: usize = 4;

/// Tenants the arrivals are spread over.
const TENANTS: u32 = 4;

/// Bucket width quantum: decodes pad to 8 tokens, prompt chunks to 256.
const QUANTUM_M: usize = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Requests replayed stage by stage in traced mode.
const REPLAYS: usize = 24;

/// Longest the generator waits for a step's requests to drain before
/// starting the next step.
const DRAIN_CAP: Duration = Duration::from_secs(3);

/// Extra time past the planned ladder before outstanding waits give up.
const WAIT_GRACE: Duration = Duration::from_secs(30);

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Index into [`LADDER`].
    step: usize,
    offset_ns: u64,
    tenant: u32,
}

/// What one request asks for, derived from the seed and its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Kind {
    weight: usize,
    m: usize,
    prompt: bool,
}

impl Kind {
    fn padded_m(self) -> usize {
        self.m.div_ceil(QUANTUM_M) * QUANTUM_M
    }
}

struct Setup {
    weights: Vec<MatI32>,
    server: Server,
    digest: u64,
}

/// Request `i`'s weight and width. The weights take turns, and each
/// weight's turns are prompt chunks once every `PROMPT_EVERY` times, so
/// every window of arrivals carries the same mix; only the widths (and
/// the arrival times and values) are drawn from the seed.
fn kind(seed: u64, weights: usize, i: usize) -> Kind {
    let (weight, turn) = (i % weights, i / weights);
    let prompt = (weight + turn) % PROMPT_EVERY == 0;
    let r = mix(seed, i as u64, 0x9B, 0);
    let m = if prompt { 241 + (r % 16) as usize } else { 1 + (r % 8) as usize };
    Kind { weight, m, prompt }
}

fn activations(seed: u64, k: usize, m: usize, i: usize) -> MatI32 {
    seeded_span_matrix(k, m, 8, mix(seed, i as u64, 0xAC7, 0))
}

fn request(setup: &Setup, seed: u64, i: usize) -> (Kind, GemmRequest) {
    let kind = kind(seed, setup.weights.len(), i);
    let w = &setup.weights[kind.weight];
    (kind, GemmRequest::execute(w.clone(), activations(seed, w.cols(), kind.m, i)))
}

/// Per-step durations in seconds.
fn durations(opts: &Options) -> Vec<f64> {
    let seconds = if opts.tiny { opts.seconds.min(1.0) } else { opts.seconds };
    LADDER.iter().map(|&(_, share)| seconds * share).collect()
}

/// The distinct rates of the ladder, ascending.
fn rates() -> Vec<f64> {
    let mut rates: Vec<f64> = LADDER.iter().map(|&(rate, _)| rate).collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    rates
}

/// The seeded arrival schedule, step by step.
fn schedule(opts: &Options) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (step, (&(rate, _), secs)) in LADDER.iter().zip(durations(opts)).enumerate() {
        let horizon = (secs * 1e9) as u64;
        let count = (rate * secs * 1.5) as usize + 32;
        let mean_gap = (1e9 / rate) as u64;
        let dummy = [GemmShape::new(1, 1, 1)];
        let trace =
            poisson_trace(mix(opts.seed, step as u64, 0x7A7E, 0), count, mean_gap, TENANTS, &dummy);
        out.extend(trace.into_iter().take_while(|a| a.at_ns < horizon).map(|a| Arrival {
            step,
            offset_ns: a.at_ns,
            tenant: a.tenant,
        }));
    }
    out
}

fn setup(opts: &Options) -> Setup {
    let (hidden, inter) = if opts.tiny { (32, 64) } else { (128, 344) };
    let weights = crate::exec::weights(opts.seed, &crate::exec::block_shapes(hidden, inter));
    let session = crate::exec::warm_session(crate::nproc(), &weights);
    let policy = BatchPolicy { max_batch: 4, max_delay_ns: 100_000, quantum_m: QUANTUM_M };
    let config = ServerConfig {
        workers: crate::nproc(),
        policy,
        faults: Some(FaultConfig::new(0, 0)),
        ..ServerConfig::default()
    };
    let server = Server::start(session, config);
    let mut d = Digest::default();
    weights.iter().for_each(|w| d.mat(w));
    for a in schedule(opts) {
        [a.step as u64, a.offset_ns, u64::from(a.tenant)].into_iter().for_each(|v| d.word(v));
    }
    Setup { weights, server, digest: d.finish() }
}

/// How one request ended.
enum End {
    Served {
        submitted_at_ns: u64,
        completed_at_ns: u64,
        batch_size: usize,
        response: Box<GemmResponse>,
        output_digest: u64,
    },
    Failed(ServeError),
}

/// The direct `run_serial` answer for one (weight, padded width) class.
struct Direct {
    rep: usize,
    output_digest: u64,
    report: ta_core::GemmReport,
    service_ms: f64,
}

/// Everything recorded about one request.
struct Record {
    due_ns: u64,
    lag_ns: u64,
    submit_before_ns: u64,
    submit_ns: u64,
    traced: bool,
    end: End,
}

struct Submitted {
    idx: usize,
    due_ns: u64,
    lag_ns: u64,
    submit_before_ns: u64,
    submit_ns: u64,
    ticket: Result<Ticket, ServeError>,
}

/// Runs the ladder: the generator thread submits at due times, the
/// calling thread collects every ticket with `wait_timeout`.
fn drive(
    setup: &Setup,
    opts: &Options,
    arrivals: &[Arrival],
    tracers: (&mut Tracer, &mut Tracer),
) -> (Vec<Option<Record>>, Vec<(u64, u64)>, f64) {
    let durations = durations(opts);
    let epoch = Instant::now();
    let now_ns = move || epoch.elapsed().as_nanos() as u64;
    let planned: f64 = durations.iter().sum();
    let deadline =
        epoch + Duration::from_secs_f64(planned) + DRAIN_CAP * LADDER.len() as u32 + WAIT_GRACE;
    let resolved = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let (gen_tracer, wait_tracer) = tracers;
    let mut records: Vec<Option<Record>> = (0..arrivals.len()).map(|_| None).collect();
    let (windows, nominal_rss_mb) = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let mut windows = Vec::new();
            let mut nominal_rss_mb = 0.0;
            let mut idx = 0;
            for (step, secs) in durations.iter().enumerate() {
                let start = now_ns();
                while idx < arrivals.len() && arrivals[idx].step == step {
                    let a = arrivals[idx];
                    let (_, req) = request(setup, opts.seed, idx);
                    let due_ns = start + a.offset_ns;
                    let now = now_ns();
                    if due_ns > now {
                        std::thread::sleep(Duration::from_nanos(due_ns - now));
                    }
                    let traced = opts.trace && idx % 2 == 1;
                    if traced {
                        gen_tracer.begin("serve.submit", idx as u64);
                    }
                    let submit_before_ns = now_ns();
                    let ticket = setup.server.submit(a.tenant, req);
                    let submit_ns = now_ns() - submit_before_ns;
                    if traced {
                        gen_tracer.end();
                    }
                    let lag_ns = submit_before_ns.saturating_sub(due_ns);
                    let msg =
                        Submitted { idx, due_ns, lag_ns, submit_before_ns, submit_ns, ticket };
                    tx.send(msg).expect("collector outlives the generator");
                    idx += 1;
                }
                windows.push((start, start + (secs * 1e9) as u64));
                // Drain before the next step so steps stay independent.
                let drain_from = Instant::now();
                while resolved.load(Ordering::SeqCst) < idx && drain_from.elapsed() < DRAIN_CAP {
                    std::thread::sleep(Duration::from_micros(200));
                }
                if LADDER[step].0 == NOMINAL_RATE {
                    nominal_rss_mb = crate::peak_rss_mb();
                }
            }
            drop(tx);
            (windows, nominal_rss_mb)
        });
        for msg in rx {
            let traced = opts.trace && msg.idx % 2 == 1;
            let end = match msg.ticket {
                Err(e) => End::Failed(e),
                Ok(mut ticket) => {
                    let left = deadline
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1));
                    if traced {
                        wait_tracer.begin("serve.wait", msg.idx as u64);
                    }
                    let waited = ticket.wait_timeout(left);
                    if traced {
                        wait_tracer.end();
                    }
                    match waited {
                        Ok(mut served) => {
                            let output = served
                                .response
                                .output
                                .take()
                                .expect("execute responses carry an output");
                            let output = if opts.corrupt == Some(msg.idx) {
                                crate::corrupt(&output)
                            } else {
                                output
                            };
                            End::Served {
                                submitted_at_ns: served.submitted_at_ns,
                                completed_at_ns: served.completed_at_ns,
                                batch_size: served.batch_size,
                                output_digest: crate::mat_digest(&output),
                                response: Box::new(served.response),
                            }
                        }
                        Err(e) => End::Failed(e),
                    }
                }
            };
            records[msg.idx] = Some(Record {
                due_ns: msg.due_ns,
                lag_ns: msg.lag_ns,
                submit_before_ns: msg.submit_before_ns,
                submit_ns: msg.submit_ns,
                traced,
                end,
            });
            resolved.fetch_add(1, Ordering::SeqCst);
        }
        generator.join().expect("generator thread panicked")
    });
    (records, windows, nominal_rss_mb)
}

/// Latency of a served request from its due time, on the bench clock.
/// The server stamps requests on its own clock, whose epoch lies a fixed
/// `offset` after the bench's: `offset` is the tightest lower bound the
/// submit timestamps give.
fn latencies_ms(records: &[Option<Record>]) -> Vec<Option<f64>> {
    let offset = records
        .iter()
        .flatten()
        .filter_map(|r| match r.end {
            End::Served { submitted_at_ns, .. } => {
                Some(r.submit_before_ns as i64 - submitted_at_ns as i64)
            }
            End::Failed(_) => None,
        })
        .max()
        .unwrap_or(0);
    records
        .iter()
        .map(|r| match r {
            Some(Record { end: End::Served { completed_at_ns, .. }, due_ns, .. }) => {
                Some((*completed_at_ns as i64 + offset - *due_ns as i64).max(0) as f64 / 1e6)
            }
            _ => None,
        })
        .collect()
}

/// One rung's latency summary; failed requests miss the limit.
struct Rung {
    rate: f64,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    backlog_end: usize,
    /// The backlog at the rung's end stays within what the latency limit
    /// allows at this rate (`rate × limit + nproc` requests).
    backlog_ok: bool,
}

fn rungs(
    arrivals: &[Arrival],
    lat: &[Option<f64>],
    records: &[Option<Record>],
    windows: &[(u64, u64)],
) -> Vec<Rung> {
    rates()
        .into_iter()
        .map(|rate| {
            let idx: Vec<usize> =
                (0..arrivals.len()).filter(|&i| LADDER[arrivals[i].step].0 == rate).collect();
            let ms: Vec<f64> = idx.iter().map(|&i| lat[i].unwrap_or(f64::INFINITY)).collect();
            // In flight at the end of the step each request belongs to.
            let backlog_end = (0..LADDER.len())
                .filter(|&step| LADDER[step].0 == rate)
                .map(|step| {
                    let end = windows.get(step).map_or(0, |w| w.1) as f64;
                    idx.iter()
                        .filter(|&&i| arrivals[i].step == step)
                        .filter(|&&i| {
                            let due = records[i].as_ref().map_or(0.0, |r| r.due_ns as f64);
                            due < end && lat[i].is_none_or(|l| due + l * 1e6 > end)
                        })
                        .count()
                })
                .max()
                .unwrap_or(0);
            let allowed = rate * LATENCY_LIMIT_MS / 1e3 + crate::nproc() as f64;
            Rung {
                rate,
                requests: idx.len(),
                p50_ms: crate::median(&ms),
                p99_ms: crate::percentile(&ms, 99.0),
                backlog_end,
                backlog_ok: backlog_end as f64 <= allowed,
            }
        })
        .collect()
}

/// Monotone (non-decreasing) least-squares fit of `ln p99` over the
/// climb, weighted by each rung's sample count: p99 rises with the rate
/// in expectation, so pooling adjacent violators keeps one noisy rung from
/// deciding the knee on its own.
fn fitted_ln_p99(rungs: &[Rung]) -> Vec<f64> {
    let cap = (100.0 * LATENCY_LIMIT_MS).ln();
    let mut blocks: Vec<(f64, f64, usize)> = Vec::new();
    for r in rungs {
        let w = r.requests.max(1) as f64;
        blocks.push((r.p99_ms.max(1e-3).ln().min(cap) * w, w, 1));
        while let [.., a, b] = blocks[..] {
            if a.0 / a.1 <= b.0 / b.1 {
                break;
            }
            blocks.pop();
            let last = blocks.last_mut().expect("two blocks were present");
            *last = (a.0 + b.0, a.1 + b.1, a.2 + b.2);
        }
    }
    blocks.iter().flat_map(|&(sum, w, n)| std::iter::repeat_n(sum / w, n)).collect()
}

/// The highest rate meeting the p99 limit without a growing backlog, on
/// the monotone fit: the last passing rung of the climb, interpolated
/// (log-linear in p99) toward the first failing one. A rung that fails
/// only on backlog is excluded outright.
fn slo_rate(rungs: &[Rung]) -> f64 {
    let limit = LATENCY_LIMIT_MS.ln();
    let fit = fitted_ln_p99(rungs);
    let Some(fail) = (0..rungs.len()).position(|i| fit[i] > limit || !rungs[i].backlog_ok) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    if fail == 0 {
        // Below the ladder: scale the first rung by how far it missed.
        return rungs[0].rate * (limit - fit[0]).min(0.0).exp();
    }
    let (lo, hi) = (fit[fail - 1], fit[fail]);
    if hi <= limit {
        return rungs[fail - 1].rate;
    }
    let frac = ((limit - lo) / (hi - lo)).clamp(0.0, 1.0);
    rungs[fail - 1].rate + frac * (rungs[fail].rate - rungs[fail - 1].rate)
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let (setup, setup_s) = crate::timed_setup(SETUP_REPS, || setup(opts));
    let arrivals = schedule(opts);
    let session = setup.server.session().clone();
    let cache_before = session.accelerator().plan_cache_stats().unwrap_or_default();
    let (mut gen_tracer, mut wait_tracer) = (Tracer::new(), Tracer::new());
    let (records, windows, nominal_rss_mb) =
        drive(&setup, opts, &arrivals, (&mut gen_tracer, &mut wait_tracer));
    let cache = session.accelerator().plan_cache_stats().unwrap_or_default().delta(&cache_before);
    let stats: ServerStats = setup.server.stats();
    let lat = latencies_ms(&records);
    let rungs = rungs(&arrivals, &lat, &records, &windows);

    // Correctness, outside the measured phase. Every served output must
    // equal `gemm_i32`; every served report must equal a direct
    // `run_serial` of the padded request. The report depends only on the
    // weights and the padded width, so one direct run per class (whose
    // whole response is compared) serves every request of that class.
    let mut classes: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if let Some(Record { end: End::Served { .. }, .. }) = r {
            let k = kind(opts.seed, setup.weights.len(), i);
            classes.entry((k.weight, k.padded_m())).or_insert(i);
        }
    }
    let class_list: Vec<((usize, usize), usize)> = classes.into_iter().collect();
    let direct: BTreeMap<(usize, usize), Direct> =
        crate::par_map(&class_list, crate::nproc(), |&(key, i)| {
            let padded = |k: Kind| request(&setup, opts.seed, i).1.padded_to(k.padded_m());
            let k = kind(opts.seed, setup.weights.len(), i);
            let mut times = Vec::new();
            let mut response = None;
            for _ in 0..3 {
                let req = padded(k);
                let t0 = Instant::now();
                response = session.run_serial(req).ok();
                times.push(crate::secs(t0) * 1e3);
            }
            let response = response.expect("served requests are valid");
            let output = response.output.as_ref().expect("execute responses carry an output");
            let sliced = MatI32::from_fn(output.rows(), k.m, |r, c| output.get(r, c));
            let direct = Direct {
                rep: i,
                output_digest: crate::mat_digest(&sliced),
                report: response.report,
                service_ms: crate::median(&times),
            };
            (key, direct)
        })
        .into_iter()
        .collect();
    let indices: Vec<usize> = (0..records.len()).collect();
    let wrong = crate::par_map(&indices, crate::nproc(), |&i| match &records[i] {
        Some(Record { end: End::Served { response, output_digest, .. }, .. }) => {
            let k = kind(opts.seed, setup.weights.len(), i);
            let w = &setup.weights[k.weight];
            let want = &direct[&(k.weight, k.padded_m())];
            let oracle = gemm_i32(w, &activations(opts.seed, w.cols(), k.m, i));
            let exact = *output_digest == crate::mat_digest(&oracle);
            let same_output = want.rep != i || want.output_digest == *output_digest;
            !(exact && same_output && want.report == response.report)
        }
        _ => false,
    });
    let wrong = wrong.into_iter().filter(|&w| w).count() as u64;
    let unresolved = records.iter().filter(|r| r.is_none()).count() as u64;
    let timeouts = records
        .iter()
        .flatten()
        .filter(|r| matches!(r.end, End::Failed(ServeError::Timeout { .. })))
        .count() as u64;
    let errors =
        records.iter().flatten().filter(|r| matches!(r.end, End::Failed(_))).count() as u64;

    let mut out = Outcome {
        attempted: arrivals.len() as u64,
        failed: wrong + errors + unresolved,
        input_digest: setup.digest,
        ..Outcome::default()
    };
    out.lines.push(format!(
        "checked {} served outputs against gemm_i32 and {} classes against direct run_serial",
        records.iter().flatten().filter(|r| matches!(r.end, End::Served { .. })).count(),
        class_list.len()
    ));
    out.lines.push(format!(
        "latency limit {LATENCY_LIMIT_MS} ms on p99; nominal rate {NOMINAL_RATE} req/s"
    ));
    out.lines.push("  rate_rps   requests    p50_ms     p99_ms  fit_p99_ms  backlog_end".into());
    for (r, fit) in rungs.iter().zip(fitted_ln_p99(&rungs)) {
        out.lines.push(format!(
            "  {:>8.0} {:>10} {:>9.3} {:>10.3} {:>11.3} {:>12}",
            r.rate,
            r.requests,
            r.p50_ms,
            r.p99_ms,
            fit.exp(),
            r.backlog_end
        ));
    }
    let nominal: Vec<usize> =
        (0..arrivals.len()).filter(|&i| LADDER[arrivals[i].step].0 == NOMINAL_RATE).collect();
    out.lines.push(format!(
        "nominal rate: {} samples, p99 over {} windows of at least {} ({} beyond each)",
        nominal.len(),
        (nominal.len() / crate::P99_WINDOW).max(1),
        crate::P99_WINDOW.min(nominal.len()),
        crate::P99_WINDOW.min(nominal.len()) / 100
    ));

    if !opts.trace {
        let nominal_ms: Vec<f64> =
            nominal.iter().map(|&i| lat[i].unwrap_or(f64::INFINITY)).collect();
        // Goodput over the whole ladder: from the first rung's start to
        // the last completion, drains between rungs included.
        let mut last_ns = windows[LADDER.len() - 1].1 as f64;
        for (r, l) in records.iter().zip(&lat) {
            if let (Some(r), Some(l)) = (r, l) {
                last_ns = last_ns.max(r.due_ns as f64 + l * 1e6);
            }
        }
        let ladder_secs = (last_ns - windows[0].0 as f64) / 1e9;
        let served: Vec<&GemmResponse> = records
            .iter()
            .flatten()
            .filter_map(|r| match &r.end {
                End::Served { response, .. } => Some(&**response),
                End::Failed(_) => None,
            })
            .collect();
        let values = BTreeMap::from([
            ("setup_s", setup_s),
            ("requests_per_s", served.len() as f64 / ladder_secs),
            (
                "subtiles_per_s",
                served.iter().map(|r| r.report.subtiles_simulated).sum::<u64>() as f64
                    / ladder_secs,
            ),
            ("latency_p50_ms", crate::median(&nominal_ms)),
            ("latency_p99_ms", crate::windowed_p99(&nominal_ms)),
            ("slo_rate_rps", slo_rate(&rungs)),
            ("success_share", crate::success_share(out.attempted, out.failed)),
            (
                "model_cycles",
                crate::mean(&served.iter().map(|r| r.report.cycles as f64).collect::<Vec<_>>()),
            ),
            (
                "model_energy_uj",
                crate::mean(&served.iter().map(|r| r.report.energy.total()).collect::<Vec<_>>())
                    / 1e6,
            ),
            // Up to the end of the nominal step: the rates near and above
            // capacity queue a backlog whose memory has no bound.
            ("peak_rss_mb", nominal_rss_mb),
        ]);
        out.metrics = crate::table_metrics(&crate::END_TO_END, &values);
        return out;
    }

    // Traced run: serving stages from the generator and collector spans,
    // compute stages from a replay of sampled nominal-rung requests.
    let service_ms = |i: usize| {
        let k = kind(opts.seed, setup.weights.len(), i);
        direct[&(k.weight, k.padded_m())].service_ms
    };
    let served_nominal: Vec<usize> =
        nominal.iter().copied().filter(|&i| lat[i].is_some()).collect();
    let waits: Vec<f64> =
        served_nominal.iter().map(|&i| lat[i].unwrap_or(0.0) - service_ms(i)).collect();
    let by_kind = |prompt: bool| {
        let v: Vec<f64> = served_nominal
            .iter()
            .copied()
            .filter(|&i| kind(opts.seed, setup.weights.len(), i).prompt == prompt)
            .map(service_ms)
            .collect();
        crate::mean(&v)
    };
    let all: Vec<&Record> = records.iter().flatten().collect();
    let batch_sizes: Vec<f64> = all
        .iter()
        .filter_map(|r| match r.end {
            End::Served { batch_size, .. } => Some(batch_size as f64),
            End::Failed(_) => None,
        })
        .collect();
    let lags: Vec<f64> = all.iter().map(|r| r.lag_ns as f64 / 1e6).collect();
    let (traced, untraced): (Vec<&usize>, Vec<&usize>) =
        served_nominal.iter().partition(|&&i| records[i].as_ref().is_some_and(|r| r.traced));
    let mean_lat =
        |v: &[&usize]| crate::mean(&v.iter().map(|&&i| lat[i].unwrap_or(0.0)).collect::<Vec<_>>());
    let submit_us: Vec<f64> = all.iter().map(|r| r.submit_ns as f64 / 1e3).collect();

    let cfg = session.config().clone();
    let replay_cache = crate::exec::warm_replay_cache(&cfg, &setup.weights);
    let picks: Vec<usize> = crate::sample_indices(
        opts.seed,
        0x7EA5,
        served_nominal.len(),
        if opts.tiny { 2 } else { REPLAYS },
    )
    .into_iter()
    .map(|j| served_nominal[j])
    .collect();
    let sample = crate::replay_sample(
        &session,
        &picks,
        |i| request(&setup, opts.seed, i).1,
        |t, i, resp| {
            let k = kind(opts.seed, setup.weights.len(), i);
            let w = &setup.weights[k.weight];
            let r = trace::replay_execute(
                t,
                i as u64,
                &cfg,
                &replay_cache,
                w,
                &activations(opts.seed, w.cols(), k.m, i),
            );
            r.matches(&cfg, &resp.report, resp.output.as_ref()).then_some(r)
        },
    );
    out.failed += sample.mismatches;
    let mut values = BTreeMap::new();
    crate::replay_layer_values(&sample, cache, all.len(), &mut values, &mut out.lines);
    values.insert("core.run_ms", sample.serial_ns / sample.requests.max(1) as f64 / 1e6);
    values.insert("serve.submit_us", crate::mean(&submit_us));
    values.insert("serve.wait_ms_p50", crate::median(&waits));
    values.insert("serve.wait_ms_p99", crate::percentile(&waits, 99.0));
    values.insert("serve.service_ms_decode", by_kind(false));
    values.insert("serve.service_ms_prompt", by_kind(true));
    values.insert("serve.batch_size_mean", crate::mean(&batch_sizes));
    values.insert("serve.padded_share", stats.padded as f64 / stats.completed.max(1) as f64);
    values.insert("serve.batches", stats.batches as f64);
    values.insert("serve.rejected", stats.rejected as f64);
    values.insert("serve.shed", stats.shed as f64);
    values.insert("serve.worker_lost", stats.worker_lost as f64);
    values.insert("serve.timeouts", timeouts as f64);
    values.insert("bench.generator_lag_ms_p99", crate::percentile(&lags, 99.0));
    let nominal_rung =
        rungs.iter().find(|r| r.rate == NOMINAL_RATE).expect("the nominal rate is on the ladder");
    values.insert("bench.backlog_end", nominal_rung.backlog_end as f64);
    values.insert(
        "bench.trace_overhead",
        mean_lat(&traced) / mean_lat(&untraced).max(f64::MIN_POSITIVE) - 1.0,
    );
    let serving = trace::self_times(&[gen_tracer.spans(), wait_tracer.spans()].concat());
    out.lines.push("serving spans (generator and collector threads):".into());
    out.lines.extend(trace::stage_table(&serving, &[]));
    out.lines.push(format!(
        "nominal latency split (mean ms): lag {:.3} + submit {:.3} + wait {:.3} + service {:.3} = latency {:.3}",
        crate::mean(&served_nominal.iter().map(|&i| records[i].as_ref().map_or(0.0, |r| r.lag_ns as f64 / 1e6)).collect::<Vec<_>>()),
        crate::mean(&served_nominal.iter().map(|&i| records[i].as_ref().map_or(0.0, |r| r.submit_ns as f64 / 1e6)).collect::<Vec<_>>()),
        crate::mean(&waits),
        crate::mean(&served_nominal.iter().map(|&i| service_ms(i)).collect::<Vec<_>>()),
        crate::mean(&served_nominal.iter().map(|&i| lat[i].unwrap_or(0.0)).collect::<Vec<_>>()),
    ));
    out.metrics = crate::table_metrics(&crate::PER_LAYER, &values);
    out.spans = gen_tracer.into_spans();
    trace::append(&mut out.spans, wait_tracer.spans());
    trace::append(&mut out.spans, &sample.spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99_ms: f64) -> Rung {
        Rung { rate, requests: 100, p50_ms: 1.0, p99_ms, backlog_end: 0, backlog_ok: true }
    }

    #[test]
    fn one_noisy_rung_does_not_decide_the_knee() {
        // 300 req/s spikes past the limit but 400 does not: the monotone
        // fit pools them, and the knee lands between 400 and 500.
        let rungs = [rung(200.0, 20.0), rung(300.0, 60.0), rung(400.0, 30.0), rung(500.0, 200.0)];
        let slo = slo_rate(&rungs);
        assert!((400.0..500.0).contains(&slo), "{slo}");
    }

    #[test]
    fn the_ladder_bounds_the_rate() {
        assert_eq!(slo_rate(&[rung(100.0, 10.0), rung(200.0, 20.0)]), 200.0);
        let below = slo_rate(&[rung(100.0, 100.0), rung(200.0, 200.0)]);
        assert!((below - 50.0).abs() < 1e-9, "{below}");
        let mut backlog = [rung(100.0, 10.0), rung(200.0, 20.0)];
        backlog[1].backlog_ok = false;
        assert_eq!(slo_rate(&backlog), 100.0);
    }
}
