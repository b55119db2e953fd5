//! Machine-readable performance records and the CI regression gate.
//!
//! The `bench_smoke` binary runs [`run_suite`] — a fixed workload roster
//! (a Fig. 9 design point plus a full-scale LLaMA-7B `q_proj` layer
//! simulated serially and in parallel) — and writes the result as
//! `BENCH_<sha>.json`. CI compares that against the committed
//! `BENCH_baseline.json` with [`compare`] and fails on >20% regressions.
//!
//! Two measurement choices keep the gate portable across machines:
//!
//! * **normalized wall time** (`wall_norm`): every workload's wall time
//!   is divided by an in-process dense-GEMM calibration loop timed the
//!   same way, so "this runner is 2× slower than the baseline machine"
//!   cancels out while "this commit made the simulator 2× slower" does
//!   not;
//! * **model metrics** (`cycles`, `total_ops`, `density`,
//!   `macs_per_cycle`) are deterministic simulator outputs — any drift
//!   is a behavior change, not noise, and the serial/parallel pair is
//!   additionally checked for bit-equality on every run.
//!
//! The module splits three ways: `suite` measures (timing machinery
//! and roster assembly — the workload *definitions* live in
//! `ta-workloads`), `gate` compares runs against baselines, and
//! `json` is the purpose-built micro-codec (serde is unavailable
//! offline) that round-trips exactly the subset this module writes.
//! This root file keeps only the record types and the shared constants.

mod gate;
mod json;
mod suite;

pub use gate::{compare, disabled_summary, GateOutcome};
pub(crate) use json::json_str;
pub use suite::{
    cached_replay, contention_workload, run_suite, run_suite_filtered, simulate_seeded,
};

/// Default plan-cache capacity for the cached LLaMA-7B workload (see
/// [`ta_workloads::l7b`]).
pub use ta_workloads::l7b::DEFAULT_PLAN_CACHE_ENTRIES;

/// The full-scale LLaMA-7B `q_proj` GEMM (hidden 4096, prefill 2048).
pub use ta_workloads::l7b::qproj_shape as l7b_qproj_shape;

/// Thread counts the `plan_cache_contention` workload sweeps.
pub use ta_workloads::contention::THREADS as CONTENTION_THREADS;

/// Relative regression tolerance of the CI gate (>20% fails).
pub const GATE_TOLERANCE: f64 = 0.20;

/// One measured workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Workload name (stable across runs; the gate joins on it).
    pub name: String,
    /// Modeled end-to-end cycles (0 for workloads without a cycle model).
    pub cycles: u64,
    /// Modeled accumulate ops (0 when not applicable).
    pub total_ops: u64,
    /// Transitive density (0 when not applicable).
    pub density: f64,
    /// Dense-equivalent MACs per modeled cycle (0 when not applicable).
    pub macs_per_cycle: f64,
    /// Host wall-clock seconds (best of the measurement repeats).
    pub wall_s: f64,
    /// `wall_s` normalized by the calibration loop (machine-portable).
    pub wall_norm: f64,
}

/// One point of the `plan_cache_contention` workload: `threads` workers
/// hammering a pre-warmed sharded plan cache at a forced 1.0 hit rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionPoint {
    /// Concurrent lookup threads.
    pub threads: usize,
    /// Total lookups across all threads (every one a hit, by
    /// construction — the suite panics otherwise).
    pub lookups: u64,
    /// Wall seconds for all threads to complete.
    pub wall_s: f64,
    /// Mean lock-hold-plus-lookup latency per hit (nanoseconds of
    /// aggregate thread time per lookup).
    pub ns_per_lookup: f64,
    /// Aggregate hit throughput (million lookups per wall second) — the
    /// scaling metric the gate compares across thread counts.
    pub mlookups_per_s: f64,
}

/// Stats from the `serve_open_loop` workload: the whole serving stack
/// (admission queue → tenant round-robin → shape-bucketing batcher →
/// continuous-batching worker pool) under a seeded open-loop Poisson
/// trace. `requests` and `padded` are deterministic (the trace is
/// seeded and padding depends only on each request's shape and the
/// bucket quantum); `batches` depends on scheduler timing and is
/// recorded but not gated; the throughput/latency figures are
/// wall-clock metrics gated at the widened wall tolerance, same-shape
/// hosts only.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests served (the gate requires an exact match).
    pub requests: u64,
    /// Batches dispatched to workers (informational — timing-dependent).
    pub batches: u64,
    /// Requests zero-padded to their bucket width (deterministic).
    pub padded: u64,
    /// Worker threads the workload ran with.
    pub workers: usize,
    /// Served requests per wall second (open-loop, best measured pass).
    pub throughput_rps: f64,
    /// Median submit-to-complete latency in nanoseconds.
    pub p50_latency_ns: f64,
    /// 99th-percentile submit-to-complete latency in nanoseconds.
    pub p99_latency_ns: f64,
}

/// Stats from the `serve_overload` workload (schema 7): the serving
/// stack under a scripted storm on the **virtual clock** — per-tenant
/// queue depths blown by a frozen-clock storm trace (deterministic
/// rejections), every admitted storm request shed by one clock jump
/// past the latency budget (deterministic sheds), then recovery waves
/// served under seeded worker-panic injection (deterministic worker
/// losses and respawns). Every field is a pure function of the
/// workload's constants, so the gate requires exact matches — drift in
/// any of them is a behavior change in admission control, shedding,
/// fault injection, or worker recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadStats {
    /// Submission attempts (storm trace + recovery waves).
    pub submitted: u64,
    /// Admissions refused at submit (per-tenant queue depth exceeded).
    pub rejected: u64,
    /// Admitted requests dropped at the batcher for a blown budget.
    pub shed: u64,
    /// Requests lost to an injected worker panic (typed `WorkerLost`).
    pub worker_lost: u64,
    /// Requests served to completion, bit-checked against direct runs.
    pub completed: u64,
    /// `completed / submitted` — the useful fraction under overload.
    pub goodput: f64,
    /// Worker threads the workload ran with.
    pub workers: usize,
    /// Workers respawned after injected panics.
    pub respawned: u64,
}

/// One full bench-smoke run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// JSON schema version.
    pub schema: u64,
    /// Commit the run measured.
    pub sha: String,
    /// Scale name (`quick`/`full`) — baselines only compare at equal scale.
    pub scale: String,
    /// Resolved parallel worker count used by the `*_parallel` workloads.
    pub threads: usize,
    /// Available host cores. The parallel-speedup and contention gates
    /// self-disable (with a logged note) when baseline and current runs
    /// saw different core counts — those metrics are machine-shape
    /// facts, not portable ratios. Written as `host_cores` in schema-4
    /// JSON (`cores` in older schemas; both parse).
    pub host_cores: usize,
    /// Wall seconds of the dense-GEMM calibration loop.
    pub calibration_wall_s: f64,
    /// Serial wall / parallel wall for the LLaMA-7B layer.
    pub speedup_parallel: f64,
    /// Plan-cache hit rate of a deterministic warm replay of the
    /// LLaMA-7B layer (1.0 when every sub-tile plan is reused; a
    /// collapse to 0 means the cache silently disengaged and is a hard
    /// `bench_smoke` failure).
    pub plan_cache_hit_rate: f64,
    /// Uncached serial wall / plan-cached wall for the LLaMA-7B layer
    /// (the cached-vs-uncached ratio; ≥1 when the cache wins).
    pub speedup_cached: f64,
    /// DRAM transfer requests of the LLaMA-7B layer's traffic (one per
    /// weight/input/output stream under the shared tiling policy).
    pub dram_requests: u64,
    /// Burst beats those requests decompose into (64 B granularity).
    pub dram_bursts: u64,
    /// Steady-state heap allocations per sub-tile evaluation on the flat
    /// execution engine (`evaluate_into` + fused row accumulation over a
    /// warm `ExecScratch`). Healthy value: exactly `0.0`. `-1.0` marks
    /// "unmeasured" — no counting global allocator was installed (the
    /// `bench_smoke` binary installs one; library tests don't).
    pub exec_allocs_per_subtile: f64,
    /// Hit-path lock-contention sweep over the sharded plan cache
    /// (threads 1/2/8/16 at forced hit rate 1.0). Empty on schema ≤ 3
    /// baselines, which self-disables the contention gate.
    pub contention: Vec<ContentionPoint>,
    /// Serving-frontend stats from the `serve_open_loop` workload.
    /// `None` on schema ≤ 4 baselines, which self-disables the serve
    /// gate with a logged note.
    pub serve: Option<ServeStats>,
    /// Scripted-overload stats from the `serve_overload` workload.
    /// `None` on schema ≤ 6 baselines, which self-disables the
    /// overload gate with a logged note.
    pub overload: Option<OverloadStats>,
    /// Measured workloads.
    pub workloads: Vec<PerfRecord>,
}

/// Shared report fixture of the gate and codec tests.
#[cfg(test)]
pub(crate) mod test_fixture {
    use super::*;

    pub(crate) fn sample_report() -> PerfReport {
        PerfReport {
            schema: 7,
            sha: "abc123".into(),
            scale: "quick".into(),
            threads: 4,
            host_cores: 8,
            calibration_wall_s: 0.00125,
            speedup_parallel: 2.5,
            plan_cache_hit_rate: 1.0,
            speedup_cached: 1.8,
            dram_requests: 3,
            dram_bursts: 544_768,
            exec_allocs_per_subtile: 0.0,
            contention: vec![
                ContentionPoint {
                    threads: 1,
                    lookups: 20_000,
                    wall_s: 0.002,
                    ns_per_lookup: 100.0,
                    mlookups_per_s: 10.0,
                },
                ContentionPoint {
                    threads: 8,
                    lookups: 160_000,
                    wall_s: 0.004,
                    ns_per_lookup: 200.0,
                    mlookups_per_s: 40.0,
                },
            ],
            serve: Some(ServeStats {
                requests: 48,
                batches: 12,
                padded: 30,
                workers: 2,
                throughput_rps: 5_000.0,
                p50_latency_ns: 120_000.0,
                p99_latency_ns: 900_000.0,
            }),
            overload: Some(OverloadStats {
                submitted: 64,
                rejected: 4,
                shed: 28,
                worker_lost: 7,
                completed: 25,
                goodput: 25.0 / 64.0,
                workers: 2,
                respawned: 3,
            }),
            workloads: vec![
                PerfRecord {
                    name: "l7b_qproj_serial".into(),
                    cycles: 123_456_789,
                    total_ops: 42_000_000,
                    density: 0.126,
                    macs_per_cycle: 512.5,
                    wall_s: 1.5,
                    wall_norm: 1200.0,
                },
                PerfRecord {
                    name: "fig9_dse_t8_r256".into(),
                    cycles: 0,
                    total_ops: 1000,
                    density: 0.1257,
                    macs_per_cycle: 0.0,
                    wall_s: 0.002,
                    wall_norm: 1.6,
                },
                PerfRecord {
                    name: "kernel_micro_popcount".into(),
                    cycles: 0,
                    total_ops: 2_600_000,
                    density: 0.0,
                    macs_per_cycle: 0.0,
                    wall_s: 0.001,
                    wall_norm: 0.8,
                },
            ],
        }
    }
}
