//! Traced mode: spans recorded by the benchmark around each call into a
//! layer, and a replay of the layer pipeline through public functions.
//!
//! A replay repeats what `Session::run` does for one request, one public
//! call at a time, so each layer's self time can be measured. Its output,
//! sub-tile count and op count are checked against the session's answer
//! for the same request, so the per-layer numbers measure the same work.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;
use ta_bitslice::{BitSlicedMatrix, RowMajor};
use ta_core::{GemmReport, GemmShape, PatternSource, SlicedSource, TransArrayConfig};
use ta_hasse::{CachedPlan, ExecScratch, NullSink, PlanKey, SharedPlanCache};
use ta_quant::MatI32;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage name, `layer.stage`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub req: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Spans nest through an explicit stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now();
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span { name, req, parent, start_ns, end_ns: start_ns });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        let i = self.stack.pop().expect("end() without begin()") as usize;
        self.spans[i].end_ns = self.now();
        self.spans[i].dur_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` to `spans`, re-basing its parent indices.
pub fn append(spans: &mut Vec<Span>, more: &[Span]) {
    let base = spans.len() as u32;
    spans.extend(
        more.iter()
            .map(|s| Span { parent: if s.parent == ROOT { ROOT } else { s.parent + base }, ..*s }),
    );
}

/// Self time and call count of one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTime {
    /// Sum of self times (duration minus child spans) in ns.
    pub self_ns: u64,
    /// Spans of this name.
    pub count: u64,
}

/// Self time per stage name over `spans`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, StageTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, StageTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.self_ns += s.dur_ns().saturating_sub(child);
        e.count += 1;
    }
    out
}

/// The per-layer table: one line per stage, largest self time first.
pub fn stage_table(stages: &BTreeMap<&'static str, StageTime>, skip: &[&str]) -> Vec<String> {
    let mut rows: Vec<_> = stages.iter().filter(|(n, _)| !skip.contains(n)).collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let total: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
    let mut lines = vec![format!(
        "  {:<24} {:>12} {:>8} {:>10} {:>12}",
        "stage", "self_ms", "share", "calls", "us/call"
    )];
    for (name, t) in rows {
        lines.push(format!(
            "  {:<24} {:>12.3} {:>7.1}% {:>10} {:>12.3}",
            name,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / total.max(1) as f64,
            t.count,
            t.self_ns as f64 / 1e3 / t.count.max(1) as f64
        ));
    }
    lines
}

/// Self time of `name` per call in µs (0 when the stage never ran).
pub fn per_call_us(stages: &BTreeMap<&'static str, StageTime>, name: &str) -> f64 {
    stages.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
}

/// Self time of `name` in µs divided by `per` (0 when `per` is 0).
pub fn total_us_per(stages: &BTreeMap<&'static str, StageTime>, name: &str, per: f64) -> f64 {
    if per == 0.0 {
        return 0.0;
    }
    stages.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3 / per)
}

/// Writes `spans` as JSON lines under the build directory the benchmark
/// already uses (`$CARGO_TARGET_DIR`, else `target`), and returns the path.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.req, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

/// What a replay computed, for the comparison with the session's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// Output matrix (execute replays only).
    pub output: Option<MatI32>,
    /// Sub-tiles processed.
    pub subtiles: u64,
    /// Accumulate ops summed over the processed sub-tiles (unscaled).
    pub ops: u64,
}

impl Replayed {
    /// Whether the replay did the same work as the session run that
    /// produced `report` (and `output`, for execute requests).
    pub fn matches(
        &self,
        cfg: &TransArrayConfig,
        report: &GemmReport,
        output: Option<&MatI32>,
    ) -> bool {
        // The same scaling `GemmReport::total_ops` applies: the sampling
        // fraction times the `m_tile` repetitions.
        let scale = report.subtiles_total as f64 / self.subtiles.max(1) as f64;
        let m_reps = report.shape.m.div_ceil(cfg.m_tile * cfg.act_split()) as f64;
        let ops = (self.ops as f64 * scale * m_reps).round() as u64;
        self.subtiles == report.subtiles_simulated
            && ops == report.total_ops
            && self.output.as_ref() == output
    }
}

/// Plan lookup through the cache, building and inserting on a miss.
fn plan_for(
    t: &mut Tracer,
    req: u64,
    cfg: &TransArrayConfig,
    cache: &SharedPlanCache,
    patterns: &[u16],
    with_plan: bool,
) -> Arc<CachedPlan> {
    let sb = cfg.scoreboard_config();
    let key = t.leaf("hasse.plan_key", req, || PlanKey::new(&sb, None, patterns));
    t.begin("hasse.cache_get", req);
    let hit = cache.get(&key);
    t.end();
    match hit {
        Some(plan) => {
            rename_last(t, "hasse.cache_hit");
            plan
        }
        None => {
            rename_last(t, "hasse.cache_miss");
            let plan = t.leaf("hasse.plan_build", req, || {
                Arc::new(CachedPlan::build_dynamic(&sb, patterns, with_plan))
            });
            t.leaf("hasse.cache_insert", req, || cache.insert(key, Arc::clone(&plan)));
            plan
        }
    }
}

/// Renames the most recently closed span (a lookup is a hit or a miss
/// only once it returns).
fn rename_last(t: &mut Tracer, name: &'static str) {
    if let Some(s) = t.spans.last_mut() {
        s.name = name;
    }
}

fn tile_ops(plan: &CachedPlan) -> u64 {
    match plan {
        CachedPlan::Dynamic { stats, .. } => stats.total_ops,
        CachedPlan::Static { report } => report.total_ops,
    }
}

/// Replays a simulate request: pattern source → plan key → cache lookup
/// (plan build and insert on a miss), over the session's sampled
/// sub-tiles. Dynamic Scoreboard mode only.
pub fn replay_simulate(
    t: &mut Tracer,
    req: u64,
    cfg: &TransArrayConfig,
    cache: &SharedPlanCache,
    shape: GemmShape,
    source: &mut dyn PatternSource,
) -> Replayed {
    t.begin("bench.replay", req);
    let width = cfg.width as usize;
    let k_chunks = shape.k.div_ceil(width);
    let total = (shape.n.div_ceil(cfg.n_tile()) * k_chunks) as u64;
    let limit = cfg.sample_limit as u64;
    let step = if limit > 0 && total > limit { total.div_ceil(limit) } else { 1 };
    let mut patterns = Vec::new();
    let (mut subtiles, mut ops) = (0u64, 0u64);
    let mut idx = 0u64;
    while idx < total {
        let (nt, kc) = ((idx / k_chunks as u64) as usize, (idx % k_chunks as u64) as usize);
        t.leaf("models.source", req, || source.subtile_patterns_into(nt, kc, &mut patterns));
        let plan = plan_for(t, req, cfg, cache, &patterns, false);
        ops += tile_ops(&plan);
        subtiles += 1;
        idx += step;
    }
    t.end();
    Replayed { output: None, subtiles, ops }
}

/// Replays an execute request: slice → per sub-tile extract → plan key →
/// cache lookup (build and insert on a miss) → slab evaluation → row
/// accumulation → output narrowing. Dynamic Scoreboard mode only.
pub fn replay_execute(
    t: &mut Tracer,
    req: u64,
    cfg: &TransArrayConfig,
    cache: &SharedPlanCache,
    weights: &MatI32,
    input: &MatI32,
) -> Replayed {
    t.begin("bench.replay", req);
    let (n, k, m) = (weights.rows(), weights.cols(), input.cols());
    let width = cfg.width as usize;
    let bits = cfg.weight_bits;
    let n_tile = cfg.n_tile();
    let k_chunks = k.div_ceil(width);
    let sb = cfg.scoreboard_config();
    let sliced = t.leaf("bitslice.slice", req, || BitSlicedMatrix::slice(weights, bits));
    let staged = t.leaf("core.stage_input", req, || {
        let mut staged = RowMajor::<i64>::zeros(k_chunks * width, m);
        for r in 0..k {
            for (s, &v) in staged.row_mut(r).iter_mut().zip(input.row(r)) {
                *s = v as i64;
            }
        }
        staged
    });
    let mut acc = RowMajor::<i64>::zeros(n, m);
    let mut source = SlicedSource::new(&sliced, n_tile, cfg.width);
    let mut scratch = ExecScratch::new();
    let mut patterns = Vec::new();
    let (mut subtiles, mut ops) = (0u64, 0u64);
    for nt in 0..n.div_ceil(n_tile) {
        for kc in 0..k_chunks {
            t.leaf("bitslice.extract", req, || source.subtile_patterns_into(nt, kc, &mut patterns));
            let plan = plan_for(t, req, cfg, cache, &patterns, true);
            t.leaf("hasse.evaluate", req, || {
                plan.dynamic_plan(&sb, &patterns).evaluate_into(
                    staged.view_rows(kc * width, width),
                    &mut scratch,
                    &mut NullSink,
                )
            });
            t.leaf("core.accumulate", req, || {
                for (r, &p) in patterns.iter().enumerate() {
                    let row = nt * n_tile + r / bits as usize;
                    if p == 0 || row >= n {
                        continue;
                    }
                    let level = (r % bits as usize) as u32;
                    let w = if level == bits - 1 { -(1i64 << level) } else { 1i64 << level };
                    let result = scratch.result(p).expect("every non-zero pattern is evaluated");
                    ta_bitslice::kernels::axpy(acc.row_mut(row), w, result);
                }
            });
            ops += tile_ops(&plan);
            subtiles += 1;
        }
    }
    let output = t.leaf("core.finalize", req, || {
        MatI32::from_fn(n, m, |r, c| {
            i32::try_from(acc.row(r)[c]).expect("validated operands fit i32 outputs")
        })
    });
    t.end();
    Replayed { output: Some(output), subtiles, ops }
}

/// Layer coverage of replays: the summed self time of every stage below
/// the `bench.replay` roots, as a share of the roots' duration. What the
/// stages do not cover is work no layer span accounts for.
pub fn coverage(spans: &[Span]) -> f64 {
    let roots: u64 = spans.iter().filter(|s| s.name == "bench.replay").map(Span::dur_ns).sum();
    let stages = self_times(spans);
    let covered: u64 =
        stages.iter().filter(|(n, _)| **n != "bench.replay").map(|(_, t)| t.self_ns).sum();
    covered as f64 / roots.max(1) as f64
}
