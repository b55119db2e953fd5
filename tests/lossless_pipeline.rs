//! Cross-crate integration: the complete pipeline FP32 → quantize →
//! bit-slice → Scoreboard → Transitive Array must be lossless at the
//! integer level and match the FP32 reference within quantization error.

use transitive_array::core::{
    GemmReport, GemmRequest, GemmShape, PatternSource, ScoreboardMode, Session, TransArrayConfig,
};
use transitive_array::models::{
    llm_activation_matrix, llm_weight_matrix, QuantGaussianSource, StreamRng, UniformBitSource,
};
use transitive_array::quant::{
    calibrate, dequantize, gemm_f32, gemm_i32, nmse, quantize, Granularity, MatF32, MatI32,
    QuantScheme,
};

fn small_cfg(weight_bits: u32, mode: ScoreboardMode) -> TransArrayConfig {
    TransArrayConfig {
        width: 4,
        max_transrows: weight_bits as usize * 4,
        weight_bits,
        units: 2,
        m_tile: 8,
        sample_limit: 0,
        scoreboard_mode: mode,
        ..TransArrayConfig::paper_w8()
    }
}

/// Runs `w × x` as one execute request on a fresh session.
fn execute(cfg: TransArrayConfig, w: &MatI32, x: &MatI32) -> (MatI32, GemmReport) {
    let session = Session::new(cfg).expect("valid config");
    let resp = session.run(GemmRequest::execute(w.clone(), x.clone())).expect("valid request");
    (resp.output.expect("execute returns the output"), resp.report)
}

/// Simulates `shape` from `src` on `session`.
fn simulate(
    session: &Session,
    shape: GemmShape,
    src: impl PatternSource + Send + 'static,
) -> GemmReport {
    session.run(GemmRequest::simulate(shape, src)).expect("valid request").report
}

#[test]
fn fp32_to_accelerator_end_to_end() {
    // LLM-like FP32 tensors.
    let w_f = llm_weight_matrix(24, 40, 1);
    let a_f = llm_activation_matrix(40, 12, 2);

    // Quantize both sides at W8A8 per-channel (plain PTQ; the W4 recipe
    // needs the SmoothQuant migration — see ta-quant's TaQuant — which is
    // exercised by the Table 3 tests).
    let w_scheme = QuantScheme::new(8, Granularity::PerChannel);
    let a_scheme = QuantScheme::new(8, Granularity::PerChannel);
    let wp = calibrate(&w_f, w_scheme);
    let ap = calibrate(&a_f, a_scheme);
    let w_q = quantize(&w_f, &wp);
    let a_q = quantize(&a_f, &ap);

    // Integer losslessness on the accelerator.
    let (out, report) = execute(small_cfg(8, ScoreboardMode::Dynamic), &w_q, &a_q);
    assert_eq!(out, gemm_i32(&w_q, &a_q), "accelerator must be bit-exact");
    assert!(report.density < 0.6, "density {}", report.density);

    // The dequantized result approximates the FP32 GEMM: compare against
    // the fake-quantized reference (the quantizer's own error bound).
    let w_hat = dequantize(&w_q, &wp);
    let a_hat = dequantize(&a_q, &ap);
    let fq_reference = gemm_f32(&w_hat, &a_hat);
    let fp_reference = gemm_f32(&w_f, &a_f);
    // The accelerator output, rescaled, must be (near) identical to the
    // fake-quant reference…
    let out_f = MatF32::from_fn(out.rows(), out.cols(), |r, c| {
        // Per-channel w scale × per-feature a scales do not factor out of
        // the sum exactly, so compare the integer path against the same
        // integer path computed densely instead.
        out.get(r, c) as f32
    });
    let dense_int = gemm_i32(&w_q, &a_q);
    let dense_f =
        MatF32::from_fn(dense_int.rows(), dense_int.cols(), |r, c| dense_int.get(r, c) as f32);
    assert_eq!(out_f.as_slice(), dense_f.as_slice());
    // …and the fake-quant reference is close to FP32 (sanity on the
    // quantization substrate itself).
    let e = nmse(&fp_reference, &fq_reference);
    assert!(e < 0.05, "quantization pipeline error too large: {e}");
}

#[test]
fn both_modes_agree_on_every_seed() {
    for seed in 0..8u64 {
        let mut rng = StreamRng::new(seed);
        let w = MatI32::from_fn(12, 20, |_, _| {
            ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7)
        });
        let x = MatI32::from_fn(20, 6, |_, _| {
            ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
        });
        let (d, _) = execute(small_cfg(4, ScoreboardMode::Dynamic), &w, &x);
        let (s, _) = execute(small_cfg(4, ScoreboardMode::Static), &w, &x);
        let reference = gemm_i32(&w, &x);
        assert_eq!(d, reference, "dynamic seed {seed}");
        assert_eq!(s, reference, "static seed {seed}");
    }
}

/// Determinism suite (tile-execution runtime contract): an execute
/// request's output **and** the full `GemmReport` — including the floating-point
/// density/energy/seconds fields — must be bit-identical for
/// `threads = 1, 2, 8` in both Scoreboard modes.
#[test]
fn parallel_execute_gemm_bit_identical_across_thread_counts() {
    let mut rng = StreamRng::new(2024);
    // Large enough for several weight tiles and k-chunks per shard.
    let w =
        MatI32::from_fn(40, 36, |_, _| ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7));
    let x = MatI32::from_fn(36, 9, |_, _| {
        ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
    });
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let reference = execute(small_cfg(4, mode), &w, &x);
        assert_eq!(reference.0, gemm_i32(&w, &x), "{mode:?} serial must be lossless");
        for threads in [2usize, 8] {
            let cfg = TransArrayConfig { threads, ..small_cfg(4, mode) };
            let (out, report) = execute(cfg, &w, &x);
            assert_eq!(out, reference.0, "{mode:?} threads={threads}: output must be bit-exact");
            assert_eq!(
                report, reference.1,
                "{mode:?} threads={threads}: GemmReport must be bit-identical"
            );
        }
    }
}

/// Same contract for at-scale simulation with sampling enabled: a sharded
/// simulate request must reproduce the serial report bit-for-bit across
/// thread counts, modes, and synthetic sources.
#[test]
fn parallel_simulate_layer_bit_identical_across_thread_counts() {
    let shape = GemmShape::new(512, 256, 128);
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        for sample_limit in [0usize, 24] {
            let run = |threads: usize| {
                let cfg = TransArrayConfig {
                    sample_limit,
                    threads,
                    scoreboard_mode: mode,
                    ..TransArrayConfig::paper_w8()
                };
                let n_tile = cfg.n_tile();
                let session = Session::new(cfg).unwrap();
                let quant_rep =
                    simulate(&session, shape, QuantGaussianSource::new(8, 8, n_tile, 7));
                let uniform_rep =
                    simulate(&session, shape, UniformBitSource::new(8, n_tile * 8, 7));
                (quant_rep, uniform_rep)
            };
            let reference = run(1);
            for threads in [2usize, 8] {
                let got = run(threads);
                assert_eq!(
                    got, reference,
                    "{mode:?} sample_limit={sample_limit} threads={threads}: reports must be bit-identical"
                );
            }
        }
    }
}

/// Plan-cache determinism contract: enabling the memoized plan cache
/// must leave every `GemmReport` — including the floating-point
/// density/energy/seconds fields — bit-identical to the uncached run,
/// across thread counts, Scoreboard modes, and both request kinds, while
/// actually hitting (a cache that never hits proves nothing).
#[test]
fn plan_cache_bit_identical_across_thread_counts() {
    let shape = GemmShape::new(512, 256, 128);
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let cfg_for = |threads: usize, plan_cache: usize| TransArrayConfig {
            sample_limit: 24,
            threads,
            plan_cache,
            scoreboard_mode: mode,
            ..TransArrayConfig::paper_w8()
        };
        let run = |session: &Session| {
            let src = QuantGaussianSource::new(8, 8, session.config().n_tile(), 7);
            simulate(session, shape, src)
        };
        let reference = run(&Session::new(cfg_for(1, 0)).unwrap());
        for threads in [1usize, 2, 8] {
            let session = Session::new(cfg_for(threads, 512)).unwrap();
            let cold = run(&session);
            let warm = run(&session);
            assert_eq!(cold, reference, "{mode:?} threads={threads}: cold cached run differs");
            assert_eq!(warm, reference, "{mode:?} threads={threads}: warm cached run differs");
            let stats = session.accelerator().plan_cache_stats().expect("cache enabled");
            assert!(stats.insertions > 0, "{mode:?} threads={threads}: cache unused: {stats:?}");
            if mode == ScoreboardMode::Dynamic {
                // Static mode correctly misses across calls: each
                // simulate request builds a fresh SI table and cached
                // entries are scoped to the SI instance that produced
                // them. Dynamic plans carry no such scope, so the warm
                // replay must reuse every one.
                assert!(
                    stats.hits > 0,
                    "{mode:?} threads={threads}: warm replay must hit: {stats:?}"
                );
            }
        }
    }
}

/// Shard-count invariance: the sharded cache must be a pure concurrency
/// optimization. `plan_cache_shards = 1` reproduces the old
/// single-mutex layout, so comparing it against 8 shards and the auto
/// default proves reports never depend on shard routing or on which
/// shard a CLOCK eviction sweeps — across thread counts, Scoreboard
/// modes, and both request kinds.
#[test]
fn plan_cache_shard_count_never_changes_a_report() {
    let shape = GemmShape::new(512, 256, 128);
    let mut rng = StreamRng::new(8192);
    let w =
        MatI32::from_fn(40, 36, |_, _| ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7));
    let x = MatI32::from_fn(36, 9, |_, _| {
        ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
    });
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        // Simulate request, at-scale config.
        let layer_run = |threads: usize, shards: usize| {
            let cfg = TransArrayConfig {
                sample_limit: 24,
                threads,
                plan_cache: 512,
                plan_cache_shards: shards,
                scoreboard_mode: mode,
                ..TransArrayConfig::paper_w8()
            };
            let src = QuantGaussianSource::new(8, 8, cfg.n_tile(), 7);
            simulate(&Session::new(cfg).unwrap(), shape, src)
        };
        // Execute request, small exact config. The tiny cache
        // (8 entries) keeps the CLOCK sweep active during the run.
        let gemm_run = |threads: usize, shards: usize| {
            let cfg = TransArrayConfig {
                threads,
                plan_cache: 8,
                plan_cache_shards: shards,
                ..small_cfg(4, mode)
            };
            execute(cfg, &w, &x)
        };
        for threads in [1usize, 2, 8] {
            let layer_ref = layer_run(threads, 1);
            let gemm_ref = gemm_run(threads, 1);
            assert_eq!(gemm_ref.0, gemm_i32(&w, &x), "{mode:?} threads={threads}: lossless");
            for shards in [8usize, 0] {
                assert_eq!(
                    layer_run(threads, shards),
                    layer_ref,
                    "{mode:?} threads={threads} shards={shards}: simulate report differs"
                );
                assert_eq!(
                    gemm_run(threads, shards),
                    gemm_ref,
                    "{mode:?} threads={threads} shards={shards}: execute result differs"
                );
            }
        }
    }
}

/// The same contract for the exact functional engine: a cached execute
/// request's output and report equal the uncached serial run at
/// threads 1/2/8.
#[test]
fn plan_cache_execute_gemm_bit_identical_across_thread_counts() {
    let mut rng = StreamRng::new(4096);
    let w =
        MatI32::from_fn(40, 36, |_, _| ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7));
    let x = MatI32::from_fn(36, 9, |_, _| {
        ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
    });
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let reference = execute(small_cfg(4, mode), &w, &x);
        assert_eq!(reference.0, gemm_i32(&w, &x), "{mode:?}: reference must be lossless");
        for threads in [1usize, 2, 8] {
            let cfg = TransArrayConfig { threads, plan_cache: 128, ..small_cfg(4, mode) };
            let (out, report) = execute(cfg, &w, &x);
            assert_eq!(out, reference.0, "{mode:?} threads={threads}: cached output differs");
            assert_eq!(report, reference.1, "{mode:?} threads={threads}: cached report differs");
        }
    }
}

/// Fused-path contract, end to end: the arena-backed engine behind every
/// execute request matches the dense oracle (`gemm_i32`) and stays
/// report-identical at threads 1/2/8 with the plan cache on and off, in
/// both Scoreboard modes. The per-sub-tile arm (slab results ≡ the
/// nested-`Vec` oracle over one reused, dirty scratch) is a ta-core unit
/// test, next to the crate-private oracle it needs.
#[test]
fn fused_engine_matches_oracle_and_stays_deterministic() {
    let w = MatI32::from_fn(37, 29, |r, c| (((r * 29 + c) as i64 * 2654435761 % 15) - 7) as i32);
    let x = MatI32::from_fn(29, 11, |r, c| (((r * 11 + c) as i64 * 40503 % 255) - 127) as i32);
    let reference = gemm_i32(&w, &x);
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let serial = execute(small_cfg(4, mode), &w, &x);
        assert_eq!(serial.0, reference, "{mode:?}: fused serial engine must be lossless");
        for threads in [1usize, 2, 8] {
            for plan_cache in [0usize, 64] {
                let cfg = TransArrayConfig { threads, plan_cache, ..small_cfg(4, mode) };
                let (out, report) = execute(cfg, &w, &x);
                assert_eq!(out, reference, "{mode:?} threads={threads} cache={plan_cache}");
                assert_eq!(
                    report, serial.1,
                    "{mode:?} threads={threads} cache={plan_cache}: report must be bit-identical"
                );
            }
        }
    }
}

/// Word-parallel kernel contract: with every hot loop routed through
/// `ta_bitslice::kernels` (word-granular extraction, slab row-adds,
/// fused weighted accumulation), the pipeline must stay lossless and the
/// full `GemmReport` bit-identical at threads 1/2/8 in both Scoreboard
/// modes. K = 70 forces a non-word-multiple tail so the masked tail
/// path of every kernel sits on the execution path, not just in unit
/// tests.
#[test]
fn word_parallel_kernels_keep_reports_bit_identical() {
    let mut rng = StreamRng::new(6464);
    let w =
        MatI32::from_fn(41, 70, |_, _| ((rng.next_gaussian() * 3.0).round() as i32).clamp(-8, 7));
    let x = MatI32::from_fn(70, 13, |_, _| {
        ((rng.next_gaussian() * 40.0).round() as i32).clamp(-128, 127)
    });
    let reference = gemm_i32(&w, &x);
    for mode in [ScoreboardMode::Dynamic, ScoreboardMode::Static] {
        let serial = execute(small_cfg(4, mode), &w, &x);
        assert_eq!(serial.0, reference, "{mode:?}: kernel path must be lossless");
        for threads in [1usize, 2, 8] {
            let cfg = TransArrayConfig { threads, ..small_cfg(4, mode) };
            let (out, report) = execute(cfg, &w, &x);
            assert_eq!(out, reference, "{mode:?} threads={threads}: output must be bit-exact");
            assert_eq!(
                report, serial.1,
                "{mode:?} threads={threads}: GemmReport must be bit-identical"
            );
        }
    }
}

#[test]
fn eight_bit_weights_wide_activations() {
    let mut rng = StreamRng::new(77);
    let w = MatI32::from_fn(9, 33, |_, _| {
        ((rng.next_gaussian() * 39.0).round() as i32).clamp(-128, 127)
    });
    let x = MatI32::from_fn(33, 17, |_, _| {
        ((rng.next_gaussian() * 39.0).round() as i32).clamp(-128, 127)
    });
    let cfg = TransArrayConfig {
        width: 8,
        max_transrows: 64,
        weight_bits: 8,
        units: 3,
        m_tile: 4,
        sample_limit: 0,
        ..TransArrayConfig::paper_w8()
    };
    let (out, report) = execute(cfg, &w, &x);
    assert_eq!(out, gemm_i32(&w, &x));
    // 8-bit TranSparsity on Gaussian data sits well below bit sparsity.
    assert!(report.density < 0.40, "density {}", report.density);
}
