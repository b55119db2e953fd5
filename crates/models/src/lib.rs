//! # ta-models — workloads for the Transitive Array evaluation
//!
//! The paper's benchmark zoo (§5.1):
//!
//! * [`LlamaConfig`] — LLaMA-1 {7,13,30,65}B, LLaMA-2 {7,13}B, LLaMA-3-8B
//!   block shapes: FC GEMMs and attention GEMMs at prefill length 2048;
//! * [`resnet18_layers`] — the 21 weighted ResNet-18 layers of Fig. 14,
//!   lowered to GEMMs via im2col;
//! * synthetic pattern sources ([`UniformBitSource`],
//!   [`QuantGaussianSource`]) and LLM-like tensor generators — the
//!   documented substitutions for proprietary traces (DESIGN.md §3).
//!
//! Every GEMM runs through `ta_core::Session`; a whole block's GEMMs run
//! concurrently as one `Session::run_batch` of simulate requests.
//!
//! ## Quick example
//!
//! ```
//! use ta_models::{LlamaConfig, PAPER_SEQ_LEN};
//!
//! let l7b = LlamaConfig::l1_7b();
//! let fc = l7b.fc_layers(PAPER_SEQ_LEN);
//! assert_eq!(fc[0].shape.n, 4096); // q_proj
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod llama;
mod resnet;
mod rng;
mod synth;

pub use llama::{LlamaConfig, NamedGemm, PAPER_SEQ_LEN};
pub use resnet::{resnet18_layers, resnet18_total_macs, ResnetLayer};
pub use rng::{mix, splitmix64, StreamRng};
pub use synth::{
    llm_activation_matrix, llm_activation_matrix_int, llm_weight_matrix, llm_weight_matrix_int,
    seeded_span_matrix, QuantGaussianSource, UniformBitSource,
};

#[cfg(test)]
mod integration {
    use super::*;
    use ta_core::{GemmReport, GemmRequest, GemmShape, PatternSource, Session, TransArrayConfig};

    fn simulate(
        cfg: TransArrayConfig,
        shape: GemmShape,
        src: impl PatternSource + Send + 'static,
    ) -> GemmReport {
        let session = Session::new(cfg).unwrap();
        session.run(GemmRequest::simulate(shape, src)).unwrap().report
    }

    #[test]
    fn simulate_small_llama_slice_with_synthetic_source() {
        // End-to-end smoke: a down-scaled q_proj simulated from the
        // Gaussian-quantized source.
        let cfg = TransArrayConfig { sample_limit: 64, ..TransArrayConfig::paper_w8() };
        let src = QuantGaussianSource::new(8, 8, cfg.n_tile(), 42);
        let rep = simulate(cfg, GemmShape::new(256, 256, 128), src);
        assert!(rep.density > 0.10 && rep.density < 0.30, "density {}", rep.density);
        assert!(rep.cycles > 0);
    }

    #[test]
    fn uniform_source_density_matches_fig9_anchor() {
        // 8-bit TranSparsity on uniform bits at 256 rows → ≈12.6% density.
        let cfg = TransArrayConfig { sample_limit: 128, ..TransArrayConfig::paper_w8() };
        let rep = simulate(cfg, GemmShape::new(1024, 1024, 64), UniformBitSource::new(8, 256, 7));
        assert!((rep.density - 0.126).abs() < 0.012, "density {} vs Fig. 9's 12.57%", rep.density);
    }

    #[test]
    fn pattern_source_trait_object_usable() {
        let mut src: Box<dyn PatternSource> = Box::new(UniformBitSource::new(8, 16, 1));
        assert_eq!(src.width(), 8);
        assert_eq!(src.subtile_patterns(0, 0).len(), 16);
    }

    fn tiny_session(threads: usize, plan_cache: usize) -> Session {
        let cfg = TransArrayConfig {
            sample_limit: 12,
            threads,
            plan_cache,
            ..TransArrayConfig::paper_w8()
        };
        Session::new(cfg).unwrap()
    }

    /// The seven FC GEMMs of a down-scaled block (the batch only cares
    /// about shapes, not the real 7B dimensions), as simulate requests
    /// with one pattern seed per layer.
    fn block_requests(session: &Session, seed: u64) -> Vec<GemmRequest> {
        let model = LlamaConfig {
            name: "tiny",
            hidden: 128,
            intermediate: 256,
            heads: 4,
            kv_heads: 4,
            layers: 2,
        };
        let cfg = session.config();
        model
            .fc_layers(32)
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let src = QuantGaussianSource::new(
                    cfg.width,
                    cfg.weight_bits,
                    cfg.n_tile(),
                    seed + i as u64,
                );
                GemmRequest::simulate(layer.shape, src)
            })
            .collect()
    }

    #[test]
    fn block_batch_matches_layerwise_serial_simulation() {
        let parallel = tiny_session(4, 0);
        let serial = tiny_session(1, 0);
        let got = parallel.run_batch(block_requests(&parallel, 99)).unwrap();
        assert_eq!(got.len(), 7);
        for (i, (resp, request)) in got.iter().zip(block_requests(&serial, 99)).enumerate() {
            assert_eq!(resp, &serial.run_serial(request).unwrap(), "layer {i}");
        }
    }

    #[test]
    fn batch_jobs_share_one_plan_cache() {
        let cached = tiny_session(2, 1024);
        let uncached = tiny_session(1, 0);

        let first = cached.run_batch(block_requests(&cached, 123)).unwrap();
        let after_first = cached.accelerator().plan_cache_stats().expect("cache enabled");
        assert!(after_first.insertions > 0);

        // Replaying the identical block must hit across batch jobs (same
        // per-layer seeds → same pattern multisets) without adding a
        // single miss, and reports must match the uncached runs exactly.
        let second = cached.run_batch(block_requests(&cached, 123)).unwrap();
        let after_second = cached.accelerator().plan_cache_stats().unwrap();
        assert!(after_second.hits > after_first.hits, "replayed block must hit");
        assert_eq!(after_second.misses, after_first.misses, "replayed block must not miss");
        let want = uncached.run_batch(block_requests(&uncached, 123)).unwrap();
        for (i, ((f, s), w)) in first.iter().zip(&second).zip(&want).enumerate() {
            assert_eq!(f, w, "layer {i}: cold cached batch must equal uncached");
            assert_eq!(s, w, "layer {i}: warm cached batch must equal uncached");
        }
    }
}
