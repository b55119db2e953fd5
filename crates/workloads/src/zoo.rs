//! The grown model zoo: LLaMA block prefill and decode (growing KV
//! length), a ResNet conv lowered via im2col at realistic shapes, and a
//! mixture-of-experts many-small-GEMMs batch — registry entries beyond
//! the original bench roster, shared by the examples and the sweep.

use crate::Scale;
use ta_bitslice::ConvShape;
use ta_core::{GemmRequest, GemmShape, TransArrayConfig};
use ta_models::{LlamaConfig, NamedGemm, QuantGaussianSource, StreamRng};
use ta_quant::MatI32;

// ---------------------------------------------------------------------------
// LLaMA block prefill
// ---------------------------------------------------------------------------

/// Seed of the prefill block's per-layer weight streams.
pub const PREFILL_SEED: u64 = 0xB10C;

/// The prefill entry's model (the paper's LLaMA-1-7B).
pub fn prefill_model() -> LlamaConfig {
    LlamaConfig::l1_7b()
}

/// Prefill sequence length per scale: the paper's 2048 at full, a CI
/// slice at quick, tiny for unit tests.
pub fn prefill_seq(scale: Scale) -> usize {
    if scale == Scale::full() {
        ta_models::PAPER_SEQ_LEN
    } else if scale == Scale::quick() {
        128
    } else {
        32
    }
}

/// The block workloads' accelerator config (paper W8, scale sampling).
pub fn block_config(scale: Scale, threads: usize) -> TransArrayConfig {
    TransArrayConfig { sample_limit: scale.sample_limit, threads, ..TransArrayConfig::paper_w8() }
}

/// The prefill block's seven FC GEMMs at `scale`'s sequence length.
pub fn prefill_layers(scale: Scale) -> Vec<NamedGemm> {
    prefill_model().fc_layers(prefill_seq(scale))
}

/// One simulate request per layer, in layer order, for one
/// `Session::run_batch`: each draws its weight patterns from a
/// [`QuantGaussianSource`] at `cfg`'s precision with its own per-layer
/// seed (the DESIGN.md §3 stand-in for real traces).
pub fn simulate_requests(
    cfg: &TransArrayConfig,
    layers: &[NamedGemm],
    seed: u64,
) -> Vec<GemmRequest> {
    layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let layer_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let src =
                QuantGaussianSource::new(cfg.width, cfg.weight_bits, cfg.n_tile(), layer_seed);
            GemmRequest::simulate(layer.shape, src)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// LLaMA block decode (growing KV length — promoted from the
// attention_online example)
// ---------------------------------------------------------------------------

/// Attention head dimension of the decode stream.
pub const HEAD_DIM: usize = 32;

/// Key rows present before the first decode step.
pub const PREFILL_KV: usize = 16;

/// Decode steps per scale (each step grows the Key cache by one row).
pub fn decode_steps(scale: Scale) -> usize {
    if scale == Scale::full() {
        24
    } else if scale == Scale::quick() {
        8
    } else {
        4
    }
}

/// The decode workload's design point: the dynamic-Scoreboard config of
/// the `attention_online` example, sub-tile knobs scaled for one head.
pub fn decode_config() -> TransArrayConfig {
    TransArrayConfig::builder()
        .units(2)
        .m_tile(16)
        .sample_limit(0)
        .build()
        .expect("decode workload config is valid")
}

/// One tenant's runtime-generated attention stream: the full Key cache
/// (prefill + every decoded token) and one query vector per step. The
/// Key cache exists only at runtime, so the Scoreboard builds each
/// sub-tile's SI dynamically — the capability this workload guards.
pub struct DecodeStream {
    k_cache: MatI32,
    queries: Vec<MatI32>,
}

impl DecodeStream {
    /// Synthesizes a stream able to serve `steps` decode steps.
    pub fn new(seed: u64, steps: usize) -> Self {
        let mut rng = StreamRng::new(seed);
        let mut int8 =
            move || -> i32 { ((rng.next_gaussian() * 39.0).round() as i32).clamp(-127, 127) };
        let k_cache = MatI32::from_fn(PREFILL_KV + steps, HEAD_DIM, |_, _| int8());
        let queries = (0..steps).map(|_| MatI32::from_fn(HEAD_DIM, 1, |_, _| int8())).collect();
        Self { k_cache, queries }
    }

    /// Decode steps this stream can serve.
    pub fn steps(&self) -> usize {
        self.queries.len()
    }

    /// The QKᵀ operands for decode step `t`: the Key rows seen so far
    /// (`PREFILL_KV + t + 1` of them) and this step's query.
    pub fn step_operands(&self, t: usize) -> (MatI32, MatI32) {
        let rows = PREFILL_KV + t + 1;
        let k = MatI32::from_fn(rows, HEAD_DIM, |r, c| self.k_cache.get(r, c));
        (k, self.queries[t].clone())
    }

    /// The QKᵀ request for decode step `t` (the serving-path form).
    pub fn step_request(&self, t: usize) -> GemmRequest {
        let (k, q) = self.step_operands(t);
        GemmRequest::execute(k, q)
    }
}

// ---------------------------------------------------------------------------
// ResNet conv via im2col
// ---------------------------------------------------------------------------

/// Seed of the conv entry's weight/input synthesis.
pub const RESNET_SEED: u64 = 0xC0DE;

/// The conv entry's layer per scale: a realistic ResNet-18 conv2_x
/// block at full scale, the long-standing example shape at quick, tiny
/// for unit tests. All are 3×3 stride-1 pad-1 (the im2col hot case).
pub fn resnet_conv_shape(scale: Scale) -> ConvShape {
    if scale == Scale::full() {
        ConvShape { in_c: 64, out_c: 64, kh: 3, kw: 3, stride: 1, pad: 1, in_h: 28, in_w: 28 }
    } else if scale == Scale::quick() {
        ConvShape { in_c: 8, out_c: 16, kh: 3, kw: 3, stride: 1, pad: 1, in_h: 14, in_w: 14 }
    } else {
        ConvShape { in_c: 4, out_c: 8, kh: 3, kw: 3, stride: 1, pad: 1, in_h: 8, in_w: 8 }
    }
}

/// The conv entry's weights and input feature map: int8-ish Gaussians,
/// weights narrow (the paper quantizes ResNet interiors to 4 bits),
/// drawn from one sequential stream so the pair is one deterministic
/// artifact.
pub fn resnet_operands(shape: &ConvShape, seed: u64) -> (MatI32, MatI32) {
    let mut rng = StreamRng::new(seed);
    let mut gauss = move |spread: f32, clamp: i32| -> i32 {
        ((rng.next_gaussian() * spread).round() as i32).clamp(-clamp, clamp)
    };
    let weights =
        MatI32::from_fn(shape.out_c, shape.in_c * shape.kh * shape.kw, |_, _| gauss(2.2, 7));
    let input = MatI32::from_fn(shape.in_c, shape.in_h * shape.in_w, |_, _| gauss(39.0, 127));
    (weights, input)
}

/// The conv workload's accelerator config (4-bit weights, small tiles —
/// the `resnet_conv` example's design point).
pub fn resnet_config() -> TransArrayConfig {
    TransArrayConfig { units: 2, m_tile: 16, sample_limit: 0, ..TransArrayConfig::paper_w4() }
}

// ---------------------------------------------------------------------------
// Mixture-of-experts: many small GEMMs in one batch
// ---------------------------------------------------------------------------

/// Seed of the MoE entry's per-layer weight streams.
pub const MOE_SEED: u64 = 0x30E5;

/// Experts in the MoE batch per scale.
pub fn moe_experts(scale: Scale) -> usize {
    if scale == Scale::full() {
        16
    } else if scale == Scale::quick() {
        8
    } else {
        4
    }
}

/// The MoE batch: every expert contributes an up- and a down-projection
/// on its routed token slice — many small GEMMs, the batch scheduler's
/// worst case (lots of jobs, little work each).
pub fn moe_layers(scale: Scale) -> Vec<NamedGemm> {
    let (hidden, inter, tokens) = if scale == Scale::full() {
        (256, 512, 32)
    } else if scale == Scale::quick() {
        (128, 256, 16)
    } else {
        (64, 128, 8)
    };
    let mut layers = Vec::new();
    for _ in 0..moe_experts(scale) {
        layers.push(NamedGemm::new("expert_up", GemmShape::new(inter, hidden, tokens)));
        layers.push(NamedGemm::new("expert_down", GemmShape::new(hidden, inter, tokens)));
    }
    layers
}

/// The MoE workload's accelerator config (paper W8, scale sampling).
pub fn moe_config(scale: Scale, threads: usize) -> TransArrayConfig {
    TransArrayConfig { sample_limit: scale.sample_limit, threads, ..TransArrayConfig::paper_w8() }
}
