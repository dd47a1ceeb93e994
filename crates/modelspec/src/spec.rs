//! Architecture definitions for the models the paper evaluates.

/// Mixture-of-experts configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoeSpec {
    /// Total routed experts per layer (all resident in GPU memory).
    pub num_experts: u64,
    /// Experts activated per token.
    pub top_k: u64,
}

/// A transformer architecture, sufficient to derive FLOPs, bytes and
/// memory footprints.
///
/// # Examples
///
/// ```
/// use modelspec::ModelSpec;
/// let m = ModelSpec::llama8b();
/// let params = m.total_params() as f64 / 1e9;
/// assert!((7.5..8.6).contains(&params), "Llama-8B has ~8B params, got {params}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name.
    pub name: &'static str,
    /// Number of transformer layers (`N_T` in the paper's `N_PL` formula).
    pub num_layers: u32,
    /// Hidden dimension `d`.
    pub hidden: u64,
    /// Query heads.
    pub num_q_heads: u64,
    /// Key/value heads (GQA).
    pub num_kv_heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// FFN intermediate size (per expert for MoE models).
    pub ffn_inter: u64,
    /// Vocabulary size.
    pub vocab: u64,
    /// Bytes per parameter / activation element (2 for BF16).
    pub dtype_bytes: f64,
    /// Maximum supported context window in tokens.
    pub max_context: u64,
    /// MoE configuration, if any.
    pub moe: Option<MoeSpec>,
}

impl ModelSpec {
    /// Llama-3-8B.
    pub fn llama8b() -> ModelSpec {
        ModelSpec {
            name: "Llama-8B",
            num_layers: 32,
            hidden: 4096,
            num_q_heads: 32,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_inter: 14336,
            vocab: 128256,
            dtype_bytes: 2.0,
            max_context: 131072,
            moe: None,
        }
    }

    /// Llama-3-70B.
    pub fn llama70b() -> ModelSpec {
        ModelSpec {
            name: "Llama-70B",
            num_layers: 80,
            hidden: 8192,
            num_q_heads: 64,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_inter: 28672,
            vocab: 128256,
            dtype_bytes: 2.0,
            max_context: 131072,
            moe: None,
        }
    }

    /// Qwen3-235B-A22B (MoE; 22B active parameters).
    pub fn qwen235b() -> ModelSpec {
        ModelSpec {
            name: "Qwen3-235B-A22B",
            num_layers: 94,
            hidden: 4096,
            num_q_heads: 64,
            num_kv_heads: 4,
            head_dim: 128,
            ffn_inter: 1536,
            vocab: 151936,
            dtype_bytes: 2.0,
            max_context: 131072,
            moe: Some(MoeSpec {
                num_experts: 128,
                top_k: 8,
            }),
        }
    }

    /// CodeLlama-34B-Instruct (the artifact-appendix model).
    pub fn codellama34b() -> ModelSpec {
        ModelSpec {
            name: "CodeLlama-34B",
            num_layers: 48,
            hidden: 8192,
            num_q_heads: 64,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_inter: 22016,
            vocab: 32016,
            dtype_bytes: 2.0,
            max_context: 16384,
            moe: None,
        }
    }

    /// Query projection width (`num_q_heads × head_dim`).
    pub fn attn_dim(&self) -> u64 {
        self.num_q_heads * self.head_dim
    }

    /// Key/value projection width (`num_kv_heads × head_dim`).
    pub fn kv_dim(&self) -> u64 {
        self.num_kv_heads * self.head_dim
    }

    /// Attention weight parameters per layer (Q, K, V, O projections).
    pub fn attn_params_per_layer(&self) -> u64 {
        2 * self.hidden * self.attn_dim() + 2 * self.hidden * self.kv_dim()
    }

    /// FFN weight parameters per layer resident in memory (all experts
    /// for MoE).
    pub fn ffn_params_per_layer(&self) -> u64 {
        let per_expert = 3 * self.hidden * self.ffn_inter;
        match self.moe {
            Some(moe) => moe.num_experts * per_expert,
            None => per_expert,
        }
    }

    /// FFN weight parameters per layer *used per token* (top-k experts
    /// for MoE).
    pub fn ffn_active_params_per_layer(&self) -> u64 {
        let per_expert = 3 * self.hidden * self.ffn_inter;
        match self.moe {
            Some(moe) => moe.top_k * per_expert,
            None => per_expert,
        }
    }

    /// Total parameter count (layers + embedding + LM head).
    pub fn total_params(&self) -> u64 {
        self.num_layers as u64 * (self.attn_params_per_layer() + self.ffn_params_per_layer())
            + 2 * self.vocab * self.hidden
    }

    /// Parameters active per token (the "A22B" in Qwen3-235B-A22B).
    pub fn active_params(&self) -> u64 {
        self.num_layers as u64 * (self.attn_params_per_layer() + self.ffn_active_params_per_layer())
            + 2 * self.vocab * self.hidden
    }

    /// Total weight bytes across all GPUs.
    pub fn weight_bytes(&self) -> f64 {
        self.total_params() as f64 * self.dtype_bytes
    }

    /// Weight bytes resident on each GPU under `tp`-way tensor
    /// parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero.
    pub fn weight_bytes_per_gpu(&self, tp: u32) -> f64 {
        assert!(tp > 0);
        self.weight_bytes() / tp as f64
    }

    /// KV-cache bytes per token across the whole model (all layers, K+V).
    pub fn kv_bytes_per_token(&self) -> f64 {
        self.num_layers as f64 * 2.0 * self.kv_dim() as f64 * self.dtype_bytes
    }

    /// KV-cache bytes per token for a single layer.
    pub fn kv_bytes_per_token_layer(&self) -> f64 {
        2.0 * self.kv_dim() as f64 * self.dtype_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama70b_param_count() {
        let p = ModelSpec::llama70b().total_params() as f64 / 1e9;
        assert!((69.0..72.0).contains(&p), "got {p}B");
    }

    #[test]
    fn qwen_total_and_active_params() {
        let m = ModelSpec::qwen235b();
        let total = m.total_params() as f64 / 1e9;
        let active = m.active_params() as f64 / 1e9;
        assert!((225.0..245.0).contains(&total), "total {total}B");
        assert!((20.0..24.0).contains(&active), "active {active}B");
    }

    #[test]
    fn codellama_params() {
        let p = ModelSpec::codellama34b().total_params() as f64 / 1e9;
        assert!((32.0..35.5).contains(&p), "got {p}B");
    }

    #[test]
    fn kv_bytes_match_hand_calc() {
        // Llama-70B: 80 layers × 2 × (8×128) × 2B = 327,680 B/token.
        let m = ModelSpec::llama70b();
        assert_eq!(m.kv_bytes_per_token(), 327_680.0);
        // Llama-8B: 32 × 2 × 1024 × 2 = 131,072 B/token.
        assert_eq!(ModelSpec::llama8b().kv_bytes_per_token(), 131_072.0);
    }

    #[test]
    fn dense_model_active_equals_total() {
        let m = ModelSpec::llama8b();
        assert_eq!(m.total_params(), m.active_params());
    }

    #[test]
    fn weight_sharding_divides_evenly() {
        let m = ModelSpec::llama70b();
        let full = m.weight_bytes();
        assert!((m.weight_bytes_per_gpu(8) - full / 8.0).abs() < 1.0);
    }

    #[test]
    fn qwen_fits_h200_but_not_h100() {
        // The paper notes disaggregation is infeasible for Qwen-235B even
        // on H200; the full model must fit on one 8-GPU server.
        let m = ModelSpec::qwen235b();
        let per_gpu = m.weight_bytes_per_gpu(8);
        assert!(per_gpu < 141.0 * 1024.0 * 1024.0 * 1024.0);
        assert!(per_gpu / 2.0 > 80.0e9 / 4.0); // far too big for a 4-GPU split
    }
}
