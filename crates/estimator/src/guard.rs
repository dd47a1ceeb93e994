//! The contention guard: worst-case decode slowdown per configuration
//! grid cell (§3.3.2).

use std::collections::HashMap;
use std::sync::Arc;

use gpusim::{ClusterSpec, GpuSim, KernelId, WorkItem};
use modelspec::{ModelSpec, Parallelism, SeqState};
use simcore::SimTime;

/// The five grid dimensions of a contention lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardQuery {
    /// New tokens in the co-running prefill batch.
    pub prefill_new: u64,
    /// Reused tokens in the co-running prefill batch.
    pub prefill_reused: u64,
    /// Decode batch size.
    pub decode_batch: usize,
    /// Average per-request reused context in the decode batch.
    pub decode_context: u64,
    /// SMs allocated to decode.
    pub decode_sms: u32,
}

type CellKey = (u8, u8, u8, u8, u32);

/// One populated guard-grid cell in exported form: bucketed query key
/// plus its worst observed slowdown.
pub type GuardCell = (CellKey, f64);

/// Powers-of-4 token buckets from 2 K to 128 K (§3.3.2's sampling grid).
fn token_bucket(tokens: u64) -> u8 {
    match tokens {
        0..=2_047 => 0,
        2_048..=8_191 => 1,
        8_192..=32_767 => 2,
        32_768..=131_071 => 3,
        _ => 4,
    }
}

/// Batch-size buckets (log₂-spaced, covering the framework's captured
/// batch sizes).
fn batch_bucket(bs: usize) -> u8 {
    (bs.max(1) as f64).log2().round() as u8
}

/// The grid bucket of a `decode_context` value. Exposed so dispatchers
/// caching a [`ContentionGuard::factor`] across decode iterations can
/// tell exactly when a growing context crosses into a new cell (only
/// then can the cached factor go stale: the other four key dimensions
/// are fixed while the batch composition is unchanged).
pub fn context_bucket(tokens: u64) -> u8 {
    token_bucket(tokens)
}

/// Worst-case decode slowdown factors, indexed by the coarse grid.
///
/// Cells hold the **max** slowdown observed — by offline grid profiling
/// ([`ContentionGuard::profile`]) and refined online
/// ([`ContentionGuard::observe`]). Queries for unvisited cells return
/// the global max, which is conservative but safe (§3.3.2 notes the
/// global max stays ≤ ~20 % on A100 / ~30 % on H100).
///
/// The offline profile is made once per LLM–machine pair, so clones
/// share it: it sits behind an [`Arc`], and each clone keeps its online
/// refinements in a small map of its own, consulted first. Every query,
/// the cell count, the exported cells and equality read the merged
/// view, so a clone answers exactly as a private copy of the grid would.
#[derive(Debug, Clone)]
pub struct ContentionGuard {
    /// The offline profile; `None` once invalidated.
    profile: Option<Arc<HashMap<CellKey, f64>>>,
    /// Cells this guard raised above the profile or added to it.
    refined: HashMap<CellKey, f64>,
    global_max: f64,
}

impl PartialEq for ContentionGuard {
    fn eq(&self, other: &ContentionGuard) -> bool {
        self.global_max == other.global_max
            && self.num_cells() == other.num_cells()
            && self.cells().all(|(k, s)| other.cell(&k) == Some(s))
    }
}

impl ContentionGuard {
    /// An empty guard that answers every query with `floor` (used when
    /// profiling is disabled in ablations).
    pub fn flat(floor: f64) -> ContentionGuard {
        ContentionGuard {
            profile: None,
            refined: HashMap::new(),
            global_max: floor.max(1.0),
        }
    }

    /// A guard whose profile is `cells`, with nothing refined yet.
    fn profiled(cells: HashMap<CellKey, f64>, global_max: f64) -> ContentionGuard {
        ContentionGuard {
            profile: Some(Arc::new(cells)),
            refined: HashMap::new(),
            global_max,
        }
    }

    /// Offline grid profiling: co-runs decode×prefill pairs across the
    /// powers-of-4 token grid, a batch-size subset, and each decode
    /// partition, recording the max slowdown per cell. The paper's ~7 K
    /// hardware samples take ~12 hours; the same sweep against the
    /// simulator takes well under a second.
    ///
    /// # Panics
    ///
    /// Panics if `decode_partitions` is empty.
    pub fn profile(
        model: &ModelSpec,
        cluster: &ClusterSpec,
        par: &Parallelism,
        decode_partitions: &[u32],
    ) -> ContentionGuard {
        assert!(!decode_partitions.is_empty());
        const TOKENS: [u64; 4] = [2_048, 8_192, 32_768, 131_072];
        const BATCHES: [usize; 5] = [1, 8, 32, 128, 256];
        // Every co-run's model work, built once: the prefills within the
        // context window (§3.3.2 excludes 128K new + 128K reused), and
        // the decodes.
        let mut prefills = Vec::with_capacity(TOKENS.len() * TOKENS.len());
        for &p_new in &TOKENS {
            for &p_reused in &TOKENS {
                if p_new + p_reused <= model.max_context {
                    let work = model.prefill_full_work(&[SeqState::new(p_new, p_reused)], par);
                    prefills.push((p_new, p_reused, work));
                }
            }
        }
        let mut decodes = Vec::with_capacity(BATCHES.len() * TOKENS.len());
        let mut contexts = Vec::new();
        for &bs in &BATCHES {
            for &d_ctx in &TOKENS {
                contexts.clear();
                contexts.resize(bs, d_ctx);
                decodes.push((bs, d_ctx, model.decode_iter_work(&contexts, par)));
            }
        }
        let mut guard = ContentionGuard::flat(1.0);
        let mut done = Vec::new();
        for &sms in decode_partitions {
            let prefill_sms = cluster.gpu.sm_count - sms;
            if prefill_sms == 0 {
                continue;
            }
            for &(p_new, p_reused, prefill) in &prefills {
                for &(bs, d_ctx, decode) in &decodes {
                    let q = GuardQuery {
                        prefill_new: p_new,
                        prefill_reused: p_reused,
                        decode_batch: bs,
                        decode_context: d_ctx,
                        decode_sms: sms,
                    };
                    let slow =
                        corun_slowdown(cluster, decode, sms, prefill, prefill_sms, &mut done);
                    guard.observe(&q, slow);
                }
            }
        }
        ContentionGuard::profiled(guard.refined, guard.global_max)
    }

    /// The worst-case slowdown factor (≥ 1) for the query's grid cell;
    /// the global max for unvisited cells.
    pub fn factor(&self, q: &GuardQuery) -> f64 {
        self.cell(&Self::key(q)).unwrap_or(self.global_max)
    }

    /// A populated cell's slowdown: this guard's refinement, else the
    /// profile's.
    fn cell(&self, key: &CellKey) -> Option<f64> {
        self.refined
            .get(key)
            .or_else(|| self.profile.as_ref()?.get(key))
            .copied()
    }

    /// Every populated cell once, in no particular order.
    fn cells(&self) -> impl Iterator<Item = (CellKey, f64)> + '_ {
        let profiled = self.profile.iter().flat_map(|p| p.iter());
        self.refined
            .iter()
            .chain(profiled.filter(|(k, _)| !self.refined.contains_key(k)))
            .map(|(&k, &s)| (k, s))
    }

    /// Records a measured slowdown (offline profiling or online
    /// refinement from production executions). Cells keep their max; a
    /// cell this raises or creates goes into this guard's own map.
    pub fn observe(&mut self, q: &GuardQuery, slowdown: f64) {
        let s = slowdown.max(1.0);
        let key = Self::key(q);
        if self.cell(&key).is_none_or(|cur| s > cur) {
            self.refined.insert(key, s);
        }
        self.global_max = self.global_max.max(s);
    }

    /// Discards every profiled and refined cell from this guard's view,
    /// keeping the global max so queries stay conservative until online
    /// refinement repopulates the grid. Used when the hardware changed
    /// underneath the offline profile (degradation/fault windows): the
    /// per-cell numbers are stale, but the worst case ever seen remains
    /// a safe upper bound. Other guards sharing the profile keep it.
    pub fn invalidate(&mut self) {
        self.profile = None;
        self.refined.clear();
    }

    /// The largest slowdown ever observed.
    pub fn max_slowdown(&self) -> f64 {
        self.global_max
    }

    /// Number of populated grid cells.
    pub fn num_cells(&self) -> usize {
        self.cells().count()
    }

    /// Exports the populated cells (for persistence).
    pub fn export_cells(&self) -> Vec<GuardCell> {
        let mut v: Vec<_> = self.cells().collect();
        v.sort_by_key(|a| a.0);
        v
    }

    /// Rebuilds a guard from exported cells; they become its profile.
    pub fn from_cells(cells: Vec<GuardCell>) -> ContentionGuard {
        let mut global = 1.0f64;
        let mut map = HashMap::with_capacity(cells.len());
        for (k, s) in cells {
            map.insert(k, s.max(1.0));
            global = global.max(s);
        }
        ContentionGuard::profiled(map, global)
    }

    fn key(q: &GuardQuery) -> CellKey {
        (
            token_bucket(q.prefill_new),
            token_bucket(q.prefill_reused),
            batch_bucket(q.decode_batch),
            token_bucket(q.decode_context),
            q.decode_sms,
        )
    }
}

/// Measures the decode slowdown of one co-run configuration on a fresh
/// simulator: decode on `q.decode_sms` SMs next to a prefill batch on
/// `prefill_sms` SMs, versus the decode's solo run. This is exactly the
/// observation a physical profiling run would make.
pub fn measure_decode_corun_slowdown(
    model: &ModelSpec,
    cluster: &ClusterSpec,
    par: &Parallelism,
    q: &GuardQuery,
    prefill_sms: u32,
) -> f64 {
    let decode = model.decode_iter_work(&vec![q.decode_context; q.decode_batch], par);
    let prefill = model.prefill_full_work(&[SeqState::new(q.prefill_new, q.prefill_reused)], par);
    corun_slowdown(
        cluster,
        decode,
        q.decode_sms,
        prefill,
        prefill_sms,
        &mut Vec::new(),
    )
}

/// The co-run of [`measure_decode_corun_slowdown`] on built work:
/// `decode` on `decode_sms` SMs next to `prefill`, repeated until it
/// covers the decode, on `prefill_sms` SMs. `done` is a completion
/// buffer reused across co-runs.
fn corun_slowdown(
    cluster: &ClusterSpec,
    decode: WorkItem,
    decode_sms: u32,
    prefill: WorkItem,
    prefill_sms: u32,
    done: &mut Vec<(KernelId, u64)>,
) -> f64 {
    let mut sim = GpuSim::from_cluster(cluster);
    let group = sim.create_group((0..cluster.num_gpus).collect());
    let d_ctx = sim.set_context(group, decode_sms);
    let p_ctx = sim.set_context(group, prefill_sms);
    let solo = sim.solo_duration(decode_sms, &decode);

    // A prefill long enough to cover the decode iteration completely.
    let mut prefill = prefill;
    let min_cover = solo * 4.0;
    let one_pass = sim.solo_duration(prefill_sms, &prefill);
    if one_pass < min_cover {
        prefill = prefill.scaled((min_cover / one_pass).ceil());
    }

    let start = SimTime::from_secs(0.001);
    sim.submit(group, p_ctx, prefill, start, 1);
    sim.submit(group, d_ctx, decode, start, 2);
    let finish = run_until_tag(&mut sim, 2, done);
    let corun = (finish - start).as_secs();
    (corun / solo).max(1.0)
}

fn run_until_tag(sim: &mut GpuSim, tag: u64, done: &mut Vec<(KernelId, u64)>) -> SimTime {
    loop {
        let t = sim
            .next_event_time()
            .expect("kernel must eventually finish");
        sim.advance_to(t);
        sim.drain_completed_into(done);
        if done.iter().any(|&(_, t)| t == tag) {
            return sim.now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn guard() -> (ModelSpec, ClusterSpec, Parallelism, ContentionGuard) {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let par = Parallelism::tp(8, cluster.nvlink_gbs);
        let g = ContentionGuard::profile(&model, &cluster, &par, &[16, 48, 96]);
        (model, cluster, par, g)
    }

    #[test]
    fn profiled_guard_bounds_match_paper_range() {
        let (_, _, _, g) = guard();
        let max = g.max_slowdown();
        assert!(max > 1.02, "some contention must be observed, got {max}");
        assert!(max < 1.45, "slowdown cap blown: {max}");
        assert!(g.num_cells() > 100, "grid too sparse: {}", g.num_cells());
    }

    #[test]
    fn factor_is_conservative_for_unvisited_cells() {
        let mut g = ContentionGuard::flat(1.0);
        g.observe(
            &GuardQuery {
                prefill_new: 2048,
                prefill_reused: 2048,
                decode_batch: 8,
                decode_context: 2048,
                decode_sms: 16,
            },
            1.25,
        );
        // A totally different cell answers with the global max.
        let other = GuardQuery {
            prefill_new: 131_072,
            prefill_reused: 0,
            decode_batch: 128,
            decode_context: 131_072,
            decode_sms: 96,
        };
        assert_eq!(g.factor(&other), 1.25);
    }

    #[test]
    fn observe_keeps_cell_max() {
        let mut g = ContentionGuard::flat(1.0);
        let q = GuardQuery {
            prefill_new: 4000,
            prefill_reused: 4000,
            decode_batch: 32,
            decode_context: 4000,
            decode_sms: 32,
        };
        g.observe(&q, 1.1);
        g.observe(&q, 1.3);
        g.observe(&q, 1.05);
        assert_eq!(g.factor(&q), 1.3);
        // Sub-1.0 observations clamp to 1.0 and never lower a cell.
        g.observe(&q, 0.5);
        assert_eq!(g.factor(&q), 1.3);
    }

    #[test]
    fn guard_covers_ground_truth_on_fresh_samples() {
        // The whole point: predicted worst case ≥ actual co-run latency
        // for configurations *near* profiled cells.
        let (model, cluster, par, g) = guard();
        let mut rng = simcore::SimRng::seed_from(7);
        for _ in 0..40 {
            let q = GuardQuery {
                prefill_new: 2048 + rng.next_range(60_000),
                prefill_reused: rng.next_range(60_000),
                decode_batch: 1 + rng.next_range(128) as usize,
                decode_context: 2048 + rng.next_range(100_000),
                decode_sms: *rng.choose(&[16u32, 48, 96]).unwrap(),
            };
            let actual = measure_decode_corun_slowdown(
                &model,
                &cluster,
                &par,
                &q,
                cluster.gpu.sm_count - q.decode_sms,
            );
            let bound = g.factor(&q);
            assert!(
                bound >= actual - 0.05,
                "guard {bound} under-covers actual {actual} for {q:?}"
            );
        }
    }

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(token_bucket(0), 0);
        assert_eq!(token_bucket(2_047), 0);
        assert_eq!(token_bucket(2_048), 1);
        assert_eq!(token_bucket(8_192), 2);
        assert_eq!(token_bucket(32_768), 3);
        assert_eq!(token_bucket(200_000), 4);
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(32), 5);
    }

    #[test]
    fn clones_share_the_profile_and_refine_alone() {
        let (_, _, _, profiled) = guard();
        let (mut a, b) = (profiled.clone(), profiled.clone());
        let shared = |g: &ContentionGuard| g.profile.clone().expect("profiled");
        assert!(Arc::ptr_eq(&shared(&a), &shared(&b)), "clones copy no grid");
        let cell = GuardQuery {
            prefill_new: 2048,
            prefill_reused: 2048,
            decode_batch: 8,
            decode_context: 2048,
            decode_sms: 16,
        };
        let fresh = GuardQuery {
            decode_sms: 17,
            ..cell
        };
        let before = profiled.factor(&cell);
        a.observe(&cell, before + 0.5);
        a.observe(&fresh, 1.01);
        assert_eq!(a.factor(&cell), before + 0.5);
        assert_eq!(a.factor(&fresh), 1.01);
        assert_eq!(a.num_cells(), profiled.num_cells() + 1);
        assert_eq!(a.refined.len(), 2, "only raised or new cells are copied");
        // Equality reads the merged view, however its cells are split.
        assert_eq!(a, ContentionGuard::from_cells(a.export_cells()));
        assert_ne!(a, b);
        assert_eq!(b, profiled);
        assert_eq!(b.export_cells(), profiled.export_cells());
        assert_eq!(b.max_slowdown(), profiled.max_slowdown());
        a.invalidate();
        assert_eq!(a.num_cells(), 0);
        assert_eq!(a.factor(&cell), before + 0.5, "the global max survives");
        assert_eq!(b, profiled);
        for (k, s) in profiled.export_cells() {
            assert_eq!(b.cell(&k), Some(s));
        }
    }

    /// The single-map guard that sharing replaced, kept as the reference
    /// a clone of a shared profile must answer like.
    #[derive(Debug, Clone)]
    struct Reference {
        cells: HashMap<CellKey, f64>,
        global_max: f64,
    }

    impl Reference {
        fn observe(&mut self, q: &GuardQuery, slowdown: f64) {
            let s = slowdown.max(1.0);
            let cell = self.cells.entry(ContentionGuard::key(q)).or_insert(1.0);
            *cell = cell.max(s);
            self.global_max = self.global_max.max(s);
        }

        fn factor(&self, q: &GuardQuery) -> f64 {
            let key = ContentionGuard::key(q);
            self.cells.get(&key).copied().unwrap_or(self.global_max)
        }

        fn export(&self) -> Vec<GuardCell> {
            let mut v: Vec<_> = self.cells.iter().map(|(&k, &s)| (k, s)).collect();
            v.sort_by_key(|a| a.0);
            v
        }
    }

    fn small_query() -> impl Strategy<Value = GuardQuery> {
        // Two buckets per dimension, so observations often meet a cell.
        (0u64..4_000, 0u64..4_000, 1usize..3, 0u64..4_000, 1u32..3).prop_map(
            |(pn, pr, bs, dc, sms)| GuardQuery {
                prefill_new: pn,
                prefill_reused: pr,
                decode_batch: bs,
                decode_context: dc,
                decode_sms: 16 * sms,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A clone refining and invalidating its view of a shared
        /// profile answers every query, its cell count, its export and
        /// its global max exactly as a private single-map guard would,
        /// while the guard it was cloned from keeps the profile intact.
        #[test]
        fn a_shared_profile_answers_like_a_private_grid(
            profile in prop::collection::vec((small_query(), 0.5f64..1.6), 0..30),
            ops in prop::collection::vec((small_query(), 0.5f64..1.8, 0u8..16), 0..60),
        ) {
            let mut reference = Reference { cells: HashMap::new(), global_max: 1.0 };
            for (q, s) in &profile {
                reference.observe(q, *s);
            }
            let original = ContentionGuard::from_cells(reference.export());
            let mut clone = original.clone();
            let untouched = reference.clone();
            let mut seen: Vec<GuardQuery> = profile.iter().map(|(q, _)| *q).collect();
            for (q, s, kind) in ops {
                if kind == 0 {
                    clone.invalidate();
                    reference.cells.clear();
                } else {
                    clone.observe(&q, s);
                    reference.observe(&q, s);
                    seen.push(q);
                }
                prop_assert_eq!(clone.num_cells(), reference.cells.len());
                prop_assert_eq!(clone.max_slowdown(), reference.global_max);
            }
            for q in &seen {
                prop_assert_eq!(clone.factor(q).to_bits(), reference.factor(q).to_bits());
                prop_assert_eq!(original.factor(q).to_bits(), untouched.factor(q).to_bits());
            }
            prop_assert_eq!(clone.export_cells(), reference.export());
            prop_assert_eq!(original.export_cells(), untouched.export());
        }
    }
}
