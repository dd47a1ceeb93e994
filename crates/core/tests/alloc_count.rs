//! Heap allocations made by profiling and by building an engine. The
//! offline profile is made once per model and machine: every engine
//! built from one `Estimators` shares its contention grid and its fitted
//! predictor instead of copying them, and the profile itself builds its
//! grid once and fits it without per-row allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use estimator::SoloPredictor;
use gpusim::ClusterSpec;
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use serving::SloSpec;

/// Counts allocations made on the current thread, and the largest of
/// them, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(layout: Layout) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|m| m.set(m.get().max(layout.size())));
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments; the thread-local counters are `const`-initialised `Cell`s
// without destructors, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Layout::from_size_align(new_size, layout.align()).expect("valid layout"));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`, and the size of the largest, in bytes.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = ALLOCS.with(Cell::get);
    LARGEST.with(|m| m.set(0));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
    )
}

#[test]
fn engines_built_from_one_profile_share_its_grid() {
    let model = ModelSpec::llama8b();
    let cluster = ClusterSpec::dgx_a100();
    let est = Estimators::profile(&model, &cluster, 8);
    let build = || {
        MuxWise::new(
            &model,
            &cluster,
            8,
            SloSpec::llama8b(),
            est.clone(),
            MuxWiseConfig::default(),
        )
    };
    let _first = build();

    let (_, made, _) = allocations(|| est.guard.clone());
    assert_eq!(made, 0, "cloning the guard allocated {made} times");
    let (_, made, _) = allocations(|| est.predictor.clone());
    assert_eq!(made, 0, "cloning the predictor allocated {made} times");

    // Any table holding the grid stores at least a key and a factor,
    // 16 bytes, per cell.
    let grid_bytes = est.guard.num_cells() * 16;
    let (second, _, largest) = allocations(build);
    assert!(
        largest < grid_bytes,
        "building a second engine made a {largest}-byte allocation; \
         the grid's {} cells take at least {grid_bytes}",
        est.guard.num_cells()
    );
    assert_eq!(second.guard_cells(), est.guard.num_cells());
}

#[test]
fn profiling_builds_its_grid_once_and_fits_in_place() {
    let model = ModelSpec::llama70b();
    let cluster = ClusterSpec::dgx_a100();
    let par = Parallelism::tp(8, cluster.nvlink_gbs);
    // The partitions `Estimators::profile` fits: every decode
    // configuration, its prefill complement, and the whole GPU.
    let configs = cluster.gpu.partition_configs();
    let mut partitions = configs.clone();
    partitions.extend(configs.iter().map(|&sms| cluster.gpu.sm_count - sms));
    partitions.push(cluster.gpu.sm_count);
    partitions.sort_unstable();
    partitions.dedup();
    assert_eq!(partitions.len(), 13);

    let profile = |parts: &[u32]| SoloPredictor::profile(&model, &cluster, &par, parts);
    let (_, one, _) = allocations(|| profile(&partitions[..1]));
    let (all, made, _) = allocations(|| profile(&partitions));
    assert_eq!(all.partitions(), partitions);
    assert!(
        made <= 1_000,
        "profiling {} partitions allocated {made} times",
        partitions.len()
    );
    let per_partition = (made - one) / (partitions.len() - 1);
    assert!(
        per_partition <= 20,
        "each partition past the first allocated {per_partition} times ({one} for one, {made} for all)"
    );
}
