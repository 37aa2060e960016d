//! Host work of a simulated solve, pinned as heap-allocation counts.
//!
//! Allocations per solve are deterministic, unlike wall-clock on a shared
//! machine, so they are the primary evidence of how much host work the
//! engine does. A counting global allocator counts `alloc` and `realloc`
//! calls made on the calling thread only, so allocations by the test
//! harness's other threads do not pollute a count.
//!
//! The grid is three engine paths × both spin models × {a cold
//! `solve_simulated`, the second warm `SolverSession::solve`}:
//!
//! * Writing-First on `random_k`: spin-heavy thread-level kernel;
//! * SyncFree on the same matrix: the warp-level baseline;
//! * Level-Set on `layered`: many tiny launches per solve.
//!
//! A change to engine host work may change this table on purpose; it must
//! then list the cells that moved, before and after.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use capellini_sptrsv::core::{solve_simulated, Algorithm, SolverSession};
use capellini_sptrsv::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting only bumps a thread-local `Cell` with a
// `const` initializer and no destructor, so it never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; the caller's guarantees on `new_size`
        // pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `f` runs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations per `(case, spin model, path)`.
const EXPECTED: &[(&str, &str, &str, u64)] = &[
    ("writing_first/random_k", "FastForward", "cold", 3116),
    ("writing_first/random_k", "FastForward", "warm", 483),
    ("writing_first/random_k", "Replay", "cold", 808),
    ("writing_first/random_k", "Replay", "warm", 203),
    ("syncfree/random_k", "FastForward", "cold", 2723),
    ("syncfree/random_k", "FastForward", "warm", 341),
    ("syncfree/random_k", "Replay", "cold", 1331),
    ("syncfree/random_k", "Replay", "warm", 327),
    ("levelset/layered", "FastForward", "cold", 234),
    ("levelset/layered", "FastForward", "warm", 130),
    ("levelset/layered", "Replay", "cold", 230),
    ("levelset/layered", "Replay", "warm", 130),
];

#[test]
fn allocations_per_solve_match_the_table() {
    let cases = [
        (
            "writing_first/random_k",
            Algorithm::CapelliniWritingFirst,
            gen::random_k(6000, 4, 6000, 7),
        ),
        (
            "syncfree/random_k",
            Algorithm::SyncFree,
            gen::random_k(6000, 4, 6000, 7),
        ),
        (
            "levelset/layered",
            Algorithm::LevelSet,
            gen::layered(4000, 40, 3, 11),
        ),
    ];
    let mut actual = Vec::new();
    for (case, algo, l) in &cases {
        let b = vec![1.0; l.n()];
        for (spin_name, spin) in [
            ("FastForward", SpinModel::FastForward),
            ("Replay", SpinModel::Replay),
        ] {
            let cfg = DeviceConfig::pascal_like()
                .scaled_down(4)
                .with_spin_model(spin);
            let (cold, rep) = allocs_in(|| solve_simulated(&cfg, l, &b, *algo));
            let x = rep.expect("cold solve succeeds").x;
            let mut session = SolverSession::with_algorithm(&cfg, l.clone(), *algo);
            session.solve(&b).expect("first session solve succeeds");
            let (warm, rep) = allocs_in(|| session.solve(&b));
            assert_eq!(rep.expect("warm solve succeeds").x, x, "{case} {spin_name}");
            actual.push((*case, spin_name, "cold", cold));
            actual.push((*case, spin_name, "warm", warm));
        }
    }
    let table: String = actual
        .iter()
        .map(|(c, s, p, n)| format!("    (\"{c}\", \"{s}\", \"{p}\", {n}),\n"))
        .collect();
    assert!(
        actual.iter().copied().eq(EXPECTED.iter().copied()),
        "allocation counts moved; the actual table is:\n{table}"
    );
}
