//! Heap allocations of lowering, counted per thread by a wrapping global
//! allocator so tests running in parallel cannot pollute each other. In
//! its own test binary because the allocator is process-wide.

use codar_qasm::{parse, parse_and_flatten, semantic::flatten};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The include is free: lowering the library text made this program
/// cost 975 allocations, against 53 without it. The bound is twice 53.
#[test]
fn include_program_stays_cheap() {
    let src = "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[3]; \
               h q[0]; cx q[0],q[1]; cx q[1],q[2];";
    let (n, flat) = allocations(|| parse_and_flatten(src));
    assert_eq!(flat.unwrap().ops.len(), 3);
    assert!(n <= 2 * 53, "{n} allocations");
}

/// A program calling `calls` times a user gate whose body is
/// `rz(e) a; cx a,b;`, where `e` is an expression of `depth` operators.
fn composite_program(depth: usize, calls: usize) -> String {
    let mut expr = String::from("t");
    for i in 0..depth {
        expr = format!("({expr} + {i}) * 0.5");
    }
    let mut src = format!(
        "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[2]; \
         gate g(t) a,b {{ rz({expr}) a; cx a,b; }}\n"
    );
    for i in 0..calls {
        src.push_str(&format!("g({i}) q[0],q[1];\n"));
    }
    src
}

/// Allocations per expansion of the composite gate, from lowering
/// (parsing excluded) 101 calls against 1.
fn per_call(depth: usize) -> u64 {
    let lower = |calls| {
        let program = parse(&composite_program(depth, calls)).unwrap();
        let (n, flat) = allocations(|| flatten(&program));
        assert_eq!(flat.unwrap().ops.len(), 2 * calls);
        n
    };
    (lower(101) - lower(1)) / 100
}

/// Expanding a gate borrows its definition: the cost of a call does not
/// grow with the size of the body's syntax tree.
#[test]
fn composite_expansion_cost_is_independent_of_body_size() {
    let small = per_call(1);
    let large = per_call(200);
    assert_eq!(small, large);
    assert!(small <= 12, "{small} allocations per call");
}
