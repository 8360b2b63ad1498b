//! Heap allocations of SABRE's reverse-traversal placement, counted per
//! thread by a wrapping global allocator so tests running in parallel
//! cannot pollute each other. In its own test binary because the
//! allocator is process-wide.
//!
//! The placement passes emit no circuit and walk one DAG both ways, so
//! with a warm scratch their allocations (the DAG's arrays, the front
//! tracker's, the mappings) do not grow with the gate count. Emitting
//! and reversing cost about 8 allocations per input gate.

use codar_arch::Device;
use codar_benchmarks::generators;
use codar_circuit::Circuit;
use codar_router::sabre::reverse_traversal_mapping;
use codar_router::RouterScratch;
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

/// `circuit` played `times` times in a row.
fn repeated(circuit: &Circuit, times: usize) -> Circuit {
    let mut out = Circuit::with_bits(circuit.num_qubits(), circuit.num_bits());
    for _ in 0..times {
        for gate in circuit.gates() {
            out.push(gate.clone());
        }
    }
    out
}

/// Placing a circuit four times as long costs at most a few more
/// allocations, not a few per added gate.
#[test]
fn placement_allocations_do_not_grow_with_gate_count() {
    let once = generators::random_clifford_t(12, 400, 4);
    let four = repeated(&once, 4);
    for device in [Device::ibm_q20_tokyo(), Device::google_sycamore54()] {
        let mut scratch = RouterScratch::new();
        // Warm the scratch on both circuits first.
        for circuit in [&four, &once] {
            reverse_traversal_mapping(circuit, &device, 7, &mut scratch);
        }
        let (short, _) = allocations(|| reverse_traversal_mapping(&once, &device, 7, &mut scratch));
        let (long, _) = allocations(|| reverse_traversal_mapping(&four, &device, 7, &mut scratch));
        let added = long.saturating_sub(short);
        assert!(
            added <= 8,
            "{}: {short} allocations for {} gates, {long} for {}",
            device.name(),
            once.len(),
            four.len()
        );
    }
}
