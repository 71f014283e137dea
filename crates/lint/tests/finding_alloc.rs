//! A lint finding allocates nothing of its own: the allocations of a run
//! do not grow with the number of findings that own no text and name no
//! related gates.
//!
//! The counting allocator sees the whole process, so this file holds one
//! test, and that test compares two runs that differ only in thresholds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dft_lint::{Diagnostic, LintConfig, LintReport, Registry, SeverityOverrides};
use dft_netlist::circuits::layered_random;

/// Counts allocations (a `realloc` counts through the default
/// implementation's `alloc`), then defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`,
// so every guarantee `System` gives holds for this allocator too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `lint`, returning its report and the allocations it made.
fn counted(lint: impl FnOnce() -> LintReport) -> (LintReport, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = lint();
    (report, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn findings_do_not_allocate() {
    assert!(
        std::mem::size_of::<Diagnostic>() <= 72,
        "a finding takes {} bytes",
        std::mem::size_of::<Diagnostic>()
    );

    // The rule subset the 10⁵-gate lint runs use: the linear rules.
    let overrides = SeverityOverrides::parse(include_str!("../../../.github/scale-lint.toml"))
        .expect("the scale rule config parses");
    let mut registry = Registry::with_default_rules();
    for rule in overrides.disabled() {
        registry.disable(rule);
    }
    let netlist = layered_random(64, 5000, 42);
    // Thresholds that silence deep-logic, hard-to-control and
    // hard-to-observe, whose findings carry neither text nor related gates.
    let silent = LintConfig {
        max_depth: u32::MAX,
        controllability_limit: u32::MAX,
        observability_limit: u32::MAX,
        ..LintConfig::default()
    };

    // Warm-up: the netlist's topology memo is built on first use.
    let _ = registry.run_with(&netlist, LintConfig::default());
    let (loud, loud_allocations) = counted(|| registry.run_with(&netlist, LintConfig::default()));
    let (quiet, quiet_allocations) = counted(|| registry.run_with(&netlist, silent));

    let extra_findings = loud.diagnostics().len() - quiet.diagnostics().len();
    assert!(
        extra_findings > 4000,
        "the thresholds must move thousands of findings, moved {extra_findings}"
    );
    assert!(
        loud_allocations.abs_diff(quiet_allocations) < 32,
        "{extra_findings} more findings cost {loud_allocations} allocations against \
         {quiet_allocations}"
    );
}
