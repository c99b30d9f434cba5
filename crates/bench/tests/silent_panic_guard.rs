//! `SilentPanicGuard` silences the panic hook and restores it on drop.
//!
//! The panic hook is process-wide, so this test counts hook calls in a
//! test binary of its own: in the library's test binary the claims
//! test runs E14 under guards of its own, in parallel, and could both
//! fire the marker hook and restore it out of order.

use craft_bench::SilentPanicGuard;
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn silent_panic_guard_silences_then_restores_the_hook() {
    // A marker hook stands in for "whatever hook was installed before
    // the campaign": invocations prove it is active.
    let fired = Arc::new(AtomicUsize::new(0));
    let marker = Arc::clone(&fired);
    let orig = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| {
        marker.fetch_add(1, Ordering::SeqCst);
    }));

    {
        let _quiet = SilentPanicGuard::new();
        let _ = catch_unwind(|| panic!("expected fail-stop"));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "marker hook must be silenced inside the guard"
        );
    }
    let _ = catch_unwind(|| panic!("after the guard"));
    assert_eq!(
        fired.load(Ordering::SeqCst),
        1,
        "drop must restore the previous hook"
    );
    std::panic::set_hook(orig);
}
