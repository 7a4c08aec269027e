//! A producer/consumer message queue exercising the §9 extension
//! (lock/unlock and wait/notify constraints) and the remaining
//! checkers: a cross-thread NULL-pointer publication and an
//! information leak of secret data through shared memory.
//!
//! ```sh
//! cargo run --example message_queue
//! ```

use canary::{Canary, CanaryConfig};
use canary_detect::BugKind;

/// The consumer dereferences whatever sits in the slot; the producer's
/// shutdown path publishes NULL to wake it — a classic inter-thread
/// null-dereference.
const NULL_SHUTDOWN: &str = r#"
    fn main() {
        q = alloc queue_slot;
        first = alloc msg0;
        *q = first;
        fork consumer consume(q);
        // ... later, shutdown publishes a NULL sentinel:
        if (shutting_down) {
            sentinel = null;
            *q = sentinel;
        }
    }
    fn consume(slot) {
        m = *slot;
        use m;                          // boom when m is the sentinel
    }
"#;

/// Secret data placed in the shared queue and drained to a public sink
/// by a logger thread (the DTAM-style leak of §1).
const TAINT_LEAK: &str = r#"
    fn main() {
        q = alloc queue_slot;
        secret = taint;                  // e.g. a key read into memory
        *q = secret;
        fork logger log_worker(q);
    }
    fn log_worker(slot) {
        m = *slot;
        sink m;                          // written to the public log
    }
"#;

/// A lock-protected handoff where the protection is real: the producer
/// only frees the message *after* the consumer notifies completion, so
/// the wait/notify order refutes the UAF.
const HANDSHAKE_OK: &str = r#"
    fn main() {
        q = alloc queue_slot;
        cv = alloc done_cv;
        m = alloc msg;
        *q = m;
        fork consumer consume2(q, cv);
        wait cv;                         // blocks until the consumer is done
        free m;                          // safe: use happened before notify
    }
    fn consume2(slot, cv2) {
        x = *slot;
        use x;
        notify cv2;
    }
"#;

fn main() {
    let canary = Canary::with_config(CanaryConfig {
        checkers: vec![BugKind::NullDeref, BugKind::DataLeak, BugKind::UseAfterFree],
        ..CanaryConfig::default()
    });

    println!("== NULL shutdown sentinel ==");
    let prog = canary::ir::parse(NULL_SHUTDOWN).expect("example parses");
    let outcome = canary.analyze(&prog);
    assert!(outcome
        .reports
        .iter()
        .any(|r| r.kind == BugKind::NullDeref && r.inter_thread));
    println!("{}\n", outcome.render(&prog));

    println!("== secret leaked through the queue ==");
    let prog = canary::ir::parse(TAINT_LEAK).expect("example parses");
    let outcome = canary.analyze(&prog);
    assert!(outcome.reports.iter().any(|r| r.kind == BugKind::DataLeak));
    println!("{}\n", outcome.render(&prog));

    println!("== wait/notify-protected free (no report) ==");
    let prog = canary::ir::parse(HANDSHAKE_OK).expect("example parses");
    let outcome = canary.analyze(&prog);
    assert!(
        outcome
            .reports
            .iter()
            .all(|r| r.kind != BugKind::UseAfterFree),
        "the notify→wait order proves the free safe: {:?}",
        outcome.reports
    );
    println!("  no use-after-free: notify(cv) must precede wait(cv), so the");
    println!("  consumer's dereference is ordered before the producer's free.");
}
