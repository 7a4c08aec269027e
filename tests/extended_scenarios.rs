//! Extended end-to-end scenarios: multi-hop flows, nested threads,
//! loops, call chains and mixed synchronization — the shapes §7.3
//! attributes to the real bugs ("control-flow paths span several
//! functions and compilation units", "triggered only in rare thread
//! schedules").

use canary::{Canary, CanaryConfig};
use canary_detect::BugKind;

fn uaf(src: &str) -> usize {
    kind(src, BugKind::UseAfterFree)
}

fn kind(src: &str, k: BugKind) -> usize {
    Canary::with_config(CanaryConfig {
        checkers: vec![k],
        ..CanaryConfig::default()
    })
    .analyze_source(src)
    .expect("test program parses")
    .reports
    .len()
}

#[test]
fn value_laundered_through_three_functions() {
    // The freed pointer crosses three call frames before the racy use.
    let src = "
        fn wrap1(p) { q = p; return q; }
        fn wrap2(p) { q = call wrap1(p); return q; }
        fn main() {
            v = alloc o;
            w = call wrap2(v);
            fork t consumer(w);
            free v;
        }
        fn consumer(x) { use x; }";
    assert_eq!(uaf(src), 1);
}

#[test]
fn grandchild_thread_use_is_racy() {
    // main forks A, A forks B, B uses; main frees concurrently.
    let src = "
        fn main() {
            v = alloc o;
            fork a level1(v);
            free v;
        }
        fn level1(p) { fork b level2(p); }
        fn level2(q) { use q; }";
    assert_eq!(uaf(src), 1);
}

#[test]
fn grandchild_protected_by_transitive_joins() {
    let src = "
        fn main() {
            v = alloc o;
            fork a level1(v);
            join a;
            free v;
        }
        fn level1(p) { fork b level2(p); join b; }
        fn level2(q) { use q; }";
    assert_eq!(uaf(src), 0, "join chain orders the grandchild's use first");
}

#[test]
fn grandchild_unjoined_inner_thread_still_races() {
    // The outer join does not help if the inner thread is never joined.
    let src = "
        fn main() {
            v = alloc o;
            fork a level1(v);
            join a;
            free v;
        }
        fn level1(p) { fork b level2(p); }
        fn level2(q) { use q; }";
    assert_eq!(uaf(src), 1, "inner thread outlives the joined outer one");
}

#[test]
fn loop_carried_pointer_is_checked_in_each_unrolling() {
    let src = "
        fn main() {
            v = alloc o;
            fork t w(v);
            while (more) {
                free v;
            }
        }
        fn w(q) { use q; }";
    // One report (deduped by source/sink pairs over the unrolled frees —
    // each unrolled free is a distinct label, so up to two).
    let n = uaf(src);
    assert!((1..=2).contains(&n), "{n}");
}

#[test]
fn double_free_between_two_children() {
    let src = "
        fn main() {
            v = alloc o;
            fork a f1(v);
            fork b f2(v);
        }
        fn f1(p) { free p; }
        fn f2(q) { free q; }";
    assert_eq!(kind(src, BugKind::DoubleFree), 1);
}

#[test]
fn double_free_serialized_by_flag_handshake_still_double() {
    // Even perfectly ordered, two frees of one object are a double-free.
    let src = "
        fn main() {
            v = alloc o;
            fork a f1(v);
            join a;
            free v;
        }
        fn f1(p) { free p; }";
    assert_eq!(kind(src, BugKind::DoubleFree), 1);
}

#[test]
fn taint_laundered_through_two_cells_and_a_thread() {
    let src = "
        fn main() {
            c1 = alloc cell1;
            c2 = alloc cell2;
            s = taint;
            *c1 = s;
            fork t mover(c1, c2);
            join t;
            out = *c2;
            sink out;
        }
        fn mover(a, b) { x = *a; *b = x; }";
    assert_eq!(kind(src, BugKind::DataLeak), 1);
}

#[test]
fn sanitizing_overwrite_between_cells_blocks_the_leak() {
    let src = "
        fn main() {
            c1 = alloc cell1;
            c2 = alloc cell2;
            s = taint;
            *c1 = s;
            fork t mover(c1, c2);
            join t;
            clean = alloc pub_obj;
            *c2 = clean;
            out = *c2;
            sink out;
        }
        fn mover(a, b) { x = *a; *b = x; }";
    assert_eq!(
        kind(src, BugKind::DataLeak),
        0,
        "strong update sanitizes c2"
    );
}

#[test]
fn null_published_by_one_of_three_writers() {
    let src = "
        fn main() {
            q = alloc slot;
            m = alloc msg;
            *q = m;
            fork w1 writer_ok(q);
            fork w2 writer_ok2(q);
            fork w3 writer_null(q);
            x = *q;
            use x;
        }
        fn writer_ok(s) { v = alloc good1; *s = v; }
        fn writer_ok2(s) { v = alloc good2; *s = v; }
        fn writer_null(s) { n = null; *s = n; }";
    assert_eq!(kind(src, BugKind::NullDeref), 1);
}

#[test]
fn producer_consumer_ring_with_locks_reports_only_the_real_race() {
    // The enqueue/dequeue sections are lock-protected (mutual exclusion
    // does not refute a free/use race by itself), but the shutdown free
    // is join-protected and must stay silent.
    let src = "
        fn main() {
            mu = alloc lock_obj;
            ring = alloc ring_cell;
            item = alloc item_obj;
            *ring = item;
            fork c consumer(ring, mu);
            lock mu;
            stale = *ring;
            unlock mu;
            free stale;
            join c;
            done = alloc done_obj;
            free done;
        }
        fn consumer(r, m) {
            lock m;
            x = *r;
            unlock m;
            use x;
        }";
    assert_eq!(
        uaf(src),
        1,
        "the mid-run free races; the shutdown free is private"
    );
}

#[test]
fn reader_behind_function_pointer_is_found() {
    let src = "
        fn main() {
            v = alloc o;
            handler = fnptr reader;
            fork t handler(v);
            free v;
        }
        fn reader(q) { use q; }";
    assert_eq!(uaf(src), 1, "fork through a fnptr resolves via Steensgaard");
}

#[test]
fn fork_target_four_fnptr_hops_away_resolves() {
    // Each indirect call binds the next function pointer only on the
    // pass after the previous call resolved, so the fork's pointer
    // gains its target on the fourth pass of the unification analysis:
    // three fixed passes leave the fork target empty.
    let src = "
        fn s4(p4, x4) { fork t p4(x4); }
        fn s3(p3, q3, x3) { call p3(q3, x3); }
        fn s2(p2, q2, r2, x2) { call p2(q2, r2, x2); }
        fn s1(p1, q1, r1, u1, x1) { call p1(q1, r1, u1, x1); }
        fn main() { v = alloc o; a = fnptr s1; b = fnptr s2; c = fnptr s3; d = fnptr s4; w = fnptr reader; call a(b, c, d, w, v); free v; }
        fn reader(q) { use q; }";
    assert_eq!(uaf(src), 1, "Steensgaard runs to a fixpoint");
}

#[test]
fn two_candidate_handlers_both_checked() {
    let src = "
        fn main() {
            v = alloc o;
            slot = alloc fp_cell;
            h1 = fnptr safe_handler;
            h2 = fnptr racy_handler;
            if (mode) { *slot = h1; } else { *slot = h2; }
            h = *slot;
            fork t h(v);
            free v;
        }
        fn safe_handler(q) { q2 = q; }
        fn racy_handler(q) { use q; }";
    assert_eq!(
        uaf(src),
        1,
        "only the dereferencing handler yields a report"
    );
}
