//! Programs are plain serde data structures: a serialize/deserialize
//! round trip must be the identity, so analyses can be cached and
//! workloads shipped as JSON.

use canary_ir::{parse, Program};

fn roundtrip(prog: &Program) -> Program {
    let json = serde_json::to_string(prog).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn simple_program_roundtrips() {
    let prog = parse("fn main() { p = alloc o; free p; use p; }").unwrap();
    assert_eq!(roundtrip(&prog), prog);
}

#[test]
fn concurrent_program_roundtrips() {
    let prog = parse(
        r#"
        fn main(a) {
            x = alloc o1;
            *x = a;
            fork t thread1(x);
            if (theta1) { c = *x; use c; }
            join t;
        }
        fn thread1(y) {
            b = alloc o2;
            if (!theta1) { *y = b; free b; }
            return;
        }
        "#,
    )
    .unwrap();
    let back = roundtrip(&prog);
    assert_eq!(back, prog);
    back.validate().unwrap();
}

#[test]
fn all_statement_kinds_roundtrip() {
    let prog = parse(
        r#"
        fn main() {
            m = alloc mu;
            fp = fnptr aux;
            lock m; unlock m; wait m; notify m;
            s = taint; sink s;
            n = null;
            a = alloc o1; b = a;
            c = a + b; d = !c; e = a == b; g = -d; h = a > b;
            r = call aux();
            while (w) { skip; }
            use a;
            free a;
            return r;
        }
        fn aux() { q = alloc oq; return q; }
        "#,
    )
    .unwrap();
    assert_eq!(roundtrip(&prog), prog);
}

#[test]
fn generated_workload_roundtrips() {
    // Roundtrip stability over a nontrivial generated program.
    let prog = parse("fn main() { p = alloc o; fork t w(p); free p; } fn w(q) { use q; }").unwrap();
    let json1 = serde_json::to_string(&prog).unwrap();
    let back: Program = serde_json::from_str(&json1).unwrap();
    let json2 = serde_json::to_string(&back).unwrap();
    assert_eq!(json1, json2, "serialization is stable");
}
