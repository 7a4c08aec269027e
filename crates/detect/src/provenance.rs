//! Report provenance: the evidence DAG behind one finding.
//!
//! A Canary report is a claim — "this source reaches this sink under a
//! satisfiable `Φ_all`" — and this module records the *evidence* for
//! the claim: the concrete value-flow edges walked (with the
//! `Φ_alias`/`Φ_ls` guard conjunct each contributed), the escape facts
//! (`EspObj`/`Pted` entries, Defn. 1) that licensed each interference
//! edge, the MHP facts consulted for each cross-thread pair, and the
//! slice of the satisfying SMT model (branch valuation + committed
//! order atoms + completed schedule). The DAG exports to JSON (for the
//! `--json`/SARIF pipelines) and to Graphviz DOT (for human triage).

use std::fmt;

use canary_ir::{CondId, Label};
use canary_vfg::EdgeKind;
use serde_json::{json, Value};

/// One node of the provenance DAG: a VFG node on the witness path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvNode {
    /// Dense index into [`Provenance::nodes`]; edge endpoints refer to
    /// these indices.
    pub id: usize,
    /// The statement the node is anchored at.
    pub label: Label,
    /// The `v@ℓ` / `o@ℓ` rendering of the VFG node.
    pub render: String,
    /// The abstract object's name when the node is an object node
    /// (the anchor of a UAF/double-free search), else `None`.
    pub object: Option<String>,
}

/// One edge of the provenance DAG: a traversed VFG edge plus the facts
/// that justified it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvEdge {
    /// Source node index.
    pub from: usize,
    /// Target node index.
    pub to: usize,
    /// The VFG edge kind (direct / data-dependence / interference).
    pub kind: EdgeKind,
    /// The rendered guard conjunct the edge contributed to `Φ_all`
    /// (for interference edges this is the `Φ_alias ∧ Φ_ls` conjunct
    /// of Eq. 4).
    pub guard: String,
    /// The escape fact that licensed the edge: the escaped object
    /// whose `Pted` entry produced the store/load pair. `None` for
    /// edges of the sequential VFG (Alg. 1), which need no license.
    pub escape: Option<EscapeFact>,
}

/// An `EspObj`/`Pted` entry (Defn. 1): the escaped object that let an
/// interference edge cross threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EscapeFact {
    /// Source-level name of the object.
    pub obj: String,
    /// The `alloc` statement creating it, when known.
    pub alloc_site: Option<Label>,
}

/// One MHP consultation: the store/load pair of a licensed edge and
/// what the thread-structure analysis said about it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MhpFact {
    /// The interfering store.
    pub store: Label,
    /// The interfered load.
    pub load: Label,
    /// Whether the pair may happen in parallel (distinct, unordered
    /// threads).
    pub parallel: bool,
    /// The order graph's program-order verdict: `Some(true)` when the
    /// store must precede the load, `Some(false)` for the converse,
    /// `None` when unordered.
    pub ordered: Option<bool>,
}

/// The slice of the satisfying SMT model that witnesses the finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSlice {
    /// Branch-atom valuation, sorted by condition.
    pub guards: Vec<(CondId, bool)>,
    /// The oriented order atoms `(a, b)` (meaning `O_a < O_b`) the
    /// model committed to, sorted.
    pub order: Vec<(Label, Label)>,
    /// The completed replayable schedule prefix.
    pub schedule: Vec<Label>,
}

/// The full evidence DAG for one [`BugReport`](crate::BugReport).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Path nodes, source first, sink last.
    pub nodes: Vec<ProvNode>,
    /// Path edges, in traversal order.
    pub edges: Vec<ProvEdge>,
    /// MHP facts consulted for the licensed (cross-thread) edges.
    pub mhp: Vec<MhpFact>,
    /// The satisfying model slice; `None` until SMT validation
    /// confirms the candidate.
    pub model: Option<ModelSlice>,
}

/// The stable display name of a VFG edge kind (used in JSON, DOT and
/// SARIF output — changing these strings changes the schema).
pub fn edge_kind_name(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::Direct => "direct",
        EdgeKind::DataDep => "data-dep",
        EdgeKind::Interference => "interference",
    }
}

impl Provenance {
    /// Serializes the DAG to the JSON shape documented in
    /// `docs/report_schema.md`.
    pub fn to_json(&self) -> Value {
        let nodes: Vec<Value> = self
            .nodes
            .iter()
            .map(|n| {
                json!({
                    "id": n.id,
                    "label": n.label.to_string(),
                    "render": n.render,
                    "object": n.object.clone().map(Value::String).unwrap_or(Value::Null),
                })
            })
            .collect();
        let edges: Vec<Value> = self
            .edges
            .iter()
            .map(|e| {
                json!({
                    "from": e.from,
                    "to": e.to,
                    "kind": edge_kind_name(e.kind),
                    "guard": e.guard,
                    "escape": e.escape.as_ref().map(|esc| json!({
                        "obj": esc.obj,
                        "alloc_site": esc.alloc_site
                            .map(|l| Value::String(l.to_string()))
                            .unwrap_or(Value::Null),
                    })).unwrap_or(Value::Null),
                })
            })
            .collect();
        let mhp: Vec<Value> = self
            .mhp
            .iter()
            .map(|m| {
                json!({
                    "store": m.store.to_string(),
                    "load": m.load.to_string(),
                    "parallel": m.parallel,
                    "ordered": m.ordered.map(Value::Bool).unwrap_or(Value::Null),
                })
            })
            .collect();
        let model = self
            .model
            .as_ref()
            .map(|m| {
                let guards: Vec<Value> = m
                    .guards
                    .iter()
                    .map(|&(c, v)| json!({"cond": c.to_string(), "value": v}))
                    .collect();
                let order: Vec<Value> = m
                    .order
                    .iter()
                    .map(|&(a, b)| json!([a.to_string(), b.to_string()]))
                    .collect();
                let schedule: Vec<Value> =
                    m.schedule.iter().map(|l| json!(l.to_string())).collect();
                json!({"guards": guards, "order": order, "schedule": schedule})
            })
            .unwrap_or(Value::Null);
        json!({
            "nodes": nodes,
            "edges": edges,
            "mhp": mhp,
            "model": model,
        })
    }

    /// Renders the DAG as a Graphviz digraph. Interference edges are
    /// dashed and annotated with their escape fact; the model slice
    /// (when present) becomes a caption node.
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str("digraph provenance {\n");
        out.push_str("  rankdir=LR;\n");
        out.push_str(&format!(
            "  label={};\n  node [shape=box, fontname=\"monospace\"];\n",
            dot_quote(title)
        ));
        for n in &self.nodes {
            let mut label = n.render.clone();
            if let Some(obj) = &n.object {
                label.push_str(&format!("\\n(object {obj})"));
            }
            out.push_str(&format!("  n{} [label={}];\n", n.id, dot_quote_pre(&label)));
        }
        for e in &self.edges {
            let mut label = edge_kind_name(e.kind).to_string();
            if e.guard != "true" {
                label.push_str(&format!("\\nguard: {}", e.guard));
            }
            if let Some(esc) = &e.escape {
                label.push_str(&format!("\\nvia escaped {}", esc.obj));
                if let Some(site) = esc.alloc_site {
                    label.push_str(&format!(" (alloc {site})"));
                }
            }
            let style = match e.kind {
                EdgeKind::Interference => ", style=dashed, color=red",
                EdgeKind::DataDep => ", style=dashed",
                EdgeKind::Direct => "",
            };
            out.push_str(&format!(
                "  n{} -> n{} [label={}{}];\n",
                e.from,
                e.to,
                dot_quote_pre(&label),
                style
            ));
        }
        if let Some(m) = &self.model {
            let sched: Vec<String> = m.schedule.iter().map(|l| l.to_string()).collect();
            let guards: Vec<String> = m.guards.iter().map(|&(c, v)| format!("{c}={v}")).collect();
            let label = format!(
                "model\\nschedule: {}\\nguards: {}",
                sched.join(" "),
                if guards.is_empty() {
                    "(none)".to_string()
                } else {
                    guards.join(" ")
                }
            );
            out.push_str(&format!(
                "  model [shape=note, label={}];\n",
                dot_quote_pre(&label)
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Quotes a string for DOT, escaping `"` and `\`.
fn dot_quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Like [`dot_quote`] but preserves pre-inserted `\n` line breaks.
fn dot_quote_pre(s: &str) -> String {
    // The input already contains literal `\n` sequences meant for DOT;
    // only escape quotes.
    format!("\"{}\"", s.replace('"', "\\\""))
}

/// A stable, content-addressed report identity (FNV-1a 64-bit over the
/// *semantic* shape of the finding, not its positions): bug kind,
/// source/sink statement text and enclosing function names, the
/// thread-scope flag, and the path shape with statement labels
/// stripped. Robust to label/line renumbering caused by unrelated
/// edits, which is what makes baseline diffing across commits work.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the 16-hex-digit rendering produced by `Display`.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental FNV-1a hasher over length-prefixed byte fields (the
/// length prefix keeps `["ab","c"]` and `["a","bc"]` distinct).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn field(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Strips the `@ℓ` position suffix from a rendered VFG node name
/// (`"x@l3"` → `"x"`), leaving non-positional renders untouched.
pub(crate) fn strip_position(render: &str) -> &str {
    match render.rfind('@') {
        Some(i) => {
            let suffix = &render[i + 1..];
            let is_label = suffix.len() > 1
                && suffix.starts_with('l')
                && suffix[1..].bytes().all(|b| b.is_ascii_digit());
            if is_label {
                &render[..i]
            } else {
                render
            }
        }
        None => render,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Provenance {
        Provenance {
            nodes: vec![
                ProvNode {
                    id: 0,
                    label: Label::new(1),
                    render: "o1@l0".into(),
                    object: Some("o1".into()),
                },
                ProvNode {
                    id: 1,
                    label: Label::new(4),
                    render: "c@l4".into(),
                    object: None,
                },
            ],
            edges: vec![ProvEdge {
                from: 0,
                to: 1,
                kind: EdgeKind::Interference,
                guard: "(and c0 !c1)".into(),
                escape: Some(EscapeFact {
                    obj: "o1".into(),
                    alloc_site: Some(Label::new(0)),
                }),
            }],
            mhp: vec![MhpFact {
                store: Label::new(2),
                load: Label::new(4),
                parallel: true,
                ordered: None,
            }],
            model: Some(ModelSlice {
                guards: vec![(CondId::new(0), true)],
                order: vec![(Label::new(2), Label::new(4))],
                schedule: vec![Label::new(0), Label::new(2), Label::new(4)],
            }),
        }
    }

    #[test]
    fn json_round_trips_structure() {
        let v = sample().to_json();
        let s = serde_json::to_string(&v).unwrap();
        assert!(s.contains("\"kind\":\"interference\""));
        assert!(s.contains("\"obj\":\"o1\""));
        assert!(s.contains("\"parallel\":true"));
        assert!(s.contains("\"schedule\":[\"l0\",\"l2\",\"l4\"]"));
    }

    #[test]
    fn dot_has_nodes_edges_and_model() {
        let dot = sample().to_dot("uaf l1 -> l4");
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("interference"));
        assert!(dot.contains("via escaped o1"));
        assert!(dot.contains("style=dashed, color=red"));
        assert!(dot.contains("shape=note"));
    }

    #[test]
    fn strip_position_only_strips_label_suffixes() {
        assert_eq!(strip_position("x@l3"), "x");
        assert_eq!(strip_position("o12@l345"), "o12");
        assert_eq!(strip_position("weird@name"), "weird@name");
        assert_eq!(strip_position("noat"), "noat");
        assert_eq!(strip_position("trailing@l"), "trailing@l");
    }

    #[test]
    fn fingerprint_display_parses_back() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef);
        assert_eq!(fp.to_string(), "0123456789abcdef");
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(Fingerprint::parse("123"), None);
    }

    #[test]
    fn fnv_length_prefix_separates_field_splits() {
        let mut a = Fnv::new();
        a.field("ab");
        a.field("c");
        let mut b = Fnv::new();
        b.field("a");
        b.field("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
