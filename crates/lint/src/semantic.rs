//! The interprocedural rules D008–D011, run over the [`WorkspaceModel`]
//! and its [`CallGraph`].
//!
//! | rule | invariant |
//! |------|-----------|
//! | D008 | RNG lineage: no two sibling streams derived from one parent share a label (across function boundaries), and no loop derives a loop-invariant label (every iteration would get the identical stream) |
//! | D009 | metrics contracts: each `(subsystem, name)` identity has exactly one kind workspace-wide, and handles are only touched with their registered kind's methods |
//! | D010 | span pairing: a function that opens a span must reach a `close` through the intra-crate call graph |
//! | D011 | cross-lane state: no `static mut` / interior-mutable statics / `lazy_static!` in parallel crates, and no `Arc<Mutex<_>>`/`Arc<RwLock<_>>` fields in structs reachable from `sky_faas::sharded` lane code |
//!
//! Approximation caveats (also in `DESIGN.md` §9): resolution is
//! name-based and crate-local, so D008 only propagates through calls it
//! can resolve *uniquely* (a missed edge is a missed finding, never a
//! false one) while D010 follows *every* candidate edge (an extra edge
//! can only make a `close` reachable — again erring away from false
//! positives). D009 keys on string-literal identities; dynamically
//! built metric names are invisible to it (the runtime registry check
//! remains the backstop).

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{CallGraph, FnId};
use crate::model::{is_simrng_ty, RecvRoot, WorkspaceModel};
use crate::rules::{scope_of, Finding};

/// Run all semantic rules; raw findings (pragma suppression happens at
/// the pipeline layer, per file).
pub fn semantic_findings(model: &WorkspaceModel) -> Vec<Finding> {
    let graph = CallGraph::build(model);
    let mut out = Vec::new();
    rule_d008_rng_lineage(model, &graph, &mut out);
    rule_d009_metric_contracts(model, &mut out);
    rule_d010_span_pairing(model, &graph, &mut out);
    rule_d011_cross_lane_state(model, &mut out);
    out
}

// ---------------------------------------------------------------- D008

/// Labels each function derives *on its own `SimRng` parameters* —
/// directly or via calls that pass such a parameter on — keyed by
/// parameter name. This is what a caller inherits when it passes a
/// stream in: `exposed(callee)[param]` are labels the callee will
/// derive from the caller's value.
fn exposed_labels(
    model: &WorkspaceModel,
    graph: &CallGraph,
    id: FnId,
    memo: &mut BTreeMap<FnId, BTreeMap<String, BTreeSet<String>>>,
    stack: &mut Vec<FnId>,
) -> BTreeMap<String, BTreeSet<String>> {
    if let Some(m) = memo.get(&id) {
        return m.clone();
    }
    if stack.contains(&id) {
        return BTreeMap::new(); // recursion: stop the walk, stay sound
    }
    stack.push(id);
    let f = graph.func(model, id);
    let sim_params: BTreeSet<&str> = f
        .item
        .params
        .iter()
        .filter(|p| !p.name.is_empty() && is_simrng_ty(&p.ty))
        .map(|p| p.name.as_str())
        .collect();
    let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for d in &f.facts.derives {
        if let RecvRoot::Named(root) = &d.root {
            if sim_params.contains(root.as_str()) {
                map.entry(root.clone()).or_default().insert(d.label.clone());
            }
        }
    }
    for call in &f.facts.calls {
        for (ai, root) in call.args.iter().enumerate() {
            let Some(root) = root else { continue };
            if !sim_params.contains(root.as_str()) {
                continue;
            }
            let Some(callee) = graph.resolve_unambiguous(model, id, call) else {
                continue;
            };
            let g = graph.func(model, callee);
            let Some(p) = g.item.params.get(ai) else {
                continue;
            };
            if p.name.is_empty() || !is_simrng_ty(&p.ty) {
                continue;
            }
            let sub = exposed_labels(model, graph, callee, memo, stack);
            if let Some(labels) = sub.get(&p.name) {
                map.entry(root.clone()).or_default().extend(labels.clone());
            }
        }
    }
    stack.pop();
    memo.insert(id, map.clone());
    map
}

/// One label occurrence on a named root while scanning a function body.
struct LabelUse {
    line: u32,
    col: u32,
    /// Callee the label arrives through, for propagated occurrences.
    via: Option<String>,
}

fn rule_d008_rng_lineage(model: &WorkspaceModel, graph: &CallGraph, out: &mut Vec<Finding>) {
    let mut memo = BTreeMap::new();
    for (fi, file) in model.files.iter().enumerate() {
        for (ki, f) in file.fns.iter().enumerate() {
            let id: FnId = (fi, ki);

            // Loop-invariant labels: every iteration derives the
            // byte-identical stream from an untouched receiver.
            for d in &f.facts.derives {
                if d.in_loop && d.loop_invariant {
                    if let RecvRoot::Named(root) = &d.root {
                        out.push(Finding {
                            path: file.path.clone(),
                            line: d.line,
                            col: d.col,
                            rule: "D008",
                            message: format!(
                                "loop-invariant stream label {:?} derived from `{root}`: the \
                                 receiver is untouched in the loop, so every iteration gets \
                                 the byte-identical stream",
                                d.label
                            ),
                            hint: "use `derive_idx(label, index)` with the loop index, or \
                                   advance the parent stream between iterations"
                                .to_string(),
                        });
                    }
                }
            }

            // Sibling collisions: merge direct derives, propagated
            // labels from calls, and rebind resets, in source order.
            enum Ev<'a> {
                Derive(&'a crate::model::DeriveSite),
                Call(&'a crate::model::CallSite, Vec<(String, Vec<String>)>),
                Rebind(&'a crate::model::Rebind),
            }
            let mut events: Vec<(u32, u32, Ev)> = Vec::new();
            for d in &f.facts.derives {
                if matches!(d.root, RecvRoot::Named(_)) {
                    events.push((d.line, d.col, Ev::Derive(d)));
                }
            }
            for r in &f.facts.rebinds {
                events.push((r.line, r.col, Ev::Rebind(r)));
            }
            for call in &f.facts.calls {
                let mut per_root: Vec<(String, Vec<String>)> = Vec::new();
                for (ai, root) in call.args.iter().enumerate() {
                    let Some(root) = root else { continue };
                    let Some(callee) = graph.resolve_unambiguous(model, id, call) else {
                        continue;
                    };
                    let g = graph.func(model, callee);
                    let Some(p) = g.item.params.get(ai) else {
                        continue;
                    };
                    if p.name.is_empty() || !is_simrng_ty(&p.ty) {
                        continue;
                    }
                    let mut stack = Vec::new();
                    let sub = exposed_labels(model, graph, callee, &mut memo, &mut stack);
                    if let Some(labels) = sub.get(&p.name) {
                        if !labels.is_empty() {
                            per_root.push((root.clone(), labels.iter().cloned().collect()));
                        }
                    }
                }
                if !per_root.is_empty() {
                    events.push((call.line, call.col, Ev::Call(call, per_root)));
                }
            }
            events.sort_by_key(|&(line, col, _)| (line, col));

            let mut seen: BTreeMap<(String, String), LabelUse> = BTreeMap::new();
            let mut flagged: BTreeSet<(String, String)> = BTreeSet::new();
            let mut record = |seen: &mut BTreeMap<(String, String), LabelUse>,
                              root: &str,
                              label: &str,
                              u: LabelUse| {
                let key = (root.to_string(), label.to_string());
                if let Some(prev) = seen.get(&key) {
                    // Direct+direct duplicates in one body are D004's.
                    if (prev.via.is_some() || u.via.is_some()) && flagged.insert(key.clone()) {
                        let via = u
                            .via
                            .as_deref()
                            .or(prev.via.as_deref())
                            .map(|c| format!(" (via `{c}`)"))
                            .unwrap_or_default();
                        out.push(Finding {
                            path: file.path.clone(),
                            line: u.line,
                            col: u.col,
                            rule: "D008",
                            message: format!(
                                "sibling stream label {label:?} derived twice from \
                                 `{root}`{via}: identical labels from one parent alias \
                                 the same stream across functions"
                            ),
                            hint: "give sibling streams distinct labels, or derive a \
                                   child stream before passing it on"
                                .to_string(),
                        });
                    }
                } else {
                    seen.insert(key, u);
                }
            };
            for (line, col, ev) in events {
                match ev {
                    Ev::Rebind(r) => {
                        seen.retain(|(root, _), _| root != &r.name);
                    }
                    Ev::Derive(d) => {
                        if let RecvRoot::Named(root) = &d.root {
                            record(
                                &mut seen,
                                root,
                                &d.label,
                                LabelUse {
                                    line,
                                    col,
                                    via: None,
                                },
                            );
                        }
                    }
                    Ev::Call(call, per_root) => {
                        for (root, labels) in per_root {
                            for label in labels {
                                record(
                                    &mut seen,
                                    &root,
                                    &label,
                                    LabelUse {
                                        line,
                                        col,
                                        via: Some(call.callee.clone()),
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- D009

fn rule_d009_metric_contracts(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    // Workspace identity map: (subsystem, name) → sites.
    struct Site {
        path: String,
        line: u32,
        col: u32,
        kind: &'static str,
        method: String,
    }
    let mut identities: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
    for file in &model.files {
        for f in &file.fns {
            for r in &f.facts.metric_regs {
                let Some((sub, name)) = &r.identity else {
                    continue; // dynamic identity: runtime backstop only
                };
                identities
                    .entry((sub.clone(), name.clone()))
                    .or_default()
                    .push(Site {
                        path: file.path.clone(),
                        line: r.line,
                        col: r.col,
                        kind: r.kind,
                        method: r.method.clone(),
                    });
            }
        }
    }
    for ((sub, name), mut sites) in identities {
        sites.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
        let canonical = &sites[0];
        if sites.iter().all(|s| s.kind == canonical.kind) {
            continue;
        }
        let (ck, cp, cl) = (canonical.kind, canonical.path.clone(), canonical.line);
        for s in &sites {
            if s.kind != ck {
                out.push(Finding {
                    path: s.path.clone(),
                    line: s.line,
                    col: s.col,
                    rule: "D009",
                    message: format!(
                        "metric {sub}/{name} used as a {} (`{}`) but first registered \
                         as a {ck} at {cp}:{cl}",
                        s.kind, s.method
                    ),
                    hint: "a metric identity has exactly one kind workspace-wide; rename \
                           one of the metrics or align the kinds (the registry panics on \
                           this at runtime)"
                        .to_string(),
                });
            }
        }
    }

    // Handle-kind contracts: a handle bound at registration must only
    // be touched with its kind's methods.
    for file in &model.files {
        // File-level targets (struct-literal fields, `self.x = …`)
        // usable across fns — only when the kind is unambiguous.
        let mut file_targets: BTreeMap<String, Option<&'static str>> = BTreeMap::new();
        for f in &file.fns {
            for r in &f.facts.metric_regs {
                if let Some(t) = &r.target {
                    file_targets
                        .entry(t.clone())
                        .and_modify(|k| {
                            if *k != Some(r.kind) {
                                *k = None; // conflicting kinds: unusable
                            }
                        })
                        .or_insert(Some(r.kind));
                }
            }
        }
        for f in &file.fns {
            // Replay registrations and touches in source order: a touch
            // resolves against the *latest* same-named binding before
            // it, so shadowed `let h = …` bindings (one per match arm)
            // don't cross-contaminate.
            enum Ev<'a> {
                Reg(&'a crate::model::MetricReg),
                Touch(&'a crate::model::MetricTouch),
            }
            let mut events: Vec<(u32, u32, Ev)> = Vec::new();
            for r in &f.facts.metric_regs {
                if r.target.is_some() {
                    events.push((r.line, r.col, Ev::Reg(r)));
                }
            }
            for t in &f.facts.metric_touches {
                events.push((t.line, t.col, Ev::Touch(t)));
            }
            events.sort_by_key(|&(line, col, _)| (line, col));
            let mut fn_targets: BTreeMap<&str, &'static str> = BTreeMap::new();
            for (_, _, ev) in events {
                let t = match ev {
                    Ev::Reg(r) => {
                        if let Some(target) = &r.target {
                            fn_targets.insert(target.as_str(), r.kind);
                        }
                        continue;
                    }
                    Ev::Touch(t) => t,
                };
                let registered = fn_targets
                    .get(t.target.as_str())
                    .copied()
                    .or_else(|| file_targets.get(&t.target).copied().flatten());
                if let Some(reg_kind) = registered {
                    if reg_kind != t.kind {
                        out.push(Finding {
                            path: file.path.clone(),
                            line: t.line,
                            col: t.col,
                            rule: "D009",
                            message: format!(
                                "handle `{}` is registered as a {reg_kind} but `{}` \
                                 treats it as a {}",
                                t.target, t.method, t.kind
                            ),
                            hint: "touch the handle with its registered kind's method \
                                   (`add` ↔ counter, `set_gauge` ↔ gauge, `observe` ↔ \
                                   histogram)"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- D010

fn rule_d010_span_pairing(model: &WorkspaceModel, graph: &CallGraph, out: &mut Vec<Finding>) {
    for (fi, file) in model.files.iter().enumerate() {
        for (ki, f) in file.fns.iter().enumerate() {
            if f.facts.span_opens.is_empty() {
                continue;
            }
            let closes_reachable = graph
                .reachable(model, (fi, ki))
                .into_iter()
                .any(|id| graph.func(model, id).facts.span_closes > 0);
            if closes_reachable {
                continue;
            }
            for &(line, col) in &f.facts.span_opens {
                out.push(Finding {
                    path: file.path.clone(),
                    line,
                    col,
                    rule: "D010",
                    message: format!(
                        "span opened in `{}` with no reachable `close` on any \
                         intra-crate call path",
                        f.item.name
                    ),
                    hint: "every opened span must be closed on every path (phases must \
                           sum to the end-to-end time); close it here or in a callee"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- D011

/// Interior-mutability type tokens that make a static lane-unsafe.
fn interior_mut_token(ty: &str) -> Option<&str> {
    ty.split(' ')
        .find(|t| matches!(*t, "Mutex" | "RwLock" | "RefCell" | "Cell") || t.starts_with("Atomic"))
}

fn rule_d011_cross_lane_state(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    // Statics and lazy_static in any parallel-capable crate.
    for file in &model.files {
        if !scope_of(&file.path).parallel {
            continue;
        }
        for s in &file.statics {
            if s.is_mut {
                out.push(Finding {
                    path: file.path.clone(),
                    line: s.line,
                    col: s.col,
                    rule: "D011",
                    message: format!(
                        "`static mut {}` in a parallel-capable crate: writes race \
                         across sharded lanes and thread scheduling orders them",
                        s.name
                    ),
                    hint: "thread the state through the lane's own struct (one owner \
                           per lane), merged deterministically at the barrier"
                        .to_string(),
                });
            } else if let Some(tok) = interior_mut_token(&s.ty) {
                out.push(Finding {
                    path: file.path.clone(),
                    line: s.line,
                    col: s.col,
                    rule: "D011",
                    message: format!(
                        "static `{}` has interior mutability (`{tok}`): shared mutable \
                         state whose update order depends on thread scheduling",
                        s.name
                    ),
                    hint: "give each lane its own state and merge in lane order at the \
                           barrier; globals may only hold immutable data"
                        .to_string(),
                });
            }
        }
        for m in &file.macro_uses {
            if m.name == "lazy_static" {
                out.push(Finding {
                    path: file.path.clone(),
                    line: m.line,
                    col: m.col,
                    rule: "D011",
                    message: "`lazy_static!` global in a parallel-capable crate: \
                              initialization order and any interior mutability are \
                              scheduling-dependent"
                        .to_string(),
                    hint: "use a `const`, a plain immutable `static`, or per-lane \
                           owned state"
                        .to_string(),
                });
            }
        }
    }

    // Arc<Mutex<_>> / Arc<RwLock<_>> fields in structs reachable from
    // sharded lane code.
    let lane_file = |path: &str| path.starts_with("crates/faas/") && path.contains("sharded");
    let mut struct_defs: BTreeMap<&str, Vec<(&str, &crate::parser::StructItem)>> = BTreeMap::new();
    for file in &model.files {
        for s in &file.structs {
            struct_defs
                .entry(s.name.as_str())
                .or_default()
                .push((file.path.as_str(), s));
        }
    }
    let mut reachable: BTreeSet<&str> = BTreeSet::new();
    let mut frontier: Vec<&str> = Vec::new();
    for file in &model.files {
        if !lane_file(&file.path) {
            continue;
        }
        for r in &file.type_refs {
            if struct_defs.contains_key(r.as_str()) && reachable.insert(r.as_str()) {
                frontier.push(r.as_str());
            }
        }
    }
    while let Some(name) = frontier.pop() {
        let mut next: Vec<&str> = Vec::new();
        for (_, s) in struct_defs.get(name).into_iter().flatten() {
            for field in &s.fields {
                for tok in field.ty.split(' ') {
                    if struct_defs.contains_key(tok) && reachable.insert(tok) {
                        next.push(tok);
                    }
                }
            }
        }
        frontier.extend(next);
    }
    for name in &reachable {
        for (path, s) in struct_defs.get(name).into_iter().flatten() {
            for field in &s.fields {
                let toks: Vec<&str> = field.ty.split(' ').collect();
                let shared = toks.contains(&"Arc");
                let locked = toks.contains(&"Mutex") || toks.contains(&"RwLock");
                if shared && locked {
                    out.push(Finding {
                        path: path.to_string(),
                        line: field.line,
                        col: field.col,
                        rule: "D011",
                        message: format!(
                            "field `{}.{}` is shared lockable state (`{}`) reachable \
                             from sharded lane code: lock acquisition order is \
                             scheduling-dependent",
                            s.name, field.name, field.ty
                        ),
                        hint: "lanes must own their state; merge results in lane index \
                               order at the reduction barrier instead of sharing a \
                               locked collection"
                            .to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{extract_source, WorkspaceModel};

    fn lint(files: &[(&str, &str)]) -> Vec<Finding> {
        let model =
            WorkspaceModel::from_files(files.iter().map(|(p, s)| extract_source(p, s)).collect());
        semantic_findings(&model)
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d008_cross_function_sibling_collision() {
        let f = lint(&[(
            "crates/faas/src/a.rs",
            "fn spawn_churn(rng: &mut SimRng) { let c = rng.derive(\"churn\"); }\n\
             fn configure(rng: &mut SimRng) {\n\
                 let mine = rng.derive(\"churn\");\n\
                 spawn_churn(rng);\n\
             }",
        )]);
        assert_eq!(rules(&f), ["D008"]);
        assert!(f[0].message.contains("churn"));
        assert!(f[0].message.contains("spawn_churn"));
    }

    #[test]
    fn d008_cross_file_collision_within_crate() {
        let f = lint(&[
            (
                "crates/faas/src/a.rs",
                "fn configure(rng: &mut SimRng) { let c = rng.derive(\"faults\"); helper(rng); }",
            ),
            (
                "crates/faas/src/b.rs",
                "fn helper(r: &mut SimRng) { let x = r.derive(\"faults\"); }",
            ),
        ]);
        assert_eq!(rules(&f), ["D008"]);
    }

    #[test]
    fn d008_distinct_labels_and_rebinding_are_clean() {
        let f = lint(&[(
            "crates/faas/src/a.rs",
            "fn helper(r: &mut SimRng) { let x = r.derive(\"x\"); }\n\
             fn f(base: &mut SimRng) {\n\
                 let rng = base.derive(\"a\");\n\
                 helper(&mut rng);\n\
                 let rng = base.derive(\"b\");\n\
                 helper(&mut rng);\n\
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d008_same_fn_direct_duplicates_are_left_to_d004() {
        let f = lint(&[(
            "crates/faas/src/a.rs",
            "fn f(rng: &mut SimRng) { let a = rng.derive(\"x\"); let b = rng.derive(\"x\"); }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d008_loop_invariant_label() {
        let f = lint(&[(
            "crates/faas/src/a.rs",
            "fn f(rng: &mut SimRng) { for h in 0..4 { sink(rng.derive(\"host\")); } }",
        )]);
        assert_eq!(rules(&f), ["D008"]);
        assert!(f[0].message.contains("loop-invariant"));
    }

    #[test]
    fn d009_workspace_kind_conflict() {
        let f = lint(&[
            (
                "crates/faas/src/a.rs",
                "fn f(m: &mut R) { let c = m.counter(\"faas\", \"requests\", &l); }",
            ),
            (
                "crates/sim-core/src/b.rs",
                "fn g(m: &mut R) { let h = m.histogram(\"faas\", \"requests\", &l); }",
            ),
        ]);
        assert_eq!(rules(&f), ["D009"]);
        assert!(f[0].path.contains("sim-core"));
        assert!(f[0].message.contains("first registered as a counter"));
    }

    #[test]
    fn d009_handle_touch_mismatch() {
        let f = lint(&[(
            "crates/faas/src/a.rs",
            "fn f(m: &mut R) { let depth = m.gauge(\"q\", \"depth\", &l); m.add(depth, 1); }",
        )]);
        assert_eq!(rules(&f), ["D009"]);
        assert!(f[0].message.contains("`add` treats it as a counter"));
    }

    #[test]
    fn d009_consistent_kinds_are_clean() {
        let f = lint(&[(
            "crates/faas/src/a.rs",
            "fn f(m: &mut R) { let c = m.counter(\"faas\", \"hits\", &l); m.add(c, 1); \
             m.incr(\"faas\", \"hits\", &l, 1); }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d010_unclosed_span_and_closed_via_callee() {
        let dirty = lint(&[(
            "crates/faas/src/a.rs",
            "fn handle(&mut self) { self.spans.open(1, 2); self.route(); }\n\
             fn route(&mut self) {}",
        )]);
        assert_eq!(rules(&dirty), ["D010"]);
        let clean = lint(&[(
            "crates/faas/src/a.rs",
            "fn handle(&mut self) { self.spans.open(1, 2); self.finish(); }\n\
             fn finish(&mut self) { self.spans.close(1, 2, p); }",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn d011_static_mut_and_lazy_static() {
        let f = lint(&[(
            "crates/faas/src/sharded/lane.rs",
            "static mut TICKS: u64 = 0;\n\
             lazy_static! { static ref M: u8 = 1; }\n\
             static NAMES: [&str; 2] = [\"a\", \"b\"];",
        )]);
        assert_eq!(rules(&f), ["D011", "D011"]);
    }

    #[test]
    fn d011_shared_locked_field_reachable_from_lane() {
        let f = lint(&[
            (
                "crates/faas/src/sharded/lane.rs",
                "fn run(s: &LaneShared) { drive(s); }",
            ),
            (
                "crates/sim-core/src/state.rs",
                "pub struct LaneShared { pub outcomes: Arc<Mutex<Vec<u64>>>, pub n: u64 }",
            ),
        ]);
        assert_eq!(rules(&f), ["D011"]);
        assert!(f[0].path.contains("sim-core"));
        assert!(f[0].message.contains("LaneShared.outcomes"));
    }

    #[test]
    fn d011_owned_state_is_clean() {
        let f = lint(&[
            (
                "crates/faas/src/sharded/lane.rs",
                "fn run(s: &mut LaneState) {}",
            ),
            (
                "crates/sim-core/src/state.rs",
                "pub struct LaneState { pub outcomes: Vec<u64> }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d011_interior_mutable_static_outside_parallel_scope_is_fine() {
        let f = lint(&[(
            "crates/cli/src/main.rs",
            "static CACHE: Mutex<Vec<u64>> = Mutex::new(Vec::new());",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
