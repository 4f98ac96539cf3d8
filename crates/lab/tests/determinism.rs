//! Determinism contracts of the runner (ISSUE 9 satellite): the same
//! spec + seed must produce the same plan and — modulo timing fields —
//! byte-identical JSONL across two full executions; plan expansion order
//! must be stable for arbitrary proptest-generated specs.

use proptest::prelude::*;

use vita_core::Properties;
use vita_lab::{expand, parse_spec, run_spec, Axis, Scenario, Spec, Variant};

/// Build a structurally valid spec from generated shape parameters: a
/// few scenarios, up to two axes (one `values`-style over the storage
/// backend, one explicit-variant style over worker count), optionally a
/// pinned `run.seed`.
fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        0u64..u64::MAX,
        1u32..=3,
        1usize..=3,
        0usize..=2,
        1usize..=3,
        0u64..1_000,
    )
        .prop_map(|(seed, repeats, n_scen, n_axes, n_var, salt)| {
            let mut defaults = Properties::parse("run.duration_s = 3\n").expect("defaults");
            if salt % 3 == 0 {
                defaults.set("run.seed", salt);
            }
            let scenarios = (0..n_scen)
                .map(|i| Scenario {
                    name: format!("s{i}"),
                    props: Properties::parse(&format!("objects.count = {}\n", 2 * (i + 1)))
                        .expect("scenario props"),
                })
                .collect();
            let backend_pool = ["single", "segmented", "segmented-spill(64)"];
            let mut axes = Vec::new();
            if n_axes >= 1 {
                axes.push(Axis {
                    name: "backend".into(),
                    variants: backend_pool[..n_var]
                        .iter()
                        .map(|b| Variant {
                            name: b.to_string(),
                            bindings: vec![("storage.backend".into(), b.to_string())],
                        })
                        .collect(),
                });
            }
            if n_axes >= 2 {
                axes.push(Axis {
                    name: "workers".into(),
                    variants: (1..=n_var)
                        .map(|w| Variant {
                            name: format!("w{w}"),
                            bindings: vec![("stream.workers".into(), w.to_string())],
                        })
                        .collect(),
                });
            }
            Spec {
                name: "generated".into(),
                seed,
                repeats,
                defaults,
                scenarios,
                axes,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_expansion_is_pure_and_ordered(spec in spec_strategy()) {
        let plan = expand(&spec);
        // Pure: same spec ⇒ same plan, field for field.
        prop_assert_eq!(&plan, &expand(&spec));

        // Size: scenarios × Π axis variants × repeats.
        let cells: usize = spec.axes.iter().map(|a| a.variants.len()).product::<usize>().max(1);
        prop_assert_eq!(plan.len(), spec.scenarios.len() * cells * spec.repeats as usize);

        let repeats = spec.repeats as usize;
        let mut seen_ids = std::collections::BTreeSet::new();
        for (i, t) in plan.iter().enumerate() {
            // Order: index is plan position; repeats innermost and
            // consecutive within one cell; scenarios outermost in file
            // order.
            prop_assert_eq!(t.index, i);
            prop_assert_eq!(t.repeat as usize, i % repeats);
            prop_assert_eq!(t.scenario_index, i / (cells * repeats));
            prop_assert!(seen_ids.insert(t.id.clone()), "duplicate id {}", t.id);
            // Bindings follow axis order with one entry per axis.
            prop_assert_eq!(t.bindings.len(), spec.axes.len());
            for (axis, (bound, _)) in spec.axes.iter().zip(&t.bindings) {
                prop_assert_eq!(&axis.name, bound);
            }
        }

        // Seeds depend only on (scenario, repeat) — never on the axis
        // variant — so cross-axis row-parity assertions are meaningful.
        for a in &plan {
            for b in &plan {
                if a.scenario_index == b.scenario_index && a.repeat == b.repeat {
                    prop_assert_eq!(a.seed, b.seed);
                }
            }
        }
    }
}

/// Two full executions of one spec — probes and all — agree byte for
/// byte on the deterministic JSONL form (timing fields stripped), and on
/// the analysis grouping.
#[test]
fn two_executions_are_byte_identical_modulo_timing() {
    let text = "\
name = determinism
seed = 1453
repeats = 2
run.duration_s = 4
objects.lifespan_min_s = 4
objects.lifespan_max_s = 4
serve.rps = 300
serve.duration_ms = 30
measure.persistence = true

[scenario walk]
objects.count = 3

[axis backend]
key = storage.backend
values = single, segmented
";
    let spec = parse_spec(text).expect("spec parses");
    let first = run_spec(&spec).expect("first execution");
    let second = run_spec(&spec).expect("second execution");

    assert_eq!(first.trials_jsonl(false), second.trials_jsonl(false));
    // The timing form differs only in timing fields: same line count, and
    // stripping both back to the deterministic form re-converges (probes
    // attached on identical trials).
    let timed: Vec<_> = first.trials_jsonl(true).lines().map(String::from).collect();
    assert_eq!(timed.len(), first.trials.len());
    for (t, record) in first.trials.iter().zip(&timed) {
        assert!(record.contains("\"wall_ms\":"));
        assert!(record.starts_with(&format!("{{\"trial\":{}", t.index)));
        assert!(record.contains("\"serve\":"));
        assert!(record.contains("\"persist\":"));
    }
    // Regression (audit R1): the lab's only wall-clock reads are the
    // annotated timing probes in run.rs, and their output must never
    // leak into the byte-reproducible projection. If a future change
    // routes a measured duration into a deterministic field, the
    // byte-identity assertion above can still pass (both runs fast
    // enough to round alike) — this key scan cannot.
    for record in first.trials_jsonl(false).lines() {
        for timing_key in [
            "\"wall_ms\":",
            "\"serve\":",
            "\"export_ms\":",
            "\"import_ms\":",
        ] {
            assert!(
                !record.contains(timing_key),
                "timing key {timing_key} leaked into the reproducible projection: {record}"
            );
        }
    }

    // Timing means differ between executions; the grouping and the
    // deterministic aggregates must not.
    for (x, y) in first.by_axis().iter().zip(&second.by_axis()) {
        assert_eq!(x.axis, y.axis);
        assert_eq!(x.variants.len(), y.variants.len());
        for (v, w) in x.variants.iter().zip(&y.variants) {
            assert_eq!(v.variant, w.variant);
            assert_eq!(v.trials, w.trials);
            assert_eq!(v.rows_total, w.rows_total);
        }
    }
}
