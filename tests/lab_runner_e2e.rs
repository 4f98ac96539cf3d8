//! End-to-end acceptance for the vita-lab runner over the checked-in
//! specs: the example matrix expands to ≥ 8 trials covering every
//! backend family, runs end to end emitting valid JSONL plus aggregate
//! tables, and a re-run with the same seed reproduces identical
//! bindings, row counts, and ordering byte for byte.

use vita_lab::{expand, parse_spec, run_spec, schema_signature, Json};

const EXAMPLE: &str = include_str!("../crates/lab/specs/example.lab");
const SMOKE: &str = include_str!("../crates/lab/specs/smoke.lab");

#[test]
fn example_spec_covers_all_backend_families() {
    let spec = parse_spec(EXAMPLE).expect("example.lab parses");
    let plan = expand(&spec);
    assert!(plan.len() >= 8, "example must expand to ≥ 8 trials");

    let backends: std::collections::BTreeSet<&str> = plan
        .iter()
        .map(|t| t.props.get("storage.backend").expect("backend bound"))
        .collect();
    assert!(backends.contains("single"), "{backends:?}");
    assert!(
        backends.iter().any(|b| b.starts_with("segmented")),
        "{backends:?}"
    );
    assert!(
        backends.iter().any(|b| b.starts_with("segmented-spill")),
        "{backends:?}"
    );
}

#[test]
fn example_spec_runs_and_reproduces() {
    let spec = parse_spec(EXAMPLE).expect("example.lab parses");
    let first = run_spec(&spec).expect("example.lab runs");
    assert_eq!(first.trials.len(), expand(&spec).len());

    // Every trial produced rows and its record round-trips through JSON
    // with a self-consistent shape per probe combination.
    for t in &first.trials {
        assert!(t.rows.total() > 0, "{} produced no rows", t.id);
        let parsed = Json::parse(&t.to_json(true)).expect("record is valid JSON");
        assert_eq!(parsed.get("id"), Some(&Json::Str(t.id.clone())));
        let _ = schema_signature(&parsed);
    }

    // Aggregates cover the spec's single axis with all three variants.
    let by_axis = first.by_axis();
    assert_eq!(by_axis.len(), 1);
    assert_eq!(by_axis[0].axis, "backend");
    assert_eq!(by_axis[0].variants.len(), 3);
    let md = first.analysis_markdown();
    assert!(md.contains("#### by backend"));
    assert_eq!(first.analysis_jsonl().lines().count(), 3);

    // Re-run: identical bindings, seeds, row counts, and ordering —
    // byte-identical in the deterministic JSONL form.
    let second = run_spec(&spec).expect("example.lab runs again");
    assert_eq!(first.trials_jsonl(false), second.trials_jsonl(false));
}

#[test]
fn smoke_spec_matches_its_shape_contract() {
    // CI's lab-smoke job runs this spec through the `lab` subcommand; the
    // shape the job validates must hold here too: 2 scenarios × 2 axes of
    // 2 variants × 2 repeats.
    let spec = parse_spec(SMOKE).expect("smoke.lab parses");
    assert_eq!(spec.scenarios.len(), 2);
    assert_eq!(spec.axes.len(), 2);
    assert!(spec.axes.iter().all(|a| a.variants.len() == 2));
    assert_eq!(spec.repeats, 2);
    assert_eq!(expand(&spec).len(), 16);
}
