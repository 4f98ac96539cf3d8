//! The scenario-matrix spec: a sectioned properties dialect.
//!
//! Head lines (before the first section) hold the runner keys `name`,
//! `seed`, `repeats` plus default properties merged under every scenario.
//! `[scenario NAME]` sections are plain properties bodies;
//! `[axis NAME]` sections enumerate variants either as
//! `values = a, b, c` over one property key (`key = PROP`, default the
//! axis name) or as explicit ordered `variant NAME = k=v k=v …` lines.
//! Sections and variants keep **file order** — the plan expansion order
//! (and therefore run-id assignment) is part of the spec's meaning.

use vita_core::{Properties, PropsError};

/// One parsed scenario-matrix spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Experiment name (head `name`, default `"lab"`); labels reports.
    pub name: String,
    /// Base seed (head `seed`, default 0): per-scenario base seeds are
    /// derived from it unless a trial's properties pin `run.seed`.
    pub seed: u64,
    /// Trials per plan cell (head `repeats`, default 1, min 1). Each
    /// repeat runs as its own `RunId`, so repeat `k` reproduces the rows
    /// of `run_many` lane `k`.
    pub repeats: u32,
    /// Head properties minus the reserved runner keys — merged (lowest
    /// precedence) into every trial.
    pub defaults: Properties,
    /// Scenarios in file order.
    pub scenarios: Vec<Scenario>,
    /// Variant axes in file order.
    pub axes: Vec<Axis>,
}

/// A named scenario: one properties body.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub props: Properties,
}

/// A variant axis: an ordered set of named property-binding bundles.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    pub name: String,
    pub variants: Vec<Variant>,
}

/// One axis variant: the bindings it overlays on a trial's properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    pub name: String,
    /// `(key, value)` pairs, applied in order (later wins).
    pub bindings: Vec<(String, String)>,
}

/// Why a spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A properties body failed to parse; `section` names the spot.
    Props { section: String, err: PropsError },
    /// A structurally invalid line (bad section header, bad variant
    /// binding, …).
    Malformed { line: u32, msg: String },
    /// Two sections (or two variants of one axis) share a name.
    DuplicateName { kind: &'static str, name: String },
    /// An axis with no variants, or a spec with no scenarios.
    Empty { what: String },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Props { section, err } => write!(f, "in {section}: {err}"),
            SpecError::Malformed { line, msg } => write!(f, "line {line}: {msg}"),
            SpecError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name '{name}'")
            }
            SpecError::Empty { what } => write!(f, "{what} is empty"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Which section the parser is currently accumulating.
enum Section {
    Head,
    Scenario { name: String, body: Vec<String> },
    Axis(AxisDraft),
}

/// An axis mid-parse: `values`/`key` shorthand and explicit `variant`
/// lines both land here and are reconciled when the section closes.
struct AxisDraft {
    name: String,
    header_line: u32,
    key: Option<String>,
    values: Option<(u32, Vec<String>)>,
    variants: Vec<Variant>,
}

impl AxisDraft {
    fn finish(self) -> Result<Axis, SpecError> {
        let mut variants = self.variants;
        if let Some((line, values)) = self.values {
            if !variants.is_empty() {
                return Err(SpecError::Malformed {
                    line,
                    msg: format!(
                        "axis '{}' mixes 'values =' shorthand with explicit 'variant' lines",
                        self.name
                    ),
                });
            }
            let key = self.key.clone().unwrap_or_else(|| self.name.clone());
            variants = values
                .into_iter()
                .map(|v| Variant {
                    name: v.clone(),
                    bindings: vec![(key.clone(), v)],
                })
                .collect();
        }
        if variants.is_empty() {
            return Err(SpecError::Empty {
                what: format!("axis '{}'", self.name),
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for v in &variants {
            if !seen.insert(v.name.clone()) {
                return Err(SpecError::DuplicateName {
                    kind: "variant",
                    name: format!("{}/{}", self.name, v.name),
                });
            }
        }
        Ok(Axis {
            name: self.name,
            variants,
        })
    }
}

/// Parse a spec from its text form. See the module docs for the grammar.
pub fn parse_spec(text: &str) -> Result<Spec, SpecError> {
    let mut head: Vec<String> = Vec::new();
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut axes: Vec<Axis> = Vec::new();
    let mut section = Section::Head;

    // Close out the current section into the spec under construction.
    fn close(
        section: Section,
        scenarios: &mut Vec<Scenario>,
        axes: &mut Vec<Axis>,
    ) -> Result<(), SpecError> {
        match section {
            Section::Head => {}
            Section::Scenario { name, body } => {
                let props =
                    Properties::parse(&body.join("\n")).map_err(|err| SpecError::Props {
                        section: format!("scenario '{name}'"),
                        err,
                    })?;
                scenarios.push(Scenario { name, props });
            }
            Section::Axis(draft) => axes.push(draft.finish()?),
        }
        Ok(())
    }

    for (i, raw) in text.lines().enumerate() {
        let line_no = i as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            continue;
        }

        if line.starts_with('[') {
            if !line.ends_with(']') {
                return Err(SpecError::Malformed {
                    line: line_no,
                    msg: format!("unterminated section header '{line}'"),
                });
            }
            let inner = line[1..line.len() - 1].trim();
            let (kind, name) =
                inner
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| SpecError::Malformed {
                        line: line_no,
                        msg: format!("section header '[{inner}]' needs a kind and a name"),
                    })?;
            let name = name.trim();
            if name.is_empty() || name.contains('/') {
                return Err(SpecError::Malformed {
                    line: line_no,
                    msg: format!("bad section name '{name}' ('/' is the trial-id separator)"),
                });
            }
            close(
                std::mem::replace(&mut section, Section::Head),
                &mut scenarios,
                &mut axes,
            )?;
            section = match kind {
                "scenario" => Section::Scenario {
                    name: name.to_string(),
                    body: Vec::new(),
                },
                "axis" => Section::Axis(AxisDraft {
                    name: name.to_string(),
                    header_line: line_no,
                    key: None,
                    values: None,
                    variants: Vec::new(),
                }),
                other => {
                    return Err(SpecError::Malformed {
                        line: line_no,
                        msg: format!("unknown section kind '{other}' (scenario | axis)"),
                    })
                }
            };
            continue;
        }

        match &mut section {
            Section::Head => head.push(raw.to_string()),
            Section::Scenario { body, .. } => body.push(raw.to_string()),
            Section::Axis(draft) => {
                let Some((k, v)) = line.split_once('=') else {
                    return Err(SpecError::Malformed {
                        line: line_no,
                        msg: format!("malformed axis line '{line}'"),
                    });
                };
                let (k, v) = (k.trim(), v.trim());
                if k == "key" {
                    draft.key = Some(v.to_string());
                } else if k == "values" {
                    let values: Vec<String> = v
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    draft.values = Some((line_no, values));
                } else if let Some(vname) = k.strip_prefix("variant ") {
                    let vname = vname.trim();
                    if vname.is_empty() || vname.contains('/') {
                        return Err(SpecError::Malformed {
                            line: line_no,
                            msg: format!("bad variant name '{vname}'"),
                        });
                    }
                    let mut bindings = Vec::new();
                    for pair in v.split_whitespace() {
                        let Some((bk, bv)) = pair.split_once('=') else {
                            return Err(SpecError::Malformed {
                                line: line_no,
                                msg: format!("variant binding '{pair}' is not key=value"),
                            });
                        };
                        bindings.push((bk.to_string(), bv.to_string()));
                    }
                    draft.variants.push(Variant {
                        name: vname.to_string(),
                        bindings,
                    });
                } else {
                    return Err(SpecError::Malformed {
                        line: line_no,
                        msg: format!(
                            "unknown axis line '{line}' (key = … | values = … | variant N = …)"
                        ),
                    });
                }
                // Every axis keeps its header line for the empty-axis
                // diagnostic even when no values/variant line follows.
                let _ = draft.header_line;
            }
        }
    }
    close(section, &mut scenarios, &mut axes)?;

    let mut defaults = Properties::parse(&head.join("\n")).map_err(|err| SpecError::Props {
        section: "spec head".to_string(),
        err,
    })?;
    let name = defaults.str_or("name", "lab").to_string();
    let seed = defaults.u64_or("seed", 0).map_err(|err| SpecError::Props {
        section: "spec head".to_string(),
        err,
    })?;
    let repeats = defaults
        .u64_or("repeats", 1)
        .map_err(|err| SpecError::Props {
            section: "spec head".to_string(),
            err,
        })?
        .max(1) as u32;
    // The reserved runner keys are consumed here; everything else in the
    // head is a default property.
    let mut cleaned = Properties::new();
    for key in keys_of(&defaults) {
        if key != "name" && key != "seed" && key != "repeats" {
            cleaned.set(&key, defaults.str_or(&key, ""));
        }
    }
    defaults = cleaned;

    if scenarios.is_empty() {
        return Err(SpecError::Empty {
            what: "spec (no [scenario …] sections)".to_string(),
        });
    }
    let mut seen = std::collections::BTreeSet::new();
    for s in &scenarios {
        if !seen.insert(s.name.clone()) {
            return Err(SpecError::DuplicateName {
                kind: "scenario",
                name: s.name.clone(),
            });
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    for a in &axes {
        if !seen.insert(a.name.clone()) {
            return Err(SpecError::DuplicateName {
                kind: "axis",
                name: a.name.clone(),
            });
        }
    }

    Ok(Spec {
        name,
        seed,
        repeats,
        defaults,
        scenarios,
        axes,
    })
}

/// The keys of a properties set, in sorted order. (`Properties` exposes
/// no iterator; round-tripping through its text form keeps this crate on
/// the public surface.)
pub(crate) fn keys_of(p: &Properties) -> Vec<String> {
    p.to_text()
        .lines()
        .filter_map(|l| l.split_once('=').map(|(k, _)| k.trim().to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
name = demo
seed = 7
repeats = 2
run.duration_s = 5

[scenario a]
objects.count = 4

[scenario b]
objects.count = 8
positioning.method = proximity

[axis backend]
key = storage.backend
values = single, segmented

[axis workers]
variant w1 = stream.workers=1
variant w2 = stream.workers=2
";

    #[test]
    fn parses_sections_in_order() {
        let spec = parse_spec(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.repeats, 2);
        assert_eq!(spec.defaults.str_or("run.duration_s", ""), "5");
        assert!(!spec.defaults.contains("name"));
        let names: Vec<&str> = spec.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let axes: Vec<&str> = spec.axes.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(axes, ["backend", "workers"]);
        assert_eq!(
            spec.axes[0].variants[1].bindings,
            vec![("storage.backend".to_string(), "segmented".to_string())]
        );
        assert_eq!(
            spec.axes[1].variants[0].bindings,
            vec![("stream.workers".to_string(), "1".to_string())]
        );
    }

    #[test]
    fn values_default_key_is_axis_name() {
        let spec =
            parse_spec("[scenario s]\nx = 1\n[axis trajectory.hz]\nvalues = 1, 2\n").unwrap();
        assert_eq!(
            spec.axes[0].variants[0].bindings,
            vec![("trajectory.hz".to_string(), "1".to_string())]
        );
    }

    #[test]
    fn rejects_structural_errors() {
        assert!(matches!(
            parse_spec("x = 1\n"),
            Err(SpecError::Empty { .. })
        ));
        assert!(matches!(
            parse_spec("[scenario s]\nx = 1\n[axis a]\n"),
            Err(SpecError::Empty { .. })
        ));
        assert!(matches!(
            parse_spec("[scenario s]\nx = 1\n[scenario s]\ny = 2\n"),
            Err(SpecError::DuplicateName { .. })
        ));
        assert!(matches!(
            parse_spec("[bogus s]\n"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            parse_spec("[scenario s]\nnot a property\n"),
            Err(SpecError::Props { .. })
        ));
        assert!(matches!(
            parse_spec("[scenario s]\nx = 1\n[axis a]\nvariant v = nokey\n"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            parse_spec("[scenario a/b]\nx = 1\n"),
            Err(SpecError::Malformed { .. })
        ));
    }

    #[test]
    fn mixing_values_and_variants_is_rejected() {
        let text = "[scenario s]\nx = 1\n[axis a]\nvalues = 1, 2\nvariant v = k=1\n";
        assert!(matches!(parse_spec(text), Err(SpecError::Malformed { .. })));
    }
}
