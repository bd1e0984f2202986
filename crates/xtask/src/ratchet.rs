//! The lint ratchet: per-lint violation/waiver counts may only decrease.
//!
//! `lint-baseline.json` (committed at the workspace root) records, for
//! every lint, the number of unwaived violations (always zero on a green
//! tree — `check` gates that) and the number of *waived* violations.
//! `anu-xtask ratchet` recomputes both from a fresh scan and:
//!
//! - **fails** if any count exceeds the baseline — adding a waiver is a
//!   reviewed decision, made by editing `lint-baseline.json` by hand in
//!   the same commit, never a drive-by;
//! - **passes with a hint** if any count dropped — run with `--update`
//!   to rewrite the baseline and bank the improvement;
//! - **passes silently** when counts match.
//!
//! `--update` only ever tightens: it refuses to write a baseline with
//! regressions. The file format is a stable, hand-editable JSON document
//! read through the same [`Val`] reader as the bench manifests.

use std::collections::BTreeMap;

use crate::bench::Val;
use crate::{json_str, Report, ALL_LINTS};

/// Per-lint counts tracked by the ratchet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintCounts {
    /// Unwaived violations (zero on a tree that passes `check`).
    pub violations: usize,
    /// Violations suppressed by a justified waiver.
    pub waived: usize,
}

/// The committed ratchet baseline: counts per lint name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Counts keyed by lint name, including zero entries for every lint.
    pub lints: BTreeMap<String, LintCounts>,
}

impl Baseline {
    /// Compute the baseline for a report: every known lint gets an entry,
    /// zero or not, so the committed file always lists the full set.
    pub fn from_report(report: &Report) -> Baseline {
        let viol = report.violations_by_lint();
        let mut lints = BTreeMap::new();
        for lint in ALL_LINTS {
            let name = lint.name();
            lints.insert(
                name.to_string(),
                LintCounts {
                    violations: viol.get(name).copied().unwrap_or(0),
                    waived: report.waived_by_lint.get(name).copied().unwrap_or(0),
                },
            );
        }
        Baseline { lints }
    }

    /// Render as the committed JSON document (stable formatting, one
    /// lint per line, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": 1,\n  \"lints\": {\n");
        for (i, (name, c)) in self.lints.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {{\"violations\": {}, \"waived\": {}}}{}\n",
                json_str(name),
                c.violations,
                c.waived,
                if i + 1 < self.lints.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a baseline document written by [`Baseline::render`] (or
    /// edited by hand). Accepts any whitespace; rejects unknown schema
    /// versions, unknown keys, counts that are not non-negative integers
    /// and malformed JSON with a descriptive message.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let Val::Obj(pairs) = Val::parse(text)? else {
            return Err("baseline must be a JSON object".to_string());
        };
        let mut schema = None;
        let mut lints = BTreeMap::new();
        for (key, v) in &pairs {
            match key.as_str() {
                "schema" => schema = Some(count("schema", v)?),
                "lints" => {
                    let Val::Obj(entries) = v else {
                        return Err("`lints` must be an object".to_string());
                    };
                    for (lint, c) in entries {
                        lints.insert(lint.clone(), counts(lint, c)?);
                    }
                }
                other => return Err(format!("unknown baseline key `{other}`")),
            }
        }
        match schema {
            Some(1) => Ok(Baseline { lints }),
            Some(v) => Err(format!("unsupported baseline schema {v}")),
            None => Err("baseline is missing the `schema` key".to_string()),
        }
    }
}

/// Largest integer an f64 [`Val::Num`] holds exactly (2^53).
const MAX_EXACT_COUNT: f64 = 9_007_199_254_740_992.0;

/// Read `v` as a non-negative integer count named `what`.
fn count(what: &str, v: &Val) -> Result<usize, String> {
    match v.as_f64() {
        Some(n) if (0.0..=MAX_EXACT_COUNT).contains(&n) && n.fract() == 0.0 => Ok(n as usize),
        _ => Err(format!(
            "`{what}` must be a non-negative integer, found {v:?}"
        )),
    }
}

/// Read one lint's `{"violations": N, "waived": M}` entry.
fn counts(lint: &str, v: &Val) -> Result<LintCounts, String> {
    let Val::Obj(pairs) = v else {
        return Err(format!("counts of `{lint}` must be an object"));
    };
    let mut counts = LintCounts::default();
    for (key, n) in pairs {
        let slot = match key.as_str() {
            "violations" => &mut counts.violations,
            "waived" => &mut counts.waived,
            other => return Err(format!("unknown count key `{other}`")),
        };
        *slot = count(key, n)?;
    }
    Ok(counts)
}

/// The outcome of comparing a fresh scan against the baseline.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Human-readable lines describing count increases (CI failures).
    pub regressions: Vec<String>,
    /// Human-readable lines describing count decreases (banked via
    /// `--update`).
    pub improvements: Vec<String>,
}

impl Comparison {
    /// Did the scan hold the ratchet (no increases)?
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare `current` counts against `baseline`. A lint absent from the
/// baseline is treated as zero (new lints start tight).
pub fn compare(baseline: &Baseline, current: &Baseline) -> Comparison {
    let mut cmp = Comparison::default();
    let zero = LintCounts::default();
    let mut names: Vec<&String> = baseline.lints.keys().collect();
    for k in current.lints.keys() {
        if !baseline.lints.contains_key(k) {
            names.push(k);
        }
    }
    for name in names {
        let base = baseline.lints.get(name).unwrap_or(&zero);
        let cur = current.lints.get(name).unwrap_or(&zero);
        for (what, b, c) in [
            ("unwaived", base.violations, cur.violations),
            ("waived", base.waived, cur.waived),
        ] {
            if c > b {
                cmp.regressions
                    .push(format!("{name}: {what} count rose {b} -> {c}"));
            } else if c < b {
                cmp.improvements
                    .push(format!("{name}: {what} count fell {b} -> {c}"));
            }
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(entries: &[(&str, usize, usize)]) -> Baseline {
        let mut lints = BTreeMap::new();
        for &(name, violations, waived) in entries {
            lints.insert(name.to_string(), LintCounts { violations, waived });
        }
        Baseline { lints }
    }

    #[test]
    fn render_parse_round_trip() {
        let b = baseline(&[("panic", 0, 12), ("as-cast", 1, 3)]);
        let parsed = Baseline::parse(&b.render()).expect("round trip");
        assert_eq!(parsed, b);
    }

    #[test]
    fn parse_rejects_bad_schema_and_shape() {
        assert!(Baseline::parse("{\"schema\": 2, \"lints\": {}}").is_err());
        assert!(Baseline::parse("{\"lints\": {}}").is_err());
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{\"schema\": 1, \"bogus\": {}}").is_err());
        assert!(Baseline::parse("{\"schema\": 1 \"lints\": {}}").is_err());
        assert!(Baseline::parse("{\"schema\": 1, \"lints\": {\"panic\": 3}}").is_err());
    }

    #[test]
    fn parse_rejects_negative_and_fractional_counts() {
        for bad in ["-1", "1.5", "1e300"] {
            let text = format!(
                "{{\"schema\": 1, \"lints\": {{\"panic\": {{\"violations\": 0, \"waived\": {bad}}}}}}}"
            );
            let err = Baseline::parse(&text).expect_err(bad);
            assert!(
                err.contains("`waived` must be a non-negative integer"),
                "{bad}: {err}"
            );
        }
        let err = Baseline::parse("{\"schema\": 1.5, \"lints\": {}}").expect_err("schema");
        assert!(
            err.contains("`schema` must be a non-negative integer"),
            "{err}"
        );
    }

    #[test]
    fn committed_baseline_parses() {
        let text = include_str!("../../../lint-baseline.json");
        let b = Baseline::parse(text).expect("committed baseline parses");
        assert_eq!(b.lints.len(), ALL_LINTS.len());
        assert_eq!(b.render(), text, "committed baseline is in canonical form");
    }

    #[test]
    fn increase_is_a_regression() {
        let base = baseline(&[("panic", 0, 10)]);
        let cur = baseline(&[("panic", 0, 11)]);
        let cmp = compare(&base, &cur);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("rose 10 -> 11"));
    }

    #[test]
    fn decrease_is_an_improvement() {
        let base = baseline(&[("panic", 0, 10), ("print", 0, 2)]);
        let cur = baseline(&[("panic", 0, 7), ("print", 0, 2)]);
        let cmp = compare(&base, &cur);
        assert!(cmp.ok());
        assert_eq!(cmp.improvements.len(), 1);
        assert!(cmp.improvements[0].contains("fell 10 -> 7"));
    }

    #[test]
    fn lint_missing_from_baseline_starts_tight() {
        let base = baseline(&[]);
        let cur = baseline(&[("tick-arith", 0, 1)]);
        let cmp = compare(&base, &cur);
        assert!(!cmp.ok(), "new lints must not smuggle in waivers");
        // And a zero-count new lint is fine.
        let cur = baseline(&[("tick-arith", 0, 0)]);
        assert!(compare(&base, &cur).ok());
    }

    #[test]
    fn unwaived_violations_also_ratchet() {
        let base = baseline(&[("missing-docs", 0, 0)]);
        let cur = baseline(&[("missing-docs", 2, 0)]);
        assert!(!compare(&base, &cur).ok());
    }

    #[test]
    fn from_report_lists_every_lint() {
        let b = Baseline::from_report(&Report::default());
        assert_eq!(b.lints.len(), ALL_LINTS.len());
        assert!(b.lints.values().all(|c| c.violations == 0 && c.waived == 0));
    }
}
