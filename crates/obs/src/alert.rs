//! Declarative SLO alert rules evaluated against live metrics.
//!
//! A rule names a metric, a comparison, a threshold, and an optional
//! hold-for duration in simulated cycles:
//!
//! ```toml
//! [[rule]]
//! name = "sw-fallback-high"
//! metric = "window_sw_fallback_rate"
//! op = ">"
//! threshold = 0.25
//! for_cycles = 20000
//! ```
//!
//! The serve layer loads a rule file with [`AlertRule::parse_toml`],
//! resolves each `metric` against its metric namespace, and calls
//! [`AlertEngine::evaluate`] on every poll with the current simulated
//! time. A rule *fires* once its condition has held continuously for
//! `for_cycles`; any poll where the condition fails resets the clock.
//! [`AlertEngine::check_final`] is the offline variant for CI gates: it
//! evaluates a finished replay once and fires iff the condition holds
//! at the end and the run lasted at least `for_cycles`.
//!
//! The parser covers exactly the TOML subset above — `[[rule]]` array
//! tables, `key = value` with string / number / integer values, `#`
//! comments — because the workspace takes no external dependencies.

use std::fmt;
use std::fmt::Write as _;

/// Comparison operator of an alert rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertOp {
    /// Fire while the metric is strictly greater than the threshold.
    Gt,
    /// Fire while the metric is greater than or equal to the threshold.
    Ge,
    /// Fire while the metric is strictly less than the threshold.
    Lt,
    /// Fire while the metric is less than or equal to the threshold.
    Le,
}

impl AlertOp {
    /// Parses the operator from its rule-file spelling.
    pub fn parse(s: &str) -> Result<Self, AlertError> {
        match s {
            ">" => Ok(AlertOp::Gt),
            ">=" => Ok(AlertOp::Ge),
            "<" => Ok(AlertOp::Lt),
            "<=" => Ok(AlertOp::Le),
            other => Err(AlertError::new(format!(
                "unknown op {other:?} (expected one of >, >=, <, <=)"
            ))),
        }
    }

    /// Applies the comparison.
    #[must_use]
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            AlertOp::Gt => value > threshold,
            AlertOp::Ge => value >= threshold,
            AlertOp::Lt => value < threshold,
            AlertOp::Le => value <= threshold,
        }
    }
}

impl fmt::Display for AlertOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertOp::Gt => ">",
            AlertOp::Ge => ">=",
            AlertOp::Lt => "<",
            AlertOp::Le => "<=",
        })
    }
}

/// A rule-file problem, with the 1-based line it was found on when the
/// parser knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertError {
    /// What went wrong.
    pub message: String,
    /// 1-based line number in the rule file, when known.
    pub line: Option<usize>,
}

impl AlertError {
    fn new(message: String) -> Self {
        AlertError {
            message,
            line: None,
        }
    }

    fn at(line: usize, message: String) -> Self {
        AlertError {
            message,
            line: Some(line),
        }
    }
}

impl fmt::Display for AlertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for AlertError {}

/// One declarative SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name, used as the `rule` label on `rispp_alert_firing`.
    pub name: String,
    /// Metric the rule watches (resolved by the evaluator).
    pub metric: String,
    /// Comparison between the metric and the threshold.
    pub op: AlertOp,
    /// Threshold value; the parser takes only a finite one.
    pub threshold: f64,
    /// How long (simulated cycles) the condition must hold continuously
    /// before the rule fires. `0` fires on the first violating poll.
    pub for_cycles: u64,
}

impl AlertRule {
    /// Parses a rule file: a sequence of `[[rule]]` tables in the TOML
    /// subset documented on the module. Returns every rule or the first
    /// error with its line number.
    pub fn parse_toml(text: &str) -> Result<Vec<AlertRule>, AlertError> {
        #[derive(Default)]
        struct Partial {
            line: usize,
            name: Option<String>,
            metric: Option<String>,
            op: Option<AlertOp>,
            threshold: Option<f64>,
            for_cycles: Option<u64>,
        }
        impl Partial {
            fn finish(self) -> Result<AlertRule, AlertError> {
                let missing =
                    |field: &str| AlertError::at(self.line, format!("rule is missing `{field}`"));
                Ok(AlertRule {
                    name: self.name.ok_or_else(|| missing("name"))?,
                    metric: self.metric.ok_or_else(|| missing("metric"))?,
                    op: self.op.ok_or_else(|| missing("op"))?,
                    threshold: self.threshold.ok_or_else(|| missing("threshold"))?,
                    for_cycles: self.for_cycles.unwrap_or(0),
                })
            }
        }

        let mut rules = Vec::new();
        let mut open: Option<Partial> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[rule]]" {
                if let Some(done) = open.take() {
                    rules.push(done.finish()?);
                }
                open = Some(Partial {
                    line: lineno,
                    ..Partial::default()
                });
                continue;
            }
            if line.starts_with('[') {
                return Err(AlertError::at(
                    lineno,
                    format!("unknown table {line:?} (expected [[rule]])"),
                ));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(AlertError::at(
                    lineno,
                    format!("expected `key = value`, got {line:?}"),
                ));
            };
            let Some(rule) = open.as_mut() else {
                return Err(AlertError::at(
                    lineno,
                    "key outside any [[rule]] table".to_string(),
                ));
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "name" => rule.name = Some(parse_string(lineno, value)?),
                "metric" => rule.metric = Some(parse_string(lineno, value)?),
                "op" => {
                    let s = parse_string(lineno, value)?;
                    rule.op =
                        Some(AlertOp::parse(&s).map_err(|e| AlertError::at(lineno, e.message))?);
                }
                "threshold" => {
                    // `f64::from_str` also takes `NaN` and `inf`: a NaN
                    // threshold never compares true, so its rule could
                    // never fire.
                    let threshold = value.parse::<f64>().ok().filter(|t| t.is_finite());
                    rule.threshold = Some(threshold.ok_or_else(|| {
                        AlertError::at(
                            lineno,
                            format!("bad number {value:?} for `threshold` (must be finite)"),
                        )
                    })?);
                }
                "for_cycles" => {
                    rule.for_cycles = Some(value.parse::<u64>().map_err(|_| {
                        AlertError::at(lineno, format!("bad integer {value:?} for `for_cycles`"))
                    })?);
                }
                other => {
                    return Err(AlertError::at(
                        lineno,
                        format!("unknown key `{other}` in [[rule]]"),
                    ));
                }
            }
        }
        if let Some(done) = open.take() {
            rules.push(done.finish()?);
        }
        let mut seen = std::collections::BTreeSet::new();
        for rule in &rules {
            if !seen.insert(rule.name.as_str()) {
                return Err(AlertError::new(format!(
                    "duplicate rule name {:?}",
                    rule.name
                )));
            }
        }
        Ok(rules)
    }
}

/// Strips a `#` comment, honouring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(lineno: usize, value: &str) -> Result<String, AlertError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| {
            AlertError::at(lineno, format!("expected a quoted string, got {value:?}"))
        })?;
    if inner.contains('"') {
        return Err(AlertError::at(
            lineno,
            format!("unsupported escape in string {value:?}"),
        ));
    }
    Ok(inner.to_string())
}

/// Live status of one rule after the latest evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertStatus {
    /// The rule.
    pub rule: AlertRule,
    /// Metric value at the latest evaluation (`None` before the first
    /// evaluation or when the metric was unavailable).
    pub value: Option<f64>,
    /// Simulated cycle at which the condition started holding
    /// continuously (`None` while it does not hold).
    pub since: Option<u64>,
    /// Whether the rule is currently firing.
    pub firing: bool,
}

impl AlertStatus {
    fn new(rule: AlertRule) -> Self {
        AlertStatus {
            rule,
            value: None,
            since: None,
            firing: false,
        }
    }
}

/// Evaluates a set of [`AlertRule`]s against successive metric
/// snapshots, tracking per-rule hold-for state.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEngine {
    statuses: Vec<AlertStatus>,
}

impl AlertEngine {
    /// An engine for the given rules, all initially quiescent.
    #[must_use]
    pub fn new(rules: Vec<AlertRule>) -> Self {
        AlertEngine {
            statuses: rules.into_iter().map(AlertStatus::new).collect(),
        }
    }

    /// The per-rule statuses after the latest evaluation.
    #[must_use]
    pub fn statuses(&self) -> &[AlertStatus] {
        &self.statuses
    }

    /// Whether any rule is currently firing.
    #[must_use]
    pub fn any_firing(&self) -> bool {
        self.statuses.iter().any(|s| s.firing)
    }

    /// Evaluates every rule at simulated time `now`. `lookup` resolves
    /// a metric name to its current value; `None` (metric unavailable,
    /// e.g. before the first event) resets the rule's hold clock.
    pub fn evaluate(&mut self, now: u64, mut lookup: impl FnMut(&str) -> Option<f64>) {
        for status in &mut self.statuses {
            status.value = lookup(&status.rule.metric);
            let holds = status
                .value
                .map(|v| status.rule.op.holds(v, status.rule.threshold))
                .unwrap_or(false);
            if holds {
                let since = *status.since.get_or_insert(now);
                status.firing = now.saturating_sub(since) >= status.rule.for_cycles;
            } else {
                status.since = None;
                status.firing = false;
            }
        }
    }

    /// One-shot evaluation for offline gates: a rule fires iff its
    /// condition holds on this final snapshot and the run covered at
    /// least `for_cycles` simulated cycles. Returns `true` when any
    /// rule fires.
    pub fn check_final(&mut self, now: u64, mut lookup: impl FnMut(&str) -> Option<f64>) -> bool {
        for status in &mut self.statuses {
            status.value = lookup(&status.rule.metric);
            let holds = status
                .value
                .map(|v| status.rule.op.holds(v, status.rule.threshold))
                .unwrap_or(false);
            status.firing = holds && now >= status.rule.for_cycles;
            status.since = if status.firing { Some(0) } else { None };
        }
        self.any_firing()
    }

    /// Renders `rispp_alert_firing{rule="..."} 0|1` gauges.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        if self.statuses.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "# HELP rispp_alert_firing Whether the named SLO alert rule is firing."
        );
        let _ = writeln!(out, "# TYPE rispp_alert_firing gauge");
        for status in &self.statuses {
            let _ = writeln!(
                out,
                "rispp_alert_firing{{rule=\"{}\"}} {}",
                status.rule.name,
                u8::from(status.firing)
            );
        }
        out
    }

    /// Renders the `/alerts` JSON document: an array of rule statuses.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, status) in self.statuses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"metric\":\"{}\",\"op\":\"{}\",\"threshold\":{},\"for_cycles\":{},\"value\":{},\"firing\":{}}}",
                status.rule.name,
                status.rule.metric,
                status.rule.op,
                status.rule.threshold,
                status.rule.for_cycles,
                match status.value {
                    Some(v) if v.is_finite() => format!("{v}"),
                    _ => "null".to_string(),
                },
                status.firing,
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &str = r#"
# CI gate for the stress fleet.
[[rule]]
name = "sw-fallback-high"
metric = "window_sw_fallback_rate"
op = ">"            # strict
threshold = 0.25
for_cycles = 100

[[rule]]
name = "occupancy-low"
metric = "fabric_occupancy"
op = "<"
threshold = 0.1
"#;

    #[test]
    fn parses_the_documented_subset() {
        let rules = AlertRule::parse_toml(RULES).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "sw-fallback-high");
        assert_eq!(rules[0].op, AlertOp::Gt);
        assert_eq!(rules[0].threshold, 0.25);
        assert_eq!(rules[0].for_cycles, 100);
        assert_eq!(rules[1].for_cycles, 0, "for_cycles defaults to 0");
        assert_eq!(rules[1].op, AlertOp::Lt);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = AlertRule::parse_toml("[[rule]]\nname = \"x\"\nbogus = 1\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.message.contains("bogus"), "{err}");

        let err = AlertRule::parse_toml("metric = \"x\"\n").unwrap_err();
        assert!(err.message.contains("outside"), "{err}");

        let err = AlertRule::parse_toml("[[rule]]\nname = \"x\"\n").unwrap_err();
        assert!(err.message.contains("metric"), "{err}");

        let err =
            AlertRule::parse_toml("[[rule]]\nname=\"a\"\nmetric=\"m\"\nop=\"!\"\nthreshold=1\n")
                .unwrap_err();
        assert!(err.message.contains("unknown op"), "{err}");

        let two = "[[rule]]\nname=\"a\"\nmetric=\"m\"\nop=\">\"\nthreshold=1\n\
                   [[rule]]\nname=\"a\"\nmetric=\"m\"\nop=\">\"\nthreshold=1\n";
        let err = AlertRule::parse_toml(two).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");

        for threshold in ["NaN", "nan", "inf", "-inf", "infinity", "1e999"] {
            let text =
                format!("[[rule]]\nname=\"a\"\nmetric=\"m\"\nop=\">\"\nthreshold={threshold}\n");
            let err = AlertRule::parse_toml(&text).unwrap_err();
            assert_eq!(err.line, Some(5), "{threshold}");
            assert!(err.message.contains("finite"), "{threshold}: {err}");
        }
    }

    fn rule(op: AlertOp, threshold: f64, for_cycles: u64) -> AlertRule {
        AlertRule {
            name: "r".to_string(),
            metric: "m".to_string(),
            op,
            threshold,
            for_cycles,
        }
    }

    #[test]
    fn hold_for_semantics() {
        let mut engine = AlertEngine::new(vec![rule(AlertOp::Gt, 0.5, 100)]);
        engine.evaluate(0, |_| Some(0.9));
        assert!(!engine.any_firing(), "condition holds but not long enough");
        engine.evaluate(99, |_| Some(0.9));
        assert!(!engine.any_firing());
        engine.evaluate(100, |_| Some(0.9));
        assert!(engine.any_firing(), "held for the full duration");
        // A single good poll resets the clock.
        engine.evaluate(150, |_| Some(0.1));
        assert!(!engine.any_firing());
        engine.evaluate(200, |_| Some(0.9));
        assert!(!engine.any_firing(), "clock restarted at 200");
        engine.evaluate(300, |_| Some(0.9));
        assert!(engine.any_firing());
        assert_eq!(engine.statuses()[0].since, Some(200));
    }

    #[test]
    fn missing_metrics_never_fire() {
        let mut engine = AlertEngine::new(vec![rule(AlertOp::Ge, 0.0, 0)]);
        engine.evaluate(10, |_| None);
        assert!(!engine.any_firing());
        assert_eq!(engine.statuses()[0].value, None);
    }

    #[test]
    fn check_final_gates_on_the_last_snapshot() {
        let mut engine = AlertEngine::new(vec![rule(AlertOp::Gt, 0.5, 1_000)]);
        assert!(!engine.check_final(500, |_| Some(0.9)), "run too short");
        assert!(engine.check_final(1_000, |_| Some(0.9)));
        assert!(!engine.check_final(5_000, |_| Some(0.2)));
    }

    #[test]
    fn renderings() {
        let mut engine = AlertEngine::new(vec![
            rule(AlertOp::Gt, 0.5, 0),
            AlertRule {
                name: "quiet".to_string(),
                ..rule(AlertOp::Lt, -1.0, 0)
            },
        ]);
        engine.evaluate(10, |_| Some(0.75));
        let prom = engine.render_prometheus();
        assert!(prom.contains("rispp_alert_firing{rule=\"r\"} 1"));
        assert!(prom.contains("rispp_alert_firing{rule=\"quiet\"} 0"));
        let json = engine.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"rule\":\"r\""));
        assert!(json.contains("\"value\":0.75"));
        assert!(json.contains("\"firing\":true"));
        assert!(AlertEngine::new(Vec::new()).render_prometheus().is_empty());
        assert_eq!(AlertEngine::new(Vec::new()).render_json(), "[]");
    }
}
