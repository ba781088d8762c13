//! The fleet BENCH layer behind the `fleet_bench` binary: turns a
//! [`FleetOutcome`] into the versioned `BENCH_fleet_<scenario>.json`
//! document (same hand-rolled JSON family as the per-workload BENCH
//! files) and parses it back for comparisons.

use rispp::obs::MetricsSummary;
use rispp::prelude::FleetOutcome;

use crate::harness::{json_escape, json_f64, JsonValue, BENCH_SCHEMA_VERSION};

/// File name a fleet result is written to (`BENCH_fleet_stress.json` …).
#[must_use]
pub fn fleet_file_name(scenario: &str) -> String {
    format!("BENCH_fleet_{scenario}.json")
}

/// One shard's row in the fleet BENCH document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRow {
    /// Shard index within the fleet.
    pub shard: u32,
    /// The shard's derived seed (for standalone replay).
    pub seed: u64,
    /// Events the shard emitted.
    pub events: u64,
    /// Simulated cycles the shard covered.
    pub sim_cycles: u64,
}

/// A fleet run's measured result — the content of a
/// `BENCH_fleet_<scenario>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBenchResult {
    /// Scenario id (`fig6`, `stress`, `live_codec`).
    pub scenario: String,
    /// `quick` or `full` workload sizing.
    pub mode: String,
    /// Shards run.
    pub shards: u32,
    /// OS worker threads actually used.
    pub threads: usize,
    /// The fleet seed shard seeds derive from.
    pub fleet_seed: u64,
    /// Host wall time of the whole fan-out + join, in nanoseconds.
    pub wall_ns: u64,
    /// Total events across the fleet.
    pub events: u64,
    /// Total simulated cycles across the fleet.
    pub sim_cycles: u64,
    /// Host throughput: events per wall second, whole fleet.
    pub events_per_sec: f64,
    /// Host throughput per worker thread ("per core").
    pub events_per_sec_per_core: f64,
    /// Rotations completed across the fleet.
    pub rotations_completed: u64,
    /// Fleet-wide SI latency median, in simulated cycles (0 when no SI
    /// executed).
    pub latency_p50: u64,
    /// Fleet-wide SI latency 99th percentile, in simulated cycles.
    pub latency_p99: u64,
    /// Merged simulated-time gauges.
    pub metrics: MetricsSummary,
    /// Per-shard totals, in shard order.
    pub per_shard: Vec<ShardRow>,
}

impl FleetBenchResult {
    /// Distils a [`FleetOutcome`] into the BENCH document content.
    #[must_use]
    pub fn from_outcome(scenario: &str, mode: &str, fleet_seed: u64, out: &FleetOutcome) -> Self {
        let agg = &out.aggregate;
        let secs = out.wall_ns as f64 / 1e9;
        let events_per_sec = if secs > 0.0 {
            agg.events as f64 / secs
        } else {
            0.0
        };
        FleetBenchResult {
            scenario: scenario.to_string(),
            mode: mode.to_string(),
            shards: agg.shards,
            threads: out.threads,
            fleet_seed,
            wall_ns: out.wall_ns,
            events: agg.events,
            sim_cycles: agg.sim_cycles,
            events_per_sec,
            events_per_sec_per_core: events_per_sec / out.threads.max(1) as f64,
            rotations_completed: agg.rotations_completed(),
            latency_p50: agg.latency.p50().unwrap_or(0),
            latency_p99: agg.latency.p99().unwrap_or(0),
            metrics: agg.summary,
            per_shard: out
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardRow {
                    shard: i as u32,
                    seed: s.seed,
                    events: s.events,
                    sim_cycles: s.sim_cycles,
                })
                .collect(),
        }
    }

    /// Renders the versioned fleet BENCH JSON document (pretty-printed,
    /// stable field order, trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"kind\": \"fleet\",\n  \"scenario\": \"{}\",\n  \"mode\": \"{}\",\n",
            json_escape(&self.scenario),
            json_escape(&self.mode),
        ));
        // Seeds are full-range 64-bit values; the JSON reader stores
        // numbers as f64 (53-bit mantissa), so seeds travel as strings.
        out.push_str(&format!(
            "  \"shards\": {},\n  \"threads\": {},\n  \"fleet_seed\": \"{}\",\n  \"wall_ns\": {},\n",
            self.shards, self.threads, self.fleet_seed, self.wall_ns
        ));
        out.push_str(&format!(
            "  \"events\": {},\n  \"sim_cycles\": {},\n  \"events_per_sec\": {},\n  \"events_per_sec_per_core\": {},\n",
            self.events,
            self.sim_cycles,
            json_f64(self.events_per_sec),
            json_f64(self.events_per_sec_per_core)
        ));
        out.push_str(&format!(
            "  \"rotations_completed\": {},\n  \"latency_p50\": {},\n  \"latency_p99\": {},\n",
            self.rotations_completed, self.latency_p50, self.latency_p99
        ));
        let m = &self.metrics;
        out.push_str("  \"metrics\": {\n");
        out.push_str(&format!(
            "    \"elapsed_cycles\": {},\n    \"fabric_occupancy\": {},\n    \"logic_utilization\": {},\n    \"bus_busy_fraction\": {},\n",
            m.elapsed_cycles,
            json_f64(m.fabric_occupancy),
            json_f64(m.logic_utilization),
            json_f64(m.bus_busy_fraction)
        ));
        out.push_str(&format!(
            "    \"rotations_completed\": {},\n    \"forecast_windows\": {},\n    \"forecast_precision\": {},\n    \"forecast_recall\": {},\n",
            m.rotations_completed,
            m.forecast_windows,
            json_f64(m.forecast_precision),
            json_f64(m.forecast_recall)
        ));
        // Omitted (not zero) when no shard monitored any FC outcome.
        if let Some(rate) = m.fc_hit_rate {
            out.push_str(&format!("    \"fc_hit_rate\": {},\n", json_f64(rate)));
        }
        out.push_str(&format!(
            "    \"executions_total\": {},\n    \"hw_fraction\": {},\n    \"cycles_saved_vs_sw\": {}\n",
            m.executions_total,
            json_f64(m.hw_fraction),
            m.cycles_saved_vs_sw
        ));
        out.push_str("  },\n");
        out.push_str("  \"per_shard\": [\n");
        for (i, s) in self.per_shard.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"shard\": {}, \"seed\": \"{}\", \"events\": {}, \"sim_cycles\": {}}}{}\n",
                s.shard,
                s.seed,
                s.events,
                s.sim_cycles,
                if i + 1 < self.per_shard.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Parses a fleet BENCH JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: malformed JSON, a
    /// `schema_version` newer than this build, or a missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text)?;
        let version = v
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema_version")?;
        if version > BENCH_SCHEMA_VERSION {
            return Err(format!(
                "BENCH schema {version} is newer than this build ({BENCH_SCHEMA_VERSION})"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing {key}"))
        };
        let u64_field = |obj: &JsonValue, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let f64_field = |obj: &JsonValue, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing {key}"))
        };
        // Seeds are written as strings (see `to_json`).
        let seed_field = |obj: &JsonValue, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(JsonValue::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("missing {key}"))
        };
        let m = v.get("metrics").ok_or("missing metrics")?;
        let metrics = MetricsSummary {
            elapsed_cycles: u64_field(m, "elapsed_cycles")?,
            fabric_occupancy: f64_field(m, "fabric_occupancy")?,
            logic_utilization: f64_field(m, "logic_utilization")?,
            bus_busy_fraction: f64_field(m, "bus_busy_fraction")?,
            rotations_completed: u64_field(m, "rotations_completed")?,
            forecast_windows: u64_field(m, "forecast_windows")?,
            forecast_precision: f64_field(m, "forecast_precision")?,
            forecast_recall: f64_field(m, "forecast_recall")?,
            // Absent in FC-less runs and older documents alike.
            fc_hit_rate: m.get("fc_hit_rate").and_then(JsonValue::as_f64),
            executions_total: u64_field(m, "executions_total")?,
            hw_fraction: f64_field(m, "hw_fraction")?,
            cycles_saved_vs_sw: u64_field(m, "cycles_saved_vs_sw")?,
        };
        let per_shard = v
            .get("per_shard")
            .and_then(JsonValue::as_arr)
            .ok_or("missing per_shard")?
            .iter()
            .map(|row| {
                Ok(ShardRow {
                    shard: u64_field(row, "shard")? as u32,
                    seed: seed_field(row, "seed")?,
                    events: u64_field(row, "events")?,
                    sim_cycles: u64_field(row, "sim_cycles")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FleetBenchResult {
            scenario: str_field("scenario")?,
            mode: str_field("mode")?,
            shards: u64_field(&v, "shards")? as u32,
            threads: u64_field(&v, "threads")? as usize,
            fleet_seed: seed_field(&v, "fleet_seed")?,
            wall_ns: u64_field(&v, "wall_ns")?,
            events: u64_field(&v, "events")?,
            sim_cycles: u64_field(&v, "sim_cycles")?,
            events_per_sec: f64_field(&v, "events_per_sec")?,
            events_per_sec_per_core: f64_field(&v, "events_per_sec_per_core")?,
            rotations_completed: u64_field(&v, "rotations_completed")?,
            latency_p50: u64_field(&v, "latency_p50")?,
            latency_p99: u64_field(&v, "latency_p99")?,
            metrics,
            per_shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp::prelude::{FleetConfig, Scenario, ScenarioFactory};
    use rispp::sim::run_fleet;

    #[test]
    fn fleet_bench_json_round_trips() {
        let factory = ScenarioFactory::new(
            Scenario::Stress {
                platforms: 1,
                steps: 50,
            },
            11,
        );
        let out = run_fleet(&factory, &FleetConfig::new(3));
        let result = FleetBenchResult::from_outcome("stress", "quick", 11, &out);
        assert_eq!(result.shards, 3);
        assert_eq!(result.per_shard.len(), 3);
        assert!(result.events > 0);
        let parsed = FleetBenchResult::from_json(&result.to_json()).expect("round trip");
        assert_eq!(parsed, result);
    }

    #[test]
    fn fleet_bench_json_rejects_future_schema() {
        let text = "{\"schema_version\": 999}";
        assert!(FleetBenchResult::from_json(text)
            .unwrap_err()
            .contains("newer"));
    }
}
