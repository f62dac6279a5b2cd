//! Configuration of `run_study`, the one program that simulates the study
//! and prints every paper row.
//!
//! Scale control via environment:
//!
//! * `P2PMAL_QUICK=1` — run the minutes-scale `quick()` scenarios;
//! * `P2PMAL_SEED=<n>` — change the seed (default 2006);
//! * `P2PMAL_SEEDS=<a,b,c>` — multi-seed sweep: every seed's two-network
//!   study runs on its own thread and prints its rows held;
//! * `P2PMAL_DAYS=<n>` — override the collection length;
//! * `P2PMAL_TRACE=<level>` — leveled trace on stderr. Unset, empty, `0`,
//!   `off`, `false` and `no` disable it; `1` prints the per-day
//!   event/wall-time trace, including buffer-pool, queue-depth and
//!   scan-pipeline (cache hit/miss/eviction, bytes hashed) statistics;
//!   `2` additionally renders every telemetry event as it is recorded;
//! * `P2PMAL_JOURNAL=<path>` — write the structured sim-time event journal
//!   (one JSON object per line) to `<path>.limewire.jsonl` and
//!   `<path>.openft.jsonl`, creating parent directories as needed;
//! * `P2PMAL_JOURNAL_SAMPLE=<cat=N,...>` — journal only every Nth event of
//!   a category (`query`, `download`, `scan`, `fault`, `churn`); `cat=0`
//!   drops the category entirely;
//! * `P2PMAL_FAULTS=none|mild|harsh` — network fault profile: packet loss,
//!   spontaneous resets, latency spikes, corruption and host churn, with
//!   the retry policy calibrated for each profile (`none` is the default
//!   and is byte-identical to a fault-free simulator);
//! * `P2PMAL_RETRIES=<n>` — override the per-object retry budget of the
//!   selected fault profile (for retry-budget sweeps).
//!
//! A set knob that does not parse is an error, never the default.

use p2pmal_core::{fault_profile, LimewireScenario, OpenFtScenario, Study};
use p2pmal_crawler::RetryPolicy;
use p2pmal_netsim::FaultPlan;
use std::str::FromStr;

/// Harness configuration from the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    pub quick: bool,
    pub seed: u64,
    pub days: Option<u64>,
    /// `P2PMAL_SEEDS=a,b,c` — seeds for a multi-seed sweep. When set,
    /// `run_study` runs one full two-network study per seed, each on its
    /// own thread.
    pub seeds: Option<Vec<u64>>,
    /// `P2PMAL_FAULTS=none|mild|harsh` — fault profile name.
    pub faults: String,
    /// `P2PMAL_RETRIES=<n>` — retry-budget override on top of the profile.
    pub retries: Option<u8>,
}

/// `name`'s value parsed, `None` when unset, an error naming both when it
/// does not parse.
fn parsed<T: FromStr>(
    var: &dyn Fn(&str) -> Option<String>,
    name: &str,
) -> Result<Option<T>, String> {
    var(name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name}={v:?} is not a valid value"))
        })
        .transpose()
}

impl BenchConfig {
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(&|name| std::env::var(name).ok())
    }

    /// [`Self::from_env`] over any variable lookup.
    fn from_lookup(var: &dyn Fn(&str) -> Option<String>) -> Result<Self, String> {
        let seeds = match var("P2PMAL_SEEDS") {
            Some(v) if !v.trim().is_empty() => Some(
                v.split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("P2PMAL_SEEDS={v:?}: {s:?} is not a seed"))
                    })
                    .collect::<Result<Vec<u64>, _>>()?,
            ),
            _ => None,
        };
        let faults = var("P2PMAL_FAULTS").unwrap_or_else(|| "none".into());
        if fault_profile(&faults).is_none() {
            return Err(format!(
                "P2PMAL_FAULTS={faults:?} is not a known profile (none|mild|harsh)"
            ));
        }
        Ok(BenchConfig {
            quick: var("P2PMAL_QUICK").is_some_and(|v| v == "1"),
            seed: parsed(var, "P2PMAL_SEED")?.unwrap_or(2006),
            days: parsed(var, "P2PMAL_DAYS")?,
            seeds,
            faults,
            retries: parsed(var, "P2PMAL_RETRIES")?,
        })
    }

    /// The fault plan + retry policy this configuration selects.
    pub fn fault_plan(&self) -> (FaultPlan, RetryPolicy) {
        let (plan, mut retry) = fault_profile(&self.faults).expect("profile validated in from_env");
        if let Some(n) = self.retries {
            retry.max_retries = n;
        }
        (plan, retry)
    }

    /// This configuration re-keyed to another seed (for sweeps).
    pub fn with_seed(&self, seed: u64) -> Self {
        BenchConfig {
            seed,
            seeds: None,
            ..self.clone()
        }
    }

    /// The two-network study this configuration selects.
    pub fn study(&self) -> Study {
        let (mut lw, mut ft) = if self.quick {
            (
                LimewireScenario::quick(self.seed),
                OpenFtScenario::quick(self.seed ^ 0xF7),
            )
        } else {
            (
                LimewireScenario::paper_scale(self.seed),
                OpenFtScenario::paper_scale(self.seed ^ 0xF7),
            )
        };
        if let Some(days) = self.days {
            lw.days = days;
            ft.days = days;
        }
        let (plan, retry) = self.fault_plan();
        Study::new()
            .with_limewire(lw.with_faults(plan, retry))
            .with_openft(ft.with_faults(plan, retry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(vars: &[(&str, &str)]) -> Result<BenchConfig, String> {
        BenchConfig::from_lookup(&|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn knobs_parse_or_fail_naming_the_variable() {
        let defaults = config(&[]).expect("nothing set is valid");
        assert_eq!(
            defaults,
            BenchConfig {
                quick: false,
                seed: 2006,
                days: None,
                seeds: None,
                faults: "none".into(),
                retries: None,
            }
        );
        let set = config(&[
            ("P2PMAL_QUICK", "1"),
            ("P2PMAL_SEED", "7"),
            ("P2PMAL_SEEDS", "1, 2,3"),
            ("P2PMAL_DAYS", "3"),
            ("P2PMAL_FAULTS", "harsh"),
            ("P2PMAL_RETRIES", "4"),
        ])
        .expect("every knob well formed");
        assert_eq!(
            set,
            BenchConfig {
                quick: true,
                seed: 7,
                days: Some(3),
                seeds: Some(vec![1, 2, 3]),
                faults: "harsh".into(),
                retries: Some(4),
            }
        );
        for (name, value) in [
            ("P2PMAL_SEED", "abc"),
            ("P2PMAL_SEEDS", "1,x,3"),
            ("P2PMAL_DAYS", "-1"),
            ("P2PMAL_RETRIES", "300"),
            ("P2PMAL_FAULTS", "gentle"),
        ] {
            let err = config(&[(name, value)]).expect_err(name);
            assert!(
                err.contains(name) && err.contains(value),
                "{name}={value}: {err}"
            );
        }
    }
}
