//! Persistent, versioned result artifacts for the evaluation harness.
//!
//! Every driver (see [`crate::drivers`]) writes one JSON file per run
//! under the `--out` directory (default `target/bench-results/`), named
//! `<driver>.json`. The file is the *single source of truth* for the
//! driver's table or figure: rendering is a pure function of the
//! artifact, so `--replay` re-emits any paper artifact without
//! re-simulating — the workflow the ROADMAP's persistence item asks for.
//!
//! ## Envelope (schema version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "driver": "fig7",
//!   "config": { "runs": 25, "seed": 42 },
//!   "cells": [ { "bench": "activity", "model": "JIT", ... } ]
//! }
//! ```
//!
//! `config` records the sweep parameters for provenance; `cells` holds
//! one object per evaluated cell **in deterministic order** (the job
//! list's order, independent of `--jobs`). Simulation cells carry a
//! `"stats"` member serialized field-for-field from
//! [`ocelot_runtime::stats::Stats`] via its [`Stats::counters`]
//! surface; the full schema, including per-driver cell layouts, is
//! documented in `docs/bench.md`.
//!
//! Readers are strict: an unknown `schema_version`, a missing counter,
//! or an unknown counter name is an error, never a silent default —
//! that strictness is what lets the determinism test compare artifacts
//! byte-for-byte.

use crate::json::{self, Json, JsonError};
use ocelot_runtime::stats::{Breakdown, Stats};
use ocelot_telemetry::{Histogram, HIST_BUCKETS};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Version written to and required from every artifact.
pub const SCHEMA_VERSION: i128 = 1;

/// One driver's persisted results.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The driver that produced (and can render) this artifact.
    pub driver: String,
    /// Sweep parameters, for provenance and captions.
    pub config: Vec<(String, Json)>,
    /// One object per cell, in deterministic (job-list) order.
    pub cells: Vec<Json>,
}

/// Errors loading, validating, or interpreting artifacts.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure (path included in the message).
    Io(String, io::Error),
    /// Malformed JSON.
    Json(JsonError),
    /// Structurally valid JSON that does not match the schema.
    Schema(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(path, e) => write!(f, "{path}: {e}"),
            ArtifactError::Json(e) => write!(f, "{e}"),
            ArtifactError::Schema(msg) => write!(f, "artifact schema error: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl ArtifactError {
    /// Prefixes the on-disk path onto a parse/validation error, so a
    /// replay diagnostic for a truncated file or an unknown schema
    /// version names the file it came from. I/O errors already carry
    /// their path.
    pub fn in_file(self, path: &Path) -> ArtifactError {
        match self {
            ArtifactError::Io(..) => self,
            ArtifactError::Json(e) => {
                ArtifactError::Schema(format!("{}: malformed JSON: {e}", path.display()))
            }
            ArtifactError::Schema(msg) => {
                ArtifactError::Schema(format!("{}: {msg}", path.display()))
            }
        }
    }
}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

/// A strict reader's message (see [`Json::req`]) is a schema error.
impl From<String> for ArtifactError {
    fn from(msg: String) -> Self {
        ArtifactError::Schema(msg)
    }
}

impl Artifact {
    /// Starts an empty artifact for `driver` with the given config.
    pub fn new(driver: &str, config: Vec<(String, Json)>) -> Self {
        Artifact {
            driver: driver.to_string(),
            config,
            cells: Vec::new(),
        }
    }

    /// A config entry, if present.
    pub fn config_get(&self, key: &str) -> Option<&Json> {
        self.config.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A `u64` config entry.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Schema`] when missing or not an integer.
    pub fn config_u64(&self, key: &str) -> Result<u64, ArtifactError> {
        self.config_get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Schema(format!("config `{key}` missing or not a u64")))
    }

    /// The whole artifact as a JSON value (the envelope above).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("driver", Json::str(&self.driver)),
            ("config", Json::Obj(self.config.clone())),
            ("cells", Json::Arr(self.cells.clone())),
        ])
    }

    /// The exact file bytes: rendered JSON with a trailing newline.
    ///
    /// # Errors
    ///
    /// Propagates [`JsonError::NonFiniteFloat`] from the serializer.
    pub fn render(&self) -> Result<String, ArtifactError> {
        Ok(self.to_json().render()?)
    }

    /// Parses and validates an envelope.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Schema`] on version or shape mismatches.
    pub fn from_json(v: &Json) -> Result<Artifact, ArtifactError> {
        let version = v.req_i64("schema_version")?;
        if i128::from(version) != SCHEMA_VERSION {
            return Err(ArtifactError::Schema(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            )));
        }
        Ok(Artifact {
            driver: v.req_str("driver")?.to_string(),
            config: v.req_obj("config")?.to_vec(),
            cells: v.req_arr("cells")?.to_vec(),
        })
    }

    /// Parses an artifact from file bytes.
    ///
    /// # Errors
    ///
    /// JSON or schema errors as for [`Artifact::from_json`].
    pub fn from_text(text: &str) -> Result<Artifact, ArtifactError> {
        Self::from_json(&json::parse(text)?)
    }

    /// The on-disk path for this driver under `dir`.
    pub fn path_in(dir: &Path, driver: &str) -> PathBuf {
        dir.join(format!("{driver}.json"))
    }

    /// Writes `<dir>/<driver>.json` (creating `dir`) and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// I/O failures, or serializer errors on non-finite floats.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, ArtifactError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArtifactError::Io(dir.display().to_string(), e))?;
        let path = Self::path_in(dir, &self.driver);
        let text = self.render()?;
        std::fs::write(&path, text)
            .map_err(|e| ArtifactError::Io(path.display().to_string(), e))?;
        Ok(path)
    }

    /// Reads and validates `<dir>/<driver>.json`, checking the `driver`
    /// field matches the file name.
    ///
    /// # Errors
    ///
    /// I/O, JSON, or schema errors (including a driver-name mismatch).
    pub fn load(dir: &Path, driver: &str) -> Result<Artifact, ArtifactError> {
        let path = Self::path_in(dir, driver);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ArtifactError::Io(path.display().to_string(), e))?;
        let a = Self::from_text(&text).map_err(|e| e.in_file(&path))?;
        if a.driver != driver {
            return Err(ArtifactError::Schema(format!(
                "artifact at {} claims driver `{}`, expected `{driver}`",
                path.display(),
                a.driver
            )));
        }
        Ok(a)
    }
}

/// Serializes every counter of `s` (scalars in declaration order, then
/// the breakdown) — the `"stats"` member of simulation cells.
pub fn stats_to_json(s: &Stats) -> Json {
    let mut pairs = counters_to_json(&s.counters());
    pairs.push((
        "breakdown".to_string(),
        Json::Obj(counters_to_json(&s.breakdown.counters())),
    ));
    Json::Obj(pairs)
}

fn counters_to_json(counters: &[(&str, u64)]) -> Vec<(String, Json)> {
    counters
        .iter()
        .map(|&(k, v)| (k.to_string(), Json::u64(v)))
        .collect()
}

/// Inverse of [`stats_to_json`]; strict in both directions (every
/// counter present, no unknown members).
///
/// # Errors
///
/// [`ArtifactError::Schema`] on any missing, extra, duplicated, or
/// mistyped field.
pub fn stats_from_json(v: &Json) -> Result<Stats, ArtifactError> {
    let pairs = v
        .as_obj()
        .ok_or_else(|| "stats is not an object".to_string())?;
    let (breakdown, scalars): (Vec<_>, Vec<_>) = pairs.iter().partition(|(k, _)| k == "breakdown");
    let [(_, breakdown)] = breakdown[..] else {
        return Err(format!(
            "stats has {} breakdown members, expected 1",
            breakdown.len()
        )
        .into());
    };
    let mut s = Stats::default();
    counters_from_json(
        &mut s,
        Stats::counter_mut,
        Stats::COUNTERS,
        scalars,
        "stats counter",
    )?;
    let breakdown = breakdown
        .as_obj()
        .ok_or_else(|| "breakdown is not an object".to_string())?;
    counters_from_json(
        &mut s.breakdown,
        Breakdown::counter_mut,
        Breakdown::COUNTERS,
        breakdown,
        "breakdown counter",
    )?;
    Ok(s)
}

/// Reads `pairs` into the counters of `table` that `slot` names,
/// requiring each of its `len` counters exactly once.
fn counters_from_json<'a, T>(
    table: &mut T,
    slot: for<'t> fn(&'t mut T, &str) -> Option<&'t mut u64>,
    len: usize,
    pairs: impl IntoIterator<Item = &'a (String, Json)>,
    what: &str,
) -> Result<(), String> {
    // Distinct names seen, so duplicated keys cannot mask a missing
    // counter (the JSON parser preserves duplicates).
    let mut seen = std::collections::BTreeSet::new();
    for (k, v) in pairs {
        if !seen.insert(k.as_str()) {
            return Err(format!("duplicate {what} `{k}`"));
        }
        let n = v
            .as_u64()
            .ok_or_else(|| format!("{what} `{k}` is not a u64"))?;
        *slot(table, k).ok_or_else(|| format!("unknown {what} `{k}`"))? = n;
    }
    if seen.len() != len {
        return Err(format!("{} of {len} {what}s present", seen.len()));
    }
    Ok(())
}

/// The shared telemetry [`Histogram`] as its schema-v1 encoding: the raw
/// bucket array, unchanged since the fleet driver introduced it.
pub fn histogram_to_json(h: &Histogram) -> Json {
    Json::Arr(h.buckets().iter().map(|&v| Json::u64(v)).collect())
}

/// Strict inverse of [`histogram_to_json`].
///
/// # Errors
///
/// [`ArtifactError::Schema`] on a wrong length or non-`u64` entries.
pub fn histogram_from_json(v: &Json) -> Result<Histogram, ArtifactError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| "histogram is not an array".to_string())?;
    if arr.len() != HIST_BUCKETS {
        return Err(format!(
            "histogram has {} buckets, expected {HIST_BUCKETS}",
            arr.len()
        )
        .into());
    }
    let buckets = arr
        .iter()
        .map(|e| {
            e.as_u64()
                .ok_or_else(|| "histogram bucket is not a u64".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Histogram::from_buckets(buckets))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> Stats {
        let mut s = Stats::default();
        for (i, (name, _)) in Stats::default().counters().into_iter().enumerate() {
            *s.counter_mut(name).unwrap() = (i as u64 + 1) * 1_000_003;
        }
        for (i, (name, _)) in Breakdown::default().counters().into_iter().enumerate() {
            *s.breakdown.counter_mut(name).unwrap() = u64::MAX - i as u64;
        }
        s
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let s = sample_stats();
        assert_eq!(stats_from_json(&stats_to_json(&s)).unwrap(), s);
    }

    #[test]
    fn stats_reader_is_strict() {
        let s = sample_stats();
        // Remove a counter → error.
        let Json::Obj(mut pairs) = stats_to_json(&s) else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "on_cycles");
        assert!(stats_from_json(&Json::Obj(pairs.clone())).is_err());
        // Unknown counter → error.
        let mut extra = pairs.clone();
        extra.push(("brand_new_counter".into(), Json::u64(1)));
        extra.push(("on_cycles".into(), Json::u64(1)));
        assert!(stats_from_json(&Json::Obj(extra)).is_err());
        // A duplicated counter must not mask a missing one: here
        // `on_cycles` was removed and `reboots` appears twice, keeping
        // the member count right — still an error.
        let mut duped = pairs.clone();
        duped.push(("reboots".into(), Json::u64(1)));
        assert!(
            stats_from_json(&Json::Obj(duped)).is_err(),
            "duplicate keys must not satisfy the completeness check"
        );
        // Mistyped counter → error.
        assert!(stats_from_json(&Json::obj(vec![("on_cycles", Json::str("9"))])).is_err());
        assert!(stats_from_json(&Json::Null).is_err());
        // The breakdown is held to the same rules, and must appear once.
        let Some(Json::Obj(bd)) = stats_to_json(&s).get("breakdown").cloned() else {
            unreachable!()
        };
        let with_breakdown = |bd: Vec<(String, Json)>| {
            let Json::Obj(mut pairs) = stats_to_json(&s) else {
                unreachable!()
            };
            pairs.retain(|(k, _)| k != "breakdown");
            pairs.push(("breakdown".into(), Json::Obj(bd)));
            stats_from_json(&Json::Obj(pairs))
        };
        assert!(with_breakdown(bd.clone()).is_ok());
        let mut missing = bd.clone();
        missing.retain(|(k, _)| k != "input");
        assert!(with_breakdown(missing.clone()).is_err());
        let mut unknown = bd.clone();
        unknown.push(("fresh".into(), Json::u64(1)));
        assert!(with_breakdown(unknown).is_err());
        let mut duped = missing;
        duped.push(("compute".into(), Json::u64(1)));
        assert!(with_breakdown(duped).is_err());
        let mut mistyped = bd.clone();
        mistyped[0].1 = Json::str("9");
        assert!(with_breakdown(mistyped).is_err());
        let Json::Obj(mut two) = stats_to_json(&s) else {
            unreachable!()
        };
        two.push(("breakdown".into(), Json::Obj(bd)));
        assert!(stats_from_json(&Json::Obj(two)).is_err());
    }

    #[test]
    fn envelope_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("ocelot-artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = Artifact::new(
            "unit_test_driver",
            vec![
                ("runs".into(), Json::u64(25)),
                ("seed".into(), Json::u64(42)),
            ],
        );
        a.cells.push(Json::obj(vec![
            ("bench", Json::str("activity")),
            ("stats", stats_to_json(&sample_stats())),
        ]));
        let path = a.save(&dir).unwrap();
        assert_eq!(path, dir.join("unit_test_driver.json"));
        let b = Artifact::load(&dir, "unit_test_driver").unwrap();
        assert_eq!(a, b);
        assert_eq!(b.config_u64("runs").unwrap(), 25);
        assert!(b.config_u64("missing").is_err());
        // Same bytes both times — the determinism test's foundation.
        assert_eq!(a.render().unwrap(), b.render().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_reader_rejects_drift() {
        // Wrong version.
        let v = json::parse(r#"{"schema_version": 999, "driver": "x", "config": {}, "cells": []}"#)
            .unwrap();
        assert!(matches!(
            Artifact::from_json(&v),
            Err(ArtifactError::Schema(_))
        ));
        // Missing members.
        for bad in [
            r#"{"driver": "x", "config": {}, "cells": []}"#,
            r#"{"schema_version": 1, "config": {}, "cells": []}"#,
            r#"{"schema_version": 1, "driver": "x", "cells": []}"#,
            r#"{"schema_version": 1, "driver": "x", "config": {}}"#,
        ] {
            let v = json::parse(bad).unwrap();
            assert!(Artifact::from_json(&v).is_err(), "{bad}");
        }
        // Driver-name mismatch on load.
        let dir = std::env::temp_dir().join("ocelot-artifact-mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let a = Artifact::new("actual", vec![]);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("claimed.json"), a.render().unwrap()).unwrap();
        assert!(matches!(
            Artifact::load(&dir, "claimed"),
            Err(ArtifactError::Schema(_))
        ));
        assert!(matches!(
            Artifact::load(&dir, "nonexistent"),
            Err(ArtifactError::Io(..))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
