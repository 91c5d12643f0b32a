//! Experiment result records with deterministic JSON serialization.
//!
//! A record is the full, self-describing outcome of one engine run: the
//! spec echo (scenario, geometry, noise, decoder, seed), the circuit/DEM
//! shape and the decode statistics. Serialization goes through the crate's
//! one JSON codec ([`crate::jobs::Json`]) with a fixed key order and
//! shortest-round-trip float formatting, so for a given spec the JSON is
//! **byte-identical across runs, platforms and thread counts** — the
//! property the engine's determinism tests pin.
//! [`ExperimentRecord::from_json`] parses the same format back losslessly
//! (`from_json ∘ to_json = id`, proptest-pinned), which is what lets the
//! sweep orchestrator's on-disk cache replay records byte-for-byte.

use crate::json::{
    num, obj, req_bool, req_f64, req_opt_f64, req_str, req_u64_str, req_usize, s, unum, Json,
};
use crate::spec::{basis_from_label, basis_label};
use raa_decode::DecodeStats;
use raa_surface::experiments::per_unit_rate;
use raa_surface::{Basis, NoiseModel};

/// The result of running one [`crate::ExperimentSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Spec name.
    pub name: String,
    /// Scenario label ("memory", "transversal_cnot", "ghz_fanout").
    pub scenario: String,
    /// Code distance.
    pub distance: u32,
    /// Logical basis protected.
    pub basis: Basis,
    /// Number of logical patches.
    pub patches: usize,
    /// Transversal CNOTs in the circuit (0 for memory).
    pub cnots: usize,
    /// Syndrome-extraction rounds executed.
    pub se_rounds: usize,
    /// CNOTs per SE round (the paper's `x`), when the scenario has one.
    pub cnots_per_round: Option<f64>,
    /// Circuit-level noise strengths.
    pub noise: NoiseModel,
    /// Decoder label.
    pub decoder: String,
    /// Sampling-path label ("dem", "circuit").
    pub sampler: String,
    /// Whether the Monte-Carlo decode streamed one time layer at a time
    /// (bounded-memory windowed pipeline) instead of materializing whole
    /// batches.
    pub streaming: bool,
    /// Spec seed.
    pub seed: u64,
    /// Detectors in the circuit.
    pub num_detectors: usize,
    /// Error mechanisms in the extracted DEM.
    pub num_dem_errors: usize,
    /// Hyperedges needing arbitrary pairing during graphlike decomposition.
    pub arbitrary_decompositions: usize,
    /// Shots decoded.
    pub shots: usize,
    /// Shots where the decoder mispredicted the observable mask.
    pub failures: usize,
}

impl ExperimentRecord {
    /// The decode statistics the record carries.
    fn stats(&self) -> DecodeStats {
        DecodeStats {
            shots: self.shots,
            failures: self.failures,
        }
    }

    /// The logical error rate estimate (failures / shots).
    pub fn logical_error_rate(&self) -> f64 {
        self.stats().logical_error_rate()
    }

    /// Binomial standard error of the estimate.
    pub fn standard_error(&self) -> f64 {
        self.stats().standard_error()
    }

    /// Logical error rate per logical qubit per SE round, assuming
    /// independent additive errors.
    pub fn error_per_qubit_round(&self) -> f64 {
        per_unit_rate(
            self.logical_error_rate(),
            (self.patches * self.se_rounds) as f64,
        )
    }

    /// Logical error rate per transversal CNOT, when the circuit has any.
    pub fn error_per_cnot(&self) -> Option<f64> {
        (self.cnots > 0).then(|| per_unit_rate(self.logical_error_rate(), self.cnots as f64))
    }

    /// Serializes the record to one line of JSON with a fixed key order.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or(Json::Null, num);
        obj(vec![
            ("name", s(&self.name)),
            ("scenario", s(&self.scenario)),
            ("distance", num(f64::from(self.distance))),
            ("basis", s(basis_label(self.basis))),
            ("patches", unum(self.patches)),
            ("cnots", unum(self.cnots)),
            ("se_rounds", unum(self.se_rounds)),
            ("cnots_per_round", opt(self.cnots_per_round)),
            ("p2", num(self.noise.p2)),
            ("p_idle", num(self.noise.p_idle)),
            ("p_prep", num(self.noise.p_prep)),
            ("p_meas", num(self.noise.p_meas)),
            ("decoder", s(&self.decoder)),
            ("sampler", s(&self.sampler)),
            ("streaming", Json::Bool(self.streaming)),
            // u64 seeds overflow JSON's interoperable double range: keep as text.
            ("seed", s(self.seed.to_string())),
            ("num_detectors", unum(self.num_detectors)),
            ("num_dem_errors", unum(self.num_dem_errors)),
            (
                "arbitrary_decompositions",
                unum(self.arbitrary_decompositions),
            ),
            ("shots", unum(self.shots)),
            ("failures", unum(self.failures)),
            ("logical_error_rate", num(self.logical_error_rate())),
            ("standard_error", num(self.standard_error())),
            ("error_per_qubit_round", num(self.error_per_qubit_round())),
            ("error_per_cnot", opt(self.error_per_cnot())),
        ])
        .to_line()
    }

    /// Parses a record from the JSON produced by [`ExperimentRecord::to_json`].
    ///
    /// Accepts any JSON object holding the record fields (keys in any
    /// order, unknown keys ignored — derived rates like
    /// `logical_error_rate` are recomputed, not read back). Because
    /// `to_json` uses shortest round-trip float formatting and text-encodes
    /// the `seed` (u64 values overflow JSON's interoperable double range),
    /// the composition `from_json ∘ to_json` is the identity, field for
    /// field and therefore byte for byte on re-serialization.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found, naming the field:
    /// malformed JSON, a missing required field, or a field value of the
    /// wrong type/range (e.g. a fractional `shots`, a seed that is not a
    /// `u64`, an unknown `basis` letter).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        Ok(ExperimentRecord {
            name: req_str(&v, "name")?,
            scenario: req_str(&v, "scenario")?,
            distance: u32::try_from(req_usize(&v, "distance")?)
                .map_err(|_| "field \"distance\" exceeds u32")?,
            basis: basis_from_label(&req_str(&v, "basis")?)
                .map_err(|e| format!("field \"basis\": {e}"))?,
            patches: req_usize(&v, "patches")?,
            cnots: req_usize(&v, "cnots")?,
            se_rounds: req_usize(&v, "se_rounds")?,
            cnots_per_round: req_opt_f64(&v, "cnots_per_round")?,
            noise: NoiseModel {
                p2: req_f64(&v, "p2")?,
                p_idle: req_f64(&v, "p_idle")?,
                p_prep: req_f64(&v, "p_prep")?,
                p_meas: req_f64(&v, "p_meas")?,
            },
            decoder: req_str(&v, "decoder")?,
            sampler: req_str(&v, "sampler")?,
            streaming: req_bool(&v, "streaming")?,
            seed: req_u64_str(&v, "seed")?,
            num_detectors: req_usize(&v, "num_detectors")?,
            num_dem_errors: req_usize(&v, "num_dem_errors")?,
            arbitrary_decompositions: req_usize(&v, "arbitrary_decompositions")?,
            shots: req_usize(&v, "shots")?,
            failures: req_usize(&v, "failures")?,
        })
    }
}

/// Serializes records as newline-delimited JSON (one record per line).
pub fn to_json_lines(records: &[ExperimentRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Parses newline-delimited JSON records ([`to_json_lines`] output); blank
/// lines are skipped. Fails on the first malformed record, identifying its
/// line number.
pub fn parse_json_lines(text: &str) -> Result<Vec<ExperimentRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            ExperimentRecord::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record() -> ExperimentRecord {
        ExperimentRecord {
            name: "t/d3".into(),
            scenario: "memory".into(),
            distance: 3,
            basis: Basis::Z,
            patches: 1,
            cnots: 0,
            se_rounds: 6,
            cnots_per_round: None,
            noise: NoiseModel::uniform(1e-3),
            decoder: "union_find".into(),
            sampler: "dem".into(),
            streaming: false,
            seed: u64::MAX,
            num_detectors: 24,
            num_dem_errors: 100,
            arbitrary_decompositions: 0,
            shots: 10_000,
            failures: 25,
        }
    }

    #[test]
    fn derived_rates() {
        let r = record();
        assert!((r.logical_error_rate() - 0.0025).abs() < 1e-12);
        assert!(r.standard_error() > 0.0);
        assert!(r.error_per_qubit_round() > 0.0);
        assert!(r.error_per_qubit_round() < r.logical_error_rate());
        assert_eq!(r.error_per_cnot(), None);
        let mut with_cnots = record();
        with_cnots.cnots = 8;
        assert!(with_cnots.error_per_cnot().unwrap() > 0.0);
    }

    #[test]
    fn json_shape() {
        let j = record().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"name\":\"t/d3\""));
        assert!(j.contains("\"cnots_per_round\":null"));
        assert!(j.contains("\"sampler\":\"dem\""));
        assert!(j.contains("\"streaming\":false"));
        let mut streamed = record();
        streamed.streaming = true;
        assert!(streamed.to_json().contains("\"streaming\":true"));
        assert!(j.contains("\"seed\":\"18446744073709551615\""));
        assert!(j.contains("\"p2\":0.001"));
        assert!(j.contains("\"failures\":25"));
        assert!(!j.contains(",}"), "no trailing comma: {j}");
    }

    /// The exact bytes of two records: on-disk caches and the daemon's wire
    /// replay depend on this layout (key order, escaping, float formatting,
    /// text-encoded seed), so any change to it must show up here.
    #[test]
    fn json_golden_bytes() {
        let mut escaped = record();
        escaped.name = "gold/\"q\"\\p\n\t\r\u{1}é".into();
        escaped.noise = NoiseModel {
            p2: 1e-3,
            p_idle: 2.5e-4,
            p_prep: 0.002,
            p_meas: 0.0015,
        };
        escaped.failures = 37;
        assert_eq!(
            escaped.to_json(),
            r#"{"name":"gold/\"q\"\\p\n\t\r\u0001é","scenario":"memory","distance":3,"basis":"Z","patches":1,"cnots":0,"se_rounds":6,"cnots_per_round":null,"p2":0.001,"p_idle":0.00025,"p_prep":0.002,"p_meas":0.0015,"decoder":"union_find","sampler":"dem","streaming":false,"seed":"18446744073709551615","num_detectors":24,"num_dem_errors":100,"arbitrary_decompositions":0,"shots":10000,"failures":37,"logical_error_rate":0.0037,"standard_error":0.0006071498991188255,"error_per_qubit_round":0.0006176195163867249,"error_per_cnot":null}"#
        );
        let mut streamed = record();
        streamed.name = "gold/deep".into();
        streamed.scenario = "deep_cnot".into();
        streamed.distance = 7;
        streamed.basis = Basis::X;
        streamed.patches = 2;
        streamed.cnots = 34;
        streamed.se_rounds = 70;
        streamed.cnots_per_round = Some(0.5);
        streamed.decoder = "windowed_7+7".into();
        streamed.streaming = true;
        streamed.seed = 12_345;
        streamed.num_detectors = 3_360;
        streamed.num_dem_errors = 40_321;
        streamed.arbitrary_decompositions = 3;
        streamed.shots = 2_048;
        streamed.failures = 5;
        assert_eq!(
            streamed.to_json(),
            r#"{"name":"gold/deep","scenario":"deep_cnot","distance":7,"basis":"X","patches":2,"cnots":34,"se_rounds":70,"cnots_per_round":0.5,"p2":0.001,"p_idle":0.001,"p_prep":0.001,"p_meas":0.001,"decoder":"windowed_7+7","sampler":"dem","streaming":true,"seed":"12345","num_detectors":3360,"num_dem_errors":40321,"arbitrary_decompositions":3,"shots":2048,"failures":5,"logical_error_rate":0.00244140625,"standard_error":0.0010904964522923213,"error_per_qubit_round":0.000017459785731754884,"error_per_cnot":0.00007189127869156042}"#
        );
    }

    #[test]
    fn json_escapes_strings() {
        let mut r = record();
        r.name = "a\"b\\c\nd".into();
        let j = r.to_json();
        assert!(j.contains(r#""name":"a\"b\\c\nd""#), "{j}");
    }

    #[test]
    fn json_lines_one_per_record() {
        let lines = to_json_lines(&[record(), record()]);
        assert_eq!(lines.lines().count(), 2);
        for line in lines.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn zero_shot_record_is_safe() {
        let mut r = record();
        r.shots = 0;
        r.failures = 0;
        assert_eq!(r.logical_error_rate(), 0.0);
        assert_eq!(r.standard_error(), 0.0);
        assert!(r.to_json().contains("\"logical_error_rate\":0"));
    }

    #[test]
    fn from_json_round_trips_sample_record() {
        let r = record();
        let parsed = ExperimentRecord::from_json(&r.to_json()).expect("well-formed");
        assert_eq!(parsed, r);
        // And the bytes themselves survive a second serialization.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn from_json_round_trips_tricky_fields() {
        let mut r = record();
        // The fields most likely to lose information in a JSON trip: a u64
        // seed beyond 2^53 (text-encoded), a present cnots_per_round, a
        // name needing escapes, an X basis and the streaming flag.
        r.seed = u64::MAX - 1;
        r.cnots = 8;
        r.cnots_per_round = Some(1.25);
        r.name = "a\"b\\c\nd\té\u{1}".into();
        r.basis = Basis::X;
        r.streaming = true;
        let parsed = ExperimentRecord::from_json(&r.to_json()).expect("well-formed");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn from_json_accepts_unknown_keys_and_any_order() {
        let j = r#"{"shots":10,"failures":1,"name":"n","scenario":"memory","distance":3,
            "basis":"Z","patches":1,"cnots":0,"se_rounds":2,"cnots_per_round":null,
            "p2":0.001,"p_idle":0.001,"p_prep":0.001,"p_meas":0.001,
            "decoder":"union_find","sampler":"dem","streaming":false,"seed":"7",
            "num_detectors":8,"num_dem_errors":40,"arbitrary_decompositions":0,
            "future_field":"ignored","logical_error_rate":0.1}"#
            .replace('\n', "");
        let r = ExperimentRecord::from_json(&j).expect("unknown keys are fine");
        assert_eq!(r.shots, 10);
        assert_eq!(r.seed, 7);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        let good = record().to_json();
        assert!(ExperimentRecord::from_json("").is_err());
        assert!(ExperimentRecord::from_json("[]").is_err());
        assert!(
            ExperimentRecord::from_json(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        assert!(
            ExperimentRecord::from_json(&format!("{good}x")).is_err(),
            "trailing bytes"
        );
        let missing = good.replace("\"shots\":10000,", "");
        assert!(ExperimentRecord::from_json(&missing)
            .unwrap_err()
            .contains("shots"));
        let bad_seed = good.replace(
            "\"seed\":\"18446744073709551615\"",
            "\"seed\":\"not-a-number\"",
        );
        assert!(ExperimentRecord::from_json(&bad_seed)
            .unwrap_err()
            .contains("seed"));
        let bad_basis = good.replace("\"basis\":\"Z\"", "\"basis\":\"Y\"");
        assert!(ExperimentRecord::from_json(&bad_basis)
            .unwrap_err()
            .contains("basis"));
        let fractional = good.replace("\"shots\":10000", "\"shots\":10000.5");
        assert!(ExperimentRecord::from_json(&fractional)
            .unwrap_err()
            .contains("shots"));
    }

    #[test]
    fn parse_json_lines_round_trips_and_reports_line_numbers() {
        let records = vec![record(), record()];
        let text = to_json_lines(&records);
        assert_eq!(parse_json_lines(&text).expect("well-formed"), records);
        let broken = format!("{}\nnot json\n", records[0].to_json());
        assert!(parse_json_lines(&broken).unwrap_err().starts_with("line 2"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `from_json ∘ to_json = id` over randomized records, including
        /// escape-heavy names, u64 seeds, optional fields and arbitrary
        /// shortest-round-trip floats.
        #[test]
        fn json_round_trip_is_identity(
            name_bytes in collection::vec(0u8..100, 0..12),
            seed in any::<u64>(),
            geometry in (3u32..40, 1usize..6, 0usize..200, 1usize..400),
            noise in (0.0f64..0.1, 0.0f64..0.1, 0.0f64..0.1, 0.0f64..0.1),
            x_and_flags in (0.05f64..8.0, any::<bool>(), any::<bool>(), any::<bool>()),
            counts in (0usize..100_000, 0u32..1_000, 0usize..5_000, 0usize..10_000),
            scenario_idx in 0usize..11,
        ) {
            let name: String = name_bytes
                .iter()
                .map(|&b| match b {
                    0..=94 => (32 + b) as char, // printable ASCII incl. " and \
                    95 => '\n',
                    96 => '\t',
                    97 => '\r',
                    98 => '\u{1}', // control char ->  escape
                    _ => 'λ',      // multi-byte UTF-8
                })
                .collect();
            let (x, has_x, streaming, basis_x) = x_and_flags;
            let (shots, failure_frac, detectors, dem_errors) = counts;
            // Every label the engine emits, including the factory/gadget
            // skeletons and the [[8,3,2]] block.
            let scenario = [
                "memory", "transversal_cnot", "ghz_fanout", "deep_cnot",
                "factory_distill15", "factory_ccz", "factory_cultivation",
                "gadget_adder", "gadget_lookup", "gadget_fanout",
                "code832_memory",
            ][scenario_idx];
            let record = ExperimentRecord {
                name,
                scenario: scenario.into(),
                distance: geometry.0,
                basis: if basis_x { Basis::X } else { Basis::Z },
                patches: geometry.1,
                cnots: geometry.2,
                se_rounds: geometry.3,
                cnots_per_round: has_x.then_some(x),
                noise: NoiseModel {
                    p2: noise.0,
                    p_idle: noise.1,
                    p_prep: noise.2,
                    p_meas: noise.3,
                },
                decoder: "windowed_2+3".into(),
                sampler: "dem".into(),
                streaming,
                seed,
                num_detectors: detectors,
                num_dem_errors: dem_errors,
                arbitrary_decompositions: 0,
                shots,
                failures: shots * failure_frac as usize / 1_000,
            };
            let json = record.to_json();
            let parsed = ExperimentRecord::from_json(&json).expect("own output parses");
            prop_assert_eq!(&parsed, &record, "json: {}", json);
            prop_assert_eq!(parsed.to_json(), json);
        }
    }
}
