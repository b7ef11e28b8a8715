//! The analytic speedup model of §4.4 (Figure 5).
//!
//! If performance is determined purely by the number of coherence messages
//! on the critical path, and
//!
//! * `p` — prediction accuracy per message,
//! * `f` — fraction of delay still incurred by correctly-predicted
//!   messages (`f = 0` means fully overlapped),
//! * `r` — extra penalty on mispredicted messages (`r = 0.5` ⇒ 1.5× delay),
//!
//! then
//!
//! ```text
//! time(without prediction) / time(with prediction) = 1 / (p·f + (1−p)·(1+r))
//! ```

/// Model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupParams {
    /// Prediction accuracy per message, in [0, 1].
    pub p: f64,
    /// Fraction of delay on correctly-predicted messages, in [0, 1].
    pub f: f64,
    /// Mispredicted-message penalty, ≥ 0.
    pub r: f64,
}

/// A parameter outside the model's documented domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedupError {
    /// `p` outside `[0, 1]` (or NaN).
    AccuracyOutOfRange(f64),
    /// `f` outside `[0, 1]` (or NaN).
    DelayFractionOutOfRange(f64),
    /// `r` negative (or NaN).
    PenaltyNegative(f64),
}

impl std::fmt::Display for SpeedupError {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpeedupError::AccuracyOutOfRange(p) => {
                write!(out, "accuracy p = {p} outside [0, 1]")
            }
            SpeedupError::DelayFractionOutOfRange(f) => {
                write!(out, "delay fraction f = {f} outside [0, 1]")
            }
            SpeedupError::PenaltyNegative(r) => write!(out, "penalty r = {r} negative"),
        }
    }
}

impl std::error::Error for SpeedupError {}

/// The speedup ratio `time(without) / time(with)`, or an error if any
/// parameter is outside its documented range — the checked entry point for
/// callers fed by untrusted input (CLI flags, config files).
pub fn try_speedup(params: SpeedupParams) -> Result<f64, SpeedupError> {
    let SpeedupParams { p, f, r } = params;
    if !(0.0..=1.0).contains(&p) {
        return Err(SpeedupError::AccuracyOutOfRange(p));
    }
    if !(0.0..=1.0).contains(&f) {
        return Err(SpeedupError::DelayFractionOutOfRange(f));
    }
    if r < 0.0 || r.is_nan() {
        return Err(SpeedupError::PenaltyNegative(r));
    }
    let denom = p * f + (1.0 - p) * (1.0 + r);
    if denom <= 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(1.0 / denom)
}

/// The speedup ratio `time(without) / time(with)`.
///
/// # Panics
///
/// Panics — in every build profile — on parameters outside their
/// documented ranges. (These checks were previously `debug_assert!`s, so
/// release builds silently produced garbage ratios for out-of-range
/// inputs, e.g. a *negative* "speedup" for `p > 1`.) A non-positive
/// denominator requires `p = 1` and `f = 0`; infinite speedup is out of
/// the model's scope, so the function returns `f64::INFINITY` there
/// instead of panicking. Use [`try_speedup`] to handle bad parameters
/// without panicking.
pub fn speedup(params: SpeedupParams) -> f64 {
    match try_speedup(params) {
        Ok(s) => s,
        Err(e) => panic!("speedup model: {e}"),
    }
}

/// One point of a Figure 5 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The parameters at this point.
    pub params: SpeedupParams,
    /// The resulting speedup ratio.
    pub speedup: f64,
}

/// Sweeps `f` across `[0, 1]` for each penalty in `penalties`, at fixed
/// accuracy `p` — the series Figure 5 plots (the paper fixes `p = 0.8`).
pub fn figure5_sweep(p: f64, penalties: &[f64], f_steps: usize) -> Vec<Vec<SweepPoint>> {
    assert!(f_steps >= 2, "a sweep needs at least two points");
    penalties
        .iter()
        .map(|&r| {
            (0..f_steps)
                .map(|i| {
                    let f = i as f64 / (f_steps - 1) as f64;
                    let params = SpeedupParams { p, f, r };
                    SweepPoint {
                        params,
                        speedup: speedup(params),
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_number() {
        // §4.4: p = 0.8, r = 1, f = 0.3 ⇒ speedup "as high as 56%".
        let s = speedup(SpeedupParams {
            p: 0.8,
            f: 0.3,
            r: 1.0,
        });
        let percent = (s - 1.0) * 100.0;
        assert!((percent - 56.25).abs() < 0.01, "got {percent}%");
    }

    #[test]
    fn no_prediction_benefit_when_f_is_one_and_r_zero() {
        // Correct predictions save nothing and mispredictions cost nothing:
        // the model degenerates to no change.
        let s = speedup(SpeedupParams {
            p: 0.8,
            f: 1.0,
            r: 0.0,
        });
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn higher_accuracy_never_hurts() {
        for f in [0.0, 0.3, 0.7] {
            for r in [0.0, 0.5, 1.0] {
                let lo = speedup(SpeedupParams { p: 0.5, f, r });
                let hi = speedup(SpeedupParams { p: 0.9, f, r });
                // With f <= 1 <= 1 + r, more accuracy means less time.
                assert!(hi >= lo, "f={f} r={r}: {hi} < {lo}");
            }
        }
    }

    #[test]
    fn perfect_overlapped_prediction_is_unbounded() {
        assert!(speedup(SpeedupParams {
            p: 1.0,
            f: 0.0,
            r: 9.0
        })
        .is_infinite());
    }

    #[test]
    fn misprediction_penalty_can_cause_slowdown() {
        // Low accuracy + heavy penalty + little overlap benefit: slower.
        let s = speedup(SpeedupParams {
            p: 0.2,
            f: 1.0,
            r: 1.0,
        });
        assert!(s < 1.0);
    }

    #[test]
    fn sweep_shape() {
        let series = figure5_sweep(0.8, &[0.0, 0.5, 1.0], 11);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].len(), 11);
        // Speedup decreases as f grows (less overlap benefit).
        for s in &series {
            for w in s.windows(2) {
                assert!(w[0].speedup >= w[1].speedup);
            }
        }
        // And decreases with penalty at fixed f.
        assert!(series[0][5].speedup >= series[2][5].speedup);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn degenerate_sweep_rejected() {
        let _ = figure5_sweep(0.8, &[0.0], 1);
    }

    // Range checks must hold in release builds too: as `debug_assert!`s
    // they vanished under `--release`, and e.g. `p = 1.2` yielded a
    // negative denominator and a nonsensical negative "speedup".

    #[test]
    #[should_panic(expected = "accuracy p")]
    fn accuracy_above_one_panics_in_all_profiles() {
        let _ = speedup(SpeedupParams {
            p: 1.2,
            f: 0.3,
            r: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "delay fraction f")]
    fn negative_delay_fraction_panics_in_all_profiles() {
        let _ = speedup(SpeedupParams {
            p: 0.8,
            f: -0.1,
            r: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "penalty r")]
    fn negative_penalty_panics_in_all_profiles() {
        let _ = speedup(SpeedupParams {
            p: 0.8,
            f: 0.3,
            r: -1.0,
        });
    }

    #[test]
    fn try_speedup_reports_each_violation() {
        let ok = SpeedupParams {
            p: 0.8,
            f: 0.3,
            r: 1.0,
        };
        assert_eq!(try_speedup(ok), Ok(speedup(ok)));
        assert_eq!(
            try_speedup(SpeedupParams { p: -0.1, ..ok }),
            Err(SpeedupError::AccuracyOutOfRange(-0.1))
        );
        assert_eq!(
            try_speedup(SpeedupParams { f: 1.5, ..ok }),
            Err(SpeedupError::DelayFractionOutOfRange(1.5))
        );
        assert_eq!(
            try_speedup(SpeedupParams { r: -0.5, ..ok }),
            Err(SpeedupError::PenaltyNegative(-0.5))
        );
        assert!(try_speedup(SpeedupParams { p: f64::NAN, ..ok }).is_err());
        let msg = SpeedupError::PenaltyNegative(-0.5).to_string();
        assert!(msg.contains("penalty"), "{msg}");
    }
}
