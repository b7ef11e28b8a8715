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

/// The speedup ratio `time(without) / time(with)`.
///
/// # Panics
///
/// Panics — in every build profile — on parameters outside their
/// documented ranges (`p > 1` would give a *negative* "speedup"). A
/// non-positive denominator requires `p = 1` and `f = 0`; infinite
/// speedup is out of the model's scope, so the function returns
/// `f64::INFINITY` there instead of panicking.
pub fn speedup(params: SpeedupParams) -> f64 {
    let SpeedupParams { p, f, r } = params;
    assert!(
        (0.0..=1.0).contains(&p),
        "speedup model: accuracy p = {p} outside [0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&f),
        "speedup model: delay fraction f = {f} outside [0, 1]"
    );
    assert!(r >= 0.0, "speedup model: penalty r = {r} negative");
    let denom = p * f + (1.0 - p) * (1.0 + r);
    if denom <= 0.0 {
        return f64::INFINITY;
    }
    1.0 / denom
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
    #[should_panic(expected = "speedup model: accuracy p = NaN outside [0, 1]")]
    fn nan_accuracy_panics() {
        let _ = speedup(SpeedupParams {
            p: f64::NAN,
            f: 0.3,
            r: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "speedup model: penalty r = NaN negative")]
    fn nan_penalty_panics() {
        let _ = speedup(SpeedupParams {
            p: 0.8,
            f: 0.3,
            r: f64::NAN,
        });
    }
}
