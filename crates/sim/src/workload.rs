//! Arrival processes for inference request streams.

use crate::error::SimError;
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// How a stream generates requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate_hz` requests per second.
    Poisson {
        /// Mean arrival rate, requests/s.
        rate_hz: f64,
    },
    /// Near-periodic arrivals (camera-style) with uniform jitter.
    Periodic {
        /// Nominal inter-frame period, seconds.
        period_s: f64,
        /// Jitter as a fraction of the period, in `[0, 1]` (`0.0` =
        /// strictly periodic).
        jitter_frac: f64,
    },
    /// Two-state Markov-modulated Poisson process (bursty traffic).
    Mmpp2 {
        /// Arrival rate in the calm state, requests/s.
        rate_low: f64,
        /// Arrival rate in the bursty state, requests/s.
        rate_high: f64,
        /// Rate of switching between states, 1/s.
        switch_rate: f64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate in requests/s.
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_hz } => *rate_hz,
            ArrivalProcess::Periodic { period_s, .. } => 1.0 / period_s,
            ArrivalProcess::Mmpp2 {
                rate_low,
                rate_high,
                ..
            } => 0.5 * (rate_low + rate_high),
        }
    }

    /// Check parameters are finite and in range.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |detail: String| SimError::InvalidArrival { detail };
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                if !rate_hz.is_finite() || *rate_hz <= 0.0 {
                    return Err(bad(format!("Poisson rate must be positive, got {rate_hz}")));
                }
            }
            ArrivalProcess::Periodic {
                period_s,
                jitter_frac,
            } => {
                if !period_s.is_finite() || *period_s <= 0.0 {
                    return Err(bad(format!("period must be positive, got {period_s}")));
                }
                if !(0.0..=1.0).contains(jitter_frac) {
                    return Err(bad(format!(
                        "jitter fraction must lie in [0, 1], got {jitter_frac}"
                    )));
                }
            }
            ArrivalProcess::Mmpp2 {
                rate_low,
                rate_high,
                switch_rate,
            } => {
                for (name, r) in [
                    ("rate_low", rate_low),
                    ("rate_high", rate_high),
                    ("switch_rate", switch_rate),
                ] {
                    if !r.is_finite() || *r <= 0.0 {
                        return Err(bad(format!("MMPP {name} must be positive, got {r}")));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The mutable state of an arrival process: everything `next_gap` needs
/// beyond the (immutable, shareable) process parameters. `Copy`, so the
/// simulator keeps one per stream in flat scratch storage.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArrivalState {
    mmpp_high: bool,
    mmpp_residual: f64,
}

impl ArrivalState {
    /// Sample the next inter-arrival gap of `process` in seconds.
    pub(crate) fn next_gap(&mut self, process: &ArrivalProcess, rng: &mut SimRng) -> f64 {
        match process {
            ArrivalProcess::Poisson { rate_hz } => rng.exponential(*rate_hz),
            ArrivalProcess::Periodic {
                period_s,
                jitter_frac,
            } => period_s * (1.0 + rng.uniform(-jitter_frac, *jitter_frac)),
            ArrivalProcess::Mmpp2 {
                rate_low,
                rate_high,
                switch_rate,
            } => {
                // Competing exponentials: next arrival vs next state switch.
                let mut gap = self.mmpp_residual;
                self.mmpp_residual = 0.0;
                loop {
                    let rate = if self.mmpp_high {
                        *rate_high
                    } else {
                        *rate_low
                    };
                    let to_arrival = rng.exponential(rate);
                    let to_switch = rng.exponential(*switch_rate);
                    if to_arrival <= to_switch {
                        return gap + to_arrival;
                    }
                    gap += to_switch;
                    self.mmpp_high = !self.mmpp_high;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap(p: &ArrivalProcess, n: usize) -> f64 {
        let mut rng = SimRng::new(7, 0);
        let mut g = ArrivalState::default();
        (0..n).map(|_| g.next_gap(p, &mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let p = ArrivalProcess::Poisson { rate_hz: 8.0 };
        assert!((mean_gap(&p, 100_000) - 0.125).abs() < 0.005);
        assert_eq!(p.mean_rate(), 8.0);
    }

    #[test]
    fn periodic_stays_within_jitter() {
        let p = ArrivalProcess::Periodic {
            period_s: 0.1,
            jitter_frac: 0.2,
        };
        let mut rng = SimRng::new(1, 0);
        let mut g = ArrivalState::default();
        for _ in 0..1000 {
            let gap = g.next_gap(&p, &mut rng);
            assert!((0.08..=0.12).contains(&gap), "gap {gap}");
        }
        assert!((p.mean_rate() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mmpp_mean_rate_between_states() {
        let p = ArrivalProcess::Mmpp2 {
            rate_low: 2.0,
            rate_high: 18.0,
            switch_rate: 1.0,
        };
        let m = mean_gap(&p, 200_000);
        // long-run rate = 10/s -> mean gap 0.1 s
        assert!((m - 0.1).abs() < 0.01, "mean gap {m}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let poisson = ArrivalProcess::Poisson { rate_hz: 10.0 };
        let mmpp = ArrivalProcess::Mmpp2 {
            rate_low: 2.0,
            rate_high: 18.0,
            switch_rate: 0.5,
        };
        let var = |p: &ArrivalProcess| {
            let mut rng = SimRng::new(3, 0);
            let mut g = ArrivalState::default();
            let gaps: Vec<f64> = (0..100_000).map(|_| g.next_gap(p, &mut rng)).collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            gaps.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / gaps.len() as f64
        };
        assert!(var(&mmpp) > var(&poisson));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(ArrivalProcess::Poisson { rate_hz: 4.0 }.validate().is_ok());
        assert!(ArrivalProcess::Poisson { rate_hz: 0.0 }.validate().is_err());
        assert!(ArrivalProcess::Poisson {
            rate_hz: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Periodic {
            period_s: 0.1,
            jitter_frac: 0.2
        }
        .validate()
        .is_ok());
        assert!(ArrivalProcess::Periodic {
            period_s: 0.0,
            jitter_frac: 0.2
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Periodic {
            period_s: 0.1,
            jitter_frac: -0.5
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Periodic {
            period_s: 0.1,
            jitter_frac: 1.0
        }
        .validate()
        .is_ok());
        assert!(ArrivalProcess::Periodic {
            period_s: 0.1,
            jitter_frac: 1.5
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Mmpp2 {
            rate_low: 2.0,
            rate_high: 18.0,
            switch_rate: 1.0
        }
        .validate()
        .is_ok());
        assert!(ArrivalProcess::Mmpp2 {
            rate_low: 2.0,
            rate_high: f64::NAN,
            switch_rate: 1.0
        }
        .validate()
        .is_err());
    }
}
