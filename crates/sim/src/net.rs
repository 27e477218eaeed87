//! Wireless uplink model.
//!
//! Each device talks to its access point over a log-distance path-loss
//! channel with Rayleigh fading; APs divide their spectrum among their
//! devices by FDMA shares (the bandwidth-allocation knob). Because thermal
//! noise scales with the allocated band, the SNR is independent of the
//! share and the achievable rate is *linear* in it — which is exactly the
//! property the convex bandwidth allocator in `scalpel-alloc` relies on.

use serde::{Deserialize, Serialize};

/// Thermal noise density at room temperature, dBm/Hz.
const NOISE_DBM_PER_HZ: f64 = -174.0;

/// Device transmit power, dBm (Wi-Fi class).
const TX_POWER_DBM: f64 = 20.0;

/// Path loss at the 1 m reference distance, dB.
const REF_LOSS_DB: f64 = 40.0;

/// Path-loss exponent (≈2 free space, 3–4 indoor).
const PATH_LOSS_EXP: f64 = 3.5;

/// A Wi-Fi-class device↔AP link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Full AP spectrum in Hz (the share multiplies this).
    pub bandwidth_hz: f64,
    /// Device–AP distance in meters.
    pub distance_m: f64,
}

impl LinkModel {
    /// A Wi-Fi-class link over `bandwidth_hz` at `distance_m` (clamped to
    /// the 1 m reference distance).
    pub fn wifi(bandwidth_hz: f64, distance_m: f64) -> Self {
        Self {
            bandwidth_hz,
            distance_m: distance_m.max(1.0),
        }
    }

    /// Mean signal-to-noise ratio (linear) over the allocated band.
    fn mean_snr(&self) -> f64 {
        let path_loss_db = REF_LOSS_DB + 10.0 * PATH_LOSS_EXP * self.distance_m.log10();
        let rx_dbm = TX_POWER_DBM - path_loss_db;
        let noise_dbm = NOISE_DBM_PER_HZ + 10.0 * self.bandwidth_hz.log10();
        10f64.powf((rx_dbm - noise_dbm) / 10.0)
    }

    /// Shannon rate in bits/s for a bandwidth `share ∈ (0,1]` under the
    /// instantaneous fading power multiplier (unit mean).
    fn rate_bps(&self, share: f64, fading_power: f64) -> f64 {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&share));
        if share <= 0.0 {
            return 0.0;
        }
        let snr = self.mean_snr() * fading_power;
        share * self.bandwidth_hz * (1.0 + snr).log2()
    }

    /// Mean rate at unit fading — what the allocator plans with.
    pub fn mean_rate_bps(&self, share: f64) -> f64 {
        self.rate_bps(share, 1.0)
    }

    /// Seconds to move `bytes` at the given share and fading.
    pub fn tx_seconds(&self, bytes: f64, share: f64, fading_power: f64) -> f64 {
        let rate = self.rate_bps(share, fading_power);
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        bytes * 8.0 / rate
    }

    /// Pre-evaluate the static channel math. `mean_snr` depends only on
    /// link constants (power, path loss, distance, spectrum), yet
    /// `LinkModel::rate_bps` re-derives it — two `log10`s and a `powf`
    /// — on every call. A [`CachedLink`] pays that once, leaving at most
    /// one `log2` per transmission; the cached values are exactly the
    /// f64s the uncached path would recompute, so rates (and therefore
    /// simulations) are bit-identical.
    pub fn cached(&self) -> CachedLink {
        let snr = self.mean_snr();
        CachedLink {
            bandwidth_hz: self.bandwidth_hz,
            mean_snr: snr,
            unit_eff: (1.0 + snr).log2(),
        }
    }
}

/// A [`LinkModel`] with its static channel math pre-evaluated for the
/// per-transmission hot path. Build with [`LinkModel::cached`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedLink {
    /// Full AP spectrum in Hz (the share multiplies this).
    pub bandwidth_hz: f64,
    /// Mean SNR (linear) over the allocated band.
    pub mean_snr: f64,
    /// Spectral efficiency at unit fading: `(1 + mean_snr).log2()`.
    unit_eff: f64,
}

impl CachedLink {
    /// Shannon rate in bits/s; bit-identical to the uncached
    /// [`LinkModel`] rate.
    fn rate_bps(&self, share: f64, fading_power: f64) -> f64 {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&share));
        if share <= 0.0 {
            return 0.0;
        }
        // `snr * 1.0 == snr` bit-for-bit, so the unit-fading shortcut
        // returns exactly what the log2 below would.
        let eff = if fading_power == 1.0 {
            self.unit_eff
        } else {
            (1.0 + self.mean_snr * fading_power).log2()
        };
        share * self.bandwidth_hz * eff
    }

    /// Seconds to move `bytes`; bit-identical to [`LinkModel::tx_seconds`].
    pub fn tx_seconds(&self, bytes: f64, share: f64, fading_power: f64) -> f64 {
        let rate = self.rate_bps(share, fading_power);
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        bytes * 8.0 / rate
    }
}

/// Columnar form of a device-indexed [`CachedLink`] table: the three
/// pre-evaluated channel constants as parallel columns, so the
/// per-transmission hot path reads three dense f64 lanes instead of
/// striding over an array of structs. Values are the exact f64s
/// [`LinkModel::cached`] produces, so rates stay bit-identical to both
/// the cached and uncached paths.
#[derive(Debug, Default)]
pub struct LinkCols {
    /// Full AP spectrum in Hz per device link.
    pub bandwidth_hz: Vec<f64>,
    /// Mean SNR (linear) per device link.
    pub mean_snr: Vec<f64>,
    /// Spectral efficiency at unit fading: `(1 + mean_snr).log2()`.
    unit_eff: Vec<f64>,
}

impl LinkCols {
    /// Re-point the columns at `links`, reusing capacity.
    pub fn rebuild(&mut self, links: impl Iterator<Item = CachedLink>) {
        self.bandwidth_hz.clear();
        self.mean_snr.clear();
        self.unit_eff.clear();
        for l in links {
            self.bandwidth_hz.push(l.bandwidth_hz);
            self.mean_snr.push(l.mean_snr);
            self.unit_eff.push(l.unit_eff);
        }
    }

    /// Shannon rate in bits/s of link `i`; bit-identical to the
    /// [`CachedLink`] rate.
    #[inline]
    fn rate_bps(&self, i: usize, share: f64, fading_power: f64) -> f64 {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&share));
        if share <= 0.0 {
            return 0.0;
        }
        let eff = if fading_power == 1.0 {
            self.unit_eff[i]
        } else {
            (1.0 + self.mean_snr[i] * fading_power).log2()
        };
        share * self.bandwidth_hz[i] * eff
    }

    /// Seconds for link `i` to move `bytes`; bit-identical to
    /// [`CachedLink::tx_seconds`].
    #[inline]
    pub fn tx_seconds(&self, i: usize, bytes: f64, share: f64, fading_power: f64) -> f64 {
        let rate = self.rate_bps(i, share, fading_power);
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        bytes * 8.0 / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_link_rate_is_realistic() {
        // 10 MHz at 50 m should land in the tens of Mbit/s.
        let l = LinkModel::wifi(10e6, 50.0);
        let r = l.mean_rate_bps(1.0);
        assert!(r > 20e6 && r < 200e6, "rate {r}");
    }

    #[test]
    fn rate_is_linear_in_share() {
        let l = LinkModel::wifi(20e6, 30.0);
        let full = l.mean_rate_bps(1.0);
        let half = l.mean_rate_bps(0.5);
        assert!((half - full / 2.0).abs() < 1e-6 * full);
    }

    #[test]
    fn rate_decreases_with_distance() {
        let near = LinkModel::wifi(10e6, 10.0).mean_rate_bps(1.0);
        let far = LinkModel::wifi(10e6, 100.0).mean_rate_bps(1.0);
        assert!(near > far);
    }

    #[test]
    fn fading_moves_rate_monotonically() {
        let l = LinkModel::wifi(10e6, 50.0);
        assert!(l.rate_bps(1.0, 0.2) < l.rate_bps(1.0, 1.0));
        assert!(l.rate_bps(1.0, 3.0) > l.rate_bps(1.0, 1.0));
    }

    #[test]
    fn zero_share_cannot_transmit() {
        let l = LinkModel::wifi(10e6, 50.0);
        assert_eq!(l.rate_bps(0.0, 1.0), 0.0);
        assert!(l.tx_seconds(1000.0, 0.0, 1.0).is_infinite());
    }

    #[test]
    fn tx_seconds_scale_with_bytes() {
        let l = LinkModel::wifi(10e6, 50.0);
        let one = l.tx_seconds(1e6, 1.0, 1.0);
        let two = l.tx_seconds(2e6, 1.0, 1.0);
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn distance_clamped_to_reference() {
        let l = LinkModel::wifi(10e6, 0.0);
        assert_eq!(l.distance_m, 1.0);
    }

    #[test]
    fn link_cols_match_cached_links_bitwise() {
        let links: Vec<CachedLink> = [10.0, 35.0, 80.0]
            .iter()
            .map(|&d| LinkModel::wifi(20e6, d).cached())
            .collect();
        let mut cols = LinkCols::default();
        cols.rebuild(links.iter().copied());
        for (i, l) in links.iter().enumerate() {
            for fading in [1.0, 0.37, 2.4] {
                for share in [0.0, 0.25, 1.0] {
                    assert_eq!(
                        cols.rate_bps(i, share, fading).to_bits(),
                        l.rate_bps(share, fading).to_bits()
                    );
                    assert_eq!(
                        cols.tx_seconds(i, 1e6, share, fading).to_bits(),
                        l.tx_seconds(1e6, share, fading).to_bits()
                    );
                }
            }
        }
    }
}
