//! Topology of the heterogeneous edge: devices, access points, servers.

use crate::error::SimError;
use crate::net::LinkModel;
use scalpel_models::ProcessorSpec;
use serde::{Deserialize, Serialize};

/// An end device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Index within the cluster.
    pub id: usize,
    /// Compute capability.
    pub proc: ProcessorSpec,
    /// Access point this device uplinks through.
    pub ap: usize,
    /// Distance to its AP in meters.
    pub distance_m: f64,
}

/// A wireless access point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApSpec {
    /// Index within the cluster.
    pub id: usize,
    /// Total uplink spectrum in Hz, divided among devices by shares.
    pub bandwidth_hz: f64,
    /// Round-trip time AP ↔ edge servers, seconds.
    pub rtt_s: f64,
}

/// An edge server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Index within the cluster.
    pub id: usize,
    /// Compute capability (shared across streams by weighted PS).
    pub proc: ProcessorSpec,
}

/// The full topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cluster {
    /// End devices.
    pub devices: Vec<DeviceSpec>,
    /// Access points.
    pub aps: Vec<ApSpec>,
    /// Edge servers.
    pub servers: Vec<ServerSpec>,
}

impl Cluster {
    /// Validate index integrity (device AP references, contiguous ids) and
    /// that every AP has finite, positive spectrum.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |detail: String| SimError::InvalidTopology { detail };
        for (i, d) in self.devices.iter().enumerate() {
            if d.id != i {
                return Err(bad(format!("device {i} has id {}", d.id)));
            }
            if d.ap >= self.aps.len() {
                return Err(bad(format!("device {i} references missing AP {}", d.ap)));
            }
        }
        for (i, a) in self.aps.iter().enumerate() {
            if a.id != i {
                return Err(bad(format!("ap {i} has id {}", a.id)));
            }
            if !(a.bandwidth_hz.is_finite() && a.bandwidth_hz > 0.0) {
                return Err(bad(format!(
                    "ap {i} has invalid bandwidth {} Hz",
                    a.bandwidth_hz
                )));
            }
        }
        for (i, s) in self.servers.iter().enumerate() {
            if s.id != i {
                return Err(bad(format!("server {i} has id {}", s.id)));
            }
        }
        if self.devices.is_empty() {
            return Err(bad("cluster has no devices".into()));
        }
        Ok(())
    }

    /// The uplink model of one device.
    pub fn link(&self, device: usize) -> LinkModel {
        let d = &self.devices[device];
        let ap = &self.aps[d.ap];
        LinkModel::wifi(ap.bandwidth_hz, d.distance_m)
    }

    /// Ids of the devices attached to an AP.
    #[cfg(test)]
    fn devices_on_ap(&self, ap: usize) -> Vec<usize> {
        self.devices
            .iter()
            .filter(|d| d.ap == ap)
            .map(|d| d.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalpel_models::ProcessorClass;

    fn small_cluster() -> Cluster {
        Cluster {
            devices: vec![
                DeviceSpec {
                    id: 0,
                    proc: ProcessorClass::RaspberryPi4.spec(),
                    ap: 0,
                    distance_m: 30.0,
                },
                DeviceSpec {
                    id: 1,
                    proc: ProcessorClass::JetsonNano.spec(),
                    ap: 0,
                    distance_m: 60.0,
                },
            ],
            aps: vec![ApSpec {
                id: 0,
                bandwidth_hz: 20e6,
                rtt_s: 2e-3,
            }],
            servers: vec![ServerSpec {
                id: 0,
                proc: ProcessorClass::EdgeGpuT4.spec(),
            }],
        }
    }

    #[test]
    fn valid_cluster_passes() {
        assert!(small_cluster().validate().is_ok());
    }

    #[test]
    fn bad_ap_reference_fails() {
        let mut c = small_cluster();
        c.devices[1].ap = 9;
        assert!(c.validate().is_err());
    }

    #[test]
    fn misnumbered_ids_fail() {
        let mut c = small_cluster();
        c.servers[0].id = 5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_finite_or_non_positive_bandwidth_fails() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, -0.0] {
            let mut c = small_cluster();
            c.aps[0].bandwidth_hz = bad;
            assert!(c.validate().is_err(), "bandwidth {bad} accepted");
        }
    }

    #[test]
    fn empty_devices_fail() {
        let mut c = small_cluster();
        c.devices.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn link_uses_ap_bandwidth_and_distance() {
        let c = small_cluster();
        let l = c.link(1);
        assert_eq!(l.bandwidth_hz, 20e6);
        assert_eq!(l.distance_m, 60.0);
    }

    #[test]
    fn devices_on_ap_lists_members() {
        let c = small_cluster();
        assert_eq!(c.devices_on_ap(0), vec![0, 1]);
    }
}
