//! The joint problem instance.

use scalpel_models::{DifficultyModel, ModelGraph};
use scalpel_sim::{ArrivalProcess, Cluster};
use serde::{Deserialize, Serialize};

/// One inference stream to be served.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Device the stream originates on.
    pub device: usize,
    /// Index into [`JointProblem::models`].
    pub model: usize,
    /// Request arrival process.
    pub arrivals: ArrivalProcess,
    /// Relative deadline per request, seconds.
    pub deadline_s: f64,
    /// Minimum acceptable expected accuracy.
    pub accuracy_floor: f64,
}

/// A complete joint-optimization instance.
#[derive(Debug, Clone)]
pub struct JointProblem {
    /// The edge topology.
    pub cluster: Cluster,
    /// The distinct backbones in play.
    pub models: Vec<ModelGraph>,
    /// Published full-model accuracy of each backbone (parallel to
    /// `models`).
    pub model_accuracy: Vec<f64>,
    /// The streams, one per device in the default scenarios.
    pub streams: Vec<StreamSpec>,
    /// Difficulty calibration shared by all streams.
    pub difficulty: DifficultyModel,
}

impl JointProblem {
    /// Validate cross-references and numerical sanity: the one ingest
    /// door for a problem instance. Returns the first defect as a typed
    /// [`ProblemError`](crate::validate::ProblemError); a defective
    /// instance is refused, never edited.
    pub fn validate(&self) -> Result<(), crate::validate::ProblemError> {
        crate::validate::check_problem(self)
    }

    /// The backbone of stream `k`.
    #[cfg(test)]
    fn model_of(&self, k: usize) -> &ModelGraph {
        &self.models[self.streams[k].model]
    }

    /// Mean request rate of stream `k` (req/s).
    pub fn rate_of(&self, k: usize) -> f64 {
        self.streams[k].arrivals.mean_rate()
    }

    /// Streams grouped by AP (each entry: stream ids on that AP).
    pub fn streams_by_ap(&self) -> Vec<Vec<usize>> {
        let mut by_ap = vec![Vec::new(); self.cluster.aps.len()];
        for (k, s) in self.streams.iter().enumerate() {
            by_ap[self.cluster.devices[s.device].ap].push(k);
        }
        by_ap
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use scalpel_models::{zoo, ProcessorClass};
    use scalpel_sim::{ApSpec, DeviceSpec, ServerSpec};

    pub(crate) fn tiny_problem() -> JointProblem {
        let cluster = Cluster {
            devices: (0..2)
                .map(|id| DeviceSpec {
                    id,
                    proc: ProcessorClass::Smartphone.spec(),
                    ap: 0,
                    distance_m: 30.0,
                })
                .collect(),
            aps: vec![ApSpec {
                id: 0,
                bandwidth_hz: 20e6,
                rtt_s: 2e-3,
            }],
            servers: vec![ServerSpec {
                id: 0,
                proc: ProcessorClass::EdgeGpuT4.spec(),
            }],
        };
        JointProblem {
            cluster,
            models: vec![zoo::alexnet(1000)],
            model_accuracy: vec![0.76],
            streams: (0..2)
                .map(|d| StreamSpec {
                    device: d,
                    model: 0,
                    arrivals: ArrivalProcess::Poisson { rate_hz: 5.0 },
                    deadline_s: 0.2,
                    accuracy_floor: 0.73,
                })
                .collect(),
            difficulty: DifficultyModel::default(),
        }
    }

    #[test]
    fn tiny_problem_validates() {
        assert!(tiny_problem().validate().is_ok());
    }

    #[test]
    fn bad_references_fail() {
        let mut p = tiny_problem();
        p.streams[0].device = 9;
        assert!(p.validate().is_err());
        let mut p = tiny_problem();
        p.streams[1].model = 9;
        assert!(p.validate().is_err());
        let mut p = tiny_problem();
        p.streams[0].deadline_s = 0.0;
        assert!(p.validate().is_err());
        let mut p = tiny_problem();
        p.model_accuracy.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn grouping_by_ap() {
        let p = tiny_problem();
        let by_ap = p.streams_by_ap();
        assert_eq!(by_ap.len(), 1);
        assert_eq!(by_ap[0], vec![0, 1]);
    }

    #[test]
    fn accessors() {
        let p = tiny_problem();
        assert_eq!(p.model_of(1).name(), "alexnet");
        assert!((p.rate_of(0) - 5.0).abs() < 1e-12);
    }
}
