//! DCQCN/CNP congestion model.
//!
//! RoCE congestion control (DCQCN) works by switches ECN-marking packets on
//! congested queues; receivers reflect marks back to senders as Congestion
//! Notification Packets (CNPs), and senders throttle. The paper observes
//! (§IV-B2, Fig 11) that in a 2:1 oversubscribed fabric each bonded port
//! receives ≈15 k CNPs/s, fluctuating between 12.5 k and 17.5 k, and that
//! this produces a small spread in per-task bus bandwidth (Fig 10b).
//!
//! The fluid model has no queues, so CNP emission is derived from sharing
//! pressure: a flow crossing any saturated link it shares with a competitor
//! receives marking at the (saturated) base rate, jittered. Congestion is a
//! per-link property ([`CnpModel::link_congested`]); a flow's score only
//! asks whether its route crosses a congested link
//! ([`CnpModel::flow_score`]).

/// Parameters of the CNP emission model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnpModel {
    /// CNPs per second attributed to a flow per unit of congestion score
    /// (score 1 ≡ sharing a saturated link with exactly one competitor).
    pub base_rate_per_score: f64,
    /// Relative fluctuation amplitude of the emission rate (uniform).
    pub noise: f64,
    /// Fraction of capacity above which a link counts as saturated.
    pub saturation_threshold: f64,
}

impl CnpModel {
    /// Values calibrated to Fig 11: 15 kp/s nominal, ±17 % fluctuation.
    pub fn paper_default() -> Self {
        CnpModel {
            base_rate_per_score: 15_000.0,
            noise: 0.17,
            saturation_threshold: 0.999,
        }
    }

    /// Congestion score of a flow: 1 when it crosses at least one saturated
    /// link shared with a competitor, else 0.
    ///
    /// ECN marking saturates once a queue persists — a flow behind 8
    /// competitors is marked at (roughly) the same per-flow rate as one
    /// behind a single competitor, because its own packet rate shrinks in
    /// proportion. This is what keeps Fig 11's per-port band at ≈15 kp/s in
    /// both shallow and deep sharing.
    ///
    /// `link_load` and `link_capacity` are parallel per-link tables;
    /// `link_flows` counts flows crossing each link.
    pub fn flow_score(
        &self,
        route: &[u32],
        link_load: &[f64],
        link_capacity: &[f64],
        link_flows: &[u32],
    ) -> f64 {
        let congested = route.iter().any(|&l| {
            let l = l as usize;
            self.link_congested(link_load[l], link_capacity[l], link_flows[l])
        });
        if congested {
            1.0
        } else {
            0.0
        }
    }

    /// Whether one link marks its flows: it has capacity, its load reaches
    /// `saturation_threshold` of that capacity, and more than one flow
    /// crosses it. A flow's score is 1 exactly when some link on its route
    /// is congested, so the drain keeps one flag per link and, per flow, a
    /// count of congested links on its route, re-testing only the links
    /// whose load moved.
    pub fn link_congested(&self, load: f64, cap: f64, flows: u32) -> bool {
        cap > 0.0 && load >= cap * self.saturation_threshold && flows > 1
    }

    /// Instantaneous CNP rate for a flow with the given score, jittered by
    /// `noise_draw` ∈ [0, 1).
    pub fn cnp_rate(&self, score: f64, noise_draw: f64) -> f64 {
        if score <= 0.0 {
            return 0.0;
        }
        let jitter = 1.0 + self.noise * (2.0 * noise_draw - 1.0);
        self.base_rate_per_score * score * jitter
    }
}

impl Default for CnpModel {
    fn default() -> Self {
        CnpModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unshared_saturated_link_emits_nothing() {
        let m = CnpModel::paper_default();
        // One flow fully using a link: saturated but unshared → score 0.
        let score = m.flow_score(&[0], &[200.0], &[200.0], &[1]);
        assert_eq!(score, 0.0);
        assert_eq!(m.cnp_rate(score, 0.5), 0.0);
    }

    #[test]
    fn shared_saturated_link_scores_one_regardless_of_depth() {
        let m = CnpModel::paper_default();
        let score = m.flow_score(&[0], &[200.0], &[200.0], &[2]);
        assert_eq!(score, 1.0);
        // Marking saturates: deeper sharing does not multiply CNPs.
        let eight = m.flow_score(&[0], &[200.0], &[200.0], &[8]);
        assert_eq!(eight, 1.0);
    }

    #[test]
    fn link_congested_needs_capacity_saturation_and_a_competitor() {
        let m = CnpModel::paper_default();
        assert!(m.link_congested(200.0, 200.0, 2));
        assert!(m.link_congested(199.9, 200.0, 2), "within the threshold");
        assert!(!m.link_congested(200.0, 200.0, 1), "unshared");
        assert!(!m.link_congested(100.0, 200.0, 4), "unsaturated");
        assert!(!m.link_congested(0.0, 0.0, 5), "no capacity");
    }

    #[test]
    fn unsaturated_link_scores_zero() {
        let m = CnpModel::paper_default();
        let score = m.flow_score(&[0], &[100.0], &[200.0], &[4]);
        assert_eq!(score, 0.0);
    }

    #[test]
    fn cnp_rate_band_matches_figure_11() {
        let m = CnpModel::paper_default();
        let lo = m.cnp_rate(1.0, 0.0);
        let hi = m.cnp_rate(1.0, 1.0 - f64::EPSILON);
        assert!((lo - 12_450.0).abs() < 100.0, "lo={lo}");
        assert!((hi - 17_550.0).abs() < 100.0, "hi={hi}");
    }

    #[test]
    fn zero_capacity_links_ignored() {
        let m = CnpModel::paper_default();
        let score = m.flow_score(&[0, 1], &[0.0, 200.0], &[0.0, 200.0], &[5, 2]);
        assert_eq!(score, 1.0);
    }

    #[test]
    fn any_saturated_shared_link_triggers() {
        let m = CnpModel::paper_default();
        let score = m.flow_score(
            &[0, 1, 2],
            &[100.0, 200.0, 50.0],
            &[200.0, 200.0, 200.0],
            &[2, 4, 9],
        );
        assert_eq!(score, 1.0);
    }
}
