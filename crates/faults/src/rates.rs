//! Fault rate presets calibrated to the paper's operational data.
//!
//! Table I records 40 crashes in one month on a 4,096-GPU (512-node) job;
//! §IV-B1 reports the average error rate dropping ≈3.33× between June and
//! December 2023 (3.2× for GPU-related kinds, 3.4× for the rest) after the
//! most vulnerable components were hardened.

/// Per-component fault rates (events per hour per component).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// CUDA errors per GPU-hour.
    pub cuda_per_gpu_hour: f64,
    /// ECC errors per GPU-hour.
    pub ecc_per_gpu_hour: f64,
    /// NVLink errors per GPU-hour.
    pub nvlink_per_gpu_hour: f64,
    /// NCCL timeouts per node-hour.
    pub nccl_timeout_per_node_hour: f64,
    /// ACK timeouts per node-hour.
    pub ack_timeout_per_node_hour: f64,
    /// Other network errors per job-hour (systemic).
    pub network_per_job_hour: f64,
    /// Slow-GPU degradations per GPU-hour.
    pub slow_gpu_per_gpu_hour: f64,
    /// PCIe downgrades per GPU-hour.
    pub pcie_downgrade_per_gpu_hour: f64,
    /// Half-down dual-port NICs per node-hour.
    pub nic_half_down_per_node_hour: f64,
    /// GC/CPU-contention pauses per node-hour.
    pub gc_pause_per_node_hour: f64,
    /// Fabric link failures per link-hour.
    pub link_failure_per_link_hour: f64,
}

/// Hours in the one-month observation window of Table I.
pub const MONTH_HOURS: f64 = 720.0;

impl FaultRates {
    /// June-2023 fleet: calibrated so a 4,096-GPU / 512-node job sees ~40
    /// crashes per month with Table I's cause mix (5 CUDA, 11 ECC+NVLink,
    /// 8 NCCL timeout, 11 ACK timeout, 5 network).
    pub fn june_2023() -> Self {
        let gpu_month = 4096.0 * MONTH_HOURS;
        let node_month = 512.0 * MONTH_HOURS;
        FaultRates {
            cuda_per_gpu_hour: 5.0 / gpu_month,
            ecc_per_gpu_hour: 6.0 / gpu_month,
            nvlink_per_gpu_hour: 5.0 / gpu_month,
            nccl_timeout_per_node_hour: 8.0 / node_month,
            ack_timeout_per_node_hour: 11.0 / node_month,
            network_per_job_hour: 5.0 / MONTH_HOURS,
            slow_gpu_per_gpu_hour: 2.0 / gpu_month,
            pcie_downgrade_per_gpu_hour: 1.0 / gpu_month,
            nic_half_down_per_node_hour: 1.0 / node_month,
            gc_pause_per_node_hour: 0.01,
            link_failure_per_link_hour: 2e-6,
        }
    }

    /// December-2023 fleet: GPU-related kinds reduced 3.2×, the rest 3.4×
    /// (§IV-B1).
    pub fn december_2023() -> Self {
        let j = Self::june_2023();
        FaultRates {
            cuda_per_gpu_hour: j.cuda_per_gpu_hour / 3.2,
            ecc_per_gpu_hour: j.ecc_per_gpu_hour / 3.2,
            nvlink_per_gpu_hour: j.nvlink_per_gpu_hour / 3.2,
            nccl_timeout_per_node_hour: j.nccl_timeout_per_node_hour / 3.4,
            ack_timeout_per_node_hour: j.ack_timeout_per_node_hour / 3.4,
            network_per_job_hour: j.network_per_job_hour / 3.4,
            slow_gpu_per_gpu_hour: j.slow_gpu_per_gpu_hour / 3.2,
            pcie_downgrade_per_gpu_hour: j.pcie_downgrade_per_gpu_hour / 3.2,
            nic_half_down_per_node_hour: j.nic_half_down_per_node_hour / 3.4,
            gc_pause_per_node_hour: j.gc_pause_per_node_hour,
            link_failure_per_link_hour: j.link_failure_per_link_hour,
        }
    }

    /// Every rate multiplied by `factor` (clamped non-negative) — soak
    /// acceleration: compress months of fault churn into a simulable
    /// horizon without changing the cause mix.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        let m = factor.max(0.0);
        FaultRates {
            cuda_per_gpu_hour: self.cuda_per_gpu_hour * m,
            ecc_per_gpu_hour: self.ecc_per_gpu_hour * m,
            nvlink_per_gpu_hour: self.nvlink_per_gpu_hour * m,
            nccl_timeout_per_node_hour: self.nccl_timeout_per_node_hour * m,
            ack_timeout_per_node_hour: self.ack_timeout_per_node_hour * m,
            network_per_job_hour: self.network_per_job_hour * m,
            slow_gpu_per_gpu_hour: self.slow_gpu_per_gpu_hour * m,
            pcie_downgrade_per_gpu_hour: self.pcie_downgrade_per_gpu_hour * m,
            nic_half_down_per_node_hour: self.nic_half_down_per_node_hour * m,
            gc_pause_per_node_hour: self.gc_pause_per_node_hour * m,
            link_failure_per_link_hour: self.link_failure_per_link_hour * m,
        }
    }

    /// Total crash rate (events/hour) for a job of the given size.
    pub fn total_crash_rate(&self, gpus: usize, nodes: usize) -> f64 {
        let g = gpus as f64;
        let n = nodes as f64;
        (self.cuda_per_gpu_hour + self.ecc_per_gpu_hour + self.nvlink_per_gpu_hour) * g
            + (self.nccl_timeout_per_node_hour + self.ack_timeout_per_node_hour) * n
            + self.network_per_job_hour
    }

    /// Crash-kind weights for a job of the given size, in the order of the
    /// crash-kind catalog (CUDA, ECC, NVLink, NCCL timeout, ACK timeout,
    /// network).
    pub fn crash_weights(&self, gpus: usize, nodes: usize) -> [f64; 6] {
        let g = gpus as f64;
        let n = nodes as f64;
        [
            self.cuda_per_gpu_hour * g,
            self.ecc_per_gpu_hour * g,
            self.nvlink_per_gpu_hour * g,
            self.nccl_timeout_per_node_hour * n,
            self.ack_timeout_per_node_hour * n,
            self.network_per_job_hour,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn june_reproduces_forty_crashes_per_month() {
        let r = FaultRates::june_2023();
        let expected = r.total_crash_rate(4096, 512) * MONTH_HOURS;
        assert!((expected - 40.0).abs() < 1e-9, "expected {expected}");
    }

    #[test]
    fn june_mix_matches_table_one() {
        let r = FaultRates::june_2023();
        let w = r.crash_weights(4096, 512);
        let total: f64 = w.iter().sum();
        // CUDA 12.5%
        assert!((w[0] / total - 0.125).abs() < 1e-9);
        // ECC + NVLink 27.5%
        assert!(((w[1] + w[2]) / total - 0.275).abs() < 1e-9);
        // NCCL timeout 20%
        assert!((w[3] / total - 0.20).abs() < 1e-9);
        // ACK timeout 27.5%
        assert!((w[4] / total - 0.275).abs() < 1e-9);
        // Network others 12.5%
        assert!((w[5] / total - 0.125).abs() < 1e-9);
    }

    #[test]
    fn december_is_roughly_one_third() {
        let j = FaultRates::june_2023();
        let d = FaultRates::december_2023();
        let ratio = j.total_crash_rate(2400, 300) / d.total_crash_rate(2400, 300);
        assert!((3.2..=3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rates_scale_with_job_size() {
        let r = FaultRates::june_2023();
        let small = r.total_crash_rate(1024, 128);
        let large = r.total_crash_rate(4096, 512);
        // Component terms scale 4×; the constant systemic network term
        // (5 events/month either way) pulls the ratio below 4.
        assert!(
            large / small > 2.8 && large / small < 3.0,
            "{}",
            large / small
        );
    }
}
