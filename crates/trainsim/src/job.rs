//! Job specifications and parallel layouts.

use c4_simcore::{ByteSize, SimDuration};
use c4_telemetry::DataType;
use c4_topology::{GpuId, NodeId, Topology};

/// A training job's shape and compute model.
///
/// Communication that C4P affects (inter-node DP gradient sync) is simulated
/// through the network; TP collectives (NVLink-local) and PP activations are
/// folded into the calibrated per-micro-batch compute time, as their cost is
/// unchanged by C4P on the paper's testbed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display name.
    pub name: String,
    /// Model parameters.
    pub params: u64,
    /// Gradient element type (paper jobs train in BF16).
    pub grad_dtype: DataType,
    /// Tensor-parallel size (within a node; must divide GPUs/node).
    pub tp: usize,
    /// Pipeline-parallel size (stages are contiguous node blocks).
    pub pp: usize,
    /// Data-parallel size.
    pub dp: usize,
    /// Gradient-accumulation micro-batches per iteration.
    pub ga: usize,
    /// Samples per global batch (for samples/s accounting).
    pub global_batch: usize,
    /// Forward+backward time of one micro-batch (includes TP/PP comm).
    pub micro_compute: SimDuration,
    /// Fraction of DP communication overlapped with backward compute.
    pub overlap: f64,
}

impl JobSpec {
    /// Total GPUs required.
    pub fn gpus(&self) -> usize {
        self.tp * self.pp * self.dp
    }

    /// Gradient bytes each DP rank contributes per sync
    /// (`params × dtype / (tp × pp)`).
    pub fn grad_bytes_per_rank(&self) -> ByteSize {
        ByteSize::from_bytes(
            self.params * self.grad_dtype.size_bytes() / (self.tp * self.pp) as u64,
        )
    }

    /// Gradient element count per DP rank.
    pub fn grad_elems_per_rank(&self) -> u64 {
        self.params / (self.tp * self.pp) as u64
    }

    /// Nominal compute time of one iteration (GA micro-batches).
    pub fn compute_per_iteration(&self) -> SimDuration {
        self.micro_compute * self.ga as u64
    }

    /// Fig 14 Job1: GPT-22B on Megatron, TP=8, DP=16 (128 GPUs). The paper
    /// reports 74.82 samples/s baseline with >30 % of each iteration spent
    /// in communication.
    pub fn gpt22b_tp8_dp16() -> Self {
        JobSpec {
            name: "GPT-22B TP8/DP16 (Megatron)".into(),
            params: 22_000_000_000,
            grad_dtype: DataType::Bf16,
            tp: 8,
            pp: 1,
            dp: 16,
            ga: 1,
            global_batch: 78,
            micro_compute: SimDuration::from_millis(750),
            overlap: 0.3,
        }
    }

    /// Fig 14 Job2: Llama-7B on DeepSpeed with ZeRO, pure DP over 128 GPUs.
    /// Paper baseline: 156.59 samples/s. ZeRO syncs gradients as
    /// reduce-scatter + allgather, the same bytes on the wire as an
    /// allreduce ring, so the network model runs it as one.
    pub fn llama7b_dp128_zero() -> Self {
        JobSpec {
            name: "Llama-7B DP128+ZeRO (DeepSpeed)".into(),
            params: 7_000_000_000,
            grad_dtype: DataType::Bf16,
            tp: 1,
            pp: 1,
            dp: 128,
            ga: 1,
            global_batch: 440,
            micro_compute: SimDuration::from_millis(2030),
            overlap: 0.3,
        }
    }

    /// Fig 14 Job3: GPT-175B on Megatron, TP=8, PP=8, GA=16 → 2 DP groups.
    /// The 16× gradient accumulation amortizes DP sync, so C4P gains little.
    pub fn gpt175b_tp8_pp8_ga16() -> Self {
        JobSpec {
            name: "GPT-175B TP8/PP8/GA16 (Megatron)".into(),
            params: 175_000_000_000,
            grad_dtype: DataType::Bf16,
            tp: 8,
            pp: 8,
            dp: 2,
            ga: 16,
            global_batch: 64,
            micro_compute: SimDuration::from_millis(210),
            overlap: 0.3,
        }
    }

    /// Fig 3 family: the 22-billion-parameter GPT scaled over DP (weak
    /// scaling: global batch grows with DP).
    pub fn gpt22b_scaling(dp: usize) -> Self {
        JobSpec {
            name: format!("GPT-22B TP8/DP{dp}"),
            global_batch: 8 * dp,
            dp,
            micro_compute: SimDuration::from_millis(550),
            overlap: 0.0,
            ..Self::gpt22b_tp8_dp16()
        }
    }
}

/// The mapping of a job's ranks onto cluster GPUs, and its DP groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelLayout {
    /// Nodes assigned to the job, PP-stage order.
    pub nodes: Vec<NodeId>,
    /// DP communicator member lists (each synchronizes one gradient shard).
    pub dp_groups: Vec<Vec<GpuId>>,
}

impl ParallelLayout {
    /// Places a job on `nodes` and derives its DP groups.
    ///
    /// Layout rules (covering the paper's evaluation jobs):
    /// * pure DP (`tp == pp == 1`): one DP group containing every GPU;
    /// * otherwise `tp` must divide GPUs/node, `pp` must divide the node
    ///   count, and `dp` must equal `nodes/pp × gpus_per_node/tp`; the DP
    ///   group for (stage, column, tp-rank) spans the stage's nodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn place(topo: &Topology, spec: &JobSpec, nodes: Vec<NodeId>) -> Result<Self, String> {
        let gpn = topo.config().gpus_per_node;
        let need_nodes = spec.gpus().div_ceil(gpn);
        if nodes.len() != need_nodes {
            return Err(format!(
                "job needs {} nodes ({} GPUs / {gpn} per node), got {}",
                need_nodes,
                spec.gpus(),
                nodes.len()
            ));
        }
        for &n in &nodes {
            if !topo.is_node_healthy(n) {
                return Err(format!("node {n} is isolated"));
            }
        }

        if spec.tp == 1 && spec.pp == 1 {
            if spec.dp != nodes.len() * gpn {
                return Err(format!(
                    "pure-DP job: dp ({}) must equal total GPUs ({})",
                    spec.dp,
                    nodes.len() * gpn
                ));
            }
            let all: Vec<GpuId> = nodes
                .iter()
                .flat_map(|&n| topo.node(n).gpus.clone())
                .collect();
            return Ok(ParallelLayout {
                nodes,
                dp_groups: vec![all],
            });
        }

        if !gpn.is_multiple_of(spec.tp) {
            return Err(format!("tp ({}) must divide GPUs/node ({gpn})", spec.tp));
        }
        if !nodes.len().is_multiple_of(spec.pp) {
            return Err(format!(
                "pp ({}) must divide the node count ({})",
                spec.pp,
                nodes.len()
            ));
        }
        let columns = gpn / spec.tp;
        let nodes_per_stage = nodes.len() / spec.pp;
        if spec.dp != nodes_per_stage * columns {
            return Err(format!(
                "dp ({}) must equal nodes/stage × columns ({nodes_per_stage} × {columns})",
                spec.dp
            ));
        }

        let mut dp_groups = Vec::with_capacity(spec.pp * columns * spec.tp);
        for stage in 0..spec.pp {
            let stage_nodes = &nodes[stage * nodes_per_stage..(stage + 1) * nodes_per_stage];
            for t in 0..spec.tp {
                // One DP group per tp-rank per stage; members span the
                // stage's nodes and columns.
                let mut members = Vec::with_capacity(spec.dp);
                for &n in stage_nodes {
                    for c in 0..columns {
                        members.push(topo.gpu_at(n, c * spec.tp + t));
                    }
                }
                dp_groups.push(members);
            }
        }
        Ok(ParallelLayout { nodes, dp_groups })
    }

    /// All GPUs of the job, node-major.
    pub fn gpus(&self, topo: &Topology) -> Vec<GpuId> {
        self.nodes
            .iter()
            .flat_map(|&n| topo.node(n).gpus.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_topology::ClosConfig;

    fn topo() -> Topology {
        Topology::build(&ClosConfig::testbed_128())
    }

    fn first_nodes(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from_index).collect()
    }

    #[test]
    fn presets_have_consistent_shapes() {
        for spec in [
            JobSpec::gpt22b_tp8_dp16(),
            JobSpec::llama7b_dp128_zero(),
            JobSpec::gpt175b_tp8_pp8_ga16(),
        ] {
            assert_eq!(spec.gpus(), 128, "{}", spec.name);
        }
        let j1 = JobSpec::gpt22b_tp8_dp16();
        // 22e9 × 2 bytes / 8 = 5.5 GB per DP rank.
        assert_eq!(j1.grad_bytes_per_rank().as_bytes(), 5_500_000_000);
        let j3 = JobSpec::gpt175b_tp8_pp8_ga16();
        assert_eq!(
            j3.compute_per_iteration(),
            SimDuration::from_millis(210 * 16)
        );
    }

    #[test]
    fn megatron_layout_one_group_per_rail() {
        let t = topo();
        let spec = JobSpec::gpt22b_tp8_dp16();
        let layout = ParallelLayout::place(&t, &spec, first_nodes(16)).unwrap();
        assert_eq!(layout.dp_groups.len(), 8); // pp=1 × tp=8
        for (tp_idx, group) in layout.dp_groups.iter().enumerate() {
            assert_eq!(group.len(), 16);
            // Every member is the tp_idx-th GPU of its node → one rail.
            for &g in group {
                assert_eq!(t.gpu(g).local_index, tp_idx);
            }
        }
    }

    #[test]
    fn pure_dp_layout_is_one_big_group() {
        let t = topo();
        let spec = JobSpec::llama7b_dp128_zero();
        let layout = ParallelLayout::place(&t, &spec, first_nodes(16)).unwrap();
        assert_eq!(layout.dp_groups.len(), 1);
        assert_eq!(layout.dp_groups[0].len(), 128);
    }

    #[test]
    fn pp_layout_stages_are_node_blocks() {
        let t = topo();
        let spec = JobSpec::gpt175b_tp8_pp8_ga16();
        let layout = ParallelLayout::place(&t, &spec, first_nodes(16)).unwrap();
        assert_eq!(layout.dp_groups.len(), 8 * 8); // pp × tp
        for group in &layout.dp_groups {
            assert_eq!(group.len(), 2); // dp = 2
                                        // Both members on adjacent nodes of one stage.
            let n0 = t.gpu(group[0]).node.index();
            let n1 = t.gpu(group[1]).node.index();
            assert_eq!(n0 / 2, n1 / 2, "stage block");
            assert_ne!(n0, n1);
        }
    }

    #[test]
    fn placement_rejects_bad_shapes() {
        let t = topo();
        let spec = JobSpec::gpt22b_tp8_dp16();
        assert!(ParallelLayout::place(&t, &spec, first_nodes(15)).is_err());

        let mut bad = spec.clone();
        bad.tp = 3;
        bad.dp = 16; // 3 doesn't divide 8
                     // gpus = 3×16 = 48 → 6 nodes
        assert!(ParallelLayout::place(&t, &bad, first_nodes(6)).is_err());

        // Pure-DP size that doesn't fill its nodes: 100 ranks on 13 nodes
        // (104 GPUs) violates dp == total-GPUs.
        let mut bad_dp = JobSpec::llama7b_dp128_zero();
        bad_dp.dp = 100;
        assert!(ParallelLayout::place(&t, &bad_dp, first_nodes(13)).is_err());
    }

    #[test]
    fn placement_rejects_isolated_nodes() {
        let mut t = topo();
        t.set_node_healthy(NodeId::from_index(3), false);
        let spec = JobSpec::gpt22b_tp8_dp16();
        let err = ParallelLayout::place(&t, &spec, first_nodes(16)).unwrap_err();
        assert!(err.contains("isolated"), "{err}");
    }

    #[test]
    fn scaling_family_grows_batch() {
        let s = JobSpec::gpt22b_scaling(64);
        assert_eq!(s.dp, 64);
        assert_eq!(s.global_batch, 512);
        assert_eq!(s.gpus(), 512);
    }
}
