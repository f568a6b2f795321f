//! Record types for the four ACCL statistics streams (paper Fig 5/6).

use std::fmt;

use c4_simcore::{SimDuration, SimTime};
use c4_topology::{GpuId, PortId};

/// Collective operation type (the paper's operation layer, Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollKind {
    /// Sum/average across all ranks (the DP gradient sync).
    AllReduce,
    /// Gather all shards to all ranks.
    AllGather,
    /// Reduce then scatter shards (ZeRO gradient path).
    ReduceScatter,
    /// One-to-all replication.
    Broadcast,
    /// Point-to-point send/recv (PP stage boundaries).
    SendRecv,
    /// Personalized exchange: every rank sends a shard to every other rank
    /// (EP token dispatch/combine).
    AllToAll,
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollKind::AllReduce => "allreduce",
            CollKind::AllGather => "allgather",
            CollKind::ReduceScatter => "reduce_scatter",
            CollKind::Broadcast => "broadcast",
            CollKind::SendRecv => "sendrecv",
            CollKind::AllToAll => "alltoall",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for CollKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "allreduce" => CollKind::AllReduce,
            "allgather" => CollKind::AllGather,
            "reduce_scatter" => CollKind::ReduceScatter,
            "broadcast" => CollKind::Broadcast,
            "sendrecv" => CollKind::SendRecv,
            "alltoall" => CollKind::AllToAll,
            other => return Err(format!("unknown collective kind {other:?}")),
        })
    }
}

/// Communication algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// Ring-based (the algorithm the paper's benchmarks pin, §IV-A).
    Ring,
    /// Tree-based.
    Tree,
}

impl fmt::Display for AlgoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlgoKind::Ring => "ring",
            AlgoKind::Tree => "tree",
        })
    }
}

impl std::str::FromStr for AlgoKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "ring" => AlgoKind::Ring,
            "tree" => AlgoKind::Tree,
            other => return Err(format!("unknown algorithm {other:?}")),
        })
    }
}

/// Element data type of a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit float.
    F32,
    /// 16-bit float.
    F16,
    /// bfloat16.
    Bf16,
}

impl DataType {
    /// Bytes per element.
    pub const fn size_bytes(self) -> u64 {
        match self {
            DataType::F32 => 4,
            DataType::F16 | DataType::Bf16 => 2,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataType::F32 => "f32",
            DataType::F16 => "f16",
            DataType::Bf16 => "bf16",
        })
    }
}

impl std::str::FromStr for DataType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "f32" => DataType::F32,
            "f16" => DataType::F16,
            "bf16" => DataType::Bf16,
            other => return Err(format!("unknown data type {other:?}")),
        })
    }
}

/// One communicator: which devices participate and their ranks
/// (`comm-stats.csv`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommRecord {
    /// Communicator id (unique per group per incarnation).
    pub comm: u64,
    /// Devices by rank order: `devices[rank] = gpu`.
    pub devices: Vec<GpuId>,
    /// Creation time.
    pub created: SimTime,
}

impl CommRecord {
    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.devices.len()
    }

    /// Rank of a device, if it participates.
    pub fn rank_of(&self, gpu: GpuId) -> Option<usize> {
        self.devices.iter().position(|&d| d == gpu)
    }
}

/// One collective operation instance as seen by one rank
/// (`coll-stats.csv`). A missing `end` means the operation never completed
/// on this rank — the raw signal behind C4D's hang detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollRecord {
    /// Communicator id.
    pub comm: u64,
    /// Monotone sequence number within the communicator.
    pub seq: u64,
    /// Reporting rank.
    pub rank: u32,
    /// Operation type.
    pub kind: CollKind,
    /// Algorithm.
    pub algo: AlgoKind,
    /// Element type.
    pub dtype: DataType,
    /// Element count.
    pub count: u64,
    /// Kernel start (the paper logs CUDA-kernel start/stop directly).
    pub start: SimTime,
    /// Kernel completion; `None` while in flight or hung.
    pub end: Option<SimTime>,
}

impl CollRecord {
    /// Duration if completed.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e - self.start)
    }
}

/// Identity of a transport connection (one QP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnKey {
    /// Communicator id.
    pub comm: u64,
    /// Channel index.
    pub channel: u16,
    /// QP index within the channel.
    pub qp: u16,
    /// Sending GPU.
    pub src_gpu: GpuId,
    /// Receiving GPU.
    pub dst_gpu: GpuId,
}

/// Aggregated transport statistics for one connection (`conn-stats.csv`):
/// message counts, bytes and durations, plus the source port that fixes the
/// network path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnRecord {
    /// Connection identity.
    pub key: ConnKey,
    /// NIC physical port used on the sender (C4P's control knob).
    pub src_port: PortId,
    /// Messages transferred.
    pub messages: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Total transfer time across messages.
    pub busy: SimDuration,
    /// Completion time of the most recent message, if any.
    pub last_completion: Option<SimTime>,
}

impl ConnRecord {
    /// Creates an empty record for a connection.
    pub fn new(key: ConnKey, src_port: PortId) -> Self {
        ConnRecord {
            key,
            src_port,
            messages: 0,
            bytes: 0,
            busy: SimDuration::ZERO,
            last_completion: None,
        }
    }

    /// Folds one message transfer into the aggregate.
    pub fn record_message(&mut self, bytes: u64, duration: SimDuration, completed_at: SimTime) {
        self.messages += 1;
        self.bytes += bytes;
        self.busy += duration;
        self.last_completion = Some(match self.last_completion {
            Some(prev) => prev.max(completed_at),
            None => completed_at,
        });
    }

    /// Mean per-message transfer duration.
    pub fn mean_message_duration(&self) -> SimDuration {
        if self.messages == 0 {
            SimDuration::ZERO
        } else {
            self.busy / self.messages
        }
    }

    /// Effective throughput over busy time, in Gbps.
    pub fn effective_gbps(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / secs / 1e9
        }
    }
}

/// Per-rank execution rhythm for one step (`rank-stats.csv`): local compute
/// time and how long the rank kept its ring predecessor waiting
/// (receiver-driven wait, §III-A "non-communication slow detection").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankRecord {
    /// Communicator id.
    pub comm: u64,
    /// Reporting rank.
    pub rank: u32,
    /// Training step / iteration index.
    pub step: u64,
    /// Local non-communication time this step (compute + data loading).
    pub compute: SimDuration,
    /// Time this rank's receive was outstanding before it became ready
    /// (waiting on its own compute), as observed by the transport layer.
    pub ready_delay: SimDuration,
    /// When the rank arrived at the synchronization point.
    pub arrived: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_record_rank_lookup() {
        let rec = CommRecord {
            comm: 5,
            devices: vec![GpuId::from_index(3), GpuId::from_index(9)],
            created: SimTime::ZERO,
        };
        assert_eq!(rec.nranks(), 2);
        assert_eq!(rec.rank_of(GpuId::from_index(9)), Some(1));
        assert_eq!(rec.rank_of(GpuId::from_index(1)), None);
    }

    #[test]
    fn coll_record_bytes_and_duration() {
        let rec = CollRecord {
            comm: 1,
            seq: 0,
            rank: 0,
            kind: CollKind::AllReduce,
            algo: AlgoKind::Ring,
            dtype: DataType::F16,
            count: 1024,
            start: SimTime::from_secs(1),
            end: Some(SimTime::from_secs(2)),
        };
        assert_eq!(rec.count * rec.dtype.size_bytes(), 2048);
        assert_eq!(rec.duration().unwrap(), SimDuration::from_secs(1));
        let hung = CollRecord { end: None, ..rec };
        assert!(hung.duration().is_none());
    }

    #[test]
    fn conn_record_aggregates_messages() {
        let key = ConnKey {
            comm: 1,
            channel: 0,
            qp: 0,
            src_gpu: GpuId::from_index(0),
            dst_gpu: GpuId::from_index(1),
        };
        let mut rec = ConnRecord::new(key, PortId::from_index(0));
        rec.record_message(
            1_000_000,
            SimDuration::from_millis(4),
            SimTime::from_secs(1),
        );
        rec.record_message(
            1_000_000,
            SimDuration::from_millis(6),
            SimTime::from_secs(2),
        );
        assert_eq!(rec.messages, 2);
        assert_eq!(rec.bytes, 2_000_000);
        assert_eq!(rec.mean_message_duration(), SimDuration::from_millis(5));
        assert_eq!(rec.last_completion, Some(SimTime::from_secs(2)));
        // 2 MB over 10 ms = 1.6 Gbps
        assert!((rec.effective_gbps() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn conn_record_last_completion_keeps_max() {
        let key = ConnKey {
            comm: 1,
            channel: 0,
            qp: 0,
            src_gpu: GpuId::from_index(0),
            dst_gpu: GpuId::from_index(1),
        };
        let mut rec = ConnRecord::new(key, PortId::from_index(0));
        rec.record_message(1, SimDuration::ZERO, SimTime::from_secs(9));
        rec.record_message(1, SimDuration::ZERO, SimTime::from_secs(3));
        assert_eq!(rec.last_completion, Some(SimTime::from_secs(9)));
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(CollKind::AllReduce.to_string(), "allreduce");
        assert_eq!(AlgoKind::Ring.to_string(), "ring");
        assert_eq!(DataType::Bf16.to_string(), "bf16");
        assert_eq!(DataType::F32.size_bytes(), 4);
    }

    #[test]
    fn enum_names_parse_back() {
        for kind in [
            CollKind::AllReduce,
            CollKind::AllGather,
            CollKind::ReduceScatter,
            CollKind::Broadcast,
            CollKind::SendRecv,
            CollKind::AllToAll,
        ] {
            assert_eq!(kind.to_string().parse(), Ok(kind));
        }
        for algo in [AlgoKind::Ring, AlgoKind::Tree] {
            assert_eq!(algo.to_string().parse(), Ok(algo));
        }
        for dt in [DataType::F32, DataType::F16, DataType::Bf16] {
            assert_eq!(dt.to_string().parse(), Ok(dt));
        }
        assert!("nccl".parse::<CollKind>().is_err());
    }
}
