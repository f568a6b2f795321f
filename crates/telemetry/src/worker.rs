//! Per-worker telemetry store and the snapshot the C4a agent ships to the
//! C4D master.
//!
//! Each training worker (one per GPU) owns a [`WorkerTelemetry`]; the
//! enhanced communication library appends records as collectives execute.
//! The C4a agent periodically takes a [`TelemetrySnapshot`] and forwards it
//! to the central master, which is where cross-worker comparison (the heart
//! of C4D) happens.

use c4_simcore::{FastMap, SimDuration, SimTime};
use c4_topology::{GpuId, PortId};

use crate::pipeline::{store_events, TelemetryEvent};
use crate::record::{CollRecord, CommRecord, ConnKey, ConnRecord, RankRecord};

/// All statistics one worker has accumulated.
#[derive(Debug, Clone, Default)]
pub struct WorkerTelemetry {
    gpu: Option<GpuId>,
    comms: Vec<CommRecord>,
    colls: Vec<CollRecord>,
    /// Connection aggregates in first-record order, so snapshots (and every
    /// event order derived from them) repeat exactly from run to run.
    conns: Vec<ConnRecord>,
    /// Position of each connection's aggregate in `conns`.
    conn_index: FastMap<ConnKey, usize>,
    ranks: Vec<RankRecord>,
}

impl WorkerTelemetry {
    /// Creates an empty store for the given worker GPU.
    pub fn new(gpu: GpuId) -> Self {
        WorkerTelemetry {
            gpu: Some(gpu),
            ..Default::default()
        }
    }

    /// The worker's GPU.
    pub fn gpu(&self) -> Option<GpuId> {
        self.gpu
    }

    /// Registers a communicator.
    pub fn record_comm(&mut self, rec: CommRecord) {
        self.comms.push(rec);
    }

    /// Appends a collective-operation record.
    pub fn record_coll(&mut self, rec: CollRecord) {
        self.colls.push(rec);
    }

    /// Folds a message transfer into the connection aggregate, creating the
    /// connection record on first use.
    pub fn record_message(
        &mut self,
        key: ConnKey,
        src_port: PortId,
        bytes: u64,
        duration: SimDuration,
        completed_at: SimTime,
    ) {
        let i = *self.conn_index.entry(key).or_insert_with(|| {
            self.conns.push(ConnRecord::new(key, src_port));
            self.conns.len() - 1
        });
        self.conns[i].record_message(bytes, duration, completed_at);
    }

    /// Appends a per-step rank record.
    pub fn record_rank(&mut self, rec: RankRecord) {
        self.ranks.push(rec);
    }

    /// Communicator records.
    pub fn comms(&self) -> &[CommRecord] {
        &self.comms
    }

    /// Connection aggregates, in the order their first message was
    /// recorded.
    pub fn conns(&self) -> impl Iterator<Item = &ConnRecord> {
        self.conns.iter()
    }

    /// The store's records as pipeline events, in the canonical per-store
    /// order that [`events_from_snapshots`] gives each snapshot:
    /// communicator records, then collective records, then connection
    /// aggregates, then rank reports. Feeding stores in device order this
    /// way streams exactly the events of their snapshots without taking
    /// any.
    ///
    /// [`events_from_snapshots`]: crate::pipeline::events_from_snapshots
    pub fn events(&self) -> impl Iterator<Item = TelemetryEvent> + '_ {
        store_events(&self.comms, &self.colls, &self.conns, &self.ranks)
    }

    /// Drops all records (job restart). A cleared store holds what a fresh
    /// one would, and keeps its buffers.
    pub fn clear(&mut self) {
        self.comms.clear();
        self.colls.clear();
        self.conns.clear();
        self.conn_index.clear();
        self.ranks.clear();
    }

    /// Takes an immutable snapshot for shipping to the master.
    pub fn snapshot(&self, taken: SimTime) -> TelemetrySnapshot {
        TelemetrySnapshot {
            gpu: self.gpu,
            taken,
            comms: self.comms.clone(),
            colls: self.colls.clone(),
            conns: self.conns.clone(),
            ranks: self.ranks.clone(),
        }
    }
}

/// What the C4a agent sends to the C4D master: a point-in-time copy of a
/// worker's statistics.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// The worker's GPU.
    pub gpu: Option<GpuId>,
    /// When the snapshot was taken.
    pub taken: SimTime,
    /// Communicator records.
    pub comms: Vec<CommRecord>,
    /// Collective records.
    pub colls: Vec<CollRecord>,
    /// Connection aggregates, in first-record order.
    pub conns: Vec<ConnRecord>,
    /// Rank records.
    pub ranks: Vec<RankRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AlgoKind, CollKind, DataType};

    fn coll(comm: u64, seq: u64, end: Option<SimTime>) -> CollRecord {
        CollRecord {
            comm,
            seq,
            rank: 0,
            kind: CollKind::AllReduce,
            algo: AlgoKind::Ring,
            dtype: DataType::F32,
            count: 1,
            start: SimTime::from_secs(seq),
            end,
        }
    }

    #[test]
    fn messages_aggregate_per_connection() {
        let mut w = WorkerTelemetry::new(GpuId::from_index(0));
        let key = ConnKey {
            comm: 1,
            channel: 0,
            qp: 1,
            src_gpu: GpuId::from_index(0),
            dst_gpu: GpuId::from_index(8),
        };
        for i in 0..3 {
            w.record_message(
                key,
                PortId::from_index(4),
                100,
                SimDuration::from_millis(2),
                SimTime::from_secs(i),
            );
        }
        let rec = w.conns().find(|c| c.key == key).unwrap();
        assert_eq!(rec.messages, 3);
        assert_eq!(rec.bytes, 300);
        assert_eq!(w.conns().count(), 1);
    }

    #[test]
    fn snapshot_keeps_connections_in_first_record_order() {
        let mut w = WorkerTelemetry::new(GpuId::from_index(0));
        let keys: Vec<ConnKey> = (0..16u16)
            .map(|qp| ConnKey {
                comm: 1 + u64::from(qp % 3),
                channel: qp / 2,
                qp,
                src_gpu: GpuId::from_index(0),
                dst_gpu: GpuId::from_index(8 + usize::from(qp)),
            })
            .collect();
        for round in 0..2 {
            for &key in &keys {
                w.record_message(
                    key,
                    PortId::from_index(0),
                    100,
                    SimDuration::from_millis(1),
                    SimTime::from_secs(round),
                );
            }
        }
        let snap = w.snapshot(SimTime::from_secs(2));
        let order: Vec<ConnKey> = snap.conns.iter().map(|c| c.key).collect();
        assert_eq!(order, keys);
        assert!(snap.conns.iter().all(|c| c.messages == 2));
        assert!(w.conns().map(|c| c.key).eq(keys.iter().copied()));
    }

    #[test]
    fn snapshot_is_a_faithful_copy() {
        let mut w = WorkerTelemetry::new(GpuId::from_index(7));
        w.record_comm(CommRecord {
            comm: 1,
            devices: vec![GpuId::from_index(7)],
            created: SimTime::ZERO,
        });
        w.record_coll(coll(1, 0, None));
        let snap = w.snapshot(SimTime::from_secs(10));
        assert_eq!(snap.gpu, Some(GpuId::from_index(7)));
        assert_eq!(snap.taken, SimTime::from_secs(10));
        assert_eq!(snap.comms.len(), 1);
        assert_eq!(snap.colls.len(), 1);
        // Mutating the worker afterwards does not affect the snapshot.
        w.record_coll(coll(1, 1, None));
        assert_eq!(w.colls.len(), 2);
        assert_eq!(snap.colls.len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut w = WorkerTelemetry::new(GpuId::from_index(0));
        w.record_coll(coll(1, 0, None));
        w.record_rank(RankRecord {
            comm: 1,
            rank: 0,
            step: 0,
            compute: SimDuration::from_millis(1),
            ready_delay: SimDuration::ZERO,
            arrived: SimTime::ZERO,
        });
        w.clear();
        assert!(w.colls.is_empty());
        assert!(w.ranks.is_empty());
        assert_eq!(w.conns().count(), 0);
        assert_eq!(w.gpu(), Some(GpuId::from_index(0)));
    }
}
