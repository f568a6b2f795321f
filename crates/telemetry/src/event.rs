//! C4 events: what the C4D master emits towards the job-steering service and
//! the background root-cause-analysis pipeline (paper Fig 4, "C4 Events").

use std::fmt;

use c4_simcore::SimTime;
use c4_topology::{GpuId, LinkId, NodeId};

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational (e.g. job restarted).
    Info,
    /// Degradation that does not crash the job (slow node, congestion).
    Warning,
    /// Fault requiring isolation and restart.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        })
    }
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "INFO" => Severity::Info,
            "WARN" => Severity::Warning,
            "CRIT" => Severity::Critical,
            other => return Err(format!("unknown severity {other:?}")),
        })
    }
}

/// What a C4 event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A communication hang was detected on a communicator.
    CommHang,
    /// A non-communication hang (rank never reached the sync point).
    NonCommHang,
    /// A communication slowdown was localized.
    CommSlow,
    /// A non-communication slowdown was localized.
    NonCommSlow,
    /// A node was isolated.
    NodeIsolated,
    /// A job restart was triggered.
    JobRestart,
    /// A faulty link was eliminated from path allocation.
    LinkEliminated,
    /// QP loads were rebalanced after a network change.
    Rebalanced,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::CommHang => "comm_hang",
            EventKind::NonCommHang => "noncomm_hang",
            EventKind::CommSlow => "comm_slow",
            EventKind::NonCommSlow => "noncomm_slow",
            EventKind::NodeIsolated => "node_isolated",
            EventKind::JobRestart => "job_restart",
            EventKind::LinkEliminated => "link_eliminated",
            EventKind::Rebalanced => "rebalanced",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for EventKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "comm_hang" => EventKind::CommHang,
            "noncomm_hang" => EventKind::NonCommHang,
            "comm_slow" => EventKind::CommSlow,
            "noncomm_slow" => EventKind::NonCommSlow,
            "node_isolated" => EventKind::NodeIsolated,
            "job_restart" => EventKind::JobRestart,
            "link_eliminated" => EventKind::LinkEliminated,
            "rebalanced" => EventKind::Rebalanced,
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

/// One event (`events.csv` row).
#[derive(Debug, Clone, PartialEq)]
pub struct C4Event {
    /// When the event was raised.
    pub time: SimTime,
    /// Severity.
    pub severity: Severity,
    /// Event kind.
    pub kind: EventKind,
    /// Node involved, if localized to one.
    pub node: Option<NodeId>,
    /// GPU involved, if localized to one.
    pub gpu: Option<GpuId>,
    /// Link involved, if localized to one.
    pub link: Option<LinkId>,
    /// Free-form detail.
    pub detail: String,
}

impl fmt::Display for C4Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {} {}]", self.time, self.severity, self.kind)?;
        if let Some(n) = self.node {
            write!(f, " {n}")?;
        }
        if let Some(g) = self.gpu {
            write!(f, " {g}")?;
        }
        if let Some(l) = self.link {
            write!(f, " {l}")?;
        }
        if !self.detail.is_empty() {
            write!(f, " — {}", self.detail)?;
        }
        Ok(())
    }
}

/// An append-only event log with filtering helpers.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<C4Event>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: C4Event) {
        self.events.push(event);
    }

    /// All events in arrival order.
    pub fn events(&self) -> &[C4Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the log as an `events.csv` document. Round-trips exactly
    /// through [`EventLog::parse_csv`]: times carry full nanosecond
    /// precision and the free-form `detail` field is RFC 4180-quoted
    /// verbatim (commas, quotes and newlines survive).
    pub fn to_csv(&self) -> String {
        crate::csv::to_csv_document(&self.events)
    }

    /// Parses an `events.csv` document back into a log — the exact inverse
    /// of [`EventLog::to_csv`].
    pub fn parse_csv(doc: &str) -> Result<Self, crate::csv::CsvError> {
        Ok(EventLog {
            events: crate::csv::parse_csv_document(doc)?,
        })
    }
}

impl crate::csv::ToCsv for C4Event {
    fn csv_header() -> &'static str {
        "time_s,severity,kind,node,gpu,link,detail"
    }

    fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            crate::csv::format_secs(self.time),
            self.severity,
            self.kind,
            self.node.map(|n| n.index().to_string()).unwrap_or_default(),
            self.gpu.map(|g| g.index().to_string()).unwrap_or_default(),
            self.link.map(|l| l.index().to_string()).unwrap_or_default(),
            crate::csv::quote_field(&self.detail),
        )
    }
}

impl crate::csv::FromCsv for C4Event {
    fn from_csv_row(row: &str) -> Result<Self, crate::csv::CsvError> {
        use crate::csv::CsvError;
        let fields = crate::csv::split_fields(row)?;
        if fields.len() != 7 {
            return Err(CsvError::new(format!(
                "events rows carry 7 columns, got {}",
                fields.len()
            )));
        }
        fn opt_id<T>(
            raw: &str,
            make: impl Fn(usize) -> T,
            name: &str,
        ) -> Result<Option<T>, CsvError> {
            if raw.is_empty() {
                return Ok(None);
            }
            raw.parse::<usize>()
                .map(|i| Some(make(i)))
                .map_err(|e| CsvError::new(format!("column {name}: {e} (got {raw:?})")))
        }
        Ok(C4Event {
            time: crate::csv::parse_secs(&fields[0])?,
            severity: fields[1]
                .parse()
                .map_err(|e| CsvError::new(format!("column severity: {e}")))?,
            kind: fields[2]
                .parse()
                .map_err(|e| CsvError::new(format!("column kind: {e}")))?,
            node: opt_id(&fields[3], NodeId::from_index, "node")?,
            gpu: opt_id(&fields[4], GpuId::from_index, "gpu")?,
            link: opt_id(&fields[5], LinkId::from_index, "link")?,
            detail: fields[6].clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: EventKind, severity: Severity) -> C4Event {
        C4Event {
            time: SimTime::from_secs(1),
            severity,
            kind,
            node: Some(NodeId::from_index(3)),
            gpu: None,
            link: None,
            detail: "ecc error, repeated".into(),
        }
    }

    #[test]
    fn csv_quotes_commas_in_detail_and_round_trips() {
        let mut log = EventLog::new();
        log.push(sample(EventKind::NodeIsolated, Severity::Critical));
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[1].ends_with("\"ecc error, repeated\""),
            "detail is quoted verbatim, not mangled: {}",
            lines[1]
        );
        let back = EventLog::parse_csv(&csv).unwrap();
        assert_eq!(back.events(), log.events());
    }

    #[test]
    fn csv_round_trips_newlines_and_quotes_in_detail() {
        let mut log = EventLog::new();
        let mut e = sample(EventKind::CommSlow, Severity::Warning);
        e.detail = "line one\nline \"two\", with comma".into();
        log.push(e);
        log.push(sample(EventKind::JobRestart, Severity::Info));
        let back = EventLog::parse_csv(&log.to_csv()).unwrap();
        assert_eq!(back.events(), log.events());
    }

    #[test]
    fn display_is_informative() {
        let e = sample(EventKind::CommHang, Severity::Critical);
        let s = e.to_string();
        assert!(s.contains("CRIT"));
        assert!(s.contains("comm_hang"));
        assert!(s.contains("node3"));
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
