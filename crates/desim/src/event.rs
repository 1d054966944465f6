//! Instrumentation categories.
//!
//! Every span and mark in the [`crate::span::SpanStore`] belongs to a
//! [`Category`]: the subsystem it came from, and the unit at which the
//! profiler buckets virtual time and the metrics summary tallies records.

use std::fmt;

/// The subsystem a span or mark originates from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Category {
    /// MicroGrid CPU scheduler daemon (Fig 4 quantum loop).
    Sched,
    /// Packet network simulator (links, queues, drops).
    Net,
    /// Virtual socket layer (application-visible traffic).
    Vsock,
    /// Virtual host memory manager (allocations and cap denials).
    Mem,
    /// MPI collective operations.
    Mpi,
    /// Scenario-scripted fault injection (link outages, host crashes).
    Fault,
}

impl Category {
    /// Stable lowercase name used in trace output and metric keys.
    pub const fn name(self) -> &'static str {
        match self {
            Category::Sched => "sched",
            Category::Net => "net",
            Category::Vsock => "vsock",
            Category::Mem => "mem",
            Category::Mpi => "mpi",
            Category::Fault => "fault",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        use Category::*;
        let names: Vec<&str> = [Sched, Net, Vsock, Mem, Mpi, Fault]
            .iter()
            .map(|c| c.name())
            .collect();
        assert_eq!(names, ["sched", "net", "vsock", "mem", "mpi", "fault"]);
        assert_eq!(Category::Mpi.to_string(), "mpi");
    }
}
