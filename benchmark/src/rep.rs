//! What one rep of any workload hands back to the harness.

use std::collections::BTreeMap;
use std::time::Instant;

use shrimp_core::ShrimpSystem;
use shrimp_sim::metrics::MetricsSnapshot;

use crate::stats::{percentile_sorted, Digest};

/// One measured phase of a rep: a library × size class, a collective
/// at one size, a ladder step.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Phase name, e.g. `nx:1k`, `stream:vmmc_du:64k`, `barrier`, `step3`.
    pub name: String,
    /// Virtual picoseconds of each measured operation. For a stream,
    /// the gap between consecutive arrivals at the receiver.
    pub lat_ps: Vec<u64>,
    /// Payload bytes the measured operations delivered.
    pub bytes: u64,
    /// Virtual picoseconds the measured operations spanned.
    pub span_ps: u64,
    /// Host seconds of the measured operations.
    pub host_s: f64,
    /// When, on the host clock, the measured operations began.
    pub host_t0: Option<Instant>,
    /// Engine counters over the measured operations.
    pub sim: MetricsSnapshot,
}

impl Phase {
    /// Measured operations.
    pub fn ops(&self) -> u64 {
        self.lat_ps.len() as u64
    }

    /// Mean virtual microseconds per operation.
    pub fn mean_us(&self) -> f64 {
        self.lat_ps.iter().sum::<u64>() as f64 / self.lat_ps.len() as f64 / 1e6
    }

    /// Percentile `p` of the operation latencies, virtual microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut v = self.lat_ps.clone();
        v.sort_unstable();
        percentile_sorted(&v, p) as f64 / 1e6
    }

    /// Payload MB per virtual second (bytes per microsecond).
    pub fn mbs(&self) -> f64 {
        self.bytes as f64 / (self.span_ps as f64 / 1e6)
    }
}

/// Packet and byte counts summed over a system's NICs and fabric.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficCounts {
    /// Packets the fabric delivered.
    pub mesh_packets: u64,
    /// Payload bytes the fabric carried.
    pub mesh_payload_bytes: u64,
    /// Automatic-update packets injected.
    pub au_packets: u64,
    /// Deliberate-update packets injected.
    pub du_packets: u64,
    /// Fetch reply packets streamed out.
    pub fetch_replies: u64,
    /// Receive-path freezes.
    pub freezes: u64,
}

impl TrafficCounts {
    /// Read a system's counters through `net().stats()` and
    /// `nic(i).stats()`.
    pub fn of(system: &ShrimpSystem) -> TrafficCounts {
        let mesh = system.net().stats();
        let mut t = TrafficCounts {
            mesh_packets: mesh.delivered,
            mesh_payload_bytes: mesh.payload_bytes,
            ..TrafficCounts::default()
        };
        for i in 0..system.len() {
            let s = system.nic(i).stats();
            t.au_packets += s.au_packets_out;
            t.du_packets += s.du_packets_out;
            t.fetch_replies += s.fetch_replies_out;
            t.freezes += s.freezes;
        }
        t
    }
}

/// One rep's outcome.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    /// When, on the host clock, the rep began.
    pub host_t0: Option<Instant>,
    /// Host seconds of the whole rep: set-up, measured phases, teardown.
    pub wall_s: f64,
    /// Host seconds of the rep outside its measured operations and its
    /// teardown: kernel and system build, export/import, connects,
    /// communicator creation, binder warm-up and warm-up operations.
    pub setup_s: f64,
    /// Host seconds of dropping the kernel and the system.
    pub teardown_s: f64,
    /// Virtual picoseconds the set-up took on the modelled machine.
    pub setup_virt_ps: u64,
    /// Measured phases, in execution order.
    pub phases: Vec<Phase>,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that returned `Err`, were shed below the overload
    /// step, or failed verification.
    pub failed: u64,
    /// The first few failures.
    pub errors: Vec<String>,
    /// Engine counters over the whole rep.
    pub sim: MetricsSnapshot,
    /// Fabric and NIC counters over the whole rep.
    pub traffic: TrafficCounts,
    /// Workload-specific exact virtual results (hit counts, shed
    /// counts, lateness…), folded into the digest and the detail
    /// report.
    pub counts: BTreeMap<String, u64>,
}

impl RepOut {
    /// Host seconds inside measured operations.
    pub fn measured_s(&self) -> f64 {
        self.phases.iter().map(|p| p.host_s).sum()
    }

    /// Measured operations.
    pub fn ops(&self) -> u64 {
        self.phases.iter().map(Phase::ops).sum()
    }

    /// The phase named `name`.
    pub fn phase(&self, name: &str) -> &Phase {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("rep has no phase '{name}'"))
    }

    /// Note one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// FNV-1a over every virtual sample of the rep. Host times and
    /// engine counters stay out: a simulator-only change must be free
    /// to move them.
    pub fn virt_digest(&self) -> Digest {
        let mut d = Digest::default();
        d.u64(self.setup_virt_ps);
        d.u64(self.attempted);
        d.u64(self.failed);
        for p in &self.phases {
            d.label(&p.name);
            d.u64(p.bytes);
            d.u64(p.span_ps);
            for &l in &p.lat_ps {
                d.u64(l);
            }
        }
        for (k, v) in &self.counts {
            d.label(k);
            d.u64(*v);
        }
        let t = &self.traffic;
        for v in [
            t.mesh_packets,
            t.mesh_payload_bytes,
            t.au_packets,
            t.du_packets,
            t.fetch_replies,
            t.freezes,
        ] {
            d.u64(v);
        }
        d
    }
}

/// The four virtual end-to-end numbers every workload reports, plus
/// the workload's own named results for the detail report.
#[derive(Clone, Debug, Default)]
pub struct VirtSummary {
    /// `virt_lat_us`: the workload's typical operation latency.
    pub lat_us: f64,
    /// `virt_slow_us`: its slow case (large messages, tail percentile).
    pub slow_us: f64,
    /// `virt_mbs`: payload MB per virtual second in its data phase.
    pub mbs: f64,
    /// `virt_kops`: operations per virtual millisecond.
    pub kops: f64,
    /// Named results in the units their names say.
    pub detail: Vec<(String, f64)>,
}
