//! The metric catalogue: every name the harness prints, with its unit.
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step.
//!
//! Units say which clock a number is on: `virt_us` is microseconds of
//! the modelled machine, `s`/`ms`/`us`/`ns` are host time.

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// End-to-end metrics: `(name, unit, which way is better, bound)`. Every workload
/// reports every one; README.md says what each means on each workload.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", LOWER, 0.25),
    ("wall_s", "s", LOWER, 0.25),
    ("peak_rss_mb", "MB", LOWER, 0.15),
    ("virt_lat_us", "virt_us", LOWER, 0.05),
    ("virt_slow_us", "virt_us", LOWER, 0.25),
    ("virt_mbs", "virt_MB/s", HIGHER, 0.15),
    ("virt_kops", "virt_kops", HIGHER, 0.15),
];

/// Per-layer metrics: `(name, unit, better)`. The prefix is the crate.
pub const PER_LAYER: [(&str, &str, &str); 87] = [
    // sim: the engine under the traced workload, then bare-kernel probes.
    ("sim.items", "count", LOWER),
    ("sim.events", "count", LOWER),
    ("sim.resumes", "count", LOWER),
    ("sim.fast_resume_share", "ratio", HIGHER),
    ("sim.batched_event_share", "ratio", HIGHER),
    ("sim.resumes_per_op", "count", LOWER),
    ("sim.host_ns_per_item", "ns", LOWER),
    ("sim.vcsw_per_resume", "ratio", LOWER),
    ("sim.sys_share", "ratio", LOWER),
    ("sim.allocs_per_item", "ratio", LOWER),
    ("sim.alloc_mb_per_rep", "MB", LOWER),
    ("sim.unpinned_wall_ratio", "ratio", LOWER),
    ("sim.probe_handoff_ns", "ns", LOWER),
    ("sim.probe_self_resume_ns", "ns", LOWER),
    ("sim.probe_event_ns", "ns", LOWER),
    ("sim.probe_spawn_us", "us", LOWER),
    // fabric, mesh, node: isolated probes and the workload's traffic.
    ("fabric.probe_route_ns", "ns", LOWER),
    ("mesh.packets", "count", LOWER),
    ("mesh.payload_mb", "MB", LOWER),
    ("mesh.probe_pkt_ns", "ns", LOWER),
    ("mesh.virt_share", "ratio", LOWER),
    ("node.probe_copy_ns_per_kb", "ns", LOWER),
    // nic
    ("nic.au_packets", "count", LOWER),
    ("nic.du_packets", "count", LOWER),
    ("nic.fetch_replies", "count", LOWER),
    ("nic.freezes", "count", LOWER),
    ("nic.host_ns_per_pkt", "ns", LOWER),
    ("nic.out_virt_share", "ratio", LOWER),
    ("nic.in_virt_share", "ratio", LOWER),
    ("nic.deposit_virt_share", "ratio", LOWER),
    // core: raw VMMC probes at the paper's anchor sizes.
    ("core.au_oneway_us", "virt_us", LOWER),
    ("core.du_oneway_us", "virt_us", LOWER),
    ("core.au_peak_mbs", "virt_MB/s", HIGHER),
    ("core.du_peak_mbs", "virt_MB/s", HIGHER),
    ("core.du_10k_mbs", "virt_MB/s", HIGHER),
    ("core.fetch_64b_us", "virt_us", LOWER),
    ("core.fetch_64k_mbs", "virt_MB/s", HIGHER),
    ("core.paper_err_pct", "%", LOWER),
    ("core.endpoint_virt_share", "ratio", LOWER),
    ("core.host_us_per_msg", "us", LOWER),
    // nx, sockets, sunrpc, srpc
    ("nx.oneway_us", "virt_us", LOWER),
    ("nx.overhead_us", "virt_us", LOWER),
    ("nx.peak_mbs", "virt_MB/s", HIGHER),
    ("nx.paper_err_pct", "%", LOWER),
    ("nx.host_us_per_msg", "us", LOWER),
    ("sockets.oneway_us", "virt_us", LOWER),
    ("sockets.overhead_us", "virt_us", LOWER),
    ("sockets.peak_mbs", "virt_MB/s", HIGHER),
    ("sockets.paper_err_pct", "%", LOWER),
    ("sockets.host_us_per_msg", "us", LOWER),
    ("sunrpc.null_call_us", "virt_us", LOWER),
    ("sunrpc.paper_err_pct", "%", LOWER),
    ("sunrpc.host_us_per_call", "us", LOWER),
    ("srpc.null_call_us", "virt_us", LOWER),
    ("srpc.paper_err_pct", "%", LOWER),
    ("srpc.host_us_per_call", "us", LOWER),
    // coll: an 8x8 probe at exact sizes.
    ("coll.barrier_us", "virt_us", LOWER),
    ("coll.allreduce_64_us", "virt_us", LOWER),
    ("coll.allreduce_1k_us", "virt_us", LOWER),
    ("coll.allreduce_8k_us", "virt_us", LOWER),
    ("coll.setup_virt_us", "virt_us", LOWER),
    ("coll.host_ms_per_op", "ms", LOWER),
    // svc: a 2x2 closed-loop probe cell, then the traced workload's own
    // serving counts (zero on workloads that serve nothing).
    ("svc.bind_virt_ms", "virt_ms", LOWER),
    ("svc.get_p50_us", "virt_us", LOWER),
    ("svc.put_p50_us", "virt_us", LOWER),
    ("svc.readthrough_get_p50_us", "virt_us", LOWER),
    ("svc.readthrough_hit_share", "ratio", HIGHER),
    ("svc.host_ms_per_req", "ms", LOWER),
    ("svc.hedges", "count", LOWER),
    ("svc.shed_share_overload", "ratio", LOWER),
    ("svc.gen_late_max_ps", "virt_ps", LOWER),
    // rmc
    ("rmc.pager_fault_p50_us", "virt_us", LOWER),
    ("rmc.pager_hit_share", "ratio", HIGHER),
    ("rmc.host_us_per_fault", "us", LOWER),
    // The libraries' share of a traced message's life, and time no
    // layer was working on it.
    ("lib.user_virt_share", "ratio", LOWER),
    ("obs.wait_virt_share", "ratio", LOWER),
    ("obs.trace_overhead_pct", "%", LOWER),
    ("obs.spans_per_rep", "count", LOWER),
    ("obs.conserved_share", "ratio", HIGHER),
    // harness: validity of the run itself.
    ("harness.startup_s", "s", LOWER),
    ("harness.steady_s", "s", LOWER),
    ("harness.host_us_per_op", "us", LOWER),
    ("harness.rep_spread_pct", "%", LOWER),
    ("harness.reps", "count", HIGHER),
    ("harness.pinned_cpu", "count", LOWER),
    ("harness.nproc", "count", HIGHER),
    ("harness.failed_share", "ratio", LOWER),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert_eq!(NAMES.len(), 4);
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for name in NAMES
            .iter()
            .chain(END_TO_END.iter().map(|m| &m.0))
            .chain(PER_LAYER.iter().map(|m| &m.0))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(*name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit_ok(unit), "{unit}");
        }
        for (name, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1, setup.2), ("s", LOWER));
        let largest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
        assert_eq!(setup.3, largest, "setup_s carries the largest bound");
    }

    /// `BENCHMARK.json` and the catalogue list the same metrics, in the
    /// same order, with the same unit, direction and bound.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let at = json.find(&format!("\"{key}\"")).expect(key);
            let open = at + json[at..].find('[').expect("array");
            let close = open + json[open..].find(']').expect("array end");
            json[open..close].to_string()
        };
        let rows = |text: &str| -> Vec<String> {
            text.lines()
                .map(str::trim)
                .filter(|l| l.starts_with('{'))
                .map(|l| l.trim_end_matches(',').to_string())
                .collect()
        };
        let want_e2e: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| {
                format!(
                    "{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}"
                )
            })
            .collect();
        assert_eq!(rows(&section("end_to_end")), want_e2e);
        let want_layers: Vec<String> = PER_LAYER
            .iter()
            .map(|(n, u, b)| {
                format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
            })
            .collect();
        assert_eq!(rows(&section("per_layer")), want_layers);
        let workloads = rows(&section("workloads"));
        assert_eq!(workloads.len(), NAMES.len());
        for (row, name) in workloads.iter().zip(NAMES) {
            assert!(
                row.starts_with(&format!("{{\"name\": \"{name}\", \"why\": \"")),
                "{row}"
            );
        }
    }
}
